//! Crash recovery for an RW node.
//!
//! A leader's in-memory Bw-tree is reconstructible entirely from shared
//! state, because BG3 writes the WAL before acknowledging and publishes the
//! mapping table only after dirty pages are flushed (§3.4):
//!
//! 1. the **mapping table** names every flushed page's latest base image
//!    and, under the page's delta key, the one merged delta over it;
//! 2. WAL records after the last `CheckpointComplete` describe everything
//!    newer than those images;
//! 3. `Split` records (any LSN) rebuild the routing table from scratch —
//!    every tree's first leaf is page 1 by construction, and a page no
//!    `Split` routes to (a torn split's lone `NewPage`) is dropped.
//!
//! Replaying WAL records older than a page's recovered image is safe: the
//! record stream is ordered and per-key last-writer-wins, so re-applying a
//! covered prefix converges to the same state (the same argument that makes
//! RO lazy replay correct). The same property makes recovery robust to a
//! damaged mapped image: a page whose base image fails integrity (rot,
//! quarantine, a reclaimed extent) — or whose delta does — is rebuilt from
//! its full WAL history instead of failing the failover.

use bg3_bwtree::tree::FIRST_LEAF;
use bg3_bwtree::{
    decode_base_page, decode_delta, BwTree, BwTreeConfig, DeltaOp, Entries, PageTag, RecoveredPage,
    TreeEventListener,
};
use bg3_storage::{
    AppendOnlyStore, ErrorKind, MappingSnapshot, PageAddr, SharedMappingTable, StorageError,
    StorageOp, StorageResult,
};
use bg3_wal::{Lsn, WalPayload, WalRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Rebuilds tree `tree_id` from the shared store.
///
/// `records` must be the full WAL stream in LSN order (from a
/// [`bg3_wal::WalReader`] positioned at the start). The recovered tree has
/// consolidated pages, an empty dirty set, and correct `entry_count`.
/// Mapped images are read in page-id order, so the I/O a recovery charges
/// repeats exactly from run to run.
pub fn recover_tree(
    tree_id: u32,
    store: AppendOnlyStore,
    mapping: &SharedMappingTable,
    records: &[WalRecord],
    config: BwTreeConfig,
    listener: Arc<dyn TreeEventListener>,
) -> StorageResult<BwTree> {
    let snapshot = mapping.snapshot();
    recover_from(tree_id, store, &snapshot, records, config, listener)
}

/// [`recover_tree`] through one given mapping version: what a crash at the
/// moment `snapshot` was the live table would recover, given the WAL
/// prefix written by then.
pub(crate) fn recover_from(
    tree_id: u32,
    store: AppendOnlyStore,
    snapshot: &MappingSnapshot,
    records: &[WalRecord],
    config: BwTreeConfig,
    listener: Arc<dyn TreeEventListener>,
) -> StorageResult<BwTree> {
    // 0. Fence zombies. A legitimate log's epoch is monotonically
    //    non-decreasing, so a record whose epoch regresses below the running
    //    maximum was appended by a deposed leader racing its own demise.
    //    Drop such records before every pass — including the checkpoint
    //    scan, whose horizon a zombie must not be allowed to advance.
    let mut max_epoch = 0u64;
    let records: Vec<&WalRecord> = records
        .iter()
        .filter(|r| {
            if r.epoch < max_epoch {
                return false;
            }
            max_epoch = r.epoch;
            true
        })
        .filter(|r| r.tree == tree_id as u64)
        .collect();

    // 1. Checkpoint horizon: content records at or below it are reflected
    //    in the mapping's page images.
    let durable = records
        .iter()
        .filter_map(|r| match r.payload {
            WalPayload::CheckpointComplete { upto, .. } => Some(upto),
            _ => None,
        })
        .max()
        .map(Lsn)
        .unwrap_or(Lsn::ZERO);

    // 2. Page images from the published mapping. A mapped image that fails
    //    integrity — a rotted frame, a quarantined or since-reclaimed
    //    extent, or bytes that no longer decode — does not fail recovery:
    //    `records` is the page's *full* WAL history, so the page is rebuilt
    //    from replay alone starting from an empty image (the same
    //    convergence argument as above, with the covered prefix replayed
    //    instead of skipped). Rebuilt pages come back dirty with no base
    //    address, so the next checkpoint re-flushes them and republishes a
    //    verified mapping entry. Transient faults still surface as errors.
    let mut pages: BTreeMap<u32, RecoveredPage> = BTreeMap::new();
    let mut routing: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
    routing.insert(Vec::new(), FIRST_LEAF);
    pages.insert(FIRST_LEAF, RecoveredPage::default());
    // Pre-create every page the log mentions so replay has a slot.
    for record in records.iter().filter(|r| r.payload.is_page_scoped()) {
        pages.entry(record.page as u32).or_default();
    }
    let mut rebuild: BTreeSet<u32> = BTreeSet::new();
    for (&page, slot) in pages.iter_mut() {
        match read_page(snapshot, tree_id, page, |addr| store.read(addr)) {
            Ok(Some(mapped)) => *slot = mapped,
            Ok(None) => {}
            Err(err) if image_lost(&err) => {
                rebuild.insert(page);
            }
            Err(err) => return Err(err),
        }
    }

    // 3. Replay. Structural records rebuild routing unconditionally; content
    //    records above the checkpoint horizon patch page entries (replaying
    //    a covered prefix would also converge, but skipping it is cheaper).
    //    Pages whose mapped image was lost replay their whole history.
    //    Pages patched past the horizon come back dirty: their memory is
    //    newer than their mapped image, so they must re-flush before the
    //    next checkpoint advances the horizon over them.
    let mut dirty = rebuild.clone();
    for record in records.iter().filter(|r| r.payload.is_page_scoped()) {
        let page = record.page as u32;
        let past_horizon = record.lsn > durable;
        if past_horizon {
            dirty.insert(page);
        }
        if let WalPayload::Split {
            right_page,
            separator,
        } = &record.payload
        {
            routing.insert(separator.clone(), *right_page as u32);
            if past_horizon {
                dirty.insert(*right_page as u32);
            }
        }
        if past_horizon || rebuild.contains(&page) {
            apply_payload(&mut pages.entry(page).or_default().entries, &record.payload)?;
        }
    }

    // A `NewPage` whose `Split` never reached the log (an append failed
    // between the two) names a page no routing entry reaches: drop it, as
    // the tree dropped the split.
    let routed: BTreeSet<u32> = routing.values().copied().collect();
    pages.retain(|page, _| routed.contains(page));
    dirty.retain(|page| routed.contains(page));

    // 4. Assemble. Pages keep their mapped base and delta addresses even
    //    when replay moved them past those records: the addresses serve
    //    relocation fix-ups, scrub repair and cold reads (which re-verify
    //    through storage), and the tree rewrites every recovered base at
    //    the page's next flush.
    Ok(BwTree::assemble(
        tree_id,
        store,
        config,
        listener,
        routing,
        pages
            .into_iter()
            .map(|(page, slot)| RecoveredPage { page, ..slot })
            .collect(),
        dirty.into_iter().collect(),
    ))
}

/// Applies one page-scoped WAL payload to a page's sorted entries: the one
/// replay rule shared by crash recovery and a follower's lazy replay.
/// A torn page image is a structured `CorruptRecord` error, not a panic.
pub(crate) fn apply_payload(entries: &mut Entries, payload: &WalPayload) -> StorageResult<()> {
    match payload {
        WalPayload::Upsert { key, value } => upsert(entries, key, value),
        WalPayload::Delete { key } => remove(entries, key),
        WalPayload::PageImage { image } | WalPayload::NewPage { image } => {
            *entries = decode_image(image, StorageOp::WalReplay)?;
        }
        WalPayload::Split { separator, .. } => {
            // This page is the left half: keys >= separator moved away.
            entries.retain(|(k, _)| k.as_slice() < separator.as_slice());
        }
        // Not page-scoped: never applied to a page.
        WalPayload::CheckpointComplete { .. } | WalPayload::ForestSplitOut { .. } => {}
    }
    Ok(())
}

fn upsert(entries: &mut Entries, key: &[u8], value: &[u8]) {
    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
        Ok(i) => entries[i].1 = value.to_vec(),
        Err(i) => entries.insert(i, (key.to_vec(), value.to_vec())),
    }
}

fn remove(entries: &mut Entries, key: &[u8]) {
    if let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
        entries.remove(i);
    }
}

/// Reads page `page` of tree `tree` as `snapshot` maps it: the base image
/// under the page's key, then the merged delta under its delta key
/// ([`PageTag::delta`]), decoded and applied over the base — at most two
/// reads. `read` fetches one verified record. `None` when the snapshot maps
/// no base (a page never flushed); otherwise `base_addr` is set. Bytes
/// that verify but do not decode are reported as `CorruptRecord` at their
/// address.
///
/// This is the one durable-page reader: crash recovery and a follower's
/// cold fetch both use it.
pub(crate) fn read_page<B: AsRef<[u8]>>(
    snapshot: &MappingSnapshot,
    tree: u32,
    page: u32,
    read: impl Fn(PageAddr) -> StorageResult<B>,
) -> StorageResult<Option<RecoveredPage>> {
    let Some(base_addr) = snapshot.get(PageTag { tree, page }.encode()) else {
        return Ok(None);
    };
    let mut entries = decode_image(read(base_addr)?.as_ref(), StorageOp::Read)
        .map_err(|e| e.with_addr(base_addr))?;
    let delta = match snapshot.get(PageTag::delta(tree, page).encode()) {
        Some(addr) => {
            let ops = decode_delta(read(addr)?.as_ref())
                .map_err(|_| StorageError::corrupt_record(StorageOp::Read, addr))?;
            for op in &ops {
                match op {
                    DeltaOp::Put { key, value } => upsert(&mut entries, key, value),
                    DeltaOp::Delete { key } => remove(&mut entries, key),
                }
            }
            Some((addr, ops))
        }
        None => None,
    };
    Ok(Some(RecoveredPage {
        page,
        entries,
        base_addr: Some(base_addr),
        delta,
    }))
}

fn decode_image(image: &[u8], op: StorageOp) -> StorageResult<Entries> {
    decode_base_page(image).map_err(|_| StorageError::new(ErrorKind::CorruptRecord, op))
}

/// True when a mapped base image or delta is damaged or gone — a rotted
/// frame, a quarantined or since-reclaimed extent, a stale address — as
/// opposed to a transient I/O failure worth surfacing to the caller.
/// Recovery responds by rebuilding the page from its full WAL history.
fn image_lost(err: &StorageError) -> bool {
    matches!(
        err.kind,
        ErrorKind::ChecksumMismatch
            | ErrorKind::CorruptRecord
            | ErrorKind::AddrNotFound
            | ErrorKind::AddrOutOfBounds
            | ErrorKind::ExtentQuarantined(_)
            | ErrorKind::UnknownExtent(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_leader::{Leader, LeaderConfig};
    use bg3_bwtree::events::NullListener;
    use bg3_storage::{StoreBuilder, StoreConfig};

    fn recover_from(rw: &Leader) -> BwTree {
        let mut reader = rw.open_wal_reader();
        let records = reader.fetch_new().unwrap();
        recover_tree(
            1,
            rw.store().clone(),
            rw.mapping(),
            &records,
            BwTreeConfig::default(),
            Arc::new(NullListener),
        )
        .unwrap()
    }

    fn assert_same_content(a: &BwTree, b: &Leader, keys: impl Iterator<Item = Vec<u8>>) {
        for key in keys {
            assert_eq!(
                a.get(&key).unwrap(),
                b.get(&key).unwrap(),
                "divergence at {key:?}"
            );
        }
        assert_eq!(a.entry_count(), b.tree().entry_count());
        assert_eq!(
            a.scan_range(None, None, usize::MAX),
            b.tree().scan_range(None, None, usize::MAX)
        );
    }

    #[test]
    fn recovers_unflushed_writes_from_wal_alone() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(
            store,
            LeaderConfig {
                group_commit_pages: usize::MAX,
                ..LeaderConfig::default()
            },
        );
        for i in 0..50u32 {
            rw.put(format!("key{i:03}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        rw.delete(b"key007").unwrap();
        let recovered = recover_from(&rw);
        assert_same_content(
            &recovered,
            &rw,
            (0..50).map(|i| format!("key{i:03}").into_bytes()),
        );
    }

    #[test]
    fn recovers_across_checkpoints_and_splits() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut config = LeaderConfig {
            group_commit_pages: usize::MAX,
            ..LeaderConfig::default()
        };
        config.tree_config = config
            .tree_config
            .with_max_page_entries(8)
            .with_consolidate_threshold(4);
        let rw = Leader::new(store, config);
        for i in 0..60u32 {
            rw.put(format!("key{i:03}").as_bytes(), &i.to_le_bytes())
                .unwrap();
            if i % 20 == 19 {
                rw.checkpoint().unwrap();
            }
        }
        // More writes after the last checkpoint, including deletes.
        for i in 0..10u32 {
            rw.delete(format!("key{i:03}").as_bytes()).unwrap();
        }
        assert!(rw.tree().page_count() > 1, "splits happened");
        let mut reader = rw.open_wal_reader();
        let records = reader.fetch_new().unwrap();
        let recovered = recover_tree(
            1,
            rw.store().clone(),
            rw.mapping(),
            &records,
            bg3_bwtree::BwTreeConfig::default()
                .with_max_page_entries(8)
                .with_consolidate_threshold(4),
            Arc::new(NullListener),
        )
        .unwrap();
        assert_same_content(
            &recovered,
            &rw,
            (0..60).map(|i| format!("key{i:03}").into_bytes()),
        );
        assert_eq!(recovered.page_count(), rw.tree().page_count());
    }

    #[test]
    fn a_split_whose_split_record_failed_recovers_the_page_whole() {
        use bg3_storage::{ErrorKind, FaultKind, FaultOp, FaultPlan, FaultRule, IoErrorClass};
        let mut config = LeaderConfig {
            group_commit_pages: usize::MAX,
            ..LeaderConfig::default()
        };
        config.tree_config = config
            .tree_config
            .with_max_page_entries(8)
            .with_consolidate_threshold(4);
        let key = |i: u32| format!("key{i:03}").into_bytes();
        // A clean run finds the first `Split` record's LSN.
        let clean = Leader::new(StoreBuilder::counting().build(), config.clone());
        for i in 0..20u32 {
            clean.put(&key(i), &i.to_le_bytes()).unwrap();
        }
        let records = clean.open_wal_reader().fetch_new().unwrap();
        let split = records
            .iter()
            .find(|r| matches!(r.payload, WalPayload::Split { .. }))
            .expect("the page split")
            .lsn;

        // ENOSPC on that append: the right half's `NewPage` is logged
        // alone, and the page stays whole.
        let plan = FaultPlan::seeded(1).with_rule(
            FaultRule::new(FaultOp::Write, FaultKind::WriteNoSpace, 1.0)
                .on_stream(bg3_storage::StreamId::WAL)
                .after(split.0 - 1)
                .at_most(1),
        );
        let rw = Leader::new(StoreBuilder::counting().faults(plan).build(), config);
        let mut failed = 0;
        for i in 0..20u32 {
            if let Err(err) = rw.put(&key(i), &i.to_le_bytes()) {
                assert!(matches!(
                    err.kind,
                    ErrorKind::Io {
                        class: IoErrorClass::NoSpace,
                        ..
                    }
                ));
                assert_eq!(rw.tree().page_count(), 1, "the page stayed whole");
                failed += 1;
            }
        }
        assert_eq!(failed, 1);
        let records = rw.open_wal_reader().fetch_new().unwrap();
        let count = |f: fn(&WalPayload) -> bool| records.iter().filter(|r| f(&r.payload)).count();
        assert_eq!(
            count(|p| matches!(p, WalPayload::NewPage { .. })),
            count(|p| matches!(p, WalPayload::Split { .. })) + 1,
            "one NewPage has no Split"
        );
        // The tree split at a later write, reusing the right page's id.
        assert!(rw.tree().page_count() > 1);
        let recovered = recover_tree(
            1,
            rw.store().clone(),
            rw.mapping(),
            &records,
            rw.tree().config().clone(),
            Arc::new(NullListener),
        )
        .unwrap();
        assert_same_content(&recovered, &rw, (0..20).map(key));
        assert_eq!(recovered.page_count(), rw.tree().page_count());
    }

    #[test]
    fn recovered_tree_accepts_new_writes() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(store, LeaderConfig::default());
        for i in 0..30u32 {
            rw.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        rw.checkpoint().unwrap();
        let recovered = recover_from(&rw);
        recovered.put(b"post-recovery", b"ok").unwrap();
        assert_eq!(
            recovered.get(b"post-recovery").unwrap(),
            Some(b"ok".to_vec())
        );
        assert_eq!(recovered.entry_count(), 31);
    }

    #[test]
    fn corrupt_mapped_image_is_rebuilt_from_wal_history() {
        use bg3_storage::StreamId;
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(store, LeaderConfig::default());
        for i in 0..10u32 {
            rw.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        rw.checkpoint().unwrap();
        // Point the mapping at undecodable bytes, as a torn or misdirected
        // base-stream write would. The WAL still names every acked write,
        // so recovery rebuilds the page from replay alone.
        let garbage = rw
            .store()
            .append(StreamId::BASE, b"\xff\xff\xff\xffnot a page", 0, None)
            .unwrap();
        let tag = PageTag { tree: 1, page: 1 }.encode();
        rw.mapping().publish([(tag, Some(garbage))]);
        let recovered = recover_from(&rw);
        assert_same_content(
            &recovered,
            &rw,
            (0..10).map(|i| format!("k{i:02}").into_bytes()),
        );
        assert!(
            recovered.dirty_count() > 0,
            "a rebuilt page re-flushes before the next checkpoint"
        );
    }

    #[test]
    fn rotted_mapped_image_is_rebuilt_from_wal_history() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(store, LeaderConfig::default());
        for i in 0..20u32 {
            rw.put(format!("k{i:02}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        rw.checkpoint().unwrap();
        // Silent bit rot lands on the checkpointed base image itself.
        let tag = PageTag { tree: 1, page: 1 }.encode();
        let addr = rw.mapping().snapshot().get(tag).expect("page 1 mapped");
        rw.store().corrupt_record_bit(addr, 11).unwrap();
        let recovered = recover_from(&rw);
        assert_same_content(
            &recovered,
            &rw,
            (0..20).map(|i| format!("k{i:02}").into_bytes()),
        );
    }

    #[test]
    fn rotted_mapped_delta_is_rebuilt_from_wal_history() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(store, LeaderConfig::default());
        for i in 0..20u32 {
            rw.put(format!("k{i:02}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        rw.checkpoint().unwrap();
        rw.put(b"k03", b"newer").unwrap();
        rw.delete(b"k04").unwrap();
        rw.checkpoint().unwrap();
        // The second checkpoint wrote a merged delta over the first's base;
        // bit rot lands on the delta.
        let delta = PageTag::delta(1, 1).encode();
        let addr = rw.mapping().snapshot().get(delta).expect("delta mapped");
        rw.store().corrupt_record_bit(addr, 11).unwrap();
        let recovered = recover_from(&rw);
        assert_same_content(
            &recovered,
            &rw,
            (0..20).map(|i| format!("k{i:02}").into_bytes()),
        );
        assert!(recovered.dirty_count() > 0, "the rebuilt page re-flushes");
    }

    #[test]
    fn zombie_epoch_records_are_fenced_out_of_replay() {
        use bg3_storage::SimInstant;
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = Leader::new(
            store,
            LeaderConfig {
                group_commit_pages: usize::MAX,
                ..LeaderConfig::default()
            },
        );
        rw.put(b"real", b"1").unwrap();
        rw.put(b"also-real", b"2").unwrap();
        let mut reader = rw.open_wal_reader();
        let mut records = reader.fetch_new().unwrap();
        let max_epoch = records.iter().map(|r| r.epoch).max().unwrap();
        let next_lsn = records.last().unwrap().lsn.next();
        // A record from a new leader's epoch, then a straggler the deposed
        // zombie managed to append before the store fenced it.
        records.push(WalRecord {
            lsn: next_lsn,
            epoch: max_epoch + 1,
            tree: 1,
            page: 1,
            timestamp: SimInstant(0),
            payload: WalPayload::Upsert {
                key: b"new-era".to_vec(),
                value: b"3".to_vec(),
            },
        });
        records.push(WalRecord {
            lsn: next_lsn.next(),
            epoch: max_epoch,
            tree: 1,
            page: 1,
            timestamp: SimInstant(0),
            payload: WalPayload::Upsert {
                key: b"zombie".to_vec(),
                value: b"x".to_vec(),
            },
        });
        let recovered = recover_tree(
            1,
            rw.store().clone(),
            rw.mapping(),
            &records,
            BwTreeConfig::default(),
            Arc::new(NullListener),
        )
        .unwrap();
        assert_eq!(recovered.get(b"real").unwrap(), Some(b"1".to_vec()));
        assert_eq!(recovered.get(b"new-era").unwrap(), Some(b"3".to_vec()));
        assert_eq!(recovered.get(b"zombie").unwrap(), None, "zombie fenced");
    }

    #[test]
    fn empty_log_recovers_an_empty_tree() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mapping = SharedMappingTable::for_store(&store);
        let tree = recover_tree(
            1,
            store,
            &mapping,
            &[],
            BwTreeConfig::default(),
            Arc::new(NullListener),
        )
        .unwrap();
        assert_eq!(tree.entry_count(), 0);
        assert_eq!(tree.get(b"anything").unwrap(), None);
    }
}
