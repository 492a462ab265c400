//! Crash recovery for an RW node.
//!
//! A leader's in-memory Bw-tree is reconstructible entirely from shared
//! state, because BG3 writes the WAL before acknowledging and publishes the
//! mapping table only after dirty pages are flushed (§3.4):
//!
//! 1. the **mapping table** names every flushed page's latest base image;
//! 2. WAL records after the last `CheckpointComplete` describe everything
//!    newer than those images;
//! 3. `Split` records (any LSN) rebuild the routing table from scratch —
//!    every tree's first leaf is page 1 by construction.
//!
//! Replaying WAL records older than a page's recovered image is safe: the
//! record stream is ordered and per-key last-writer-wins, so re-applying a
//! covered prefix converges to the same state (the same argument that makes
//! RO lazy replay correct). The same property makes recovery robust to a
//! damaged mapped image: a page whose base image fails integrity (rot,
//! quarantine, a reclaimed extent) is rebuilt from its full WAL history
//! instead of failing the failover.

use bg3_bwtree::tree::FIRST_LEAF;
use bg3_bwtree::{decode_base_page, BwTree, BwTreeConfig, Entries, PageTag, TreeEventListener};
use bg3_storage::{
    AppendOnlyStore, ErrorKind, PageAddr, SharedMappingTable, StorageError, StorageOp,
    StorageResult,
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
    let snapshot = mapping.snapshot();
    let mut pages: BTreeMap<u32, (Entries, Option<PageAddr>)> = BTreeMap::new();
    let mut routing: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
    routing.insert(Vec::new(), FIRST_LEAF);
    pages.insert(FIRST_LEAF, (Entries::new(), None));
    // Pre-create every page the log mentions so replay has a slot.
    for record in records.iter().filter(|r| r.payload.is_page_scoped()) {
        pages.entry(record.page as u32).or_default();
    }
    let mut rebuild: BTreeSet<u32> = BTreeSet::new();
    for (&page, slot) in pages.iter_mut() {
        let tag = PageTag {
            tree: tree_id,
            page,
        }
        .encode();
        if let Some(addr) = snapshot.get(tag) {
            match read_base_image(&store, addr) {
                Ok(entries) => *slot = (entries, Some(addr)),
                Err(err) if image_lost(&err) => {
                    rebuild.insert(page);
                }
                Err(err) => return Err(err),
            }
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
            apply_payload(&mut pages.entry(page).or_default().0, &record.payload)?;
        }
    }

    // 4. Assemble. Pages resurrected from replay lose their (stale) base
    //    address if the replay rewrote them past the image — keeping the
    //    address is still correct because it is only used for relocation
    //    fix-ups and cold reads, both of which re-verify through storage.
    Ok(BwTree::assemble(
        tree_id,
        store,
        config,
        listener,
        routing,
        pages
            .into_iter()
            .map(|(page, (entries, addr))| (page, entries, addr))
            .collect(),
        dirty.into_iter().collect(),
    ))
}

/// Applies one page-scoped WAL payload to a page's sorted entries: the one
/// replay rule shared by crash recovery and a follower's lazy replay.
/// A torn page image is a structured `CorruptRecord` error, not a panic.
pub(crate) fn apply_payload(entries: &mut Entries, payload: &WalPayload) -> StorageResult<()> {
    match payload {
        WalPayload::Upsert { key, value } => {
            match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                Ok(i) => entries[i].1 = value.clone(),
                Err(i) => entries.insert(i, (key.clone(), value.clone())),
            }
        }
        WalPayload::Delete { key } => {
            if let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                entries.remove(i);
            }
        }
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

/// Reads and decodes the base image mapped at `addr`. Bytes that verify but
/// do not decode are reported as `CorruptRecord` at `addr`.
pub(crate) fn read_base_image(store: &AppendOnlyStore, addr: PageAddr) -> StorageResult<Entries> {
    decode_image(&store.read(addr)?, StorageOp::Read).map_err(|e| e.with_addr(addr))
}

fn decode_image(image: &[u8], op: StorageOp) -> StorageResult<Entries> {
    decode_base_page(image).map_err(|_| StorageError::new(ErrorKind::CorruptRecord, op))
}

/// True when a mapped base image is damaged or gone — a rotted frame, a
/// quarantined or since-reclaimed extent, a stale address — as opposed to a
/// transient I/O failure worth surfacing to the caller. Recovery responds
/// by rebuilding the page from its full WAL history.
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
    use crate::rw::{RwNode, RwNodeConfig};
    use bg3_bwtree::events::NullListener;
    use bg3_storage::{StoreBuilder, StoreConfig};

    fn recover_from(rw: &RwNode) -> BwTree {
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

    fn assert_same_content(a: &BwTree, b: &RwNode, keys: impl Iterator<Item = Vec<u8>>) {
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
        let rw = RwNode::new(
            store,
            RwNodeConfig {
                group_commit_pages: usize::MAX,
                ..RwNodeConfig::default()
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
        let mut config = RwNodeConfig {
            group_commit_pages: usize::MAX,
            ..RwNodeConfig::default()
        };
        config.tree_config = config
            .tree_config
            .with_max_page_entries(8)
            .with_consolidate_threshold(4);
        let rw = RwNode::new(store, config);
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
    fn recovered_tree_accepts_new_writes() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = RwNode::new(store, RwNodeConfig::default());
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
        let rw = RwNode::new(store, RwNodeConfig::default());
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
        let rw = RwNode::new(store, RwNodeConfig::default());
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
    fn zombie_epoch_records_are_fenced_out_of_replay() {
        use bg3_storage::SimInstant;
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = RwNode::new(
            store,
            RwNodeConfig {
                group_commit_pages: usize::MAX,
                ..RwNodeConfig::default()
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
