//! Group commit: the one implementation of BG3's durability protocol
//! (§3.4, Fig. 7 steps (7)–(8)) — flush dirty pages, publish one mapping
//! version, then log `CheckpointComplete` — shared by every durable engine
//! (the replicated [`crate::RwNode`] and the forest engine in `bg3-core`).

use crate::wal_listener::WalListener;
use bg3_bwtree::{BwTree, FlushKind, FlushMode, FlushedPage, PageTag, TreeEventListener};
use bg3_storage::{
    AppendOnlyStore, CrashPoint, CrashSwitch, PageAddr, RetryPolicy, SharedMappingTable,
    StorageResult,
};
use bg3_wal::{Lsn, WalPayload, WalRecord, WalWriter};
use parking_lot::Mutex;
use std::sync::Arc;

/// The durable half of a leader: its WAL writer, the shared mapping table,
/// the flushed-but-unpublished mapping updates, its epoch and its crash
/// switch. It is the only code that opens a WAL for writing.
///
/// The writer is always fenced at the mapping's current epoch, so sealing a
/// newer epoch (failover) cuts the holder off from the log and the mapping
/// at once.
pub struct GroupCommit {
    listener: Arc<WalListener>,
    mapping: SharedMappingTable,
    /// Flushed-page mapping updates not yet published. Pages leave the
    /// dirty set when they flush, so their addresses are staged here at
    /// once and survive any interruption (a later tree's flush error, a
    /// crash, a dropped publish) until a publish lands.
    staged: Mutex<Vec<(u64, Option<PageAddr>)>>,
    /// Serializes checkpoints from horizon capture through the last
    /// `CheckpointComplete`. Without it a second checkpoint could publish
    /// and log a horizon over a page the first has drained from its dirty
    /// set but not staged yet. Lock order: this, then a tree's write lock
    /// (inside `flush_dirty`), then `staged`; [`GroupCommit::relocate`]
    /// takes only `staged` and never runs under this lock.
    checkpoint: Mutex<()>,
    /// `MidGroupCommit` fires between the flushes and the publish.
    crash: CrashSwitch,
}

impl GroupCommit {
    /// Starts a fresh WAL and mapping table on `store`.
    pub fn create(store: &AppendOnlyStore, retry: RetryPolicy) -> Self {
        let mapping = SharedMappingTable::for_store(store);
        Self::fenced(WalWriter::new(store.clone()), mapping, retry)
    }

    /// Reopens the WAL already on `store` after a crash or a promotion,
    /// returning every surviving record in LSN order for replay.
    pub fn reopen(
        store: &AppendOnlyStore,
        mapping: SharedMappingTable,
        retry: RetryPolicy,
    ) -> StorageResult<(Self, Vec<WalRecord>)> {
        let (wal, records) = WalWriter::recover(store.clone())?;
        Ok((Self::fenced(wal, mapping, retry), records))
    }

    fn fenced(wal: WalWriter, mapping: SharedMappingTable, retry: RetryPolicy) -> Self {
        let epoch = mapping.fence().current();
        let wal = wal
            .with_retry(retry)
            .with_fence(mapping.fence().clone(), epoch);
        GroupCommit {
            listener: WalListener::new(Arc::new(wal)),
            mapping,
            staged: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(()),
            crash: CrashSwitch::new(),
        }
    }

    /// Shares `crash` instead of a private switch (an engine whose trees
    /// already report to one).
    pub fn with_crash_switch(mut self, crash: CrashSwitch) -> Self {
        self.crash = crash;
        self
    }

    /// The listener that logs tree mutations to this WAL.
    pub fn listener(&self) -> Arc<dyn TreeEventListener> {
        self.listener.clone()
    }

    /// Makes `tree` durable: its flushes defer to [`GroupCommit::checkpoint`]
    /// (the WAL carries durability) and it fires this crash switch.
    pub fn make_durable(&self, tree: &mut BwTree) {
        tree.set_flush_mode(FlushMode::Deferred);
        tree.set_crash_switch(self.crash.clone());
    }

    /// The WAL writer.
    pub fn wal(&self) -> &WalWriter {
        self.listener.wal()
    }

    /// The shared mapping table.
    pub fn mapping(&self) -> &SharedMappingTable {
        &self.mapping
    }

    /// The leadership epoch every record and publish carries.
    pub fn epoch(&self) -> u64 {
        self.wal().epoch()
    }

    /// The crash switch `MidGroupCommit` fires on.
    pub fn crash_switch(&self) -> &CrashSwitch {
        &self.crash
    }

    /// Last WAL LSN written.
    pub fn last_lsn(&self) -> Lsn {
        self.wal().last_lsn()
    }

    /// Checkpoints `trees` once `dirty` reaches `threshold` pages (the
    /// paper's "accumulated dirty pages reach a specific threshold").
    pub fn maybe_checkpoint(
        &self,
        dirty: usize,
        threshold: usize,
        trees: impl FnOnce() -> Vec<Arc<BwTree>>,
    ) -> StorageResult<()> {
        if dirty >= threshold {
            self.checkpoint(&trees())?;
        }
        Ok(())
    }

    /// Flushes every dirty page of `trees`, publishes the staged addresses
    /// as one mapping version, and logs one `CheckpointComplete` per tree
    /// the publish covered. Returns the LSN the checkpoint covers.
    ///
    /// The horizon rule: a tree gets a record exactly when this call
    /// published at least one of its pages, flushed now or staged by an
    /// earlier call. A dropped publish keeps the batch staged and logs
    /// nothing, so followers never discard parked records storage does not
    /// reflect; a checkpoint with nothing to publish logs nothing either.
    ///
    /// A merged-delta flush stages the page's delta key; a base rewrite
    /// stages the base key and removes the delta key in the same publish.
    pub fn checkpoint(&self, trees: &[Arc<BwTree>]) -> StorageResult<Lsn> {
        let _serial = self.checkpoint.lock();
        let epoch = self.epoch();
        // Reject zombie checkpoints up front: a sealed-out leader must not
        // flush page images (they would orphan-litter the base stream) and
        // must observe its demotion as a fenced publish attempt.
        self.mapping.check_epoch(epoch)?;
        // Everything logged up to here is covered once the flush lands.
        let upto = self.last_lsn();
        for tree in trees {
            let flushed = tree.flush_dirty()?;
            let mut staged = self.staged.lock();
            for f in flushed {
                stage(&mut staged, tree.id(), f);
            }
        }
        // Chaos hook: die after the flushes but before the publish — new
        // page images are durable yet unreachable, and no horizon advanced,
        // so recovery replays the WAL past the previous checkpoint.
        self.crash.fire(CrashPoint::MidGroupCommit)?;
        let mut staged = self.staged.lock();
        if staged.is_empty() {
            return Ok(upto);
        }
        let before = self.mapping.snapshot().version();
        let version = self.mapping.publish_fenced(epoch, staged.iter().cloned())?;
        if version == before {
            // The publish RPC was dropped (injected fault): retry next time.
            return Ok(upto);
        }
        let mut covered: Vec<u32> = Vec::new();
        for (tag, _) in staged.drain(..) {
            let tree = PageTag::decode(tag).tree;
            if !covered.contains(&tree) {
                covered.push(tree);
            }
        }
        drop(staged);
        // The record names the exact mapping version covering `upto`, so a
        // follower adopts that version — not the live table — on replay.
        for tree in covered {
            self.wal().append(
                tree as u64,
                0,
                WalPayload::CheckpointComplete {
                    upto: upto.0,
                    mapping_version: version,
                },
            )?;
        }
        Ok(upto)
    }

    /// Follows a GC or scrub relocation of the record tagged `tag` from
    /// `old` to `new`: a published entry still naming `old`'s slot is
    /// re-published, and a staged one is re-pointed. A record's tag is its
    /// mapping key, a base's or a delta's alike. Relocation reports
    /// `old` with a placeholder record id, so entries match by physical
    /// slot, not full address. The publish lands before the old extent is
    /// reclaimed, so a crash around it leaves the mapping readable.
    pub fn relocate(&self, tag: u64, old: PageAddr, new: PageAddr) {
        let same_slot = |a: PageAddr| {
            a.stream == old.stream && a.extent == old.extent && a.offset == old.offset
        };
        if self.mapping.snapshot().get(tag).is_some_and(same_slot) {
            self.mapping.publish([(tag, Some(new))]);
        }
        for slot in self.staged.lock().iter_mut() {
            if slot.0 == tag && slot.1.is_some_and(same_slot) {
                slot.1 = Some(new);
            }
        }
    }
}

/// Stages one flushed page's mapping update.
fn stage(staged: &mut Vec<(u64, Option<PageAddr>)>, tree: u32, f: FlushedPage) {
    let delta = PageTag::delta(tree, f.page).encode();
    match f.kind {
        FlushKind::Delta => staged.push((delta, Some(f.addr))),
        FlushKind::Base => {
            let base = PageTag { tree, page: f.page }.encode();
            staged.extend([(base, Some(f.addr)), (delta, None)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::recovery::recover_from;
    use crate::rw::{RwNode, RwNodeConfig};
    use bg3_bwtree::{BwTreeConfig, Entries, NullListener};
    use bg3_storage::{StoreBuilder, StoreConfig};
    use bg3_wal::{WalPayload, WalRecord};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn tree_config() -> BwTreeConfig {
        BwTreeConfig::default()
            .with_max_page_entries(8)
            .with_consolidate_threshold(4)
    }

    /// Every write the log holds, last writer wins: what recovery from
    /// this log must reproduce.
    fn logged_writes(records: &[WalRecord]) -> Entries {
        let mut model = BTreeMap::new();
        for record in records {
            match &record.payload {
                WalPayload::Upsert { key, value } => {
                    model.insert(key.clone(), value.clone());
                }
                WalPayload::Delete { key } => {
                    model.remove(key);
                }
                _ => {}
            }
        }
        model.into_iter().collect()
    }

    /// One writer thread interleaves writes with its own checkpoints while a
    /// second thread checkpoints in a loop. A crash just after any
    /// `CheckpointComplete` — mapping at the version it names, WAL up to it
    /// — must recover every logged write, and so must one at the end.
    /// Without the checkpoint lock a concurrent checkpoint can log a
    /// horizon over a page the other one drained but has not staged yet,
    /// and that page's writes are lost.
    #[test]
    fn concurrent_checkpoints_never_log_a_horizon_over_an_unstaged_page() {
        for seed in 0..500u64 {
            let store = StoreBuilder::from_config(StoreConfig::counting()).build();
            let rw = RwNode::new(
                store.clone(),
                RwNodeConfig {
                    tree_config: tree_config(),
                    group_commit_pages: usize::MAX,
                    ..RwNodeConfig::default()
                },
            );
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        rw.checkpoint().unwrap();
                        std::thread::yield_now();
                    }
                });
                let mut rng = StdRng::seed_from_u64(seed);
                for i in 0..40u32 {
                    let key = format!("k{:02}", rng.gen_range(0..24u32)).into_bytes();
                    if rng.gen_bool(0.2) {
                        rw.delete(&key).unwrap();
                    } else {
                        rw.put(&key, &i.to_le_bytes()).unwrap();
                    }
                    if rng.gen_bool(0.25) {
                        rw.checkpoint().unwrap();
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
            let records = rw.open_wal_reader().fetch_new().unwrap();
            let mut crashes: Vec<(usize, u64)> = records
                .iter()
                .enumerate()
                .filter_map(|(i, r)| match r.payload {
                    WalPayload::CheckpointComplete {
                        mapping_version, ..
                    } => Some((i + 1, mapping_version)),
                    _ => None,
                })
                .collect();
            crashes.push((records.len(), rw.mapping().snapshot().version()));
            for (end, version) in crashes {
                let snapshot = rw.mapping().snapshot_at(version).expect("version retained");
                let prefix = &records[..end];
                let recovered = recover_from(
                    1,
                    store.clone(),
                    &snapshot,
                    prefix,
                    tree_config(),
                    Arc::new(NullListener),
                )
                .unwrap();
                assert_eq!(
                    recovered.scan_range(None, None, usize::MAX),
                    logged_writes(prefix),
                    "seed {seed}: crash after record {end} (mapping v{version}) lost writes"
                );
            }
        }
    }

    /// A group commit whose second page runs out of append retries fails
    /// after the first page, still fresh, appended its base. That base
    /// never reaches the mapping, so the retry must rewrite and stage the
    /// base again; a delta over the lost base would leave the page
    /// unmapped while the next checkpoint moves the horizon past its
    /// writes.
    #[test]
    fn retried_group_commit_restages_a_base_lost_with_the_failed_batch() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, StreamId};
        let config = RwNodeConfig {
            tree_config: tree_config(),
            group_commit_pages: usize::MAX,
            ..RwNodeConfig::default()
        };
        let write_pages = |rw: &RwNode| {
            for i in 0..12u32 {
                rw.put(format!("k{i:02}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            assert!(rw.tree().dirty_count() >= 2, "the writes split the page");
        };
        // A dry run counts the appends (WAL records) before the checkpoint.
        let count = FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 0.0);
        let dry = StoreBuilder::from_config(
            StoreConfig::counting().with_faults(FaultPlan::seeded(1).with_rule(count)),
        )
        .build();
        write_pages(&RwNode::new(dry.clone(), config.clone()));
        let before = dry.fault_injector().observed(FaultOp::Write);
        // The first page's base lands; the second page's four attempts fail.
        let fail = FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0)
            .on_stream(StreamId::BASE)
            .after(before + 1)
            .at_most(4);
        let store = StoreBuilder::from_config(
            StoreConfig::counting().with_faults(FaultPlan::seeded(1).with_rule(fail)),
        )
        .build();
        let rw = RwNode::new(store.clone(), config);
        write_pages(&rw);
        assert!(
            rw.checkpoint().is_err(),
            "the second page's retries ran out"
        );
        assert_eq!(store.fault_injector().total_fired(), 4);
        assert!(rw.mapping().snapshot().is_empty(), "nothing published");
        rw.checkpoint().unwrap();
        let records = rw.open_wal_reader().fetch_new().unwrap();
        let recovered = recover_from(
            1,
            store.clone(),
            &rw.mapping().snapshot(),
            &records,
            tree_config(),
            Arc::new(NullListener),
        )
        .unwrap();
        assert_eq!(
            recovered.scan_range(None, None, usize::MAX),
            logged_writes(&records),
            "recovery lost the writes of the page whose base was lost"
        );
    }
}
