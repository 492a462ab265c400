//! Group commit: the one implementation of BG3's durability protocol
//! (§3.4, Fig. 7 steps (7)–(8)) — flush dirty pages, publish one mapping
//! version, then log `CheckpointComplete` — shared by every durable engine
//! (the replicated [`crate::RwNode`] and the forest engine in `bg3-core`).

use crate::wal_listener::WalListener;
use bg3_bwtree::{BwTree, FlushMode, PageTag, TreeEventListener};
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
    pub fn checkpoint(&self, trees: &[Arc<BwTree>]) -> StorageResult<Lsn> {
        let epoch = self.epoch();
        // Reject zombie checkpoints up front: a sealed-out leader must not
        // flush page images (they would orphan-litter the base stream) and
        // must observe its demotion as a fenced publish attempt.
        self.mapping.check_epoch(epoch)?;
        // Everything logged up to here is covered once the flush lands.
        let upto = self.last_lsn();
        for tree in trees {
            let flushed = tree.flush_dirty()?;
            self.staged.lock().extend(flushed.iter().map(|f| {
                let tag = PageTag {
                    tree: tree.id(),
                    page: f.page,
                };
                (tag.encode(), Some(f.addr))
            }));
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
    /// re-published, and a staged one is re-pointed. Relocation reports
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
