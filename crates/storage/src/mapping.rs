//! The shared, versioned mapping table.
//!
//! BG3 keeps the Bw-tree mapping table (page id → storage address) *on* the
//! shared store, and updates it only after dirty pages have been flushed
//! (§3.4, Fig. 7 step (8)). Until that publish, read-only nodes that miss in
//! cache resolve pages through the **old** mapping version and patch them
//! forward by replaying WAL records — this is what makes the design
//! consistent without blocking the leader.
//!
//! We model this with a copy-on-publish table: readers always see the last
//! published version; the RW node stages a batch of updates and publishes
//! them atomically, bumping the version number.

use crate::clock::SimClock;
use crate::epoch::EpochFence;
use crate::error::{StorageOp, StorageResult};
use crate::fault::{FaultInjector, FaultKind, FaultOp};
use crate::latency::LatencyModel;
use crate::stats::IoStats;
use crate::PageAddr;
use bg3_obs::{TraceBuffer, TraceKind};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// An immutable snapshot of the mapping table at some published version.
#[derive(Debug, Clone)]
pub struct MappingSnapshot {
    version: u64,
    entries: Arc<HashMap<u64, PageAddr>>,
    /// Order-independent XOR-fold of every entry's digest, maintained
    /// incrementally across publishes. Mapping publishes are in-memory
    /// snapshot swaps (no extent append to frame), so this is their
    /// integrity check: [`MappingSnapshot::verify_integrity`] recomputes
    /// the fold from scratch and compares.
    fingerprint: u64,
}

/// Digest of one `(page_id, addr)` mapping entry, XOR-folded into the
/// snapshot fingerprint. splitmix64-chained so every field of the address
/// participates.
fn entry_digest(page_id: u64, addr: &PageAddr) -> u64 {
    use crate::fault::splitmix64;
    let mut h = splitmix64(page_id ^ 0xA5A5_5A5A_C3C3_3C3C);
    h = splitmix64(h ^ (addr.stream.0 as u64) ^ addr.extent.0.rotate_left(8));
    h = splitmix64(h ^ ((addr.offset as u64) << 32) ^ (addr.len as u64));
    splitmix64(h ^ addr.record.0)
}

impl MappingSnapshot {
    /// The published version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The incrementally-maintained integrity fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recomputes the fingerprint from every entry and compares it to the
    /// maintained one. Adoption sites (checkpoint handling, promotion) call
    /// this to catch a mapping plane that drifted from its own accounting.
    pub fn verify_integrity(&self) -> bool {
        let recomputed = self.entries.iter().fold(0u64, |acc, (&page_id, addr)| {
            acc ^ entry_digest(page_id, addr)
        });
        recomputed == self.fingerprint
    }

    /// Resolves `page_id` to its storage address at this version.
    pub fn get(&self, page_id: u64) -> Option<PageAddr> {
        self.entries.get(&page_id).copied()
    }

    /// Iterates every `(page_id, addr)` entry, in no particular order —
    /// audit/scrub passes use this to cross-check the mapping against the
    /// store's extent population.
    pub fn entries(&self) -> impl Iterator<Item = (u64, PageAddr)> + '_ {
        self.entries.iter().map(|(&page_id, &addr)| (page_id, addr))
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How many published versions stay resolvable via
/// [`SharedMappingTable::snapshot_at`]. Snapshots are `Arc`-backed, so the
/// cost is one map clone per publish (already paid) plus a pointer here.
const RETAINED_VERSIONS: usize = 1024;

struct MappingInner {
    current: RwLock<MappingSnapshot>,
    /// Recent published versions, oldest first. Lets followers adopt the
    /// *exact* version a `CheckpointComplete` names (§3.3 multi-version
    /// metadata) instead of the live table, which may run ahead of their
    /// WAL replay. Bounded to [`RETAINED_VERSIONS`].
    history: Mutex<VecDeque<MappingSnapshot>>,
}

/// Thread-safe handle to the shared mapping table. Clones observe the same
/// table (they model different nodes resolving through the same service).
#[derive(Clone)]
pub struct SharedMappingTable {
    inner: Arc<MappingInner>,
    clock: SimClock,
    latency: LatencyModel,
    stats: Arc<IoStats>,
    faults: FaultInjector,
    /// Trace ring for metadata-plane events (seals, fence rejections).
    /// [`SharedMappingTable::for_store`] shares the store's ring so data-
    /// and metadata-plane events interleave into one ordered stream.
    trace: TraceBuffer,
    /// The storage-service-side fencing token: sealed on failover, checked
    /// by [`SharedMappingTable::publish_fenced`]. Shared with the WAL writer
    /// so one seal fences both the metadata and the log plane.
    fence: EpochFence,
}

impl SharedMappingTable {
    /// Creates an empty table at version 0, with fault injection disabled.
    pub fn new(clock: SimClock, latency: LatencyModel) -> Self {
        Self::with_faults(clock, latency, FaultInjector::disabled())
    }

    /// Creates an empty table whose publishes draw faults from `faults`.
    pub fn with_faults(clock: SimClock, latency: LatencyModel, faults: FaultInjector) -> Self {
        SharedMappingTable {
            inner: Arc::new(MappingInner {
                current: RwLock::new(MappingSnapshot {
                    version: 0,
                    entries: Arc::new(HashMap::new()),
                    fingerprint: 0,
                }),
                history: Mutex::new(VecDeque::new()),
            }),
            clock,
            latency,
            stats: Arc::new(IoStats::new()),
            faults,
            trace: TraceBuffer::default(),
            fence: EpochFence::new(),
        }
    }

    /// Replaces the trace ring (builder-style). Used by
    /// [`SharedMappingTable::for_store`] to join the store's event stream.
    pub fn with_trace(mut self, trace: TraceBuffer) -> Self {
        self.trace = trace;
        self
    }

    /// Convenience constructor tied to a store's clock, latency model,
    /// fault injector, and trace ring (so one [`crate::FaultPlan`] covers
    /// data and metadata, and one event stream orders both planes).
    pub fn for_store(store: &crate::AppendOnlyStore) -> Self {
        // The mapping service shares the store's clock; it keeps its own
        // publish counters (the store's stats track data-plane I/O only).
        Self::with_faults(
            store.clock().clone(),
            LatencyModel::default(),
            store.fault_injector().clone(),
        )
        .with_trace(store.trace().clone())
    }

    /// Latest published snapshot. Cheap: clones two `Arc`s.
    pub fn snapshot(&self) -> MappingSnapshot {
        self.inner.current.read().clone()
    }

    /// Resolves one page through the latest published version.
    pub fn get(&self, page_id: u64) -> Option<PageAddr> {
        self.inner.current.read().get(page_id)
    }

    /// The snapshot published as exactly `version`, if it is still retained
    /// (the last [`RETAINED_VERSIONS`] publishes plus the live one). A
    /// follower processing a `CheckpointComplete` adopts this rather than
    /// the live table so its cold reads never run ahead of its WAL replay.
    pub fn snapshot_at(&self, version: u64) -> Option<MappingSnapshot> {
        let current = self.inner.current.read().clone();
        if current.version == version {
            return Some(current);
        }
        let history = self.inner.history.lock();
        // History is version-ordered and dense: index arithmetic from the
        // back avoids a scan.
        let newest = history.back()?.version;
        if version > newest {
            return None;
        }
        let offset = (newest - version) as usize;
        if offset >= history.len() {
            return None;
        }
        let snap = history[history.len() - 1 - offset].clone();
        debug_assert_eq!(snap.version, version);
        Some(snap)
    }

    /// Atomically applies a batch of `(page_id, new_addr)` updates and
    /// removals, charging one publish latency. Returns the new version.
    ///
    /// `None` as an address removes the page (page was merged away).
    ///
    /// Under an armed [`FaultKind::PublishDrop`] the batch is silently
    /// discarded (the metadata RPC was lost): latency is still charged, the
    /// version does not advance, and the *current* version is returned —
    /// callers detecting a stale version can re-publish.
    pub fn publish(&self, updates: impl IntoIterator<Item = (u64, Option<PageAddr>)>) -> u64 {
        if let Some(FaultKind::PublishDrop) = self.faults.decide(FaultOp::MappingPublish, None) {
            self.clock.advance_nanos(self.latency.mapping_cost_nanos());
            return self.inner.current.read().version;
        }
        let guard = self.inner.current.write();
        self.apply_locked(guard, updates)
    }

    /// [`SharedMappingTable::publish`] with an epoch check performed
    /// *atomically* with the version bump: the fence is consulted under the
    /// same write lock that serializes publishes and seals, so a zombie
    /// leader racing a promotion can never slip a batch in between the seal
    /// and its first check. A rejected batch leaves the table untouched.
    pub fn publish_fenced(
        &self,
        epoch: u64,
        updates: impl IntoIterator<Item = (u64, Option<PageAddr>)>,
    ) -> StorageResult<u64> {
        if let Some(FaultKind::PublishDrop) = self.faults.decide(FaultOp::MappingPublish, None) {
            self.clock.advance_nanos(self.latency.mapping_cost_nanos());
            return Ok(self.inner.current.read().version);
        }
        let guard = self.inner.current.write();
        if let Err(e) = self.fence.check(epoch, StorageOp::MappingPublish) {
            self.stats.record_fenced_publish();
            self.trace.emit(
                self.clock.now().0,
                TraceKind::FenceRejectedPublish,
                epoch,
                self.fence.current(),
            );
            return Err(e);
        }
        Ok(self.apply_locked(guard, updates))
    }

    fn apply_locked(
        &self,
        mut guard: std::sync::RwLockWriteGuard<'_, MappingSnapshot>,
        updates: impl IntoIterator<Item = (u64, Option<PageAddr>)>,
    ) -> u64 {
        let mut next: HashMap<u64, PageAddr> = (*guard.entries).clone();
        let mut fingerprint = guard.fingerprint;
        for (page_id, addr) in updates {
            match addr {
                Some(a) => {
                    if let Some(old) = next.insert(page_id, a) {
                        fingerprint ^= entry_digest(page_id, &old);
                    }
                    fingerprint ^= entry_digest(page_id, &a);
                }
                None => {
                    if let Some(old) = next.remove(&page_id) {
                        fingerprint ^= entry_digest(page_id, &old);
                    }
                }
            }
        }
        let version = guard.version + 1;
        let snapshot = MappingSnapshot {
            version,
            entries: Arc::new(next),
            fingerprint,
        };
        {
            // Retain the superseded version while the publish lock is still
            // held, so `snapshot_at` never observes a gap.
            let mut history = self.inner.history.lock();
            history.push_back(guard.clone());
            if history.len() > RETAINED_VERSIONS {
                history.pop_front();
            }
        }
        *guard = snapshot;
        drop(guard);
        let cost = self.latency.mapping_cost_nanos();
        self.clock.advance_nanos(cost);
        self.stats.record_mapping_publish();
        self.stats.record_publish_latency(cost);
        version
    }

    /// The fencing token guarding this table (share it with WAL writers).
    pub fn fence(&self) -> &EpochFence {
        &self.fence
    }

    /// The epoch currently accepted by the store.
    pub fn epoch(&self) -> u64 {
        self.fence.current()
    }

    /// Checks that a writer on `epoch` is still fenced in, without
    /// publishing anything. Rejections count as fenced publishes — the
    /// caller was about to publish and the store turned it away.
    pub fn check_epoch(&self, epoch: u64) -> StorageResult<()> {
        if let Err(e) = self.fence.check(epoch, StorageOp::MappingPublish) {
            self.stats.record_fenced_publish();
            self.trace.emit(
                self.clock.now().0,
                TraceKind::FenceRejectedPublish,
                epoch,
                self.fence.current(),
            );
            return Err(e);
        }
        Ok(())
    }

    /// Seals every epoch below `epoch` (failover promotion, §3.4 extended):
    /// serialized with in-flight publishes via the table's write lock, so
    /// after this returns no batch from an older epoch can land. Returns
    /// the sealed-in epoch; fails if a newer epoch already holds the fence.
    pub fn seal_epoch(&self, epoch: u64) -> StorageResult<u64> {
        let _guard = self.inner.current.write();
        let sealed = self.fence.seal(epoch)?;
        self.stats.record_epoch_seal();
        self.trace
            .emit(self.clock.now().0, TraceKind::EpochSeal, sealed, 0);
        Ok(sealed)
    }

    /// The trace ring this table emits metadata-plane events into.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Number of publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.stats
            .registry()
            .counter(bg3_obs::names::MAPPING_PUBLISHES_TOTAL)
            .get()
    }

    /// Metadata-plane I/O counters (publishes, fenced rejections, seals).
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }
}

impl std::fmt::Debug for SharedMappingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("SharedMappingTable")
            .field("version", &snap.version())
            .field("pages", &snap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ExtentId, RecordId, StreamId};
    use bg3_obs::names;

    fn addr(n: u32) -> PageAddr {
        PageAddr {
            stream: StreamId::BASE,
            extent: ExtentId(1),
            offset: n,
            len: 8,
            record: RecordId(n as u64),
        }
    }

    fn table() -> SharedMappingTable {
        SharedMappingTable::new(SimClock::new(), LatencyModel::zero())
    }

    #[test]
    fn publish_is_atomic_and_versioned() {
        let t = table();
        assert_eq!(t.snapshot().version(), 0);
        let v1 = t.publish([(1, Some(addr(0))), (2, Some(addr(16)))]);
        assert_eq!(v1, 1);
        assert_eq!(t.get(1), Some(addr(0)));
        assert_eq!(t.get(2), Some(addr(16)));
        let v2 = t.publish([(1, Some(addr(32))), (2, None)]);
        assert_eq!(v2, 2);
        assert_eq!(t.get(1), Some(addr(32)));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn old_snapshots_keep_old_versions() {
        // This is the §3.4 consistency mechanism: an RO node resolving
        // through an older snapshot still sees the pre-split addresses.
        let t = table();
        t.publish([(7, Some(addr(0)))]);
        let old = t.snapshot();
        t.publish([(7, Some(addr(64)))]);
        assert_eq!(old.get(7), Some(addr(0)), "old version immutable");
        assert_eq!(t.get(7), Some(addr(64)), "new readers see the publish");
        assert_eq!(old.version() + 1, t.snapshot().version());
    }

    #[test]
    fn snapshot_at_resolves_retained_versions_exactly() {
        let t = table();
        t.publish([(1, Some(addr(0)))]); // v1
        t.publish([(1, Some(addr(16)))]); // v2
        t.publish([(1, Some(addr(32))), (2, Some(addr(8)))]); // v3
        assert_eq!(t.snapshot_at(0).unwrap().get(1), None);
        assert_eq!(t.snapshot_at(1).unwrap().get(1), Some(addr(0)));
        assert_eq!(t.snapshot_at(2).unwrap().get(1), Some(addr(16)));
        let v3 = t.snapshot_at(3).unwrap();
        assert_eq!(v3.get(1), Some(addr(32)));
        assert_eq!(v3.get(2), Some(addr(8)));
        assert!(t.snapshot_at(4).is_none(), "future versions do not exist");
    }

    #[test]
    fn publish_charges_latency() {
        let clock = SimClock::new();
        let t = SharedMappingTable::new(
            clock.clone(),
            LatencyModel {
                mapping_publish_us: 250,
                network_rtt_us: 0,
                append_us: 0,
                random_read_us: 0,
                per_kib_us: 0,
            },
        );
        t.publish([(1, Some(addr(0)))]);
        assert_eq!(clock.now().as_micros(), 250);
        assert_eq!(t.publish_count(), 1);
    }

    #[test]
    fn clones_share_the_table() {
        let t = table();
        let peer = t.clone();
        t.publish([(3, Some(addr(8)))]);
        assert_eq!(peer.get(3), Some(addr(8)));
    }

    #[test]
    fn publish_drop_keeps_the_old_version_visible() {
        use crate::fault::{FaultPlan, FaultRule};
        let plan = FaultPlan::seeded(3).with_rule(
            FaultRule::new(FaultOp::MappingPublish, FaultKind::PublishDrop, 1.0).at_most(1),
        );
        let t = SharedMappingTable::with_faults(
            SimClock::new(),
            LatencyModel::zero(),
            FaultInjector::new(plan),
        );
        // First publish is dropped: version stays 0, entry invisible.
        let v = t.publish([(1, Some(addr(0)))]);
        assert_eq!(v, 0);
        assert_eq!(t.get(1), None);
        // The budget is spent; a retry goes through.
        let v = t.publish([(1, Some(addr(0)))]);
        assert_eq!(v, 1);
        assert_eq!(t.get(1), Some(addr(0)));
    }

    #[test]
    fn sealed_epoch_rejects_zombie_publishes_atomically() {
        use crate::epoch::INITIAL_EPOCH;
        let t = table();
        // The original leader publishes on the initial epoch.
        assert_eq!(
            t.publish_fenced(INITIAL_EPOCH, [(1, Some(addr(0)))])
                .unwrap(),
            1
        );
        // Failover: epoch 2 is sealed in.
        assert_eq!(t.seal_epoch(2).unwrap(), 2);
        assert_eq!(t.epoch(), 2);
        // The zombie's batch is rejected and leaves the table untouched.
        let err = t
            .publish_fenced(INITIAL_EPOCH, [(1, Some(addr(64))), (9, Some(addr(8)))])
            .unwrap_err();
        assert!(err.is_fenced());
        assert_eq!(t.get(1), Some(addr(0)), "zombie write not applied");
        assert_eq!(t.get(9), None);
        assert_eq!(t.snapshot().version(), 1, "version did not advance");
        // The new leader publishes on epoch 2.
        assert_eq!(t.publish_fenced(2, [(1, Some(addr(32)))]).unwrap(), 2);
        let stats = t.stats().metrics();
        assert_eq!(stats.counter(names::EPOCH_SEALS_TOTAL), Some(1));
        assert_eq!(stats.counter(names::FENCED_PUBLISHES_TOTAL), Some(1));
        assert_eq!(t.fence().snapshot().rejected_publishes, 1);
    }

    #[test]
    fn check_epoch_counts_rejections_without_publishing() {
        let t = table();
        t.seal_epoch(3).unwrap();
        t.check_epoch(3).unwrap();
        assert!(t.check_epoch(1).unwrap_err().is_fenced());
        assert_eq!(
            t.stats().metrics().counter(names::FENCED_PUBLISHES_TOTAL),
            Some(1)
        );
        assert_eq!(t.snapshot().version(), 0);
    }

    #[test]
    fn stale_seal_loses() {
        let t = table();
        t.seal_epoch(5).unwrap();
        assert!(t.seal_epoch(4).unwrap_err().is_fenced());
        assert_eq!(t.epoch(), 5);
    }

    #[test]
    fn fingerprint_tracks_publishes_incrementally() {
        let t = table();
        assert!(t.snapshot().verify_integrity(), "empty table verifies");
        t.publish([(1, Some(addr(0))), (2, Some(addr(16)))]);
        t.publish([(1, Some(addr(32))), (3, Some(addr(8)))]); // overwrite + insert
        t.publish([(2, None)]); // remove
        let snap = t.snapshot();
        assert!(snap.verify_integrity());
        assert_ne!(snap.fingerprint(), 0);
        // Publishing back to an equivalent state yields an equal fold no
        // matter the path taken (XOR is order-independent).
        let u = table();
        u.publish([(3, Some(addr(8)))]);
        u.publish([(1, Some(addr(32)))]);
        assert_eq!(u.snapshot().fingerprint(), snap.fingerprint());
    }

    #[test]
    fn tampered_snapshot_fails_verification() {
        let t = table();
        t.publish([(1, Some(addr(0)))]);
        let mut snap = t.snapshot();
        let mut entries = (*snap.entries).clone();
        entries.insert(1, addr(64)); // silent in-memory corruption
        snap.entries = Arc::new(entries);
        assert!(!snap.verify_integrity());
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let t = table();
        assert!(t.snapshot().is_empty());
        t.publish([(1, Some(addr(0)))]);
        assert!(!t.snapshot().is_empty());
        assert_eq!(t.snapshot().len(), 1);
    }
}
