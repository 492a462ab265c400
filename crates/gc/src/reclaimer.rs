//! The reclamation engine: executes a policy's plan against the store.

use crate::policy::{PlanAction, ReclaimPolicy};
use bg3_storage::{
    AppendOnlyStore, CrashPoint, CrashSwitch, PageAddr, RetryPolicy, StorageResult, StreamId,
};
use serde::{Deserialize, Serialize};

/// Receives address fix-ups when the reclaimer moves records. In a full
/// engine this routes to the owning Bw-tree via the record's
/// [`bg3_storage::PageAddr`] tag (see `bg3_bwtree::PageTag`).
pub trait RelocationRouter: Send + Sync {
    /// `tag` is the owner cookie the record was appended with; the record
    /// moved from `old` to `new`.
    fn repair(&self, tag: u64, old: PageAddr, new: PageAddr);
}

/// Router that ignores fix-ups (standalone GC benchmarks where nobody reads
/// relocated records afterwards).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRouter;

impl RelocationRouter for NullRouter {
    fn repair(&self, _tag: u64, _old: PageAddr, _new: PageAddr) {}
}

impl<F> RelocationRouter for F
where
    F: Fn(u64, PageAddr, PageAddr) + Send + Sync,
{
    fn repair(&self, tag: u64, old: PageAddr, new: PageAddr) {
        self(tag, old, new)
    }
}

/// Outcome of one reclamation cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleReport {
    /// Extents freed after relocating their valid data.
    pub relocated_extents: u64,
    /// Extents freed for free because their TTL elapsed.
    pub expired_extents: u64,
    /// Valid bytes rewritten to the tail — the background write bandwidth
    /// of Table 2.
    pub moved_bytes: u64,
}

impl CycleReport {
    /// Merges another report into this one.
    pub fn absorb(&mut self, other: CycleReport) {
        self.relocated_extents += other.relocated_extents;
        self.expired_extents += other.expired_extents;
        self.moved_bytes += other.moved_bytes;
    }
}

/// Drives space reclamation over the streams of one store.
pub struct SpaceReclaimer<P, R> {
    store: AppendOnlyStore,
    policy: P,
    router: R,
    streams: Vec<StreamId>,
    retry: RetryPolicy,
    crash: CrashSwitch,
}

impl<P: ReclaimPolicy, R: RelocationRouter> SpaceReclaimer<P, R> {
    /// Creates a reclaimer for the page-data streams (BASE and DELTA), the
    /// two streams BG3 segregates per ArkDB's design.
    pub fn new(store: AppendOnlyStore, policy: P, router: R) -> Self {
        SpaceReclaimer {
            store,
            policy,
            router,
            streams: vec![StreamId::BASE, StreamId::DELTA],
            retry: RetryPolicy::default(),
            crash: CrashSwitch::new(),
        }
    }

    /// Restricts the reclaimer to specific streams.
    pub fn with_streams(mut self, streams: Vec<StreamId>) -> Self {
        self.streams = streams;
        self
    }

    /// Overrides the relocation retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a shared crash switch (chaos harness):
    /// [`CrashPoint::MidGcCycle`] fires between plan actions.
    pub fn with_crash_switch(mut self, switch: CrashSwitch) -> Self {
        self.crash = switch;
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Runs one cycle with a budget of `n` extents *per stream*
    /// (Algorithm 2's outer loop).
    pub fn run_cycle(&self, n: usize) -> StorageResult<CycleReport> {
        let mut report = CycleReport::default();
        let now = self.store.clock().now();
        for &stream in &self.streams {
            let mut candidates = self.store.extent_infos(stream)?;
            // Quarantined extents are the scrubber's to repair: relocation
            // would copy corrupt frames forward, expiry would drop records
            // the repair path could still re-home.
            candidates.retain(|i| !i.quarantined);
            let plan = self.policy.plan(&candidates, now, n);
            for action in plan {
                match action {
                    PlanAction::Relocate(extent) => {
                        // Transient injected failures mid-relocation are
                        // retried whole: a repeated pass re-moves every
                        // still-valid record (duplicates from the aborted
                        // pass are a bounded space leak, never corruption).
                        let moved = self.retry.run(self.store.clock(), || {
                            self.store.relocate_extent(stream, extent, |tag, old, new| {
                                self.router.repair(tag, old, new)
                            })
                        })?;
                        report.relocated_extents += 1;
                        report.moved_bytes += moved;
                    }
                    PlanAction::Expire(extent) => {
                        self.store.expire_extent(stream, extent)?;
                        report.expired_extents += 1;
                    }
                }
                // Chaos hook: die between reclamation actions, leaving the
                // cycle half done.
                self.crash.fire(CrashPoint::MidGcCycle)?;
            }
        }
        let registry = self.store.stats().registry();
        registry.counter(bg3_obs::names::GC_CYCLES_TOTAL).inc();
        registry
            .gauge(bg3_obs::names::GC_LAST_CYCLE_MOVED_BYTES)
            .set(report.moved_bytes as i64);
        Ok(report)
    }

    /// Runs cycles until both streams' utilization (valid/used bytes) is at
    /// least `target`, or no further progress is possible. Returns the
    /// aggregate report. This models the steady-state background GC the
    /// Table 2 experiment measures.
    pub fn reclaim_to_utilization(
        &self,
        target: f64,
        per_cycle: usize,
    ) -> StorageResult<CycleReport> {
        let mut total = CycleReport::default();
        loop {
            let mut garbage_before = 0u64;
            let mut below_target = false;
            for &s in &self.streams {
                let st = self.store.stream_stats(s)?;
                garbage_before += st.used_bytes.saturating_sub(st.valid_bytes);
                below_target |= st.used_bytes > 0 && st.utilization() < target;
            }
            if !below_target {
                return Ok(total);
            }
            let report = self.run_cycle(per_cycle)?;
            if report.relocated_extents == 0 && report.expired_extents == 0 {
                return Ok(total); // nothing reclaimable remains
            }
            // Real progress means garbage actually left the store. A policy
            // that only shuffles fully-valid extents (FIFO can) would loop
            // forever otherwise.
            let garbage_after: u64 = self
                .streams
                .iter()
                .map(|&s| {
                    self.store
                        .stream_stats(s)
                        .map(|st| st.used_bytes.saturating_sub(st.valid_bytes))
                        .unwrap_or(0)
                })
                .sum();
            total.absorb(report);
            if garbage_after >= garbage_before {
                return Ok(total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DirtyRatioPolicy, WorkloadAwarePolicy};
    use bg3_obs::names;
    use bg3_storage::{StoreBuilder, StoreConfig};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Store with tiny extents so tests roll over quickly.
    fn small_store() -> AppendOnlyStore {
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(64)).build()
    }

    /// Fills the DELTA stream with records, invalidating a subset, and
    /// returns the surviving addresses keyed by tag.
    fn seed(store: &AppendOnlyStore, records: usize, kill_every: usize) -> HashMap<u64, PageAddr> {
        let mut live = HashMap::new();
        for i in 0..records {
            let addr = store
                .append(StreamId::DELTA, &[i as u8; 16], i as u64, None)
                .unwrap();
            if kill_every > 0 && i % kill_every == 0 {
                store.invalidate(addr).unwrap();
            } else {
                live.insert(i as u64, addr);
            }
        }
        live
    }

    #[test]
    fn cycle_moves_garbage_extents_and_repairs_pointers() {
        let store = small_store();
        let live = seed(&store, 20, 2);
        let repaired: Arc<Mutex<HashMap<u64, PageAddr>>> = Arc::new(Mutex::new(HashMap::new()));
        let repaired_for_router = Arc::clone(&repaired);
        let router = move |tag: u64, _old: PageAddr, new: PageAddr| {
            repaired_for_router.lock().insert(tag, new);
        };
        let reclaimer = SpaceReclaimer::new(store.clone(), DirtyRatioPolicy, router)
            .with_streams(vec![StreamId::DELTA]);
        let report = reclaimer.run_cycle(10).unwrap();
        assert!(report.relocated_extents > 0);
        assert!(report.moved_bytes > 0);
        // Every live record either stayed (open extent) or was repaired to a
        // readable address.
        let repaired = repaired.lock();
        for (tag, old_addr) in &live {
            let addr = repaired.get(tag).copied().unwrap_or(*old_addr);
            assert_eq!(&store.read(addr).unwrap()[..], &[*tag as u8; 16]);
        }
    }

    #[test]
    fn expired_extents_are_freed_without_movement() {
        let store = small_store();
        for i in 0..8 {
            store
                .append(StreamId::DELTA, &[i; 16], i as u64, Some(1_000))
                .unwrap();
        }
        store.clock().advance_nanos(10_000);
        // Force-seal the open tail so it is a candidate.
        store
            .append(StreamId::DELTA, &[0xEE; 64], 99, None)
            .unwrap();
        let reclaimer =
            SpaceReclaimer::new(store.clone(), WorkloadAwarePolicy::default(), NullRouter)
                .with_streams(vec![StreamId::DELTA]);
        let report = reclaimer.run_cycle(10).unwrap();
        assert!(report.expired_extents > 0, "TTL extents expired");
        assert_eq!(report.moved_bytes, 0, "no bytes moved for TTL data");
        assert_eq!(
            store
                .metrics_snapshot()
                .counter(names::GC_RELOCATION_BYTES_TOTAL),
            Some(0)
        );
    }

    #[test]
    fn reclaim_to_utilization_terminates_and_improves_utilization() {
        let store = small_store();
        seed(&store, 40, 2); // ~half the records are garbage
        let before = store.stream_stats(StreamId::DELTA).unwrap().utilization();
        let reclaimer = SpaceReclaimer::new(store.clone(), DirtyRatioPolicy, NullRouter)
            .with_streams(vec![StreamId::DELTA]);
        reclaimer.reclaim_to_utilization(0.95, 4).unwrap();
        let after = store.stream_stats(StreamId::DELTA).unwrap().utilization();
        assert!(after > before, "utilization improved: {before} -> {after}");
    }

    #[test]
    fn reclaim_to_utilization_stops_when_nothing_reclaimable() {
        let store = small_store();
        // All-valid data: utilization is 1.0 already, loop exits immediately.
        seed(&store, 10, 0);
        let reclaimer = SpaceReclaimer::new(store.clone(), DirtyRatioPolicy, NullRouter)
            .with_streams(vec![StreamId::DELTA]);
        let report = reclaimer.reclaim_to_utilization(0.99, 4).unwrap();
        assert_eq!(report, CycleReport::default());
    }

    #[test]
    fn relocation_retries_through_transient_append_faults() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // The relocation's first re-append fails; the whole-extent retry
        // succeeds on the second pass.
        let plan = FaultPlan::seeded(11).with_rule(
            FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0)
                .after(20)
                .at_most(1),
        );
        let store = StoreBuilder::from_config(
            StoreConfig::counting()
                .with_extent_capacity(64)
                .with_faults(plan),
        )
        .build();
        let live = seed(&store, 20, 2);
        let reclaimer = SpaceReclaimer::new(store.clone(), DirtyRatioPolicy, NullRouter)
            .with_streams(vec![StreamId::DELTA]);
        let report = reclaimer.run_cycle(10).unwrap();
        assert!(report.relocated_extents > 0);
        assert_eq!(store.fault_injector().total_fired(), 1, "the fault fired");
        // Every live record still reads back somewhere (NullRouter: sealed
        // extents keep old addresses only until their extent is reclaimed,
        // so just check the store stayed consistent).
        assert!(store.total_valid_bytes() >= live.len() as u64 * 16);
    }

    #[test]
    fn mid_gc_crash_stops_the_cycle_and_next_cycle_finishes() {
        use bg3_storage::{CrashPoint, CrashSwitch};
        let store = small_store();
        seed(&store, 40, 2);
        let switch = CrashSwitch::new();
        let reclaimer = SpaceReclaimer::new(store.clone(), DirtyRatioPolicy, NullRouter)
            .with_streams(vec![StreamId::DELTA])
            .with_crash_switch(switch.clone());
        switch.arm(CrashPoint::MidGcCycle);
        let err = reclaimer.run_cycle(10).unwrap_err();
        assert!(err.is_crash(), "cycle died after its first action");
        // Firing disarmed the switch: the next cycle reclaims the rest.
        let report = reclaimer.run_cycle(10).unwrap();
        assert!(report.relocated_extents + report.expired_extents > 0);
    }

    #[test]
    fn reclaim_under_a_full_disk_restores_health_and_write_flow() {
        use bg3_storage::DiskHealth;
        let store = small_store();
        for i in 0..8 {
            store
                .append(StreamId::DELTA, &[i; 16], i as u64, Some(1_000))
                .unwrap();
        }
        store.clock().advance_nanos(10_000);
        // Seal the open tail so the TTL extents are candidates.
        store
            .append(StreamId::DELTA, &[0xEE; 64], 99, None)
            .unwrap();
        store.disk_health_tracker().set(DiskHealth::Full);
        assert!(store.disk_health().sheds_writes());

        // GC runs below admission, so a full disk never blocks it. TTL
        // expiry frees extents without appending a byte — exactly the
        // recovery path a full disk needs.
        let reclaimer =
            SpaceReclaimer::new(store.clone(), WorkloadAwarePolicy::default(), NullRouter)
                .with_streams(vec![StreamId::DELTA]);
        let report = reclaimer.run_cycle(10).unwrap();
        assert!(report.expired_extents > 0, "expiry reclaims without writes");
        assert_eq!(
            store.disk_health(),
            DiskHealth::NearFull,
            "backend deletes stepped the ladder down"
        );
        assert!(!store.disk_health().sheds_writes(), "writes admitted again");

        // The next durable write is the proof of full recovery.
        store.append(StreamId::DELTA, b"proof", 1, None).unwrap();
        store.sync_stream(StreamId::DELTA).unwrap();
        assert_eq!(store.disk_health(), DiskHealth::Ok);
    }

    #[test]
    fn cycle_report_absorb_sums() {
        let mut a = CycleReport {
            relocated_extents: 1,
            expired_extents: 2,
            moved_bytes: 10,
        };
        a.absorb(CycleReport {
            relocated_extents: 3,
            expired_extents: 4,
            moved_bytes: 5,
        });
        assert_eq!(
            a,
            CycleReport {
                relocated_extents: 4,
                expired_extents: 6,
                moved_bytes: 15
            }
        );
    }
}
