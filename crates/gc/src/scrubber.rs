//! Background integrity scrubber: walks sealed extents one budgeted cycle
//! at a time, verifies every record frame at modelled sequential-read cost,
//! quarantines extents with silent corruption, and repairs them — intact
//! records re-homed to the stream tail, corrupt ones re-materialized from a
//! [`RepairSource`] — *before* normal GC is allowed to reclaim the space.
//!
//! The scrubber closes the gap the foreground read path cannot: a bit that
//! rots in a record nobody reads would otherwise survive until relocation
//! copied the damage forward. Here it is found within one full sweep of the
//! sealed extent population and either repaired or permanently fenced.

use crate::reclaimer::RelocationRouter;
use bg3_storage::{
    AppendOnlyStore, ExtentId, ExtentState, PageAddr, RepairSupply, StorageResult, StreamId,
    TraceKind,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Shareable round-robin scrub position, keyed per stream on the last
/// extent id scanned. Hand the same cursor to successive [`Scrubber`]
/// instances (e.g. one per engine scrub tick) so coverage keeps rotating
/// instead of restarting from the lowest extent every cycle.
pub type ScrubCursor = Arc<Mutex<HashMap<StreamId, ExtentId>>>;

/// Supplies replacement payloads for records whose stored frame is corrupt
/// beyond on-extent recovery. In the full engine this is the leader's
/// in-memory page images plus WAL/replica replay; benches may use
/// [`NullRepairSource`] to model unrepairable rot.
pub trait RepairSource: Send + Sync {
    /// Verdict for the record appended for `tag` at `old`: its original
    /// payload, [`RepairSupply::Drop`] when nothing references it anymore,
    /// or [`RepairSupply::Missing`] when no intact copy exists anywhere.
    fn resupply(&self, tag: u64, old: PageAddr) -> RepairSupply;
}

/// Repair source with no data: corrupt records stay unrepaired and their
/// extents stay quarantined (fail-fast reads) forever.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRepairSource;

impl RepairSource for NullRepairSource {
    fn resupply(&self, _tag: u64, _old: PageAddr) -> RepairSupply {
        RepairSupply::Missing
    }
}

impl<F, T> RepairSource for F
where
    F: Fn(u64, PageAddr) -> T + Send + Sync,
    T: Into<RepairSupply>,
{
    fn resupply(&self, tag: u64, old: PageAddr) -> RepairSupply {
        self(tag, old).into()
    }
}

/// Budget of one scrub cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Sealed extents verified per stream per cycle.
    pub extents_per_cycle: usize,
    /// Also verify the open (active-tail) extents — fsck mode. The steady
    /// state scrubs only sealed extents (the tail is still being written);
    /// a pre-recovery or pre-handoff deep pass wants everything checked.
    pub include_open: bool,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            extents_per_cycle: 4,
            include_open: false,
        }
    }
}

/// Outcome of one scrub cycle (or an aggregate of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Sealed extents whose frames were verified.
    pub extents_scanned: u64,
    /// Record frames checked (intact + corrupt).
    pub records_verified: u64,
    /// Frames that failed verification.
    pub corrupt_records: u64,
    /// Extents newly moved into quarantine this cycle.
    pub extents_quarantined: u64,
    /// Quarantined extents fully repaired and reclaimed this cycle.
    pub extents_repaired: u64,
    /// Extents left quarantined because the repair source had no copy.
    pub extents_unrepaired: u64,
    /// Corrupt records re-materialized from the repair source.
    pub records_resupplied: u64,
    /// Corrupt records the source declared unreferenced and repair dropped.
    pub records_dropped: u64,
    /// Bytes rewritten to the tail by repairs.
    pub moved_bytes: u64,
}

impl ScrubReport {
    /// Merges another report into this one.
    pub fn absorb(&mut self, other: ScrubReport) {
        self.extents_scanned += other.extents_scanned;
        self.records_verified += other.records_verified;
        self.corrupt_records += other.corrupt_records;
        self.extents_quarantined += other.extents_quarantined;
        self.extents_repaired += other.extents_repaired;
        self.extents_unrepaired += other.extents_unrepaired;
        self.records_resupplied += other.records_resupplied;
        self.records_dropped += other.records_dropped;
        self.moved_bytes += other.moved_bytes;
    }
}

/// Walks sealed extents round-robin, verifying and repairing.
pub struct Scrubber<S, R> {
    store: AppendOnlyStore,
    source: S,
    router: R,
    streams: Vec<StreamId>,
    config: ScrubConfig,
    /// Per-stream round-robin position, keyed on the last extent id
    /// scanned so progress survives extents appearing and disappearing
    /// between cycles.
    cursor: ScrubCursor,
}

impl<S: RepairSource, R: RelocationRouter> Scrubber<S, R> {
    /// Creates a scrubber over the page-data streams (BASE and DELTA) —
    /// the WAL stream is verified by recovery replay, not by scrubbing.
    pub fn new(store: AppendOnlyStore, source: S, router: R) -> Self {
        Scrubber {
            store,
            source,
            router,
            streams: vec![StreamId::BASE, StreamId::DELTA],
            config: ScrubConfig::default(),
            cursor: ScrubCursor::default(),
        }
    }

    /// Restricts the scrubber to specific streams.
    pub fn with_streams(mut self, streams: Vec<StreamId>) -> Self {
        self.streams = streams;
        self
    }

    /// Overrides the per-cycle budget.
    pub fn with_config(mut self, config: ScrubConfig) -> Self {
        self.config = config;
        self
    }

    /// Resumes from (and advances) an externally owned round-robin
    /// cursor, so short-lived scrubbers keep rotating coverage.
    pub fn with_cursor(mut self, cursor: ScrubCursor) -> Self {
        self.cursor = cursor;
        self
    }

    /// The configured per-cycle budget.
    pub fn config(&self) -> &ScrubConfig {
        &self.config
    }

    /// Runs one cycle: per stream, verifies up to `extents_per_cycle`
    /// sealed extents starting after the cursor, and immediately attempts
    /// repair of anything quarantined (this cycle or earlier). An extent
    /// whose repair source lacks a copy stays quarantined and is retried
    /// on the next visit.
    pub fn run_cycle(&self) -> StorageResult<ScrubReport> {
        let started = self.store.clock().now();
        let mut report = ScrubReport::default();
        for &stream in &self.streams {
            let mut sealed: Vec<ExtentId> = self
                .store
                .extent_infos(stream)?
                .into_iter()
                .filter(|i| {
                    i.state == ExtentState::Sealed
                        || (self.config.include_open && i.state == ExtentState::Open)
                })
                .map(|i| i.id)
                .collect();
            sealed.sort_unstable_by_key(|e| e.0);
            if sealed.is_empty() {
                continue;
            }
            // Resume after the last extent scanned; ids are monotone, so a
            // cursor pointing at a since-reclaimed extent still lands on
            // its successor.
            let start = {
                let cursor = self.cursor.lock();
                cursor
                    .get(&stream)
                    .map(|last| sealed.partition_point(|e| e.0 <= last.0))
                    .unwrap_or(0)
            };
            let take = self.config.extents_per_cycle.min(sealed.len());
            for i in 0..take {
                let extent = sealed[(start + i) % sealed.len()];
                let check = self.store.verify_extent(stream, extent)?;
                report.extents_scanned += 1;
                report.records_verified += check.records_verified;
                report.corrupt_records += check.corrupt_records;
                if check.newly_quarantined {
                    report.extents_quarantined += 1;
                }
                if self.store.is_quarantined(stream, extent)? {
                    match self.store.repair_extent(
                        stream,
                        extent,
                        |tag, old| self.source.resupply(tag, old),
                        |tag, old, new| self.router.repair(tag, old, new),
                    ) {
                        Ok(repair) => {
                            report.extents_repaired += 1;
                            report.records_resupplied += repair.resupplied_records;
                            report.records_dropped += repair.dropped_records;
                            report.moved_bytes += repair.moved_bytes;
                        }
                        // No intact copy anywhere: the extent stays
                        // read-fenced; everything else is a real error.
                        Err(e) if !e.is_crash() => {
                            report.extents_unrepaired += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
                self.cursor.lock().insert(stream, extent);
            }
        }
        let registry = self.store.stats().registry();
        registry.counter(bg3_obs::names::SCRUB_CYCLES_TOTAL).inc();
        let elapsed = self.store.clock().now().duration_since(started);
        self.store.stats().record_scrub_cycle_latency(elapsed);
        self.store.trace().emit(
            self.store.clock().now().0,
            TraceKind::ScrubCycle,
            report.extents_scanned,
            report.corrupt_records,
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaimer::NullRouter;
    use bg3_storage::{StoreBuilder, StoreConfig, TraceEvent};
    use std::sync::Arc;

    fn small_store() -> AppendOnlyStore {
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(64)).build()
    }

    /// Appends `records` 16-byte records, returning (tag, addr, payload).
    fn seed(store: &AppendOnlyStore, records: usize) -> Vec<(u64, PageAddr, Vec<u8>)> {
        (0..records)
            .map(|i| {
                let payload = vec![i as u8; 16];
                let addr = store
                    .append(StreamId::DELTA, &payload, i as u64, None)
                    .unwrap();
                (i as u64, addr, payload)
            })
            .collect()
    }

    #[test]
    fn clean_store_scrubs_without_findings() {
        let store = small_store();
        seed(&store, 20);
        let scrubber = Scrubber::new(store.clone(), NullRepairSource, NullRouter)
            .with_streams(vec![StreamId::DELTA]);
        let report = scrubber.run_cycle().unwrap();
        assert!(report.extents_scanned > 0);
        assert!(report.records_verified > 0);
        assert_eq!(report.corrupt_records, 0);
        assert_eq!(report.extents_quarantined, 0);
        assert_eq!(
            store
                .stats()
                .registry()
                .counter(bg3_obs::names::SCRUB_CYCLES_TOTAL)
                .get(),
            1
        );
    }

    #[test]
    fn round_robin_cursor_covers_all_sealed_extents() {
        let store = small_store();
        seed(&store, 40); // ~10 sealed extents of 64B / 16B-records
        let scrubber = Scrubber::new(store.clone(), NullRepairSource, NullRouter)
            .with_streams(vec![StreamId::DELTA])
            .with_config(ScrubConfig {
                extents_per_cycle: 2,
                include_open: false,
            });
        let sealed = store
            .extent_infos(StreamId::DELTA)
            .unwrap()
            .into_iter()
            .filter(|i| i.state == ExtentState::Sealed)
            .count() as u64;
        let mut total = ScrubReport::default();
        for _ in 0..sealed.div_ceil(2) {
            total.absorb(scrubber.run_cycle().unwrap());
        }
        assert!(
            total.extents_scanned >= sealed,
            "cursor swept every sealed extent: {} scanned of {sealed}",
            total.extents_scanned
        );
    }

    #[test]
    fn scrub_finds_rot_quarantines_and_repairs_from_source() {
        let store = small_store();
        let records = seed(&store, 20);
        let (tag, addr, payload) = records[2].clone();
        store.corrupt_record_bit(addr, 7).unwrap();
        // Repair source: knows the original payload for the rotted record.
        let originals: Arc<Vec<(u64, Vec<u8>)>> =
            Arc::new(records.iter().map(|(t, _, p)| (*t, p.clone())).collect());
        let source = move |t: u64, _old: PageAddr| {
            originals
                .iter()
                .find(|(o, _)| *o == t)
                .map(|(_, p)| p.clone())
        };
        let moved: Arc<Mutex<HashMap<u64, PageAddr>>> = Arc::new(Mutex::new(HashMap::new()));
        let moved_for_router = Arc::clone(&moved);
        let router = move |t: u64, _old: PageAddr, new: PageAddr| {
            moved_for_router.lock().insert(t, new);
        };
        let scrubber = Scrubber::new(store.clone(), source, router)
            .with_streams(vec![StreamId::DELTA])
            .with_config(ScrubConfig {
                extents_per_cycle: 16,
                include_open: false,
            });
        let report = scrubber.run_cycle().unwrap();
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(report.extents_quarantined, 1);
        assert_eq!(report.extents_repaired, 1);
        assert_eq!(report.records_resupplied, 1);
        // The rotted record reads back with its original bytes at its new
        // home; the old extent is gone.
        let new_addr = moved.lock().get(&tag).copied().expect("record re-homed");
        assert_eq!(&store.read(new_addr).unwrap()[..], payload.as_slice());
        assert!(store.read(addr).is_err(), "old extent reclaimed");
        // Trace order: quarantine before repair before relocate-reclaim.
        let events: Vec<TraceEvent> = store.trace().events();
        let seq_of = |kind: TraceKind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.subject == addr.extent.0)
                .map(|e| e.seq)
                .expect("event present")
        };
        assert!(seq_of(TraceKind::ExtentQuarantine) < seq_of(TraceKind::ExtentRepair));
        assert!(seq_of(TraceKind::ExtentRepair) < seq_of(TraceKind::ExtentRelocate));
    }

    #[test]
    fn unrepairable_rot_stays_quarantined_and_is_retried() {
        let store = small_store();
        let records = seed(&store, 20);
        let (_, addr, _) = records[2];
        store.corrupt_record_bit(addr, 3).unwrap();
        let scrubber = Scrubber::new(store.clone(), NullRepairSource, NullRouter)
            .with_streams(vec![StreamId::DELTA])
            .with_config(ScrubConfig {
                extents_per_cycle: 16,
                include_open: false,
            });
        let report = scrubber.run_cycle().unwrap();
        assert_eq!(report.extents_quarantined, 1);
        assert_eq!(report.extents_repaired, 0);
        assert_eq!(report.extents_unrepaired, 1);
        assert!(store.is_quarantined(StreamId::DELTA, addr.extent).unwrap());
        // Next sweep retries the repair (still no source, still fenced).
        let report = scrubber.run_cycle().unwrap();
        assert_eq!(report.extents_unrepaired, 1);
        assert!(store.read(addr).is_err(), "reads stay fail-fast");
    }
}
