//! Atomic I/O accounting, backed by the `bg3-obs` metric registry.
//!
//! These counters are the primary measurement surface for the paper's
//! micro-benchmarks: storage-side read QPS (Fig. 9), bytes written (Fig. 10),
//! and background relocation bandwidth (Table 2) are all derived from here.
//!
//! Each [`IoStats`] owns a [`MetricRegistry`] in which every counter and
//! latency histogram is registered under a stable name from
//! [`bg3_obs::names`]. The registry is the only read surface: one counter
//! is read with `registry().counter(name).get()`, and [`IoStats::metrics`]
//! copies every counter, gauge and latency distribution; a phase's I/O is
//! the difference of one counter between two such copies. Recording is
//! relaxed atomics only — no lock is taken on any hot path.
//!
//! Units: counters named `*_bytes*` are bytes, everything else counts
//! operations; histograms record **virtual-time nanoseconds** (simulated
//! `SimClock` time, not wall time).

use bg3_obs::span::{charge, CostDim};
use bg3_obs::{names, Counter, Histogram, MetricRegistry, MetricsSnapshot};

/// Shared, thread-safe I/O counters and latency histograms for one store.
#[derive(Debug)]
pub struct IoStats {
    registry: MetricRegistry,
    appends: Counter,
    bytes_appended: Counter,
    random_reads: Counter,
    bytes_read: Counter,
    invalidations: Counter,
    relocation_moves: Counter,
    relocation_bytes: Counter,
    wasted_relocation_bytes: Counter,
    extents_reclaimed: Counter,
    extents_expired: Counter,
    mapping_publishes: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    epoch_seals: Counter,
    fenced_publishes: Counter,
    fenced_appends: Counter,
    checksum_mismatches: Counter,
    extents_quarantined: Counter,
    extents_repaired: Counter,
    scrub_records_verified: Counter,
    scrub_records_resupplied: Counter,
    query_scan_bytes: Counter,
    query_csr_segments: Counter,
    sync_poisoned: Counter,
    read_latency: Histogram,
    append_latency: Histogram,
    publish_latency: Histogram,
    wal_flush_latency: Histogram,
    gc_move_latency: Histogram,
    promotion_latency: Histogram,
    scrub_cycle_latency: Histogram,
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Creates zeroed counters in a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(MetricRegistry::new())
    }

    /// Creates counters registered in `registry` (pre-registering every
    /// stable metric name, so even an idle store exports the full set).
    pub fn with_registry(registry: MetricRegistry) -> Self {
        // Pre-register the backend's physical-I/O counters (the store
        // re-resolves the same handles via `BackendStats::register` at
        // open), so even an idle store exports the full required set.
        let _ = crate::backend::BackendStats::register(&registry);
        // Same for the admission-control plane: the controller re-resolves
        // these handles from the store's registry when one is attached,
        // and an engine running without admission still exports them.
        let _ = registry.counter(names::ADMIT_ADMITTED_TOTAL);
        let _ = registry.counter(names::ADMIT_SHED_TOTAL);
        let _ = registry.counter(names::ADMIT_STALE_READS_TOTAL);
        let _ = registry.counter(names::QUERY_HOP_TRUNCATIONS_TOTAL);
        let _ = registry.histogram(names::ADMIT_QUEUE_WAIT_LATENCY_NS);
        // Profiler plane: the executor and slow-query log re-resolve these
        // handles when profiling is on; an unprofiled store still exports
        // the full required set.
        let _ = registry.counter(names::QUERY_PROFILES_TOTAL);
        let _ = registry.counter(names::QUERY_PROFILE_SPANS_TOTAL);
        let _ = registry.counter(names::SLOW_QUERY_RECORDED_TOTAL);
        let _ = registry.counter(names::SLOW_QUERY_EVICTED_TOTAL);
        let _ = registry.counter(names::TRACE_DROPPED_EVENTS_TOTAL);
        let _ = registry.gauge(names::SLOW_QUERY_LOG_ENTRIES);
        let _ = registry.gauge(names::SLOW_QUERY_WORST_COST_NS);
        let _ = registry.histogram(names::QUERY_PROFILE_COST_LATENCY_NS);
        // Disk-fault envelope: the governed engine re-resolves the ENOSPC
        // shed counter from this registry, and the health tracker owns the
        // gauge; pre-register both so idle stores export them.
        let _ = registry.counter(names::ENOSPC_SHEDS_TOTAL);
        let _ = registry.gauge(names::DISK_HEALTH);
        // The query executor records these two through the registry.
        let _ = registry.counter(names::QUERY_PUSHDOWN_HITS_TOTAL);
        let _ = registry.histogram(names::QUERY_FRONTIER_LEN);
        IoStats {
            appends: registry.counter(names::STORAGE_APPENDS_TOTAL),
            bytes_appended: registry.counter(names::STORAGE_BYTES_APPENDED_TOTAL),
            random_reads: registry.counter(names::STORAGE_RANDOM_READS_TOTAL),
            bytes_read: registry.counter(names::STORAGE_BYTES_READ_TOTAL),
            invalidations: registry.counter(names::STORAGE_INVALIDATIONS_TOTAL),
            relocation_moves: registry.counter(names::GC_RELOCATION_MOVES_TOTAL),
            relocation_bytes: registry.counter(names::GC_RELOCATION_BYTES_TOTAL),
            wasted_relocation_bytes: registry.counter(names::GC_WASTED_RELOCATION_BYTES_TOTAL),
            extents_reclaimed: registry.counter(names::GC_EXTENTS_RECLAIMED_TOTAL),
            extents_expired: registry.counter(names::GC_EXTENTS_EXPIRED_TOTAL),
            mapping_publishes: registry.counter(names::MAPPING_PUBLISHES_TOTAL),
            cache_hits: registry.counter(names::CACHE_HITS_TOTAL),
            cache_misses: registry.counter(names::CACHE_MISSES_TOTAL),
            cache_evictions: registry.counter(names::CACHE_EVICTIONS_TOTAL),
            epoch_seals: registry.counter(names::EPOCH_SEALS_TOTAL),
            fenced_publishes: registry.counter(names::FENCED_PUBLISHES_TOTAL),
            fenced_appends: registry.counter(names::FENCED_APPENDS_TOTAL),
            checksum_mismatches: registry.counter(names::CHECKSUM_MISMATCHES_TOTAL),
            extents_quarantined: registry.counter(names::SCRUB_EXTENTS_QUARANTINED_TOTAL),
            extents_repaired: registry.counter(names::SCRUB_EXTENTS_REPAIRED_TOTAL),
            scrub_records_verified: registry.counter(names::SCRUB_RECORDS_VERIFIED_TOTAL),
            scrub_records_resupplied: registry.counter(names::SCRUB_RECORDS_RESUPPLIED_TOTAL),
            query_scan_bytes: registry.counter(names::QUERY_SCAN_BYTES_TOTAL),
            query_csr_segments: registry.counter(names::QUERY_CSR_SEGMENTS_SCANNED_TOTAL),
            sync_poisoned: registry.counter(names::SYNC_POISONED_TOTAL),
            read_latency: registry.histogram(names::STORAGE_READ_LATENCY_NS),
            append_latency: registry.histogram(names::STORAGE_APPEND_LATENCY_NS),
            publish_latency: registry.histogram(names::MAPPING_PUBLISH_LATENCY_NS),
            wal_flush_latency: registry.histogram(names::WAL_FLUSH_LATENCY_NS),
            gc_move_latency: registry.histogram(names::GC_MOVE_LATENCY_NS),
            promotion_latency: registry.histogram(names::PROMOTION_LATENCY_NS),
            scrub_cycle_latency: registry.histogram(names::SCRUB_CYCLE_LATENCY_NS),
            registry,
        }
    }

    /// The registry these counters live in. Subsystems without their own
    /// `IoStats` (the reclaimer, the failover coordinator) register their
    /// extra metrics here so one snapshot covers the whole node.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Full registry snapshot: every counter, gauge, and latency
    /// histogram under its stable name.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    pub(crate) fn record_append(&self, len: usize) {
        self.appends.inc();
        self.bytes_appended.add(len as u64);
    }

    // Per-request attribution (`bg3_obs::span::charge`) is placed inside
    // the same recorders that bump the global counters, so summed
    // per-query ledgers equal the global registry deltas by construction
    // whenever every operation in a window runs under an installed ledger.
    pub(crate) fn record_read(&self, len: usize) {
        self.random_reads.inc();
        self.bytes_read.add(len as u64);
        charge(CostDim::StorageReads, 1);
        charge(CostDim::StorageReadBytes, len as u64);
    }

    pub(crate) fn record_invalidation(&self) {
        self.invalidations.inc();
    }

    pub(crate) fn record_relocation(&self, len: usize) {
        self.relocation_moves.inc();
        self.relocation_bytes.add(len as u64);
    }

    pub(crate) fn record_wasted_relocation(&self, len: u64) {
        self.wasted_relocation_bytes.add(len);
    }

    pub(crate) fn record_extent_reclaimed(&self) {
        self.extents_reclaimed.inc();
    }

    pub(crate) fn record_extent_expired(&self) {
        self.extents_expired.inc();
    }

    pub(crate) fn record_mapping_publish(&self) {
        self.mapping_publishes.inc();
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
        charge(CostDim::CacheHits, 1);
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
        charge(CostDim::CacheMisses, 1);
    }

    pub(crate) fn record_cache_evictions(&self, n: u64) {
        self.cache_evictions.add(n);
    }

    pub(crate) fn record_checksum_mismatch(&self) {
        self.checksum_mismatches.inc();
    }

    pub(crate) fn record_checksum_mismatches(&self, n: u64) {
        self.checksum_mismatches.add(n);
    }

    pub(crate) fn record_sync_poisoned(&self) {
        self.sync_poisoned.inc();
    }

    pub(crate) fn record_extent_quarantined(&self) {
        self.extents_quarantined.inc();
    }

    pub(crate) fn record_extent_repaired(&self) {
        self.extents_repaired.inc();
    }

    pub(crate) fn record_scrub_records_verified(&self, n: u64) {
        self.scrub_records_verified.add(n);
    }

    pub(crate) fn record_scrub_records_resupplied(&self, n: u64) {
        self.scrub_records_resupplied.add(n);
    }

    /// Records an epoch seal (failover promotion). Public: the failover
    /// machinery lives outside this crate and records on the store's stats.
    pub fn record_epoch_seal(&self) {
        self.epoch_seals.inc();
    }

    /// Records a mapping publish rejected by the epoch fence.
    pub fn record_fenced_publish(&self) {
        self.fenced_publishes.inc();
    }

    /// Records a WAL append rejected by the epoch fence.
    pub fn record_fenced_append(&self) {
        self.fenced_appends.inc();
    }

    /// Records the virtual-time cost of one storage random read (ns).
    pub fn record_read_latency(&self, nanos: u64) {
        self.read_latency.record(nanos);
        charge(CostDim::ReadWaitNanos, nanos);
    }

    /// Records the virtual-time cost of one append (ns).
    pub fn record_append_latency(&self, nanos: u64) {
        self.append_latency.record(nanos);
    }

    /// Records the virtual-time cost of one mapping publish (ns).
    pub fn record_publish_latency(&self, nanos: u64) {
        self.publish_latency.record(nanos);
    }

    /// Records one WAL append+flush duration, retries included (ns).
    /// Public: the WAL writer lives outside this crate.
    pub fn record_wal_flush_latency(&self, nanos: u64) {
        self.wal_flush_latency.record(nanos);
        charge(CostDim::WalWaitNanos, nanos);
    }

    /// Records the cost of relocating one record: its GC read + rewrite (ns).
    pub fn record_gc_move_latency(&self, nanos: u64) {
        self.gc_move_latency.record(nanos);
    }

    /// Records one RO→RW promotion duration: seal + parked replay (ns).
    /// Public: the failover machinery lives outside this crate.
    pub fn record_promotion_latency(&self, nanos: u64) {
        self.promotion_latency.record(nanos);
    }

    /// Records one scrubber cycle duration: every extent verified (and
    /// repaired) in the cycle (ns). Public: the scrubber lives in `bg3-gc`.
    pub fn record_scrub_cycle_latency(&self, nanos: u64) {
        self.scrub_cycle_latency.record(nanos);
    }

    /// Records one batched adjacency scan: `bytes` scanned across
    /// `segments` distinct sealed segments (leaf pages). Public: the
    /// batched read path lives in `bg3-core`/`bg3-query`.
    pub fn record_adjacency_scan(&self, bytes: u64, segments: u64) {
        self.query_scan_bytes.add(bytes);
        self.query_csr_segments.add(segments);
        charge(CostDim::BytesScanned, bytes);
        charge(CostDim::CsrSegments, segments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_ops() {
        let stats = IoStats::new();
        stats.record_append(100);
        stats.record_append(50);
        stats.record_read(30);
        stats.record_invalidation();
        stats.record_relocation(50);
        stats.record_extent_reclaimed();
        stats.record_mapping_publish();
        let metrics = stats.metrics();
        for (name, value) in [
            (names::STORAGE_APPENDS_TOTAL, 2),
            (names::STORAGE_BYTES_APPENDED_TOTAL, 150),
            (names::STORAGE_RANDOM_READS_TOTAL, 1),
            (names::STORAGE_BYTES_READ_TOTAL, 30),
            (names::STORAGE_INVALIDATIONS_TOTAL, 1),
            (names::GC_RELOCATION_MOVES_TOTAL, 1),
            (names::GC_RELOCATION_BYTES_TOTAL, 50),
            (names::GC_EXTENTS_RECLAIMED_TOTAL, 1),
            (names::MAPPING_PUBLISHES_TOTAL, 1),
        ] {
            assert_eq!(metrics.counter(name), Some(value), "{name}");
        }
    }

    #[test]
    fn counters_are_mirrored_in_the_registry() {
        let stats = IoStats::new();
        stats.record_append(64);
        stats.record_read(32);
        stats.record_fenced_append();
        let metrics = stats.metrics();
        assert_eq!(
            metrics.counter(bg3_obs::names::STORAGE_APPENDS_TOTAL),
            Some(1)
        );
        assert_eq!(
            metrics.counter(bg3_obs::names::STORAGE_BYTES_APPENDED_TOTAL),
            Some(64)
        );
        assert_eq!(
            metrics.counter(bg3_obs::names::STORAGE_BYTES_READ_TOTAL),
            Some(32)
        );
        assert_eq!(
            metrics.counter(bg3_obs::names::FENCED_APPENDS_TOTAL),
            Some(1)
        );
        // Every required name is pre-registered even when untouched.
        for name in bg3_obs::names::REQUIRED_COUNTERS {
            assert!(metrics.counter(name).is_some(), "missing {name}");
        }
        for name in bg3_obs::names::REQUIRED_HISTOGRAMS {
            assert!(metrics.histogram(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn ledger_charges_mirror_registry_increments() {
        let stats = IoStats::new();
        let ledger = bg3_obs::CostLedger::new();
        {
            let _guard = ledger.install();
            stats.record_read(32);
            stats.record_cache_hit();
            stats.record_cache_miss();
            stats.record_read_latency(150_000);
            stats.record_wal_flush_latency(400_000);
            stats.record_adjacency_scan(512, 3);
        }
        // Outside the guard: global counters move, the ledger doesn't.
        stats.record_read(100);
        let snap = ledger.snapshot();
        assert_eq!(snap.storage_reads, 1);
        assert_eq!(snap.storage_read_bytes, 32);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.read_wait_nanos, 150_000);
        assert_eq!(snap.wal_wait_nanos, 400_000);
        assert_eq!(snap.bytes_scanned, 512);
        assert_eq!(snap.csr_segments, 3);
        assert_eq!(
            stats.metrics().counter(names::STORAGE_RANDOM_READS_TOTAL),
            Some(2)
        );
    }

    #[test]
    fn latency_recorders_feed_named_histograms() {
        let stats = IoStats::new();
        stats.record_read_latency(50_000);
        stats.record_read_latency(70_000);
        stats.record_wal_flush_latency(400_000);
        let metrics = stats.metrics();
        let reads = metrics
            .histogram(bg3_obs::names::STORAGE_READ_LATENCY_NS)
            .unwrap();
        assert_eq!(reads.count, 2);
        assert_eq!(reads.max_nanos, 70_000);
        assert_eq!(
            metrics
                .histogram(bg3_obs::names::WAL_FLUSH_LATENCY_NS)
                .unwrap()
                .count,
            1
        );
    }
}
