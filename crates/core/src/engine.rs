//! The unified engine API.
//!
//! The three engines ([`Bg3Db`], [`ByteGraphDb`], [`NeptuneLike`]) already
//! share the [`GraphStore`] query surface, but construction, I/O accounting,
//! and background maintenance were bespoke per engine — every experiment
//! driver grew a three-armed `match`. This module splits the remaining
//! surface in two:
//!
//! * [`EngineRuntime`] — object-safe: everything a driver needs once the
//!   engine exists (name, backing store, metric snapshots, maintenance).
//!   Drivers can hold `dyn EngineRuntime`.
//! * [`GraphEngine`] — adds uniform construction (`open` / `with_store`)
//!   with a per-engine `Config` associated type, so generic harness code
//!   can build any engine from its `Default` configuration.

use crate::bg3db::{Bg3Config, Bg3Db};
use crate::bytegraph::{ByteGraphConfig, ByteGraphDb};
use crate::neptune::NeptuneLike;
use bg3_graph::GraphStore;
use bg3_storage::{
    AppendOnlyStore, CacheStatsSnapshot, MetricsSnapshot, StorageResult, StoreConfig,
};

/// What one bounded background-maintenance pass accomplished, in
/// engine-neutral terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Extents reclaimed by space reclamation (relocated + TTL-expired).
    pub reclaimed_extents: u64,
    /// Bytes rewritten while moving live data — the background write
    /// amplification of Table 2 (BG3) or compaction I/O (LSM engines).
    pub moved_bytes: u64,
    /// Memtable flushes plus compaction rounds, for engines whose
    /// maintenance is LSM-shaped rather than extent GC.
    pub compactions: u64,
}

/// The object-safe runtime surface shared by every engine.
///
/// Extends [`GraphStore`], so a `dyn EngineRuntime` answers queries *and*
/// exposes the operational knobs the experiment drivers poke.
pub trait EngineRuntime: GraphStore {
    /// Display name used in experiment output rows.
    fn engine_name(&self) -> &'static str;

    /// The append-only shared store backing this engine.
    fn shared_store(&self) -> &AppendOnlyStore;

    /// Point-in-time copy of the backing store's page-cache counters
    /// (hits, misses, admissions, evictions, residency). Every engine
    /// reads through the same store-level cache, so the default is
    /// authoritative.
    fn cache_snapshot(&self) -> CacheStatsSnapshot {
        self.shared_store().cache_stats()
    }

    /// Full registry snapshot (counters, gauges, latency histograms in
    /// virtual nanoseconds) of the backing store's data plane. Engines with
    /// additional metric planes (e.g. BG3's mapping table) override this to
    /// merge them in. Drivers subtract one counter between two snapshots to
    /// attribute I/O to a workload phase without per-engine stat plumbing.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared_store().metrics_snapshot()
    }

    /// Runs one bounded background-maintenance pass. `budget` caps the
    /// work in engine-specific units (extents examined for BG3's space
    /// reclamation; ignored by LSM flush). Engines with no background
    /// work return an empty report.
    fn run_maintenance(&self, budget: usize) -> StorageResult<MaintenanceReport>;
}

/// Uniform construction over the engines: `open` on a fresh store, or
/// `with_store` to share an existing one (multi-tenant experiments, crash
/// harnesses re-opening the surviving store).
pub trait GraphEngine: EngineRuntime + Sized {
    /// Engine-specific configuration; `Default` is the paper's baseline
    /// setup for that engine.
    type Config: Default + Clone;

    /// Opens the engine over a fresh store built from `config`.
    fn open(config: Self::Config) -> Self;

    /// Opens the engine over an existing (possibly shared) store.
    fn with_store(store: AppendOnlyStore, config: Self::Config) -> Self;
}

impl EngineRuntime for Bg3Db {
    fn engine_name(&self) -> &'static str {
        "bg3"
    }

    fn shared_store(&self) -> &AppendOnlyStore {
        self.store()
    }

    /// Data plane plus — in durable mode — the mapping table's
    /// metadata-plane registry (publish latency, epoch seals, fencing).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = self.store().metrics_snapshot();
        if let Some(mapping) = self.mapping() {
            merged.merge(&mapping.stats().metrics());
        }
        merged
    }

    fn run_maintenance(&self, budget: usize) -> StorageResult<MaintenanceReport> {
        let report = self.run_gc_cycle(budget)?;
        Ok(MaintenanceReport {
            reclaimed_extents: report.relocated_extents + report.expired_extents,
            moved_bytes: report.moved_bytes,
            compactions: 0,
        })
    }
}

impl GraphEngine for Bg3Db {
    type Config = Bg3Config;

    fn open(config: Bg3Config) -> Self {
        Bg3Db::new(config)
    }

    fn with_store(store: AppendOnlyStore, config: Bg3Config) -> Self {
        Bg3Db::with_store(store, config)
    }
}

impl EngineRuntime for ByteGraphDb {
    fn engine_name(&self) -> &'static str {
        "bytegraph"
    }

    fn shared_store(&self) -> &AppendOnlyStore {
        self.lsm().store()
    }

    /// Flushes the memtable (which may cascade compactions). The LSM sizes
    /// its own compaction work, so `budget` is ignored.
    fn run_maintenance(&self, _budget: usize) -> StorageResult<MaintenanceReport> {
        let before = self.lsm().stats();
        self.lsm().flush()?;
        let after = self.lsm().stats();
        Ok(MaintenanceReport {
            reclaimed_extents: 0,
            moved_bytes: after.compaction_bytes - before.compaction_bytes,
            compactions: (after.flushes - before.flushes)
                + (after.compactions - before.compactions),
        })
    }
}

impl GraphEngine for ByteGraphDb {
    type Config = ByteGraphConfig;

    fn open(config: ByteGraphConfig) -> Self {
        ByteGraphDb::new(config)
    }

    fn with_store(store: AppendOnlyStore, config: ByteGraphConfig) -> Self {
        ByteGraphDb::with_store(store, config)
    }
}

impl EngineRuntime for NeptuneLike {
    fn engine_name(&self) -> &'static str {
        "neptune-like"
    }

    fn shared_store(&self) -> &AppendOnlyStore {
        self.store()
    }

    /// Write-through pages need no background maintenance.
    fn run_maintenance(&self, _budget: usize) -> StorageResult<MaintenanceReport> {
        Ok(MaintenanceReport::default())
    }
}

impl GraphEngine for NeptuneLike {
    type Config = StoreConfig;

    fn open(config: StoreConfig) -> Self {
        NeptuneLike::new(config)
    }

    /// The store already fixes latency/fault behavior, so the config is
    /// unused when attaching to an existing store.
    fn with_store(store: AppendOnlyStore, _config: StoreConfig) -> Self {
        NeptuneLike::with_store(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_graph::{Edge, EdgeType, VertexId};
    use bg3_storage::obs::names;
    use bg3_storage::StoreBuilder;

    /// Generic over `GraphEngine`: the same harness body drives any engine.
    fn exercise<E: GraphEngine>() -> (u64, &'static str) {
        let engine = E::open(E::Config::default());
        for i in 0..20u64 {
            engine
                .insert_edge(&Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(10 + i)))
                .unwrap();
        }
        let reads = || {
            engine
                .shared_store()
                .stats()
                .registry()
                .counter(names::STORAGE_RANDOM_READS_TOTAL)
                .get()
        };
        let before = reads();
        assert_eq!(
            engine
                .neighbors(VertexId(1), EdgeType::FOLLOW, usize::MAX)
                .unwrap()
                .len(),
            20
        );
        let after = reads();
        engine.run_maintenance(4).unwrap();
        (after - before, engine.engine_name())
    }

    #[test]
    fn all_engines_run_through_the_unified_api() {
        let (_, name) = exercise::<Bg3Db>();
        assert_eq!(name, "bg3");
        let (_, name) = exercise::<ByteGraphDb>();
        assert_eq!(name, "bytegraph");
        let (_, name) = exercise::<NeptuneLike>();
        assert_eq!(name, "neptune-like");
    }

    #[test]
    fn engines_are_usable_as_trait_objects() {
        let engines: Vec<Box<dyn EngineRuntime>> = vec![
            Box::new(Bg3Db::open(Bg3Config::default())),
            Box::new(ByteGraphDb::open(ByteGraphConfig::default())),
            Box::new(NeptuneLike::open(StoreConfig::counting())),
        ];
        for engine in &engines {
            engine
                .insert_edge(&Edge::new(VertexId(7), EdgeType::FOLLOW, VertexId(8)))
                .unwrap();
            assert!(engine
                .get_edge(VertexId(7), EdgeType::FOLLOW, VertexId(8))
                .unwrap()
                .is_some());
            let report = engine.run_maintenance(2).unwrap();
            assert_eq!(report.reclaimed_extents, 0, "nothing to reclaim yet");
        }
    }

    /// Durable engine with the Bw-tree's own page image serving disabled:
    /// every point read takes the cold path to the shared store, which is
    /// where the page cache sits.
    fn cold_reading_config(cache_bytes: usize) -> Bg3Config {
        let mut config = Bg3Config::default()
            .with_durability()
            .with_cache_capacity(cache_bytes);
        config.forest.tree_config = config.forest.tree_config.clone().with_read_cache(false);
        config
    }

    #[test]
    fn cache_stats_flow_through_the_unified_api() {
        let engine = Bg3Db::open(cold_reading_config(8 * 1024 * 1024));
        for i in 0..20u64 {
            engine
                .insert_edge(&Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(10 + i)))
                .unwrap();
        }
        engine.checkpoint().unwrap();
        for _ in 0..5 {
            assert!(engine
                .get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(10))
                .unwrap()
                .is_some());
        }
        let cache = engine.cache_snapshot();
        assert!(cache.hits > 0, "repeat cold reads hit the page cache");
        let io = engine.shared_store().metrics_snapshot();
        assert_eq!(
            io.counter(names::CACHE_HITS_TOTAL),
            Some(cache.hits),
            "both surfaces agree"
        );
        // Read amplification below 1: some logical reads never reached storage.
        assert!(io.counter(names::CACHE_HITS_TOTAL).unwrap() > 0);

        // The knob round-trips: a zero-capacity engine never caches.
        let cold = Bg3Db::open(cold_reading_config(0));
        cold.insert_edge(&Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(2)))
            .unwrap();
        cold.checkpoint().unwrap();
        for _ in 0..3 {
            cold.get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
                .unwrap();
        }
        assert_eq!(cold.cache_snapshot().hits, 0);
        // Read amplification 1: every logical read reached storage.
        assert_eq!(
            cold.shared_store()
                .metrics_snapshot()
                .counter(names::CACHE_HITS_TOTAL),
            Some(0)
        );
    }

    #[test]
    fn with_store_attaches_to_a_shared_store() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let db = <Bg3Db as GraphEngine>::with_store(store.clone(), Bg3Config::default());
        db.insert_edge(&Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(2)))
            .unwrap();
        // Same underlying store: the attached handle's counters move it.
        let metrics = db.shared_store().metrics_snapshot();
        assert!(
            metrics
                .counter(names::STORAGE_BYTES_APPENDED_TOTAL)
                .unwrap()
                > 0
        );
        assert_eq!(store.metrics_snapshot().counters, metrics.counters);
    }
}
