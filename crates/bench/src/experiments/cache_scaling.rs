//! `cache_scaling` — concurrent read-path sweep: threads × page-cache size.
//!
//! The workload is the Fig. 8 Douyin-Follow shape (Zipf-skewed point reads
//! with a 10% write mix) run against a durable BG3 engine with the Bw-tree's
//! own page-image serving disabled, so every point read takes the cold path
//! to the shared store — which is where the sharded CLOCK page cache sits.
//!
//! Per cache size the workload is executed once on the real CPU, charging
//! each op its measured CPU time plus one storage round-trip per random
//! read that actually reached storage (cache hits never leave the node and
//! are therefore free). The samples are then replayed through the
//! [`VirtualCluster`] at each thread count — the repo's standard
//! methodology for throughput on a single-core CI host (see DESIGN.md).
//! Reads take shared latches and run in parallel; writes serialize on the
//! owning Bw-tree's latch (dedicated tree when split out, INIT otherwise),
//! exactly the Fig. 8 contention model over the lock-striped forest.
//!
//! [`run_threads`] is the real-OS-thread driver mode behind
//! `reproduce cache_scaling --threads N`: same workload, N actual threads
//! over one shared engine, wall-clock throughput. On a multi-core host it
//! measures true scaling; on the single-core CI host it only demonstrates
//! that the striped read path is thread-safe under contention.

use crate::vdriver::VirtualCluster;
use bg3_core::prelude::*;
use bg3_graph::edge_group;
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Simulated latency of one random storage read — same constant as Fig. 8.
const RANDOM_READ_NS: u64 = 150_000;

/// Cache budgets swept: disabled, pressure (forces CLOCK eviction), warm.
pub const CACHE_SIZES: [usize; 3] = [0, 64 * 1024, 8 * 1024 * 1024];

/// Thread counts swept in the virtual replay.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

const POPULATION: u64 = 2_048;
const PRELOAD_EDGES: usize = 8_000;

/// One (cache size × thread count) throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct CacheScalingRow {
    /// Page-cache budget in bytes (0 = disabled).
    pub cache_bytes: usize,
    /// Virtual worker count.
    pub threads: usize,
    /// Throughput in ops/second (virtual time).
    pub qps: f64,
}

/// Per-cache-size I/O outcome (thread-count independent — the measured
/// sample set is shared across the replay thread counts).
#[derive(Debug, Clone, Serialize)]
pub struct CacheCell {
    /// Page-cache budget in bytes (0 = disabled).
    pub cache_bytes: usize,
    /// Cache hit rate over the measured phase.
    pub hit_rate: f64,
    /// Cache-adjusted I/O counters for the measured phase.
    pub io: super::IoSummary,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct CacheScalingReport {
    /// All (cache size × threads) measurements.
    pub rows: Vec<CacheScalingRow>,
    /// Per-cache-size hit rate and read amplification.
    pub cells: Vec<CacheCell>,
    /// Merged registry snapshot across every cache-size cell.
    pub metrics: MetricsSnapshot,
}

/// Result of one real-OS-thread run (`--threads N`).
#[derive(Debug, Clone, Serialize)]
pub struct ThreadedRunReport {
    /// OS threads driving the shared engine.
    pub threads: usize,
    /// Total ops executed across all threads.
    pub ops: usize,
    /// Wall-clock throughput in ops/second.
    pub qps: f64,
    /// Cache hit rate over the run.
    pub hit_rate: f64,
    /// Cache-adjusted I/O counters for the run.
    pub io: super::IoSummary,
    /// Registry snapshot of the shared engine after the run.
    pub metrics: MetricsSnapshot,
}

/// Durable engine with Bw-tree page-image serving off: point reads take the
/// cold path through the shared store and its page cache.
fn build_engine(cache_bytes: usize) -> Bg3Db {
    let mut config = Bg3Config::default()
        .with_durability()
        .with_cache_capacity(cache_bytes);
    config.forest = config.forest.clone().with_split_out_threshold(64);
    config.forest.tree_config = config.forest.tree_config.clone().with_read_cache(false);
    Bg3Db::open(config)
}

fn preload(db: &Bg3Db) {
    let zipf = Zipf::new(POPULATION, 1.0);
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..PRELOAD_EDGES {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        db.insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
            .unwrap();
    }
    // Flush pages so base addresses exist and cold reads have storage to hit.
    db.checkpoint().unwrap();
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The latch a write serializes on — the Fig. 8 BG3 contention model:
/// dedicated trees are distinct latches, the INIT tree is latch 0, reads
/// are free.
fn write_resource(db: &Bg3Db, src: VertexId) -> Option<u64> {
    let group = edge_group(src, EdgeType::FOLLOW);
    if db.forest().dedicated_tree(&group).is_some() {
        Some(16 + fxhash(&group))
    } else {
        Some(0)
    }
}

/// Executes one op of the 90/10 read/write mix. Returns the op's latch.
fn run_op(db: &Bg3Db, i: usize, src: VertexId, dst: VertexId) -> Option<u64> {
    if i % 10 == 9 {
        let resource = write_resource(db, src);
        db.insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
            .unwrap();
        resource
    } else {
        db.get_edge(src, EdgeType::FOLLOW, dst).unwrap();
        None
    }
}

/// Measures `(cost_ns, latch)` samples for one cache configuration, plus
/// the cache outcome of the measured phase.
fn measure(db: &Bg3Db, cache_bytes: usize, ops: usize) -> (Vec<(u64, Option<u64>)>, CacheCell) {
    let zipf = Zipf::new(POPULATION, 1.0);
    let mut rng = StdRng::seed_from_u64(42);
    let io_before = db.store().metrics_snapshot();
    let cache_before = db.cache_snapshot();
    let reads = db
        .store()
        .stats()
        .registry()
        .counter(obs::names::STORAGE_RANDOM_READS_TOTAL);
    let mut reads_before = reads.get();
    let mut samples = Vec::with_capacity(ops);
    for i in 0..ops {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        let started = Instant::now();
        let resource = run_op(db, i, src, dst);
        let cpu = started.elapsed().as_nanos() as u64;
        let reads_after = reads.get();
        let io = (reads_after - reads_before) * RANDOM_READ_NS;
        reads_before = reads_after;
        samples.push((cpu + io, resource));
    }
    let io = super::IoSummary::between(&io_before, &db.store().metrics_snapshot());
    let cache_after = db.cache_snapshot();
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    let looked = hits + misses;
    let cell = CacheCell {
        cache_bytes,
        hit_rate: if looked == 0 {
            0.0
        } else {
            hits as f64 / looked as f64
        },
        io,
    };
    (samples, cell)
}

/// Runs the full sweep. `ops` is the op count per cache-size cell.
pub fn run(ops: usize) -> CacheScalingReport {
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for cache_bytes in CACHE_SIZES {
        let db = build_engine(cache_bytes);
        preload(&db);
        let (samples, cell) = measure(&db, cache_bytes, ops);
        cells.push(cell);
        metrics.merge(&db.metrics_snapshot());
        for threads in THREADS {
            let mut cluster = VirtualCluster::new(threads);
            for &(cost, resource) in &samples {
                cluster.submit(cost, resource);
            }
            rows.push(CacheScalingRow {
                cache_bytes,
                threads,
                qps: cluster.throughput(),
            });
        }
    }
    CacheScalingReport {
        rows,
        cells,
        metrics,
    }
}

/// Real-OS-thread driver mode: `threads` actual threads share one warm
/// engine and split `ops` between them; throughput is wall-clock.
pub fn run_threads(threads: usize, ops: usize) -> ThreadedRunReport {
    let threads = threads.max(1);
    let db = build_engine(*CACHE_SIZES.last().unwrap());
    preload(&db);
    let io_before = db.store().metrics_snapshot();
    let cache_before = db.cache_snapshot();
    let per_thread = ops.div_ceil(threads);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = &db;
            scope.spawn(move || {
                let zipf = Zipf::new(POPULATION, 1.0);
                let mut rng = StdRng::seed_from_u64(42 + t as u64);
                for i in 0..per_thread {
                    let src = VertexId(zipf.sample(&mut rng));
                    let dst = VertexId(zipf.sample(&mut rng));
                    run_op(db, i, src, dst);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let io = super::IoSummary::between(&io_before, &db.store().metrics_snapshot());
    let cache_after = db.cache_snapshot();
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    let looked = hits + misses;
    ThreadedRunReport {
        threads,
        ops: per_thread * threads,
        qps: (per_thread * threads) as f64 / elapsed,
        hit_rate: if looked == 0 {
            0.0
        } else {
            hits as f64 / looked as f64
        },
        io,
        metrics: db.metrics_snapshot(),
    }
}

fn label(cache_bytes: usize) -> String {
    if cache_bytes == 0 {
        "no cache".to_string()
    } else if cache_bytes < 1024 * 1024 {
        format!("{} KiB", cache_bytes / 1024)
    } else {
        format!("{} MiB", cache_bytes / (1024 * 1024))
    }
}

/// Renders the sweep, one series per cache size.
pub fn render(report: &CacheScalingReport) -> String {
    let mut out = String::from(
        "cache_scaling: threads x cache size (virtual-time throughput, 90/10 cold-read mix)\n",
    );
    for cell in &report.cells {
        let series: Vec<String> = report
            .rows
            .iter()
            .filter(|r| r.cache_bytes == cell.cache_bytes)
            .map(|r| format!("{}@{}t", super::kqps(r.qps), r.threads))
            .collect();
        out.push_str(&format!(
            "{:<9} hit-rate {:>5.1}%  read-amp {:.2}  {}\n",
            label(cell.cache_bytes),
            cell.hit_rate * 100.0,
            cell.io.read_amplification,
            series.join("  ")
        ));
    }
    out
}

/// Renders one real-thread run.
pub fn render_threads(report: &ThreadedRunReport) -> String {
    format!(
        "cache_scaling --threads {}: {} ops wall-clock, {}  hit-rate {:.1}%  read-amp {:.2}\n",
        report.threads,
        report.ops,
        super::kqps(report.qps),
        report.hit_rate * 100.0,
        report.io.read_amplification
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_cache_cuts_read_amplification_and_threads_scale() {
        let report = run(1_200);
        let cell = |bytes: usize| {
            report
                .cells
                .iter()
                .find(|c| c.cache_bytes == bytes)
                .unwrap()
        };
        let no_cache = cell(0);
        let warm = cell(*CACHE_SIZES.last().unwrap());
        assert_eq!(no_cache.io.read_amplification, 1.0, "no cache, no hits");
        assert!(
            warm.io.read_amplification < no_cache.io.read_amplification,
            "warm cache strictly below the no-cache baseline: {} vs {}",
            warm.io.read_amplification,
            no_cache.io.read_amplification
        );
        assert!(
            warm.hit_rate > 0.5,
            "Zipf reads mostly hit: {}",
            warm.hit_rate
        );
        let qps = |bytes: usize, threads: usize| {
            report
                .rows
                .iter()
                .find(|r| r.cache_bytes == bytes && r.threads == threads)
                .unwrap()
                .qps
        };
        for bytes in CACHE_SIZES {
            assert!(
                qps(bytes, 4) >= 2.0 * qps(bytes, 1),
                "4 threads at least doubles 1 thread ({bytes} B cache): {} vs {}",
                qps(bytes, 4),
                qps(bytes, 1)
            );
        }
    }

    #[test]
    fn real_thread_mode_is_coherent_under_contention() {
        let report = run_threads(8, 1_600);
        assert_eq!(report.ops, 1_600);
        assert!(report.qps > 0.0);
        assert!(report.hit_rate > 0.0, "warm engine hits its cache");
        assert!(report.io.read_amplification < 1.0);
    }
}
