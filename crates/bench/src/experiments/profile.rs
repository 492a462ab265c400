//! `profile` — request-scoped cost attribution over the Table-1 mixes,
//! with the conservation invariant as the headline assertion.
//!
//! Every operation in the measurement phases — profiled traversals,
//! ledger-wrapped writes, and their admission-control calls — runs under
//! an installed [`CostLedger`], so *every* instrumented charge site in the
//! engine (adjacency scans, page cache, storage reads, WAL flushes,
//! admission queue waits, hop truncations) attributes to exactly one
//! request. The invariant checked per phase: the per-dimension **sum of
//! all request ledgers equals the global registry delta**. If a charge
//! site bumped a global counter without charging the active ledger (or
//! vice versa), attribution would silently leak and the corresponding
//! [`DimCheck`] would fail.
//!
//! Two Table-1 mixes run under both executor modes:
//!
//! * **Douyin Follow** — 1-hop neighbor lists, 10% edge writes.
//! * **Douyin Recommendation** — the 70/20/10 1/2/3-hop mix, 5% writes.
//!
//! On top, a 3-hop `PROFILE` demo (batched and scalar) exercises the span
//! tree: one root span, one `hop{i}` child per hop with frontier sizes,
//! and nonzero bytes-scanned attribution; the worst profiles land in the
//! slow-query log exported through `slow_query_*` metrics.

use bg3_core::prelude::*;
use bg3_core::{AdmissionConfig, AdmissionController, OpClass};
use bg3_obs::span::{CostLedger, CostSnapshot, QueryProfile, SlowQueryLog, VirtualClock};
use bg3_obs::{names, MetricRegistry};
use bg3_query::{Executor, ExecutorConfig};
use bg3_storage::SimClock;
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const POPULATION: u64 = 4_096;
const PRELOAD_EDGES: usize = 24_000;
/// Virtual-time pacing advanced between operations, on top of the store's
/// modelled storage latency.
const OP_PACING_NS: u64 = 100_000;

/// One conservation row: a ledger dimension against its registry mirror.
#[derive(Debug, Clone, Serialize)]
pub struct DimCheck {
    /// Dimension name (the ledger field).
    pub dim: String,
    /// Sum of the dimension over every request ledger in the phase.
    pub ledger_sum: u64,
    /// The mirrored registry counter's (or histogram sum's) phase delta.
    pub registry_delta: u64,
    /// `ledger_sum == registry_delta`.
    pub conserved: bool,
}

/// One (mix × executor mode) measurement phase.
#[derive(Debug, Clone, Serialize)]
pub struct MixPhase {
    /// Table-1 mix name.
    pub mix: String,
    /// Executor mode (`batched` / `scalar`).
    pub mode: String,
    /// Operations attempted (reads + writes, shed included).
    pub ops: usize,
    /// Profiled traversals executed.
    pub reads: usize,
    /// Ledger-wrapped edge writes executed.
    pub writes: usize,
    /// Operations shed by admission control (no engine work, no charges).
    pub shed: usize,
    /// Per-dimension sum over every request ledger in the phase.
    pub ledger_total: CostSnapshot,
    /// The conservation rows.
    pub checks: Vec<DimCheck>,
    /// All rows conserved.
    pub conserved: bool,
}

/// Summary of one slow-query-log entry (the full profiles are large).
#[derive(Debug, Clone, Serialize)]
pub struct SlowEntry {
    /// The query text.
    pub query: String,
    /// Modelled cost the log ranked by (ns).
    pub modelled_cost_ns: u64,
    /// Adjacency bytes the query scanned.
    pub bytes_scanned: u64,
    /// Spans in the profile (root + hops).
    pub spans: usize,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Every (mix × mode) phase with its conservation rows.
    pub phases: Vec<MixPhase>,
    /// 3-hop PROFILE span tree, batched executor.
    pub demo_batched: QueryProfile,
    /// 3-hop PROFILE span tree, scalar executor.
    pub demo_scalar: QueryProfile,
    /// Slow-query log capacity used.
    pub slow_log_capacity: usize,
    /// The K worst profiles kept, costliest first.
    pub slow_log: Vec<SlowEntry>,
    /// Every phase conserved (the experiment also asserts this).
    pub conserved: bool,
    /// Registry snapshot of the engine after all phases.
    pub metrics: MetricsSnapshot,
}

/// Durable BG3 engine over the latency-modelled (cloud) store, with an
/// aggressive group commit so the write fraction flushes WAL inside the
/// ledger-wrapped ops — both give the nanosecond wait dimensions real
/// nonzero values to conserve. The checkpoint after preload seals base
/// pages so the CSR pack path engages.
fn build_bg3() -> Bg3Db {
    let mut config = Bg3Config::default().with_group_commit_pages(2);
    config.store = StoreConfig::default();
    config.forest = config.forest.clone().with_split_out_threshold(64);
    Bg3Db::open(config)
}

/// Default budgets except each class's burst sits *below* one expected op
/// cost: every admitted op carries a token deficit, so its queue wait is
/// structurally nonzero and the admit-wait conservation row has teeth.
/// Deadlines are widened so the deficit queues instead of shedding.
fn admission_config() -> AdmissionConfig {
    let mut config = AdmissionConfig::default();
    config.traversal.burst = config.traversal.expected_cost / 2;
    config.traversal.deadline_nanos = 50_000_000;
    config.write.burst = config.write.expected_cost / 2;
    config.write.deadline_nanos = 50_000_000;
    config
}

fn preload_store(store: &dyn GraphStore) {
    let zipf = Zipf::new(POPULATION, 1.0);
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..PRELOAD_EDGES {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        store
            .insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
            .unwrap();
    }
}

fn exec_config(registry: &MetricRegistry, clock: &SimClock, log: &SlowQueryLog) -> ExecutorConfig {
    let c = clock.clone();
    ExecutorConfig {
        default_fanout: 32,
        max_traversers: 1_000_000,
        ..ExecutorConfig::default()
    }
    .with_metrics(registry.clone())
    .with_clock(VirtualClock::new(move || c.now().0))
    .with_slow_log(log.clone())
}

/// One Table-1 mix: its hop sampler plus the write fraction (percent).
struct Mix {
    name: &'static str,
    write_pct: u32,
    hops: fn(&mut StdRng) -> usize,
}

const MIXES: [Mix; 2] = [
    Mix {
        name: "Douyin Follow",
        write_pct: 10,
        hops: |_| 1,
    },
    Mix {
        name: "Douyin Recommendation",
        write_pct: 5,
        hops: |rng| match rng.gen_range(0..10) {
            0..=6 => 1,
            7..=8 => 2,
            _ => 3,
        },
    },
];

/// Histogram *sum* under `name`, 0 when absent — the mirror for the
/// ledger's nanosecond dimensions.
fn hist_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name).map(|h| h.sum_nanos).unwrap_or(0)
}

/// Builds the conservation rows for one phase and asserts every one.
fn conservation_checks(
    mix: &str,
    mode: &str,
    ledger: &CostSnapshot,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Vec<DimCheck> {
    let counter = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let hist = |name: &str| hist_sum(after, name) - hist_sum(before, name);
    let rows = [
        (
            "bytes_scanned",
            ledger.bytes_scanned,
            counter(names::QUERY_SCAN_BYTES_TOTAL),
        ),
        (
            "csr_segments",
            ledger.csr_segments,
            counter(names::QUERY_CSR_SEGMENTS_SCANNED_TOTAL),
        ),
        (
            "cache_hits",
            ledger.cache_hits,
            counter(names::CACHE_HITS_TOTAL),
        ),
        (
            "cache_misses",
            ledger.cache_misses,
            counter(names::CACHE_MISSES_TOTAL),
        ),
        (
            "storage_reads",
            ledger.storage_reads,
            counter(names::STORAGE_RANDOM_READS_TOTAL),
        ),
        (
            "storage_read_bytes",
            ledger.storage_read_bytes,
            counter(names::STORAGE_BYTES_READ_TOTAL),
        ),
        (
            "read_wait_nanos",
            ledger.read_wait_nanos,
            hist(names::STORAGE_READ_LATENCY_NS),
        ),
        (
            "wal_wait_nanos",
            ledger.wal_wait_nanos,
            hist(names::WAL_FLUSH_LATENCY_NS),
        ),
        (
            "admit_wait_nanos",
            ledger.admit_wait_nanos,
            hist(names::ADMIT_QUEUE_WAIT_LATENCY_NS),
        ),
        (
            "hops_truncated",
            ledger.hops_truncated,
            counter(names::QUERY_HOP_TRUNCATIONS_TOTAL),
        ),
    ];
    rows.iter()
        .map(|&(dim, ledger_sum, registry_delta)| {
            assert_eq!(
                ledger_sum, registry_delta,
                "attribution leak in {mix}/{mode}: Σ per-query ledgers != \
                 global registry delta for {dim}"
            );
            DimCheck {
                dim: dim.to_string(),
                ledger_sum,
                registry_delta,
                conserved: ledger_sum == registry_delta,
            }
        })
        .collect()
}

/// Runs the full experiment: `queries` operations per (mix × mode) phase,
/// a slow-query log of capacity `slow_log_k`.
pub fn run(queries: usize, slow_log_k: usize) -> ProfileReport {
    let db = build_bg3();
    preload_store(&db);
    db.checkpoint().unwrap();
    let registry = db.store().stats().registry().clone();
    let clock = db.store().clock().clone();
    let slow_log = SlowQueryLog::with_registry(slow_log_k.max(1), &registry);
    let admit_config = admission_config();
    let admission = AdmissionController::new(clock.clone(), admit_config, &registry);
    let traversal_cost = admit_config.traversal.expected_cost;
    let write_cost = admit_config.write.expected_cost;

    let batched = Executor::new(exec_config(&registry, &clock, &slow_log));
    let scalar = Executor::new(exec_config(&registry, &clock, &slow_log).scalar());

    let mut phases = Vec::new();
    for mix in &MIXES {
        for (mode, exec) in [("batched", &batched), ("scalar", &scalar)] {
            let zipf = Zipf::new(POPULATION, 1.0);
            let mut rng = StdRng::seed_from_u64(7);
            let before = registry.snapshot();
            let mut ledger_total = CostSnapshot::default();
            let (mut reads, mut writes, mut shed) = (0usize, 0usize, 0usize);
            for _ in 0..queries {
                clock.advance_nanos(OP_PACING_NS);
                if rng.gen_range(0..100u32) < mix.write_pct {
                    // Write op: admission + the edge insert (and any WAL
                    // group commit it triggers) under one request ledger.
                    let ledger = CostLedger::new();
                    {
                        let _guard = ledger.install();
                        if admission.admit(OpClass::Write, write_cost).is_ok() {
                            let src = VertexId(zipf.sample(&mut rng));
                            let dst = VertexId(zipf.sample(&mut rng));
                            db.insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
                                .unwrap();
                            writes += 1;
                        } else {
                            shed += 1;
                        }
                    }
                    ledger_total.add(&ledger.snapshot());
                } else {
                    // Read op: admission wait charged to an outer ledger,
                    // the traversal itself profiled (its own ledger).
                    let admit_ledger = CostLedger::new();
                    let admitted = {
                        let _guard = admit_ledger.install();
                        admission.admit(OpClass::Traversal, traversal_cost).is_ok()
                    };
                    ledger_total.add(&admit_ledger.snapshot());
                    if !admitted {
                        shed += 1;
                        continue;
                    }
                    let src = zipf.sample(&mut rng);
                    let k = (mix.hops)(&mut rng);
                    let text = format!("g.V({src}).repeat(out(follow), {k}).dedup().count()");
                    let (_, prof) = exec.run_profiled_text(&db, &text).unwrap();
                    ledger_total.add(&prof.cost);
                    reads += 1;
                }
            }
            let after = registry.snapshot();
            let checks = conservation_checks(mix.name, mode, &ledger_total, &before, &after);
            assert!(
                ledger_total.bytes_scanned > 0 && ledger_total.csr_segments > 0,
                "{}/{mode}: attribution must have nonzero scan teeth",
                mix.name
            );
            let conserved = checks.iter().all(|c| c.conserved);
            phases.push(MixPhase {
                mix: mix.name.to_string(),
                mode: mode.to_string(),
                ops: queries,
                reads,
                writes,
                shed,
                ledger_total,
                checks,
                conserved,
            });
        }
    }

    // 3-hop PROFILE demo under both modes: one serializable span tree with
    // one span per hop.
    let demo = "g.V(1).repeat(out(follow), 3).dedup().count()";
    let (_, demo_batched) = batched.run_profiled_text(&db, demo).unwrap();
    let (_, demo_scalar) = scalar.run_profiled_text(&db, demo).unwrap();
    for (mode, prof) in [("batched", &demo_batched), ("scalar", &demo_scalar)] {
        assert_eq!(prof.hop_spans().len(), 3, "{mode}: one span per hop");
        assert!(
            prof.root().is_some() && prof.cost.bytes_scanned > 0,
            "{mode}: 3-hop profile must attribute nonzero bytes scanned"
        );
        for hop in prof.hop_spans() {
            assert!(
                hop.attrs.iter().any(|a| a.key == "frontier"),
                "{mode}: hop spans carry frontier sizes"
            );
        }
    }

    let slow_entries: Vec<SlowEntry> = slow_log
        .entries()
        .into_iter()
        .map(|p| SlowEntry {
            query: p.query.clone(),
            modelled_cost_ns: p.modelled_cost_ns,
            bytes_scanned: p.cost.bytes_scanned,
            spans: p.spans.len(),
        })
        .collect();
    let conserved = phases.iter().all(|p| p.conserved);

    ProfileReport {
        phases,
        demo_batched,
        demo_scalar,
        slow_log_capacity: slow_log.capacity(),
        slow_log: slow_entries,
        conserved,
        metrics: db.metrics_snapshot(),
    }
}

/// Renders the conservation table and the slow-query log.
pub fn render(report: &ProfileReport) -> String {
    let mut out = String::from(
        "profile: per-query cost attribution, Σ request ledgers vs global registry deltas\n",
    );
    for phase in &report.phases {
        out.push_str(&format!(
            "{:<22} {:<8} reads {:>4}  writes {:>3}  shed {:>3}  scanned {}  {}\n",
            phase.mix,
            phase.mode,
            phase.reads,
            phase.writes,
            phase.shed,
            super::mib(phase.ledger_total.bytes_scanned),
            if phase.conserved {
                "conserved"
            } else {
                "LEAKED"
            },
        ));
    }
    let demo = &report.demo_batched;
    out.push_str(&format!(
        "3-hop profile (batched): {} spans, {} scanned, modelled cost {}ns\n",
        demo.spans.len(),
        super::mib(demo.cost.bytes_scanned),
        demo.modelled_cost_ns,
    ));
    out.push_str(&format!(
        "slow-query log (worst {} of capacity {}):\n",
        report.slow_log.len(),
        report.slow_log_capacity
    ));
    for entry in &report.slow_log {
        out.push_str(&format!(
            "  {:>12}ns  {} scanned  {} spans  {}\n",
            entry.modelled_cost_ns,
            super::mib(entry.bytes_scanned),
            entry.spans,
            entry.query
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_conserves_and_demo_trees_are_complete() {
        let report = run(80, 4);
        assert!(report.conserved, "run() asserts per-row; belt and braces");
        assert_eq!(report.phases.len(), 4, "two mixes x two modes");
        for phase in &report.phases {
            assert!(phase.reads > 0);
            assert!(phase.writes > 0, "{}: write fraction engaged", phase.mix);
            assert_eq!(phase.checks.len(), 10);
        }
        // The admission bucket must actually have queued somewhere, or the
        // admit-wait conservation row was trivially 0 == 0 everywhere.
        let admit_waits: u64 = report
            .phases
            .iter()
            .map(|p| p.ledger_total.admit_wait_nanos)
            .sum();
        assert!(admit_waits > 0, "admission queue waits attributed");
        // WAL flushes happened inside ledger-wrapped writes.
        let wal: u64 = report
            .phases
            .iter()
            .map(|p| p.ledger_total.wal_wait_nanos)
            .sum();
        assert!(wal > 0, "WAL waits attributed to writes");
        assert_eq!(report.demo_batched.hop_spans().len(), 3);
        assert_eq!(report.demo_scalar.hop_spans().len(), 3);
        assert!(!report.slow_log.is_empty());
        assert!(
            report
                .slow_log
                .windows(2)
                .all(|w| w[0].modelled_cost_ns >= w[1].modelled_cost_ns),
            "slow log is costliest-first"
        );
        // The profiler's own metrics flowed into the engine registry.
        let profiles = report.metrics.counter(names::QUERY_PROFILES_TOTAL).unwrap();
        assert!(profiles as usize >= report.phases.iter().map(|p| p.reads).sum::<usize>());
    }
}
