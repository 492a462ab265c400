//! Chaos experiment — fault injection + crash/recovery validation.
//!
//! Not a figure from the paper: this exercises the durability claims behind
//! §3.4 (WAL-before-ack, group commit, recovery from shared storage). For
//! each named crash point the harness runs a durable [`Bg3Db`] under a 4%
//! append-failure rate, kills the engine at the crash point mid-workload,
//! restarts it with [`Bg3Db::recover`], and audits the recovered graph
//! against the graph [`Oracle`]. It also proves the zero-cost-when-off
//! contract: a plan whose rules never fire installs the fault layer on
//! every op class and still leaves every registry counter identical to a
//! plan-free store. [`run`] asserts all three and panics on a violation.

use bg3_core::prelude::*;
use bg3_graph::{Mutation, Oracle, Reads};
use bg3_storage::splitmix64 as mix;
use serde::Serialize;

/// One crash-point scenario's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Which crash point was armed.
    pub crash_point: String,
    /// Operations applied before the engine died.
    pub ops_before_crash: u64,
    /// Injected faults absorbed by retries along the way.
    pub faults_fired: u64,
    /// WAL LSN at recovery (records replayed).
    pub recovered_lsn: u64,
    /// Whether the recovered graph passed the oracle's audit.
    pub recovered_match: bool,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// One row per crash point.
    pub rows: Vec<ChaosRow>,
    /// Zero-cost contract: every store counter with an empty fault plan
    /// equals its value with none.
    pub faultless_iostats_identical: bool,
    /// Merged registry snapshot across every crash-point scenario
    /// (pre-crash and post-recovery activity share one store).
    pub metrics: MetricsSnapshot,
}

const USERS: u64 = 48;
const HOT_USERS: u64 = 5;

/// Mixed Follow workload op `i`: follow, unfollow, or profile upsert.
/// Returns `None` for read ticks.
fn op_at(i: u64) -> Option<Edge> {
    let r = mix(i);
    let src = if r.is_multiple_of(3) {
        VertexId(mix(r) % USERS)
    } else {
        VertexId(mix(r) % HOT_USERS)
    };
    let dst = VertexId(1_000 + mix(r ^ 0xABCD) % 200);
    (r % 10 <= 6).then(|| Edge {
        src,
        etype: EdgeType::FOLLOW,
        dst,
        props: i.to_le_bytes().to_vec(),
    })
}

/// The durable engine this experiment and `tests/chaos_recovery.rs` run:
/// small pages and a low split-out threshold keep every crash point's code
/// path hot, and a 4% append-failure rate exercises the retry policy
/// throughout.
pub fn chaos_config() -> Bg3Config {
    let mut config = Bg3Config::default();
    config.store = StoreConfig::counting()
        .with_extent_capacity(4096)
        .with_faults(FaultPlan::seeded(0xC4A0_5EED).with_rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::AppendFail,
            0.04,
        )));
    config.forest = config.forest.clone().with_split_out_threshold(12);
    config.forest.tree_config = config
        .forest
        .tree_config
        .clone()
        .with_max_page_entries(8)
        .with_consolidate_threshold(4);
    config.gc_policy = GcPolicyKind::Fifo;
    config.durability = Some(DurabilityConfig {
        group_commit_pages: 6,
    });
    config
}

/// Runs one crash-point scenario; see the module docs.
fn scenario(point: CrashPoint, ops: u64) -> (ChaosRow, MetricsSnapshot) {
    let config = chaos_config();
    let db = Bg3Db::new(config.clone());
    let mut oracle = Oracle::new();
    let warm_up = ops / 8;

    let mut ops_before_crash = 0;
    for i in 0..ops {
        if i == warm_up {
            db.crash_switch().arm(point);
        }
        if let Some(edge) = op_at(i) {
            let write = Mutation::InsertEdge(edge);
            match write.apply(&db) {
                Ok(()) => oracle.ack(write),
                Err(_) => {
                    oracle.in_flight(write);
                    break;
                }
            }
        }
        ops_before_crash = i + 1;
        if point == CrashPoint::MidGcCycle && i % 64 == 63 && db.run_gc_cycle(2).is_err() {
            break;
        }
    }
    let faults_fired = db.store().fault_injector().total_fired();

    let store = db.store().clone();
    let mapping = db.mapping().expect("durable engine").clone();
    drop(db);
    let recovered = Bg3Db::recover(store, mapping, config).expect("recovery succeeds");
    oracle.settle(&recovered).unwrap();
    let users: Vec<VertexId> = (0..USERS).map(VertexId).collect();
    let audit = oracle.audit(Reads::Scan {
        store: &recovered,
        etype: EdgeType::FOLLOW,
        sources: &users,
    });
    let row = ChaosRow {
        crash_point: format!("{point:?}"),
        ops_before_crash,
        faults_fired,
        recovered_lsn: recovered.last_lsn().0,
        recovered_match: audit.is_clean(),
    };
    (row, recovered.metrics_snapshot())
}

/// Identical workload on two non-durable engines: one with no fault plan,
/// one whose plan has a never-firing rule (p = 0) on each op class, so the
/// store installs its `FaultBackend` and every draw site draws. Every
/// counter in their stores' registries must be identical — fault injection
/// is free when no rule fires.
fn faultless_identical(ops: u64) -> bool {
    let run = |faults: FaultPlan| {
        let config = Bg3Config {
            store: StoreConfig::counting().with_faults(faults),
            ..Bg3Config::default()
        };
        let db = Bg3Db::new(config);
        for i in 0..ops {
            if let Some(edge) = op_at(i) {
                db.insert_edge(&edge).unwrap();
            }
        }
        db.store().metrics_snapshot().counters
    };
    let never = |op| FaultRule::new(op, FaultKind::AppendFail, 0.0);
    let drawing = FaultPlan::seeded(7)
        .with_rule(never(FaultOp::Write))
        .with_rule(never(FaultOp::Read))
        .with_rule(never(FaultOp::Sync))
        .with_rule(never(FaultOp::MappingPublish));
    run(FaultPlan::none()) == run(drawing)
}

/// Runs every crash-point scenario plus the zero-cost check, and asserts
/// that each scenario replayed WAL and passed the oracle's audit, and
/// that the faultless counters are identical.
pub fn run(ops: u64) -> ChaosReport {
    let mut rows = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for point in [
        CrashPoint::MidFlush,
        CrashPoint::MidSplit,
        CrashPoint::MidGcCycle,
        CrashPoint::MidGroupCommit,
    ] {
        let (row, snap) = scenario(point, ops);
        assert!(row.recovered_match, "{} diverged", row.crash_point);
        assert!(row.recovered_lsn > 0, "{} replayed no WAL", row.crash_point);
        rows.push(row);
        metrics.merge(&snap);
    }
    let faultless_iostats_identical = faultless_identical(ops.min(2_000));
    assert!(
        faultless_iostats_identical,
        "a never-firing fault plan moved a registry counter"
    );
    ChaosReport {
        rows,
        faultless_iostats_identical,
        metrics,
    }
}

/// Renders the scenario table.
pub fn render(report: &ChaosReport) -> String {
    let mut out = String::from("Chaos: crash/recovery under injected append faults\n");
    out.push_str("crash point      ops-before-crash  faults  recovered-lsn   audit-clean\n");
    for row in &report.rows {
        out.push_str(&format!(
            "{:<16} {:>16} {:>7} {:>14} {:>13}\n",
            row.crash_point,
            row.ops_before_crash,
            row.faults_fired,
            row.recovered_lsn,
            row.recovered_match
        ));
    }
    out.push_str(&format!(
        "faultless I/O counters identical: {}\n",
        report.faultless_iostats_identical
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_crash_point_recovers_to_the_oracle() {
        // `run` asserts recovery, WAL replay and the faultless check.
        assert_eq!(run(1_500).rows.len(), 4);
    }
}
