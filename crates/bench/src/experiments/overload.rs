//! Overload experiment — admission control under 0.5×–2× saturation.
//!
//! Not a figure from the paper: this validates the robustness layer the
//! production deployment implies (§5's latency SLOs under Douyin-scale
//! load). A [`GovernedEngine`] is driven open-loop on the virtual clock:
//! op `i` *arrives* at `i / rate` regardless of how the engine is doing —
//! the defining property of an overload test (closed-loop drivers
//! self-throttle and can never oversaturate).
//!
//! For each workload (the Table-1 Douyin Follow mix plus the two skewed
//! generators: celebrity super-nodes and TTL churn) the harness first
//! *calibrates* — replays the exact op sequence against the admission cost
//! model to find the offered cost rate per class — then sets each class's
//! token refill rate to `offered / multiplier`, so `multiplier = 2.0`
//! means the engine has half the capacity the workload demands. Sweeping
//! 0.5×–2× shows the three regimes: headroom (no shedding), saturation
//! (queueing), and overload (bounded queues + typed sheds).
//!
//! Reported per row: p50/p99 latency of *admitted* ops (queue wait +
//! modelled service), goodput, shed rate, stale-read and degraded-op
//! counts, and — the acceptance headline — `lost_acked_writes`, which
//! replays every acknowledged write against the replicas after the storm
//! and must be zero: shedding may refuse work, it must never lose work it
//! accepted. The 2× Douyin run is executed twice to prove the whole sweep
//! is deterministic under the fixed seed.

use bg3_core::prelude::*;
use bg3_core::{AdmissionConfig, GovernedConfig, GovernedEngine, OpClass, ReplicatedConfig};
use bg3_obs::LatencyHistogram;
use bg3_storage::SimInstant;
use bg3_workloads::{
    DouyinFollow, Op, SuperNodeSkew, SuperNodeSpec, TtlChurn, TtlChurnSpec, WorkloadGen,
};
use serde::Serialize;
use std::collections::HashMap;

/// Open-loop arrival rate (ops per virtual second).
const ARRIVAL_RATE: f64 = 20_000.0;
/// Saturation multipliers swept per workload.
const MULTIPLIERS: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];
const SEED: u64 = 0x0BAD_10AD;

/// One (workload, saturation) cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverloadRow {
    /// Workload name.
    pub workload: String,
    /// Offered load as a multiple of provisioned capacity.
    pub multiplier: f64,
    /// Ops offered by the open-loop driver.
    pub offered: u64,
    /// Ops admitted and executed.
    pub admitted: u64,
    /// Ops shed with `Overloaded` (bounded queue full).
    pub shed_overloaded: u64,
    /// Ops shed with `DeadlineExceeded` (queue wait beyond the class SLO).
    pub shed_deadline: u64,
    /// Shed fraction of offered ops.
    pub shed_rate: f64,
    /// Admitted ops per virtual second.
    pub goodput_per_sec: f64,
    /// Median latency of admitted ops (queue wait + modelled service), ns.
    pub p50_latency_nanos: u64,
    /// Tail latency of admitted ops, ns.
    pub p99_latency_nanos: u64,
    /// Reads served stale off the RO replicas (degradation ladder).
    pub stale_reads: u64,
    /// Admitted ops that rode a degraded rung.
    pub degraded_ops: u64,
    /// Acked writes whose effect was missing on the replicas after the
    /// run — must be zero at every multiplier.
    pub lost_acked_writes: u64,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadReport {
    /// One row per (workload, multiplier).
    pub rows: Vec<OverloadRow>,
    /// Whether the repeated 2× Douyin run reproduced its row exactly.
    pub deterministic: bool,
    /// Merged registry snapshot across every run.
    pub metrics: MetricsSnapshot,
}

enum Kind {
    Douyin,
    SuperNode,
    TtlChurn,
}

impl Kind {
    fn name(&self) -> &'static str {
        match self {
            Kind::Douyin => "DouyinFollow",
            Kind::SuperNode => "SuperNodeSkew",
            Kind::TtlChurn => "TtlChurn",
        }
    }

    fn gen(&self, seed: u64) -> Box<dyn WorkloadGen> {
        match self {
            Kind::Douyin => Box::new(DouyinFollow::new(50_000, 1.0, seed)),
            Kind::SuperNode => Box::new(SuperNodeSkew::new(SuperNodeSpec::default(), seed)),
            Kind::TtlChurn => Box::new(TtlChurn::new(TtlChurnSpec::default(), seed)),
        }
    }
}

fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::PointRead => 0,
        OpClass::Traversal => 1,
        OpClass::Write => 2,
    }
}

/// The admission cost model, mirrored for calibration (no throttle: the
/// calibrator measures offered load, not engine state).
fn base_cost(op: &Op, config: &AdmissionConfig) -> u64 {
    let base = config.budget(OpClass::of(op)).expected_cost;
    match op {
        Op::KHop { hops, .. } => base.saturating_mul((*hops).max(1) as u64),
        Op::PatternCycle { length, .. } => base.saturating_mul((*length).max(1) as u64),
        _ => base,
    }
}

/// Sizes each class's refill rate so offered load = `multiplier` ×
/// capacity for this exact op sequence.
fn calibrate(ops: &[Op], multiplier: f64) -> AdmissionConfig {
    let mut config = AdmissionConfig::default();
    let mut offered_units = [0u64; 3];
    for op in ops {
        offered_units[class_index(OpClass::of(op))] += base_cost(op, &config);
    }
    for class in OpClass::ALL {
        let offered_per_sec =
            offered_units[class_index(class)] as f64 / ops.len() as f64 * ARRIVAL_RATE;
        let budget = config.budget_mut(class);
        budget.cost_per_sec = (offered_per_sec / multiplier).max(1.0) as u64;
        // A modest burst: ~20 expected ops of headroom before queueing.
        budget.burst = budget.expected_cost * 20;
    }
    config
}

type EdgeKey = (u64, u16, u64);

fn acked_write(shadow: &mut HashMap<EdgeKey, bool>, op: &Op) {
    match op {
        Op::InsertEdge {
            src, etype, dst, ..
        } => {
            shadow.insert((src.0, etype.0, dst.0), true);
        }
        Op::DeleteEdge { src, etype, dst } => {
            shadow.insert((src.0, etype.0, dst.0), false);
        }
        _ => {}
    }
}

fn run_cell(kind: &Kind, multiplier: f64, ops: usize) -> (OverloadRow, MetricsSnapshot) {
    let mut gen = kind.gen(SEED);
    let sequence: Vec<Op> = (0..ops).map(|_| gen.next_op()).collect();
    let admission = calibrate(&sequence, multiplier);
    let engine = GovernedEngine::new(
        ReplicatedConfig {
            ro_nodes: 2,
            ..ReplicatedConfig::default()
        },
        GovernedConfig {
            admission,
            ..GovernedConfig::default()
        },
    );

    let clock = engine.rep().store().clock().clone();
    let latency = LatencyHistogram::new();
    let dt = 1e9 / ARRIVAL_RATE;
    let mut shadow: HashMap<EdgeKey, bool> = HashMap::new();
    let mut degraded_ops = 0u64;
    for (i, op) in sequence.iter().enumerate() {
        // Open-loop: the arrival schedule does not care about queue state.
        clock.advance_to(SimInstant((i as f64 * dt) as u64));
        match engine.submit(op) {
            Ok(outcome) => {
                let budget = engine.admission().config().budget(OpClass::of(op));
                let service =
                    engine.op_cost(op) as u128 * 1_000_000_000 / budget.cost_per_sec.max(1) as u128;
                latency.record(outcome.queue_wait_nanos + service as u64);
                if outcome.degraded {
                    degraded_ops += 1;
                }
                acked_write(&mut shadow, op);
            }
            Err(err) => assert!(
                err.is_overloaded(),
                "only typed sheds may refuse ops: {err}"
            ),
        }
    }

    // The acceptance invariant: every acked write is visible (and every
    // acked delete absent) on the replicas once they catch up.
    engine.rep().checkpoint().expect("checkpoint");
    engine.rep().poll_all().expect("poll");
    for idx in 0..engine.rep().ro_count() {
        engine.rep().ro(idx).set_serving_stale(false);
    }
    let mut lost = 0u64;
    for (&(src, etype, dst), &present) in &shadow {
        let found = engine
            .rep()
            .ro_check_edge(0, VertexId(src), EdgeType(etype), VertexId(dst))
            .expect("replica read");
        if found != present {
            lost += 1;
        }
    }

    let snap = engine.admission().snapshot();
    let hist = latency.snapshot();
    let duration_secs = ops as f64 / ARRIVAL_RATE;
    let row = OverloadRow {
        workload: kind.name().to_string(),
        multiplier,
        offered: snap.submitted,
        admitted: snap.admitted,
        shed_overloaded: snap.shed_overloaded,
        shed_deadline: snap.shed_deadline,
        shed_rate: snap.shed() as f64 / snap.submitted.max(1) as f64,
        goodput_per_sec: snap.admitted as f64 / duration_secs,
        p50_latency_nanos: hist.value_at_quantile(0.50),
        p99_latency_nanos: hist.value_at_quantile(0.99),
        stale_reads: snap.stale_reads,
        degraded_ops,
        lost_acked_writes: lost,
    };
    (row, engine.rep().store().metrics_snapshot())
}

/// Runs the sweep: every workload × every multiplier, plus the repeated
/// 2× determinism run.
pub fn run(ops: usize) -> OverloadReport {
    let mut rows = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for kind in [Kind::Douyin, Kind::SuperNode, Kind::TtlChurn] {
        for multiplier in MULTIPLIERS {
            let (row, snap) = run_cell(&kind, multiplier, ops);
            metrics.merge(&snap);
            rows.push(row);
        }
    }
    let (repeat, snap) = run_cell(&Kind::Douyin, 2.0, ops);
    metrics.merge(&snap);
    let reference = rows
        .iter()
        .find(|r| r.workload == "DouyinFollow" && r.multiplier == 2.0)
        .expect("2x Douyin row");
    let deterministic = *reference == repeat;
    OverloadReport {
        rows,
        deterministic,
        metrics,
    }
}

/// Formats the report in the artifact's table shape.
pub fn render(report: &OverloadReport) -> String {
    let mut out = String::new();
    out.push_str("Overload: admission control under 0.5x-2x saturation\n");
    out.push_str(
        "workload        x     admitted  shed%   goodput     p50       p99       stale  lost\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{:<15} {:<5} {:<9} {:<7.1} {:<11} {:<9} {:<9} {:<6} {}\n",
            row.workload,
            row.multiplier,
            row.admitted,
            row.shed_rate * 100.0,
            super::kqps(row.goodput_per_sec),
            format!("{:.2}ms", row.p50_latency_nanos as f64 / 1e6),
            format!("{:.2}ms", row.p99_latency_nanos as f64 / 1e6),
            row.stale_reads,
            row.lost_acked_writes,
        ));
    }
    let worst_p99 = report
        .rows
        .iter()
        .map(|r| r.p99_latency_nanos)
        .max()
        .unwrap_or(0);
    let lost: u64 = report.rows.iter().map(|r| r.lost_acked_writes).sum();
    let overloaded_shed = report
        .rows
        .iter()
        .filter(|r| r.multiplier >= 2.0)
        .all(|r| r.shed_overloaded + r.shed_deadline > 0);
    out.push_str(&format!(
        "worst p99 {:.2}ms | lost acked writes {} | sheds at 2x on every workload: {} | deterministic: {}\n",
        worst_p99 as f64 / 1e6,
        lost,
        overloaded_shed,
        report.deterministic,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_smoke_bounded_tail_and_no_lost_writes() {
        let report = run(400);
        assert_eq!(report.rows.len(), 15);
        assert!(report.deterministic, "fixed seed must reproduce exactly");
        for row in &report.rows {
            assert_eq!(
                row.offered,
                row.admitted + row.shed_overloaded + row.shed_deadline,
                "conservation on {} x{}",
                row.workload,
                row.multiplier
            );
            assert_eq!(
                row.lost_acked_writes, 0,
                "acked writes must survive on {} x{}",
                row.workload, row.multiplier
            );
        }
        // At 2x saturation every workload sheds, and the tail stays
        // bounded by the class deadlines rather than growing with the
        // backlog.
        let default = AdmissionConfig::default();
        let deadline_bound = OpClass::ALL
            .iter()
            .map(|&c| default.budget(c).deadline_nanos)
            .max()
            .unwrap();
        for row in report.rows.iter().filter(|r| r.multiplier >= 2.0) {
            assert!(
                row.shed_overloaded + row.shed_deadline > 0,
                "{} must shed at 2x",
                row.workload
            );
            assert!(
                row.p99_latency_nanos < 4 * deadline_bound,
                "{} p99 {}ns unbounded",
                row.workload,
                row.p99_latency_nanos
            );
        }
        // Headroom runs barely shed.
        for row in report.rows.iter().filter(|r| r.multiplier <= 0.5) {
            assert!(
                row.shed_rate < 0.05,
                "{} sheds {:.1}% at 0.5x",
                row.workload,
                row.shed_rate * 100.0
            );
        }
    }
}
