//! Scrub experiment — end-to-end integrity under silent corruption.
//!
//! Not a figure from the paper: this exercises the integrity machinery the
//! shared-storage design depends on (checksummed record frames, the
//! background scrubber, quarantine-and-repair). A durable [`Bg3Db`] runs a
//! seeded chaos schedule mixing [`FaultKind::ReadBitFlip`] (persistent rot
//! on BASE/DELTA backend reads, scrubber verify reads included),
//! [`FaultKind::AppendTorn`] (torn tail writes), and crash/failover
//! cycles. Both kinds are drawn by the store's `FaultBackend`. Every acked
//! write is recorded in the graph [`Oracle`]; after each failover and at the
//! end the engine is audited against it.
//!
//! [`run`] asserts the three integrity claims end to end and panics on a
//! violation:
//!
//! 1. **Zero acked writes lost** — every edge whose insert returned `Ok`
//!    is served back with the exact acked bytes after rot, repair, crash,
//!    and recovery.
//! 2. **Zero garbage bytes served** — corruption only ever surfaces as a
//!    structured checksum error (counted, absorbed, repaired), never as
//!    wrong payload bytes.
//! 3. **Quarantine → repair → reclaim ordering** — the trace shows every
//!    quarantined extent repaired before its space is reclaimed; GC never
//!    drops an extent with unrepaired damage.

use bg3_core::prelude::*;
use bg3_gc::ScrubReport as GcScrubReport;
use bg3_graph::{Mutation, Oracle, Reads};
use bg3_storage::{splitmix64 as mix, FaultKind, StreamId};
use serde::Serialize;

/// One crash/failover round's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubRow {
    /// Round index (one crash + recovery per round).
    pub round: usize,
    /// Writes acked (and recorded in the oracle) this round.
    pub ops_acked: u64,
    /// Cumulative injected faults fired so far (bit flips + torn appends).
    pub faults_fired: u64,
    /// Corrupt frames the scrubber found this round.
    pub corrupt_found: u64,
    /// Extents quarantined this round.
    pub quarantined: u64,
    /// Quarantined extents repaired and reclaimed this round.
    pub repaired: u64,
    /// Corrupt records re-materialized from the trees' in-memory images.
    pub resupplied: u64,
    /// Corrupt records nothing referenced (orphans of crash windows),
    /// dropped by repair; recovery covers them from WAL history.
    pub dropped: u64,
    /// Recovery attempts this round (a retry means replay itself tripped
    /// over fresh rot and the outgoing leader's scrubber repaired it).
    pub recover_attempts: u64,
    /// Acked edges missing or wrong after this round's failover (must be 0).
    pub acked_lost: u64,
    /// Reads served with bytes nobody acked (must be 0).
    pub garbage_served: u64,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubChaosReport {
    /// One row per crash/failover round.
    pub rows: Vec<ScrubRow>,
    /// Acked edges missing/wrong at the final audit (must be 0).
    pub final_acked_lost: u64,
    /// Bytes nobody acked served at the final audit (must be 0).
    pub final_garbage_served: u64,
    /// Checksum mismatches detected across the run (structured errors --
    /// proof the rot was seen and fenced, not served).
    pub checksum_mismatches_detected: u64,
    /// Every quarantine was followed by a repair, and every repair preceded
    /// its extent's reclaim, in trace order.
    pub quarantine_repair_reclaim_ordered: bool,
    /// Extents quarantined / repaired across the whole run.
    pub total_quarantined: u64,
    /// See [`Self::total_quarantined`].
    pub total_repaired: u64,
    /// Merged registry snapshot (one shared store across all rounds).
    pub metrics: MetricsSnapshot,
}

const USERS: u64 = 40;
const OPS_PER_ROUND: u64 = 1_100;

/// Workload op `i`: a follow-edge upsert, or `None` for read ticks.
fn op_at(i: u64) -> Option<Edge> {
    let r = mix(i);
    (r % 10 <= 7).then(|| Edge {
        src: VertexId(mix(r) % USERS),
        etype: EdgeType::FOLLOW,
        dst: VertexId(1_000 + mix(r ^ 0xABCD) % 160),
        props: i.to_le_bytes().to_vec(),
    })
}

fn scrub_config() -> Bg3Config {
    let mut config = Bg3Config::default();
    config.store = StoreConfig::counting()
        .with_extent_capacity(4096)
        .with_faults(
            FaultPlan::seeded(0x5C2B_B175_0000_5EED)
                // Persistent silent rot on the page streams. Budgeted: a
                // bounded schedule keeps the experiment deterministic while
                // still rotting records across several rounds. The rate is
                // per backend read, scrubber verify reads included, and the
                // reads per round grow with the data: 0.05 spends both
                // budgets in round 0, and a budget of 10 lets round 4 take
                // most of the rot.
                .with_rule(
                    FaultRule::new(FaultOp::Read, FaultKind::ReadBitFlip, 0.001)
                        .on_stream(StreamId::BASE)
                        .at_most(5),
                )
                .with_rule(
                    FaultRule::new(FaultOp::Read, FaultKind::ReadBitFlip, 0.001)
                        .on_stream(StreamId::DELTA)
                        .at_most(5),
                )
                // Torn tail writes: the write errors with a scarred frame
                // on the media, and the trees' bounded retry overwrites it.
                .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendTorn, 0.02)),
        );
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

/// True iff, for every `ExtentQuarantine` event, a matching `ExtentRepair`
/// follows it and the extent's reclaim (`ExtentRelocate`/`ExtentExpire`)
/// follows the repair. GC must never reclaim unrepaired damage.
fn ordered(events: &[TraceEvent]) -> bool {
    events
        .iter()
        .filter(|e| e.kind == TraceKind::ExtentQuarantine)
        .all(|q| {
            let repair = events
                .iter()
                .find(|e| e.kind == TraceKind::ExtentRepair && e.subject == q.subject);
            let reclaim = events.iter().find(|e| {
                matches!(e.kind, TraceKind::ExtentRelocate | TraceKind::ExtentExpire)
                    && e.subject == q.subject
            });
            match (repair, reclaim) {
                (Some(r), Some(c)) => q.seq < r.seq && r.seq < c.seq,
                _ => false,
            }
        })
}

/// Runs `cycles` crash/failover rounds under the seeded chaos schedule.
pub fn run(cycles: usize) -> ScrubChaosReport {
    let config = scrub_config();
    let mut db = Bg3Db::new(config.clone());
    let mut oracle = Oracle::new();
    let users: Vec<VertexId> = (0..USERS).map(VertexId).collect();
    let crash_points = [
        CrashPoint::MidFlush,
        CrashPoint::MidGroupCommit,
        CrashPoint::MidGcCycle,
    ];

    let mut rows = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut next_seq = 0u64;
    let mut op_index = 0u64;
    let mut total_scrub = GcScrubReport::default();

    for round in 0..cycles {
        let point = crash_points[round % crash_points.len()];
        let mut round_scrub = GcScrubReport::default();
        let mut ops_acked = 0u64;

        // Steady state: writes, periodic background scrub, periodic GC.
        // The crash point arms late in the round, so the tail ops die
        // mid-flush / mid-commit / mid-GC.
        let arm_at = op_index + OPS_PER_ROUND;
        let deadline = arm_at + 600;
        while op_index < deadline {
            let i = op_index;
            op_index += 1;
            if i == arm_at {
                db.crash_switch().arm(point);
            }
            if let Some(edge) = op_at(i) {
                let write = Mutation::InsertEdge(edge);
                match write.apply(&db) {
                    Ok(()) => {
                        oracle.ack(write);
                        ops_acked += 1;
                    }
                    Err(e) if e.is_crash() => {
                        oracle.in_flight(write);
                        break;
                    }
                    // Torn append that exhausted its retries: not acked,
                    // so the oracle doesn't adopt it either.
                    Err(_) => {}
                }
            }
            if i % 96 == 95 {
                if let Ok(r) = db.run_scrub_cycle() {
                    round_scrub.absorb(r);
                }
            }
            if i % 256 == 255 {
                match db.run_gc_cycle(2) {
                    Err(e) if e.is_crash() => break,
                    // GC tripping over rot (checksum error on a relocation
                    // read) aborts the cycle; the scrubber repairs it.
                    _ => {}
                }
            }
        }
        db.crash_switch().disarm(point);

        // Pre-recovery fsck barrier: the dying leader's in-memory page
        // images repair every rotted extent, so replay reads verified
        // frames. Recovery reads can still flip fresh bits (the injector
        // stays hot) — each failed attempt is scrubbed and retried.
        if let Ok(r) = db.scrub_until_clean(8) {
            round_scrub.absorb(r);
        }
        let store = db.store().clone();
        let mapping = db.mapping().expect("durable engine").clone();
        let mut recover_attempts = 0u64;
        let recovered = loop {
            recover_attempts += 1;
            match Bg3Db::recover(store.clone(), mapping.clone(), config.clone()) {
                Ok(next) => break next,
                Err(e) => {
                    if recover_attempts >= 16 {
                        panic!("round {round}: recovery permanently stuck on {e}");
                    }
                    if let Ok(r) = db.scrub_until_clean(8) {
                        round_scrub.absorb(r);
                    }
                }
            }
        };
        oracle.settle(&recovered).unwrap();
        db = recovered;

        let found = oracle.audit(Reads::Scan {
            store: &db,
            etype: EdgeType::FOLLOW,
            sources: &users,
        });
        let fresh = db.store().trace().events_since(next_seq);
        next_seq = fresh.iter().map(|e| e.seq + 1).max().unwrap_or(next_seq);
        events.extend(fresh);
        total_scrub.absorb(round_scrub);
        rows.push(ScrubRow {
            round,
            ops_acked,
            faults_fired: db.store().fault_injector().total_fired(),
            corrupt_found: round_scrub.corrupt_records,
            quarantined: round_scrub.extents_quarantined,
            repaired: round_scrub.extents_repaired,
            resupplied: round_scrub.records_resupplied,
            dropped: round_scrub.records_dropped,
            recover_attempts,
            acked_lost: found.acked_lost,
            garbage_served: found.garbage_served,
        });
    }

    // Final deep scrub, then the closing audit over every acked write.
    if let Ok(r) = db.scrub_until_clean(8) {
        total_scrub.absorb(r);
    }
    let found = oracle.audit(Reads::Scan {
        store: &db,
        etype: EdgeType::FOLLOW,
        sources: &users,
    });
    let fresh = db.store().trace().events_since(next_seq);
    events.extend(fresh);
    let checksum_mismatches_detected = db
        .store()
        .stats()
        .registry()
        .counter(obs::names::CHECKSUM_MISMATCHES_TOTAL)
        .get();
    let metrics = db.metrics_snapshot();

    let report = ScrubChaosReport {
        final_acked_lost: found.acked_lost,
        final_garbage_served: found.garbage_served,
        checksum_mismatches_detected,
        quarantine_repair_reclaim_ordered: ordered(&events),
        total_quarantined: total_scrub.extents_quarantined,
        total_repaired: total_scrub.extents_repaired,
        metrics,
        rows,
    };
    // The smoke's invariants: a violation fails `reproduce scrub`.
    for row in &report.rows {
        assert_eq!(row.acked_lost, 0, "round {} lost acked writes", row.round);
        assert_eq!(row.garbage_served, 0, "round {} served garbage", row.round);
    }
    assert_eq!(report.final_acked_lost, 0, "an acked write was lost");
    assert_eq!(report.final_garbage_served, 0, "garbage was served");
    assert!(
        report.quarantine_repair_reclaim_ordered,
        "an extent was reclaimed before its repair"
    );
    report
}

/// Renders the round table.
pub fn render(report: &ScrubChaosReport) -> String {
    let mut out = String::from("Scrub: integrity under bit rot, torn writes, and failover\n");
    out.push_str(
        "round  acked  faults  corrupt  quarantined  repaired  resupplied  dropped  recover  lost  garbage\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{:>5} {:>6} {:>7} {:>8} {:>12} {:>9} {:>11} {:>8} {:>8} {:>5} {:>8}\n",
            row.round,
            row.ops_acked,
            row.faults_fired,
            row.corrupt_found,
            row.quarantined,
            row.repaired,
            row.resupplied,
            row.dropped,
            row.recover_attempts,
            row.acked_lost,
            row.garbage_served,
        ));
    }
    out.push_str(&format!(
        "final audit: acked lost {}  garbage served {}  mismatches detected {}\n",
        report.final_acked_lost, report.final_garbage_served, report.checksum_mismatches_detected,
    ));
    out.push_str(&format!(
        "quarantine < repair < reclaim in trace order: {}\n",
        report.quarantine_repair_reclaim_ordered
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_acked_write_lost_and_no_garbage_served() {
        // `run` asserts the audits and the trace order.
        let report = run(3);
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(row.ops_acked > 0, "round {} acked nothing", row.round);
        }
        assert!(
            report.checksum_mismatches_detected > 0,
            "the schedule injected rot, so detections must be nonzero"
        );
        assert_eq!(
            report.total_quarantined, report.total_repaired,
            "every quarantined extent was repaired"
        );
    }
}
