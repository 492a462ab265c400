//! Scrub experiment — end-to-end integrity under silent corruption.
//!
//! Not a figure from the paper: this exercises the integrity machinery the
//! shared-storage design depends on (checksummed record frames, the
//! background scrubber, quarantine-and-repair). A durable [`Bg3Db`] runs a
//! seeded chaos schedule mixing [`FaultKind::ReadBitFlip`] (persistent rot
//! on BASE/DELTA reads), [`FaultKind::AppendTorn`] (torn tail writes), and
//! crash/failover cycles. Every acked write is mirrored into an in-memory
//! shadow model; after each failover and at the end the engine is diffed
//! against it.
//!
//! The experiment asserts the three integrity claims end to end:
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
use bg3_graph::MemGraph;
use bg3_storage::{FaultKind, StreamId};
use serde::Serialize;

/// One crash/failover round's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubRow {
    /// Round index (one crash + recovery per round).
    pub round: usize,
    /// Writes acked (and mirrored into the shadow) this round.
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
    /// Reads served with bytes differing from the shadow (must be 0).
    pub garbage_served: u64,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubChaosReport {
    /// One row per crash/failover round.
    pub rows: Vec<ScrubRow>,
    /// Acked edges missing/wrong at the final audit (must be 0).
    pub final_acked_lost: u64,
    /// Shadow mismatches served at the final audit (must be 0).
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

fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
                // still rotting records across several rounds.
                .with_rule(
                    FaultRule::new(FaultOp::Read, FaultKind::ReadBitFlip, 0.05)
                        .on_stream(StreamId::BASE)
                        .at_most(10),
                )
                .with_rule(
                    FaultRule::new(FaultOp::Read, FaultKind::ReadBitFlip, 0.05)
                        .on_stream(StreamId::DELTA)
                        .at_most(10),
                )
                // Torn tail writes: detected at append time, absorbed by
                // the trees' bounded retry.
                .with_rule(FaultRule::new(FaultOp::Append, FaultKind::AppendTorn, 0.02)),
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

/// Diffs the engine against the shadow: `(acked_lost, garbage_served)`.
/// A missing edge is a lost ack; a present edge with the wrong bytes (or an
/// edge the shadow never acked) is garbage served.
fn audit(db: &Bg3Db, shadow: &MemGraph) -> (u64, u64) {
    let mut lost = 0u64;
    let mut garbage = 0u64;
    for u in 0..USERS {
        let id = VertexId(u);
        let want = shadow.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap();
        let got = db.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap();
        let got: std::collections::BTreeMap<_, _> = got.into_iter().collect();
        let mut acked = std::collections::BTreeSet::new();
        for (dst, props) in &want {
            acked.insert(*dst);
            match got.get(dst) {
                None => lost += 1,
                Some(p) if p != props => garbage += 1,
                Some(_) => {}
            }
        }
        garbage += got.keys().filter(|dst| !acked.contains(dst)).count() as u64;
    }
    (lost, garbage)
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
    let shadow = MemGraph::new();
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
        let mut crashed: Option<Edge> = None;

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
                match db.insert_edge(&edge) {
                    Ok(()) => {
                        shadow.insert_edge(&edge).unwrap();
                        ops_acked += 1;
                    }
                    Err(e) if e.is_crash() => {
                        crashed = Some(edge);
                        break;
                    }
                    // Torn append that exhausted its retries: not acked,
                    // so the shadow doesn't adopt it either.
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
        // The interrupted op is atomic: adopt it into the shadow iff it
        // landed.
        if let Some(edge) = &crashed {
            if recovered
                .get_edge(edge.src, edge.etype, edge.dst)
                .unwrap()
                .as_deref()
                == Some(edge.props.as_slice())
            {
                shadow.insert_edge(edge).unwrap();
            }
        }
        db = recovered;

        let (acked_lost, garbage_served) = audit(&db, &shadow);
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
            acked_lost,
            garbage_served,
        });
    }

    // Final deep scrub, then the closing audit over every acked write.
    if let Ok(r) = db.scrub_until_clean(8) {
        total_scrub.absorb(r);
    }
    let (final_acked_lost, final_garbage_served) = audit(&db, &shadow);
    let fresh = db.store().trace().events_since(next_seq);
    events.extend(fresh);
    let checksum_mismatches_detected = db
        .store()
        .stats()
        .registry()
        .counter(obs::names::CHECKSUM_MISMATCHES_TOTAL)
        .get();
    let metrics = db.metrics_snapshot();

    ScrubChaosReport {
        rows,
        final_acked_lost,
        final_garbage_served,
        checksum_mismatches_detected,
        quarantine_repair_reclaim_ordered: ordered(&events),
        total_quarantined: total_scrub.extents_quarantined,
        total_repaired: total_scrub.extents_repaired,
        metrics,
    }
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
        let report = run(3);
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert_eq!(row.acked_lost, 0, "round {} lost acked writes", row.round);
            assert_eq!(row.garbage_served, 0, "round {} served garbage", row.round);
            assert!(row.ops_acked > 0, "round {} acked nothing", row.round);
        }
        assert_eq!(report.final_acked_lost, 0);
        assert_eq!(report.final_garbage_served, 0);
        assert!(report.quarantine_repair_reclaim_ordered);
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
