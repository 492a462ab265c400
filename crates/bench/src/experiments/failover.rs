//! Failover chaos experiment — kill → promote → resurrect-zombie cycles.
//!
//! Not a figure from the paper: this exercises the availability claims
//! behind §3.1's one-RW-many-RO topology. Each cycle writes a batch of edges
//! through a [`ReplicatedBg3`] (a durable `Bg3Db` leading two followers),
//! crashes the leader at an armed crash point
//! (alternating `MidGroupCommit` / `MidFlush`), serves stale-flagged reads
//! through the detection window, promotes the most caught-up follower on
//! the next epoch, then resurrects the dead leader as a zombie and proves
//! the store fences its writes. After every cycle the post-failover cluster
//! is audited against the graph [`Oracle`] of acknowledged and forbidden
//! (zombie) writes: zero lost acked writes, zero zombie writes visible.

use bg3_core::prelude::*;
use bg3_graph::{EdgeKey, Mutation, Oracle, Reads};
use serde::Serialize;

/// One kill→promote→resurrect cycle's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverCycle {
    /// Cycle index (0-based).
    pub cycle: usize,
    /// Crash point armed on the dying leader.
    pub crash_point: String,
    /// Acknowledged writes in the oracle when the leader died.
    pub acked_at_kill: usize,
    /// Stale-flagged reads served during the outage window.
    pub stale_reads_during_outage: u64,
    /// WAL records the promoted follower replayed past its `seen_lsn`.
    pub promotion_replay_records: u64,
    /// Leadership epoch after the promotion.
    pub epoch_after: u64,
    /// Zombie publishes + appends the fence rejected this cycle.
    pub zombie_rejections: u64,
    /// Acked writes missing, or served with wrong bytes, on the
    /// post-failover cluster (must be 0).
    pub lost_acked_writes: usize,
    /// Zombie writes visible on the post-failover cluster (must be 0).
    pub zombie_writes_visible: usize,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverReport {
    /// One row per cycle.
    pub cycles: Vec<FailoverCycle>,
    /// Cluster counters after the last cycle (fence state included).
    pub final_stats: FailoverStatsSnapshot,
    /// Total acknowledged writes across every cycle.
    pub total_acked_writes: usize,
    /// True iff no cycle lost an acknowledged write.
    pub all_acked_writes_survived: bool,
    /// True iff no zombie write ever became visible.
    pub no_zombie_writes_visible: bool,
    /// True iff, for every promoted epoch, the trace shows its
    /// `epoch_seal` event strictly before the new leader's first WAL
    /// append under that epoch (the fencing order §3.4 demands).
    pub seal_precedes_new_leader_appends: bool,
    /// Merged registry snapshot (data plane + metadata plane).
    pub metrics: MetricsSnapshot,
}

const WRITES_PER_CYCLE: usize = 120;
const OUTAGE_READS: usize = 12;
const HEARTBEAT_TIMEOUT_NANOS: u64 = 1_000_000;

/// The follow edge `src -> dst`.
fn edge(src: u64, dst: u64, props: Vec<u8>) -> Edge {
    Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(dst)).with_props(props)
}

/// Reads an edge from the followers in turn, as a load balancer would.
fn get(
    cluster: &ReplicatedBg3,
    turn: &mut usize,
    (src, etype, dst): EdgeKey,
) -> StorageResult<Option<Vec<u8>>> {
    *turn += 1;
    let idx = *turn % cluster.ro_count();
    cluster.ro_get_edge(idx, src, etype, dst)
}

fn value_for(cycle: usize, i: usize) -> Vec<u8> {
    let mut z = (cycle as u64) << 32 | i as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z.to_le_bytes().to_vec()
}

/// Retries `f` while it fails transiently (bounded); returns the last
/// result either way.
fn with_retries<T>(mut f: impl FnMut() -> StorageResult<T>, attempts: usize) -> StorageResult<T> {
    let mut last = f();
    for _ in 1..attempts {
        match &last {
            Err(e) if e.is_transient() => last = f(),
            _ => break,
        }
    }
    last
}

/// Polls the current follower generation until two consecutive quiet
/// rounds (or the retry budget runs out).
fn drain_followers(cluster: &ReplicatedBg3) {
    let mut quiet = 0;
    for _ in 0..64 {
        match cluster.poll_all() {
            Ok(0) => quiet += 1,
            Ok(_) => quiet = 0,
            Err(_) => {} // transient injected fault; try again
        }
        if quiet >= 2 {
            break;
        }
    }
}

/// Runs `cycles` seeded kill→promote→resurrect cycles; see module docs.
pub fn run(cycles: usize) -> FailoverReport {
    let plan = FaultPlan::seeded(0xFA11_07E5)
        .with_rule(
            FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 0.01).at_most(2 * cycles as u64),
        )
        .with_rule(
            FaultRule::new(FaultOp::MappingPublish, FaultKind::PublishDrop, 0.05)
                .at_most(cycles as u64),
        );
    let cluster = ReplicatedBg3::new(ReplicatedConfig {
        leader: Bg3Config {
            store: StoreConfig::counting().with_faults(plan),
            ..Bg3Config::default()
        },
        ro_nodes: 2,
        heartbeat_timeout_nanos: HEARTBEAT_TIMEOUT_NANOS,
        ..ReplicatedConfig::default()
    });

    let mut oracle = Oracle::new();
    let mut turn = 0;
    let mut rows = Vec::with_capacity(cycles);

    for cycle in 0..cycles {
        // 1. A batch of leader writes; only acknowledged ones enter the
        //    oracle. Periodic checkpoints give followers images to adopt,
        //    and a short tail of 3 comes after the last poll: promotion
        //    must replay it from the shared WAL.
        for i in 0..WRITES_PER_CYCLE + 3 {
            let write = edge(cycle as u64, i as u64, value_for(cycle, i));
            if cluster.insert_edge(&write).is_ok() {
                oracle.ack(Mutation::InsertEdge(write));
            }
            if i % 30 == 29 && i < WRITES_PER_CYCLE {
                let _ = cluster.checkpoint(); // transient faults tolerated
                let _ = cluster.poll_all();
            }
        }

        // 2. Crash the leader at an armed point mid-checkpoint, then kill.
        let point = if cycle % 2 == 0 {
            CrashPoint::MidGroupCommit
        } else {
            CrashPoint::MidFlush
        };
        let leader = cluster.leader().expect("leader installed");
        leader.crash_switch().arm(point);
        let crash = cluster.checkpoint();
        debug_assert!(crash.is_err(), "armed crash point fires");
        let zombie = cluster.kill_leader().expect("leader to kill");

        let stats_at_kill = cluster.stats();
        let acked_at_kill = oracle.edges().count();

        // 3. The outage: reads keep flowing (stale-flagged), writes fail
        //    fast, the detection window runs on the virtual clock.
        for (key, _) in oracle.edges().cycle().take(OUTAGE_READS) {
            let _ = get(&cluster, &mut turn, key); // may be stale; counted by the node
        }
        let rejected_write = cluster.insert_edge(&edge(2_000 + cycle as u64, 0, b"x".to_vec()));
        debug_assert!(rejected_write.is_err(), "no leader, no acks");

        // 4. Detection + promotion. Injected read faults can fail a
        //    promotion attempt; the coordinator just retries the tick.
        cluster
            .store()
            .clock()
            .advance_nanos(2 * HEARTBEAT_TIMEOUT_NANOS);
        let mut promoted = false;
        for _ in 0..8 {
            match cluster.tick() {
                Ok(FailoverTick::Promoted { .. }) => {
                    promoted = true;
                    break;
                }
                Ok(_) => {
                    cluster
                        .store()
                        .clock()
                        .advance_nanos(HEARTBEAT_TIMEOUT_NANOS);
                }
                Err(_) => {}
            }
        }
        assert!(promoted, "cycle {cycle}: promotion never succeeded");

        // 5. Resurrect the zombie and let it try to write: every plane
        //    must be fenced at the store.
        zombie.crash_switch().disarm(CrashPoint::MidGroupCommit);
        zombie.crash_switch().disarm(CrashPoint::MidFlush);
        let zombie_write = edge(1_000 + cycle as u64, 0, b"from the grave".to_vec());
        let zombie_put = zombie.insert_edge(&zombie_write);
        debug_assert!(zombie_put.is_err(), "zombie append fenced");
        debug_assert!(zombie.checkpoint().is_err(), "zombie checkpoint fenced");
        // Checkpoints die on the WAL/flush (append) plane before reaching
        // the mapping; hit the publish plane directly too, as a zombie
        // whose flush already landed would.
        let stale_publish = zombie.mapping().expect("a durable leader").publish_fenced(
            stats_at_kill.epoch,
            std::iter::empty::<(u64, Option<bg3_storage::PageAddr>)>(),
        );
        // Rejected unless the fault plan happened to drop the publish
        // outright (a drop is indistinguishable from a slow network to the
        // zombie — either way nothing lands).
        debug_assert!(
            stale_publish.is_err() || cluster.store().fault_injector().total_fired() > 0,
            "zombie publish fenced"
        );
        oracle.forbid((zombie_write.src, zombie_write.etype, zombie_write.dst));

        // 6. Verify: every acked write survived, no zombie write visible.
        //    A read that still fails after its retries counts as absent.
        drain_followers(&cluster);
        let audit = oracle.audit(Reads::Get(&mut |key| {
            with_retries(|| get(&cluster, &mut turn, key), 8)
                .ok()
                .flatten()
        }));

        let stats = cluster.stats();
        rows.push(FailoverCycle {
            cycle,
            crash_point: format!("{point:?}"),
            acked_at_kill,
            stale_reads_during_outage: stats.stale_reads_served - stats_at_kill.stale_reads_served,
            promotion_replay_records: stats.promotion_replay_records
                - stats_at_kill.promotion_replay_records,
            epoch_after: stats.epoch,
            zombie_rejections: (stats.fence.rejected_publishes + stats.fence.rejected_appends)
                - (stats_at_kill.fence.rejected_publishes + stats_at_kill.fence.rejected_appends),
            lost_acked_writes: (audit.acked_lost + audit.garbage_served) as usize,
            zombie_writes_visible: audit.forbidden_visible as usize,
        });
    }

    // Whole-stream trace-order check: every promotion this run performed
    // must show `epoch_seal` for the new epoch strictly before the new
    // leader's first WAL append under that epoch. A promotion with no seal
    // event — or a seal sequenced after an append it should have fenced —
    // fails the check.
    let events = cluster.trace().events();
    let seal_precedes_new_leader_appends = events
        .iter()
        .filter(|e| e.kind == TraceKind::Promotion)
        .all(|promotion| {
            let epoch = promotion.subject;
            let seal = events
                .iter()
                .find(|e| e.kind == TraceKind::EpochSeal && e.subject == epoch)
                .map(|e| e.seq);
            let first_append = events
                .iter()
                .find(|e| e.kind == TraceKind::WalAppend && e.detail == epoch)
                .map(|e| e.seq);
            match (seal, first_append) {
                (Some(seal), Some(append)) => seal < append,
                (Some(_), None) => true, // sealed; new leader never wrote
                (None, _) => false,      // promotion without a seal
            }
        });

    let final_stats = cluster.stats();
    let report = FailoverReport {
        total_acked_writes: oracle.edges().count(),
        all_acked_writes_survived: rows.iter().all(|r| r.lost_acked_writes == 0),
        no_zombie_writes_visible: rows.iter().all(|r| r.zombie_writes_visible == 0),
        seal_precedes_new_leader_appends,
        metrics: cluster.metrics_snapshot(),
        cycles: rows,
        final_stats,
    };
    // The smoke's invariants: a violation fails `reproduce failover`.
    assert!(report.all_acked_writes_survived, "an acked write was lost");
    assert!(report.no_zombie_writes_visible, "a zombie write is visible");
    assert!(
        report.seal_precedes_new_leader_appends,
        "a new leader appended before its epoch was sealed"
    );
    report
}

/// Renders the cycle table plus the fence summary.
pub fn render(report: &FailoverReport) -> String {
    let mut out = String::from("Failover: kill -> promote -> resurrect-zombie cycles\n");
    out.push_str(
        "cycle  crash-point     acked  stale-reads  replayed  epoch  zombie-rej  lost  zombie-visible\n",
    );
    for row in &report.cycles {
        out.push_str(&format!(
            "{:>5}  {:<14} {:>6} {:>12} {:>9} {:>6} {:>11} {:>5} {:>15}\n",
            row.cycle,
            row.crash_point,
            row.acked_at_kill,
            row.stale_reads_during_outage,
            row.promotion_replay_records,
            row.epoch_after,
            row.zombie_rejections,
            row.lost_acked_writes,
            row.zombie_writes_visible,
        ));
    }
    let s = &report.final_stats;
    out.push_str(&format!(
        "acked writes {} | survived {} | zombies invisible {} | seal-before-append {} | epochs bumped {} | \
         zombie publishes rejected {} | zombie appends rejected {} | \
         promotion replays {} | stale reads served {}\n",
        report.total_acked_writes,
        report.all_acked_writes_survived,
        report.no_zombie_writes_visible,
        report.seal_precedes_new_leader_appends,
        s.fence.seals,
        s.fence.rejected_publishes,
        s.fence.rejected_appends,
        s.promotion_replay_records,
        s.stale_reads_served,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_lose_nothing_and_fence_every_zombie() {
        let report = run(3);
        assert_eq!(report.cycles.len(), 3);
        assert!(report.all_acked_writes_survived);
        assert!(report.no_zombie_writes_visible);
        assert!(
            report.seal_precedes_new_leader_appends,
            "every promoted epoch was sealed before the new leader appended"
        );
        assert_eq!(report.final_stats.failovers, 3);
        assert_eq!(report.final_stats.epoch, 1 + 3);
        assert_eq!(report.final_stats.fence.seals, 3);
        assert!(
            report.final_stats.fence.rejected_appends >= 3,
            "every resurrected zombie's WAL append was fenced"
        );
        assert!(
            report.final_stats.fence.rejected_publishes >= 1,
            "the mapping-publish plane rejected zombies too"
        );
        for row in &report.cycles {
            assert!(row.zombie_rejections >= 1, "cycle {}", row.cycle);
            assert!(row.promotion_replay_records >= 3, "cycle {}", row.cycle);
            assert!(row.stale_reads_during_outage >= 1, "cycle {}", row.cycle);
        }
        assert!(report.total_acked_writes >= 3 * WRITES_PER_CYCLE);
    }
}
