//! Disk chaos — the disk-fault envelope exercised end to end on the real
//! file backend: seeded errno storms, crash-kill/recover rounds, and the
//! ENOSPC degradation ladder, all in a self-cleaning tempdir.
//!
//! Each round is a file-backed [`Round`]: a store over a fresh file
//! backend with a seeded [`FaultPlan`] (the store wraps the backend in
//! [`bg3_storage::FaultBackend`]) under a durable `Bg3Db`, driven with
//! one of three storm shapes (rotating by round). Every write is a fresh
//! edge; its WAL append is fsynced before the engine acks it, and group
//! commits flush pages through the same faults. This experiment adds the
//! full-window read audit and the TTL reclaim to the round.
//!
//! * **enospc** — random `ENOSPC` write failures plus a sticky disk-full
//!   regime armed mid-storm. Proves reads keep flowing through the full
//!   window (each acked edge is read through the engine and as its WAL
//!   record off the disk) and that expiring TTL-dead extents frees real
//!   space, clears the sticky regime, and restores write flow.
//! * **fsyncgate** — random fsync/seal `EIO` plus torn media writes.
//!   Proves the fail-closed rule: the first failed WAL fsync poisons the
//!   log and no later write is acked.
//! * **mixed** — everything at once at lower probabilities.
//!
//! The reclaimable space is TTL'd filler appended straight to the store's
//! `SST` stream, which the engine never writes; graph writes carry no TTL.
//!
//! After every storm the node is killed, and the engine recovers over a
//! brand-new store opened on the surviving extent files with **no** fault
//! decoration — recovery is the fsyncgate exit. The round is audited by
//! the graph oracle: an acked write must survive, and a write that
//! returned an error may be present or absent (a `SyncFail` whose frame
//! reached the media; a write whose WAL append succeeded but whose
//! triggered group commit failed), settled one by one. The round also
//! counts every `Ok` returned after the WAL was poisoned.
//!
//! Read-EIO faults are deliberately absent from the storm plans: the reads
//! -keep-flowing audit inside the sticky full-disk window must observe the
//! *degradation* contract (writes shed, reads succeed), not random read
//! faults. `ReadEio` coverage lives in the `FaultBackend` unit tests and
//! the backend-conformance proptest.
//!
//! The whole run executes twice from the same seeds into separate
//! directories; the two per-round audit trails must serialize
//! bit-identically — the errno storm is a pure function of the seed.

use super::scenario::{no_beat, Round, Tally};
use bg3_core::Bg3Config;
use bg3_graph::{edge_item, Edge, EdgeType, GraphStore, Mutation, VertexId};
use bg3_storage::{
    BackendKind, FaultPlan, MetricsSnapshot, StoreBuilder, StoreConfig, StreamId, TempDir,
};
use bg3_wal::WalPayload;
use serde::Serialize;
use std::path::Path;

/// Edge writes per storm (before the reclaim phase).
const STORM_WRITES: u64 = 48;
/// Edge writes after the reclaim phase (prove write flow restored).
const POST_RECLAIM_WRITES: u64 = 8;
/// TTL-carrying filler records appended before the storm — the
/// reclaimable space the full-disk round frees.
const TTL_RECORDS: u64 = 6;
/// Sources the edges fan out from; the audit scans each.
const SOURCES: u64 = 4;
/// Dirty pages that trigger a group commit, entries that split a page,
/// and edges that split a source out of the INIT tree: all small, so the
/// storms hit flushes, page splits and split-outs.
const GROUP_COMMIT_PAGES: usize = 2;
const PAGE_ENTRIES: usize = 8;
const SPLIT_OUT_EDGES: usize = 8;
const ETYPE: EdgeType = EdgeType::FOLLOW;

/// One round's audit trail. Every field is derived from virtual clocks,
/// seeded draws, and record counts — no wall-clock, paths, or pids — so
/// two runs from the same seed serialize bit-identically.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct DiskChaosRound {
    /// Seed of this round's fault plan.
    pub seed: u64,
    /// Storm shape: `enospc`, `fsyncgate`, or `mixed`.
    pub storm: String,
    /// Write outcomes by kind, acks after poison included (must be 0).
    pub writes: Tally,
    /// The WAL stream ended the storm poisoned.
    pub poisoned: bool,
    /// The sticky disk-full regime was active when audited.
    pub disk_full_window: bool,
    /// `DiskHealth` rendered inside the window (empty when no window).
    pub health_in_window: String,
    /// Acked edges the full-window read audit attempted.
    pub window_reads: u64,
    /// Acked edges the full-window read audit served intact, both through
    /// the engine and from their WAL record read off the disk.
    pub window_reads_ok: u64,
    /// TTL-dead filler extents expired by the reclaim phase.
    pub extents_reclaimed: u64,
    /// `DiskHealth` rendered after reclaim.
    pub health_after_reclaim: String,
    /// Round saw the sticky full window *and* ended it via reclaim with
    /// writes shedding no longer required.
    pub recovered_from_full: bool,
    /// Writes acked after the reclaim phase.
    pub acked_after_reclaim: u64,
    /// Failed writes the recovered engine shows (settled as landed).
    pub in_flight_landed: u64,
    /// Acked writes missing after recovery; must be 0.
    pub acked_lost: u64,
    /// Edges served after recovery that nobody wrote, or with the wrong
    /// bytes; must be 0.
    pub garbage_served: u64,
    /// The recovered engine acked a write and a checkpoint.
    pub post_recover_write_ok: bool,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct DiskChaosReport {
    /// Backend under test (always `fault(file)` during storms, `file`
    /// during recovery).
    pub backend: String,
    /// Per-round audit trails (first run).
    pub rounds: Vec<DiskChaosRound>,
    /// Sum of `acked` across rounds.
    pub acked_total: u64,
    /// Sum of `acked_lost` (must be 0).
    pub acked_lost_total: u64,
    /// Sum of `garbage_served` (must be 0).
    pub garbage_served_total: u64,
    /// Sum of `acks_after_poison` (must be 0).
    pub acks_after_poison_total: u64,
    /// Rounds that ended poisoned (fsyncgate coverage; must be ≥ 1).
    pub poisoned_rounds: u64,
    /// Rounds that hit the sticky disk-full window (must be ≥ 1).
    pub full_window_rounds: u64,
    /// Read audit totals inside full windows (ok must equal attempted).
    pub window_reads: u64,
    /// Reads served intact inside full windows.
    pub window_reads_ok: u64,
    /// Full-window rounds that reclaimed their way back to write flow.
    pub recovered_from_full_rounds: u64,
    /// The two seeded runs produced bit-identical round trails.
    pub double_run_identical: bool,
    /// Merged registry snapshot across every storm and recovery store of
    /// the first run (`sync_poisoned_total`, `disk_health`, backend
    /// counters included).
    pub metrics: MetricsSnapshot,
}

fn storm_name(round: usize) -> &'static str {
    match round % 3 {
        0 => "enospc",
        1 => "fsyncgate",
        _ => "mixed",
    }
}

/// The seeded fault plan for one round. `DiskFull` windows are indexed in
/// backend writes: the setup phase issues [`TTL_RECORDS`] of them, so the
/// thresholds below always land the sticky window mid-storm.
fn storm_plan(round: usize, seed: u64) -> FaultPlan {
    match round % 3 {
        0 => FaultPlan::seeded(seed)
            .no_space_writes(0.05)
            .disk_full_after(14),
        1 => FaultPlan::seeded(seed)
            .fail_syncs(0.2)
            .torn_backend_writes(0.1),
        _ => FaultPlan::seeded(seed)
            .fail_syncs(0.08)
            .no_space_writes(0.05)
            .torn_backend_writes(0.05)
            .disk_full_after(24),
    }
}

fn engine_config(root: &Path, faults: FaultPlan) -> Bg3Config {
    let mut config = Bg3Config::default().with_group_commit_pages(GROUP_COMMIT_PAGES);
    config.store = StoreConfig::counting()
        .with_backend(BackendKind::File {
            root: root.to_path_buf(),
        })
        .with_extent_capacity(4096)
        .with_faults(faults);
    config.forest.split_out_threshold = SPLIT_OUT_EDGES;
    config.forest.tree_config = config
        .forest
        .tree_config
        .with_max_page_entries(PAGE_ENTRIES);
    config
}

/// The deterministic edge of storm write `i`.
fn storm_edge(round: usize, i: u64) -> Edge {
    Edge::new(VertexId(i % SOURCES), ETYPE, VertexId(1_000 + i)).with_props(
        (i.wrapping_mul(31).wrapping_add(round as u64))
            .to_le_bytes()
            .to_vec(),
    )
}

/// Runs one storm round rooted at `root` and returns its audit trail.
fn run_round(root: &Path, round: usize, seed: u64) -> (DiskChaosRound, MetricsSnapshot) {
    std::fs::create_dir_all(root).unwrap();
    let config = engine_config(root, storm_plan(round, seed));
    let store = StoreBuilder::from_config(config.store.clone()).build();

    // ---- Setup: TTL-carrying filler extents the reclaim phase can free. ----
    for i in 0..TTL_RECORDS {
        // Setup appends draw from the same seeded schedule; losing a few
        // to random ENOSPC is part of the storm.
        let _ = store.append(StreamId::SST, &[0xEE; 16], i + 1, Some(1_000));
    }
    store.clock().advance_nanos(10_000); // every TTL deadline passes

    let mut scenario = Round::with_store(store.clone(), config);
    let storm_write = |i| Some(Mutation::InsertEdge(storm_edge(round, i)));
    let mut stats = DiskChaosRound {
        seed,
        storm: storm_name(round).to_string(),
        writes: Tally::default(),
        poisoned: false,
        disk_full_window: false,
        health_in_window: String::new(),
        window_reads: 0,
        window_reads_ok: 0,
        extents_reclaimed: 0,
        health_after_reclaim: String::new(),
        recovered_from_full: false,
        acked_after_reclaim: 0,
        in_flight_landed: 0,
        acked_lost: 0,
        garbage_served: 0,
        post_recover_write_ok: false,
    };

    // ---- Storm: hammer the engine's write path through the fault plan. ----
    scenario.drive(0..STORM_WRITES, storm_write, None, no_beat);

    // ---- Full-window audit: reads must flow while writes shed. ----
    // Each acked edge is read twice: through the engine, which may answer
    // from memory, and as its WAL record, read back off the disk.
    if store.is_disk_full() {
        stats.disk_full_window = true;
        stats.health_in_window = store.disk_health().to_string();
        let db = scenario.db();
        let logged = db
            .open_wal_reader()
            .expect("a durable engine")
            .fetch_new()
            .unwrap_or_default();
        for ((src, etype, dst), bytes) in scenario.oracle().edges() {
            stats.window_reads += 1;
            let item = edge_item(dst);
            let in_log = logged.iter().any(|r| {
                matches!(&r.payload, WalPayload::Upsert { key, value }
                    if key.ends_with(&item) && value == bytes)
            });
            if in_log && db.get_edge(src, etype, dst).ok().flatten().as_deref() == Some(bytes) {
                stats.window_reads_ok += 1;
            }
        }
    }

    // ---- Reclaim: expire TTL-dead filler extents; deletes free space. ----
    if let Ok(infos) = store.extent_infos(StreamId::SST) {
        for info in infos {
            if store.expire_extent(StreamId::SST, info.id).is_ok() {
                stats.extents_reclaimed += 1;
            }
        }
    }
    stats.health_after_reclaim = store.disk_health().to_string();
    stats.recovered_from_full =
        stats.disk_full_window && !store.is_disk_full() && !store.disk_health().sheds_writes();

    let acked_before_reclaim = scenario.tally.acked;
    let post_reclaim = STORM_WRITES..STORM_WRITES + POST_RECLAIM_WRITES;
    scenario.drive(post_reclaim, storm_write, None, no_beat);
    stats.acked_after_reclaim = scenario.tally.acked - acked_before_reclaim;
    stats.writes = scenario.tally;

    // ---- Kill and recover: plain file backend, no fault decoration. ----
    stats.poisoned = store.is_poisoned(StreamId::WAL);
    let mut metrics = store.metrics_snapshot();
    drop(store);
    let acked_edges = scenario.oracle().edges().count() as u64;
    scenario.recover(|_| false);
    stats.in_flight_landed = scenario.oracle().edges().count() as u64 - acked_edges;
    let sources: Vec<VertexId> = (0..SOURCES).map(VertexId).collect();
    let audit = scenario.audit(&sources);
    stats.acked_lost = audit.acked_lost;
    stats.garbage_served = audit.garbage_served;
    let recovered = scenario.db();
    stats.post_recover_write_ok = recovered
        .insert_edge(&storm_edge(round, STORM_WRITES + POST_RECLAIM_WRITES))
        .is_ok()
        && recovered.checkpoint().is_ok();

    metrics.merge(&recovered.store().metrics_snapshot());
    (stats, metrics)
}

/// One full seeded pass: `rounds` storm/kill/recover rounds under `root`.
fn run_once(root: &Path, rounds: usize) -> (Vec<DiskChaosRound>, MetricsSnapshot) {
    let mut trail = Vec::with_capacity(rounds);
    let mut metrics = MetricsSnapshot::default();
    for round in 0..rounds {
        let seed = 0xD15C_0000 + round as u64;
        let round_root = root.join(format!("round-{round:02}"));
        let (stats, round_metrics) = run_round(&round_root, round, seed);
        trail.push(stats);
        metrics.merge(&round_metrics);
    }
    (trail, metrics)
}

/// Runs the disk-chaos experiment: `rounds` seeded errno-storm rounds,
/// executed twice for the determinism audit.
pub fn run(rounds: usize) -> DiskChaosReport {
    let tmp = TempDir::new("disk-chaos");
    let (trail, metrics) = run_once(&tmp.0.join("run0"), rounds);
    let (second_trail, _) = run_once(&tmp.0.join("run1"), rounds);
    let double_run_identical =
        serde_json::to_string(&trail).unwrap() == serde_json::to_string(&second_trail).unwrap();

    let report = DiskChaosReport {
        backend: "fault(file)".to_string(),
        acked_total: trail.iter().map(|r| r.writes.acked).sum(),
        acked_lost_total: trail.iter().map(|r| r.acked_lost).sum(),
        garbage_served_total: trail.iter().map(|r| r.garbage_served).sum(),
        acks_after_poison_total: trail.iter().map(|r| r.writes.acks_after_poison).sum(),
        poisoned_rounds: trail.iter().filter(|r| r.poisoned).count() as u64,
        full_window_rounds: trail.iter().filter(|r| r.disk_full_window).count() as u64,
        window_reads: trail.iter().map(|r| r.window_reads).sum(),
        window_reads_ok: trail.iter().map(|r| r.window_reads_ok).sum(),
        recovered_from_full_rounds: trail.iter().filter(|r| r.recovered_from_full).count() as u64,
        double_run_identical,
        rounds: trail,
        metrics,
    };
    // The envelope's guarantees: a violation fails `reproduce disk_chaos`.
    assert!(verdict(&report), "{}", render(&report));
    report
}

/// True when every envelope guarantee held.
pub fn verdict(report: &DiskChaosReport) -> bool {
    report.acked_lost_total == 0
        && report.garbage_served_total == 0
        && report.acks_after_poison_total == 0
        && report.poisoned_rounds >= 1
        && report.full_window_rounds >= 1
        && report.window_reads >= 1
        && report.window_reads_ok == report.window_reads
        && report.recovered_from_full_rounds >= 1
        && report.rounds.iter().all(|r| {
            r.post_recover_write_ok && (!r.recovered_from_full || r.acked_after_reclaim > 0)
        })
        && report.double_run_identical
}

/// Renders the pass/fail summary.
pub fn render(report: &DiskChaosReport) -> String {
    let mut out = String::from("Disk chaos: errno storms on a file-backed Bg3Db\n");
    out.push_str(&format!(
        "storms       : {} rounds, {} acked, {} poisoned rounds, {} full-disk windows\n",
        report.rounds.len(),
        report.acked_total,
        report.poisoned_rounds,
        report.full_window_rounds,
    ));
    out.push_str(&format!(
        "fail-closed  : {} acks after poison; after kill+recover {} acked lost, {} garbage served\n",
        report.acks_after_poison_total, report.acked_lost_total, report.garbage_served_total,
    ));
    out.push_str(&format!(
        "degradation  : {}/{} reads served inside full-disk windows, {} rounds reclaimed back to write flow\n",
        report.window_reads_ok, report.window_reads, report.recovered_from_full_rounds,
    ));
    out.push_str(&format!(
        "determinism  : double run identical {}\n",
        report.double_run_identical,
    ));
    out.push_str(&format!(
        "verdict      : {}\n",
        if verdict(report) { "PASS" } else { "FAIL" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::DiskHealth;

    #[test]
    fn errno_storms_never_lose_acked_writes() {
        let report = run(6);
        assert_eq!(report.acked_lost_total, 0, "acked writes lost");
        assert_eq!(report.garbage_served_total, 0, "unacked bytes served");
        assert_eq!(
            report.acks_after_poison_total, 0,
            "the engine acked a write after the WAL was poisoned"
        );
        assert!(report.poisoned_rounds >= 1, "no fsyncgate round poisoned");
        assert!(report.full_window_rounds >= 1, "no sticky full-disk window");
        assert!(
            report.window_reads >= 1 && report.window_reads_ok == report.window_reads,
            "reads failed inside the full-disk window: {}/{}",
            report.window_reads_ok,
            report.window_reads,
        );
        assert!(
            report.recovered_from_full_rounds >= 1,
            "reclaim never restored write flow after a full-disk window"
        );
        assert!(report.rounds.iter().all(|r| r.post_recover_write_ok));
        assert!(report.double_run_identical, "seeded runs diverged");
    }

    #[test]
    fn enospc_rounds_shed_writes_while_health_reports_full() {
        let report = run(3);
        let windows: Vec<_> = report
            .rounds
            .iter()
            .filter(|r| r.disk_full_window)
            .collect();
        assert!(!windows.is_empty());
        for round in windows {
            assert!(
                round.health_in_window == DiskHealth::Full.to_string()
                    || round.health_in_window == DiskHealth::Poisoned.to_string(),
                "window health was {:?}",
                round.health_in_window,
            );
            assert!(
                round.writes.no_space >= 1,
                "no ENOSPC surfaced in the window"
            );
        }
    }
}
