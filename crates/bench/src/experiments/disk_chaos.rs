//! Disk chaos — the disk-fault envelope exercised end to end on the real
//! file backend: seeded errno storms, crash-kill/recover rounds, and the
//! ENOSPC degradation ladder, all in a self-cleaning tempdir.
//!
//! Each round opens a store over a fresh file backend with a seeded
//! [`FaultPlan`] (the store wraps the backend in
//! [`bg3_storage::FaultBackend`]) and drives the WAL group-commit path
//! through one of three storm shapes (rotating by round):
//!
//! * **enospc** — random `ENOSPC` write failures plus a sticky disk-full
//!   regime armed mid-storm. Proves reads keep flowing through the full
//!   window and that expiring TTL-dead extents (GC reclaim) frees real
//!   space, clears the sticky regime, and restores write flow.
//! * **fsyncgate** — random fsync/seal `EIO` plus torn media writes.
//!   Proves the fail-closed rule: the first failed durability barrier
//!   poisons the writer, no rider of a failed group commit is ever acked,
//!   and nothing acked-durable is lost across kill+recover.
//! * **mixed** — everything at once at lower probabilities.
//!
//! After every storm the "node" is killed by dropping all in-memory state
//! and a brand-new store is opened over the surviving extent files with
//! **no** fault decoration — recovery is the fsyncgate exit. The audit
//! asserts, per round: every record with `lsn <= durable_lsn` at kill time
//! is replayed byte-identical (zero acked-durable loss), and the shadow
//! model saw zero `Ok` appends after the writer was poisoned.
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

use bg3_storage::{
    AppendOnlyStore, BackendKind, ErrorKind, FaultPlan, IoErrorClass, MetricsSnapshot,
    StoreBuilder, StreamId,
};
use bg3_wal::{WalPayload, WalRecord, WalWriter};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// WAL appends per storm (before the reclaim phase).
const STORM_APPENDS: u64 = 48;
/// WAL appends after the reclaim phase (prove write flow restored).
const POST_RECLAIM_APPENDS: u64 = 8;
/// TTL-carrying DELTA appends seeded before the storm — the reclaimable
/// space the full-disk round frees.
const TTL_RECORDS: u64 = 6;

/// One round's audit trail. Every field is derived from virtual clocks,
/// seeded draws, and record counts — no wall-clock, paths, or pids — so
/// two runs from the same seed serialize bit-identically.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct DiskChaosRound {
    /// Seed of this round's fault plan.
    pub seed: u64,
    /// Storm shape: `enospc`, `fsyncgate`, or `mixed`.
    pub storm: String,
    /// Appends that returned `Ok` (the writer acked them).
    pub acked: u64,
    /// Appends rejected with `IoErrorClass::SyncFailed` (the failed
    /// barrier itself).
    pub sync_failures: u64,
    /// Appends rejected with `IoErrorClass::NoSpace`.
    pub enospc_errors: u64,
    /// Appends rejected by an injected torn media write.
    pub torn_writes: u64,
    /// Appends rejected because the writer/stream was already poisoned.
    pub rejected_poisoned: u64,
    /// Appends that failed for any other reason.
    pub other_errors: u64,
    /// The writer or the WAL stream ended the storm poisoned.
    pub poisoned: bool,
    /// `Ok` appends observed *after* poisoning — the shadow-model
    /// violation counter; must be 0.
    pub acks_after_poison: u64,
    /// The sticky disk-full regime was active when audited.
    pub disk_full_window: bool,
    /// `DiskHealth` rendered inside the window (empty when no window).
    pub health_in_window: String,
    /// Records the full-window read audit attempted.
    pub window_reads: u64,
    /// Records the full-window read audit served intact.
    pub window_reads_ok: u64,
    /// TTL-dead DELTA extents expired by the reclaim phase.
    pub extents_reclaimed: u64,
    /// `DiskHealth` rendered after reclaim.
    pub health_after_reclaim: String,
    /// Round saw the sticky full window *and* ended it via reclaim with
    /// writes shedding no longer required.
    pub recovered_from_full: bool,
    /// Appends acked after the reclaim phase.
    pub acked_after_reclaim: u64,
    /// `durable_lsn` at kill time: the replay floor.
    pub durable: u64,
    /// Records the post-kill recovery replayed.
    pub recovered: u64,
    /// Acked records at or below the durable floor that recovery lost or
    /// altered; must be 0.
    pub durable_lost: u64,
    /// The recovered (undecorated) writer accepted and flushed an append.
    pub post_recover_append_ok: bool,
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
    /// Sum of `durable_lost` (must be 0).
    pub durable_lost_total: u64,
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

/// Minimal self-cleaning tempdir (no external crates available).
struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let unique = format!(
            "bg3-disk-chaos-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )
        .replace(['(', ')'], "");
        let path = std::env::temp_dir().join(unique);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

fn chaos_store(root: &Path, plan: FaultPlan) -> AppendOnlyStore {
    StoreBuilder::counting()
        .backend_kind(BackendKind::File {
            root: root.to_path_buf(),
        })
        .faults(plan)
        .extent_capacity(1024)
        .build()
}

/// The deterministic payload of storm append `i` — recovery compares
/// byte-for-byte against this.
fn storm_payload(round: usize, i: u64) -> WalPayload {
    WalPayload::Upsert {
        key: format!("chaos-r{round}-{i}").into_bytes(),
        value: (i.wrapping_mul(31).wrapping_add(round as u64))
            .to_le_bytes()
            .to_vec(),
    }
}

/// Runs one storm round rooted at `root` and returns its audit trail.
fn run_round(root: &Path, round: usize, seed: u64) -> (DiskChaosRound, MetricsSnapshot) {
    std::fs::create_dir_all(root).unwrap();
    let store = chaos_store(root, storm_plan(round, seed));
    let writer = WalWriter::new(store.clone()).with_group_sync_every(4);

    // ---- Setup: TTL-carrying DELTA extents the reclaim phase can free. ----
    for i in 0..TTL_RECORDS {
        // Setup appends draw from the same seeded schedule; losing a few
        // to random ENOSPC is part of the storm.
        let _ = store.append(StreamId::DELTA, &[0xEE; 16], i + 1, Some(1_000));
    }
    store.clock().advance_nanos(10_000); // every TTL deadline passes

    let mut acked_records: BTreeMap<u64, WalPayload> = BTreeMap::new();
    let mut round_stats = DiskChaosRound {
        seed,
        storm: storm_name(round).to_string(),
        acked: 0,
        sync_failures: 0,
        enospc_errors: 0,
        torn_writes: 0,
        rejected_poisoned: 0,
        other_errors: 0,
        poisoned: false,
        acks_after_poison: 0,
        disk_full_window: false,
        health_in_window: String::new(),
        window_reads: 0,
        window_reads_ok: 0,
        extents_reclaimed: 0,
        health_after_reclaim: String::new(),
        recovered_from_full: false,
        acked_after_reclaim: 0,
        durable: 0,
        recovered: 0,
        durable_lost: 0,
        post_recover_append_ok: false,
    };

    let mut storm_append = |i: u64, stats: &mut DiskChaosRound, after_reclaim: bool| {
        // Shadow model: poisoning observed *before* the append must mean
        // the append cannot ack. Any Ok after this flag is a violation.
        let was_poisoned = writer.is_poisoned() || store.is_poisoned(StreamId::WAL);
        match writer.append(round as u64, i, storm_payload(round, i)) {
            Ok(rec) => {
                stats.acked += 1;
                if after_reclaim {
                    stats.acked_after_reclaim += 1;
                }
                if was_poisoned {
                    stats.acks_after_poison += 1;
                }
                acked_records.insert(rec.lsn.0, rec.payload);
            }
            Err(err) => match &err.kind {
                ErrorKind::SyncPoisoned { .. } => stats.rejected_poisoned += 1,
                ErrorKind::Io {
                    class: IoErrorClass::SyncFailed,
                    ..
                } => stats.sync_failures += 1,
                ErrorKind::Io {
                    class: IoErrorClass::NoSpace,
                    ..
                } => stats.enospc_errors += 1,
                ErrorKind::Io {
                    class: IoErrorClass::WriteZero,
                    ..
                } => stats.torn_writes += 1,
                _ => stats.other_errors += 1,
            },
        }
    };

    // ---- Storm: hammer the group-commit path through the fault plan. ----
    for i in 0..STORM_APPENDS {
        storm_append(i, &mut round_stats, false);
    }

    // ---- Full-window audit: reads must flow while writes shed. ----
    if store.is_disk_full() {
        round_stats.disk_full_window = true;
        round_stats.health_in_window = store.disk_health().to_string();
        match store.scan_stream(StreamId::WAL) {
            Ok(records) => {
                round_stats.window_reads = records.len() as u64;
                round_stats.window_reads_ok = records.len() as u64;
            }
            Err(_) => {
                // Count the failed audit as one attempted, zero served.
                round_stats.window_reads = 1;
            }
        }
    }

    // ---- Reclaim: expire TTL-dead DELTA extents; deletes free space. ----
    if let Ok(infos) = store.extent_infos(StreamId::DELTA) {
        for info in infos {
            if store.expire_extent(StreamId::DELTA, info.id).is_ok() {
                round_stats.extents_reclaimed += 1;
            }
        }
    }
    round_stats.health_after_reclaim = store.disk_health().to_string();
    round_stats.recovered_from_full = round_stats.disk_full_window
        && !store.is_disk_full()
        && !store.disk_health().sheds_writes();

    for i in 0..POST_RECLAIM_APPENDS {
        storm_append(STORM_APPENDS + i, &mut round_stats, true);
    }

    // ---- Kill: capture the durability floor, then drop everything. ----
    round_stats.poisoned = writer.is_poisoned() || store.is_poisoned(StreamId::WAL);
    round_stats.durable = writer.durable_lsn().0;
    let storm_metrics = store.metrics_snapshot();
    drop(writer);
    drop(store); // only the extent files survive

    // ---- Recover: plain file backend, no fault decoration. ----
    let recovered_store = StoreBuilder::counting()
        .backend_kind(BackendKind::File {
            root: root.to_path_buf(),
        })
        .extent_capacity(1024)
        .open()
        .expect("recovery open over surviving extent files");
    let (recovered_writer, replayed) =
        WalWriter::recover(recovered_store.clone()).expect("WAL recovery");
    round_stats.recovered = replayed.len() as u64;
    let by_lsn: BTreeMap<u64, &WalRecord> = replayed.iter().map(|r| (r.lsn.0, r)).collect();
    for (lsn, payload) in &acked_records {
        if *lsn > round_stats.durable {
            // Above the floor: the group-commit ack hole — loss is legal.
            continue;
        }
        match by_lsn.get(lsn) {
            Some(rec) if rec.payload == *payload => {}
            _ => round_stats.durable_lost += 1,
        }
    }
    round_stats.post_recover_append_ok = recovered_writer
        .append(round as u64, u64::MAX, storm_payload(round, u64::MAX))
        .is_ok()
        && recovered_writer.flush().is_ok();

    let mut metrics = storm_metrics;
    metrics.merge(&recovered_store.metrics_snapshot());
    (round_stats, metrics)
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
    let tmp = TempDir::new();
    let (trail, metrics) = run_once(&tmp.0.join("run0"), rounds);
    let (second_trail, _) = run_once(&tmp.0.join("run1"), rounds);
    let double_run_identical =
        serde_json::to_string(&trail).unwrap() == serde_json::to_string(&second_trail).unwrap();

    let report = DiskChaosReport {
        backend: "fault(file)".to_string(),
        acked_total: trail.iter().map(|r| r.acked).sum(),
        durable_lost_total: trail.iter().map(|r| r.durable_lost).sum(),
        acks_after_poison_total: trail.iter().map(|r| r.acks_after_poison).sum(),
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
    report.durable_lost_total == 0
        && report.acks_after_poison_total == 0
        && report.poisoned_rounds >= 1
        && report.full_window_rounds >= 1
        && report.window_reads >= 1
        && report.window_reads_ok == report.window_reads
        && report.recovered_from_full_rounds >= 1
        && report.rounds.iter().all(|r| r.post_recover_append_ok)
        && report.double_run_identical
}

/// Renders the pass/fail summary.
pub fn render(report: &DiskChaosReport) -> String {
    let mut out = String::from("Disk chaos: errno storms over the file backend\n");
    out.push_str(&format!(
        "storms       : {} rounds, {} acked, {} poisoned rounds, {} full-disk windows\n",
        report.rounds.len(),
        report.acked_total,
        report.poisoned_rounds,
        report.full_window_rounds,
    ));
    out.push_str(&format!(
        "fail-closed  : {} acks after poison, {} acked-durable lost across kill+recover\n",
        report.acks_after_poison_total, report.durable_lost_total,
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
    fn errno_storms_never_lose_acked_durable_writes() {
        let report = run(6);
        assert_eq!(report.durable_lost_total, 0, "acked-durable records lost");
        assert_eq!(
            report.acks_after_poison_total, 0,
            "a poisoned writer acked an append"
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
        assert!(report.rounds.iter().all(|r| r.post_recover_append_ok));
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
            assert!(round.enospc_errors >= 1, "no ENOSPC surfaced in the window");
        }
    }
}
