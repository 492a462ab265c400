//! Chaos harness: injected append faults plus a crash at every named crash
//! point, driven through the `chaos` experiment's mixed Follow workload.
//!
//! Each scenario is a [`Round`]: a durable [`Bg3Db`] whose every acked
//! write the graph oracle records, with one [`CrashPoint`] armed after a
//! warm-up. It keeps applying operations until the engine dies
//! mid-operation, then restarts it with `Bg3Db::recover` from the two
//! surviving pieces of state (the shared store and the shared mapping
//! table) and asserts the recovered graph passes the oracle's audit. Read
//! ticks audit the live engine along the way.
//!
//! The op that observed the crash is the oracle's in-flight write: it must
//! be atomically present or absent, and the oracle adopts whichever the
//! engine chose.
//!
//! A last scenario composes the faults: a file-backed round under an errno
//! storm (append failures, `ENOSPC`, fsync `EIO`) with a group-commit crash
//! armed inside it, run twice per seed.

use bg3_bench::experiments::chaos::{chaos_config, gc_beat, op_at, HOT_USERS, USERS};
use bg3_bench::experiments::scenario::{no_beat, Round};
use bg3_core::prelude::*;
use bg3_graph::{Mutation, Oracle, Reads};
use bg3_storage::{splitmix64 as mix, TempDir};
use std::sync::Mutex;

/// Audits the follow adjacency and vertex of every source in `sources`.
fn assert_clean(db: &Bg3Db, oracle: &Oracle, sources: &[VertexId], label: &str) {
    let audit = oracle.audit(Reads::Scan {
        store: db,
        etype: EdgeType::FOLLOW,
        sources,
    });
    assert!(audit.is_clean(), "{label}: {audit:?}");
}

/// The beat of a crash-point round: read ticks audit the live engine
/// (reads never hit a crash point), then the GC beat runs.
fn live_reads_and_gc(point: CrashPoint) -> impl FnMut(&Bg3Db, &Oracle, u64) -> StorageResult<()> {
    move |db, oracle, i| {
        if op_at(i).is_none() {
            let probe = VertexId(mix(i) % HOT_USERS);
            assert_clean(db, oracle, &[probe], "live");
        }
        gc_beat(point, db, i)
    }
}

/// Runs the full scenario for one crash point.
fn crash_and_recover_at(point: CrashPoint) {
    const WARM_UP: u64 = 150;
    const MAX_OPS: u64 = 6_000;
    let mut round = Round::open(chaos_config());
    let died = round.drive(
        0..MAX_OPS,
        op_at,
        Some((WARM_UP, point)),
        live_reads_and_gc(point),
    );
    let died = died.unwrap_or_else(|| panic!("{point:?} never fired within {MAX_OPS} ops"));
    assert!(died >= WARM_UP, "crash must postdate the warm-up");
    assert!(
        round.tally.crashed == 1 && round.tally.errors() == 1,
        "only the armed crash may fail an op or a beat: {:?}",
        round.tally
    );
    assert!(
        round.db().store().fault_injector().total_fired() > 0,
        "append faults should have fired along the way"
    );

    let users: Vec<VertexId> = (0..USERS).map(VertexId).collect();
    round.recover(|_| false);
    let audit = round.audit(&users);
    assert!(audit.is_clean(), "after recovery: {audit:?}");

    // The recovered engine is a live engine: keep the workload going (fresh
    // op range) and stay convergent, including another group commit.
    let errors = round.tally.errors();
    assert_eq!(
        round.drive(MAX_OPS..MAX_OPS + 300, op_at, None, no_beat),
        None
    );
    assert_eq!(
        round.tally.errors(),
        errors,
        "the recovered engine fails no write"
    );
    round.db().checkpoint().unwrap();
    let audit = round.audit(&users);
    assert!(audit.is_clean(), "after checkpoint: {audit:?}");
}

/// 8 OS threads hammer one durable engine (append faults still firing)
/// through put / delete / read / split-out traffic on the lock-striped
/// forest. Each thread owns a disjoint source-vertex range and records its
/// acked writes in one shared oracle, so a thread's live read of its own
/// sources is race-free; at the end every source must pass the oracle's
/// audit, split-outs must actually have happened concurrently, and a
/// checkpoint afterwards must not disturb convergence.
#[test]
fn striped_forest_survives_concurrent_put_get_split_out() {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 700;
    /// Sources per thread; the first two are hot enough to split out.
    const SRCS_PER_THREAD: u64 = 12;

    let db = Bg3Db::new(chaos_config());
    let oracle = Mutex::new(Oracle::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, oracle) = (&db, &oracle);
            scope.spawn(move || {
                let base = 10_000 + t * 100;
                for i in 0..OPS_PER_THREAD {
                    let r = mix((t << 32) | i);
                    // Skew toward the two hot sources so split-out
                    // (threshold 12) fires early and often per thread.
                    let src = if r.is_multiple_of(3) {
                        VertexId(base + mix(r) % SRCS_PER_THREAD)
                    } else {
                        VertexId(base + mix(r) % 2)
                    };
                    let dst = VertexId(1_000 + mix(r ^ 0xABCD) % 150);
                    let write = match r % 10 {
                        0..=6 => Mutation::InsertEdge(Edge {
                            src,
                            etype: EdgeType::FOLLOW,
                            dst,
                            props: i.to_le_bytes().to_vec(),
                        }),
                        7 => Mutation::DeleteEdge((src, EdgeType::FOLLOW, dst)),
                        8 => Mutation::InsertVertex(Vertex {
                            id: src,
                            props: i.to_le_bytes().to_vec(),
                        }),
                        _ => {
                            // Read beat: this thread's sources only.
                            assert_clean(db, &oracle.lock().unwrap(), &[src], "live");
                            continue;
                        }
                    };
                    write.apply(db).unwrap();
                    oracle.lock().unwrap().ack(write);
                }
            });
        }
    });

    assert!(
        db.store().fault_injector().total_fired() > 0,
        "append faults should have fired under the concurrent load"
    );
    assert!(
        db.forest().tree_count() > 1,
        "hot sources split out into dedicated trees while racing"
    );
    let oracle = oracle.into_inner().unwrap();
    let sources: Vec<VertexId> = (0..THREADS)
        .flat_map(|t| (0..SRCS_PER_THREAD).map(move |s| VertexId(10_000 + t * 100 + s)))
        .collect();
    assert_clean(&db, &oracle, &sources, "after join");
    db.checkpoint().unwrap();
    assert_clean(&db, &oracle, &sources, "after checkpoint");
}

#[test]
fn crash_mid_flush_recovers_to_shadow_model() {
    crash_and_recover_at(CrashPoint::MidFlush);
}

#[test]
fn crash_mid_split_recovers_to_shadow_model() {
    crash_and_recover_at(CrashPoint::MidSplit);
}

#[test]
fn crash_mid_gc_cycle_recovers_to_shadow_model() {
    crash_and_recover_at(CrashPoint::MidGcCycle);
}

#[test]
fn crash_mid_group_commit_recovers_to_shadow_model() {
    crash_and_recover_at(CrashPoint::MidGroupCommit);
}

/// One file-backed round of the composed storm for `seed`, in a fresh
/// directory: append failures, `ENOSPC` writes and fsync `EIO` from the
/// seeded plan, and a group-commit crash armed after the warm-up. Returns
/// the round's trail, and whether an errno fault and the crash both fired
/// before the kill.
fn composed_round(seed: u64) -> (String, bool) {
    const WARM_UP: u64 = 150;
    const MAX_OPS: u64 = 1_500;
    let root = TempDir::new("composed");
    let mut config = chaos_config();
    config.store = config
        .store
        .with_backend(BackendKind::File {
            root: root.0.clone(),
        })
        .with_faults(
            FaultPlan::seeded(seed)
                .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 0.04))
                .no_space_writes(0.02)
                .fail_syncs(0.002),
        );
    let mut round = Round::open(config);
    let point = CrashPoint::MidGroupCommit;
    let died = round.drive(0..MAX_OPS, op_at, Some((WARM_UP, point)), no_beat);
    let faults_fired = round.db().store().fault_injector().total_fired();
    let tally = round.tally;
    let both = tally.crashed == 1 && tally.no_space + tally.sync_failed > 0;
    round.recover(|_| false);
    let users: Vec<VertexId> = (0..USERS).map(VertexId).collect();
    let audit = round.audit(&users);
    assert!(audit.is_clean(), "seed {seed}: {audit:?} after {tally:?}");
    assert_eq!(
        tally.acks_after_poison, 0,
        "seed {seed}: acked after poison"
    );
    let trail = format!(
        "{tally:?} died at {died:?}, {faults_fired} faults, recovered to {:?}, {audit:?}",
        round.db().last_lsn()
    );
    (trail, both)
}

/// Crash × errno in one seeded run: every seed's round is run twice into
/// separate directories, the two trails must match, every recovered engine
/// must pass the oracle's audit, and at least one seed must have fired
/// both an errno fault and the crash before the kill.
#[test]
fn a_crash_inside_an_errno_storm_recovers_and_replays_from_its_seed() {
    let mut composed = 0;
    for seed in 0..5u64 {
        let (first, second) = (composed_round(seed), composed_round(seed));
        assert_eq!(first, second, "seed {seed} diverged between runs");
        composed += first.1 as u32;
    }
    assert!(composed >= 1, "no seed fired an errno fault and the crash");
}
