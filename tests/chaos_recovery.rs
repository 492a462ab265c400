//! Chaos harness: injected append faults plus a crash at every named crash
//! point, driven through a mixed Follow workload.
//!
//! Each scenario runs a durable [`Bg3Db`] and records every acked write in
//! the graph [`Oracle`], arms one [`CrashPoint`] after a warm-up, keeps
//! applying operations until the engine dies mid-operation, then restarts
//! it with [`Bg3Db::recover`] from the two surviving pieces of state (the
//! shared store and the shared mapping table) and asserts the recovered
//! graph passes the oracle's audit.
//!
//! The op that observed the crash is the oracle's in-flight write: it must
//! be atomically present or absent, and the oracle adopts whichever the
//! engine chose.

use bg3_bench::experiments::chaos::chaos_config;
use bg3_core::prelude::*;
use bg3_graph::{Mutation, Oracle, Reads};
use bg3_storage::splitmix64 as mix;
use std::sync::Mutex;

/// Workload universe: a handful of hot users (who split out into dedicated
/// trees) plus a long tail.
const USERS: u64 = 48;
const HOT_USERS: u64 = 5;

/// Mixed Follow workload: mostly follow insertions (so flush / split /
/// group-commit paths stay busy), some unfollows, vertex upserts, and
/// one-hop reads (`None`).
fn op_at(i: u64) -> Option<Mutation> {
    let r = mix(i);
    let src = if r.is_multiple_of(3) {
        VertexId(mix(r) % USERS)
    } else {
        VertexId(mix(r) % HOT_USERS)
    };
    let dst = VertexId(1_000 + mix(r ^ 0xABCD) % 200);
    match r % 10 {
        0..=5 => Some(Mutation::InsertEdge(Edge {
            src,
            etype: EdgeType::FOLLOW,
            dst,
            props: i.to_le_bytes().to_vec(),
        })),
        6 => Some(Mutation::DeleteEdge((src, EdgeType::FOLLOW, dst))),
        7 => Some(Mutation::InsertVertex(Vertex {
            id: src,
            props: i.to_le_bytes().to_vec(),
        })),
        _ => None,
    }
}

/// Audits the follow adjacency and vertex of every source in `sources`.
fn assert_clean(db: &Bg3Db, oracle: &Oracle, sources: &[VertexId], label: &str) {
    let audit = oracle.audit(Reads::Scan {
        store: db,
        etype: EdgeType::FOLLOW,
        sources,
    });
    assert!(audit.is_clean(), "{label}: {audit:?}");
}

/// Runs the full scenario for one crash point and returns how many ops ran
/// before the crash (so the test can assert the scenario was non-trivial).
fn crash_and_recover_at(point: CrashPoint) -> u64 {
    let config = chaos_config();
    let db = Bg3Db::new(config.clone());
    let mut oracle = Oracle::new();

    const WARM_UP: u64 = 150;
    const MAX_OPS: u64 = 6_000;
    let mut died = false;
    let mut ops_done = 0u64;
    for i in 0..MAX_OPS {
        if i == WARM_UP {
            db.crash_switch().arm(point);
        }
        match op_at(i) {
            Some(write) => match write.apply(&db) {
                Ok(()) => oracle.ack(write),
                Err(e) => {
                    assert!(e.is_crash(), "only the armed crash may kill an op: {e:?}");
                    oracle.in_flight(write);
                    died = true;
                }
            },
            None => {
                // Reads never hit a crash point; spot-check live equality.
                let probe = VertexId(mix(i) % HOT_USERS);
                assert_clean(&db, &oracle, &[probe], "live");
            }
        }
        ops_done = i + 1;
        if died {
            break;
        }
        // Background maintenance beat: gives MidGcCycle a trigger and makes
        // the other crash points coexist with live reclamation.
        if point == CrashPoint::MidGcCycle && i % 64 == 63 {
            if let Err(e) = db.run_gc_cycle(2) {
                assert!(e.is_crash(), "gc may only die at the crash point: {e:?}");
                died = true;
                break;
            }
        }
    }
    assert!(died, "{point:?} never fired within {MAX_OPS} ops");
    assert!(ops_done > WARM_UP, "crash must postdate the warm-up");
    assert!(
        db.store().fault_injector().total_fired() > 0,
        "append faults should have fired along the way"
    );

    // The node dies. Only the shared store and the mapping table survive.
    let store = db.store().clone();
    let mapping = db.mapping().unwrap().clone();
    drop(db);

    let users: Vec<VertexId> = (0..USERS).map(VertexId).collect();
    let recovered = Bg3Db::recover(store, mapping, config).unwrap();
    oracle.settle(&recovered).unwrap();
    assert_clean(&recovered, &oracle, &users, "after recovery");

    // The recovered engine is a live engine: keep the workload going (fresh
    // op range) and stay convergent, including another group commit.
    for i in MAX_OPS..MAX_OPS + 300 {
        if let Some(write) = op_at(i) {
            write.apply(&recovered).unwrap();
            oracle.ack(write);
        }
    }
    recovered.checkpoint().unwrap();
    assert_clean(&recovered, &oracle, &users, "after checkpoint");
    ops_done
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
