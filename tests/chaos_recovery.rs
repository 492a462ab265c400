//! Chaos harness: injected append faults plus a crash at every named crash
//! point, driven through a mixed Follow workload.
//!
//! Each scenario runs a durable [`Bg3Db`] and an in-memory shadow model
//! side by side, arms one [`CrashPoint`] after a warm-up, keeps applying
//! operations until the engine dies mid-operation, then restarts it with
//! [`Bg3Db::recover`] from the two surviving pieces of state (the shared
//! store and the shared mapping table) and asserts the recovered graph
//! matches the shadow exactly.
//!
//! The op that observed the crash is the only one whose effect is allowed
//! to be in-flight: it must be atomically present or absent, and the
//! shadow is reconciled to whichever the engine chose.

use bg3_core::prelude::*;
use bg3_graph::MemGraph;

/// Workload universe: a handful of hot users (who split out into dedicated
/// trees) plus a long tail.
const USERS: u64 = 48;
const HOT_USERS: u64 = 5;

/// splitmix64 — the test's deterministic op source.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A mutation whose effect must be re-checked after a crash interrupted it.
#[derive(Debug, Clone)]
enum ShadowOp {
    InsertEdge(Edge),
    DeleteEdge(VertexId, EdgeType, VertexId),
    InsertVertex(Vertex),
}

/// Mixed Follow workload: mostly follow insertions (so flush / split /
/// group-commit paths stay busy), some unfollows, vertex upserts, and
/// one-hop reads.
fn op_at(i: u64) -> Option<ShadowOp> {
    let r = mix(i);
    let src = if r.is_multiple_of(3) {
        VertexId(mix(r) % USERS)
    } else {
        VertexId(mix(r) % HOT_USERS)
    };
    let dst = VertexId(1_000 + mix(r ^ 0xABCD) % 200);
    match r % 10 {
        0..=5 => Some(ShadowOp::InsertEdge(Edge {
            src,
            etype: EdgeType::FOLLOW,
            dst,
            props: i.to_le_bytes().to_vec(),
        })),
        6 => Some(ShadowOp::DeleteEdge(src, EdgeType::FOLLOW, dst)),
        7 => Some(ShadowOp::InsertVertex(Vertex {
            id: src,
            props: i.to_le_bytes().to_vec(),
        })),
        // Reads don't mutate; the driver issues them directly.
        _ => None,
    }
}

fn apply(store: &dyn GraphStore, op: &ShadowOp) -> StorageResult<()> {
    match op {
        ShadowOp::InsertEdge(edge) => store.insert_edge(edge),
        ShadowOp::DeleteEdge(src, etype, dst) => store.delete_edge(*src, *etype, *dst),
        ShadowOp::InsertVertex(vertex) => store.insert_vertex(vertex),
    }
}

/// Durable engine config under fault injection: small pages and a low
/// split-out threshold keep every crash point's code path hot, and a 4%
/// append failure rate exercises the retry policy throughout.
fn chaos_config() -> Bg3Config {
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
    config.durability = Some(bg3_core::DurabilityConfig {
        group_commit_pages: 6,
    });
    config
}

/// Every source vertex the engine and shadow must agree on.
fn assert_graphs_match(db: &Bg3Db, shadow: &MemGraph) {
    for u in 0..USERS {
        let id = VertexId(u);
        assert_eq!(
            db.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap(),
            shadow.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap(),
            "adjacency divergence at vertex {u}"
        );
        assert_eq!(
            db.get_vertex(id).unwrap(),
            shadow.get_vertex(id).unwrap(),
            "vertex divergence at {u}"
        );
    }
}

/// The crashed op is allowed to have landed or not — but nothing in
/// between. Reconcile the shadow to the engine's choice.
fn reconcile(db: &Bg3Db, shadow: &MemGraph, op: &ShadowOp) {
    match op {
        ShadowOp::InsertEdge(edge) => {
            if db
                .get_edge(edge.src, edge.etype, edge.dst)
                .unwrap()
                .as_deref()
                == Some(edge.props.as_slice())
            {
                shadow.insert_edge(edge).unwrap();
            }
        }
        ShadowOp::DeleteEdge(src, etype, dst) => {
            if db.get_edge(*src, *etype, *dst).unwrap().is_none() {
                shadow.delete_edge(*src, *etype, *dst).unwrap();
            }
        }
        ShadowOp::InsertVertex(vertex) => {
            if db.get_vertex(vertex.id).unwrap().as_deref() == Some(vertex.props.as_slice()) {
                shadow.insert_vertex(vertex).unwrap();
            }
        }
    }
}

/// Runs the full scenario for one crash point and returns how many ops ran
/// before the crash (so the test can assert the scenario was non-trivial).
fn crash_and_recover_at(point: CrashPoint) -> u64 {
    let config = chaos_config();
    let db = Bg3Db::new(config.clone());
    let shadow = MemGraph::new();

    const WARM_UP: u64 = 150;
    const MAX_OPS: u64 = 6_000;
    let mut crashed: Option<ShadowOp> = None;
    let mut died = false;
    let mut ops_done = 0u64;
    for i in 0..MAX_OPS {
        if i == WARM_UP {
            db.crash_switch().arm(point);
        }
        match op_at(i) {
            Some(op) => match apply(&db, &op) {
                Ok(()) => apply(&shadow, &op).unwrap(),
                Err(e) => {
                    assert!(e.is_crash(), "only the armed crash may kill an op: {e:?}");
                    crashed = Some(op);
                    died = true;
                }
            },
            None => {
                // Reads never hit a crash point; spot-check live equality.
                let probe = VertexId(mix(i) % HOT_USERS);
                assert_eq!(
                    db.neighbors(probe, EdgeType::FOLLOW, 16).unwrap(),
                    shadow.neighbors(probe, EdgeType::FOLLOW, 16).unwrap()
                );
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

    let recovered = Bg3Db::recover(store, mapping, config).unwrap();
    if let Some(op) = &crashed {
        reconcile(&recovered, &shadow, op);
    }
    assert_graphs_match(&recovered, &shadow);

    // The recovered engine is a live engine: keep the workload going (fresh
    // op range) and stay convergent, including another group commit.
    for i in MAX_OPS..MAX_OPS + 300 {
        if let Some(op) = op_at(i) {
            apply(&recovered, &op).unwrap();
            apply(&shadow, &op).unwrap();
        }
    }
    recovered.checkpoint().unwrap();
    assert_graphs_match(&recovered, &shadow);
    ops_done
}

/// 8 OS threads hammer one durable engine (append faults still firing)
/// through put / delete / read / split-out traffic on the lock-striped
/// forest. Each thread owns a disjoint source-vertex range, so a
/// per-thread [`MemGraph`] shadow is race-free; at the end every thread's
/// shadow must match the shared engine exactly, split-outs must actually
/// have happened concurrently, and a checkpoint afterwards must not
/// disturb convergence.
#[test]
fn striped_forest_survives_concurrent_put_get_split_out() {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 700;
    /// Sources per thread; the first two are hot enough to split out.
    const SRCS_PER_THREAD: u64 = 12;

    let db = Bg3Db::new(chaos_config());
    let shadows: Vec<MemGraph> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let shadow = MemGraph::new();
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
                        let op = match r % 10 {
                            0..=6 => ShadowOp::InsertEdge(Edge {
                                src,
                                etype: EdgeType::FOLLOW,
                                dst,
                                props: i.to_le_bytes().to_vec(),
                            }),
                            7 => ShadowOp::DeleteEdge(src, EdgeType::FOLLOW, dst),
                            8 => ShadowOp::InsertVertex(Vertex {
                                id: src,
                                props: i.to_le_bytes().to_vec(),
                            }),
                            _ => {
                                // Read beat: this thread's sources only, so
                                // the local shadow is authoritative.
                                assert_eq!(
                                    db.neighbors(src, EdgeType::FOLLOW, 16).unwrap(),
                                    shadow.neighbors(src, EdgeType::FOLLOW, 16).unwrap(),
                                    "live divergence at {src:?}"
                                );
                                continue;
                            }
                        };
                        apply(db, &op).unwrap();
                        apply(&shadow, &op).unwrap();
                    }
                    shadow
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        db.store().fault_injector().total_fired() > 0,
        "append faults should have fired under the concurrent load"
    );
    assert!(
        db.forest().tree_count() > 1,
        "hot sources split out into dedicated trees while racing"
    );
    let verify = |label: &str| {
        for (t, shadow) in shadows.iter().enumerate() {
            for s in 0..SRCS_PER_THREAD {
                let id = VertexId(10_000 + t as u64 * 100 + s);
                assert_eq!(
                    db.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap(),
                    shadow.neighbors(id, EdgeType::FOLLOW, usize::MAX).unwrap(),
                    "{label}: adjacency divergence at thread {t} src {s}"
                );
                assert_eq!(
                    db.get_vertex(id).unwrap(),
                    shadow.get_vertex(id).unwrap(),
                    "{label}: vertex divergence at thread {t} src {s}"
                );
            }
        }
    };
    verify("after join");
    db.checkpoint().unwrap();
    verify("after checkpoint");
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
