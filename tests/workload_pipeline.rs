//! End-to-end pipeline tests: Table-1 workload generators driving complete
//! engines, including the replicated deployment.

use bg3_core::{Bg3Config, Bg3Db, ReplicatedBg3, ReplicatedConfig};
use bg3_graph::{k_hop_neighbors, CycleQuery, Edge, GraphStore, HopSpec, PatternMatcher};
use bg3_workloads::{DouyinFollow, FinancialRiskControl, Op, WorkloadGen};

fn apply(store: &dyn GraphStore, op: &Op) {
    match op {
        Op::InsertEdge {
            src,
            etype,
            dst,
            props,
        } => store
            .insert_edge(&Edge {
                src: *src,
                etype: *etype,
                dst: *dst,
                props: props.clone(),
            })
            .unwrap(),
        Op::OneHop { src, etype, limit } => {
            store.neighbors(*src, *etype, *limit).unwrap();
        }
        Op::KHop {
            src,
            etype,
            hops,
            fanout,
        } => {
            k_hop_neighbors(
                store,
                *src,
                *etype,
                HopSpec {
                    hops: *hops,
                    fanout: *fanout,
                    max_vertices: 200,
                },
            )
            .unwrap();
        }
        Op::DeleteEdge { src, etype, dst } => {
            store.delete_edge(*src, *etype, *dst).unwrap();
        }
        Op::CheckEdge { src, etype, dst } => {
            store.get_edge(*src, *etype, *dst).unwrap();
        }
        Op::PatternCycle {
            anchor,
            etype,
            length,
        } => {
            PatternMatcher {
                candidate_cap: 4,
                max_matches: 1,
                max_expansions: 500,
            }
            .has_cycle(
                store,
                CycleQuery {
                    etype: *etype,
                    length: *length,
                },
                *anchor,
            )
            .unwrap();
        }
    }
}

#[test]
fn follow_workload_runs_on_bg3_and_inserts_are_readable() {
    let db = Bg3Db::new(Bg3Config::default());
    let mut gen = DouyinFollow::new(2_000, 1.0, 5);
    let mut inserted = Vec::new();
    for _ in 0..5_000 {
        let op = gen.next_op();
        if let Op::InsertEdge {
            src, etype, dst, ..
        } = &op
        {
            inserted.push((*src, *etype, *dst));
        }
        apply(&db, &op);
    }
    assert!(!inserted.is_empty());
    for (src, etype, dst) in inserted {
        assert!(
            db.get_edge(src, etype, dst).unwrap().is_some(),
            "insert of ({src}, {dst}) durable"
        );
    }
}

#[test]
fn risk_control_workload_runs_on_replicated_bg3_with_full_recall() {
    let dep = ReplicatedBg3::new(ReplicatedConfig {
        ro_nodes: 2,
        ..ReplicatedConfig::default()
    });
    let mut gen = FinancialRiskControl::new(1_000, 1.0, 8);
    let mut audit = Vec::new();
    for i in 0..2_000 {
        match gen.next_op() {
            Op::InsertEdge {
                src,
                etype,
                dst,
                props,
            } => {
                dep.insert_edge(&Edge {
                    src,
                    etype,
                    dst,
                    props,
                })
                .unwrap();
                audit.push((src, etype, dst));
            }
            Op::CheckEdge { src, etype, dst } => {
                // The workload only checks edges it previously inserted; a
                // synchronized follower must see them (strong consistency).
                dep.poll_all().unwrap();
                assert!(
                    dep.ro_check_edge(0, src, etype, dst).unwrap(),
                    "op {i}: follower missed a verified edge"
                );
            }
            Op::DeleteEdge { src, etype, dst } => {
                dep.delete_edge(src, etype, dst).unwrap();
                audit.retain(|e| *e != (src, etype, dst));
            }
            Op::PatternCycle { .. } | Op::OneHop { .. } | Op::KHop { .. } => {
                // Deep analysis runs against follower 1's replica.
                dep.poll_all().unwrap();
            }
        }
        if i % 500 == 499 {
            dep.checkpoint().unwrap();
        }
    }
    dep.poll_all().unwrap();
    for ro in 0..dep.ro_count() {
        assert_eq!(dep.recall(ro, &audit).unwrap(), 1.0, "follower {ro}");
    }
}
