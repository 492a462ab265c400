//! Cross-crate integration tests of the leader-follower machinery: in the
//! replicated deployment, a follower must agree with the durable `Bg3Db`
//! leader after any interleaving of edge and vertex writes, checkpoints,
//! polls, and cache evictions.

use bg3_core::{follower_get_edge, follower_neighbors, Bg3Config, ReplicatedBg3, ReplicatedConfig};
use bg3_graph::{Edge, EdgeType, GraphStore, Vertex, VertexId};
use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, StoreConfig};
use bg3_sync::{RoNode, RoNodeConfig};
use bg3_wal::Lsn;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Key `k` names the edge `k / 16 -FOLLOW-> k % 16` (16 adjacency lists
/// of 16 edges) and the vertex `k`.
fn endpoints(key: u8) -> (VertexId, EdgeType, VertexId) {
    (
        VertexId(key as u64 / 16),
        EdgeType::FOLLOW,
        VertexId(key as u64 % 16),
    )
}

fn edge(key: u8, value: u8) -> Edge {
    let (src, etype, dst) = endpoints(key);
    Edge::new(src, etype, dst).with_props(vec![value])
}

fn vertex(key: u8, value: u8) -> Vertex {
    Vertex {
        id: VertexId(key as u64),
        props: vec![value],
    }
}

/// What a write touched: edge `key` or vertex `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Edge(u8),
    Vertex(u8),
}

fn write(dep: &ReplicatedBg3, target: Target, value: Option<u8>) {
    match (target, value) {
        (Target::Edge(key), Some(value)) => dep.insert_edge(&edge(key, value)).unwrap(),
        (Target::Edge(key), None) => {
            let (src, etype, dst) = endpoints(key);
            dep.delete_edge(src, etype, dst).unwrap()
        }
        (Target::Vertex(key), Some(value)) => dep.insert_vertex(&vertex(key, value)).unwrap(),
        (Target::Vertex(_), None) => unreachable!("vertices are never deleted"),
    }
}

/// Reads `target` on follower 0.
fn ro_read(dep: &ReplicatedBg3, target: Target) -> bg3_storage::StorageResult<Option<Vec<u8>>> {
    match target {
        Target::Edge(key) => {
            let (src, etype, dst) = endpoints(key);
            dep.ro_get_edge(0, src, etype, dst)
        }
        Target::Vertex(key) => dep.ro_get_vertex(0, VertexId(key as u64)),
    }
}

/// Reads `target` in the leader's memory.
fn leader_read(dep: &ReplicatedBg3, target: Target) -> Option<Vec<u8>> {
    let leader = dep.leader().unwrap();
    match target {
        Target::Edge(key) => {
            let (src, etype, dst) = endpoints(key);
            leader.get_edge(src, etype, dst).unwrap()
        }
        Target::Vertex(key) => leader.get_vertex(VertexId(key as u64)).unwrap(),
    }
}

fn every_target() -> impl Iterator<Item = Target> {
    (0u8..=255).flat_map(|key| [Target::Edge(key), Target::Vertex(key)])
}

/// A leader that checkpoints only when told to, and one follower caching
/// at most `cache_capacity_pages` pages.
fn deployment(leader: Bg3Config, cache_capacity_pages: usize) -> ReplicatedBg3 {
    ReplicatedBg3::new(ReplicatedConfig {
        leader: Bg3Config {
            durability: Bg3Config::default()
                .with_group_commit_pages(usize::MAX)
                .durability,
            ..leader
        },
        ro_nodes: 1,
        ro: RoNodeConfig {
            cache_capacity_pages,
            ..RoNodeConfig::default()
        },
        ..ReplicatedConfig::default()
    })
}

/// Small pages force splits and consolidations into the mix; a 4-page
/// follower cache forces evictions and storage re-fetches; a split-out
/// threshold of 3 moves most sources into dedicated trees mid-run.
fn small_page_deployment() -> ReplicatedBg3 {
    let mut leader = Bg3Config::default();
    leader.forest.split_out_threshold = 3;
    leader.forest.tree_config = leader
        .forest
        .tree_config
        .with_max_page_entries(8)
        .with_consolidate_threshold(3);
    deployment(leader, 4)
}

#[derive(Debug, Clone)]
enum Step {
    Put { key: u8, value: u8 },
    Delete { key: u8 },
    PutVertex { key: u8, value: u8 },
    Checkpoint,
    Poll,
    EvictRoCache,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>()).prop_map(|(key, value)| Step::Put { key, value }),
        2 => any::<u8>().prop_map(|key| Step::Delete { key }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(key, value)| Step::PutVertex { key, value }),
        1 => Just(Step::Checkpoint),
        2 => Just(Step::Poll),
        1 => Just(Step::EvictRoCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn follower_converges_to_leader(steps in proptest::collection::vec(step_strategy(), 1..150)) {
        let dep = small_page_deployment();
        let ro = dep.ro(0);
        let mut model = BTreeMap::new();
        for step in &steps {
            let (target, value) = match *step {
                Step::Put { key, value } => (Target::Edge(key), Some(value)),
                Step::Delete { key } => (Target::Edge(key), None),
                Step::PutVertex { key, value } => (Target::Vertex(key), Some(value)),
                Step::Checkpoint => { dep.checkpoint().unwrap(); continue; }
                Step::Poll => { ro.poll().unwrap(); continue; }
                Step::EvictRoCache => { ro.evict_all(); continue; }
            };
            write(&dep, target, value);
            match value {
                Some(v) => model.insert(target, v),
                None => model.remove(&target),
            };
        }
        // After one final poll the follower must agree with both the
        // leader's memory and the logical model, for every edge and vertex.
        ro.poll().unwrap();
        for target in every_target() {
            let expected = model.get(&target).map(|v| vec![*v]);
            prop_assert_eq!(
                leader_read(&dep, target),
                expected.clone(),
                "leader diverged from model at {:?}", target
            );
            prop_assert_eq!(
                ro_read(&dep, target).unwrap(),
                expected,
                "follower diverged at {:?}", target
            );
        }
    }

    #[test]
    fn follower_is_consistent_even_mid_stream(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..80),
        poll_every in 1usize..10,
    ) {
        // Strong-consistency check the paper's Fig. 12 formalizes: any edge
        // or vertex the leader wrote before the follower's latest poll is
        // readable.
        let dep = small_page_deployment();
        let mut acked = BTreeMap::new();
        for (i, &(key, value, is_vertex)) in writes.iter().enumerate() {
            let target = if is_vertex { Target::Vertex(key) } else { Target::Edge(key) };
            write(&dep, target, Some(value));
            acked.insert(target, value);
            if i % poll_every == 0 {
                dep.poll_all().unwrap();
                // Everything acknowledged so far must be visible now.
                for (&target, &v) in &acked {
                    prop_assert_eq!(
                        ro_read(&dep, target).unwrap(),
                        Some(vec![v]),
                        "recall violated for {:?}", target
                    );
                }
            }
        }
    }
}

/// Chaos step: like [`Step`] but with explicit consistency checks mixed in.
#[derive(Debug, Clone)]
enum ChaosStep {
    Put { key: u8, value: u8 },
    Delete { key: u8 },
    PutVertex { key: u8, value: u8 },
    Checkpoint,
    Poll,
    EvictRoCache,
    Check { key: u8 },
    CheckVertex { key: u8 },
}

fn chaos_step_strategy() -> impl Strategy<Value = ChaosStep> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>()).prop_map(|(key, value)| ChaosStep::Put { key, value }),
        2 => any::<u8>().prop_map(|key| ChaosStep::Delete { key }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(key, value)| ChaosStep::PutVertex { key, value }),
        2 => Just(ChaosStep::Checkpoint),
        3 => Just(ChaosStep::Poll),
        1 => Just(ChaosStep::EvictRoCache),
        4 => any::<u8>().prop_map(|key| ChaosStep::Check { key }),
        2 => any::<u8>().prop_map(|key| ChaosStep::CheckVertex { key }),
    ]
}

/// The logical state once every record with `lsn <= seen` has applied.
fn state_at(log: &[(Lsn, Target, Option<u8>)], seen: Lsn) -> BTreeMap<Target, u8> {
    let mut state = BTreeMap::new();
    for (lsn, target, value) in log {
        if *lsn > seen {
            break;
        }
        match value {
            Some(v) => {
                state.insert(*target, *v);
            }
            None => {
                state.remove(target);
            }
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chaos property (failover satellite): under a budgeted schedule of
    /// read faults and dropped mapping publishes, a follower may *fail*
    /// a read (transiently) but must never *answer it wrongly* — every
    /// successful read reflects exactly the prefix of the log the follower
    /// has applied. Once the fault budgets are spent the pair converges.
    #[test]
    fn follower_never_diverges_under_read_faults_and_dropped_publishes(
        seed in any::<u64>(),
        steps in proptest::collection::vec(chaos_step_strategy(), 20..120),
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_rule(FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 0.3).at_most(10))
            .with_rule(
                FaultRule::new(FaultOp::MappingPublish, FaultKind::PublishDrop, 0.6).at_most(5),
            );
        let mut leader = Bg3Config {
            store: StoreConfig::counting().with_faults(plan),
            ..Bg3Config::default()
        };
        leader.forest.split_out_threshold = 3;
        // Two cached pages: evictions force faultable re-reads; split-outs
        // land between polls.
        let dep = deployment(leader, 2);
        let ro = dep.ro(0);
        let lsn = || dep.leader().unwrap().last_lsn();
        // Oracle: the exact WAL order of logical writes. The leader never
        // reads from shared storage on this path, so its writes are
        // infallible even under the read-fault rule.
        let mut log: Vec<(Lsn, Target, Option<u8>)> = Vec::new();
        for step in &steps {
            let (target, value) = match *step {
                ChaosStep::Put { key, value } => (Target::Edge(key), Some(value)),
                ChaosStep::Delete { key } => (Target::Edge(key), None),
                ChaosStep::PutVertex { key, value } => (Target::Vertex(key), Some(value)),
                ChaosStep::Checkpoint => {
                    // A dropped publish inside is absorbed (the horizon is
                    // withheld and the updates restaged); a read fault in
                    // the flush path surfaces transiently and the next
                    // checkpoint picks the work back up.
                    if let Err(e) = dep.checkpoint() {
                        prop_assert!(e.is_transient(), "checkpoint failed hard: {}", e);
                    }
                    continue;
                }
                ChaosStep::Poll => {
                    // A mid-poll read fault leaves a prefix applied; that
                    // is fine because `seen_lsn` only covers applied records.
                    if let Err(e) = ro.poll() {
                        prop_assert!(e.is_transient(), "poll failed hard: {}", e);
                    }
                    continue;
                }
                ChaosStep::EvictRoCache => { ro.evict_all(); continue; }
                ChaosStep::Check { key } | ChaosStep::CheckVertex { key } => {
                    let target = match step {
                        ChaosStep::Check { .. } => Target::Edge(key),
                        _ => Target::Vertex(key),
                    };
                    let expected = state_at(&log, ro.seen_lsn()).get(&target).map(|v| vec![*v]);
                    match ro_read(&dep, target) {
                        Ok(got) => prop_assert_eq!(got, expected, "diverged at {:?}", target),
                        Err(e) => prop_assert!(e.is_transient(), "read failed hard: {}", e),
                    }
                    continue;
                }
            };
            write(&dep, target, value);
            log.push((lsn(), target, value));
        }
        // Both budgets are finite, so the storm passes. Two clean
        // checkpoints: the first republishes anything a dropped RPC left
        // staged, the second can then land the checkpoint horizon.
        for _ in 0..2 {
            for attempt in 0..16 {
                match dep.checkpoint() {
                    Ok(_) => break,
                    Err(e) => {
                        prop_assert!(e.is_transient(), "checkpoint failed hard: {}", e);
                        prop_assert!(attempt < 15, "fault budget never drained");
                    }
                }
            }
        }
        let mut clean_polls = 0;
        for _ in 0..64 {
            match ro.poll() {
                Ok(0) => {
                    clean_polls += 1;
                    if clean_polls >= 2 {
                        break;
                    }
                }
                Ok(_) => clean_polls = 0,
                Err(e) => {
                    prop_assert!(e.is_transient(), "poll failed hard: {}", e);
                    clean_polls = 0;
                }
            }
        }
        prop_assert!(clean_polls >= 2, "fault budget never drained");
        let full = state_at(&log, Lsn(u64::MAX));
        for target in every_target() {
            let expected = full.get(&target).map(|v| vec![*v]);
            // The read budget may have a few fires left; burning them on
            // retries is part of the property (reads fail, never lie).
            let mut got = ro_read(&dep, target);
            for _ in 0..8 {
                if got.is_ok() {
                    break;
                }
                got = ro_read(&dep, target);
            }
            prop_assert_eq!(
                got.unwrap(),
                expected,
                "follower failed to converge at {:?}",
                target
            );
        }
    }
}

#[test]
fn two_followers_with_different_access_patterns_agree() {
    // The deployment's follower is the hot one; a cold one with a
    // one-page cache tails the same leader. Each of the 7 sources gets
    // ~43 edges, so at threshold 8 every one of them splits out.
    let mut leader = Bg3Config::default().with_group_commit_pages(8);
    leader.forest = leader.forest.with_split_out_threshold(8);
    let dep = ReplicatedBg3::new(ReplicatedConfig {
        leader,
        ..ReplicatedConfig::default()
    });
    let hot = dep.ro(0);
    let leader = dep.leader().unwrap();
    let cold = RoNode::new(
        dep.store().clone(),
        leader.mapping().unwrap().clone(),
        leader.open_wal_reader().unwrap(),
        RoNodeConfig {
            cache_capacity_pages: 1,
            ..RoNodeConfig::default()
        },
    );
    let endpoints = |i: u32| (VertexId(i as u64 % 7), EdgeType::FOLLOW, VertexId(i as u64));
    for i in 0..300u32 {
        let (src, etype, dst) = endpoints(i);
        dep.insert_edge(&Edge::new(src, etype, dst).with_props(i.to_le_bytes().to_vec()))
            .unwrap();
        if i % 7 == 0 {
            hot.poll().unwrap();
            // The hot follower reads constantly (lazy replay keeps firing).
            let (src, etype, dst) = endpoints(i / 2);
            dep.ro_get_edge(0, src, etype, dst).unwrap();
        }
    }
    hot.poll().unwrap();
    cold.poll().unwrap();
    assert_eq!(leader.forest().stats().dedicated_trees, 7);
    for i in 0..300u32 {
        let (src, etype, dst) = endpoints(i);
        let expected = Some(i.to_le_bytes().to_vec());
        assert_eq!(
            follower_get_edge(&hot, src, etype, dst).unwrap(),
            expected,
            "hot {i}"
        );
        assert_eq!(
            follower_get_edge(&cold, src, etype, dst).unwrap(),
            expected,
            "cold {i}"
        );
    }
}

/// The whale: the one source that crosses the default split-out threshold.
const WHALE: VertexId = VertexId(1);
/// Whale edges written while the followers watch, then a tail the
/// followers never poll before the leader dies.
const WHALE_EDGES: u64 = 100;
const WHALE_TAIL: u64 = 10;

fn whale_edge(dst: u64) -> Edge {
    Edge::new(WHALE, EdgeType::FOLLOW, VertexId(dst)).with_props(dst.to_le_bytes().to_vec())
}

/// Asserts that `ro` serves the whale exactly as the leader does: every
/// point read (written or not) and the adjacency scan, whole and limited.
fn serves_the_whale_like_the_leader(dep: &ReplicatedBg3, ro: &RoNode, who: &str) {
    let leader = dep.leader().unwrap();
    for dst in 0..WHALE_EDGES + WHALE_TAIL + 1 {
        let dst = VertexId(dst);
        assert_eq!(
            follower_get_edge(ro, WHALE, EdgeType::FOLLOW, dst).unwrap(),
            leader.get_edge(WHALE, EdgeType::FOLLOW, dst).unwrap(),
            "{who}: edge to {dst:?}"
        );
    }
    for limit in [usize::MAX, 10] {
        assert_eq!(
            follower_neighbors(ro, WHALE, EdgeType::FOLLOW, limit).unwrap(),
            leader.neighbors(WHALE, EdgeType::FOLLOW, limit).unwrap(),
            "{who}: neighbors, limit {limit}"
        );
    }
}

#[test]
fn followers_route_a_whale_vertex_through_its_split_out() {
    // Default forest: the whale splits out at its 65th edge. Follower 0
    // polls and reads after every write, so it holds the whale's INIT
    // pages when the split-out lands; follower 1 first polls after the
    // split-out's INIT deletes; `tiny` caches one page.
    let dep = ReplicatedBg3::new(ReplicatedConfig {
        ro_nodes: 2,
        heartbeat_timeout_nanos: 1_000_000,
        ..ReplicatedConfig::default()
    });
    let (hot, late) = (dep.ro(0), dep.ro(1));
    let leader = dep.leader().unwrap();
    let tiny = RoNode::new(
        dep.store().clone(),
        leader.mapping().unwrap().clone(),
        leader.open_wal_reader().unwrap(),
        RoNodeConfig {
            cache_capacity_pages: 1,
            ..RoNodeConfig::default()
        },
    );
    let whale_group = bg3_graph::edge_group(WHALE, EdgeType::FOLLOW);
    let mut acked = Vec::new();
    for dst in 0..WHALE_EDGES {
        // Minnows share the INIT tree with the whale.
        let minnow = Edge::new(VertexId(2 + dst % 5), EdgeType::FOLLOW, VertexId(dst));
        for edge in [whale_edge(dst), minnow] {
            dep.insert_edge(&edge).unwrap();
            acked.push(edge);
        }
        if dst % 25 == 24 {
            dep.checkpoint().unwrap();
        }
        for ro in [&hot, &tiny] {
            ro.poll().unwrap();
        }
        serves_the_whale_like_the_leader(&dep, &hot, "hot");
        serves_the_whale_like_the_leader(&dep, &tiny, "tiny");
        if dst == 64 {
            // The split-out committed on this write and deleted the
            // whale's INIT copies after the hot follower cached them.
            assert!(leader.forest().dedicated_tree(&whale_group).is_some());
            assert!(hot.stats().cache_hits > 0);
            assert_eq!(late.seen_lsn(), Lsn::ZERO);
        }
        if dst >= 70 && dst % 10 == 0 {
            late.poll().unwrap();
            serves_the_whale_like_the_leader(&dep, &late, "late");
        }
    }

    // A tail the followers never poll, then the leader dies.
    for dst in WHALE_EDGES..WHALE_EDGES + WHALE_TAIL {
        dep.insert_edge(&whale_edge(dst)).unwrap();
        acked.push(whale_edge(dst));
    }
    dep.kill_leader().unwrap();
    dep.store().clock().advance_nanos(2_000_000);
    assert_eq!(
        dep.tick().unwrap(),
        bg3_core::FailoverTick::Promoted { epoch: 2 }
    );

    // The promoted leader and its followers serve every acked edge, and
    // still route the whale to a dedicated tree.
    let promoted = dep.leader().unwrap();
    assert!(promoted.forest().dedicated_tree(&whale_group).is_some());
    dep.poll_all().unwrap();
    for idx in 0..dep.ro_count() {
        serves_the_whale_like_the_leader(&dep, &dep.ro(idx), "after failover");
        assert_eq!(
            dep.recall(
                idx,
                &acked
                    .iter()
                    .map(|e| (e.src, e.etype, e.dst))
                    .collect::<Vec<_>>()
            )
            .unwrap(),
            1.0
        );
    }
    for edge in &acked {
        assert_eq!(
            promoted.get_edge(edge.src, edge.etype, edge.dst).unwrap(),
            Some(edge.props.clone()),
            "promoted leader lost {edge:?}"
        );
    }
}
