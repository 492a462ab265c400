//! Space reclamation must never lose data: whatever the policy, however
//! hard the GC is driven, every live edge stays readable and every tree's
//! relocated pages resolve.

use bg3_core::{Bg3Config, Bg3Db, GcPolicyKind};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_storage::{obs::names, StoreConfig, StreamId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn db_with(policy: GcPolicyKind, extent: usize) -> Bg3Db {
    let mut config = Bg3Config::default();
    config.store = StoreConfig::counting().with_extent_capacity(extent);
    config.gc_policy = policy;
    config.forest = config.forest.with_split_out_threshold(8);
    config.forest.tree_config = config
        .forest
        .tree_config
        .clone()
        .with_max_page_entries(16)
        .with_consolidate_threshold(4);
    Bg3Db::new(config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gc_preserves_every_live_edge(
        writes in proptest::collection::vec((0u64..32, 0u64..16, any::<u8>()), 20..200),
        policy_idx in 0usize..3,
    ) {
        let policy = [GcPolicyKind::Fifo, GcPolicyKind::DirtyRatio, GcPolicyKind::WorkloadAware][policy_idx];
        let db = db_with(policy, 1024);
        let mut model: BTreeMap<(u64, u64), u8> = BTreeMap::new();
        for (i, &(src, dst, v)) in writes.iter().enumerate() {
            db.store().clock().advance_micros(10);
            db.insert_edge(
                &Edge::new(VertexId(src), EdgeType::LIKE, VertexId(dst))
                    .with_props(vec![v]),
            ).unwrap();
            model.insert((src, dst), v);
            if i % 16 == 15 {
                db.run_gc_cycle(3).unwrap();
            }
        }
        // Hammer the reclaimer to a high utilization target.
        db.reclaim_to_utilization(0.9, 4).unwrap();
        for (&(src, dst), &v) in &model {
            prop_assert_eq!(
                db.get_edge(VertexId(src), EdgeType::LIKE, VertexId(dst)).unwrap(),
                Some(vec![v]),
                "edge ({},{}) lost after GC under {:?}", src, dst, policy
            );
        }
    }
}

#[test]
fn repeated_reclamation_improves_utilization_without_data_loss() {
    let db = db_with(GcPolicyKind::WorkloadAware, 2048);
    // Generate heavy churn: overwrite the same edges many times.
    for round in 0..40u64 {
        for src in 0..16u64 {
            for dst in 0..4u64 {
                db.store().clock().advance_micros(5);
                db.insert_edge(
                    &Edge::new(VertexId(src), EdgeType::LIKE, VertexId(dst))
                        .with_props(round.to_le_bytes().to_vec()),
                )
                .unwrap();
            }
        }
    }
    let before = db
        .store()
        .stream_stats(StreamId::DELTA)
        .unwrap()
        .utilization();
    let report = db.reclaim_to_utilization(0.85, 8).unwrap();
    assert!(report.relocated_extents + report.expired_extents > 0);
    let after = db
        .store()
        .stream_stats(StreamId::DELTA)
        .unwrap()
        .utilization();
    assert!(after >= before, "utilization improved: {before} -> {after}");
    for src in 0..16u64 {
        for dst in 0..4u64 {
            assert_eq!(
                db.get_edge(VertexId(src), EdgeType::LIKE, VertexId(dst))
                    .unwrap(),
                Some(39u64.to_le_bytes().to_vec())
            );
        }
    }
}

#[test]
fn ttl_expiry_frees_space_for_free() {
    let mut config = Bg3Config::default().with_ttl_nanos(Some(1_000_000)); // 1ms
    config.store = StoreConfig::counting().with_extent_capacity(4096);
    config.gc_policy = GcPolicyKind::WorkloadAware;
    // Keep consolidated pages well under the extent capacity.
    config.forest.tree_config = config.forest.tree_config.with_max_page_entries(16);
    let db = Bg3Db::new(config);
    for i in 0..200u64 {
        db.insert_edge(
            &Edge::new(VertexId(i % 8), EdgeType::TRANSFER, VertexId(1000 + i))
                .with_props(i.to_le_bytes().to_vec()),
        )
        .unwrap();
    }
    // Let everything expire, then reclaim.
    db.store().clock().advance_millis(10);
    let report = db.run_gc_cycle(64).unwrap();
    assert!(report.expired_extents > 0, "extents expired: {report:?}");
    assert_eq!(report.moved_bytes, 0, "TTL reclamation moves nothing");
    assert_eq!(
        db.store()
            .metrics_snapshot()
            .counter(names::GC_RELOCATION_BYTES_TOTAL),
        Some(0)
    );
}
