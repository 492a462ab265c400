//! Admission-control invariants, model-checked.
//!
//! Two properties the overload design leans on:
//!
//! 1. **Conservation** — every op offered to the controller lands in
//!    exactly one bin: admitted, shed `Overloaded`, or shed
//!    `DeadlineExceeded`. No op is double-counted, none vanishes.
//! 2. **Bounded queues** — the per-class virtual queue (the token
//!    bucket's debt divided by the expected op cost) never exceeds the
//!    configured `queue_depth`, under any budget and any interleaving of
//!    admissions, sheds, and clock advances — and the same holds for the
//!    full [`GovernedEngine`] while seeded storage faults are firing,
//!    where execution errors must count as *executed*, never as shed.

use bg3_core::admit::{AdmissionConfig, AdmissionController, ClassBudget, OpClass};
use bg3_core::{Bg3Config, GovernedConfig, GovernedEngine, ReplicatedConfig};
use bg3_graph::{EdgeType, VertexId};
use bg3_storage::obs::MetricRegistry;
use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, SimClock, StoreConfig};
use bg3_workloads::Op;
use proptest::prelude::*;

fn budget_strategy() -> impl Strategy<Value = ClassBudget> {
    (
        1_000u64..1_000_000_000,
        0u64..5_000_000,
        (0u64..64, 1u64..100_000),
        0u64..50_000_000,
    )
        .prop_map(
            |(cost_per_sec, burst, (queue_depth, expected_cost), deadline_nanos)| ClassBudget {
                cost_per_sec,
                burst,
                queue_depth,
                expected_cost,
                deadline_nanos,
            },
        )
}

fn class_strategy() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        Just(OpClass::PointRead),
        Just(OpClass::Traversal),
        Just(OpClass::Write),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_offered_op_is_admitted_or_shed_and_queues_stay_bounded(
        point_read in budget_strategy(),
        traversal in budget_strategy(),
        write in budget_strategy(),
        ops in proptest::collection::vec(
            (class_strategy(), 1u64..500_000, 0u64..2_000_000),
            1..200,
        ),
    ) {
        let config = AdmissionConfig { point_read, traversal, write };
        let clock = SimClock::new();
        let registry = MetricRegistry::new();
        let ctl = AdmissionController::new(clock.clone(), config, &registry);

        let mut admitted = 0u64;
        let mut shed = 0u64;
        for &(class, cost, advance) in &ops {
            clock.advance_nanos(advance);
            match ctl.admit(class, cost) {
                Ok(a) => {
                    admitted += 1;
                    prop_assert!(a.pressure >= 0.0 && a.pressure <= 1.0);
                }
                Err(e) => {
                    prop_assert!(e.is_overloaded(), "only typed sheds: {e}");
                    prop_assert!(e.is_retryable(), "sheds must be retryable");
                    shed += 1;
                }
            }
            // The bounded-queue invariant, after every single op.
            let depth = config.budget(class).queue_depth;
            prop_assert!(
                ctl.queue_len(class) <= depth,
                "queue {} exceeds configured depth {depth}",
                ctl.queue_len(class),
            );
        }

        let snap = ctl.snapshot();
        prop_assert_eq!(snap.submitted, ops.len() as u64);
        prop_assert_eq!(snap.admitted, admitted);
        prop_assert_eq!(snap.shed(), shed);
        // Conservation: exactly one bin per op.
        prop_assert_eq!(snap.submitted, snap.admitted + snap.shed());
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let v = || (0u64..32).prop_map(VertexId);
    prop_oneof![
        3 => (v(), v()).prop_map(|(src, dst)| Op::InsertEdge {
            src,
            etype: EdgeType::FOLLOW,
            dst,
            props: vec![],
        }),
        1 => (v(), v()).prop_map(|(src, dst)| Op::DeleteEdge {
            src,
            etype: EdgeType::FOLLOW,
            dst,
        }),
        3 => (v(), v()).prop_map(|(src, dst)| Op::CheckEdge {
            src,
            etype: EdgeType::FOLLOW,
            dst,
        }),
        2 => (v(), 1usize..20).prop_map(|(src, limit)| Op::OneHop {
            src,
            etype: EdgeType::FOLLOW,
            limit,
        }),
        1 => (v(), 1usize..4).prop_map(|(src, hops)| Op::KHop {
            src,
            etype: EdgeType::FOLLOW,
            hops,
            fanout: 8,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn governed_engine_conserves_ops_under_seeded_faults(
        fault_seed in any::<u64>(),
        read_fail_per_mille in 0u64..150,
        append_fail_per_mille in 0u64..100,
        ops in proptest::collection::vec((op_strategy(), 0u64..200_000), 1..120),
    ) {
        let store = StoreConfig::counting().with_faults(
            FaultPlan::seeded(fault_seed)
                .with_rule(FaultRule::new(
                    FaultOp::Read,
                    FaultKind::ReadFail,
                    read_fail_per_mille as f64 / 1_000.0,
                ))
                .with_rule(FaultRule::new(
                    FaultOp::Write,
                    FaultKind::AppendFail,
                    append_fail_per_mille as f64 / 1_000.0,
                )),
        );
        // A tight budget so the sequence actually exercises the shed path.
        let tight = ClassBudget {
            cost_per_sec: 2_000_000,
            burst: 20_000,
            queue_depth: 6,
            expected_cost: 5_000,
            deadline_nanos: 20_000_000,
        };
        let engine = GovernedEngine::new(
            ReplicatedConfig {
                leader: Bg3Config {
                    store,
                    ..Bg3Config::default()
                },
                ro_nodes: 2,
                ..ReplicatedConfig::default()
            },
            GovernedConfig {
                admission: AdmissionConfig {
                    point_read: tight,
                    traversal: tight,
                    write: tight,
                },
                ..GovernedConfig::default()
            },
        );

        let clock = engine.rep().store().clock().clone();
        let mut executed = 0u64;
        let mut shed = 0u64;
        for (op, advance) in &ops {
            clock.advance_nanos(*advance);
            match engine.submit(op) {
                // Executed cleanly.
                Ok(_) => executed += 1,
                // Shed: the op never touched the engine.
                Err(e) if e.is_overloaded() => shed += 1,
                // Executed but an injected fault surfaced: still
                // *executed* for conservation purposes — the admission
                // slot was consumed.
                Err(_) => executed += 1,
            }
            let class = OpClass::of(op);
            let depth = engine.admission().config().budget(class).queue_depth;
            prop_assert!(engine.admission().queue_len(class) <= depth);
        }

        let snap = engine.admission().snapshot();
        prop_assert_eq!(snap.submitted, ops.len() as u64);
        prop_assert_eq!(snap.admitted, executed);
        prop_assert_eq!(snap.shed(), shed);
        prop_assert_eq!(snap.submitted, snap.admitted + snap.shed());
    }
}
