//! The query profiler's overhead bound: the same plan through `run_plan`
//! (no tracing) and `run_plan_profiled` (request ledger + span tree + cost
//! snapshotting), over a warm, checkpointed BG3 engine. A paired A/B
//! measurement asserts the profiled path stays within
//! [`MAX_OVERHEAD_RATIO`]× of the plain path, so a span-layer regression
//! fails `cargo test` rather than silently taxing every query.

use bg3_core::{Bg3Config, Bg3Db, GraphEngine};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_query::{optimize, parse, Executor, ExecutorConfig};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Ceiling on profiled-over-plain mean latency. The profiled path adds a
/// ledger install, one span per hop, and a cost snapshot per span — fixed
/// small work against a traversal that scans real adjacency, so even with
/// scheduler noise it must stay well under this.
const MAX_OVERHEAD_RATIO: f64 = 4.0;

/// Durable engine, checkpointed after preload so base pages seal and the
/// CSR pack path engages — the regime the batched sweep is built for.
fn warm_sealed_engine() -> Bg3Db {
    let mut config = Bg3Config::default().with_durability();
    config.forest = config.forest.clone().with_split_out_threshold(64);
    let db = Bg3Db::open(config);
    let zipf = Zipf::new(4_096, 1.0);
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..24_000 {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        db.insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
            .unwrap();
    }
    db.checkpoint().unwrap();
    db
}

/// Mean ns/iter of `f` over `iters` calls after `warmup` discarded calls.
fn mean_nanos(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

#[test]
fn profiled_query_stays_within_overhead_budget() {
    let db = warm_sealed_engine();
    let exec = Executor::new(ExecutorConfig {
        default_fanout: 32,
        max_traversers: 1_000_000,
        ..ExecutorConfig::default()
    });
    let plan = optimize(&parse("g.V(1).repeat(out(follow), 2).dedup().count()").unwrap());

    let plain = mean_nanos(50, 300, || {
        exec.run_plan(&db, &plan).unwrap();
    });
    let profiled = mean_nanos(50, 300, || {
        exec.run_plan_profiled(&db, &plan, "2hop").unwrap();
    });
    let ratio = profiled / plain.max(1.0);
    println!("span overhead: profiled/plain = {ratio:.2}x (budget {MAX_OVERHEAD_RATIO}x)");
    assert!(
        ratio <= MAX_OVERHEAD_RATIO,
        "profiled execution is {ratio:.2}x plain (plain {plain:.0}ns, \
         profiled {profiled:.0}ns), over the {MAX_OVERHEAD_RATIO}x budget"
    );
}
