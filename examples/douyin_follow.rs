//! The "Douyin Follow" scenario (Table 1 of the paper): 99% one-hop
//! follower queries, 1% follow insertions, over a power-law population.
//!
//! Runs the same operation stream against BG3 and the ByteGraph baseline
//! and prints the operation mix, forest structure, and I/O counters.
//!
//! ```sh
//! cargo run --release --example douyin_follow
//! ```

use bg3_core::{Bg3Config, Bg3Db, ByteGraphConfig, ByteGraphDb};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_workloads::{DouyinFollow, Op, WorkloadGen, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: u64 = 10_000;
const PRELOAD_EDGES: usize = 30_000;
const OPS: usize = 20_000;

fn preload(store: &dyn GraphStore) {
    let zipf = Zipf::new(USERS, 1.0);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..PRELOAD_EDGES {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        store
            .insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))
            .unwrap();
    }
}

fn drive(store: &dyn GraphStore, label: &str) {
    let mut gen = DouyinFollow::new(USERS, 1.0, 42);
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut neighbors_seen = 0u64;
    let started = std::time::Instant::now();
    for _ in 0..OPS {
        match gen.next_op() {
            Op::InsertEdge {
                src,
                etype,
                dst,
                props,
            } => {
                store
                    .insert_edge(&Edge {
                        src,
                        etype,
                        dst,
                        props,
                    })
                    .unwrap();
                writes += 1;
            }
            Op::OneHop { src, etype, limit } => {
                neighbors_seen += store.neighbors(src, etype, limit).unwrap().len() as u64;
                reads += 1;
            }
            other => panic!("unexpected op in follow workload: {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    println!(
        "{label}: {reads} one-hop reads ({neighbors_seen} neighbors), {writes} inserts in {:.2}s ({:.0} ops/s serial)",
        elapsed.as_secs_f64(),
        OPS as f64 / elapsed.as_secs_f64()
    );
}

fn main() {
    println!("== Douyin Follow: 99% read / 1% write, power-law over {USERS} users ==\n");

    let bg3 = {
        let mut config = Bg3Config::default();
        config.forest = config.forest.with_split_out_threshold(64);
        Bg3Db::new(config)
    };
    preload(&bg3);
    drive(&bg3, "BG3       ");
    let forest = bg3.forest();
    println!(
        "  forest: {} trees ({} split-outs) holding {} follow edges",
        forest.tree_count(),
        forest.stats().threshold_split_outs,
        forest.total_entries()
    );
    println!("  storage counters:");
    for c in bg3.store().metrics_snapshot().counters {
        if c.value > 0 {
            println!("    {} = {}", c.name, c.value);
        }
    }
    println!();

    let byte = ByteGraphDb::new(ByteGraphConfig::default());
    preload(&byte);
    drive(&byte, "ByteGraph ");
    let (hits, misses) = byte.cache_stats();
    println!(
        "  memory-layer cache: {hits} hits / {misses} misses; LSM: {:?}",
        byte.lsm().stats()
    );
}
