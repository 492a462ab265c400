//! The "Douyin Recommendation" scenario (Table 1): read-only multi-hop
//! sampling (70% 1-hop, 20% 2-hop, 10% 3-hop) that feeds subgraphs to a
//! downstream recommendation model.
//!
//! ```sh
//! cargo run --release --example recommendation
//! ```

use bg3_core::{Bg3Config, Bg3Db};
use bg3_graph::{k_hop_neighbors, Edge, EdgeType, GraphStore, HopSpec, VertexId};
use bg3_workloads::{DouyinRecommendation, Op, WorkloadGen, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: u64 = 20_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Douyin Recommendation: multi-hop subgraph sampling ==\n");

    let mut config = Bg3Config::default();
    config.forest = config.forest.with_split_out_threshold(128);
    let db = Bg3Db::new(config);

    // Build a power-law follow graph.
    let zipf = Zipf::new(USERS, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..80_000 {
        let src = VertexId(zipf.sample(&mut rng));
        let dst = VertexId(zipf.sample(&mut rng));
        db.insert_edge(&Edge::new(src, EdgeType::FOLLOW, dst))?;
    }
    println!(
        "graph loaded: {} edges across {} trees",
        db.forest().total_entries(),
        db.forest().tree_count()
    );

    // Drive the hop-mix workload and collect subgraph sizes per hop depth.
    let mut gen = DouyinRecommendation::new(USERS, 1.0, 9);
    let mut per_hop_queries = [0u64; 4];
    let mut per_hop_vertices = [0u64; 4];
    for _ in 0..10_000 {
        match gen.next_op() {
            Op::OneHop { src, etype, limit } => {
                per_hop_queries[1] += 1;
                per_hop_vertices[1] += db.neighbors(src, etype, limit)?.len() as u64;
            }
            Op::KHop {
                src,
                etype,
                hops,
                fanout,
            } => {
                per_hop_queries[hops] += 1;
                let spec = HopSpec {
                    hops,
                    fanout,
                    max_vertices: 500,
                };
                per_hop_vertices[hops] += k_hop_neighbors(&db, src, etype, spec)?.len() as u64;
            }
            other => panic!("read-only workload produced {other:?}"),
        }
    }
    for hops in 1..=3 {
        let q = per_hop_queries[hops];
        if q > 0 {
            println!(
                "{hops}-hop: {q:>5} queries, avg subgraph {:>6.1} vertices",
                per_hop_vertices[hops] as f64 / q as f64
            );
        }
    }
    println!("\nstorage counters after the read storm:");
    for c in db.store().metrics_snapshot().counters {
        if c.value > 0 {
            println!("  {} = {}", c.name, c.value);
        }
    }
    println!("(reads are served from the Bw-trees' warm images: no storage reads)");
    Ok(())
}
