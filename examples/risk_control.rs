//! The "Financial Risk Control" scenario (Table 1): a replicated BG3
//! deployment where transfer edges stream into the RW node, RO nodes
//! verify them with strong consistency, and cycle detection hunts for
//! money-laundering loops — the §2.6 motivating application.
//!
//! ```sh
//! cargo run --release --example risk_control
//! ```

use bg3_core::{Bg3Config, Bg3Db, ReplicatedBg3, ReplicatedConfig};
use bg3_graph::{CycleQuery, Edge, EdgeType, GraphStore, PatternMatcher, VertexId};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Financial Risk Control: replicated writes + loop detection ==\n");

    // Part 1: strong consistency between the RW node and two RO nodes.
    let dep = ReplicatedBg3::new(ReplicatedConfig {
        ro_nodes: 2,
        ..ReplicatedConfig::default()
    });
    let accounts = Zipf::new(5_000, 1.0);
    let mut rng = StdRng::seed_from_u64(11);
    let mut audit_log = Vec::new();
    for i in 0..5_000u64 {
        let src = VertexId(accounts.sample(&mut rng));
        let dst = VertexId(accounts.sample(&mut rng));
        dep.insert_edge(
            &Edge::new(src, EdgeType::TRANSFER, dst).with_props(i.to_le_bytes().to_vec()),
        )?;
        audit_log.push((src, EdgeType::TRANSFER, dst));
        if i % 1000 == 999 {
            dep.checkpoint()?; // group commit + mapping publish
        }
    }
    dep.poll_all()?;
    for ro in 0..dep.ro_count() {
        let recall = dep.recall(ro, &audit_log)?;
        println!(
            "RO node {ro}: verified {:.1}% of the leader's transfers",
            recall * 100.0
        );
        assert_eq!(recall, 1.0, "BG3's WAL sync is lossless");
    }
    println!(
        "sync latency (sim): mean {:.0} µs over {} records\n",
        dep.ro(0).sync_latency().mean_nanos() / 1e3,
        dep.ro(0).sync_latency().count
    );

    // Part 2: anti-money-laundering loop detection on a local engine.
    let db = Bg3Db::new(Bg3Config::default());
    // A planted 5-hop laundering ring: 1 -> 2 -> 3 -> 4 -> 5 -> 1, hidden
    // inside background transfer noise.
    for w in [(1u64, 2u64), (2, 3), (3, 4), (4, 5), (5, 1)] {
        db.insert_edge(&Edge::new(VertexId(w.0), EdgeType::TRANSFER, VertexId(w.1)))?;
    }
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..2_000 {
        let src = VertexId(100 + accounts.sample(&mut rng));
        let dst = VertexId(100 + accounts.sample(&mut rng));
        db.insert_edge(&Edge::new(src, EdgeType::TRANSFER, dst))?;
    }
    let matcher = PatternMatcher::default();
    let query = CycleQuery {
        etype: EdgeType::TRANSFER,
        length: 5,
    };
    let flagged = matcher.has_cycle(&db, query, VertexId(1))?;
    println!("account v1 on a 5-hop transfer loop? {flagged}");
    assert!(flagged);
    let clean = matcher.has_cycle(&db, query, VertexId(100 + 4_999))?;
    println!("random tail account on a 5-hop loop? {clean}");
    Ok(())
}
