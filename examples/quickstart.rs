//! Quickstart: open a BG3 database, write a tiny social graph, query it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bg3_core::{Bg3Config, Bg3Db};
use bg3_graph::{Edge, EdgeType, GraphStore, PropertyValue, Vertex, VertexId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A BG3 engine over an in-process simulated shared store. Everything —
    // Bw-tree forest, append-only streams, extent tracking — is live
    // underneath; only the cloud service itself is simulated.
    let db = Bg3Db::new(Bg3Config::default());

    // Vertices: two users and a couple of videos.
    let alice = VertexId(1);
    let bob = VertexId(2);
    for (id, name) in [(alice, "alice"), (bob, "bob")] {
        db.insert_vertex(&Vertex {
            id,
            props: PropertyValue::Str(name.into()).encode(),
        })?;
    }

    // Edges: alice follows bob; both like some videos. Edge properties
    // carry the action timestamp, like Douyin's like-records.
    db.insert_edge(&Edge::new(alice, EdgeType::FOLLOW, bob))?;
    for video in 100..110u64 {
        db.insert_edge(
            &Edge::new(alice, EdgeType::LIKE, VertexId(video))
                .with_props(PropertyValue::Int(1_700_000_000 + video as i64).encode()),
        )?;
    }
    db.insert_edge(&Edge::new(bob, EdgeType::LIKE, VertexId(105)))?;

    // One-hop queries: who does alice follow, what did she like?
    let follows = db.neighbors(alice, EdgeType::FOLLOW, 10)?;
    println!(
        "alice follows {:?}",
        follows.iter().map(|(v, _)| v.0).collect::<Vec<_>>()
    );

    let likes = db.neighbors(alice, EdgeType::LIKE, 100)?;
    println!("alice liked {} videos:", likes.len());
    for (video, props) in &likes {
        let ts = PropertyValue::decode(props);
        println!("  video {} (props {:?})", video.0, ts);
    }

    // Point lookups.
    assert!(db.get_edge(alice, EdgeType::LIKE, VertexId(105))?.is_some());
    assert!(db.get_edge(bob, EdgeType::FOLLOW, alice)?.is_none());

    // Under the hood: how many Bw-trees does the forest hold, and what has
    // the storage layer seen?
    println!(
        "forest: {} tree(s), {} edges; storage counters:",
        db.forest().tree_count(),
        db.forest().total_entries()
    );
    for c in db.store().metrics_snapshot().counters {
        if c.value > 0 {
            println!("  {} = {}", c.name, c.value);
        }
    }
    Ok(())
}
