//! Property test: the batched (morsel-driven) executor and the scalar
//! per-vertex executor are observationally identical — same results, same
//! errors — on random graphs and random query plans. This is the contract
//! that lets the batched mode be the default: batching is an execution
//! strategy, never a semantics change.

use bg3_core::prelude::*;
use bg3_graph::MemGraph;
use bg3_query::{reverse_etype, Executor, ExecutorConfig};
use proptest::prelude::*;

/// Random traversal text over the FOLLOW edge type: a start vertex, one
/// to three expansion hops, and a terminal that exercises every result
/// shape (vertices, counts, values, paths) plus the pushdown-eligible
/// `count()` / `dedup().count()` suffixes.
fn query_strategy(population: u64) -> impl Strategy<Value = String> {
    let hop = prop_oneof![
        Just(".out(follow)"),
        Just(".in(follow)"),
        Just(".both(follow)"),
    ];
    let suffix = prop_oneof![
        Just(""),
        Just(".dedup()"),
        Just(".count()"),
        Just(".dedup().count()"),
        Just(".order()"),
        Just(".limit(3)"),
        Just(".order().limit(5)"),
        Just(".path()"),
        Just(".values()"),
    ];
    (
        1..=population,
        proptest::collection::vec(hop, 1..=3),
        suffix,
    )
        .prop_map(|(src, hops, suffix)| format!("g.V({src}){}{suffix}", hops.join("")))
}

/// The Recommendation workload's k-hop count: `repeat(out(follow), k)`
/// for k = 2..=3, counted distinct through the `dedup().count()`
/// pushdown.
fn repeat_strategy(population: u64) -> impl Strategy<Value = String> {
    (1..=population, 2usize..=3)
        .prop_map(|(src, k)| format!("g.V({src}).repeat(out(follow), {k}).dedup().count()"))
}

fn edges_strategy(population: u64) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1..=population, 1..=population), 0..=60)
}

/// Runs `text` under both executors and asserts the outcomes (including
/// errors — traverser-budget aborts must trip identically) match.
fn assert_equivalent(store: &dyn GraphStore, text: &str) {
    assert_equivalent_within(store, text, 4_096);
}

/// [`assert_equivalent`] under a traverser budget of `max_traversers`;
/// returns whether the budget aborted the query.
fn assert_equivalent_within(store: &dyn GraphStore, text: &str, max_traversers: usize) -> bool {
    let config = ExecutorConfig {
        default_fanout: 8,
        max_traversers,
        ..ExecutorConfig::default()
    };
    let batched = Executor::new(config.clone());
    let scalar = Executor::new(config.scalar());
    let b = batched.run_text(store, text);
    let s = scalar.run_text(store, text);
    assert_eq!(
        format!("{b:?}"),
        format!("{s:?}"),
        "batched and scalar executors diverged on {text}"
    );
    b.is_err()
}

fn memgraph(edges: &[(u64, u64)]) -> MemGraph {
    let g = MemGraph::new();
    for &(s, d) in edges {
        g.insert_edge(&Edge::new(VertexId(s), EdgeType::FOLLOW, VertexId(d)))
            .unwrap();
        g.insert_edge(&Edge::new(
            VertexId(d),
            reverse_etype(EdgeType::FOLLOW),
            VertexId(s),
        ))
        .unwrap();
    }
    g
}

/// The real engine, sealed: the checkpoint flushes base pages so the
/// batched sweep reads CSR-packed segments.
fn sealed_bg3(edges: &[(u64, u64)]) -> Bg3Db {
    let mut config = Bg3Config {
        maintain_reverse_edges: true,
        ..Bg3Config::default()
    }
    .with_durability();
    config.forest = config.forest.clone().with_split_out_threshold(4);
    let db = Bg3Db::open(config);
    for &(s, d) in edges {
        db.insert_edge(&Edge::new(VertexId(s), EdgeType::FOLLOW, VertexId(d)))
            .unwrap();
    }
    db.checkpoint().unwrap();
    db
}

/// A budget that trips mid-expansion: vertex 1 reaches 2..=6, each of
/// which reaches 7..=11, so the second hop emits 25 traversers against a
/// budget of 12, after the first hop fitted.
#[test]
fn repeated_heads_trip_the_budget_identically() {
    let mut edges = Vec::new();
    for mid in 2..=6u64 {
        edges.push((1, mid));
        for leaf in 7..=11u64 {
            edges.push((mid, leaf));
        }
    }
    let text = "g.V(1).repeat(out(follow), 2).dedup().count()";
    for store in [&memgraph(&edges) as &dyn GraphStore, &sealed_bg3(&edges)] {
        assert!(assert_equivalent_within(store, text, 12), "budget trips");
        assert!(!assert_equivalent_within(store, text, 25), "budget fits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-memory graphs: cheap enough to sweep many random cases.
    #[test]
    fn batched_equals_scalar_on_memgraph(
        edges in edges_strategy(20),
        text in query_strategy(20),
    ) {
        assert_equivalent(&memgraph(&edges), &text);
    }

    /// The real engine, sealed: the batched sweep reads CSR-packed
    /// segments while the scalar path takes per-vertex scans — the exact
    /// divergence surface the vectorized read path introduces.
    #[test]
    fn batched_equals_scalar_on_sealed_bg3(
        edges in edges_strategy(16),
        text in query_strategy(16),
    ) {
        assert_equivalent(&sealed_bg3(&edges), &text);
    }

    /// Repeated heads (a frontier revisits vertices, so one batch asks for
    /// the same source more than once) through the distinct-count
    /// pushdown, under budgets from "trips on the first hop" to "fits".
    #[test]
    fn repeated_heads_count_equal_under_any_budget(
        edges in edges_strategy(16),
        text in repeat_strategy(16),
        max_traversers in 1usize..=24,
    ) {
        assert_equivalent_within(&memgraph(&edges), &text, max_traversers);
        assert_equivalent_within(&sealed_bg3(&edges), &text, max_traversers);
    }
}
