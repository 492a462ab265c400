//! The four workloads: seeded graph, seeded op streams, frozen sizes.
//!
//! Everything here is a pure function of `--seed`; the engine under test
//! only ever sees the generated inputs. Generation happens before the timed
//! phase and is itself timed (`workloads.gen_ns_per_op`) as a guard.

use bg3_graph::{Edge, EdgeType, PropertyValue, VertexId};
use bg3_workloads::{
    DouyinFollow, DouyinRecommendation, FinancialRiskControl, Op as GenOp, WorkloadGen, Zipf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edges in the preloaded graph every workload starts from (`g12k`). Sized
/// so that one durable load takes ~2.5 s: the driver's time cap pays for
/// three loads per run (see README "Sizing").
pub const GRAPH_EDGES: usize = 12_000;
/// Vertex population: sources are Zipf(1.0) over it, destinations uniform.
pub const VERTICES: u64 = 6_000;
/// Fan-out cap of the one-hop reads (Table 1: "100 edges").
pub const NEIGHBOR_LIMIT: usize = 100;
/// `risk_mixed` runs one bounded maintenance pass every this many ops.
pub const MAINTENANCE_EVERY: usize = 400;
/// Extents examined per maintenance pass.
pub const MAINTENANCE_BUDGET: usize = 8;
/// Simulated time per op in `risk_mixed`, so TTL expiry depends on the op
/// count and never on wall time.
pub const SIM_NANOS_PER_OP: u64 = 100_000;
/// Edge TTL in `risk_mixed`: 0.8 simulated seconds = 8 000 ops, so extents
/// sealed early in the load expire while the measured phase runs.
pub const RISK_TTL_NANOS: u64 = 800_000_000;
/// Store page cache in `lookup_cold`: about 1/3 of the BASE stream's
/// ~1.2 MB of valid bytes after the load, which puts the hit ratio near 0.7
/// (README "Sizing"): misses and hits both carry weight, and a cache change
/// can move the ratio either way.
pub const COLD_CACHE_BYTES: usize = 384 * 1024;
/// Bytes the user hands the engine per inserted edge: src 8 + type 2 +
/// dst 8, plus the property bytes.
pub const EDGE_KEY_BYTES: u64 = 18;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FollowHot,
    RecoKhop,
    RiskMixed,
    LookupCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FollowHot,
        Workload::RecoKhop,
        Workload::RiskMixed,
        Workload::LookupCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FollowHot => "follow_hot",
            Workload::RecoKhop => "reco_khop",
            Workload::RiskMixed => "risk_mixed",
            Workload::LookupCold => "lookup_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frozen op count per second of `--seconds`, calibrated once so that
    /// at the commit that defined the benchmark the measured phases of one
    /// run add up to about `--seconds`. A fixed count (not a deadline) keeps
    /// every I/O count identical across runs of one seed and makes two
    /// commits do the same work.
    pub fn ops_per_budget_second(self) -> usize {
        match self {
            Workload::FollowHot => 32_000,
            Workload::RecoKhop => 72_000,
            Workload::RiskMixed => 2_000,
            Workload::LookupCold => 20_000,
        }
    }

    /// One line for `BENCHMARK.json`: why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FollowHot => "Table-1 Douyin Follow, 99% one-hop reads / 1% inserts: the resident read path (forest, bwtree, graph decode) does the work; device, cache and gc do almost none",
            Workload::RecoKhop => "Table-1 Douyin Recommendation, read-only 70/20/10% 1/2/3-hop counts through the executor: query and neighbors_batch/CSR do the work; no writes, no device I/O; bypass for write-path changes",
            Workload::RiskMixed => "Table-1 Financial Risk Control, strict 50/50 TTL'd inserts vs point checks and 5-10 hop cycle matching, with GC passes: wal fsync, page flush, mapping publish, gc and PatternMatcher dominate",
            Workload::LookupCold => "read-only point reads with the tree read cache off and a page cache of about 1/3 of the data: the only path that leaves memory (mapping, cache, storage read, frame verify, file read)",
        }
    }

    /// The edge type the workload's graph is loaded and queried under.
    pub fn etype(self) -> EdgeType {
        match self {
            Workload::RiskMixed => EdgeType::TRANSFER,
            _ => EdgeType::FOLLOW,
        }
    }
}

/// One pre-generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `neighbors(src, etype, NEIGHBOR_LIMIT)`.
    Neighbors { src: VertexId },
    /// `insert_edge`.
    Insert(Edge),
    /// `g.V(src).repeat(out(..), hops).dedup().count()` through the
    /// executor; the text is formatted here, parsed in the timed path.
    KHop { text: String },
    /// `get_edge(src, etype, dst)`.
    GetEdge { src: VertexId, dst: VertexId },
    /// `PatternMatcher::has_cycle` of `length` edges through `anchor`.
    Cycle { anchor: VertexId, length: usize },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_))
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Op::Neighbors { .. } => "neighbors",
            Op::Insert(_) => "insert_edge",
            Op::KHop { .. } => "khop",
            Op::GetEdge { .. } => "get_edge",
            Op::Cycle { .. } => "has_cycle",
        }
    }
}

/// Bytes of user data in one inserted edge.
pub fn user_bytes(edge: &Edge) -> u64 {
    EDGE_KEY_BYTES + edge.props.len() as u64
}

/// The preload graph `g12k`: Zipf(1.0) sources, uniform destinations,
/// 8-byte integer properties. It is one fixed dataset (its own constant
/// seed), so set-up does identical work on every run; `--seed` seeds the op
/// stream that runs against it.
pub fn graph(etype: EdgeType) -> Vec<Edge> {
    let zipf = Zipf::new(VERTICES, 1.0);
    let mut rng = StdRng::seed_from_u64(0x6731_326b);
    (0..GRAPH_EDGES)
        .map(|i| {
            let src = VertexId(zipf.sample(&mut rng));
            let dst = VertexId(rng.gen_range(0..VERTICES));
            Edge::new(src, etype, dst).with_props(PropertyValue::Int(i as i64).encode())
        })
        .collect()
}

fn etype_name(etype: EdgeType) -> &'static str {
    match etype {
        EdgeType::TRANSFER => "transfer",
        EdgeType::LIKE => "like",
        _ => "follow",
    }
}

fn khop(src: VertexId, etype: EdgeType, hops: usize) -> Op {
    Op::KHop {
        text: format!(
            "g.V({}).repeat(out({}), {hops}).dedup().count()",
            src.0,
            etype_name(etype)
        ),
    }
}

/// Maps the `bg3-workloads` vocabulary onto the calls this benchmark makes.
fn convert(workload: Workload, op: GenOp) -> Op {
    match op {
        GenOp::InsertEdge {
            src,
            etype,
            dst,
            props,
        } => Op::Insert(Edge::new(src, etype, dst).with_props(props)),
        GenOp::OneHop { src, etype, .. } if workload == Workload::RecoKhop => khop(src, etype, 1),
        GenOp::OneHop { src, .. } => Op::Neighbors { src },
        GenOp::KHop {
            src, etype, hops, ..
        } => khop(src, etype, hops),
        GenOp::CheckEdge { src, dst, .. } => Op::GetEdge { src, dst },
        GenOp::PatternCycle { anchor, length, .. } => Op::Cycle { anchor, length },
        GenOp::DeleteEdge { .. } => unreachable!("no Table-1 generator emits deletes"),
    }
}

/// `lookup_cold`: 90 % `get_edge` of a loaded edge (edge index ~ Zipf 0.9,
/// scrambled so hot edges are spread over pages), 10 % of an edge that was
/// never inserted (destination outside the population).
fn lookup_ops(seed: u64, n: usize, graph: &[Edge]) -> Vec<Op> {
    let zipf = Zipf::new(graph.len() as u64, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let edge = &graph[zipf.sample_scrambled(&mut rng) as usize % graph.len()];
            let dst = if rng.gen_range(0..10) == 0 {
                VertexId(VERTICES + edge.dst.0)
            } else {
                edge.dst
            };
            Op::GetEdge { src: edge.src, dst }
        })
        .collect()
}

/// The seeded op stream of `workload`, `n` ops long.
pub fn ops(workload: Workload, seed: u64, n: usize, graph: &[Edge]) -> Vec<Op> {
    let mut gen: Box<dyn WorkloadGen> = match workload {
        Workload::FollowHot => Box::new(DouyinFollow::new(VERTICES, 1.0, seed)),
        Workload::RecoKhop => Box::new(DouyinRecommendation::new(VERTICES, 1.0, seed)),
        Workload::RiskMixed => Box::new(FinancialRiskControl::new(VERTICES, 1.0, seed)),
        Workload::LookupCold => return lookup_ops(seed, n, graph),
    };
    (0..n).map(|_| convert(workload, gen.next_op())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let g = graph(w.etype());
            assert_eq!(g, graph(w.etype()));
            let a = ops(w, 7, 2_000, &g);
            assert_eq!(a, ops(w, 7, 2_000, &g), "{}", w.name());
            assert_ne!(a, ops(w, 8, 2_000, &g), "{}", w.name());
        }
    }

    #[test]
    fn mixes_match_table_1() {
        let g = graph(EdgeType::FOLLOW);
        let share = |ops: &[Op], f: fn(&Op) -> bool| {
            ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
        };
        let follow = ops(Workload::FollowHot, 1, 20_000, &g);
        assert!((share(&follow, Op::is_write) - 0.01).abs() < 0.005);
        let reco = ops(Workload::RecoKhop, 1, 20_000, &g);
        assert!(reco.iter().all(|o| matches!(o, Op::KHop { .. })));
        let risk = ops(Workload::RiskMixed, 1, 20_000, &g);
        assert_eq!(share(&risk, Op::is_write), 0.5);
        let cold = ops(Workload::LookupCold, 1, 20_000, &g);
        let absent = |o: &Op| matches!(o, Op::GetEdge { dst, .. } if dst.0 >= VERTICES);
        assert!((share(&cold, absent) - 0.1).abs() < 0.02);
    }
}
