//! Engine wrapper: op execution and per-engine contention models.
//!
//! All three engines are built through [`GraphEngine`] and observed through
//! [`EngineRuntime`] — the only per-engine code left here is the contention
//! model, which is a property of each design rather than of its API.

use bg3_core::prelude::*;
use bg3_graph::{edge_group, k_hop_neighbors, CycleQuery, HopSpec, PatternMatcher};
use bg3_workloads::Op;

/// Which engine an [`Engine`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's system.
    Bg3,
    /// The previous-generation baseline.
    ByteGraph,
    /// The conventional-design comparator.
    Neptune,
}

impl EngineKind {
    /// Display name used in experiment rows.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Bg3 => "BG3",
            EngineKind::ByteGraph => "ByteGraph",
            EngineKind::Neptune => "Neptune-like",
        }
    }

    /// All three systems, in the order the paper plots them.
    pub fn all() -> [EngineKind; 3] {
        [EngineKind::Bg3, EngineKind::ByteGraph, EngineKind::Neptune]
    }
}

/// One of the three systems, with its contention model for the virtual
/// driver.
pub enum Engine {
    /// BG3 engine.
    Bg3(Bg3Db),
    /// ByteGraph baseline.
    ByteGraph(ByteGraphDb),
    /// Neptune-like comparator.
    Neptune(NeptuneLike),
}

/// Builds an engine from its `Default` config after applying one tweak —
/// the single construction path every [`EngineKind`] goes through.
fn open_tuned<E: GraphEngine>(tweak: impl FnOnce(&mut E::Config)) -> E {
    let mut config = E::Config::default();
    tweak(&mut config);
    E::open(config)
}

impl Engine {
    /// Builds a fresh engine of `kind` with experiment-friendly settings.
    /// Every arm constructs through [`GraphEngine::open`]; the closures
    /// only adjust config fields.
    pub fn build(kind: EngineKind) -> Engine {
        match kind {
            EngineKind::Bg3 => Engine::Bg3(open_tuned(|config: &mut Bg3Config| {
                // Modest threshold so hot vertices get dedicated trees.
                config.forest = config.forest.clone().with_split_out_threshold(64);
            })),
            EngineKind::ByteGraph => {
                Engine::ByteGraph(open_tuned(|config: &mut ByteGraphConfig| {
                    // A bounded cache leaves the power-law tail on the LSM path.
                    config.cache_capacity_groups = 2048;
                }))
            }
            EngineKind::Neptune => Engine::Neptune(open_tuned(|config: &mut StoreConfig| {
                *config = StoreConfig::counting();
            })),
        }
    }

    /// The kind of this engine.
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Bg3(_) => EngineKind::Bg3,
            Engine::ByteGraph(_) => EngineKind::ByteGraph,
            Engine::Neptune(_) => EngineKind::Neptune,
        }
    }

    /// The unified runtime surface — queries, I/O accounting, maintenance.
    pub fn runtime(&self) -> &dyn EngineRuntime {
        match self {
            Engine::Bg3(db) => db,
            Engine::ByteGraph(db) => db,
            Engine::Neptune(db) => db,
        }
    }

    /// Random storage reads issued so far by this engine's backing store.
    /// The Fig. 8 driver diffs this around each op to charge I/O latency:
    /// random reads stall the op (one storage round-trip each), while
    /// appends pipeline behind group commit and are not latency-bound.
    pub fn io_reads(&self) -> u64 {
        self.runtime()
            .shared_store()
            .stats()
            .registry()
            .counter(obs::names::STORAGE_RANDOM_READS_TOTAL)
            .get()
    }

    /// The latch an operation serializes on, for the virtual driver:
    ///
    /// * BG3 — writes take the owning Bw-tree's write latch: per-group when
    ///   the group has a dedicated tree, the INIT tree otherwise. Reads take
    ///   shared latches and run in parallel.
    /// * ByteGraph — writes funnel through the LSM write path (memtable +
    ///   WAL order); reads are served concurrently by the memory layer.
    /// * Neptune-like — one global index lock for everything, reads
    ///   included (the conventional-design cost).
    pub fn resource_for(&self, op: &Op) -> Option<u64> {
        const INIT_TREE: u64 = 0;
        const LSM_WRITE_PATH: u64 = 1;
        const GLOBAL_INDEX: u64 = 2;
        match self {
            Engine::Bg3(db) => match op {
                Op::InsertEdge { src, etype, .. } => {
                    let group = edge_group(*src, *etype);
                    if db.forest().dedicated_tree(&group).is_some() {
                        // Distinct trees are distinct latches; offset past
                        // the reserved ids.
                        Some(16 + fxhash(&group))
                    } else {
                        Some(INIT_TREE)
                    }
                }
                _ => None,
            },
            Engine::ByteGraph(_) => match op {
                Op::InsertEdge { .. } => Some(LSM_WRITE_PATH),
                _ => None,
            },
            Engine::Neptune(_) => Some(GLOBAL_INDEX),
        }
    }
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl GraphStore for Engine {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.runtime().insert_edge(edge)
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.runtime().get_edge(src, etype, dst)
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.runtime().delete_edge(src, etype, dst)
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        self.runtime().neighbors(src, etype, limit)
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.runtime().insert_vertex(vertex)
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.runtime().get_vertex(id)
    }
}

/// Executes one workload operation against any [`GraphStore`].
pub fn execute_op(store: &dyn GraphStore, op: &Op) -> StorageResult<()> {
    match op {
        Op::InsertEdge { .. } | Op::DeleteEdge { .. } => {
            op.mutation().expect("a write op").apply(store)
        }
        Op::OneHop { src, etype, limit } => store.neighbors(*src, *etype, *limit).map(|_| ()),
        Op::KHop {
            src,
            etype,
            hops,
            fanout,
        } => k_hop_neighbors(
            store,
            *src,
            *etype,
            HopSpec {
                hops: *hops,
                fanout: *fanout,
                max_vertices: 1000,
            },
        )
        .map(|_| ()),
        Op::CheckEdge { src, etype, dst } => store.get_edge(*src, *etype, *dst).map(|_| ()),
        Op::PatternCycle {
            anchor,
            etype,
            length,
        } => {
            let matcher = PatternMatcher {
                candidate_cap: 8,
                max_matches: 1,
                max_expansions: 2_000,
            };
            matcher
                .has_cycle(
                    store,
                    CycleQuery {
                        etype: *etype,
                        length: *length,
                    },
                    *anchor,
                )
                .map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_graph::EdgeType;
    use bg3_workloads::{DouyinFollow, WorkloadGen};

    #[test]
    fn all_engines_execute_a_workload_slice() {
        for kind in EngineKind::all() {
            let engine = Engine::build(kind);
            let mut gen = DouyinFollow::new(500, 1.0, 3);
            for _ in 0..300 {
                execute_op(&engine, &gen.next_op()).unwrap();
            }
            assert_eq!(engine.kind(), kind);
        }
    }

    #[test]
    fn contention_models_match_design() {
        let bg3 = Engine::build(EngineKind::Bg3);
        let byte = Engine::build(EngineKind::ByteGraph);
        let nep = Engine::build(EngineKind::Neptune);
        let read = Op::OneHop {
            src: VertexId(1),
            etype: EdgeType::FOLLOW,
            limit: 10,
        };
        let write = Op::InsertEdge {
            src: VertexId(1),
            etype: EdgeType::FOLLOW,
            dst: VertexId(2),
            props: vec![],
        };
        assert_eq!(bg3.resource_for(&read), None, "BG3 reads are parallel");
        assert_eq!(bg3.resource_for(&write), Some(0), "INIT tree latch");
        assert_eq!(byte.resource_for(&read), None);
        assert!(byte.resource_for(&write).is_some());
        assert!(nep.resource_for(&read).is_some(), "global lock on reads");
        assert!(nep.resource_for(&write).is_some());
    }

    #[test]
    fn bg3_dedicated_trees_get_distinct_latches() {
        let engine = Engine::build(EngineKind::Bg3);
        // Push one vertex over the split-out threshold.
        for dst in 0..100u64 {
            execute_op(
                &engine,
                &Op::InsertEdge {
                    src: VertexId(7),
                    etype: EdgeType::FOLLOW,
                    dst: VertexId(dst),
                    props: vec![],
                },
            )
            .unwrap();
        }
        let write_hot = Op::InsertEdge {
            src: VertexId(7),
            etype: EdgeType::FOLLOW,
            dst: VertexId(999),
            props: vec![],
        };
        let write_cold = Op::InsertEdge {
            src: VertexId(8),
            etype: EdgeType::FOLLOW,
            dst: VertexId(999),
            props: vec![],
        };
        let hot = engine.resource_for(&write_hot).unwrap();
        let cold = engine.resource_for(&write_cold).unwrap();
        assert_ne!(hot, cold, "split-out vertex has its own latch");
        assert_eq!(cold, 0, "tail vertices share the INIT latch");
    }
}
