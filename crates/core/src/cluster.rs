//! Hash-sharded scale-out wrapper.
//!
//! The paper deploys multiple RW nodes by "distributing write requests
//! across distinct RW nodes using hashing" (§3.1); Fig. 8's horizontal axis
//! scales from 2 to 10 nodes. [`Cluster`] reproduces that: N independent
//! engine shards behind a source-vertex hash router, itself implementing
//! [`GraphStore`] so benchmark drivers are oblivious to the deployment.
//! Leader failover lives with the replicated deployment
//! ([`crate::ReplicatedBg3`]).

use bg3_graph::{Edge, EdgeType, GraphStore, Vertex, VertexId};
use bg3_storage::StorageResult;
use std::sync::Arc;

/// N engine shards behind a hash router.
pub struct Cluster<S> {
    shards: Vec<Arc<S>>,
}

impl<S: GraphStore> Cluster<S> {
    /// Builds a cluster with `nodes` shards produced by `factory(i)`.
    pub fn new(nodes: usize, factory: impl FnMut(usize) -> S) -> Self {
        assert!(nodes >= 1, "a cluster needs at least one node");
        let mut factory = factory;
        Cluster {
            shards: (0..nodes).map(|i| Arc::new(factory(i))).collect(),
        }
    }

    /// Number of shards.
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `src`'s adjacency lists.
    pub fn shard_for(&self, src: VertexId) -> &Arc<S> {
        // Fibonacci hashing spreads sequential ids.
        let h = src.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Direct shard access (diagnostics).
    pub fn shard(&self, idx: usize) -> &Arc<S> {
        &self.shards[idx]
    }
}

impl<S: GraphStore> GraphStore for Cluster<S> {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.shard_for(edge.src).insert_edge(edge)
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.shard_for(src).get_edge(src, etype, dst)
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.shard_for(src).delete_edge(src, etype, dst)
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        self.shard_for(src).neighbors(src, etype, limit)
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.shard_for(vertex.id).insert_vertex(vertex)
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.shard_for(id).get_vertex(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bg3db::{Bg3Config, Bg3Db};
    use bg3_graph::MemGraph;

    #[test]
    fn routing_is_stable_and_spread() {
        let cluster = Cluster::new(4, |_| MemGraph::new());
        assert_eq!(cluster.nodes(), 4);
        // Stability: the same vertex always routes to the same shard.
        let a = Arc::as_ptr(cluster.shard_for(VertexId(42)));
        let b = Arc::as_ptr(cluster.shard_for(VertexId(42)));
        assert_eq!(a, b);
        // Spread: many vertices hit more than one shard.
        let mut seen = std::collections::HashSet::new();
        for v in 0..64u64 {
            seen.insert(Arc::as_ptr(cluster.shard_for(VertexId(v))) as usize);
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn cluster_behaves_like_one_store() {
        let cluster = Cluster::new(3, |_| MemGraph::new());
        for src in 0..20u64 {
            for dst in 0..5u64 {
                cluster
                    .insert_edge(&Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(dst)))
                    .unwrap();
            }
        }
        for src in 0..20u64 {
            assert_eq!(
                cluster
                    .neighbors(VertexId(src), EdgeType::FOLLOW, usize::MAX)
                    .unwrap()
                    .len(),
                5,
                "src {src}"
            );
        }
        cluster
            .delete_edge(VertexId(3), EdgeType::FOLLOW, VertexId(0))
            .unwrap();
        assert_eq!(
            cluster
                .neighbors(VertexId(3), EdgeType::FOLLOW, usize::MAX)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn cluster_of_bg3_engines() {
        let cluster = Cluster::new(2, |_| Bg3Db::new(Bg3Config::default()));
        cluster
            .insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(2)))
            .unwrap();
        cluster
            .insert_vertex(&Vertex {
                id: VertexId(1),
                props: b"u".to_vec(),
            })
            .unwrap();
        assert_eq!(
            cluster
                .get_edge(VertexId(1), EdgeType::LIKE, VertexId(2))
                .unwrap(),
            Some(vec![])
        );
        assert_eq!(
            cluster.get_vertex(VertexId(1)).unwrap(),
            Some(b"u".to_vec())
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_is_rejected() {
        let _ = Cluster::new(0, |_| MemGraph::new());
    }
}
