//! Multi-hop traversal primitives.

use crate::model::{EdgeType, VertexId};
use crate::store::GraphStore;
use bg3_storage::StorageResult;
use std::collections::HashSet;

/// Parameters for a bounded k-hop traversal.
#[derive(Debug, Clone, Copy)]
pub struct HopSpec {
    /// Number of hops to expand (1 = direct neighbors).
    pub hops: usize,
    /// Maximum neighbors expanded per vertex per hop (fan-out cap); the
    /// risk-control workload uses "10 hops and 100 edges" style bounds.
    pub fanout: usize,
    /// Overall cap on distinct vertices returned.
    pub max_vertices: usize,
}

impl Default for HopSpec {
    fn default() -> Self {
        HopSpec {
            hops: 1,
            fanout: 100,
            max_vertices: 10_000,
        }
    }
}

/// Breadth-first k-hop expansion returning the distinct vertices reached
/// (excluding the start), hop by hop. Used by the Douyin Recommendation
/// workload to build subgraph samples for downstream models.
pub fn k_hop_neighbors(
    store: &dyn GraphStore,
    src: VertexId,
    etype: EdgeType,
    spec: HopSpec,
) -> StorageResult<Vec<VertexId>> {
    let mut seen: HashSet<VertexId> = HashSet::new();
    seen.insert(src);
    let mut frontier = vec![src];
    let mut out = Vec::new();
    for _ in 0..spec.hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for (n, _) in store.neighbors(v, etype, spec.fanout)? {
                if seen.insert(n) {
                    out.push(n);
                    next.push(n);
                    if out.len() == spec.max_vertices {
                        return Ok(out);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memgraph::MemGraph;
    use crate::model::Edge;

    /// Builds a small layered graph:
    /// 1 -> {2,3}; 2 -> {4}; 3 -> {4,5}; 4 -> {6}; 5 -> {1} (back edge).
    fn layered() -> MemGraph {
        let g = MemGraph::new();
        for (s, d) in [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 1)] {
            g.insert_edge(&Edge::new(VertexId(s), EdgeType::FOLLOW, VertexId(d)))
                .unwrap();
        }
        g
    }

    #[test]
    fn k_hop_deduplicates_and_excludes_start() {
        let g = layered();
        let spec = HopSpec {
            hops: 2,
            fanout: 100,
            max_vertices: 100,
        };
        let reached = k_hop_neighbors(&g, VertexId(1), EdgeType::FOLLOW, spec).unwrap();
        // Hop 1: {2,3}; hop 2: {4,5} (4 reached once despite two paths).
        assert_eq!(
            reached,
            vec![VertexId(2), VertexId(3), VertexId(4), VertexId(5)]
        );
    }

    #[test]
    fn k_hop_three_hops_follows_back_edges_without_revisits() {
        let g = layered();
        let spec = HopSpec {
            hops: 3,
            fanout: 100,
            max_vertices: 100,
        };
        let reached = k_hop_neighbors(&g, VertexId(1), EdgeType::FOLLOW, spec).unwrap();
        // Hop 3 adds 6 (via 4); the 5→1 back edge must not re-add vertex 1.
        assert_eq!(
            reached,
            vec![
                VertexId(2),
                VertexId(3),
                VertexId(4),
                VertexId(5),
                VertexId(6)
            ]
        );
    }

    #[test]
    fn fanout_cap_limits_expansion() {
        let g = MemGraph::new();
        for d in 1..=50u64 {
            g.insert_edge(&Edge::new(VertexId(0), EdgeType::FOLLOW, VertexId(d)))
                .unwrap();
        }
        let spec = HopSpec {
            hops: 1,
            fanout: 10,
            max_vertices: 1000,
        };
        assert_eq!(
            k_hop_neighbors(&g, VertexId(0), EdgeType::FOLLOW, spec)
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn max_vertices_cap_stops_early() {
        let g = layered();
        let spec = HopSpec {
            hops: 3,
            fanout: 100,
            max_vertices: 3,
        };
        assert_eq!(
            k_hop_neighbors(&g, VertexId(1), EdgeType::FOLLOW, spec)
                .unwrap()
                .len(),
            3
        );
    }
}
