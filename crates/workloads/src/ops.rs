//! The operation vocabulary workloads emit and engines execute.

use bg3_graph::{Edge, EdgeType, Mutation, VertexId};

/// One logical request, engine-agnostic. A benchmark driver maps these onto
/// a [`bg3_graph::GraphStore`] (or a replicated deployment).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert a single edge with encoded properties.
    InsertEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge type.
        etype: EdgeType,
        /// Destination vertex.
        dst: VertexId,
        /// Encoded edge properties (e.g. an action timestamp).
        props: Vec<u8>,
    },
    /// Enumerate one-hop neighbors.
    OneHop {
        /// Query vertex.
        src: VertexId,
        /// Edge type to follow.
        etype: EdgeType,
        /// Fan-out cap.
        limit: usize,
    },
    /// Bounded k-hop expansion.
    KHop {
        /// Query vertex.
        src: VertexId,
        /// Edge type to follow.
        etype: EdgeType,
        /// Hop count (1..).
        hops: usize,
        /// Per-vertex fan-out cap.
        fanout: usize,
    },
    /// Verify a specific edge exists (the risk-control RO-side check).
    CheckEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge type.
        etype: EdgeType,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Run cycle detection through `anchor` (anti-money-laundering).
    PatternCycle {
        /// Anchor vertex the cycle must pass through.
        anchor: VertexId,
        /// Edge type of the cycle.
        etype: EdgeType,
        /// Cycle length in edges.
        length: usize,
    },
    /// Delete a specific edge — emitted by TTL-churn workloads when an
    /// edge's lifetime elapses (application-level expiry, distinct from
    /// the store's extent-level TTL reclamation).
    DeleteEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge type.
        etype: EdgeType,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl Op {
    /// True for operations that mutate the graph.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::InsertEdge { .. } | Op::DeleteEdge { .. })
    }

    /// The graph write this op makes; `None` for reads.
    pub fn mutation(&self) -> Option<Mutation> {
        match self {
            Op::InsertEdge {
                src,
                etype,
                dst,
                props,
            } => Some(Mutation::InsertEdge(
                Edge::new(*src, *etype, *dst).with_props(props.clone()),
            )),
            Op::DeleteEdge { src, etype, dst } => Some(Mutation::DeleteEdge((*src, *etype, *dst))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(Op::InsertEdge {
            src: VertexId(1),
            etype: EdgeType::LIKE,
            dst: VertexId(2),
            props: vec![]
        }
        .is_write());
        assert!(!Op::OneHop {
            src: VertexId(1),
            etype: EdgeType::LIKE,
            limit: 10
        }
        .is_write());
        assert!(!Op::PatternCycle {
            anchor: VertexId(1),
            etype: EdgeType::TRANSFER,
            length: 3
        }
        .is_write());
        assert!(Op::DeleteEdge {
            src: VertexId(1),
            etype: EdgeType::TRANSFER,
            dst: VertexId(2),
        }
        .is_write());
    }
}
