//! # bg3-graph
//!
//! The property-graph layer shared by every engine in this workspace
//! (§2.2 of the BG3 paper): vertices and edges carry types and properties;
//! edges are grouped into adjacency lists per `(source, edge-type)` and
//! stored through a pluggable [`GraphStore`] backend.
//!
//! On top of the storage abstraction the crate provides the query
//! primitives the paper's workloads exercise (Table 1):
//!
//! * one-hop neighbor enumeration (Douyin Follow),
//! * multi-hop traversal with per-hop fan-out limits (Douyin
//!   Recommendation: 70% 1-hop / 20% 2-hop / 10% 3-hop),
//! * subgraph pattern matching and cycle detection (Financial Risk
//!   Control; the paper cites an in-memory subgraph-matching study [32]).
//!
//! Key encoding keeps adjacency lists contiguous: the *group* is
//! `src ++ edge_type` and the *item* is `dst`, both big-endian so byte
//! order equals numeric order.

pub mod encode;
pub mod memgraph;
pub mod model;
pub mod oracle;
pub mod pattern;
pub mod props;
pub mod store;
pub mod traverse;

pub use encode::{decode_dst, decode_group, edge_group, edge_group_key, edge_item, vertex_key};
pub use memgraph::MemGraph;
pub use model::{Edge, EdgeType, PropertyValue, Vertex, VertexId};
pub use oracle::{Audit, EdgeKey, Mutation, Oracle, Reads};
pub use pattern::{CycleQuery, Pattern, PatternEdge, PatternMatcher};
pub use props::PropertyList;
pub use store::{GraphStore, NeighborSink};
pub use traverse::{k_hop_neighbors, HopSpec};
