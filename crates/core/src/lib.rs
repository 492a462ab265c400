//! # bg3-core
//!
//! The public face of the BG3 reproduction: three complete graph-database
//! engines behind one [`bg3_graph::GraphStore`] interface, plus the
//! deployment machinery the paper's evaluation exercises.
//!
//! * [`Bg3Db`] — the paper's system (§3): a space-optimized Bw-tree forest
//!   over append-only shared cloud storage, with read-optimized single-delta
//!   pages and workload-aware space reclamation.
//! * [`ByteGraphDb`] — the previous generation (§2): a B-tree-style
//!   in-memory adjacency cache layered over a leveled LSM KV engine. The
//!   elongated read path (cache → LSM levels → storage) is the paper's
//!   first motivation.
//! * [`NeptuneLike`] — a conventional-design comparator standing in for
//!   Amazon Neptune (closed source; see DESIGN.md): one global index with
//!   coarse locking and write-through pages, no graph-native adjacency
//!   optimization.
//! * [`ReplicatedBg3`] — a durable [`Bg3Db`] leader plus N RO followers
//!   over one shared store, synchronized through the WAL: the deployment of
//!   Figs. 12–14. It also carries the availability story: heartbeat-driven
//!   leader-death detection, epoch-fenced promotion of the most caught-up
//!   follower (rebuilt by the code crash recovery runs), and stale-flagged
//!   reads through the outage.
//! * [`GovernedEngine`] — the overload story: per-class token-bucket
//!   admission control with bounded queues and typed load shedding, plus
//!   the graceful-degradation ladder (stale replica reads, debt-throttled
//!   writes, hop-ceiling traversals). See [`admit`].

pub mod admit;
pub mod bg3db;
pub mod bytegraph;
pub mod deployment;
pub mod engine;
pub mod neptune;

pub use admit::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, Admitted, ClassBudget, GovernedConfig,
    GovernedEngine, OpClass, OpOutcome, Served,
};
pub use bg3db::{Bg3Config, Bg3Db, DurabilityConfig, GcPolicyKind};
pub use bytegraph::{ByteGraphConfig, ByteGraphDb};
pub use deployment::{
    follower_get_edge, follower_neighbors, FailoverStatsSnapshot, FailoverTick, ReplicatedBg3,
    ReplicatedConfig,
};
pub use engine::{EngineRuntime, GraphEngine, MaintenanceReport};
pub use neptune::NeptuneLike;

/// One-line import for code that drives engines: the unified engine API,
/// the three engines with their configs, the graph data model, and the
/// shared-store types experiments touch (config, faults, crash points).
pub mod prelude {
    pub use crate::engine::{EngineRuntime, GraphEngine, MaintenanceReport};
    pub use crate::{
        AdmissionConfig, AdmissionSnapshot, Bg3Config, Bg3Db, ByteGraphConfig, ByteGraphDb,
        ClassBudget, DurabilityConfig, FailoverStatsSnapshot, FailoverTick, GcPolicyKind,
        GovernedConfig, GovernedEngine, NeptuneLike, OpClass, OpOutcome, ReplicatedBg3,
        ReplicatedConfig, Served,
    };
    pub use bg3_graph::{Edge, EdgeType, GraphStore, Vertex, VertexId};
    pub use bg3_storage::{
        obs, AppendOnlyStore, BackendKind, CacheConfig, CacheStatsSnapshot, CrashPoint,
        ExtentBackend, FaultKind, FaultOp, FaultPlan, FaultRule, MetricsSnapshot, ReadOpts,
        RetryPolicy, StorageError, StorageResult, StoreBuilder, StoreConfig, TraceBuffer,
        TraceEvent, TraceKind,
    };
}
