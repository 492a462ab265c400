//! # bg3-storage
//!
//! A faithful, in-process stand-in for the append-only shared cloud storage
//! that BG3 (SIGMOD-Companion '24) is deployed on at ByteDance (an internal
//! Pangu/Tectonic-style service with millisecond-level latency).
//!
//! The store is *append-only*: data is written out-of-place to the tail of a
//! stream and old versions are invalidated rather than overwritten (§2.5 of
//! the paper). Each stream is partitioned into fixed-size **extents**, the
//! unit of space reclamation. The store keeps, per extent, the usage metadata
//! that BG3's workload-aware garbage collector consumes (§3.3):
//!
//! * latest update time,
//! * valid/invalid record counts (fragmentation rate),
//! * a history of invalidation events (update gradient),
//! * an optional TTL deadline (batch expiry).
//!
//! Two measurement facilities make the paper's experiments reproducible on a
//! laptop:
//!
//! * [`SimClock`] — a virtual clock; every storage operation charges a
//!   configurable latency so experiments that report *milliseconds*
//!   (e.g. leader-follower sync latency, Fig. 13/14) are deterministic.
//! * [`IoStats`] — atomic counters for appends, random reads, and bytes in
//!   both directions, the quantities behind Fig. 9 (read amplification),
//!   Fig. 10 (write bandwidth) and Table 2 (background move bandwidth).
//!
//! The crate also provides [`SharedMappingTable`], the multi-versioned
//! page-id → storage-address directory that lives *on* the shared store and
//! lets read-only nodes observe a consistent old version until the read-write
//! node publishes (§3.4, Fig. 7 step (8)).

pub mod addr;
pub mod backend;
pub mod builder;
pub mod clock;
pub mod epoch;
pub mod error;
pub mod extent;
pub mod fault;
pub mod fault_backend;
pub mod file_backend;
pub mod frame;
pub mod health;
pub mod latency;
pub mod mapping;
pub mod stats;
pub mod store;
pub mod stream;

pub use addr::{ExtentId, PageAddr, RecordId, StreamId};
pub use backend::{BackendKind, BackendStats, ExtentBackend, PersistedExtent, SimBackend};
pub use bg3_cache::{CacheConfig, CacheStatsSnapshot, PageCache};
pub use builder::StoreBuilder;
// The whole observability crate rides along (`bg3_storage::obs::names`,
// `::export`, `::json`) so downstream crates reach the stable metric
// names and renderers without a direct bg3-obs dependency.
pub use bg3_obs as obs;
pub use bg3_obs::{
    HistogramSnapshot, MetricRegistry, MetricsSnapshot, TraceBuffer, TraceEvent, TraceKind,
};
pub use clock::{SimClock, SimInstant};
pub use epoch::{EpochFence, EpochFenceSnapshot, INITIAL_EPOCH};
pub use error::{ErrorKind, IoErrorClass, StorageError, StorageOp, StorageResult};
pub use extent::{ExtentInfo, ExtentState, UsageSample};
pub use fault::{
    splitmix64, CrashPoint, CrashSwitch, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule,
    RetryPolicy,
};
pub use fault_backend::FaultBackend;
pub use file_backend::FileBackend;
pub use frame::{
    crc32c, decode_header, encode_frame, encode_header, verify_frame, FrameHeader, FrameKind,
    FrameViolation, FRAME_HEADER_LEN, FRAME_MAGIC,
};
pub use health::{DiskHealth, DiskHealthTracker};
pub use latency::LatencyModel;
pub use mapping::{MappingSnapshot, SharedMappingTable};
pub use stats::IoStats;
pub use store::{
    AppendOnlyStore, ReadOpts, RepairReport, RepairSupply, ScrubCheck, SlotKey, StoreConfig,
};
pub use stream::StreamStats;
