//! # bg3-sync
//!
//! BG3's I/O-efficient leader-follower synchronization (§3.4 of the paper),
//! plus the previous-generation baseline it replaces.
//!
//! ## The BG3 mechanism
//!
//! * The **RW node** ([`RwNode`]) applies every mutation to its in-memory
//!   Bw-tree and appends a WAL record to the shared store *before*
//!   acknowledging (write-ahead; Fig. 7 steps (1)–(2)). Dirty pages are
//!   *not* flushed inline: they accumulate and a group commit flushes them
//!   in batch (step (7)), after which the shared mapping table is published
//!   and a `CheckpointComplete` record is logged (step (8)).
//! * [`GroupCommit`] is that protocol's one implementation, shared by the
//!   RW node and the forest engine (`bg3-core`'s `Bg3Db`). It is the only
//!   code that opens a WAL for writing. One `CheckpointComplete` is logged
//!   per tree with a page in a publish that landed; a dropped publish, or a
//!   checkpoint with nothing to publish, logs nothing.
//! * Each **RO node** ([`RoNode`]) tails the WAL (step (3)). Structural
//!   records (splits) are applied to its routing table eagerly; page
//!   content records are parked in a **page-indexed log area** and applied
//!   lazily, only when a read actually brings the page into memory (steps
//!   (4)/(6)). Cache misses resolve through the *published* mapping version,
//!   which still points at pre-flush data — consistency comes from replaying
//!   the parked records on top (the paper's correctness argument).
//! * On `CheckpointComplete(upto)`, parked records with `lsn <= upto` are
//!   applied to any cached pages and discarded: the shared store now
//!   reflects them.
//!
//! ## The baseline
//!
//! [`ForwardingReplicator`] reproduces ByteGraph's legacy scheme: write
//! commands are forwarded asynchronously to each RO node over a lossy
//! channel and replayed, which only achieves eventual consistency — under
//! packet loss, RO nodes silently miss writes (Fig. 12).

pub mod commit;
pub mod forwarding;
pub mod latency;
pub mod recovery;
pub mod ro;
pub mod rw;
pub mod wal_listener;

pub use commit::GroupCommit;
pub use forwarding::{ForwardingConfig, ForwardingReplicator};
pub use latency::LatencyRecorder;
pub use recovery::recover_tree;
pub use ro::{RoNode, RoNodeConfig, RoStatsSnapshot};
pub use rw::{RwNode, RwNodeConfig};
pub use wal_listener::WalListener;
