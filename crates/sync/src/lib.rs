//! # bg3-sync
//!
//! BG3's I/O-efficient leader-follower synchronization (§3.4 of the paper),
//! plus the previous-generation baseline it replaces.
//!
//! ## The BG3 mechanism
//!
//! * The **RW node** is `bg3-core`'s durable `Bg3Db`: it applies every
//!   mutation to its in-memory forest and appends a WAL record to the
//!   shared store *before* acknowledging (write-ahead; Fig. 7 steps
//!   (1)–(2)). Dirty pages are *not* flushed inline: they accumulate and a
//!   group commit flushes them in batch (step (7)), after which the shared
//!   mapping table is published and a `CheckpointComplete` record is logged
//!   (step (8)).
//! * [`GroupCommit`] is that protocol's one implementation. It is the only
//!   code that opens a WAL for writing. One `CheckpointComplete` is logged
//!   per tree with a page in a publish that landed; a dropped publish, or a
//!   checkpoint with nothing to publish, logs nothing.
//! * Each **RO node** ([`RoNode`]) tails the WAL (step (3)). Structural
//!   records are applied eagerly (splits to its routing table, split-outs
//!   to its group → tree directory); page content records are parked in a
//!   **page-indexed log area** and applied lazily, only when a read
//!   actually brings the page into memory (steps (4)/(6)). Cache misses
//!   resolve through the *published* mapping version, which still points
//!   at pre-flush data — consistency comes from replaying the parked
//!   records on top (the paper's correctness argument).
//! * On `CheckpointComplete(upto)`, parked records with `lsn <= upto` are
//!   applied to any cached pages and discarded: the shared store now
//!   reflects them.
//! * **Promotion** ([`RoNode::promote`]) drains a follower, seals the next
//!   epoch, reopens the WAL from shared storage and hands the log to the
//!   caller's rebuild, which is the same code crash recovery runs
//!   ([`recover_tree`] per tree).
//!
//! ## The baseline
//!
//! [`ForwardingReplicator`] reproduces ByteGraph's legacy scheme: write
//! commands are forwarded asynchronously to each RO node over a lossy
//! channel and replayed, which only achieves eventual consistency — under
//! packet loss, RO nodes silently miss writes (Fig. 12).

pub mod commit;
pub mod forwarding;
pub mod recovery;
pub mod ro;
pub mod wal_listener;

#[cfg(test)]
mod page_form_tests;
#[cfg(test)]
mod test_leader;

pub use commit::GroupCommit;
pub use forwarding::{ForwardingConfig, ForwardingReplicator};
pub use recovery::recover_tree;
pub use ro::{RoNode, RoNodeConfig, RoStatsSnapshot};
pub use wal_listener::WalListener;
