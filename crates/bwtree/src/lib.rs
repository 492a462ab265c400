//! # bg3-bwtree
//!
//! The Bw-tree at the heart of BG3's graph storage engine (§3.2 of the
//! paper). A Bw-tree keeps an immutable **base page** per logical page and
//! records updates as **delta** records, linked to the base through a
//! mapping table; both base and delta data are flushed to append-only
//! shared storage for durability.
//!
//! Two write paths are implemented, selected by [`WriteMode`]:
//!
//! * [`WriteMode::Traditional`] — the classic Bw-tree (and the SLED baseline
//!   of §4.3.1): every update appends a new delta to the page's chain; the
//!   chain is consolidated into a fresh base page after
//!   `consolidate_threshold` deltas. A cold read of a page with *n* deltas
//!   costs *1 + n* random storage reads.
//! * [`WriteMode::ReadOptimized`] — BG3's contribution (Algorithm 1): an
//!   incoming update is **merged with the page's existing delta** into a
//!   single new delta that points directly at the base page, so every page
//!   has at most one delta and a cold read costs at most 2 random reads.
//!   The merged delta is re-flushed each time, costing slightly more write
//!   bytes (Fig. 10 measures +9.3%), which is cheap because the flush is a
//!   sequential append.
//!
//! The tree exposes an event stream ([`TreeEvent`]) describing every logical
//! mutation — upserts, consolidations, splits — which the sync layer turns
//! into WAL records for RW→RO synchronization (§3.4).

pub mod config;
pub mod csr;
pub mod events;
pub mod page;
pub mod stats;
pub mod tag;
pub mod tree;

pub use config::{BwTreeConfig, WriteMode};
pub use csr::{BatchVisitor, CsrSegment, ScanOutcome, CSR_ITEM_LEN};
pub use events::{NullListener, RecordingListener, TreeEvent, TreeEventListener};
pub use page::{
    decode_base_page, decode_delta, encode_base_page, encode_delta, DeltaOp, Entries,
    PageCodecError,
};
pub use stats::{BwTreeStats, BwTreeStatsSnapshot};
pub use tag::PageTag;
pub use tree::{
    prefix_end_bound, BwTree, FlushKind, FlushMode, FlushedPage, PageId, RecoveredPage, Rewrite,
    FIRST_LEAF,
};
