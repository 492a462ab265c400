//! The Bw-tree proper.
//!
//! ## Structure
//!
//! A tree is a routing table (the in-memory equivalent of the paper's Root
//! and Meta nodes, §2.2) over a set of logical **leaf pages**. Each leaf has
//! a durable representation on the shared store — one base-page record plus
//! zero or more delta records — and an authoritative in-memory image. The
//! mapping from page id to storage addresses is the tree's mapping table.
//!
//! ## Write paths (Algorithm 1)
//!
//! With [`WriteMode::Traditional`], each update appends one delta record to
//! the page's chain. With [`WriteMode::ReadOptimized`], the update is merged
//! with the page's existing delta into a single new delta that points
//! directly at the base page, keeping the invariant *at most one delta per
//! page*; the replaced delta record is invalidated on the store. Both modes
//! consolidate into a fresh base page after `consolidate_threshold` buffered
//! updates, and split leaves that outgrow `max_page_entries`.
//!
//! ## Flush modes
//!
//! * [`FlushMode::Synchronous`] — every write flushes its delta (or base)
//!   before returning. This is the configuration of the §4.3 storage
//!   micro-benchmarks.
//! * [`FlushMode::Deferred`] — writes mutate memory only and mark pages
//!   dirty; a background group-commit (driven by bg3-sync, Fig. 7 step (7))
//!   calls [`BwTree::flush_dirty`] to persist them in batch, under the same
//!   rule: one merged delta per page over its durable base, and a fresh
//!   base only when that delta has grown too big (see
//!   [`BwTree::flush_dirty`]). Durability before the flush is provided by
//!   the WAL.

use crate::config::{BwTreeConfig, WriteMode};
use crate::csr::{BatchVisitor, CsrSegment, ScanOutcome, CSR_ITEM_LEN};
use crate::events::{NullListener, TreeEvent, TreeEventListener};
use crate::page::{
    apply_ops, encode_base_page, encode_delta, encoded_delta_len, lookup_base, lookup_delta,
    DeltaOp, Entries, Merge, PendingOps,
};
use crate::stats::BwTreeStats;
use crate::tag::{PageTag, DELTA_BIT};
use bg3_storage::{
    AppendOnlyStore, CrashPoint, CrashSwitch, ErrorKind, PageAddr, StorageError, StorageOp,
    StorageResult, StreamId, TraceKind,
};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Identifies a logical page within one tree. The first leaf of every tree
/// is always page 1, which lets a read-only replica bootstrap its routing
/// table from an empty state plus the WAL.
pub type PageId = u32;

/// The id of the initial leaf page of every tree.
pub const FIRST_LEAF: PageId = 1;

/// Whether writes flush synchronously or accumulate as dirty pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushMode {
    /// Flush delta/base records on every write (§4.3 micro-benchmarks).
    #[default]
    Synchronous,
    /// Accumulate dirty pages; [`BwTree::flush_dirty`] persists them in
    /// batch (group commit, §3.4 "I/O Efficiency").
    Deferred,
}

#[derive(Debug, Default)]
struct PageState {
    /// Durable base page record, if ever flushed.
    base_addr: Option<PageAddr>,
    /// Durable delta records, oldest first. In read-optimized mode this
    /// holds at most one element.
    delta_addrs: Vec<PageAddr>,
    /// Authoritative consolidated entries (sorted by key).
    base: Vec<(Vec<u8>, Vec<u8>)>,
    /// Updates buffered since the last consolidation. In read-optimized
    /// mode this is the content of the single merged delta (deduplicated);
    /// in traditional mode it is the concatenated chain, oldest first.
    pending: Vec<DeltaOp>,
    /// Number of updates buffered since the last consolidation (Algorithm 1
    /// `old_delta.count`).
    update_count: usize,
    /// Deferred mode: every op since the durable base was written, sorted,
    /// newest op per key — the content of the page's next merged delta.
    /// `pending` is folded into `base` in memory; this is not.
    durable_delta: Vec<DeltaOp>,
    /// Encoded size of the durable base image, the yardstick of the
    /// "delta larger than a quarter of the base" rewrite rule.
    base_len: usize,
    /// Deferred mode: the durable base no longer describes this page (a
    /// split moved keys out of it, or recovery replayed WAL past it), so
    /// the next flush rewrites the base instead of appending a delta.
    base_stale: bool,
    /// Lazily built CSR packing of `base` (batched adjacency scans),
    /// written once under the tree's read lock and then borrowed with no
    /// lock; `Some(None)` marks keys that don't fit the layout. Emptied
    /// whenever `base` is rewritten, which always holds `&mut PageState`
    /// (the write lock). Pending deltas don't touch it because dirty pages
    /// are streamed by a two-way merge of `base` and `pending` that copies
    /// only the entries it emits. Boxed so pages that never pack (the
    /// vertex tree, cold pages) pay one pointer for it, not a segment.
    csr: OnceLock<Option<Box<CsrSegment>>>,
}

impl PageState {
    /// Existence check without cloning the value (hot-path helper for the
    /// live-entry counter).
    fn contains(&self, key: &[u8]) -> bool {
        for op in self.pending.iter().rev() {
            match op {
                DeltaOp::Put { key: k, .. } if k.as_slice() == key => return true,
                DeltaOp::Delete { key: k } if k.as_slice() == key => return false,
                _ => {}
            }
        }
        self.base
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .is_ok()
    }

    fn lookup(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        // Newest pending op for the key wins; fall through to the base.
        for op in self.pending.iter().rev() {
            match op {
                DeltaOp::Put { key: k, value } if k.as_slice() == key => {
                    return Some(Some(value.clone()))
                }
                DeltaOp::Delete { key: k } if k.as_slice() == key => return Some(None),
                _ => {}
            }
        }
        match self.base.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Some(Some(self.base[i].1.clone())),
            Err(_) => None,
        }
    }

    /// The page's live entries with `key >= start`, in key order: `base`
    /// and `pending` merged on the fly, copying nothing.
    fn entries_from<'a>(&'a self, start: &[u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        let first = self.base.partition_point(|(k, _)| k.as_slice() < start);
        let base = self.base[first..]
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()));
        Merge::new(base, PendingOps::from(&self.pending, start))
    }

    /// Folds `pending` into `base` in place, moving the entries.
    fn consolidate(&mut self) {
        let base = std::mem::take(&mut self.base);
        self.base = apply_ops(base, std::mem::take(&mut self.pending));
        self.update_count = 0;
        self.invalidate_csr();
    }

    /// Drops the packed segment. Must be called at every site that
    /// reassigns `base` (consolidation, split, flush, fresh install).
    fn invalidate_csr(&mut self) {
        self.csr.take();
    }

    /// The packed segment mirroring `base`, built on first use. `None`
    /// when the page's keys don't fit the CSR layout.
    fn csr_segment(&self) -> Option<&CsrSegment> {
        self.csr
            .get_or_init(|| CsrSegment::build(&self.base).map(Box::new))
            .as_deref()
    }

    /// Feeds `visit` this leaf's entries of `prefix` (one
    /// [`BwTree::scan_prefix_batch`] prefix), counting them into
    /// `emitted` and `outcome`. Returns `true` when the prefix may
    /// continue into the next leaf: nothing stopped it and no key here is
    /// past it.
    fn scan_prefix_in_leaf(
        &self,
        tag: usize,
        prefix: &[u8],
        limit: usize,
        emitted: &mut usize,
        outcome: &mut ScanOutcome,
        visit: &mut BatchVisitor<'_>,
    ) -> bool {
        if self.pending.is_empty() {
            if let Some(seg) = self.csr_segment() {
                outcome.csr_hits += 1;
                for i in seg.run(prefix).unwrap_or_default() {
                    if *emitted == limit {
                        return false;
                    }
                    let tail = seg.neighbor(i).to_be_bytes();
                    let props = seg.props(i);
                    outcome.bytes_scanned += 8 + props.len() as u64;
                    *emitted += 1;
                    if !visit(tag, &tail, props) {
                        return false;
                    }
                }
                return !self
                    .base
                    .last()
                    .is_some_and(|(k, _)| past_prefix(k, prefix));
            }
        }
        // Fallback: dirty page (delta overlay) or unsupported keys — stream
        // the two-way merge of base and pending ops. Only a dirty page is a
        // true delta merge crossed; a clean page without a CSR segment is a
        // plain base scan.
        if !self.pending.is_empty() {
            bg3_obs::span::charge(bg3_obs::CostDim::DeltaMerges, 1);
        }
        for (k, v) in self.entries_from(prefix) {
            // Every key here is `>= prefix`, so past it is not sharing it.
            if !k.starts_with(prefix) {
                return false;
            }
            outcome.bytes_scanned += (k.len() + v.len()) as u64;
            if k.len() == prefix.len() + CSR_ITEM_LEN {
                if *emitted == limit {
                    return false;
                }
                *emitted += 1;
                if !visit(tag, &k[prefix.len()..], v) {
                    return false;
                }
            }
        }
        true
    }

    fn heap_bytes(&self) -> usize {
        let base: usize = self.base.iter().map(|(k, v)| k.len() + v.len() + 48).sum();
        let pending: usize = self
            .pending
            .iter()
            .chain(&self.durable_delta)
            .map(|op| op.heap_size() + 40)
            .sum();
        base + pending + std::mem::size_of::<PageState>()
    }
}

struct TreeInner {
    /// Separator key → leaf page covering keys `>=` separator (up to the
    /// next separator). Always contains the empty key.
    routing: BTreeMap<Vec<u8>, PageId>,
    pages: HashMap<PageId, PageState>,
    next_page: PageId,
    dirty: HashSet<PageId>,
}

impl TreeInner {
    fn leaf_for(&self, key: &[u8]) -> PageId {
        *self
            .routing
            .range::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .expect("routing always contains the empty separator")
            .1
    }
}

/// Which record a flush appended for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// A fresh base image; the page's previous base and delta are garbage.
    Base,
    /// One merged delta over the unchanged durable base; the previous delta
    /// is garbage.
    Delta,
}

/// Why a group-commit flush rewrote a page's base instead of appending a
/// merged delta: the index into
/// [`crate::BwTreeStatsSnapshot::base_rewrites`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// The page had no durable base yet.
    Fresh = 0,
    /// A split (or recovery's replay) left the durable base stale.
    Stale = 1,
    /// The delta held more than `consolidate_threshold` ops.
    Count = 2,
    /// The delta was larger than a quarter of the base image.
    Size = 3,
}

/// One page flushed by [`BwTree::flush_dirty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushedPage {
    /// The page that was persisted.
    pub page: PageId,
    /// The address of the record just appended for it.
    pub addr: PageAddr,
    /// Whether that record is a base image or a merged delta.
    pub kind: FlushKind,
}

/// One page handed to [`BwTree::assemble`] by crash recovery.
#[derive(Debug, Clone, Default)]
pub struct RecoveredPage {
    /// The page id (below 2^31).
    pub page: PageId,
    /// Its consolidated entries: the mapped image plus replayed WAL.
    pub entries: Entries,
    /// The mapped base image, if any.
    pub base_addr: Option<PageAddr>,
    /// The mapped merged delta over that base, with its ops.
    pub delta: Option<(PageAddr, Vec<DeltaOp>)>,
}

/// A Bw-tree over an append-only shared store.
pub struct BwTree {
    id: u32,
    config: BwTreeConfig,
    flush_mode: FlushMode,
    store: AppendOnlyStore,
    stats: BwTreeStats,
    listener: Arc<dyn TreeEventListener>,
    /// Crash harness hook: [`CrashPoint::MidFlush`] fires inside the
    /// group-commit flush loop. Disarmed by default (zero-cost).
    crash: CrashSwitch,
    inner: RwLock<TreeInner>,
    /// Live entry count, maintained incrementally by the write paths so
    /// `entry_count` is O(1) (the forest consults it on every write).
    live_entries: std::sync::atomic::AtomicU64,
}

impl BwTree {
    /// Creates an empty tree with the default (no-op) event listener.
    pub fn new(id: u32, store: AppendOnlyStore, config: BwTreeConfig) -> Self {
        Self::with_listener(id, store, config, Arc::new(NullListener))
    }

    /// Creates an empty tree that reports mutations to `listener`.
    pub fn with_listener(
        id: u32,
        store: AppendOnlyStore,
        config: BwTreeConfig,
        listener: Arc<dyn TreeEventListener>,
    ) -> Self {
        let mut routing = BTreeMap::new();
        routing.insert(Vec::new(), FIRST_LEAF);
        let mut pages = HashMap::new();
        pages.insert(FIRST_LEAF, PageState::default());
        let flush_mode = config.flush_mode;
        BwTree {
            id,
            config,
            flush_mode,
            store,
            stats: BwTreeStats::default(),
            listener,
            crash: CrashSwitch::new(),
            inner: RwLock::new(TreeInner {
                routing,
                pages,
                next_page: FIRST_LEAF + 1,
                dirty: HashSet::new(),
            }),
            live_entries: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Switches the flush mode. Intended to be set once at construction
    /// time by the owning node.
    pub fn set_flush_mode(&mut self, mode: FlushMode) {
        self.flush_mode = mode;
    }

    /// Installs a shared crash switch (chaos harness). Intended to be set
    /// once at construction time by the owning node.
    pub fn set_crash_switch(&mut self, switch: CrashSwitch) {
        self.crash = switch;
    }

    /// The tree's crash switch (shared with whoever armed it).
    pub fn crash_switch(&self) -> &CrashSwitch {
        &self.crash
    }

    /// Assembles a tree from recovered state: a routing table and fully
    /// consolidated pages (entries + their durable base and delta, if any).
    /// Used by crash recovery (`bg3-sync::recovery`), which reconstructs
    /// pages from the shared mapping table plus WAL replay.
    ///
    /// `dirty` must list every page whose in-memory content is newer than
    /// its durable image (i.e. pages patched by WAL replay past the
    /// checkpoint horizon): they need re-flushing before the next horizon
    /// advance, or a second crash would lose the replayed content. Every
    /// recovered base counts as stale — replay may have moved the page
    /// past it — so each page's next flush rewrites its base.
    pub fn assemble(
        id: u32,
        store: AppendOnlyStore,
        config: BwTreeConfig,
        listener: Arc<dyn TreeEventListener>,
        routing: BTreeMap<Vec<u8>, PageId>,
        pages: Vec<RecoveredPage>,
        dirty: Vec<PageId>,
    ) -> Self {
        assert!(
            routing.contains_key(&Vec::new()),
            "routing must cover the empty separator"
        );
        let live: usize = pages.iter().map(|p| p.entries.len()).sum();
        let next_page = pages.iter().map(|p| p.page).max().unwrap_or(FIRST_LEAF) + 1;
        assert!(next_page <= DELTA_BIT, "page ids must stay below 2^31");
        let pages: HashMap<PageId, PageState> = pages
            .into_iter()
            .map(|p| {
                let (delta_addrs, durable_delta) = match p.delta {
                    Some((addr, ops)) => (vec![addr], ops),
                    None => (Vec::new(), Vec::new()),
                };
                let state = PageState {
                    base: p.entries,
                    base_addr: p.base_addr,
                    delta_addrs,
                    durable_delta,
                    base_stale: true,
                    ..PageState::default()
                };
                (p.page, state)
            })
            .collect();
        for leaf in routing.values() {
            assert!(pages.contains_key(leaf), "routing points at missing page");
        }
        let flush_mode = config.flush_mode;
        BwTree {
            id,
            config,
            flush_mode,
            store,
            stats: BwTreeStats::default(),
            listener,
            crash: CrashSwitch::new(),
            inner: RwLock::new(TreeInner {
                routing,
                pages,
                next_page,
                dirty: dirty.into_iter().collect(),
            }),
            live_entries: std::sync::atomic::AtomicU64::new(live as u64),
        }
    }

    /// This tree's id within the forest.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BwTreeConfig {
        &self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> &BwTreeStats {
        &self.stats
    }

    fn tag(&self, page: PageId) -> u64 {
        PageTag {
            tree: self.id,
            page,
        }
        .encode()
    }

    fn delta_tag(&self, page: PageId) -> u64 {
        PageTag::delta(self.id, page).encode()
    }

    /// Appends one record under the tree's retry policy: transient injected
    /// failures are retried with simulated-clock backoff; anything else
    /// (crashes, organic errors) surfaces immediately.
    fn append_retrying(&self, stream: StreamId, image: &[u8], tag: u64) -> StorageResult<PageAddr> {
        self.config.retry.run(self.store.clock(), || {
            self.store.append(stream, image, tag, self.config.ttl_nanos)
        })
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        self.write(DeltaOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Deletes `key` (no-op if absent; a tombstone is still recorded).
    pub fn delete(&self, key: &[u8]) -> StorageResult<()> {
        self.write(DeltaOp::Delete { key: key.to_vec() })
    }

    fn write(&self, op: DeltaOp) -> StorageResult<()> {
        BwTreeStats::bump(&self.stats.writes);
        let mut inner = self.inner.write();
        let leaf = inner.leaf_for(op.key());
        let event = match &op {
            DeltaOp::Put { key, value } => TreeEvent::Upsert {
                page: leaf as u64,
                key: key.clone(),
                value: value.clone(),
            },
            DeltaOp::Delete { key } => TreeEvent::Delete {
                page: leaf as u64,
                key: key.clone(),
            },
        };
        // WAL-before-data: the listener (when it is the sync layer) appends
        // the log record before the page changes in memory or on the
        // store, so a failed append leaves the tree as it was.
        self.listener.on_event(self.id as u64, &event)?;

        // Maintain the O(1) live-entry counter.
        let existed = inner
            .pages
            .get(&leaf)
            .expect("routed page exists")
            .contains(op.key());
        use std::sync::atomic::Ordering;
        match (&op, existed) {
            (DeltaOp::Put { .. }, false) => {
                self.live_entries.fetch_add(1, Ordering::Relaxed);
            }
            (DeltaOp::Delete { .. }, true) => {
                self.live_entries.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }

        match self.flush_mode {
            FlushMode::Deferred => self.write_deferred(&mut inner, leaf, op),
            FlushMode::Synchronous => self.write_synchronous(&mut inner, leaf, op),
        }
    }

    /// Deferred path: mutate memory, mark dirty; group commit persists later.
    fn write_deferred(
        &self,
        inner: &mut TreeInner,
        leaf: PageId,
        op: DeltaOp,
    ) -> StorageResult<()> {
        let state = inner.pages.get_mut(&leaf).expect("routed page exists");
        merge_op(&mut state.durable_delta, op.clone());
        merge_op(&mut state.pending, op);
        state.update_count += 1;
        if state.update_count > self.config.consolidate_threshold {
            state.consolidate();
            BwTreeStats::bump(&self.stats.consolidations);
        }
        inner.dirty.insert(leaf);
        self.maybe_split(inner, leaf)?;
        Ok(())
    }

    /// Synchronous path: Algorithm 1 of the paper.
    fn write_synchronous(
        &self,
        inner: &mut TreeInner,
        leaf: PageId,
        op: DeltaOp,
    ) -> StorageResult<()> {
        let state = inner.pages.get_mut(&leaf).expect("routed page exists");

        if state.base_addr.is_none() && state.delta_addrs.is_empty() {
            // Lines 2-8: fresh page — install the value in the base page and
            // flush it.
            state.base = apply_ops(std::mem::take(&mut state.base), vec![op]);
            state.invalidate_csr();
            self.append_base(state, leaf)?;
            return self.maybe_split(inner, leaf);
        }

        if state.pending.is_empty() {
            // Lines 9-17: unmodified base — allocate a fresh one-op delta.
            let image = encode_delta(std::slice::from_ref(&op));
            state.pending.push(op);
            state.update_count = 1;
            self.append_merged_delta(state, leaf, &image)?;
            return Ok(());
        }

        // Lines 18-32: the page already has delta state.
        if state.update_count + 1 > self.config.consolidate_threshold {
            // Lines 21-27: consolidate base + deltas + new op into a fresh
            // base page; old records become garbage. The image is logged
            // before the page consolidates: a failed log leaves the op
            // pending, as a failed store append below would.
            state.pending.push(op);
            let image = encode_base_page(&state.entries_from(&[]).collect::<Vec<_>>());
            self.listener.on_event(
                self.id as u64,
                &TreeEvent::Consolidate {
                    page: leaf as u64,
                    image,
                },
            )?;
            state.consolidate();
            self.append_base(state, leaf)?;
            BwTreeStats::bump(&self.stats.consolidations);
            self.store.trace().emit(
                self.store.clock().now().0,
                TraceKind::DeltaMerge,
                leaf as u64,
                self.id as u64,
            );
            return self.maybe_split(inner, leaf);
        }

        match self.config.mode {
            WriteMode::Traditional => {
                // Classic chain growth: flush a one-op delta, keep the old
                // records valid.
                let image = encode_delta(std::slice::from_ref(&op));
                let addr = self.append_retrying(StreamId::DELTA, &image, self.delta_tag(leaf))?;
                state.pending.push(op);
                state.update_count += 1;
                state.delta_addrs.push(addr);
                BwTreeStats::bump(&self.stats.delta_flushes);
            }
            WriteMode::ReadOptimized => {
                // Line 20: merge the old delta with the new update into one
                // delta pointing straight at the base page; the replaced
                // delta record is invalidated (out-of-place update).
                merge_op(&mut state.pending, op);
                state.update_count += 1;
                let image = encode_delta(&state.pending);
                self.append_merged_delta(state, leaf, &image)?;
            }
        }
        Ok(())
    }

    /// Appends `state.base` as the page's new base image (Algorithm 1
    /// lines 2-8 and 21-27). The previous base and every delta record
    /// become garbage, and the durable delta starts over empty.
    fn append_base(&self, state: &mut PageState, page: PageId) -> StorageResult<PageAddr> {
        let image = encode_base_page(&state.base);
        let addr = self.append_retrying(StreamId::BASE, &image, self.tag(page))?;
        state.base_len = image.len();
        state.base_stale = false;
        state.durable_delta.clear();
        let old_base = state.base_addr.replace(addr);
        for a in old_base
            .into_iter()
            .chain(std::mem::take(&mut state.delta_addrs))
        {
            self.invalidate_replaced(a)?;
        }
        BwTreeStats::bump(&self.stats.base_flushes);
        Ok(addr)
    }

    /// Appends `image` as the page's one merged delta over its unchanged
    /// base (Algorithm 1 lines 9-17 and 20). The delta it replaces, if any,
    /// becomes garbage: that replacement is a delta merge.
    fn append_merged_delta(
        &self,
        state: &mut PageState,
        page: PageId,
        image: &[u8],
    ) -> StorageResult<PageAddr> {
        let addr = self.append_retrying(StreamId::DELTA, image, self.delta_tag(page))?;
        let old = std::mem::replace(&mut state.delta_addrs, vec![addr]);
        debug_assert!(old.len() <= 1, "single-delta invariant");
        BwTreeStats::bump(&self.stats.delta_flushes);
        if !old.is_empty() {
            BwTreeStats::bump(&self.stats.delta_merges);
        }
        for a in old {
            self.invalidate_replaced(a)?;
        }
        Ok(addr)
    }

    /// Splits `leaf` if its consolidated size exceeds the limit. Splits only
    /// trigger when the page has no pending deltas (post-consolidation), so
    /// the two halves are clean base pages. The split is logged before the
    /// page changes: a failed log leaves the page whole.
    fn maybe_split(&self, inner: &mut TreeInner, leaf: PageId) -> StorageResult<()> {
        if !self.config.split_enabled {
            return Ok(());
        }
        loop {
            let state = inner.pages.get(&leaf).expect("leaf exists");
            if !state.pending.is_empty() || state.base.len() <= self.config.max_page_entries {
                return Ok(());
            }
            let mid = state.base.len() / 2;
            let right_id = inner.next_page;
            assert!(right_id < DELTA_BIT, "page ids must stay below 2^31");
            let split = TreeEvent::Split {
                left: leaf as u64,
                right: right_id as u64,
                separator: state.base[mid].0.clone(),
                left_image: encode_base_page(&state.base[..mid]),
                right_image: encode_base_page(&state.base[mid..]),
            };
            self.listener.on_event(self.id as u64, &split)?;
            let TreeEvent::Split {
                separator,
                left_image,
                right_image,
                ..
            } = split
            else {
                unreachable!("built as a split above")
            };
            // A synchronous tree writes both halves before the page
            // changes, so a refused append leaves the page whole too.
            let halves = match self.flush_mode {
                FlushMode::Synchronous => {
                    let left_addr =
                        self.append_retrying(StreamId::BASE, &left_image, self.tag(leaf))?;
                    match self.append_retrying(StreamId::BASE, &right_image, self.tag(right_id)) {
                        Ok(right_addr) => Some((left_addr, right_addr)),
                        Err(err) => {
                            self.store.invalidate(left_addr)?;
                            return Err(err);
                        }
                    }
                }
                FlushMode::Deferred => None,
            };
            inner.next_page += 1;

            let state = inner.pages.get_mut(&leaf).expect("leaf exists");
            let right_entries = state.base.split_off(mid);
            state.invalidate_csr();

            match halves {
                Some((left_addr, right_addr)) => {
                    let old = state.base_addr.replace(left_addr);
                    if let Some(a) = old {
                        self.store.invalidate(a)?;
                    }
                    inner.pages.insert(
                        right_id,
                        PageState {
                            base_addr: Some(right_addr),
                            base: right_entries,
                            ..PageState::default()
                        },
                    );
                    BwTreeStats::add(&self.stats.base_flushes, 2);
                }
                None => {
                    // Both halves' next flush writes a base: the left's
                    // durable base still holds the right's keys.
                    state.base_stale = true;
                    inner.pages.insert(
                        right_id,
                        PageState {
                            base: right_entries,
                            base_stale: true,
                            ..PageState::default()
                        },
                    );
                    inner.dirty.insert(leaf);
                    inner.dirty.insert(right_id);
                }
            }
            inner.routing.insert(separator, right_id);
            BwTreeStats::bump(&self.stats.splits);
            // The right half might still exceed the limit for pathological
            // limits; loop handles the (rare) cascade on the left half only,
            // so also check the right half explicitly.
            let right_needs = inner.pages[&right_id].base.len() > self.config.max_page_entries;
            if right_needs {
                self.maybe_split(inner, right_id)?;
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        BwTreeStats::bump(&self.stats.reads);
        if self.config.read_cache {
            let inner = self.inner.read();
            let leaf = inner.leaf_for(key);
            let state = inner.pages.get(&leaf).expect("routed page exists");
            return Ok(state.lookup(key).flatten());
        }
        self.get_cold(key)
    }

    /// Cache-off lookup: fetches the base page and every delta record from
    /// the shared store and looks the key up in each verified image in
    /// place, base first, then the deltas oldest first, so the newest op
    /// on the key wins and a tombstone hides the base entry. Only the
    /// returned value is copied. The number of random reads issued is the
    /// read amplification under test in Fig. 9; a read-optimized page
    /// costs at most two.
    ///
    /// A dirty page (deferred mode, written since its last flush) is newer
    /// in memory than on the store, so it is served from memory: the
    /// stored images would miss the writes the group commit has yet to
    /// flush. A synchronous tree never has dirty pages.
    fn get_cold(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        let (base_addr, delta_addrs) = {
            let inner = self.inner.read();
            let leaf = inner.leaf_for(key);
            let state = inner.pages.get(&leaf).expect("routed page exists");
            if inner.dirty.contains(&leaf) {
                return Ok(state.lookup(key).flatten());
            }
            (state.base_addr, state.delta_addrs.clone())
        };
        BwTreeStats::bump(&self.stats.cold_reads);
        // Verified reads under the tree's retry policy: a checksum mismatch
        // or transient read fault re-reads a bounded number of times; what
        // survives retries surfaces as a structured error, never a panic
        // and never garbage entries.
        let read_verified = |addr: PageAddr| {
            self.config.retry.run_when(
                self.store.clock(),
                |e| e.is_retryable(),
                || self.store.read(addr),
            )
        };
        // The base image outlives the delta loop: `base_value` borrows it.
        let base;
        let mut base_value = None;
        if let Some(addr) = base_addr {
            base = read_verified(addr)?;
            BwTreeStats::bump(&self.stats.cold_read_ios);
            base_value = lookup_base(&base, key)
                .map_err(|_| StorageError::corrupt_record(StorageOp::Read, addr))?;
        }
        // The delta records, oldest first: one chain, or one merged delta.
        let mut newest_op = None;
        for addr in delta_addrs {
            let bytes = read_verified(addr)?;
            BwTreeStats::bump(&self.stats.cold_read_ios);
            let op = lookup_delta(&bytes, key)
                .map_err(|_| StorageError::corrupt_record(StorageOp::Read, addr))?;
            if let Some(op) = op {
                newest_op = Some(op.map(<[u8]>::to_vec));
            }
        }
        Ok(newest_op.unwrap_or_else(|| base_value.map(<[u8]>::to_vec)))
    }

    /// Returns up to `limit` entries with `start <= key < end`, in key
    /// order. `None` bounds are unbounded. Served from the authoritative
    /// in-memory image (adjacency scans run on warm RW/RO caches).
    ///
    /// Every leaf streams from its start position: a clean leaf straight
    /// from its base slice, a dirty leaf through a two-way merge of base
    /// and pending ops. Only the returned entries are copied.
    pub fn scan_range(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let start_key: &[u8] = start.unwrap_or(&[]);
        // Leaf covering `start`, then every later leaf, visited lazily.
        let first = inner
            .routing
            .range::<[u8], _>((Bound::Unbounded, Bound::Included(start_key)))
            .next_back()
            .map(|(_, &id)| id);
        let rest = inner
            .routing
            .range::<[u8], _>((Bound::Excluded(start_key), Bound::Unbounded))
            .map(|(_, &id)| id);
        'outer: for leaf in first.into_iter().chain(rest) {
            let state = inner.pages.get(&leaf).expect("routed page exists");
            for (k, v) in state.entries_from(start_key) {
                if let Some(e) = end {
                    if k >= e {
                        break 'outer;
                    }
                }
                out.push((k.to_vec(), v.to_vec()));
                if out.len() == limit {
                    break 'outer;
                }
            }
        }
        out
    }

    /// All entries whose key starts with `prefix`, up to `limit`.
    pub fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        match prefix_end_bound(prefix) {
            Some(end) => self.scan_range(Some(prefix), Some(&end), limit),
            None => self.scan_range(Some(prefix), None, limit),
        }
    }

    /// Batched prefix scan over fixed-width 8-byte item tails — the
    /// vectorized adjacency fast path.
    ///
    /// `prefixes` is a list of `(caller tag, key prefix)` pairs, **sorted
    /// by prefix bytes** so consecutive prefixes sharing a leaf page scan
    /// that segment once (an unsorted list stays correct but forfeits the
    /// batching win). For every entry whose key is exactly `prefix` plus
    /// an 8-byte tail, `visit(tag, tail, value)` is called in key order;
    /// returning `false` ends that prefix early (limit/count pushdown).
    /// At most `per_prefix_limit` entries are emitted per prefix.
    ///
    /// Clean leaves are served from their packed [`CsrSegment`] — one
    /// binary search plus a sequential run scan, no per-edge key decode.
    /// Leaves with buffered deltas are streamed by a two-way merge of base
    /// and pending ops that copies only the entries it emits.
    pub fn scan_prefix_batch<G: AsRef<[u8]>>(
        &self,
        prefixes: &[(usize, G)],
        per_prefix_limit: usize,
        visit: &mut BatchVisitor<'_>,
    ) -> ScanOutcome {
        let inner = self.inner.read();
        let mut outcome = ScanOutcome::default();
        let mut last_leaf: Option<PageId> = None;
        if per_prefix_limit == 0 {
            return outcome;
        }
        for (tag, prefix) in prefixes {
            let prefix = prefix.as_ref();
            let mut emitted = 0usize;
            // Leaf covering `prefix`, then every later leaf, visited until
            // one holds a key past the prefix. The later leaves' routing
            // range is only built when the first leaf does not end it.
            let mut leaf = inner.leaf_for(prefix);
            let mut rest = None;
            loop {
                let state = inner.pages.get(&leaf).expect("routed page exists");
                if last_leaf != Some(leaf) {
                    outcome.segments_scanned += 1;
                    last_leaf = Some(leaf);
                }
                let more = state.scan_prefix_in_leaf(
                    *tag,
                    prefix,
                    per_prefix_limit,
                    &mut emitted,
                    &mut outcome,
                    visit,
                );
                if !more {
                    break;
                }
                let rest = rest.get_or_insert_with(|| {
                    inner
                        .routing
                        .range::<[u8], _>((Bound::Excluded(prefix), Bound::Unbounded))
                        .map(|(_, &id)| id)
                });
                match rest.next() {
                    Some(next) => leaf = next,
                    None => break,
                }
            }
        }
        outcome
    }

    /// Total number of live entries. O(1): maintained by the write paths.
    pub fn entry_count(&self) -> usize {
        self.live_entries.load(std::sync::atomic::Ordering::Relaxed) as usize
    }

    /// Number of leaf pages.
    pub fn page_count(&self) -> usize {
        self.inner.read().pages.len()
    }

    /// Estimated in-memory footprint: page images plus mapping-table and
    /// routing overhead. This is the quantity Fig. 11 tracks as the forest
    /// grows: each tree pays a fixed overhead for its mapping table and
    /// root/meta structures even when nearly empty.
    pub fn memory_footprint(&self) -> usize {
        /// Fixed cost of tree bookkeeping: mapping table, routing nodes,
        /// latches, registry entry. Mirrors §3.2.1 Observation 3.
        const TREE_FIXED_OVERHEAD: usize = 512;
        let inner = self.inner.read();
        let pages: usize = inner.pages.values().map(|s| s.heap_bytes()).sum();
        let routing: usize = inner.routing.keys().map(|k| k.len() + 64).sum();
        TREE_FIXED_OVERHEAD + pages + routing + inner.pages.len() * 48
    }

    /// Flushes every dirty page (group commit, deferred mode only) and
    /// returns one [`FlushedPage`] per page; the caller publishes the new
    /// addresses to the shared mapping table and then writes the
    /// `CheckpointComplete` WAL record (Fig. 7 steps (7)/(8)).
    ///
    /// Each page follows Algorithm 1. Memory is consolidated, but what is
    /// appended is one merged delta holding every op since the page's
    /// durable base, replacing the previous delta. The base itself is
    /// rewritten only when the page has none yet, a split made it stale,
    /// or the delta holds more than `consolidate_threshold` ops or is
    /// larger than a quarter of the base image.
    ///
    /// Pages flush in page-id order, so the extent layout (and every GC,
    /// scrub and cache counter downstream of it) repeats from run to run,
    /// and a seeded fault plan always hits the same page.
    ///
    /// On a storage error the whole batch goes back into the dirty set so
    /// the next group commit retries it; on a `MidFlush` crash the pages
    /// not yet attempted do.
    pub fn flush_dirty(&self) -> StorageResult<Vec<FlushedPage>> {
        let mut inner = self.inner.write();
        let mut dirty: Vec<PageId> = inner.dirty.drain().collect();
        dirty.sort_unstable();
        let mut flushed = Vec::with_capacity(dirty.len());
        for (i, &page) in dirty.iter().enumerate() {
            if let Err(err) = self.flush_page(&mut inner, page, &mut flushed) {
                // Re-dirty the *whole* batch, not just the unflushed tail:
                // the flushed prefix has new records on storage but their
                // addresses die with this error before any publish, so the
                // pages must flush again (idempotent) or the mapping would
                // point at their old, invalidated records forever.
                //
                // A base appended in this batch (by the prefix, or by the
                // failing page before its error) is lost the same way, yet
                // the page's durable delta now counts from it. Mark such
                // pages stale so the retry rewrites and re-stages the base
                // instead of a delta over a base the mapping never saw.
                let lost_bases = flushed
                    .iter()
                    .filter(|f| f.kind == FlushKind::Base)
                    .map(|f| f.page)
                    .chain([page]);
                for p in lost_bases {
                    let state = inner.pages.get_mut(&p).expect("dirty page exists");
                    state.base_stale = true;
                }
                for &p in &dirty {
                    inner.dirty.insert(p);
                }
                return Err(err);
            }
            // Chaos hook: die with a partially flushed batch — some new
            // images durable, nothing published, WAL intact.
            if let Err(crash) = self.crash.fire(CrashPoint::MidFlush) {
                for &p in &dirty[i + 1..] {
                    inner.dirty.insert(p);
                }
                return Err(crash);
            }
        }
        Ok(flushed)
    }

    /// Flushes one dirty page under the rule of [`Self::flush_dirty`];
    /// appends go through the retry policy.
    fn flush_page(
        &self,
        inner: &mut TreeInner,
        page: PageId,
        flushed: &mut Vec<FlushedPage>,
    ) -> StorageResult<()> {
        let state = inner.pages.get_mut(&page).expect("dirty page exists");
        state.consolidate();
        let (addr, kind) = match self.rewrite_reason(state) {
            Some(why) => {
                BwTreeStats::bump(&self.stats.base_rewrites[why as usize]);
                (self.append_base(state, page)?, FlushKind::Base)
            }
            None => {
                let image = encode_delta(&state.durable_delta);
                (
                    self.append_merged_delta(state, page, &image)?,
                    FlushKind::Delta,
                )
            }
        };
        flushed.push(FlushedPage { page, addr, kind });
        Ok(())
    }

    /// Why a group commit must rewrite `state`'s base, or `None` when one
    /// merged delta of its durable ops suffices.
    fn rewrite_reason(&self, state: &PageState) -> Option<Rewrite> {
        if state.base_addr.is_none() {
            Some(Rewrite::Fresh)
        } else if state.base_stale {
            Some(Rewrite::Stale)
        } else if state.durable_delta.len() > self.config.consolidate_threshold {
            Some(Rewrite::Count)
        } else if encoded_delta_len(&state.durable_delta) * 4 > state.base_len {
            Some(Rewrite::Size)
        } else {
            None
        }
    }

    /// Invalidates `addr`, a record a flush just replaced. In deferred
    /// mode "already invalid" counts as success: after a crash between a
    /// flush and its mapping publish, recovery re-adopts the *mapped*
    /// (older) record addresses while the pre-crash flush already
    /// invalidated them, and re-flushing such a page must stay idempotent.
    /// Synchronous mode has no such window, so there it is an error.
    fn invalidate_replaced(&self, addr: PageAddr) -> StorageResult<()> {
        match self.store.invalidate(addr) {
            Err(err)
                if err.kind == ErrorKind::AlreadyInvalid
                    && self.flush_mode == FlushMode::Deferred =>
            {
                Ok(())
            }
            other => other,
        }
    }

    /// Number of pages currently dirty (deferred mode).
    pub fn dirty_count(&self) -> usize {
        self.inner.read().dirty.len()
    }

    /// Repairs the mapping after the space reclaimer moved a record of
    /// `page` from `old` to `new`. Returns `true` if an address matched.
    pub fn repair_relocated(&self, page: PageId, old: PageAddr, new: PageAddr) -> bool {
        let mut inner = self.inner.write();
        let Some(state) = inner.pages.get_mut(&page) else {
            return false;
        };
        let matches_slot = |a: &PageAddr| {
            a.extent == old.extent && a.offset == old.offset && a.stream == old.stream
        };
        if state.base_addr.as_ref().is_some_and(matches_slot) {
            state.base_addr = Some(new);
            return true;
        }
        if let Some(slot) = state.delta_addrs.iter_mut().find(|a| matches_slot(a)) {
            *slot = new;
            return true;
        }
        false
    }

    /// Re-encodes the durable record this tree owns at `old`, if any — the
    /// scrubber's repair source. The in-memory page image is authoritative:
    /// a base re-encodes the consolidated page, a deferred-mode delta
    /// re-encodes the durable delta. Either may hold ops newer than the
    /// rotted record did; those are past the checkpoint horizon, so replay
    /// re-applies them over the repaired record in order. Returns `None`
    /// when no current address of `page` occupies `old`'s slot (the record
    /// is a superseded garbage copy).
    pub fn materialize_record(&self, page: PageId, old: PageAddr) -> Option<Vec<u8>> {
        let inner = self.inner.read();
        let state = inner.pages.get(&page)?;
        let matches_slot = |a: &PageAddr| {
            a.extent == old.extent && a.offset == old.offset && a.stream == old.stream
        };
        if state.base_addr.as_ref().is_some_and(matches_slot) {
            return Some(encode_base_page(&state.base));
        }
        let i = state.delta_addrs.iter().position(matches_slot)?;
        if self.flush_mode == FlushMode::Deferred {
            // Group commit writes one merged delta of the durable ops.
            return Some(encode_delta(&state.durable_delta));
        }
        match self.config.mode {
            // One merged delta holding every pending op.
            WriteMode::ReadOptimized => Some(encode_delta(&state.pending)),
            // One op per delta record, `delta_addrs` parallel to `pending`.
            WriteMode::Traditional => state
                .pending
                .get(i)
                .map(|op| encode_delta(std::slice::from_ref(op))),
        }
    }

    /// The shared store this tree persists to.
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }
}

/// Merges `op` into the sorted, newest-op-per-key delta `ops` in place —
/// the hot write path of the read-optimized mode.
fn merge_op(ops: &mut Vec<DeltaOp>, op: DeltaOp) {
    match ops.binary_search_by(|existing| existing.key().cmp(op.key())) {
        Ok(i) => ops[i] = op,
        Err(i) => ops.insert(i, op),
    }
}

/// Whether `key` sorts after every key starting with `prefix`. The
/// `key >= prefix` guard matters for keys below the prefix, e.g. the
/// largest key of a leaf the prefix falls after.
fn past_prefix(key: &[u8], prefix: &[u8]) -> bool {
    key >= prefix && !key.starts_with(prefix)
}

/// The exclusive upper bound of the key range sharing `prefix`: the
/// successor prefix, or `None` when the prefix is empty or all `0xFF`
/// (scan to the end of the tree).
fn prefix_end_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    for i in (0..end.len()).rev() {
        if end[i] != 0xFF {
            end[i] += 1;
            end.truncate(i + 1);
            return Some(end);
        }
    }
    None
}

impl std::fmt::Debug for BwTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BwTree")
            .field("id", &self.id)
            .field("pages", &self.page_count())
            .field("entries", &self.entry_count())
            .finish()
    }
}

#[cfg(test)]
mod merge_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::decode_base_page;
    use bg3_obs::names;
    use bg3_storage::{StoreBuilder, StoreConfig};

    fn store() -> AppendOnlyStore {
        StoreBuilder::from_config(StoreConfig::counting()).build()
    }

    fn tree_with(config: BwTreeConfig) -> BwTree {
        BwTree::new(1, store(), config)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    #[test]
    fn put_get_round_trip() {
        let t = tree_with(BwTreeConfig::default());
        t.put(b"alpha", b"1").unwrap();
        t.put(b"beta", b"2").unwrap();
        assert_eq!(t.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"beta").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"gamma").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let t = tree_with(BwTreeConfig::default());
        t.put(b"k", b"v1").unwrap();
        t.put(b"k", b"v2").unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn delete_tombstones_then_base_removal() {
        let t = tree_with(BwTreeConfig::default().with_consolidate_threshold(2));
        t.put(b"a", b"1").unwrap();
        t.put(b"b", b"2").unwrap();
        t.delete(b"a").unwrap();
        assert_eq!(t.get(b"a").unwrap(), None);
        // Push past consolidation so the tombstone is applied to the base.
        t.put(b"c", b"3").unwrap();
        t.put(b"d", b"4").unwrap();
        assert_eq!(t.get(b"a").unwrap(), None);
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn read_optimized_keeps_at_most_one_delta() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_mode(WriteMode::ReadOptimized)
                .with_consolidate_threshold(100),
        );
        for i in 0..20 {
            t.put(&key(i), b"v").unwrap();
        }
        let inner = t.inner.read();
        for state in inner.pages.values() {
            assert!(state.delta_addrs.len() <= 1, "single-delta invariant");
        }
    }

    #[test]
    fn traditional_grows_chains_until_consolidation() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_mode(WriteMode::Traditional)
                .with_consolidate_threshold(5)
                .with_max_page_entries(1000),
        );
        // First write creates the base; next 5 writes are deltas; the 7th
        // (update_count 5 + 1 > 5) consolidates.
        for i in 0..6 {
            t.put(&key(i), b"v").unwrap();
        }
        {
            let inner = t.inner.read();
            let state = &inner.pages[&FIRST_LEAF];
            assert_eq!(state.delta_addrs.len(), 5);
        }
        t.put(&key(6), b"v").unwrap();
        {
            let inner = t.inner.read();
            let state = &inner.pages[&FIRST_LEAF];
            assert_eq!(state.delta_addrs.len(), 0, "chain consolidated");
            assert_eq!(state.base.len(), 7);
        }
        assert_eq!(t.stats().snapshot().consolidations, 1);
    }

    #[test]
    fn cold_reads_count_ios_traditional_vs_read_optimized() {
        // Mirrors Fig. 9: same writes, very different read amplification.
        let writes = 8; // base + 7 buffered updates, below threshold 10
        let trad = tree_with(BwTreeConfig::sled_baseline());
        let opt = tree_with(BwTreeConfig::read_optimized_baseline());
        for t in [&trad, &opt] {
            for i in 0..writes {
                t.put(&key(0), format!("v{i}").as_bytes()).unwrap();
            }
        }
        assert_eq!(trad.get(&key(0)).unwrap(), Some(b"v7".to_vec()));
        assert_eq!(opt.get(&key(0)).unwrap(), Some(b"v7".to_vec()));
        let ts = trad.stats().snapshot();
        let os = opt.stats().snapshot();
        // Traditional: 1 base + 7 deltas = 8 reads. Read-optimized: 2.
        assert_eq!(ts.cold_read_ios, 8);
        assert_eq!(os.cold_read_ios, 2);
        assert!(ts.read_amplification() > os.read_amplification());
    }

    #[test]
    fn read_optimized_writes_more_bytes_sequentially() {
        // Mirrors Fig. 10: merged deltas re-write earlier ops.
        let store_t = store();
        let store_o = store();
        let trad = BwTree::new(1, store_t.clone(), BwTreeConfig::sled_baseline());
        let opt = BwTree::new(1, store_o.clone(), BwTreeConfig::read_optimized_baseline());
        for t in [&trad, &opt] {
            for i in 0..9 {
                t.put(&key(i), b"valuevalue").unwrap();
            }
        }
        let bytes_appended = |s: &AppendOnlyStore| {
            s.stats()
                .registry()
                .counter(names::STORAGE_BYTES_APPENDED_TOTAL)
                .get()
        };
        let bytes_t = bytes_appended(&store_t);
        let bytes_o = bytes_appended(&store_o);
        assert!(
            bytes_o > bytes_t,
            "merged deltas cost more write bytes ({bytes_o} <= {bytes_t})"
        );
    }

    #[test]
    fn splits_preserve_contents_and_route_correctly() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_max_page_entries(8)
                .with_consolidate_threshold(4),
        );
        for i in 0..100 {
            t.put(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        assert!(t.page_count() > 1, "tree split");
        assert!(t.stats().snapshot().splits > 0);
        for i in 0..100 {
            assert_eq!(
                t.get(&key(i)).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i} lost after splits"
            );
        }
        assert_eq!(t.entry_count(), 100);
    }

    #[test]
    fn splits_disabled_keeps_single_page() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_max_page_entries(4)
                .with_consolidate_threshold(2),
        );
        let t = {
            let mut cfg = t.config().clone();
            cfg.split_enabled = false;
            tree_with(cfg)
        };
        for i in 0..50 {
            t.put(&key(i), b"v").unwrap();
        }
        assert_eq!(t.page_count(), 1);
        assert_eq!(t.stats().snapshot().splits, 0);
    }

    #[test]
    fn scan_range_and_prefix() {
        let t = tree_with(BwTreeConfig::default().with_max_page_entries(8));
        for i in 0..40 {
            t.put(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        let all = t.scan_range(None, None, usize::MAX);
        assert_eq!(all.len(), 40);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted output");

        let window = t.scan_range(Some(&key(10)), Some(&key(20)), usize::MAX);
        assert_eq!(window.len(), 10);
        assert_eq!(window[0].0, key(10));

        let limited = t.scan_range(None, None, 5);
        assert_eq!(limited.len(), 5);

        let prefixed = t.scan_prefix(b"key00000", usize::MAX);
        assert_eq!(prefixed.len(), 10, "key000000..key000009");
        let prefixed_all = t.scan_prefix(b"key0000", usize::MAX);
        assert_eq!(prefixed_all.len(), 40, "all keys share key0000");
    }

    #[test]
    fn scan_prefix_all_ff_prefix() {
        let t = tree_with(BwTreeConfig::default());
        t.put(&[0xFF, 0xFF, 0x01], b"a").unwrap();
        t.put(&[0xFF, 0xFE], b"b").unwrap();
        let hits = t.scan_prefix(&[0xFF, 0xFF], usize::MAX);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, b"a".to_vec());
    }

    /// Composite-ish edge key: 2-byte group tag + 8-byte big-endian dst.
    fn edge_key(group: u16, dst: u64) -> Vec<u8> {
        let mut k = group.to_be_bytes().to_vec();
        k.extend_from_slice(&dst.to_be_bytes());
        k
    }

    fn collect_batch(t: &BwTree, prefixes: &[(usize, Vec<u8>)], limit: usize) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        t.scan_prefix_batch(prefixes, limit, &mut |tag, tail, _| {
            out.push((tag, u64::from_be_bytes(tail.try_into().unwrap())));
            true
        });
        out
    }

    #[test]
    fn batch_scan_matches_per_prefix_scans() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_max_page_entries(8)
                .with_consolidate_threshold(3),
        );
        for g in 0..6u16 {
            for d in 0..7u64 {
                t.put(&edge_key(g, d * 11), &[g as u8, d as u8]).unwrap();
            }
        }
        let prefixes: Vec<(usize, Vec<u8>)> = (0..6u16)
            .map(|g| (g as usize, g.to_be_bytes().to_vec()))
            .collect();
        let got = collect_batch(&t, &prefixes, usize::MAX);
        let mut want = Vec::new();
        for (tag, p) in &prefixes {
            for (k, _) in t.scan_prefix(p, usize::MAX) {
                want.push((*tag, u64::from_be_bytes(k[2..].try_into().unwrap())));
            }
        }
        assert_eq!(got, want, "batched ≡ per-prefix, in key order");
    }

    #[test]
    fn batch_scan_sees_pending_deltas_and_survives_consolidation() {
        // Threshold high enough that deltas stay pending (dirty overlay).
        let t = tree_with(BwTreeConfig::default().with_consolidate_threshold(100));
        t.put(&edge_key(1, 5), b"old").unwrap();
        t.put(&edge_key(1, 9), b"x").unwrap();
        t.put(&edge_key(1, 5), b"new").unwrap();
        t.delete(&edge_key(1, 9)).unwrap();
        let mut seen = Vec::new();
        let outcome = t.scan_prefix_batch(
            &[(0, 1u16.to_be_bytes().to_vec())],
            usize::MAX,
            &mut |_, tail, v| {
                seen.push((u64::from_be_bytes(tail.try_into().unwrap()), v.to_vec()));
                true
            },
        );
        assert_eq!(seen, vec![(5, b"new".to_vec())], "overlay applied");
        assert_eq!(outcome.csr_hits, 0, "dirty page: streamed merge fallback");

        // Consolidate (threshold 1: the third write merges the chain into a
        // fresh base), then the CSR path serves the same answer.
        let t2 = tree_with(BwTreeConfig::default().with_consolidate_threshold(1));
        for (d, v) in [(5u64, b"new".as_slice()), (7, b"x"), (9, b"y")] {
            t2.put(&edge_key(1, d), v).unwrap();
        }
        let got = collect_batch(&t2, &[(0, 1u16.to_be_bytes().to_vec())], usize::MAX);
        assert_eq!(got, vec![(0, 5), (0, 7), (0, 9)]);
        let outcome =
            t2.scan_prefix_batch(&[(0, 1u16.to_be_bytes().to_vec())], 10, &mut |_, _, _| true);
        assert!(outcome.csr_hits > 0, "clean page: CSR fast path");
    }

    #[test]
    fn batch_scan_counts_shared_segments_once() {
        // One page (no splits): N prefixes over the same leaf must count
        // one segment, while N separate calls count N.
        let t = tree_with(BwTreeConfig::default().with_max_page_entries(10_000));
        for g in 0..20u16 {
            t.put(&edge_key(g, 1), b"v").unwrap();
        }
        assert_eq!(t.page_count(), 1);
        let prefixes: Vec<(usize, Vec<u8>)> = (0..20u16)
            .map(|g| (g as usize, g.to_be_bytes().to_vec()))
            .collect();
        let batched = t.scan_prefix_batch(&prefixes, usize::MAX, &mut |_, _, _| true);
        assert_eq!(batched.segments_scanned, 1);
        let mut scalar = ScanOutcome::default();
        for p in &prefixes {
            scalar.absorb(t.scan_prefix_batch(
                std::slice::from_ref(p),
                usize::MAX,
                &mut |_, _, _| true,
            ));
        }
        assert_eq!(scalar.segments_scanned, 20);
    }

    #[test]
    fn batch_scan_limit_and_early_stop() {
        let t = tree_with(BwTreeConfig::default().with_consolidate_threshold(0));
        for d in 0..10u64 {
            t.put(&edge_key(3, d), b"v").unwrap();
        }
        let got = collect_batch(&t, &[(7, 3u16.to_be_bytes().to_vec())], 4);
        assert_eq!(got, vec![(7, 0), (7, 1), (7, 2), (7, 3)]);
        // Visitor returning false stops the prefix.
        let mut n = 0;
        t.scan_prefix_batch(
            &[(0, 3u16.to_be_bytes().to_vec())],
            usize::MAX,
            &mut |_, _, _| {
                n += 1;
                n < 2
            },
        );
        assert_eq!(n, 2);
    }

    #[test]
    fn batch_scan_spans_page_splits() {
        let t = tree_with(
            BwTreeConfig::default()
                .with_max_page_entries(4)
                .with_consolidate_threshold(2),
        );
        for d in 0..40u64 {
            t.put(&edge_key(9, d), b"v").unwrap();
        }
        assert!(t.page_count() > 1, "group spans several leaves");
        let got = collect_batch(&t, &[(0, 9u16.to_be_bytes().to_vec())], usize::MAX);
        assert_eq!(got.len(), 40);
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1), "key order");
    }

    #[test]
    fn empty_prefix_batch_scans_bare_item_tree() {
        // Dedicated trees store bare 8-byte items; the empty prefix scans
        // them all through the CSR path.
        let t = tree_with(BwTreeConfig::default().with_consolidate_threshold(0));
        for d in [3u64, 1, 7] {
            t.put(&d.to_be_bytes(), b"v").unwrap();
        }
        let got = collect_batch(&t, &[(0, Vec::new())], usize::MAX);
        assert_eq!(got, vec![(0, 1), (0, 3), (0, 7)]);
    }

    #[test]
    fn deferred_mode_writes_nothing_until_flush() {
        let s = store();
        let mut t = BwTree::new(1, s.clone(), BwTreeConfig::default());
        t.set_flush_mode(FlushMode::Deferred);
        for i in 0..10 {
            t.put(&key(i), b"v").unwrap();
        }
        let appends = s.stats().registry().counter(names::STORAGE_APPENDS_TOTAL);
        assert_eq!(appends.get(), 0, "no flushes yet");
        assert_eq!(t.dirty_count(), 1);
        assert_eq!(t.get(&key(3)).unwrap(), Some(b"v".to_vec()));
        let flushed = t.flush_dirty().unwrap();
        assert_eq!(flushed.len(), 1);
        assert!(appends.get() >= 1);
        assert_eq!(t.dirty_count(), 0);
        // Re-flushing with nothing dirty is a no-op.
        assert!(t.flush_dirty().unwrap().is_empty());
    }

    #[test]
    fn deferred_flush_invalidates_replaced_pages() {
        let s = store();
        let mut t = BwTree::new(1, s.clone(), BwTreeConfig::default());
        t.set_flush_mode(FlushMode::Deferred);
        t.put(b"a", b"1").unwrap();
        t.flush_dirty().unwrap();
        t.put(b"a", b"2").unwrap();
        t.flush_dirty().unwrap();
        assert_eq!(
            s.metrics_snapshot()
                .counter(names::STORAGE_INVALIDATIONS_TOTAL),
            Some(1),
            "first image became garbage"
        );
    }

    #[test]
    fn events_fire_in_order() {
        let rec = crate::events::RecordingListener::new();
        let t = BwTree::with_listener(
            9,
            store(),
            BwTreeConfig::default()
                .with_consolidate_threshold(2)
                .with_max_page_entries(1000),
            rec.clone(),
        );
        t.put(b"a", b"1").unwrap();
        t.delete(b"a").unwrap();
        t.put(b"b", b"2").unwrap();
        t.put(b"c", b"3").unwrap(); // triggers consolidation (3 > 2)
        let events = rec.drain();
        assert!(matches!(events[0].1, TreeEvent::Upsert { .. }));
        assert!(matches!(events[1].1, TreeEvent::Delete { .. }));
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, TreeEvent::Consolidate { .. })));
        assert!(events.iter().all(|(id, _)| *id == 9));
    }

    #[test]
    fn split_event_carries_both_images() {
        let rec = crate::events::RecordingListener::new();
        let t = BwTree::with_listener(
            1,
            store(),
            BwTreeConfig::default()
                .with_max_page_entries(4)
                .with_consolidate_threshold(2),
            rec.clone(),
        );
        for i in 0..10 {
            t.put(&key(i), b"v").unwrap();
        }
        let events = rec.drain();
        let split = events
            .iter()
            .find_map(|(_, e)| match e {
                TreeEvent::Split {
                    left_image,
                    right_image,
                    separator,
                    ..
                } => Some((left_image.clone(), right_image.clone(), separator.clone())),
                _ => None,
            })
            .expect("a split happened");
        let left = decode_base_page(&split.0).unwrap();
        let right = decode_base_page(&split.1).unwrap();
        assert!(!left.is_empty() && !right.is_empty());
        assert!(left.last().unwrap().0 < split.2);
        assert_eq!(right.first().unwrap().0, split.2);
    }

    /// Refuses the events its predicate picks, as a failing WAL would.
    struct Refusing(fn(&TreeEvent) -> bool);

    impl TreeEventListener for Refusing {
        fn on_event(&self, _tree: u64, event: &TreeEvent) -> StorageResult<()> {
            if (self.0)(event) {
                return Err(bg3_storage::StorageError::sync_poisoned(
                    bg3_storage::StorageOp::Append,
                    StreamId::WAL,
                ));
            }
            Ok(())
        }
    }

    #[test]
    fn a_refused_split_or_consolidation_leaves_the_page_whole() {
        let refusals: [fn(&TreeEvent) -> bool; 2] = [
            |e| matches!(e, TreeEvent::Split { .. }),
            |e| matches!(e, TreeEvent::Consolidate { .. }),
        ];
        for refuse in refusals {
            let t = BwTree::with_listener(
                1,
                store(),
                BwTreeConfig::default()
                    .with_max_page_entries(4)
                    .with_consolidate_threshold(2),
                Arc::new(Refusing(refuse)),
            );
            let failed = (0..10).filter(|&i| t.put(&key(i), b"v").is_err()).count();
            assert!(failed > 0, "the refused event came up");
            assert_eq!(t.page_count(), 1, "no split ran");
            // Each put was logged before its refused follow-up, so it stays.
            for i in 0..10 {
                assert_eq!(t.get(&key(i)).unwrap(), Some(b"v".to_vec()));
            }
            assert_eq!(t.entry_count(), 10);
        }
    }

    #[test]
    fn a_refused_split_base_append_loses_no_acked_key() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Every BASE append from the `n`-th on fails, so for some `n` the
        // failure lands on a split's left or right half.
        for n in 0..12 {
            let plan = FaultPlan::seeded(1).with_rule(
                FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0)
                    .on_stream(StreamId::BASE)
                    .after(n),
            );
            let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
            let t = BwTree::new(
                1,
                s,
                BwTreeConfig::default()
                    .with_max_page_entries(4)
                    .with_consolidate_threshold(2),
            );
            let acked: Vec<u32> = (0..10).filter(|&i| t.put(&key(i), b"v").is_ok()).collect();
            for i in acked {
                assert_eq!(
                    t.get(&key(i)).unwrap(),
                    Some(b"v".to_vec()),
                    "n={n} key {i}"
                );
            }
        }
    }

    #[test]
    fn repair_relocated_fixes_addresses() {
        let s = store();
        let t = BwTree::new(1, s.clone(), BwTreeConfig::default());
        t.put(b"a", b"1").unwrap();
        let (page, old_addr) = {
            let inner = t.inner.read();
            let st = &inner.pages[&FIRST_LEAF];
            (FIRST_LEAF, st.base_addr.unwrap())
        };
        // Simulate a GC move: write the same bytes elsewhere.
        let bytes = s.read(old_addr).unwrap();
        let new_addr = s.append(StreamId::BASE, &bytes, 0, None).unwrap();
        assert!(t.repair_relocated(page, old_addr, new_addr));
        assert!(
            !t.repair_relocated(page, old_addr, new_addr),
            "already moved"
        );
        let inner = t.inner.read();
        assert_eq!(inner.pages[&FIRST_LEAF].base_addr, Some(new_addr));
    }

    #[test]
    fn memory_footprint_grows_with_data() {
        let t = tree_with(BwTreeConfig::default());
        let empty = t.memory_footprint();
        for i in 0..100 {
            t.put(&key(i), &[0u8; 64]).unwrap();
        }
        assert!(t.memory_footprint() > empty + 100 * 64);
    }

    #[test]
    fn ttl_config_propagates_to_extents() {
        let s = store();
        let cfg = BwTreeConfig::default().with_ttl_nanos(Some(1_000_000));
        let t = BwTree::new(1, s.clone(), cfg);
        t.put(b"a", b"1").unwrap();
        let infos = s.extent_infos(StreamId::BASE).unwrap();
        assert!(infos[0].ttl_deadline.is_some());
    }

    #[test]
    fn transient_append_failures_are_retried_transparently() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // The first three appends fail; the retry policy (4 attempts)
        // absorbs them without surfacing an error.
        let plan = FaultPlan::seeded(1)
            .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0).at_most(3));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let clock = s.clock().clone();
        let t = BwTree::new(1, s.clone(), BwTreeConfig::default());
        t.put(b"a", b"1").unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.fault_injector().total_fired(), 3, "all three faults hit");
        // Backoff doubled per retry: 100 + 200 + 400 µs of simulated wait.
        assert_eq!(clock.now().as_micros(), 700);
    }

    #[test]
    fn failed_group_commit_keeps_pages_dirty() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Ten straight failures: two whole commits (4 attempts each) fail,
        // the third succeeds on its final attempt.
        let plan = FaultPlan::seeded(1)
            .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0).at_most(10));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let mut t = BwTree::new(1, s.clone(), BwTreeConfig::default());
        t.set_flush_mode(FlushMode::Deferred);
        t.put(b"a", b"1").unwrap();
        assert_eq!(t.dirty_count(), 1);
        assert!(t.flush_dirty().is_err(), "budget 10: attempts 1-4 fail");
        assert_eq!(t.dirty_count(), 1, "page stays dirty for the next commit");
        assert!(t.flush_dirty().is_err(), "attempts 5-8 fail");
        assert_eq!(t.dirty_count(), 1);
        let flushed = t.flush_dirty().unwrap();
        assert_eq!(flushed.len(), 1, "attempts 9-10 fail, 11 succeeds");
        assert_eq!(t.dirty_count(), 0);
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()), "nothing lost");
    }

    #[test]
    fn mid_flush_crash_fires_once_and_keeps_the_rest_dirty() {
        let s = store();
        let mut t = BwTree::new(
            1,
            s.clone(),
            BwTreeConfig::default()
                .with_max_page_entries(4)
                .with_consolidate_threshold(2),
        );
        t.set_flush_mode(FlushMode::Deferred);
        let switch = CrashSwitch::new();
        t.set_crash_switch(switch.clone());
        for i in 0..30 {
            t.put(&key(i), b"v").unwrap();
        }
        let before = t.dirty_count();
        assert!(before > 1, "several pages dirty");
        switch.arm(CrashPoint::MidFlush);
        let err = t.flush_dirty().unwrap_err();
        assert!(err.is_crash());
        assert_eq!(t.dirty_count(), before - 1, "one page flushed pre-crash");
        // Firing disarmed the switch: the next commit completes.
        let flushed = t.flush_dirty().unwrap();
        assert_eq!(flushed.len(), before - 1);
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers_are_safe() {
        let t = Arc::new(tree_with(
            BwTreeConfig::default()
                .with_max_page_entries(32)
                .with_consolidate_threshold(5),
        ));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    t.put(&key(w * 1000 + i), b"v").unwrap();
                }
            }));
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let _ = t.get(&key(i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.entry_count(), 800);
    }
}
