//! The read-only (follower) node.

use crate::commit::GroupCommit;
use crate::latency::LatencyRecorder;
use crate::recovery::{apply_payload, read_base_image, recover_tree};
use crate::rw::{RwNode, RwNodeConfig};
use bg3_bwtree::tree::FIRST_LEAF;
use bg3_bwtree::{Entries, PageTag};
use bg3_storage::{
    AppendOnlyStore, ErrorKind, MappingSnapshot, PageAddr, RetryPolicy, SharedMappingTable,
    StorageError, StorageOp, StorageResult, TraceKind, INITIAL_EPOCH,
};
use bg3_wal::{Lsn, WalPayload, WalReader};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// RO-node configuration.
#[derive(Debug, Clone)]
pub struct RoNodeConfig {
    /// Maximum pages cached in memory; beyond it, the least recently used
    /// page is evicted (the paper: "the cache on RO node dynamically evicts
    /// pages from DRAM based on the read requests").
    pub cache_capacity_pages: usize,
    /// Virtual-time budget for [`RoNode::ensure_seen`]: waiting on a
    /// session token longer than this returns
    /// [`bg3_storage::ErrorKind::Timeout`] instead of spinning on a log a
    /// dead leader will never extend.
    pub ensure_seen_timeout_nanos: u64,
    /// Virtual time burned per empty poll while waiting in
    /// [`RoNode::ensure_seen`] (models the tailing interval).
    pub ensure_seen_poll_nanos: u64,
}

impl Default for RoNodeConfig {
    fn default() -> Self {
        RoNodeConfig {
            cache_capacity_pages: 4096,
            ensure_seen_timeout_nanos: 200_000_000, // 200ms of virtual time
            ensure_seen_poll_nanos: 1_000_000,      // 1ms tailing interval
        }
    }
}

struct CachedPage {
    entries: Entries,
    /// Highest parked-record LSN already applied to `entries`.
    applied_lsn: Lsn,
    last_access: u64,
}

type PageKey = (u64, u64); // (tree, page)

struct RoInner {
    /// Per-tree routing table, rebuilt from WAL `Split` records.
    routing: HashMap<u64, BTreeMap<Vec<u8>, u64>>,
    cache: HashMap<PageKey, CachedPage>,
    /// The page-indexed log area (§3.4 "I/O Efficiency"): parked records
    /// waiting for lazy replay, in LSN order per page.
    log_area: HashMap<PageKey, Vec<(Lsn, WalPayload)>>,
    /// Highest leadership epoch observed in the log. Records from a lower
    /// epoch arriving *after* a higher one are zombie artifacts (a fenced
    /// leader racing its demotion) and are skipped defensively.
    max_epoch: u64,
    /// The mapping version this follower reads base images through. Only
    /// advanced when a `CheckpointComplete` is *processed* — never the live
    /// table, which may already reflect WAL records this follower has not
    /// replayed (reading it would serve data from the future and corrupt
    /// lazy replay). The multi-version store keeps superseded images
    /// readable until extent reclamation, so an adopted snapshot stays
    /// resolvable while the follower catches up.
    adopted: MappingSnapshot,
}

impl RoInner {
    /// Tree `tree`'s routing table; every tree starts as one leaf.
    fn routing(&mut self, tree: u64) -> &mut BTreeMap<Vec<u8>, u64> {
        self.routing
            .entry(tree)
            .or_insert_with(|| BTreeMap::from([(Vec::new(), FIRST_LEAF as u64)]))
    }

    /// The page of tree `tree` that owns `key`.
    fn route(&mut self, tree: u64, key: &[u8]) -> u64 {
        *self
            .routing(tree)
            .range::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .expect("routing contains the empty separator")
            .1
    }
}

/// Counters describing an RO node's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoStatsSnapshot {
    /// Point lookups served.
    pub reads: u64,
    /// Lookups served from cached pages.
    pub cache_hits: u64,
    /// Lookups that fetched a page image from shared storage.
    pub cache_misses: u64,
    /// WAL records parked into the log area.
    pub records_parked: u64,
    /// Parked records applied to cached pages (lazy replay).
    pub records_applied: u64,
    /// Parked records discarded after a checkpoint covered them.
    pub records_discarded: u64,
    /// Reads served while the node was flagged stale (leader dead, no new
    /// WAL arriving) — possibly missing the leader's final writes.
    pub stale_reads: u64,
    /// Zombie records (epoch below the log's high-water mark) skipped.
    pub fenced_records_skipped: u64,
    /// WAL records past `seen_lsn` replayed during promotion.
    pub promotion_replay_records: u64,
    /// Cold page reads re-attempted after a retryable verification failure.
    pub corrupt_read_retries: u64,
    /// Cold page reads that fell back to the live mapping's address after
    /// the adopted address failed verification persistently.
    pub corrupt_read_failovers: u64,
}

/// A follower: tails the WAL, parks page records for lazy replay, serves
/// reads from its cache + the published mapping version (Fig. 7, right).
pub struct RoNode {
    store: AppendOnlyStore,
    mapping: SharedMappingTable,
    reader: Mutex<WalReader>,
    inner: Mutex<RoInner>,
    latency: LatencyRecorder,
    config: RoNodeConfig,
    access_clock: AtomicU64,
    reads: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    records_parked: AtomicU64,
    records_applied: AtomicU64,
    records_discarded: AtomicU64,
    stale_reads: AtomicU64,
    fenced_records_skipped: AtomicU64,
    promotion_replay_records: AtomicU64,
    corrupt_read_retries: AtomicU64,
    corrupt_read_failovers: AtomicU64,
    /// Set by the failover coordinator while the leader is down: reads
    /// still succeed but are counted as (possibly) stale.
    serving_stale: AtomicBool,
}

impl RoNode {
    /// Attaches a follower to the shared store, the leader's mapping table,
    /// and a WAL reader (from [`crate::RwNode::open_wal_reader`]).
    pub fn new(
        store: AppendOnlyStore,
        mapping: SharedMappingTable,
        reader: WalReader,
        config: RoNodeConfig,
    ) -> Self {
        let adopted = mapping.snapshot();
        RoNode {
            store,
            mapping,
            reader: Mutex::new(reader),
            inner: Mutex::new(RoInner {
                routing: HashMap::new(),
                cache: HashMap::new(),
                log_area: HashMap::new(),
                max_epoch: INITIAL_EPOCH,
                adopted,
            }),
            latency: LatencyRecorder::default(),
            config,
            access_clock: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            records_parked: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            records_discarded: AtomicU64::new(0),
            stale_reads: AtomicU64::new(0),
            fenced_records_skipped: AtomicU64::new(0),
            promotion_replay_records: AtomicU64::new(0),
            corrupt_read_retries: AtomicU64::new(0),
            corrupt_read_failovers: AtomicU64::new(0),
            serving_stale: AtomicBool::new(false),
        }
    }

    /// Leader-to-follower propagation latency (record timestamp → poll),
    /// on the simulated clock.
    pub fn sync_latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RoStatsSnapshot {
        RoStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            records_parked: self.records_parked.load(Ordering::Relaxed),
            records_applied: self.records_applied.load(Ordering::Relaxed),
            records_discarded: self.records_discarded.load(Ordering::Relaxed),
            stale_reads: self.stale_reads.load(Ordering::Relaxed),
            fenced_records_skipped: self.fenced_records_skipped.load(Ordering::Relaxed),
            promotion_replay_records: self.promotion_replay_records.load(Ordering::Relaxed),
            corrupt_read_retries: self.corrupt_read_retries.load(Ordering::Relaxed),
            corrupt_read_failovers: self.corrupt_read_failovers.load(Ordering::Relaxed),
        }
    }

    /// Flags (or clears) stale serving: while set, reads are still served —
    /// availability through the outage — but counted as possibly stale.
    pub fn set_serving_stale(&self, stale: bool) {
        self.serving_stale.store(stale, Ordering::Relaxed);
    }

    /// True while the failover coordinator has flagged reads as stale.
    pub fn is_serving_stale(&self) -> bool {
        self.serving_stale.load(Ordering::Relaxed)
    }

    /// The highest LSN this follower has consumed from the WAL. Use with
    /// [`RoNode::ensure_seen`] for read-your-writes session consistency:
    /// the leader hands the client `rw.last_lsn()` as a session token, and
    /// any follower can serve the client once it has caught up to it.
    pub fn seen_lsn(&self) -> Lsn {
        self.reader.lock().position()
    }

    /// Catches up to at least `lsn`, polling the WAL until the token is
    /// covered or `ensure_seen_timeout_nanos` of virtual time elapse.
    ///
    /// Returns `Ok(true)` once the follower covers the token. A token the
    /// leader never durably logged — e.g. because the leader is dead —
    /// surfaces as [`bg3_storage::ErrorKind::Timeout`] rather than an
    /// indefinite wait, so session routing can fail over to another node.
    pub fn ensure_seen(&self, lsn: Lsn) -> StorageResult<bool> {
        let clock = self.store.clock();
        let start = clock.now();
        loop {
            if self.seen_lsn() >= lsn {
                return Ok(true);
            }
            let advanced = self.poll()?;
            if self.seen_lsn() >= lsn {
                return Ok(true);
            }
            let waited = clock.now().duration_since(start);
            if advanced == 0 {
                if waited >= self.config.ensure_seen_timeout_nanos {
                    return Err(StorageError::timeout(StorageOp::WalReplay, waited));
                }
                // Idle tailing interval: burn virtual time so a dead leader
                // cannot stall the session forever.
                clock.advance_nanos(self.config.ensure_seen_poll_nanos.max(1));
            }
        }
    }

    /// Tails the WAL: parks page records, applies splits to the routing
    /// table eagerly, and processes checkpoints. Returns the number of new
    /// records consumed.
    pub fn poll(&self) -> StorageResult<usize> {
        let records = self.reader.lock().fetch_new()?;
        if records.is_empty() {
            return Ok(0);
        }
        let now = self.store.clock().now();
        let mut inner = self.inner.lock();
        let count = records.len();
        // The reader's position already covers this whole batch, so every
        // record must be consumed even if one of them reports corruption —
        // aborting midway would silently lose the rest of the batch.
        let mut first_error: Option<StorageError> = None;
        for record in records {
            // Defense in depth: with store-side fencing a zombie record
            // should never land, but replay tolerates one anyway by
            // skipping records whose epoch regressed.
            if record.epoch < inner.max_epoch {
                self.fenced_records_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            inner.max_epoch = record.epoch;
            self.latency.record(now.duration_since(record.timestamp));
            match &record.payload {
                WalPayload::CheckpointComplete {
                    upto,
                    mapping_version,
                } => {
                    if let Err(e) = self.handle_checkpoint(&mut inner, Lsn(*upto), *mapping_version)
                    {
                        first_error.get_or_insert(e);
                    }
                    continue;
                }
                WalPayload::Split {
                    right_page,
                    separator,
                } => {
                    // Routing must be current before any read routes a key;
                    // the content truncation of the left page stays lazy.
                    inner
                        .routing(record.tree)
                        .insert(separator.clone(), *right_page);
                }
                _ => {}
            }
            // Park the record for lazy replay.
            inner
                .log_area
                .entry((record.tree, record.page))
                .or_default()
                .push((record.lsn, record.payload));
            self.records_parked.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.store
            .trace()
            .emit(now.0, TraceKind::RoReplay, self.seen_lsn().0, count as u64);
        first_error.map_or(Ok(count), Err)
    }

    /// Checkpoint: shared storage now reflects LSNs `<= upto`. Apply covered
    /// records to any *cached* pages (so dropping them loses nothing), then
    /// discard them; uncached pages will be re-fetched current from storage.
    ///
    /// A record that fails to apply (torn page image) evicts the affected
    /// page — storage reflects the checkpoint, so a cold re-read converges —
    /// and the first such corruption is reported to the caller.
    fn handle_checkpoint(
        &self,
        inner: &mut RoInner,
        upto: Lsn,
        mapping_version: u64,
    ) -> StorageResult<()> {
        // Adopt the exact mapping version this checkpoint published. Cold
        // reads resolve through it from now on; everything it covers is
        // about to be applied-and-discarded below, so image + parked
        // records stay an exact prefix of the log. The *live* table is
        // deliberately not used — the leader may have published newer
        // versions covering WAL records this follower has not replayed.
        // If retention already pruned the version (a follower lagging by
        // over a thousand checkpoints), fall back to the live snapshot:
        // bounded staleness degrades to at-least-once visibility instead
        // of data loss, because newer images only ever cover *more* LSNs.
        if mapping_version > inner.adopted.version() {
            let snapshot = self
                .mapping
                .snapshot_at(mapping_version)
                .unwrap_or_else(|| self.mapping.snapshot());
            // Integrity gate at the adoption boundary: never route cold
            // reads through a mapping plane whose incremental fingerprint
            // disagrees with its own contents. The stale adopted snapshot
            // keeps serving (bounded staleness beats garbage addresses).
            if !snapshot.verify_integrity() {
                return Err(StorageError::new(
                    ErrorKind::ChecksumMismatch,
                    StorageOp::MappingPublish,
                ));
            }
            inner.adopted = snapshot;
        }
        let mut first_error: Option<StorageError> = None;
        let RoInner {
            cache, log_area, ..
        } = inner;
        log_area.retain(|page_key, records| {
            let covered = records.iter().filter(|(lsn, _)| *lsn <= upto).count();
            if covered > 0 {
                if let Some(cached) = cache.get_mut(page_key) {
                    if let Err(e) = self.replay(cached, &records[..covered]) {
                        cache.remove(page_key);
                        first_error.get_or_insert(e);
                    }
                }
                records.drain(..covered);
                self.records_discarded
                    .fetch_add(covered as u64, Ordering::Relaxed);
            }
            !records.is_empty()
        });
        first_error.map_or(Ok(()), Err)
    }

    /// Lazy replay: applies the parked `records` (LSN-ordered) newer than
    /// `cached` has seen, stopping at the first that fails to apply (a
    /// torn image). The caller evicts a page that fails half-applied.
    fn replay(&self, cached: &mut CachedPage, records: &[(Lsn, WalPayload)]) -> StorageResult<()> {
        let seen = cached.applied_lsn;
        for (lsn, payload) in records.iter().filter(|(lsn, _)| *lsn > seen) {
            apply_payload(&mut cached.entries, payload)?;
            cached.applied_lsn = *lsn;
            self.records_applied.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Point lookup with lazy replay (Fig. 7 steps (4)–(6)).
    pub fn get(&self, tree: u64, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.is_serving_stale() {
            self.stale_reads.fetch_add(1, Ordering::Relaxed);
        }
        let stamp = self.access_clock.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let page = inner.route(tree, key);
        let page_key = (tree, page);

        if !inner.cache.contains_key(&page_key) {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            // Resolve through the *adopted* mapping version — the one whose
            // checkpoint this follower has processed — never the live table,
            // which may run ahead of replay. A page the mapping does not
            // know is brand new (paper's page Q): it is built purely from
            // parked records.
            let tag = PageTag {
                tree: tree as u32,
                page: page as u32,
            }
            .encode();
            let entries = match self.fetch_base_page(&inner.adopted, tag) {
                Ok(entries) => entries,
                Err(e) => {
                    // Any verification or decode failure follows the same
                    // eviction path as a torn image during replay: drop
                    // whatever the cache holds for this page so the next
                    // read refetches cold instead of trusting a stale or
                    // half-built entry.
                    inner.cache.remove(&page_key);
                    return Err(e);
                }
            };
            self.evict_if_full(&mut inner);
            inner.cache.insert(
                page_key,
                CachedPage {
                    entries,
                    applied_lsn: Lsn::ZERO,
                    last_access: stamp,
                },
            );
        } else {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }

        // Lazy replay: apply parked records newer than the page has seen.
        let RoInner {
            cache, log_area, ..
        } = &mut *inner;
        let cached = cache.get_mut(&page_key).expect("just ensured");
        cached.last_access = stamp;
        let parked = log_area.get(&page_key).map_or(&[][..], Vec::as_slice);
        if let Err(e) = self.replay(cached, parked) {
            // Half-applied page: evict it so the next read starts from a
            // clean storage fetch instead of compounding the corruption.
            cache.remove(&page_key);
            return Err(e);
        }
        Ok(cached
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| cached.entries[i].1.clone()))
    }

    /// Ordered scan of `[start, end)` limited to `limit` entries, with lazy
    /// replay on every page touched.
    pub fn scan_range(
        &self,
        tree: u64,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        limit: usize,
    ) -> StorageResult<Entries> {
        // Collect the page ids covering the range, then reuse `get`'s fetch
        // logic page by page via a probe key.
        let pages: Vec<(Vec<u8>, u64)> = {
            let mut inner = self.inner.lock();
            let routing = inner.routing(tree);
            let first_key = start.map(|s| s.to_vec()).unwrap_or_default();
            let mut pages = Vec::new();
            if let Some((sep, &id)) = routing
                .range::<[u8], _>((Bound::Unbounded, Bound::Included(first_key.as_slice())))
                .next_back()
            {
                pages.push((sep.clone(), id));
            }
            for (sep, &id) in
                routing.range::<[u8], _>((Bound::Excluded(first_key.as_slice()), Bound::Unbounded))
            {
                if let Some(e) = end {
                    if sep.as_slice() >= e {
                        break;
                    }
                }
                pages.push((sep.clone(), id));
            }
            pages
        };
        let mut out = Entries::new();
        for (sep, _) in pages {
            // Touch the page via its separator key to fault it in + replay.
            self.get(tree, &sep)?;
            let mut inner = self.inner.lock();
            let page = inner.route(tree, &sep);
            if let Some(cached) = inner.cache.get(&(tree, page)) {
                for (k, v) in &cached.entries {
                    if start.is_some_and(|s| k.as_slice() < s) {
                        continue;
                    }
                    if end.is_some_and(|e| k.as_slice() >= e) {
                        break;
                    }
                    out.push((k.clone(), v.clone()));
                    if out.len() == limit {
                        return Ok(out);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Cold fetch of a base page image with bounded verify-retry-failover
    /// (the read half of the end-to-end integrity loop):
    ///
    /// 1. Read + decode through the adopted mapping's address, retrying
    ///    retryable failures (checksum mismatches, transient read faults)
    ///    a bounded number of times on the virtual clock.
    /// 2. On persistent corruption, fall back to the *live* mapping's
    ///    address for the same page — the leader or the scrubber may have
    ///    repaired/re-homed the image since this follower's checkpoint.
    /// 3. Only when both sources fail does the structured error surface
    ///    (quarantined extents fail fast here: not retryable).
    fn fetch_base_page(&self, adopted: &MappingSnapshot, tag: u64) -> StorageResult<Entries> {
        let Some(addr) = adopted.get(tag) else {
            // Brand-new page (paper's page Q): built purely from parked
            // records.
            return Ok(Entries::new());
        };
        // A torn base image is a storage-corruption event, not a
        // process-abort: it is reported so the caller can retry through a
        // republished mapping or fail over.
        let attempt = |addr: PageAddr| read_base_image(&self.store, addr);
        let retry = RetryPolicy::default();
        let clock = self.store.clock();
        let retry_if = |e: &StorageError| {
            let again = e.is_retryable();
            if again {
                self.corrupt_read_retries.fetch_add(1, Ordering::Relaxed);
            }
            again
        };
        match retry.run_when(clock, retry_if, || attempt(addr)) {
            Ok(entries) => Ok(entries),
            Err(e)
                if matches!(
                    e.kind,
                    ErrorKind::ChecksumMismatch
                        | ErrorKind::CorruptRecord
                        | ErrorKind::ExtentQuarantined(_)
                ) =>
            {
                match self.mapping.snapshot().get(tag) {
                    Some(live) if live != addr => {
                        self.corrupt_read_failovers.fetch_add(1, Ordering::Relaxed);
                        retry.run_when(clock, retry_if, || attempt(live))
                    }
                    _ => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn evict_if_full(&self, inner: &mut RoInner) {
        if inner.cache.len() < self.config.cache_capacity_pages {
            return;
        }
        if let Some((&victim, _)) = inner.cache.iter().min_by_key(|(_, p)| p.last_access) {
            inner.cache.remove(&victim);
        }
    }

    /// Promotes this follower to a leader on `epoch` (failover, §3.4
    /// extended). The returned [`RwNode`] shares the cluster's store and
    /// mapping table; this follower is defunct afterwards (its WAL reader
    /// tails the dead leader's index).
    ///
    /// The sequence is crash-survivable because every step works from
    /// shared storage only:
    ///
    /// 1. **Drain** the WAL through this node's reader (free catch-up for
    ///    the tail the reader already indexes).
    /// 2. **Seal** the old epoch at the mapping table — from here on every
    ///    zombie publish *and* WAL append is rejected atomically; sealing
    ///    before rebuilding means a zombie cannot extend the log while we
    ///    replay it.
    /// 3. **Rescan** the WAL stream from shared storage
    ///    ([`GroupCommit::reopen`]) — the dead leader's in-memory LSN index
    ///    died with it — counting the records past our `seen_lsn` as
    ///    promotion replay work.
    /// 4. **Rebuild** the tree via [`recover_tree`] (mapping images + WAL
    ///    tail) and come up as a deferred-flush leader on the new epoch.
    pub fn promote(&self, epoch: u64, config: RwNodeConfig) -> StorageResult<RwNode> {
        // Promotion latency is a clock delta: failover is single-threaded
        // (one replica promotes at a time), so the delta captures the
        // drain + seal + rescan + rebuild cost without concurrent pollution.
        let started = self.store.clock().now();
        // 1. Drain whatever the reader can still see. `seen` is captured
        //    *before* the drain: promotion replay work is measured against
        //    what this replica had applied when the failover began.
        let seen = self.seen_lsn();
        while self.poll()? > 0 {}

        // 2. Fence out the old leader before reading the log tail.
        self.mapping.seal_epoch(epoch)?;

        // 3. Crash-survivable rescan from shared storage. The log reopens
        //    at the fence's current epoch; if a newer seal raced ours,
        //    another replica won and this one must not lead.
        let (commit, records) =
            GroupCommit::reopen(&self.store, self.mapping.clone(), config.tree_config.retry)?;
        self.mapping.check_epoch(epoch)?;
        let replayed_past_seen = records.iter().filter(|r| r.lsn > seen).count() as u64;
        self.promotion_replay_records
            .fetch_add(replayed_past_seen, Ordering::Relaxed);

        // 4. Rebuild the tree and assemble the successor leader.
        let tree = recover_tree(
            config.tree_id,
            self.store.clone(),
            &self.mapping,
            &records,
            config.tree_config.clone(),
            commit.listener(),
        )?;
        self.set_serving_stale(false);
        let done = self.store.clock().now();
        self.store
            .stats()
            .record_promotion_latency(done.duration_since(started));
        self.store
            .trace()
            .emit(done.0, TraceKind::Promotion, epoch, replayed_past_seen);
        Ok(RwNode::from_parts(tree, commit, config))
    }

    /// Drops every cached page (tests and failover simulations).
    pub fn evict_all(&self) {
        self.inner.lock().cache.clear();
    }

    /// Number of records currently parked in the log area.
    pub fn parked_records(&self) -> usize {
        self.inner.lock().log_area.values().map(|v| v.len()).sum()
    }

    /// Number of cached pages.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().cache.len()
    }
}

impl std::fmt::Debug for RoNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoNode")
            .field("cached_pages", &self.cached_pages())
            .field("parked_records", &self.parked_records())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rw::{RwNode, RwNodeConfig};
    use bg3_storage::{StoreBuilder, StoreConfig};

    fn pair(group_commit: usize) -> (RwNode, RoNode) {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = RwNode::new(
            store.clone(),
            RwNodeConfig {
                group_commit_pages: group_commit,
                ..RwNodeConfig::default()
            },
        );
        let ro = RoNode::new(
            store,
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig::default(),
        );
        (rw, ro)
    }

    #[test]
    fn follower_reads_unflushed_writes_after_poll() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k1", b"v1").unwrap();
        rw.put(b"k2", b"v2").unwrap();
        ro.poll().unwrap();
        // No checkpoint ran: data exists only in WAL + RW memory, yet the RO
        // serves it — this is the strong-consistency property of Fig. 12.
        assert_eq!(ro.get(1, b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(ro.get(1, b"k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(ro.get(1, b"k3").unwrap(), None);
    }

    #[test]
    fn lazy_replay_applies_only_on_access() {
        let (rw, ro) = pair(usize::MAX);
        for i in 0..10u32 {
            rw.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        ro.poll().unwrap();
        assert_eq!(ro.stats().records_applied, 0, "nothing touched yet");
        assert!(ro.parked_records() >= 10);
        ro.get(1, b"key0").unwrap();
        assert!(ro.stats().records_applied > 0, "replayed on access");
    }

    #[test]
    fn checkpoint_discards_covered_records() {
        let (rw, ro) = pair(usize::MAX);
        for i in 0..8u32 {
            rw.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        ro.poll().unwrap();
        let parked_before = ro.parked_records();
        rw.checkpoint().unwrap();
        ro.poll().unwrap();
        assert!(ro.parked_records() < parked_before, "log area trimmed");
        // Data still readable: now through mapping + storage.
        assert_eq!(ro.get(1, b"key3").unwrap(), Some(b"v".to_vec()));
        assert!(ro.stats().records_discarded > 0);
    }

    #[test]
    fn cache_miss_resolves_old_mapping_plus_wal() {
        // The Fig. 6/7 scenario: page flushed, then more writes logged but
        // not flushed; an RO cold read must merge storage + parked records.
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"a", b"old").unwrap();
        rw.checkpoint().unwrap();
        rw.put(b"a", b"new").unwrap(); // only in WAL
        rw.put(b"b", b"fresh").unwrap(); // only in WAL
        ro.poll().unwrap();
        ro.evict_all();
        assert_eq!(ro.get(1, b"a").unwrap(), Some(b"new".to_vec()));
        assert_eq!(ro.get(1, b"b").unwrap(), Some(b"fresh".to_vec()));
        assert!(ro.stats().cache_misses >= 1);
    }

    #[test]
    fn splits_replicate_via_routing_and_new_pages() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut cfg = RwNodeConfig {
            group_commit_pages: usize::MAX,
            ..RwNodeConfig::default()
        };
        cfg.tree_config = cfg
            .tree_config
            .with_max_page_entries(8)
            .with_consolidate_threshold(4);
        let rw = RwNode::new(store.clone(), cfg);
        let ro = RoNode::new(
            store,
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig::default(),
        );
        for i in 0..64u32 {
            rw.put(format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert!(rw.tree().page_count() > 1, "leader split");
        ro.poll().unwrap();
        for i in 0..64u32 {
            assert_eq!(
                ro.get(1, format!("key{i:03}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i} readable on follower after split"
            );
        }
    }

    #[test]
    fn deletes_propagate() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v").unwrap();
        rw.delete(b"k").unwrap();
        ro.poll().unwrap();
        assert_eq!(ro.get(1, b"k").unwrap(), None);
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut cfg = RwNodeConfig {
            group_commit_pages: usize::MAX,
            ..RwNodeConfig::default()
        };
        cfg.tree_config = cfg
            .tree_config
            .with_max_page_entries(4)
            .with_consolidate_threshold(2);
        let rw = RwNode::new(store.clone(), cfg);
        let ro = RoNode::new(
            store,
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig {
                cache_capacity_pages: 2,
                ..RoNodeConfig::default()
            },
        );
        for i in 0..64u32 {
            rw.put(format!("key{i:03}").as_bytes(), b"v").unwrap();
        }
        ro.poll().unwrap();
        for i in 0..64u32 {
            ro.get(1, format!("key{i:03}").as_bytes()).unwrap();
        }
        assert!(ro.cached_pages() <= 2, "capacity enforced");
        // Reads remain correct despite evictions.
        for i in (0..64u32).step_by(9) {
            assert_eq!(
                ro.get(1, format!("key{i:03}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
    }

    #[test]
    fn scan_range_on_follower_merges_replayed_pages() {
        let (rw, ro) = pair(usize::MAX);
        for i in 0..30u32 {
            rw.put(format!("key{i:03}").as_bytes(), format!("{i}").as_bytes())
                .unwrap();
        }
        rw.checkpoint().unwrap();
        for i in 30..40u32 {
            rw.put(format!("key{i:03}").as_bytes(), format!("{i}").as_bytes())
                .unwrap();
        }
        ro.poll().unwrap();
        let hits = ro
            .scan_range(1, Some(b"key010"), Some(b"key035"), usize::MAX)
            .unwrap();
        assert_eq!(hits.len(), 25);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        let limited = ro.scan_range(1, None, None, 7).unwrap();
        assert_eq!(limited.len(), 7);
    }

    #[test]
    fn session_tokens_give_read_your_writes() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v1").unwrap();
        let token = rw.last_lsn();
        // Fresh follower has seen nothing yet.
        assert!(ro.seen_lsn() < token);
        // ensure_seen catches it up and the write is visible.
        assert!(ro.ensure_seen(token).unwrap());
        assert_eq!(ro.get(1, b"k").unwrap(), Some(b"v1".to_vec()));
        // A token from the future cannot be served: the wait times out on
        // the virtual clock instead of spinning forever.
        let err = ro.ensure_seen(bg3_wal::Lsn(token.0 + 10)).unwrap_err();
        assert!(err.is_timeout(), "got {err}");
    }

    #[test]
    fn ensure_seen_gives_up_after_the_virtual_deadline() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let rw = RwNode::new(store.clone(), RwNodeConfig::default());
        let ro = RoNode::new(
            store.clone(),
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig {
                ensure_seen_timeout_nanos: 5_000,
                ensure_seen_poll_nanos: 1_000,
                ..RoNodeConfig::default()
            },
        );
        let before = store.clock().now();
        let err = ro.ensure_seen(Lsn(1)).unwrap_err();
        assert!(err.is_timeout());
        let waited = store.clock().now().duration_since(before);
        assert!(
            (5_000..50_000).contains(&waited),
            "bounded wait, got {waited}ns"
        );
        // The leader finally writes; the same token is now served.
        rw.put(b"k", b"v").unwrap();
        assert!(ro.ensure_seen(Lsn(1)).unwrap());
    }

    #[test]
    fn torn_base_image_is_an_error_not_a_panic() {
        use bg3_storage::StreamId;
        // Small pages, so the leader has a second page whose checkpoint can
        // carry a mapping version that still names page 1's entry.
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut config = RwNodeConfig {
            group_commit_pages: usize::MAX,
            ..RwNodeConfig::default()
        };
        config.tree_config = config
            .tree_config
            .with_max_page_entries(4)
            .with_consolidate_threshold(2);
        let rw = RwNode::new(store.clone(), config);
        let ro = RoNode::new(
            store,
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig::default(),
        );
        for i in 0..16u32 {
            rw.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        assert!(rw.tree().page_count() > 1, "the leader split");
        rw.checkpoint().unwrap();
        ro.poll().unwrap();
        // Corrupt the mapping out from under the follower: point page 1's
        // entry at undecodable bytes on the base stream.
        let garbage = rw
            .store()
            .append(StreamId::BASE, b"\xff\xff\xff\xffnot a page", 0, None)
            .unwrap();
        let tag = bg3_bwtree::PageTag { tree: 1, page: 1 }.encode();
        rw.mapping().publish([(tag, Some(garbage))]);
        // A checkpoint of another page names a version that still carries
        // the corrupted entry; the follower adopts it on poll.
        rw.put(b"z", b"v").unwrap();
        rw.checkpoint().unwrap();
        assert_eq!(rw.mapping().snapshot().get(tag), Some(garbage));
        ro.poll().unwrap();
        ro.evict_all();
        let err = ro.get(1, b"k00").unwrap_err();
        assert!(
            matches!(err.kind, bg3_storage::ErrorKind::CorruptRecord),
            "structured corruption error, got {err}"
        );
        // The node survives: repair the mapping and the read succeeds.
        rw.put(b"k00a", b"v2").unwrap();
        rw.checkpoint().unwrap();
        ro.poll().unwrap();
        assert_eq!(ro.get(1, b"k00a").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn corrupt_adopted_image_fails_over_to_the_live_mapping() {
        use bg3_storage::StreamId;
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v").unwrap();
        rw.checkpoint().unwrap();
        ro.poll().unwrap();
        ro.evict_all();
        let tag = bg3_bwtree::PageTag { tree: 1, page: 1 }.encode();
        let adopted = rw.mapping().snapshot().get(tag).expect("page flushed");
        // Silent rot lands on the checkpointed image...
        rw.store().corrupt_record_bit(adopted, 13).unwrap();
        // ...but the leader (or scrubber) has since re-homed a clean copy
        // and published it. The follower's adopted snapshot still points
        // at the rotted address.
        let clean = bg3_bwtree::encode_base_page(&[(b"k".to_vec(), b"v".to_vec())]);
        let repaired = rw
            .store()
            .append(StreamId::BASE, &clean, tag, None)
            .unwrap();
        rw.mapping().publish([(tag, Some(repaired))]);
        assert_eq!(
            ro.get(1, b"k").unwrap(),
            Some(b"v".to_vec()),
            "read served through the live-mapping fallback"
        );
        let stats = ro.stats();
        assert!(stats.corrupt_read_retries > 0, "bounded retry ran first");
        assert_eq!(stats.corrupt_read_failovers, 1);
    }

    #[test]
    fn persistent_rot_without_an_alternative_is_a_structured_error() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v").unwrap();
        rw.checkpoint().unwrap();
        ro.poll().unwrap();
        ro.evict_all();
        let tag = bg3_bwtree::PageTag { tree: 1, page: 1 }.encode();
        let adopted = rw.mapping().snapshot().get(tag).expect("page flushed");
        rw.store().corrupt_record_bit(adopted, 5).unwrap();
        // Live mapping still names the same rotted address: nothing to
        // fail over to, so the checksum error surfaces (no panic, no
        // garbage bytes).
        let err = ro.get(1, b"k").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::ChecksumMismatch), "got {err}");
        assert!(ro.stats().corrupt_read_retries > 0);
        assert_eq!(ro.stats().corrupt_read_failovers, 0);
    }

    #[test]
    fn stale_flag_counts_reads_served_during_an_outage() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v").unwrap();
        ro.poll().unwrap();
        assert_eq!(ro.stats().stale_reads, 0);
        ro.set_serving_stale(true);
        assert!(ro.is_serving_stale());
        assert_eq!(ro.get(1, b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(ro.get(1, b"missing").unwrap(), None);
        assert_eq!(ro.stats().stale_reads, 2);
        ro.set_serving_stale(false);
        ro.get(1, b"k").unwrap();
        assert_eq!(ro.stats().stale_reads, 2, "flag cleared");
    }

    #[test]
    fn promote_turns_a_follower_into_a_working_leader() {
        let (rw, ro) = pair(usize::MAX);
        for i in 0..20u32 {
            rw.put(format!("key{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        rw.checkpoint().unwrap();
        // Writes past the checkpoint AND past the follower's last poll:
        // promotion must pick them up from the shared log.
        ro.poll().unwrap();
        rw.put(b"tail1", b"t1").unwrap();
        rw.put(b"tail2", b"t2").unwrap();

        let new_leader = ro.promote(2, RwNodeConfig::default()).unwrap();
        assert_eq!(new_leader.epoch(), 2);
        assert!(
            ro.stats().promotion_replay_records >= 2,
            "replayed the tail"
        );
        for i in 0..20u32 {
            assert_eq!(
                new_leader.get(format!("key{i:02}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "acked write {i} survives promotion"
            );
        }
        assert_eq!(new_leader.get(b"tail1").unwrap(), Some(b"t1".to_vec()));
        assert_eq!(new_leader.get(b"tail2").unwrap(), Some(b"t2".to_vec()));

        // The old leader is now a zombie on a sealed epoch.
        assert!(rw.put(b"zombie", b"w").unwrap_err().is_fenced());
        assert!(rw.checkpoint().unwrap_err().is_fenced());

        // The new leader writes and checkpoints on the new epoch, and a
        // fresh follower attached to it sees everything.
        new_leader.put(b"after", b"failover").unwrap();
        new_leader.checkpoint().unwrap();
        let ro2 = RoNode::new(
            new_leader.store().clone(),
            new_leader.mapping().clone(),
            new_leader.open_wal_reader(),
            RoNodeConfig::default(),
        );
        ro2.poll().unwrap();
        assert_eq!(ro2.get(1, b"after").unwrap(), Some(b"failover".to_vec()));
        assert_eq!(ro2.get(1, b"tail2").unwrap(), Some(b"t2".to_vec()));
        assert_eq!(ro2.stats().fenced_records_skipped, 0, "no zombie records");
    }

    #[test]
    fn promote_rejects_a_stale_epoch() {
        let (rw, ro) = pair(usize::MAX);
        rw.put(b"k", b"v").unwrap();
        rw.mapping().seal_epoch(5).unwrap();
        let err = ro.promote(5, RwNodeConfig::default()).unwrap_err();
        assert!(err.is_fenced(), "equal epoch cannot seal again");
        assert!(ro.promote(6, RwNodeConfig::default()).is_ok());
    }

    #[test]
    fn sync_latency_is_recorded() {
        let store = StoreBuilder::from_config(bg3_storage::StoreConfig::default()).build(); // real latency
        let rw = RwNode::new(store.clone(), RwNodeConfig::default());
        let ro = RoNode::new(
            store,
            rw.mapping().clone(),
            rw.open_wal_reader(),
            RoNodeConfig::default(),
        );
        rw.put(b"k", b"v").unwrap();
        ro.poll().unwrap();
        assert_eq!(ro.sync_latency().count(), 1);
        assert!(ro.sync_latency().mean_nanos() > 0, "simulated delay seen");
    }
}
