//! The append-only shared store.
//!
//! [`AppendOnlyStore`] is the single shared-storage device in a BG3
//! deployment: RW nodes append page and WAL data to it, RO nodes read from
//! it, and the space reclaimer relocates or expires whole extents. It is
//! cheap to clone (`Arc` internals); clones model different nodes attached
//! to the same storage service.

use crate::addr::{ExtentId, PageAddr, RecordId, StreamId};
use crate::backend::{BackendKind, BackendStats, ExtentBackend};
use crate::clock::{SimClock, SimInstant};
use crate::error::{ErrorKind, IoErrorClass, StorageError, StorageOp, StorageResult};
use crate::extent::{Extent, ExtentInfo, ExtentState};
use crate::fault::{FaultInjector, FaultOp, FaultPlan, RetryPolicy};
use crate::fault_backend::FaultBackend;
use crate::frame::{self, FrameKind, FRAME_HEADER_LEN};
use crate::health::{DiskHealth, DiskHealthTracker};
use crate::latency::LatencyModel;
use crate::stats::IoStats;
use crate::stream::{StreamInner, StreamStats};
use bg3_cache::{CacheConfig, CacheStatsSnapshot, PageCache};
use bg3_obs::{MetricsSnapshot, TraceBuffer, TraceKind};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction parameters for [`AppendOnlyStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Extent capacity in bytes. ArkDB-style uniform sizing (§3.3).
    pub extent_capacity: usize,
    /// Latency charged to the simulated clock per operation.
    pub latency: LatencyModel,
    /// Deterministic fault schedule ([`FaultPlan::none`] = never inject).
    pub faults: FaultPlan,
    /// Page-cache front for random reads. Enabled by default; set
    /// `capacity_bytes` to 0 (or use [`StoreConfig::without_cache`]) for
    /// the raw pre-cache behavior.
    pub cache: CacheConfig,
    /// Which physical byte backend holds extent data
    /// ([`BackendKind::Sim`] by default; every subsystem runs unchanged
    /// against either).
    pub backend: BackendKind,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            extent_capacity: 256 * 1024,
            latency: LatencyModel::cloud(),
            faults: FaultPlan::none(),
            cache: CacheConfig::default(),
            backend: BackendKind::Sim,
        }
    }
}

impl StoreConfig {
    /// Zero-latency config for counting-only experiments.
    pub fn counting() -> Self {
        StoreConfig {
            extent_capacity: 256 * 1024,
            latency: LatencyModel::zero(),
            faults: FaultPlan::none(),
            cache: CacheConfig::default(),
            backend: BackendKind::Sim,
        }
    }

    /// Overrides the extent capacity.
    pub fn with_extent_capacity(mut self, capacity: usize) -> Self {
        self.extent_capacity = capacity;
        self
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs a page-cache configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Disables the page cache (raw storage reads on every lookup).
    pub fn without_cache(mut self) -> Self {
        self.cache = CacheConfig::disabled();
        self
    }

    /// Selects the physical byte backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// Per-read options for [`AppendOnlyStore::read_with`]. A parameter object,
/// so new read knobs do not multiply the method surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOpts {
    /// Bypass (and never populate) the page cache. Relocation and
    /// sequential rescans set this so one-shot traffic neither pollutes
    /// the cache nor skews hit-rate measurements.
    pub bypass_cache: bool,
}

/// Physical identity of a cached record: `(stream, extent, offset)`.
///
/// Deliberately *not* the full [`PageAddr`]: relocation reads carry a
/// placeholder record id, and `len` is derivable from the slot, so the
/// physical triple is the one spelling every reader of a slot agrees on.
pub type SlotKey = (StreamId, ExtentId, u32);

struct StoreInner {
    config: StoreConfig,
    clock: SimClock,
    stats: IoStats,
    faults: FaultInjector,
    cache: PageCache<SlotKey>,
    trace: TraceBuffer,
    streams: HashMap<StreamId, Mutex<StreamInner>>,
    /// The backend every byte moves through: the physical one, or
    /// [`FaultBackend`] over it when the plan has a rule below the store.
    backend: Arc<dyn ExtentBackend>,
    /// The fault decorator inside `backend`, if one is installed.
    fault_backend: Option<Arc<FaultBackend>>,
    health: DiskHealthTracker,
    next_extent: AtomicU64,
    next_record: AtomicU64,
}

/// Shared, thread-safe handle to the storage service.
#[derive(Clone)]
pub struct AppendOnlyStore {
    inner: Arc<StoreInner>,
}

impl AppendOnlyStore {
    /// Opens a store against `backend`, rebuilding the metadata plane from
    /// whatever the backend already holds (crash recovery for file-backed
    /// stores, reattach for shared sim backends). Called by
    /// [`crate::StoreBuilder::open`] — the only construction path.
    pub(crate) fn open_internal(
        config: StoreConfig,
        clock: SimClock,
        backend: Arc<dyn ExtentBackend>,
    ) -> StorageResult<Self> {
        let stats = IoStats::new();
        backend.attach_stats(BackendStats::register(stats.registry()));
        // A fresh open always starts at Ok: durability below this point is
        // exactly the valid frame prefixes recovered from the backend, so
        // any pre-crash poison is moot.
        let health = DiskHealthTracker::new(stats.registry());
        let mut streams: HashMap<StreamId, Mutex<StreamInner>> = HashMap::new();
        for id in [
            StreamId::BASE,
            StreamId::DELTA,
            StreamId::WAL,
            StreamId::SST,
        ] {
            streams.insert(id, Mutex::new(StreamInner::new(id)));
        }
        let mut next_extent = 1u64;
        let mut next_record = 1u64;
        let now = clock.now();
        for persisted in backend.list_extents()? {
            let bytes = if persisted.len == 0 {
                Vec::new()
            } else {
                backend.read_at(
                    persisted.stream,
                    persisted.extent,
                    0,
                    persisted.len as usize,
                )?
            };
            // Walk the extent's valid frame prefix. The first hole — bad
            // magic, a frame extending past the physical length, or a
            // failed CRC — is a torn tail from an interrupted append;
            // everything after it is unreachable garbage.
            let mut recovered: Vec<(RecordId, u32, u64)> = Vec::new();
            let mut payload_used = 0u64;
            let mut pos = 0usize;
            while pos + FRAME_HEADER_LEN <= bytes.len() {
                let Ok(header) = frame::decode_header(&bytes[pos..]) else {
                    break;
                };
                let end = pos + FRAME_HEADER_LEN + header.len as usize;
                if end > bytes.len()
                    || frame::verify_frame(&bytes[pos..end], header.len, header.record).is_err()
                {
                    break;
                }
                recovered.push((header.record, header.len, header.tag));
                payload_used += header.len as u64;
                next_record = next_record.max(header.record.0 + 1);
                pos = end;
            }
            // An oversized persisted extent (written under a larger
            // configured capacity) keeps its actual size.
            let capacity = config.extent_capacity.max(payload_used as usize);
            let mut ext = Extent::new(capacity, now);
            for (record, len, tag) in recovered {
                ext.push_slot(record, len, tag, now, None, false);
            }
            // Recovered extents never take further appends: fresh ids start
            // past them, and sealing keeps any torn suffix from being
            // overwritten while it is still evidence.
            ext.state = ExtentState::Sealed;
            next_extent = next_extent.max(persisted.extent.0 + 1);
            streams
                .entry(persisted.stream)
                .or_insert_with(|| Mutex::new(StreamInner::new(persisted.stream)))
                .get_mut()
                .extents
                .insert(persisted.extent, ext);
        }
        // Faults model a live disk, not replay: the walk above reads the
        // physical backend, and only later I/O goes through the decorator.
        // One injector serves both draw sites (the decorator here, publishes
        // via `SharedMappingTable::for_store`).
        let faults = FaultInjector::new(config.faults.clone());
        let fault_backend = config
            .faults
            .rules
            .iter()
            .any(|rule| rule.op != FaultOp::MappingPublish)
            .then(|| Arc::new(FaultBackend::new(backend.clone(), faults.clone())));
        let backend = match &fault_backend {
            Some(decorator) => decorator.clone() as Arc<dyn ExtentBackend>,
            None => backend,
        };
        let cache = PageCache::new(config.cache.clone());
        let trace = TraceBuffer::default();
        // Ring-wrap drops must surface in exports, not just `dropped()`.
        trace.set_drop_counter(
            stats
                .registry()
                .counter(bg3_obs::names::TRACE_DROPPED_EVENTS_TOTAL),
        );
        Ok(AppendOnlyStore {
            inner: Arc::new(StoreInner {
                config,
                clock,
                stats,
                faults,
                cache,
                trace,
                streams,
                backend,
                fault_backend,
                health,
                next_extent: AtomicU64::new(next_extent),
                next_record: AtomicU64::new(next_record),
            }),
        })
    }

    /// The store's simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The store's I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// The store's structured trace ring. Shared by every clone (and, via
    /// [`crate::SharedMappingTable::for_store`], by the metadata plane), so
    /// all subsystems of one node interleave into a single ordered stream.
    pub fn trace(&self) -> &TraceBuffer {
        &self.inner.trace
    }

    /// Full registry snapshot: counters plus latency histograms. This is
    /// the data-plane view only; merge the mapping table's
    /// [`IoStats::metrics`] for a whole-node picture.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.stats.metrics()
    }

    /// The store's fault injector: its [`FaultBackend`] draws from it, and
    /// the mapping table shares it so publish faults draw from the same
    /// plan. `total_fired` therefore counts every layer.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.inner.faults
    }

    /// Point-in-time cache counters (hits, misses, admissions, evictions,
    /// residency). Storage-level mirrors of hits/misses/evictions are also
    /// registry counters (`cache_*_total` in [`IoStats::metrics`]).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.inner.cache.stats()
    }

    /// Extent capacity configured for this store.
    pub fn extent_capacity(&self) -> usize {
        self.inner.config.extent_capacity
    }

    /// The byte backend this store writes through ([`FaultBackend`] over
    /// the physical one when the fault plan acts below the store).
    pub fn backend(&self) -> &Arc<dyn ExtentBackend> {
        &self.inner.backend
    }

    /// True while an injected sticky disk-full regime
    /// ([`crate::FaultKind::DiskFull`]) blocks every write and allocation.
    pub fn is_disk_full(&self) -> bool {
        self.inner
            .fault_backend
            .as_ref()
            .is_some_and(|decorator| decorator.is_disk_full())
    }

    /// Durability barrier on `stream`'s active tail extent — the WAL
    /// writer syncs it after every append. Sealed extents were already
    /// synced at seal time, so a stream with no open extent has nothing to
    /// flush.
    ///
    /// Fail closed (the fsyncgate rule): a failed barrier *poisons* the
    /// stream. The kernel may have dropped the dirty tail pages on the
    /// first failure, so retrying the fsync — or appending past it — would
    /// ack writes whose durability is unknowable. Every later append or
    /// sync on the stream returns [`crate::ErrorKind::SyncPoisoned`];
    /// reads, reclaim, and recovery keep working, and a fresh open
    /// re-derives the durable tail from the frames actually on disk.
    pub fn sync_stream(&self, stream: StreamId) -> StorageResult<()> {
        let mut guard = self.stream(stream, StorageOp::Append)?.lock();
        if guard.poisoned {
            return Err(StorageError::sync_poisoned(StorageOp::Append, stream));
        }
        let Some(active) = guard.active else {
            return Ok(());
        };
        match self.inner.backend.sync(stream, active) {
            Ok(()) => {
                self.inner.health.on_durable_write();
                Ok(())
            }
            Err(err) => {
                self.poison(&mut guard, stream);
                Err(err)
            }
        }
    }

    /// True when `stream`'s tail is poisoned by a failed durability
    /// barrier (see [`AppendOnlyStore::sync_stream`]).
    pub fn is_poisoned(&self, stream: StreamId) -> bool {
        self.stream(stream, StorageOp::Append)
            .map(|s| s.lock().poisoned)
            .unwrap_or(false)
    }

    /// Current disk health (the `disk_health` gauge).
    pub fn disk_health(&self) -> DiskHealth {
        self.inner.health.get()
    }

    /// The tracker behind [`AppendOnlyStore::disk_health`] — experiments
    /// and the governed engine's tests drive transitions directly.
    pub fn disk_health_tracker(&self) -> &DiskHealthTracker {
        &self.inner.health
    }

    /// Marks `stream` poisoned and records the transition (once).
    fn poison(&self, guard: &mut StreamInner, stream: StreamId) {
        if !guard.poisoned {
            guard.poisoned = true;
            self.inner.stats.record_sync_poisoned();
            self.inner.health.on_poisoned();
            self.inner.trace.emit(
                self.inner.clock.now().0,
                TraceKind::SyncPoisoned,
                u64::from(stream.0),
                0,
            );
        }
    }

    /// Notes a failed backend write/allocation on the health gauge.
    fn note_append_error(&self, err: &StorageError) {
        if let ErrorKind::Io {
            class: IoErrorClass::NoSpace,
            ..
        } = err.kind
        {
            self.inner.health.on_no_space();
        }
    }

    fn stream(&self, id: StreamId, op: StorageOp) -> StorageResult<&Mutex<StreamInner>> {
        self.inner
            .streams
            .get(&id)
            .ok_or_else(|| StorageError::unknown_stream(op, id))
    }

    /// Appends `bytes` to the tail of `stream`.
    ///
    /// `tag` is an owner-defined cookie (e.g. a Bw-tree page id) returned
    /// during relocation so the owner can repair its mapping table.
    /// `ttl_nanos`, when set, declares the record dead after `now + ttl`; the
    /// extent inherits the latest such deadline (§3.3, Observation 2), or
    /// none once it holds a record without one.
    pub fn append(
        &self,
        stream: StreamId,
        bytes: &[u8],
        tag: u64,
        ttl_nanos: Option<u64>,
    ) -> StorageResult<PageAddr> {
        self.append_impl(stream, bytes, tag, ttl_nanos, false)
    }

    fn append_impl(
        &self,
        stream: StreamId,
        bytes: &[u8],
        tag: u64,
        ttl_nanos: Option<u64>,
        is_relocation: bool,
    ) -> StorageResult<PageAddr> {
        let capacity = self.inner.config.extent_capacity;
        if bytes.len() > capacity {
            return Err(StorageError::record_too_large(bytes.len(), capacity));
        }
        let cost = self.inner.config.latency.append_cost_nanos(bytes.len());
        let now = self.inner.clock.advance_nanos(cost);
        let expires_at = ttl_nanos.map(|ttl| now.plus_nanos(ttl));
        let record = RecordId(self.inner.next_record.fetch_add(1, Ordering::Relaxed));

        let mut guard = self.stream(stream, StorageOp::Append)?.lock();
        if guard.poisoned {
            // Fsyncgate: a failed barrier already disowned this tail; no
            // append may be acked past it (see `sync_stream`).
            return Err(StorageError::sync_poisoned(StorageOp::Append, stream));
        }
        let placement = guard.extent_for_append(bytes.len(), capacity, now, || {
            ExtentId(self.inner.next_extent.fetch_add(1, Ordering::Relaxed))
        });
        // Mirror the metadata transitions onto the backend before any bytes
        // move: the sealed predecessor gets its durability barrier, the
        // fresh extent gets a backing object. A failed allocation is rolled
        // back so the stream never points at an extent with no bytes.
        if let Some(prev) = placement.sealed {
            if let Err(err) = self.inner.backend.seal(stream, prev) {
                if placement.allocated {
                    guard.abort_allocation(placement.extent);
                }
                // A rollover seal is a durability barrier: its failure
                // leaves the predecessor's tail in doubt, so the stream
                // poisons just like a failed `sync_stream`.
                self.poison(&mut guard, stream);
                return Err(err);
            }
        }
        if placement.allocated {
            if let Err(err) = self
                .inner
                .backend
                .allocate(stream, placement.extent, capacity)
            {
                guard.abort_allocation(placement.extent);
                self.note_append_error(&err);
                return Err(err);
            }
        }
        let ext_id = placement.extent;
        let ext = guard.extents.get_mut(&ext_id).expect("extent just chosen");
        let framed = frame::encode_frame(FrameKind::for_stream(stream), record, tag, bytes);
        // Fail closed: the frame reaches the backend before any metadata
        // moves, so a failed physical write leaves the cursor unmoved and
        // the slot unregistered — a retry simply overwrites the same spot.
        // (A torn write may still land a scarred frame or a frame prefix;
        // recovery's valid-prefix walk discards it, exactly like a crash
        // mid-write.)
        if let Err(err) = self
            .inner
            .backend
            .write_at(stream, ext_id, ext.physical_len, &framed)
        {
            self.note_append_error(&err);
            return Err(err);
        }
        let offset = ext.push_slot(
            record,
            bytes.len() as u32,
            tag,
            now,
            expires_at,
            is_relocation,
        );
        drop(guard);

        self.inner.stats.record_append(bytes.len());
        self.inner.stats.record_append_latency(cost);
        if is_relocation {
            self.inner.stats.record_relocation(bytes.len());
        }
        Ok(PageAddr {
            stream,
            extent: ext_id,
            offset,
            len: bytes.len() as u32,
            record,
        })
    }

    /// Reads the record at `addr` through the page cache.
    ///
    /// A hit is served from memory: no storage latency, no `random_reads`
    /// tick, no backend read (so no fault draw: the request never leaves
    /// the node).
    /// A miss pays the full storage read and the returned bytes are
    /// offered to the cache, so the next reader of the same slot hits.
    pub fn read(&self, addr: PageAddr) -> StorageResult<Bytes> {
        self.read_with(addr, ReadOpts::default())
    }

    /// Reads the record at `addr` with explicit [`ReadOpts`]; see
    /// [`AppendOnlyStore::read`] for cache semantics.
    pub fn read_with(&self, addr: PageAddr, opts: ReadOpts) -> StorageResult<Bytes> {
        let cache = &self.inner.cache;
        if opts.bypass_cache || !cache.is_enabled() {
            return self.read_raw(addr);
        }
        let key: SlotKey = (addr.stream, addr.extent, addr.offset);
        if let Some(bytes) = cache.get(&key) {
            if bytes.len() == addr.len as usize {
                self.inner.stats.record_cache_hit();
                return Ok(bytes);
            }
            // A stale shape (same physical slot, different length) can
            // only come from a caller-constructed addr; drop it and fall
            // through to storage, which bounds-checks for real.
            cache.evict(&key);
            self.inner.stats.record_cache_evictions(1);
        }
        self.inner.stats.record_cache_miss();
        let bytes = self.read_raw(addr)?;
        let outcome = cache.insert(key, bytes.clone());
        if outcome.evicted > 0 {
            self.inner.stats.record_cache_evictions(outcome.evicted);
        }
        Ok(bytes)
    }

    /// The uncached read path: backend read, frame verification.
    /// Relocation comes through here so one-shot traffic neither pollutes
    /// the cache nor skews hit rates.
    fn read_raw(&self, addr: PageAddr) -> StorageResult<Bytes> {
        let guard = self.stream(addr.stream, StorageOp::Read)?.lock();
        let ext = guard
            .extents
            .get(&addr.extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Read, addr.extent))?;
        if ext.state == ExtentState::Reclaimed {
            return Err(StorageError::addr_not_found(StorageOp::Read, addr));
        }
        if ext.quarantined {
            return Err(
                StorageError::extent_quarantined(StorageOp::Read, addr.extent).with_addr(addr),
            );
        }
        let end = addr.offset as usize + addr.len as usize;
        if end > ext.physical_len as usize {
            return Err(StorageError::addr_out_of_bounds(StorageOp::Read, addr));
        }
        let Some(frame_start) = (addr.offset as usize).checked_sub(FRAME_HEADER_LEN) else {
            return Err(StorageError::addr_out_of_bounds(StorageOp::Read, addr));
        };
        // Backend read under the stream lock: a concurrent reclaim cannot
        // delete the backing object out from under us (it flips the state
        // to Reclaimed — checked above — before deleting).
        let framed = self.inner.backend.read_at(
            addr.stream,
            addr.extent,
            frame_start as u64,
            end - frame_start,
        )?;
        drop(guard);

        // The bytes crossed the wire whether or not they verify; charge the
        // modelled cost either way.
        let cost = self.inner.config.latency.read_cost_nanos(addr.len as usize);
        self.inner.clock.advance_nanos(cost);
        if frame::verify_frame(&framed, addr.len, addr.record).is_err() {
            // `bytes_read` counts only verified bytes served to callers;
            // a failed read still records its latency.
            self.inner.stats.record_checksum_mismatch();
            self.inner.stats.record_read_latency(cost);
            self.inner.trace.emit(
                self.inner.clock.now().0,
                TraceKind::ChecksumMismatch,
                addr.extent.0,
                addr.offset as u64,
            );
            return Err(StorageError::checksum_mismatch(StorageOp::Read, addr));
        }
        let bytes = Bytes::copy_from_slice(&framed[FRAME_HEADER_LEN..]);
        self.inner.stats.record_read(bytes.len());
        self.inner.stats.record_read_latency(cost);
        Ok(bytes)
    }

    /// Marks the record at `addr` garbage (out-of-place update or delete).
    ///
    /// Invalidating a record whose extent was already reclaimed (e.g. a
    /// TTL expiry raced ahead of the owner's mapping cleanup — the §3.3
    /// risk-control pattern) is a no-op: the space is already free.
    pub fn invalidate(&self, addr: PageAddr) -> StorageResult<()> {
        let now = self.inner.clock.now();
        let mut guard = self.stream(addr.stream, StorageOp::Invalidate)?.lock();
        let ext = guard
            .extents
            .get_mut(&addr.extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Invalidate, addr.extent))?;
        if ext.state == ExtentState::Reclaimed {
            return Ok(());
        }
        let Some(wasted) = ext.invalidate(addr.offset, now) else {
            return Err(StorageError::already_invalid(addr));
        };
        drop(guard);
        // Coherence: a dead slot must not be served from memory.
        if self
            .inner
            .cache
            .evict(&(addr.stream, addr.extent, addr.offset))
        {
            self.inner.stats.record_cache_evictions(1);
        }
        self.inner.stats.record_invalidation();
        if wasted > 0 {
            self.inner.stats.record_wasted_relocation(wasted);
        }
        Ok(())
    }

    /// Reads the whole frame of the slot whose payload sits at `offset`
    /// (`len` bytes), unverified. A transient failure is retried under
    /// [`RetryPolicy`]: one lost request must neither fail a rescan nor
    /// make the scrubber treat an intact frame as damaged.
    fn read_slot_frame(
        &self,
        stream: StreamId,
        extent: ExtentId,
        offset: u32,
        len: u32,
    ) -> StorageResult<Vec<u8>> {
        let frame_start = offset as u64 - FRAME_HEADER_LEN as u64;
        let span = FRAME_HEADER_LEN + len as usize;
        RetryPolicy::default().run(&self.inner.clock, || {
            self.inner
                .backend
                .read_at(stream, extent, frame_start, span)
        })
    }

    /// Sequentially reads every valid record in `stream`, in append order
    /// (extent allocation order, offset order within each extent). Returns
    /// `(addr, tag, bytes)` per record, charging the usual read costs.
    ///
    /// This is the bootstrap path a node takes after a crash: the WAL
    /// stream is rescanned from shared storage to rebuild the log index
    /// (record tags carry the LSNs), with no in-memory state required.
    pub fn scan_stream(&self, stream: StreamId) -> StorageResult<Vec<(PageAddr, u64, Bytes)>> {
        let mut framed = Vec::new();
        let guard = self.stream(stream, StorageOp::Read)?.lock();
        for (&extent, ext) in &guard.extents {
            if ext.state == ExtentState::Reclaimed {
                continue;
            }
            for slot in &ext.slots {
                if !slot.valid {
                    continue;
                }
                let addr = PageAddr {
                    stream,
                    extent,
                    offset: slot.offset,
                    len: slot.len,
                    record: slot.record,
                };
                let bytes = self.read_slot_frame(stream, extent, slot.offset, slot.len)?;
                framed.push((addr, slot.tag, bytes));
            }
        }
        drop(guard);
        let mut out = Vec::with_capacity(framed.len());
        for (addr, tag, frame_bytes) in framed {
            let cost = self.inner.config.latency.read_cost_nanos(addr.len as usize);
            self.inner.clock.advance_nanos(cost);
            if frame::verify_frame(&frame_bytes, addr.len, addr.record).is_err() {
                // A sequential rescan must not hand garbage to recovery.
                self.inner.stats.record_checksum_mismatch();
                self.inner.stats.record_read_latency(cost);
                self.inner.trace.emit(
                    self.inner.clock.now().0,
                    TraceKind::ChecksumMismatch,
                    addr.extent.0,
                    addr.offset as u64,
                );
                return Err(StorageError::checksum_mismatch(StorageOp::Read, addr));
            }
            let bytes = Bytes::copy_from_slice(&frame_bytes[FRAME_HEADER_LEN..]);
            self.inner.stats.record_read(bytes.len());
            self.inner.stats.record_read_latency(cost);
            out.push((addr, tag, bytes));
        }
        Ok(out)
    }

    /// Snapshot of every live extent's usage-tracking data in `stream`
    /// (the GC policy input). Sealed and open extents are both reported;
    /// reclaimed tombstones are skipped.
    pub fn extent_infos(&self, stream: StreamId) -> StorageResult<Vec<ExtentInfo>> {
        let now = self.inner.clock.now();
        let guard = self.stream(stream, StorageOp::Read)?.lock();
        Ok(guard
            .extents
            .iter()
            .filter(|(_, e)| e.state != ExtentState::Reclaimed)
            .map(|(&id, e)| e.info(id, stream, now))
            .collect())
    }

    /// Aggregate stream statistics.
    pub fn stream_stats(&self, stream: StreamId) -> StorageResult<StreamStats> {
        Ok(self.stream(stream, StorageOp::Read)?.lock().stats())
    }

    /// Total valid bytes across all streams — the store's logical footprint.
    pub fn total_valid_bytes(&self) -> u64 {
        self.inner
            .streams
            .values()
            .map(|s| s.lock().stats().valid_bytes)
            .sum()
    }

    /// Total occupied bytes across all streams (valid + garbage) — what the
    /// operator pays for.
    pub fn total_used_bytes(&self) -> u64 {
        self.inner
            .streams
            .values()
            .map(|s| s.lock().stats().used_bytes)
            .sum()
    }

    /// Relocates every valid record of `extent` to the stream tail and frees
    /// the extent. For each moved record, `on_move(tag, old, new)` lets the
    /// owner repair its pointers. Returns the number of bytes rewritten.
    ///
    /// This is the `doSpaceReclamation` primitive of Algorithm 2.
    pub fn relocate_extent(
        &self,
        stream: StreamId,
        extent: ExtentId,
        mut on_move: impl FnMut(u64, PageAddr, PageAddr),
    ) -> StorageResult<u64> {
        // Collect the valid slots under the lock, then release it: the
        // re-appends below take the same stream lock.
        let victims: Vec<(RecordId, u32, u32, u64, Option<SimInstant>)> = {
            let mut guard = self.stream(stream, StorageOp::Relocate)?.lock();
            let ext = guard
                .extents
                .get_mut(&extent)
                .ok_or_else(|| StorageError::unknown_extent(StorageOp::Relocate, extent))?;
            if ext.quarantined {
                // A quarantined extent may hold frames that fail
                // verification; relocation would either spread the damage
                // or abort halfway. It must go through `repair_extent`.
                return Err(StorageError::extent_quarantined(
                    StorageOp::Relocate,
                    extent,
                ));
            }
            if ext.state == ExtentState::Open {
                // Never reclaim the active tail; seal it first so appends
                // move on. (Policies normally only see sealed extents.)
                ext.state = ExtentState::Sealed;
                if guard.active == Some(extent) {
                    guard.active = None;
                }
            }
            let ext = guard.extents.get(&extent).expect("checked above");
            ext.slots
                .iter()
                .filter(|s| s.valid)
                .map(|s| (s.record, s.offset, s.len, s.tag, s.expires_at))
                .collect()
        };

        let mut moved_bytes = 0u64;
        for (record, offset, len, tag, deadline) in &victims {
            let old = PageAddr {
                stream,
                extent,
                offset: *offset,
                len: *len,
                // The real record id: relocation reads go through full
                // frame verification, including record binding.
                record: *record,
            };
            let bytes = self.read_raw(old)?;
            let remaining_ttl = deadline.map(|d| d.duration_since(self.inner.clock.now()));
            let new = self.append_impl(stream, &bytes, *tag, remaining_ttl, true)?;
            moved_bytes += *len as u64;
            // One GC move = the victim's read plus its rewrite, in
            // modelled virtual time (deterministic under concurrency).
            self.inner.stats.record_gc_move_latency(
                self.inner.config.latency.read_cost_nanos(*len as usize)
                    + self.inner.config.latency.append_cost_nanos(*len as usize),
            );
            on_move(*tag, old, new);
        }

        let mut guard = self.stream(stream, StorageOp::Relocate)?.lock();
        let ext = guard
            .extents
            .get_mut(&extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Relocate, extent))?;
        ext.state = ExtentState::Reclaimed;
        ext.slots = Vec::new();
        ext.valid_count = 0;
        ext.valid_bytes = 0;
        ext.physical_len = 0;
        drop(guard);
        // The tombstone state is visible before the backing object goes
        // away, so no reader can race the delete into a missing-file error.
        self.inner.backend.delete(stream, extent)?;
        // Reclaim freed physical space: a full disk steps down the ladder.
        self.inner.health.on_reclaim();
        // Coherence: every cached slot of the freed extent is gone.
        let evicted = self
            .inner
            .cache
            .evict_matching(|&(s, e, _)| s == stream && e == extent);
        if evicted > 0 {
            self.inner.stats.record_cache_evictions(evicted);
        }
        self.inner.stats.record_extent_reclaimed();
        self.inner.trace.emit(
            self.inner.clock.now().0,
            TraceKind::ExtentRelocate,
            extent.0,
            moved_bytes,
        );
        Ok(moved_bytes)
    }

    /// Drops `extent` wholesale because its TTL deadline has passed — no data
    /// movement at all (§3.3, Observation 2 / Table 2 "+TTL" row).
    ///
    /// Fails with [`crate::ErrorKind::ExtentStillLive`] if the deadline has
    /// not passed (callers must not expire live data).
    pub fn expire_extent(&self, stream: StreamId, extent: ExtentId) -> StorageResult<u64> {
        let now = self.inner.clock.now();
        let mut guard = self.stream(stream, StorageOp::Expire)?.lock();
        let ext = guard
            .extents
            .get_mut(&extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Expire, extent))?;
        if ext.state == ExtentState::Reclaimed {
            return Err(StorageError::unknown_extent(StorageOp::Expire, extent));
        }
        if ext.quarantined {
            // Even a fully-expired extent is held until repair: the
            // quarantine → repair → reclaim order is the invariant the
            // scrub experiment asserts on.
            return Err(StorageError::extent_quarantined(StorageOp::Expire, extent));
        }
        match ext.ttl_deadline {
            Some(deadline) if deadline <= now => {}
            _ => {
                return Err(StorageError::extent_still_live(
                    extent,
                    ext.valid_count as usize,
                ))
            }
        }
        let freed = ext.valid_count;
        ext.state = ExtentState::Reclaimed;
        ext.slots = Vec::new();
        ext.valid_count = 0;
        ext.valid_bytes = 0;
        ext.physical_len = 0;
        if guard.active == Some(extent) {
            guard.active = None;
        }
        drop(guard);
        self.inner.backend.delete(stream, extent)?;
        self.inner.health.on_reclaim();
        // Coherence: expiry frees the extent without reading it; cached
        // slots must die with it.
        let evicted = self
            .inner
            .cache
            .evict_matching(|&(s, e, _)| s == stream && e == extent);
        if evicted > 0 {
            self.inner.stats.record_cache_evictions(evicted);
        }
        self.inner.stats.record_extent_expired();
        self.inner
            .trace
            .emit(now.0, TraceKind::ExtentExpire, extent.0, freed);
        Ok(freed)
    }

    /// Chaos/test helper: flips one stored bit of the frame backing `addr`
    /// (bit index taken modulo the frame's bit width), modelling at-rest
    /// rot without going through the read path. The cached copy of the
    /// slot, if any, is evicted so the damage is observable.
    pub fn corrupt_record_bit(&self, addr: PageAddr, bit: u64) -> StorageResult<()> {
        let guard = self.stream(addr.stream, StorageOp::Read)?.lock();
        let ext = guard
            .extents
            .get(&addr.extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Read, addr.extent))?;
        if ext.state == ExtentState::Reclaimed {
            return Err(StorageError::addr_not_found(StorageOp::Read, addr));
        }
        let Some(frame_start) = (addr.offset as usize).checked_sub(FRAME_HEADER_LEN) else {
            return Err(StorageError::addr_out_of_bounds(StorageOp::Read, addr));
        };
        let end = addr.offset as usize + addr.len as usize;
        if end > ext.physical_len as usize {
            return Err(StorageError::addr_out_of_bounds(StorageOp::Read, addr));
        }
        let span_bits = ((end - frame_start) * 8) as u64;
        let b = bit % span_bits;
        self.inner
            .backend
            .corrupt_bit(addr.stream, addr.extent, frame_start as u64 * 8 + b)?;
        drop(guard);
        if self
            .inner
            .cache
            .evict(&(addr.stream, addr.extent, addr.offset))
        {
            self.inner.stats.record_cache_evictions(1);
        }
        Ok(())
    }

    /// True when `extent` is currently quarantined.
    pub fn is_quarantined(&self, stream: StreamId, extent: ExtentId) -> StorageResult<bool> {
        let guard = self.stream(stream, StorageOp::Read)?.lock();
        Ok(guard.extents.get(&extent).is_some_and(|e| e.quarantined))
    }

    /// Verifies every valid frame of `extent` at modelled sequential-read
    /// cost, *without* serving any bytes. If any frame fails, the extent is
    /// quarantined: reads fail fast and GC refuses to touch it until
    /// [`Self::repair_extent`] re-homes its records. Reclaimed extents
    /// report an empty check (the scrubber may race normal GC).
    pub fn verify_extent(&self, stream: StreamId, extent: ExtentId) -> StorageResult<ScrubCheck> {
        let mut check = ScrubCheck::default();
        let mut scanned_bytes = 0usize;
        let mut newly_quarantined = false;
        {
            let mut guard = self.stream(stream, StorageOp::Read)?.lock();
            let ext = guard
                .extents
                .get_mut(&extent)
                .ok_or_else(|| StorageError::unknown_extent(StorageOp::Read, extent))?;
            if ext.state == ExtentState::Reclaimed {
                return Ok(check);
            }
            for slot in ext.slots.iter().filter(|s| s.valid) {
                scanned_bytes += slot.len as usize;
                // A frame the backend cannot even produce (truncated file,
                // vanished object) counts as corruption: the slot's data is
                // unservable either way.
                let intact = match self.read_slot_frame(stream, extent, slot.offset, slot.len) {
                    Ok(framed) => frame::verify_frame(&framed, slot.len, slot.record).is_ok(),
                    Err(_) => false,
                };
                if intact {
                    check.records_verified += 1;
                } else {
                    check.corrupt_records += 1;
                }
            }
            if check.corrupt_records > 0 && !ext.quarantined {
                ext.quarantined = true;
                newly_quarantined = true;
            }
        }
        let cost = self.inner.config.latency.read_cost_nanos(scanned_bytes);
        self.inner.clock.advance_nanos(cost);
        self.inner
            .stats
            .record_scrub_records_verified(check.records_verified + check.corrupt_records);
        if check.corrupt_records > 0 {
            self.inner
                .stats
                .record_checksum_mismatches(check.corrupt_records);
        }
        if newly_quarantined {
            check.newly_quarantined = true;
            // Cached slots of a quarantined extent are dropped so every
            // subsequent read observes the fail-fast error.
            let evicted = self
                .inner
                .cache
                .evict_matching(|&(s, e, _)| s == stream && e == extent);
            if evicted > 0 {
                self.inner.stats.record_cache_evictions(evicted);
            }
            self.inner.stats.record_extent_quarantined();
            self.inner.trace.emit(
                self.inner.clock.now().0,
                TraceKind::ExtentQuarantine,
                extent.0,
                check.corrupt_records,
            );
        }
        Ok(check)
    }

    /// Repairs a (typically quarantined) extent: every valid record is
    /// re-homed at the stream tail — intact frames are copied, corrupt
    /// frames are re-materialized via `resupply(tag, old_addr)` (the WAL
    /// tail / replica sync path) — and the extent is then reclaimed.
    ///
    /// `resupply` returns a [`RepairSupply`] verdict per corrupt record: a
    /// replacement payload, [`RepairSupply::Drop`] for records no live
    /// structure references (they are discarded with the extent), or
    /// [`RepairSupply::Missing`] — in which case the call fails *before
    /// moving anything* and the extent stays quarantined: GC never reclaims
    /// an extent with unrepaired damage. Plain `Option<Vec<u8>>` closures
    /// are accepted too (`None` reads as `Missing`).
    pub fn repair_extent<T: Into<RepairSupply>>(
        &self,
        stream: StreamId,
        extent: ExtentId,
        mut resupply: impl FnMut(u64, PageAddr) -> T,
        mut on_move: impl FnMut(u64, PageAddr, PageAddr),
    ) -> StorageResult<RepairReport> {
        // Pass 1: under the lock, copy each valid record's payload if its
        // frame verifies, remembering the holes.
        type Victim = (PageAddr, u64, Option<SimInstant>, Option<Vec<u8>>);
        let victims: Vec<Victim> = {
            let mut guard = self.stream(stream, StorageOp::Relocate)?.lock();
            let ext = guard
                .extents
                .get_mut(&extent)
                .ok_or_else(|| StorageError::unknown_extent(StorageOp::Relocate, extent))?;
            if ext.state == ExtentState::Reclaimed {
                return Err(StorageError::unknown_extent(StorageOp::Relocate, extent));
            }
            if ext.state == ExtentState::Open {
                ext.state = ExtentState::Sealed;
                if guard.active == Some(extent) {
                    guard.active = None;
                }
            }
            let ext = guard.extents.get(&extent).expect("checked above");
            ext.slots
                .iter()
                .filter(|s| s.valid)
                .map(|s| {
                    // An unreadable frame (backend error or failed
                    // verification) is a hole for the resupply source.
                    let payload = self
                        .read_slot_frame(stream, extent, s.offset, s.len)
                        .ok()
                        .and_then(|framed| {
                            frame::verify_frame(&framed, s.len, s.record)
                                .ok()
                                .map(|()| framed[FRAME_HEADER_LEN..].to_vec())
                        });
                    let old = PageAddr {
                        stream,
                        extent,
                        offset: s.offset,
                        len: s.len,
                        record: s.record,
                    };
                    (old, s.tag, s.expires_at, payload)
                })
                .collect()
        };

        // Pass 2: fill the holes from the repair source. Nothing has moved
        // yet, so a missing source aborts cleanly.
        let mut report = RepairReport::default();
        let mut restored: Vec<(PageAddr, u64, Option<SimInstant>, Vec<u8>)> =
            Vec::with_capacity(victims.len());
        for (old, tag, deadline, payload) in victims {
            let payload = match payload {
                Some(p) => p,
                None => match resupply(tag, old).into() {
                    RepairSupply::Payload(p) => {
                        report.resupplied_records += 1;
                        p
                    }
                    RepairSupply::Drop => {
                        report.dropped_records += 1;
                        continue;
                    }
                    RepairSupply::Missing => {
                        return Err(StorageError::checksum_mismatch(StorageOp::Relocate, old));
                    }
                },
            };
            restored.push((old, tag, deadline, payload));
        }
        if report.resupplied_records > 0 {
            self.inner
                .stats
                .record_scrub_records_resupplied(report.resupplied_records);
        }

        // Pass 3: re-home everything at the tail, exactly like relocation.
        for (old, tag, deadline, payload) in &restored {
            let remaining_ttl = deadline.map(|d| d.duration_since(self.inner.clock.now()));
            let new = self.append_impl(stream, payload, *tag, remaining_ttl, true)?;
            report.moved_records += 1;
            report.moved_bytes += payload.len() as u64;
            self.inner.stats.record_gc_move_latency(
                self.inner.config.latency.read_cost_nanos(payload.len())
                    + self.inner.config.latency.append_cost_nanos(payload.len()),
            );
            on_move(*tag, *old, new);
        }

        let mut guard = self.stream(stream, StorageOp::Relocate)?.lock();
        let ext = guard
            .extents
            .get_mut(&extent)
            .ok_or_else(|| StorageError::unknown_extent(StorageOp::Relocate, extent))?;
        ext.state = ExtentState::Reclaimed;
        ext.quarantined = false;
        ext.slots = Vec::new();
        ext.valid_count = 0;
        ext.valid_bytes = 0;
        ext.physical_len = 0;
        drop(guard);
        self.inner.backend.delete(stream, extent)?;
        self.inner.health.on_reclaim();
        let evicted = self
            .inner
            .cache
            .evict_matching(|&(s, e, _)| s == stream && e == extent);
        if evicted > 0 {
            self.inner.stats.record_cache_evictions(evicted);
        }
        self.inner.stats.record_extent_repaired();
        self.inner.stats.record_extent_reclaimed();
        let now = self.inner.clock.now().0;
        // Repair precedes the reclaim event in the trace: the scrub
        // experiment asserts quarantine < repair < reclaim seq order.
        self.inner.trace.emit(
            now,
            TraceKind::ExtentRepair,
            extent.0,
            report.resupplied_records,
        );
        self.inner
            .trace
            .emit(now, TraceKind::ExtentRelocate, extent.0, report.moved_bytes);
        Ok(report)
    }
}

/// Outcome of [`AppendOnlyStore::verify_extent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubCheck {
    /// Valid slots whose frames verified.
    pub records_verified: u64,
    /// Valid slots whose frames failed verification.
    pub corrupt_records: u64,
    /// True when this check transitioned the extent into quarantine.
    pub newly_quarantined: bool,
}

/// Outcome of [`AppendOnlyStore::repair_extent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Records re-homed at the stream tail (intact + resupplied).
    pub moved_records: u64,
    /// Records whose payloads had to come from the repair source.
    pub resupplied_records: u64,
    /// Corrupt records the source declared unreferenced — discarded with
    /// the extent instead of being moved.
    pub dropped_records: u64,
    /// Payload bytes rewritten.
    pub moved_bytes: u64,
}

/// A repair source's verdict for one corrupt record (see
/// [`AppendOnlyStore::repair_extent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairSupply {
    /// The record's original payload, re-materialized from an intact copy
    /// (the owning tree's in-memory image, a replica, or WAL replay).
    Payload(Vec<u8>),
    /// No live structure references the record — an orphan left by a crash
    /// between a flush and its mapping publish, or a superseded image whose
    /// page recovery rebuilds from the full WAL history — so it is safe to
    /// discard rather than move.
    Drop,
    /// The record is still referenced but no intact copy exists anywhere:
    /// the repair aborts and the extent stays quarantined.
    Missing,
}

impl From<Option<Vec<u8>>> for RepairSupply {
    fn from(opt: Option<Vec<u8>>) -> Self {
        match opt {
            Some(p) => RepairSupply::Payload(p),
            None => RepairSupply::Missing,
        }
    }
}

impl std::fmt::Debug for AppendOnlyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendOnlyStore")
            .field("extent_capacity", &self.inner.config.extent_capacity)
            .field("counters", &self.inner.stats.metrics().counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StoreBuilder;
    use crate::error::ErrorKind;
    use crate::fault::{FaultKind, FaultRule};
    use bg3_obs::names;

    fn store() -> AppendOnlyStore {
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(64)).build()
    }

    #[test]
    fn append_then_read_round_trips() {
        let s = store();
        let addr = s.append(StreamId::BASE, b"payload", 42, None).unwrap();
        assert_eq!(&s.read(addr).unwrap()[..], b"payload");
        let snap = s.stats().metrics();
        assert_eq!(snap.counter(names::STORAGE_APPENDS_TOTAL), Some(1));
        assert_eq!(snap.counter(names::STORAGE_BYTES_APPENDED_TOTAL), Some(7));
        assert_eq!(snap.counter(names::STORAGE_RANDOM_READS_TOTAL), Some(1));
        assert_eq!(snap.counter(names::STORAGE_BYTES_READ_TOTAL), Some(7));
    }

    #[test]
    fn scan_stream_returns_valid_records_in_append_order() {
        let s = store(); // 64-byte extents: forces multiple extents
        let mut addrs = Vec::new();
        for i in 0..10u64 {
            addrs.push(s.append(StreamId::WAL, &[i as u8; 20], i, None).unwrap());
        }
        s.invalidate(addrs[3]).unwrap();
        let scanned = s.scan_stream(StreamId::WAL).unwrap();
        let tags: Vec<u64> = scanned.iter().map(|(_, tag, _)| *tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
        for (addr, tag, bytes) in &scanned {
            assert_eq!(&bytes[..], &[*tag as u8; 20]);
            assert_eq!(&s.read(*addr).unwrap()[..], &bytes[..]);
        }
        assert_eq!(s.scan_stream(StreamId::BASE).unwrap().len(), 0);
    }

    #[test]
    fn reads_of_unknown_addresses_fail() {
        let s = store();
        let addr = s.append(StreamId::BASE, b"x", 0, None).unwrap();
        let bogus = PageAddr {
            extent: ExtentId(999),
            ..addr
        };
        assert!(matches!(
            s.read(bogus),
            Err(StorageError {
                kind: ErrorKind::UnknownExtent(_),
                op: StorageOp::Read,
                ..
            })
        ));
        let oob = PageAddr {
            offset: 60,
            len: 32,
            ..addr
        };
        assert!(matches!(
            s.read(oob),
            Err(StorageError {
                kind: ErrorKind::AddrOutOfBounds,
                ..
            })
        ));
    }

    #[test]
    fn record_too_large_is_rejected() {
        let s = store();
        let big = vec![0u8; 65];
        assert!(matches!(
            s.append(StreamId::BASE, &big, 0, None).unwrap_err().kind,
            ErrorKind::RecordTooLarge { .. }
        ));
    }

    #[test]
    fn appends_roll_over_extents() {
        let s = store();
        let a1 = s.append(StreamId::DELTA, &[0u8; 40], 0, None).unwrap();
        let a2 = s.append(StreamId::DELTA, &[0u8; 40], 0, None).unwrap();
        assert_ne!(a1.extent, a2.extent);
        let infos = s.extent_infos(StreamId::DELTA).unwrap();
        assert_eq!(infos.len(), 2);
        let sealed = infos.iter().find(|i| i.id == a1.extent).unwrap();
        assert_eq!(sealed.state, ExtentState::Sealed);
    }

    #[test]
    fn streams_are_isolated() {
        let s = store();
        s.append(StreamId::BASE, b"b", 0, None).unwrap();
        s.append(StreamId::DELTA, b"d", 0, None).unwrap();
        assert_eq!(s.stream_stats(StreamId::BASE).unwrap().valid_records, 1);
        assert_eq!(s.stream_stats(StreamId::DELTA).unwrap().valid_records, 1);
        assert_eq!(s.stream_stats(StreamId::WAL).unwrap().valid_records, 0);
    }

    #[test]
    fn invalidate_updates_fragmentation() {
        let s = store();
        let a = s.append(StreamId::BASE, &[0u8; 16], 0, None).unwrap();
        let _b = s.append(StreamId::BASE, &[0u8; 16], 0, None).unwrap();
        s.invalidate(a).unwrap();
        assert!(matches!(
            s.invalidate(a).unwrap_err().kind,
            ErrorKind::AlreadyInvalid
        ));
        let info = &s.extent_infos(StreamId::BASE).unwrap()[0];
        assert_eq!(info.invalid_records, 1);
        assert_eq!(info.valid_records, 1);
        assert!((info.fragmentation_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn relocation_moves_only_valid_records_and_fixes_tags() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        let c = s.append(StreamId::BASE, &[3u8; 16], 103, None).unwrap();
        s.invalidate(b).unwrap();
        let victim = a.extent;
        assert_eq!(victim, c.extent);

        let mut moves: Vec<(u64, PageAddr)> = Vec::new();
        let moved = s
            .relocate_extent(StreamId::BASE, victim, |tag, old, new| {
                assert_eq!(old.extent, victim);
                assert_ne!(new.extent, victim);
                moves.push((tag, new));
            })
            .unwrap();
        assert_eq!(moved, 32);
        assert_eq!(moves.len(), 2);
        let tags: Vec<u64> = moves.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![101, 103]);
        // New addresses are readable; old extent is gone.
        for (_, new) in &moves {
            assert!(s.read(*new).is_ok());
        }
        assert!(s.read(a).is_err());
        let snap = s.stats().metrics();
        assert_eq!(snap.counter(names::GC_RELOCATION_MOVES_TOTAL), Some(2));
        assert_eq!(snap.counter(names::GC_RELOCATION_BYTES_TOTAL), Some(32));
        assert_eq!(snap.counter(names::GC_EXTENTS_RECLAIMED_TOTAL), Some(1));
    }

    #[test]
    fn expire_extent_requires_elapsed_ttl() {
        let cfg = StoreConfig::counting().with_extent_capacity(64);
        let s = StoreBuilder::from_config(cfg).build();
        let a = s
            .append(StreamId::DELTA, &[0u8; 16], 0, Some(1_000_000))
            .unwrap();
        // TTL not elapsed: refuse.
        assert!(matches!(
            s.expire_extent(StreamId::DELTA, a.extent).unwrap_err().kind,
            ErrorKind::ExtentStillLive { .. }
        ));
        s.clock().advance_nanos(2_000_000);
        let freed = s.expire_extent(StreamId::DELTA, a.extent).unwrap();
        assert_eq!(freed, 1);
        assert!(s.read(a).is_err());
        assert_eq!(
            s.stats().metrics().counter(names::GC_EXTENTS_EXPIRED_TOTAL),
            Some(1)
        );
        // Double-expire fails.
        assert!(s.expire_extent(StreamId::DELTA, a.extent).is_err());
    }

    #[test]
    fn a_record_without_ttl_keeps_its_extent_alive_in_either_order() {
        let s = StoreBuilder::from_config(StoreConfig::counting()).build();
        // DELTA: TTL'd record first; BASE: the no-TTL record first.
        let timed = s
            .append(StreamId::DELTA, &[1u8; 16], 0, Some(1_000))
            .unwrap();
        let delta_live = s.append(StreamId::DELTA, &[2u8; 16], 0, None).unwrap();
        let base_live = s.append(StreamId::BASE, &[3u8; 16], 0, None).unwrap();
        s.append(StreamId::BASE, &[4u8; 16], 0, Some(1_000))
            .unwrap();
        assert_eq!(timed.extent, delta_live.extent);
        s.clock().advance_nanos(1_000_000);
        for (live, bytes) in [(delta_live, [2u8; 16]), (base_live, [3u8; 16])] {
            assert!(matches!(
                s.expire_extent(live.stream, live.extent).unwrap_err().kind,
                ErrorKind::ExtentStillLive { .. }
            ));
            assert_eq!(&s.read(live).unwrap()[..], &bytes);
        }
    }

    #[test]
    fn a_relocated_record_keeps_its_own_ttl() {
        // The TTL'd record shares an extent with a no-TTL one, which is
        // then overwritten; relocation must not drop the survivor's TTL.
        let s = StoreBuilder::from_config(StoreConfig::counting()).build();
        let timed = s
            .append(StreamId::DELTA, &[1u8; 16], 0, Some(1_000))
            .unwrap();
        let untimed = s.append(StreamId::DELTA, &[2u8; 16], 0, None).unwrap();
        s.invalidate(untimed).unwrap();
        let mut moved = None;
        s.relocate_extent(StreamId::DELTA, timed.extent, |_, _, new| moved = Some(new))
            .unwrap();
        let moved = moved.expect("the TTL'd record moved");
        let info = s.extent_infos(StreamId::DELTA).unwrap();
        let home = info.iter().find(|i| i.id == moved.extent).unwrap();
        assert!(home.ttl_deadline.is_some(), "{home:?}");
        s.clock().advance_nanos(1_000_000);
        s.expire_extent(StreamId::DELTA, moved.extent).unwrap();
    }

    #[test]
    fn footprint_counters_track_valid_and_used() {
        let s = store();
        let a = s.append(StreamId::BASE, &[0u8; 20], 0, None).unwrap();
        s.append(StreamId::DELTA, &[0u8; 10], 0, None).unwrap();
        assert_eq!(s.total_valid_bytes(), 30);
        assert_eq!(s.total_used_bytes(), 30);
        s.invalidate(a).unwrap();
        assert_eq!(s.total_valid_bytes(), 10);
        assert_eq!(s.total_used_bytes(), 30, "garbage still occupies space");
    }

    #[test]
    fn latency_is_charged_to_sim_clock() {
        let cfg = StoreConfig {
            extent_capacity: 1024,
            latency: LatencyModel {
                append_us: 100,
                random_read_us: 50,
                per_kib_us: 0,
                mapping_publish_us: 0,
                network_rtt_us: 0,
            },
            faults: FaultPlan::none(),
            cache: CacheConfig::default(),
            backend: BackendKind::Sim,
        };
        let s = StoreBuilder::from_config(cfg).build();
        let addr = s.append(StreamId::BASE, b"x", 0, None).unwrap();
        assert_eq!(s.clock().now().as_micros(), 100);
        s.read(addr).unwrap();
        assert_eq!(s.clock().now().as_micros(), 150);
    }

    #[test]
    fn clones_share_state() {
        let s = store();
        let peer = s.clone();
        let addr = s.append(StreamId::BASE, b"shared", 0, None).unwrap();
        assert_eq!(&peer.read(addr).unwrap()[..], b"shared");
    }

    #[test]
    fn injected_append_failure_writes_nothing() {
        let plan = FaultPlan::seeded(9)
            .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0).at_most(1));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let err = s.append(StreamId::BASE, b"lost", 0, None).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(
            s.stats().metrics().counter(names::STORAGE_APPENDS_TOTAL),
            Some(0),
            "nothing reached the store"
        );
        assert_eq!(s.total_used_bytes(), 0);
        // Budget spent: the retry lands.
        let addr = s.append(StreamId::BASE, b"ok", 0, None).unwrap();
        assert_eq!(&s.read(addr).unwrap()[..], b"ok");
    }

    #[test]
    fn injected_read_failure_is_transient_and_bounded() {
        let plan = FaultPlan::seeded(5)
            .with_rule(FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0).at_most(2));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let addr = s.append(StreamId::BASE, b"persistent", 0, None).unwrap();
        assert!(s.read(addr).unwrap_err().is_transient());
        assert!(s.read(addr).unwrap_err().is_transient());
        assert_eq!(&s.read(addr).unwrap()[..], b"persistent");
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let s = store();
        let addr = s.append(StreamId::BASE, b"hot page", 0, None).unwrap();
        for _ in 0..5 {
            assert_eq!(&s.read(addr).unwrap()[..], b"hot page");
        }
        // Read amplification 0.2: 1 storage read over 5 logical reads.
        let snap = s.stats().metrics();
        assert_eq!(
            snap.counter(names::STORAGE_RANDOM_READS_TOTAL),
            Some(1),
            "only the cold read touched storage"
        );
        assert_eq!(snap.counter(names::CACHE_HITS_TOTAL), Some(4));
        assert_eq!(snap.counter(names::CACHE_MISSES_TOTAL), Some(1));
        let cache = s.cache_stats();
        assert_eq!(cache.hits, 4);
        assert_eq!(cache.resident_entries, 1);
    }

    #[test]
    fn cache_hits_charge_no_latency() {
        let cfg = StoreConfig {
            extent_capacity: 1024,
            latency: LatencyModel {
                append_us: 0,
                random_read_us: 50,
                per_kib_us: 0,
                mapping_publish_us: 0,
                network_rtt_us: 0,
            },
            faults: FaultPlan::none(),
            cache: CacheConfig::default(),
            backend: BackendKind::Sim,
        };
        let s = StoreBuilder::from_config(cfg).build();
        let addr = s.append(StreamId::BASE, b"x", 0, None).unwrap();
        s.read(addr).unwrap();
        assert_eq!(s.clock().now().as_micros(), 50, "cold read pays");
        s.read(addr).unwrap();
        s.read(addr).unwrap();
        assert_eq!(s.clock().now().as_micros(), 50, "warm reads are free");
    }

    #[test]
    fn disabled_cache_restores_raw_read_counting() {
        let s = StoreBuilder::from_config(
            StoreConfig::counting()
                .with_extent_capacity(64)
                .without_cache(),
        )
        .build();
        let addr = s.append(StreamId::BASE, b"cold", 0, None).unwrap();
        for _ in 0..3 {
            s.read(addr).unwrap();
        }
        let snap = s.stats().metrics();
        assert_eq!(snap.counter(names::STORAGE_RANDOM_READS_TOTAL), Some(3));
        // Read amplification 1: no read was looked up in the cache.
        assert_eq!(snap.counter(names::CACHE_HITS_TOTAL), Some(0));
        assert_eq!(snap.counter(names::CACHE_MISSES_TOTAL), Some(0));
    }

    #[test]
    fn invalidate_evicts_the_cached_slot() {
        let s = store();
        let addr = s.append(StreamId::BASE, b"dying", 0, None).unwrap();
        s.read(addr).unwrap(); // now resident
        s.invalidate(addr).unwrap();
        assert_eq!(s.cache_stats().resident_entries, 0);
        let evictions = s.stats().metrics().counter(names::CACHE_EVICTIONS_TOTAL);
        assert!(evictions.unwrap() >= 1);
    }

    #[test]
    fn relocation_evicts_cached_slots_of_the_freed_extent() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        s.read(a).unwrap();
        s.read(b).unwrap();
        assert_eq!(s.cache_stats().resident_entries, 2);
        let mut moves = Vec::new();
        s.relocate_extent(StreamId::BASE, a.extent, |tag, _, new| {
            moves.push((tag, new));
        })
        .unwrap();
        assert_eq!(s.cache_stats().resident_entries, 0, "old slots evicted");
        // Old addresses fail everywhere; new addresses read fine (and the
        // relocation reads themselves never populated the cache).
        assert!(s.read(a).is_err());
        for (_, new) in &moves {
            assert!(s.read(*new).is_ok());
        }
    }

    #[test]
    fn expiry_evicts_cached_slots() {
        let s = store();
        let a = s
            .append(StreamId::DELTA, &[0u8; 16], 0, Some(1_000))
            .unwrap();
        s.read(a).unwrap();
        s.clock().advance_nanos(2_000);
        s.expire_extent(StreamId::DELTA, a.extent).unwrap();
        assert_eq!(s.cache_stats().resident_entries, 0);
        assert!(s.read(a).is_err(), "no ghost hit after expiry");
    }

    #[test]
    fn read_faults_still_fire_on_cold_reads_only() {
        let plan = FaultPlan::seeded(5)
            .with_rule(FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0).at_most(1));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let addr = s.append(StreamId::BASE, b"page", 0, None).unwrap();
        assert!(
            s.read(addr).unwrap_err().is_transient(),
            "cold read faulted"
        );
        assert_eq!(&s.read(addr).unwrap()[..], b"page", "retry lands");
        // Now resident: a hit never draws from the fault plan.
        assert_eq!(&s.read(addr).unwrap()[..], b"page");
        assert_eq!(
            s.stats().metrics().counter(names::CACHE_HITS_TOTAL),
            Some(1)
        );
    }

    #[test]
    fn bit_flip_reads_are_detected_and_the_rot_persists() {
        let plan = FaultPlan::seeded(0xB17)
            .with_rule(FaultRule::new(FaultOp::Read, FaultKind::ReadBitFlip, 1.0).at_most(1));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let addr = s.append(StreamId::BASE, b"precious", 7, None).unwrap();
        let err = s.read(addr).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::ChecksumMismatch));
        assert!(err.is_retryable(), "a clean replica might exist");
        // The budget is spent, but the flipped bit lives in the stored
        // frame: the re-read still fails until the extent is repaired.
        assert!(matches!(
            s.read(addr).unwrap_err().kind,
            ErrorKind::ChecksumMismatch
        ));
        let snap = s.stats().metrics();
        assert_eq!(snap.counter(names::CHECKSUM_MISMATCHES_TOTAL), Some(2));
        assert_eq!(
            snap.counter(names::STORAGE_RANDOM_READS_TOTAL),
            Some(0),
            "no garbage byte was served"
        );
        assert_eq!(snap.counter(names::STORAGE_BYTES_READ_TOTAL), Some(0));
    }

    #[test]
    fn a_stale_mapping_entry_is_caught_by_record_binding() {
        // A stale mapping entry names the right slot but the wrong record:
        // the frame is intact and CRC-consistent, and only the record
        // binding in its header exposes the mismatch.
        let s = store();
        let addr = s.append(StreamId::BASE, b"identity", 7, None).unwrap();
        let stale = PageAddr {
            record: RecordId(addr.record.0 + 1),
            ..addr
        };
        assert!(matches!(
            s.read(stale).unwrap_err().kind,
            ErrorKind::ChecksumMismatch
        ));
        assert_eq!(&s.read(addr).unwrap()[..], b"identity");
    }

    #[test]
    fn transient_read_failures_neither_quarantine_nor_resupply_intact_records() {
        // Read 0 (verify) and read 2 (repair) fail once each.
        let fail = FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0);
        let plan = FaultPlan::seeded(1)
            .with_rule(fail.at_most(1))
            .with_rule(fail.after(2).at_most(1));
        let s = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let a = s.append(StreamId::BASE, b"fine", 1, None).unwrap();
        let check = s.verify_extent(StreamId::BASE, a.extent).unwrap();
        assert_eq!((check.records_verified, check.corrupt_records), (1, 0));
        assert!(!s.is_quarantined(StreamId::BASE, a.extent).unwrap());
        let report = s
            .repair_extent(
                StreamId::BASE,
                a.extent,
                |_, _| -> Option<Vec<u8>> { panic!("the record is intact") },
                |_, _, _| {},
            )
            .unwrap();
        assert_eq!(report.moved_records, 1);
        assert_eq!(s.fault_injector().total_fired(), 2);
    }

    #[test]
    fn corrupt_then_verify_quarantines_and_gc_refuses() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        assert_eq!(a.extent, b.extent);
        s.corrupt_record_bit(a, 130).unwrap();

        let check = s.verify_extent(StreamId::BASE, a.extent).unwrap();
        assert_eq!(check.corrupt_records, 1);
        assert_eq!(check.records_verified, 1);
        assert!(check.newly_quarantined);
        assert!(s.is_quarantined(StreamId::BASE, a.extent).unwrap());

        // Reads fail fast — even of the intact record — and the error is
        // not retryable: repair must happen first.
        let err = s.read(b).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::ExtentQuarantined(_)));
        assert!(!err.is_retryable());
        // GC keeps its hands off.
        assert!(matches!(
            s.relocate_extent(StreamId::BASE, a.extent, |_, _, _| {})
                .unwrap_err()
                .kind,
            ErrorKind::ExtentQuarantined(_)
        ));
        // A second verify pass does not double-quarantine.
        let again = s.verify_extent(StreamId::BASE, a.extent).unwrap();
        assert!(!again.newly_quarantined);
        assert_eq!(
            s.stats()
                .metrics()
                .counter(names::SCRUB_EXTENTS_QUARANTINED_TOTAL),
            Some(1)
        );
    }

    #[test]
    fn repair_rehomes_intact_records_and_resupplies_corrupt_ones() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        s.corrupt_record_bit(a, 7).unwrap();
        s.verify_extent(StreamId::BASE, a.extent).unwrap();

        let mut moves = Vec::new();
        let report = s
            .repair_extent(
                StreamId::BASE,
                a.extent,
                |tag, old| {
                    assert_eq!(tag, 101, "only the damaged record needs a source");
                    assert_eq!(old.record, a.record);
                    Some(vec![1u8; 16])
                },
                |tag, _, new| moves.push((tag, new)),
            )
            .unwrap();
        assert_eq!(report.moved_records, 2);
        assert_eq!(report.resupplied_records, 1);
        assert_eq!(report.moved_bytes, 32);
        // Every record is readable again at its new home.
        for (tag, new) in &moves {
            let bytes = s.read(*new).unwrap();
            assert_eq!(&bytes[..], &[(*tag - 100) as u8; 16]);
        }
        assert!(s.read(b).is_err(), "old extent is reclaimed");
        let snap = s.stats().metrics();
        assert_eq!(snap.counter(names::SCRUB_EXTENTS_REPAIRED_TOTAL), Some(1));
        assert_eq!(snap.counter(names::SCRUB_RECORDS_RESUPPLIED_TOTAL), Some(1));

        // Trace order: quarantine precedes repair precedes reclaim.
        let events = s.trace().events();
        let seq_of = |kind: TraceKind| events.iter().find(|e| e.kind == kind).unwrap().seq;
        assert!(seq_of(TraceKind::ExtentQuarantine) < seq_of(TraceKind::ExtentRepair));
        assert!(seq_of(TraceKind::ExtentRepair) < seq_of(TraceKind::ExtentRelocate));
    }

    #[test]
    fn repair_drops_records_the_source_declares_unreferenced() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        s.corrupt_record_bit(a, 5).unwrap();
        s.verify_extent(StreamId::BASE, a.extent).unwrap();

        let mut moves = Vec::new();
        let report = s
            .repair_extent(
                StreamId::BASE,
                a.extent,
                |_, _| RepairSupply::Drop,
                |tag, _, new| moves.push((tag, new)),
            )
            .unwrap();
        assert_eq!(report.dropped_records, 1);
        assert_eq!(report.resupplied_records, 0);
        assert_eq!(report.moved_records, 1, "the intact record still moves");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, 102);
        assert_eq!(&s.read(moves[0].1).unwrap()[..], &[2u8; 16]);
        assert!(s.read(a).is_err(), "dropped record went with its extent");
        assert!(s.read(b).is_err(), "source extent reclaimed");
        assert_eq!(
            s.stats()
                .metrics()
                .counter(names::SCRUB_EXTENTS_REPAIRED_TOTAL),
            Some(1)
        );
    }

    #[test]
    fn repair_without_a_source_moves_nothing_and_keeps_quarantine() {
        let s = store();
        let a = s.append(StreamId::BASE, &[1u8; 16], 101, None).unwrap();
        let _b = s.append(StreamId::BASE, &[2u8; 16], 102, None).unwrap();
        s.corrupt_record_bit(a, 3).unwrap();
        s.verify_extent(StreamId::BASE, a.extent).unwrap();

        let mut moved = 0;
        let err = s
            .repair_extent(
                StreamId::BASE,
                a.extent,
                |_, _| None::<Vec<u8>>,
                |_, _, _| moved += 1,
            )
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::ChecksumMismatch));
        assert_eq!(moved, 0, "nothing moved before the abort");
        assert!(s.is_quarantined(StreamId::BASE, a.extent).unwrap());
        assert_eq!(
            s.stats()
                .metrics()
                .counter(names::SCRUB_EXTENTS_REPAIRED_TOTAL),
            Some(0)
        );
    }
}
