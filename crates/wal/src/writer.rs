//! WAL writer (RW-node side).

use crate::codec::{decode_record, encode_record};
use crate::reader::WalReader;
use crate::record::{Lsn, WalPayload, WalRecord};
use bg3_storage::{
    AppendOnlyStore, EpochFence, PageAddr, RetryPolicy, StorageError, StorageOp, StorageResult,
    StreamId, TraceKind, INITIAL_EPOCH,
};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Appends records to the WAL stream of the shared store, assigning LSNs.
///
/// Durability contract (§3.4, Fig. 7 step (2)): `append` returns only after
/// the record is on the shared store, so a record's LSN being visible to a
/// reader implies the data survives RW-node failure.
///
/// There is one writer per log (single RW node per shard). Readers are
/// created with [`WalWriter::open_reader`] and tail the log independently.
pub struct WalWriter {
    store: AppendOnlyStore,
    /// Address of record with LSN `i+1` at index `i`. Shared with readers.
    index: Arc<RwLock<Vec<PageAddr>>>,
    /// Guards LSN assignment + append so the index stays LSN-ordered.
    tail: Mutex<Lsn>,
    /// Retry policy for the underlying storage append: transient injected
    /// failures back off on the simulated clock and try again, so a flaky
    /// log stream costs latency rather than losing records.
    retry: RetryPolicy,
    /// Leadership epoch stamped into every record this writer appends.
    epoch: u64,
    /// Storage-side fencing token, when the log is fenced: appends carrying
    /// a sealed epoch are rejected before consuming an LSN, so a zombie
    /// leader can never interleave records with its successor.
    fence: Option<EpochFence>,
    /// How many appends may ride behind one WAL-tail fsync. `1` (the
    /// default) syncs on every append — the durable-on-return contract.
    /// Larger values batch fsyncs (group commit on the log tail); callers
    /// that batch must invoke [`WalWriter::flush`] at their durability
    /// points.
    group_sync_every: u64,
    /// Appends accepted since the last WAL-tail sync. Mutated only under
    /// the `tail` lock; atomic so observers can read it without locking.
    pending_sync: AtomicU64,
    /// Fsyncgate flag: set the first time a WAL-tail sync fails. After a
    /// failed fsync the kernel may already have discarded the dirty tail
    /// pages, so "retry the fsync" would silently drop the riders it
    /// claimed to cover. The writer therefore fails closed: every later
    /// append or flush returns [`bg3_storage::ErrorKind::SyncPoisoned`]
    /// and durability is re-derived by reopening the log with
    /// [`WalWriter::recover`].
    poisoned: AtomicBool,
}

impl WalWriter {
    /// Creates a writer over `store`'s WAL stream, starting at LSN 1.
    pub fn new(store: AppendOnlyStore) -> Self {
        WalWriter {
            store,
            index: Arc::new(RwLock::new(Vec::new())),
            tail: Mutex::new(Lsn::ZERO),
            retry: RetryPolicy::default(),
            epoch: INITIAL_EPOCH,
            fence: None,
            group_sync_every: 1,
            pending_sync: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Overrides the append retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Batches up to `every` appends behind one WAL-tail fsync (`0` is
    /// clamped to `1`). With `every > 1`, an append returns once the store
    /// accepted the bytes but possibly *before* they are synced; the
    /// durability point moves to the next batch boundary or explicit
    /// [`WalWriter::flush`].
    ///
    /// **The group-commit ack hole.** Between an accepted append and the
    /// group fsync that covers it, the record is *accepted but not
    /// durable*: a crash in that window may lose it, and that is within
    /// contract — the caller's durability point had not been reached. What
    /// the contract does guarantee is the boundary: every record at or
    /// below [`WalWriter::durable_lsn`] survives any crash, and once a
    /// group fsync *fails* no later append is ever acked (see `poisoned`).
    /// Riders of a failed group commit get the error, not an ack.
    pub fn with_group_sync_every(mut self, every: u64) -> Self {
        self.group_sync_every = every.max(1);
        self
    }

    /// Fences the log: this writer claims `epoch` and every append first
    /// verifies the claim against `fence` (shared with the mapping table,
    /// so one seal covers both planes).
    pub fn with_fence(mut self, fence: EpochFence, epoch: u64) -> Self {
        self.epoch = epoch;
        self.fence = Some(fence);
        self
    }

    /// The epoch this writer stamps into records.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Verifies this writer's epoch is still accepted by the fence. Callers
    /// use this to reject zombie work *before* mutating in-memory state
    /// (e.g. the leader's tree) that would then diverge from the log.
    pub fn check_fence(&self) -> StorageResult<()> {
        if let Some(fence) = &self.fence {
            if let Err(e) = fence.check(self.epoch, StorageOp::Append) {
                self.store.stats().record_fenced_append();
                self.store.trace().emit(
                    self.store.clock().now().0,
                    TraceKind::FenceRejectedAppend,
                    self.epoch,
                    fence.current(),
                );
                return Err(e);
            }
        }
        Ok(())
    }

    /// Reopens a writer over an existing WAL after a crash.
    ///
    /// The in-memory LSN index dies with the node, so the WAL stream is
    /// rescanned from shared storage (record tags carry the LSNs), the
    /// index is rebuilt, and the tail is positioned after the highest LSN.
    /// Returns the writer plus every surviving record in LSN order — the
    /// input to [`bg3-sync`]'s recovery replay.
    ///
    /// WAL records are never invalidated and relocation preserves tags, so
    /// LSNs are dense from 1; a gap means the stream is corrupt.
    pub fn recover(store: AppendOnlyStore) -> StorageResult<(Self, Vec<WalRecord>)> {
        let mut slots: Vec<(PageAddr, WalRecord)> = Vec::new();
        for (addr, tag, bytes) in store.scan_stream(StreamId::WAL)? {
            let record = decode_record(&bytes)
                .map_err(|_| StorageError::corrupt_record(StorageOp::WalReplay, addr))?;
            if record.lsn.0 != tag {
                return Err(StorageError::corrupt_record(StorageOp::WalReplay, addr));
            }
            slots.push((addr, record));
        }
        slots.sort_by_key(|(_, r)| r.lsn);
        let mut index = Vec::with_capacity(slots.len());
        let mut records = Vec::with_capacity(slots.len());
        for (i, (addr, record)) in slots.into_iter().enumerate() {
            if record.lsn.0 != i as u64 + 1 {
                return Err(StorageError::corrupt_record(StorageOp::WalReplay, addr));
            }
            index.push(addr);
            records.push(record);
        }
        let tail = Lsn(records.len() as u64);
        // Continue on the highest epoch the log has seen (promotions bump
        // it further via `with_fence`).
        let epoch = records
            .iter()
            .map(|r| r.epoch)
            .max()
            .unwrap_or(INITIAL_EPOCH);
        let writer = WalWriter {
            store,
            index: Arc::new(RwLock::new(index)),
            tail: Mutex::new(tail),
            retry: RetryPolicy::default(),
            epoch,
            fence: None,
            group_sync_every: 1,
            pending_sync: AtomicU64::new(0),
            // A fresh writer over on-disk frames starts unpoisoned: recovery
            // *is* the fsyncgate exit — durability was just re-derived from
            // what the disk actually holds.
            poisoned: AtomicBool::new(false),
        };
        Ok((writer, records))
    }

    /// Appends a record; returns it with its assigned LSN once durable.
    /// The LSN is only consumed if the append (eventually) succeeds.
    pub fn append(&self, tree: u64, page: u64, payload: WalPayload) -> StorageResult<WalRecord> {
        let mut tail = self.tail.lock();
        // Fsyncgate: a poisoned tail accepts nothing. Checked under the
        // tail lock so no append can slip past a concurrent poisoning.
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(StorageError::sync_poisoned(
                StorageOp::Append,
                StreamId::WAL,
            ));
        }
        // Fence check under the tail lock: a zombie append can neither
        // consume an LSN nor race a concurrent seal.
        self.check_fence()?;
        let lsn = tail.next();
        let record = WalRecord {
            lsn,
            epoch: self.epoch,
            tree,
            page,
            timestamp: self.store.clock().now(),
            payload,
        };
        let encoded = encode_record(&record);
        // Flush latency is the virtual-time delta around the (possibly
        // retried) durable append; the tail lock serialises appends, so the
        // delta is not polluted by concurrent writers advancing the clock.
        let started = self.store.clock().now();
        let addr = self.retry.run(self.store.clock(), || {
            self.store.append(StreamId::WAL, &encoded, lsn.0, None)
        })?;
        let flushed = self.store.clock().now();
        self.store
            .stats()
            .record_wal_flush_latency(flushed.duration_since(started));
        self.store
            .trace()
            .emit(flushed.0, TraceKind::WalAppend, lsn.0, self.epoch);
        // Group fsync on the log tail: sync once every
        // `group_sync_every` appends rather than per record. Still under
        // the tail lock, so the pending count cannot race.
        let pending = self.pending_sync.load(Ordering::Relaxed) + 1;
        if pending >= self.group_sync_every {
            if let Err(err) = self.store.sync_stream(StreamId::WAL) {
                // Failed group commit: no rider of this batch gets acked —
                // this record is not published to the index, the LSN tail
                // does not advance, and the writer poisons itself so the
                // fsync is never retried (the kernel may have dropped the
                // very pages a retry would claim to flush).
                self.poisoned.store(true, Ordering::Relaxed);
                return Err(err);
            }
            self.pending_sync.store(0, Ordering::Relaxed);
        } else {
            self.pending_sync.store(pending, Ordering::Relaxed);
        }
        // Publish to the reader index only after the store accepted it, and
        // while still holding the tail lock so positions match LSNs.
        self.index.write().push(addr);
        *tail = lsn;
        Ok(record)
    }

    /// Forces any appends batched behind the group-fsync window down to
    /// the backend. A no-op when nothing is pending. This is the explicit
    /// durability point for writers configured with
    /// [`WalWriter::with_group_sync_every`] greater than one.
    pub fn flush(&self) -> StorageResult<()> {
        let _tail = self.tail.lock();
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(StorageError::sync_poisoned(
                StorageOp::Append,
                StreamId::WAL,
            ));
        }
        if self.pending_sync.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        if let Err(err) = self.store.sync_stream(StreamId::WAL) {
            self.poisoned.store(true, Ordering::Relaxed);
            return Err(err);
        }
        self.pending_sync.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// True once a WAL-tail fsync has failed: the writer rejects all
    /// further appends/flushes until the log is reopened via
    /// [`WalWriter::recover`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Highest LSN covered by a successful WAL-tail sync — the acked
    /// durability boundary under group commit. Records above it are
    /// accepted but may not survive a crash.
    pub fn durable_lsn(&self) -> Lsn {
        let tail = self.tail.lock();
        Lsn(tail.0 - self.pending_sync.load(Ordering::Relaxed))
    }

    /// Appends accepted since the last WAL-tail sync (0 means the log tail
    /// is durable up to [`WalWriter::last_lsn`]).
    pub fn pending_sync(&self) -> u64 {
        self.pending_sync.load(Ordering::Relaxed)
    }

    /// LSN of the most recently appended record ([`Lsn::ZERO`] if none).
    pub fn last_lsn(&self) -> Lsn {
        *self.tail.lock()
    }

    /// Creates a reader that tails this log from the beginning.
    pub fn open_reader(&self) -> WalReader {
        WalReader::new(self.store.clone(), Arc::clone(&self.index))
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("last_lsn", &self.last_lsn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{obs::names, StoreBuilder, StoreConfig};

    fn writer() -> WalWriter {
        WalWriter::new(StoreBuilder::from_config(StoreConfig::counting()).build())
    }

    #[test]
    fn lsns_are_dense_and_increasing() {
        let w = writer();
        for i in 1..=5u64 {
            let rec = w
                .append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
            assert_eq!(rec.lsn, Lsn(i));
        }
        assert_eq!(w.last_lsn(), Lsn(5));
    }

    #[test]
    fn records_are_durable_on_the_wal_stream() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let w = WalWriter::new(store.clone());
        w.append(
            3,
            9,
            WalPayload::Upsert {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        )
        .unwrap();
        let stats = store.stream_stats(StreamId::WAL).unwrap();
        assert_eq!(stats.valid_records, 1);
        assert!(
            stats.valid_bytes > 33,
            "header + payload bytes on the store"
        );
    }

    #[test]
    fn recover_rebuilds_index_and_continues_lsns() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let w = WalWriter::new(store.clone());
        for i in 1..=4u64 {
            w.append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
        }
        drop(w); // the node dies; only the shared store survives

        let (w2, records) = WalWriter::recover(store).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(w2.last_lsn(), Lsn(4));
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
        // New appends continue the sequence, and a fresh reader sees the
        // full log (old records included) through the rebuilt index.
        let rec = w2
            .append(1, 9, WalPayload::Delete { key: vec![9] })
            .unwrap();
        assert_eq!(rec.lsn, Lsn(5));
        let mut reader = w2.open_reader();
        assert_eq!(reader.fetch_new().unwrap().len(), 5);
    }

    #[test]
    fn recover_retries_a_transient_read_failure() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, SimBackend};
        let backend = Arc::new(SimBackend::new());
        let store = StoreBuilder::counting().backend(backend.clone()).build();
        let w = WalWriter::new(store);
        for i in 1..=4u64 {
            w.append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
        }
        drop(w);
        // The node restarts against a disk that fails one WAL read.
        let plan = FaultPlan::seeded(3).with_rule(
            FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0)
                .on_stream(StreamId::WAL)
                .at_most(1),
        );
        let store = StoreBuilder::counting()
            .backend(backend)
            .faults(plan)
            .build();
        let (_, records) = WalWriter::recover(store.clone()).unwrap();
        assert_eq!(store.fault_injector().total_fired(), 1);
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4], "the rescan lost no record");
    }

    #[test]
    fn recover_of_empty_store_starts_fresh() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let (w, records) = WalWriter::recover(store).unwrap();
        assert!(records.is_empty());
        assert_eq!(w.last_lsn(), Lsn::ZERO);
        assert_eq!(
            w.append(
                1,
                1,
                WalPayload::CheckpointComplete {
                    upto: 0,
                    mapping_version: 0
                }
            )
            .unwrap()
            .lsn,
            Lsn(1)
        );
    }

    #[test]
    fn fenced_writer_rejects_appends_after_seal() {
        use bg3_storage::EpochFence;
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let fence = EpochFence::new();
        let w = WalWriter::new(store.clone()).with_fence(fence.clone(), 1);
        assert_eq!(w.epoch(), 1);
        let rec = w.append(1, 1, WalPayload::Delete { key: vec![1] }).unwrap();
        assert_eq!(rec.epoch, 1);

        fence.seal(2).unwrap();
        let err = w
            .append(1, 2, WalPayload::Delete { key: vec![2] })
            .unwrap_err();
        assert!(err.is_fenced());
        assert_eq!(w.last_lsn(), Lsn(1), "zombie append consumed no LSN");
        assert_eq!(
            store
                .metrics_snapshot()
                .counter(names::FENCED_APPENDS_TOTAL),
            Some(1)
        );

        // A successor writer on the sealed-in epoch continues the log.
        let w2 = WalWriter::new(store.clone()).with_fence(fence, 2);
        // (Fresh writer: it would restart LSNs; real promotions go through
        // `recover`. Here we only care that its epoch passes the fence.)
        assert!(w2.check_fence().is_ok());
    }

    #[test]
    fn recover_adopts_the_highest_epoch_in_the_log() {
        use bg3_storage::EpochFence;
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let fence = EpochFence::new();
        let w = WalWriter::new(store.clone()).with_fence(fence.clone(), 1);
        w.append(1, 1, WalPayload::Delete { key: vec![1] }).unwrap();
        fence.seal(3).unwrap();
        let w2 = WalWriter::new(store.clone()).with_fence(fence, 3);
        // Manually continue the log at the next LSN via recover-free append
        // is not possible on a fresh writer; recover instead.
        drop(w2);
        let (recovered, records) = WalWriter::recover(store).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(recovered.epoch(), 1, "highest epoch present in the log");
        let rec = recovered
            .append(1, 2, WalPayload::Delete { key: vec![2] })
            .unwrap();
        assert_eq!(rec.epoch, 1);
    }

    #[test]
    fn default_writer_syncs_every_append() {
        let w = writer();
        for i in 1..=3u64 {
            w.append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
            assert_eq!(w.pending_sync(), 0, "durable-on-return by default");
        }
    }

    #[test]
    fn group_sync_batches_and_flush_drains() {
        let w = writer().with_group_sync_every(4);
        for i in 1..=3u64 {
            w.append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
            assert_eq!(w.pending_sync(), i);
        }
        // The 4th append crosses the batch boundary and syncs.
        w.append(1, 4, WalPayload::Delete { key: vec![4] }).unwrap();
        assert_eq!(w.pending_sync(), 0);
        // Partial batch, then an explicit flush drains it.
        w.append(1, 5, WalPayload::Delete { key: vec![5] }).unwrap();
        assert_eq!(w.pending_sync(), 1);
        w.flush().unwrap();
        assert_eq!(w.pending_sync(), 0);
        w.flush().unwrap(); // idempotent when nothing is pending
    }

    #[test]
    fn failed_group_fsync_poisons_the_writer_and_acks_no_riders() {
        use bg3_storage::{
            ErrorKind, FaultKind, FaultOp, FaultPlan, FaultRule, IoErrorClass, SimBackend,
        };
        let inner = Arc::new(SimBackend::new());
        // Exactly one sync failure: the first WAL-tail fsync dies.
        let plan = FaultPlan::seeded(7)
            .with_rule(FaultRule::new(FaultOp::Sync, FaultKind::SyncFail, 1.0).at_most(1));
        let store = StoreBuilder::counting()
            .backend(inner.clone())
            .faults(plan)
            .build();
        let w = WalWriter::new(store.clone()).with_group_sync_every(2);

        // Rider 1 is accepted behind the group window; rider 2 crosses the
        // batch boundary and triggers the doomed fsync.
        w.append(1, 1, WalPayload::Delete { key: vec![1] }).unwrap();
        let err = w
            .append(1, 2, WalPayload::Delete { key: vec![2] })
            .unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::Io {
                    class: IoErrorClass::SyncFailed,
                    ..
                }
            ),
            "the failing rider sees the sync error itself: {err:?}"
        );
        assert!(!err.is_retryable(), "a failed fsync is never retried");
        assert!(w.is_poisoned());
        assert_eq!(w.last_lsn(), Lsn(1), "the failed rider was never acked");
        assert_eq!(w.durable_lsn(), Lsn::ZERO, "no fsync ever succeeded");

        // Every later append and flush fails closed with SyncPoisoned.
        for attempt in [
            w.append(1, 3, WalPayload::Delete { key: vec![3] })
                .unwrap_err(),
            w.flush().unwrap_err(),
        ] {
            assert!(
                matches!(attempt.kind, ErrorKind::SyncPoisoned { .. }),
                "poisoned tail fails closed: {attempt:?}"
            );
        }
        // Reads keep working: the published prefix is still servable.
        let mut reader = w.open_reader();
        assert_eq!(reader.fetch_new().unwrap().len(), 1);

        // Fresh open over the surviving media re-derives durability from
        // on-disk frames. The unacked rider 2 *was* written before the
        // fsync failed, so recovery may resurrect it — durable ⊆ recovered
        // ⊆ accepted is the contract.
        drop(w);
        drop(store);
        let reopened = StoreBuilder::counting().backend(inner).build();
        let (w2, records) = WalWriter::recover(reopened).unwrap();
        assert_eq!(records.len(), 2, "accepted frames survive on the media");
        assert!(!w2.is_poisoned(), "recovery is the fsyncgate exit");
        assert_eq!(
            w2.append(1, 9, WalPayload::Delete { key: vec![9] })
                .unwrap()
                .lsn,
            Lsn(3)
        );
    }

    #[test]
    fn crash_in_the_group_commit_window_loses_only_unacked_riders() {
        let backend = Arc::new(bg3_storage::SimBackend::new());
        let store = StoreBuilder::counting().backend(backend.clone()).build();
        let w = WalWriter::new(store.clone()).with_group_sync_every(3);
        for i in 1..=5u64 {
            w.append(1, i, WalPayload::Delete { key: vec![i as u8] })
                .unwrap();
        }
        assert_eq!(w.last_lsn(), Lsn(5), "all five accepted");
        assert_eq!(
            w.durable_lsn(),
            Lsn(3),
            "only the first batch crossed its fsync boundary"
        );

        // Crash in the ack hole: the unsynced tail after LSN 3 is torn at
        // the media level (the kernel never flushed those pages).
        let addr4 = store
            .scan_stream(StreamId::WAL)
            .unwrap()
            .into_iter()
            .find(|(_, tag, _)| *tag == 4)
            .unwrap()
            .0;
        store.corrupt_record_bit(addr4, 40).unwrap();
        drop(w);
        drop(store);

        // Recovery keeps exactly the durable prefix: LSNs above
        // `durable_lsn` were never acked as durable, so losing them is
        // within contract; losing anything at or below it would not be.
        let reopened = StoreBuilder::counting().backend(backend).build();
        let (w2, records) = WalWriter::recover(reopened).unwrap();
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3], "acked/unacked boundary is exact");
        assert_eq!(w2.last_lsn(), Lsn(3));
        assert_eq!(
            w2.append(1, 6, WalPayload::Delete { key: vec![6] })
                .unwrap()
                .lsn,
            Lsn(4),
            "the log continues from the durable prefix"
        );
    }

    #[test]
    fn concurrent_appends_keep_index_ordered() {
        let w = Arc::new(writer());
        let mut handles = Vec::new();
        for t in 0..4 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    w.append(
                        t,
                        i,
                        WalPayload::CheckpointComplete {
                            upto: 0,
                            mapping_version: 0,
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.last_lsn(), Lsn(200));
        let mut reader = w.open_reader();
        let records = reader.fetch_new().unwrap();
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, (1..=200).collect::<Vec<u64>>());
    }
}
