//! Byte-level fault injection below the store.
//!
//! [`FaultBackend`] decorates any [`ExtentBackend`] — the in-memory
//! [`crate::SimBackend`] or the real [`crate::FileBackend`] — and is the
//! only code that fails or damages bytes. It draws seeded, deterministic
//! faults from the store's one [`FaultInjector`]:
//!
//! * writes ([`FaultOp::Write`]): failed and torn appends, ENOSPC, torn
//!   media writes, and a sticky disk-full regime;
//! * reads ([`FaultOp::Read`]): failed reads, read EIO, and persistent bit
//!   rot inside the requested span;
//! * barriers ([`FaultOp::Sync`]): fsync/seal EIO.
//!
//! The store installs it (see `AppendOnlyStore`) when its
//! [`crate::FaultPlan`] has a rule below the store, i.e. any rule other
//! than [`FaultOp::MappingPublish`]; the mapping table shares the same
//! injector, so one plan and one `total_fired` cover every layer. An empty
//! plan installs no decorator at all. Every draw is a pure function of
//! `(seed, rule, op-index)`, so the fail-closed fsync poisoning, ENOSPC
//! degradation, torn-tail and scrub paths replay identically on both
//! backends.

use crate::addr::{ExtentId, StreamId};
use crate::backend::{BackendStats, ExtentBackend, PersistedExtent};
use crate::error::{IoErrorClass, StorageError, StorageOp, StorageResult};
use crate::fault::{splitmix64, FaultInjector, FaultKind, FaultOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An [`ExtentBackend`] decorator injecting byte-level faults.
#[derive(Debug)]
pub struct FaultBackend {
    inner: Arc<dyn ExtentBackend>,
    injector: FaultInjector,
    /// The sticky disk-full regime: armed by [`FaultKind::DiskFull`],
    /// cleared when a delete (space reclaim) reaches the inner backend.
    disk_full: AtomicBool,
}

impl FaultBackend {
    /// Decorates `inner` with the faults `injector` draws.
    pub fn new(inner: Arc<dyn ExtentBackend>, injector: FaultInjector) -> Self {
        FaultBackend {
            inner,
            injector,
            disk_full: AtomicBool::new(false),
        }
    }

    /// True while the sticky disk-full regime is active.
    pub fn is_disk_full(&self) -> bool {
        self.disk_full.load(Ordering::Relaxed)
    }

    fn enospc(op: StorageOp) -> StorageError {
        StorageError::io_class(op, IoErrorClass::NoSpace, "injected ENOSPC: no space left")
    }
}

impl ExtentBackend for FaultBackend {
    fn name(&self) -> &'static str {
        // Transparent: callers observe the physical backend's identity.
        self.inner.name()
    }

    fn attach_stats(&self, stats: BackendStats) {
        self.inner.attach_stats(stats);
    }

    fn allocate(&self, stream: StreamId, extent: ExtentId, capacity: usize) -> StorageResult<()> {
        // Allocation consumes space, so the sticky regime blocks it, but it
        // draws no per-write faults: rule windows (`after`, `at_most`)
        // count `write_at` calls 1:1.
        if self.is_disk_full() {
            return Err(Self::enospc(StorageOp::Append));
        }
        self.inner.allocate(stream, extent, capacity)
    }

    fn write_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        bytes: &[u8],
    ) -> StorageResult<()> {
        if self.is_disk_full() {
            return Err(Self::enospc(StorageOp::Append));
        }
        match self.injector.decide(FaultOp::Write, Some(stream)) {
            None => self.inner.write_at(stream, extent, at, bytes),
            Some(FaultKind::WriteNoSpace) => Err(Self::enospc(StorageOp::Append)),
            Some(FaultKind::DiskFull) => {
                self.disk_full.store(true, Ordering::Relaxed);
                Err(Self::enospc(StorageOp::Append))
            }
            Some(FaultKind::WriteShortTorn) => {
                // A prefix of the bytes reaches the media before the error:
                // the torn tail is *on disk* for recovery to walk over.
                let torn = &bytes[..bytes.len() / 2];
                if !torn.is_empty() {
                    self.inner.write_at(stream, extent, at, torn)?;
                }
                Err(StorageError::io_class(
                    StorageOp::Append,
                    IoErrorClass::WriteZero,
                    "injected torn write: short write then EIO",
                ))
            }
            Some(FaultKind::AppendTorn) => {
                // The whole write lands with its last byte scarred, so the
                // frame fails verification. The error is transient: the
                // store's cursor stays put and the retry overwrites it.
                let mut scarred = bytes.to_vec();
                if let Some(last) = scarred.last_mut() {
                    *last ^= 0xFF;
                }
                self.inner.write_at(stream, extent, at, &scarred)?;
                Err(StorageError::injected(
                    StorageOp::Append,
                    FaultKind::AppendTorn,
                ))
            }
            Some(other) => Err(StorageError::injected(StorageOp::Append, other)),
        }
    }

    fn read_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        len: usize,
    ) -> StorageResult<Vec<u8>> {
        match self.injector.decide(FaultOp::Read, Some(stream)) {
            None => self.inner.read_at(stream, extent, at, len),
            Some(FaultKind::ReadEio) => Err(StorageError::io_class(
                StorageOp::Read,
                IoErrorClass::Other,
                "injected EIO: input/output error",
            )),
            Some(FaultKind::ReadBitFlip) => {
                // Persistent rot: one stored bit inside the requested span
                // flips in place. The position is a pure function of the
                // plan seed and the address, so a re-read sees the same
                // damage until the scrubber repairs the extent.
                if len > 0 {
                    let h = splitmix64(
                        self.injector.plan().seed
                            ^ extent.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ at.wrapping_mul(0xD1B5_4A32_D192_ED03),
                    );
                    let byte = at + h % len as u64;
                    self.inner
                        .corrupt_bit(stream, extent, byte * 8 + (h >> 32) % 8)?;
                }
                self.inner.read_at(stream, extent, at, len)
            }
            Some(other) => Err(StorageError::injected(StorageOp::Read, other)),
        }
    }

    fn extent_len(&self, stream: StreamId, extent: ExtentId) -> StorageResult<u64> {
        self.inner.extent_len(stream, extent)
    }

    fn sync(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        match self.injector.decide(FaultOp::Sync, Some(stream)) {
            None => self.inner.sync(stream, extent),
            Some(_) => Err(StorageError::io_class(
                StorageOp::Append,
                IoErrorClass::SyncFailed,
                "injected EIO on fsync",
            )),
        }
    }

    fn seal(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        match self.injector.decide(FaultOp::Sync, Some(stream)) {
            None => self.inner.seal(stream, extent),
            Some(_) => Err(StorageError::io_class(
                StorageOp::Append,
                IoErrorClass::SyncFailed,
                "injected EIO on seal fsync",
            )),
        }
    }

    fn delete(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        self.inner.delete(stream, extent)?;
        // Reclaim freed real space: the sticky full regime ends.
        self.disk_full.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn corrupt_bit(&self, stream: StreamId, extent: ExtentId, bit: u64) -> StorageResult<()> {
        self.inner.corrupt_bit(stream, extent, bit)
    }

    fn list_extents(&self) -> StorageResult<Vec<PersistedExtent>> {
        self.inner.list_extents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::error::ErrorKind;
    use crate::fault::FaultPlan;

    fn sim() -> Arc<dyn ExtentBackend> {
        Arc::new(SimBackend::new())
    }

    fn faulty(inner: Arc<dyn ExtentBackend>, plan: FaultPlan) -> FaultBackend {
        FaultBackend::new(inner, FaultInjector::new(plan))
    }

    fn io_class(err: &StorageError) -> IoErrorClass {
        match &err.kind {
            ErrorKind::Io { class, .. } => *class,
            other => panic!("expected Io kind, got {other:?}"),
        }
    }

    #[test]
    fn zero_fault_plan_is_a_pure_passthrough() {
        let backend = faulty(sim(), FaultPlan::none());
        backend.allocate(StreamId::BASE, ExtentId(1), 1024).unwrap();
        backend
            .write_at(StreamId::BASE, ExtentId(1), 0, b"hello")
            .unwrap();
        assert_eq!(
            backend.read_at(StreamId::BASE, ExtentId(1), 0, 5).unwrap(),
            b"hello"
        );
        backend.sync(StreamId::BASE, ExtentId(1)).unwrap();
        backend.seal(StreamId::BASE, ExtentId(1)).unwrap();
        assert_eq!(backend.extent_len(StreamId::BASE, ExtentId(1)).unwrap(), 5);
        assert_eq!(backend.name(), "sim", "identity is the inner backend's");
        assert_eq!(backend.injector.total_fired(), 0);
    }

    #[test]
    fn sync_faults_fail_closed_with_the_sync_failed_class() {
        let backend = faulty(sim(), FaultPlan::seeded(3).fail_syncs(1.0));
        backend.allocate(StreamId::WAL, ExtentId(1), 1024).unwrap();
        backend
            .write_at(StreamId::WAL, ExtentId(1), 0, b"rec")
            .unwrap();
        let err = backend.sync(StreamId::WAL, ExtentId(1)).unwrap_err();
        assert_eq!(io_class(&err), IoErrorClass::SyncFailed);
        assert!(!err.is_retryable(), "fsync failures must never be retried");
        let err = backend.seal(StreamId::WAL, ExtentId(1)).unwrap_err();
        assert_eq!(io_class(&err), IoErrorClass::SyncFailed);
        // The write itself was untouched: data still readable.
        assert_eq!(
            backend.read_at(StreamId::WAL, ExtentId(1), 0, 3).unwrap(),
            b"rec"
        );
    }

    #[test]
    fn sticky_disk_full_blocks_writes_until_reclaim_deletes() {
        let backend = faulty(sim(), FaultPlan::seeded(5).disk_full_after(2));
        backend.allocate(StreamId::BASE, ExtentId(1), 1024).unwrap();
        backend
            .write_at(StreamId::BASE, ExtentId(1), 0, b"aa")
            .unwrap();
        backend
            .write_at(StreamId::BASE, ExtentId(1), 2, b"bb")
            .unwrap();
        // Third write arms the sticky regime.
        let err = backend
            .write_at(StreamId::BASE, ExtentId(1), 4, b"cc")
            .unwrap_err();
        assert_eq!(io_class(&err), IoErrorClass::NoSpace);
        assert!(backend.is_disk_full());
        // Everything consuming space now fails; reads keep working.
        assert!(backend
            .write_at(StreamId::BASE, ExtentId(1), 4, b"cc")
            .is_err());
        assert!(backend.allocate(StreamId::BASE, ExtentId(2), 64).is_err());
        assert_eq!(
            backend.read_at(StreamId::BASE, ExtentId(1), 0, 4).unwrap(),
            b"aabb"
        );
        // Reclaim deletes an extent — space is free again.
        backend.allocate(StreamId::DELTA, ExtentId(3), 64).ok();
        backend.delete(StreamId::BASE, ExtentId(1)).unwrap();
        assert!(!backend.is_disk_full());
        backend.allocate(StreamId::BASE, ExtentId(4), 64).unwrap();
        backend
            .write_at(StreamId::BASE, ExtentId(4), 0, b"dd")
            .unwrap();
    }

    #[test]
    fn torn_backend_write_lands_a_prefix_then_errors() {
        let backend = faulty(sim(), FaultPlan::seeded(9).torn_backend_writes(1.0));
        let inner = Arc::clone(&backend.inner);
        // Allocate below the decorator so the torn write is the only draw.
        inner.allocate(StreamId::BASE, ExtentId(1), 1024).unwrap();
        let err = backend
            .write_at(StreamId::BASE, ExtentId(1), 0, b"abcdef")
            .unwrap_err();
        assert_eq!(io_class(&err), IoErrorClass::WriteZero);
        // Half the bytes reached the media.
        assert_eq!(inner.extent_len(StreamId::BASE, ExtentId(1)).unwrap(), 3);
        assert_eq!(
            inner.read_at(StreamId::BASE, ExtentId(1), 0, 3).unwrap(),
            b"abc"
        );
    }

    #[test]
    fn eio_reads_fire_on_schedule_and_leave_data_intact() {
        let backend = faulty(sim(), FaultPlan::seeded(11).eio_reads(0.5));
        backend.allocate(StreamId::BASE, ExtentId(1), 64).unwrap();
        backend
            .write_at(StreamId::BASE, ExtentId(1), 0, b"xy")
            .unwrap();
        let outcomes: Vec<bool> = (0..32)
            .map(|_| backend.read_at(StreamId::BASE, ExtentId(1), 0, 2).is_ok())
            .collect();
        assert!(outcomes.iter().any(|ok| *ok));
        assert!(outcomes.iter().any(|ok| !*ok));
        // The schedule is replayable: a fresh decorator over the same data
        // with the same plan sees identical outcomes.
        let replay = faulty(
            Arc::clone(&backend.inner),
            FaultPlan::seeded(11).eio_reads(0.5),
        );
        let again: Vec<bool> = (0..32)
            .map(|_| replay.read_at(StreamId::BASE, ExtentId(1), 0, 2).is_ok())
            .collect();
        assert_eq!(outcomes, again);
    }
}
