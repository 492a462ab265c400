//! Structured errors for the storage layer.
//!
//! Every failure carries three orthogonal pieces of context: *what went
//! wrong* ([`ErrorKind`]), *which operation was in flight* ([`StorageOp`]),
//! and *which address it concerned* (when one exists). Injected faults and
//! crash-point kills flow through the same type, so retry policies and
//! recovery code can classify failures without string matching.

use crate::addr::{ExtentId, PageAddr, StreamId};
use crate::fault::{CrashPoint, FaultKind};
use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// The operation that was executing when the error arose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOp {
    /// Appending a record to a stream tail.
    Append,
    /// Random read of a record.
    Read,
    /// Invalidating a superseded record.
    Invalidate,
    /// Relocating an extent's valid records during space reclamation.
    Relocate,
    /// Expiring a TTL extent wholesale.
    Expire,
    /// Publishing a mapping-table version.
    MappingPublish,
    /// Replaying or decoding WAL records.
    WalReplay,
    /// Crash-recovery orchestration.
    Recovery,
    /// Admission control deciding whether to accept the operation at all.
    Admission,
}

impl fmt::Display for StorageOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StorageOp::Append => "append",
            StorageOp::Read => "read",
            StorageOp::Invalidate => "invalidate",
            StorageOp::Relocate => "relocate",
            StorageOp::Expire => "expire",
            StorageOp::MappingPublish => "mapping-publish",
            StorageOp::WalReplay => "wal-replay",
            StorageOp::Recovery => "recovery",
            StorageOp::Admission => "admission",
        };
        f.write_str(name)
    }
}

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The addressed record was never written, was relocated, or its extent
    /// has been reclaimed.
    AddrNotFound,
    /// The record bytes at the address do not span the requested range
    /// (offset/len mismatch — indicates a stale or corrupted address).
    AddrOutOfBounds,
    /// The stream has not been opened on this store.
    UnknownStream(StreamId),
    /// The extent is not (or no longer) present.
    UnknownExtent(ExtentId),
    /// A record larger than the extent capacity was appended.
    RecordTooLarge { len: usize, capacity: usize },
    /// The record was already invalidated (double free of log space).
    AlreadyInvalid,
    /// An extent that still holds valid records was asked to be freed
    /// without relocation.
    ExtentStillLive { extent: ExtentId, valid: usize },
    /// The bytes at the address do not decode as the expected record shape.
    CorruptRecord,
    /// The record frame at the address failed integrity verification (bad
    /// magic, CRC32C mismatch, wrong length, or wrong record identity).
    /// Distinct from [`ErrorKind::CorruptRecord`]: the *store* detected the
    /// damage before any caller tried to decode the payload.
    ChecksumMismatch,
    /// The extent has been quarantined by the scrubber: at least one of its
    /// frames failed verification and reads fail fast until it is repaired.
    ExtentQuarantined(ExtentId),
    /// The write carried a sealed (stale) epoch: a newer leader has been
    /// promoted and the store rejects the zombie writer.
    EpochFenced {
        /// Epoch the rejected writer presented.
        attempted: u64,
        /// Epoch currently accepted by the store.
        current: u64,
    },
    /// A deadline elapsed (on the virtual clock) before the operation could
    /// complete — e.g. a follower waiting on a session token from a dead
    /// leader.
    Timeout {
        /// How long the caller waited, in simulated nanoseconds.
        waited_nanos: u64,
    },
    /// No leader is available to serve the request (failover in progress).
    NoLeader,
    /// Admission control shed the operation: the op class's bounded queue is
    /// full (or its cost budget is exhausted past the queue bound). The
    /// caller should back off for at least `retry_after_nanos` of virtual
    /// time before resubmitting — retrying immediately is guaranteed to be
    /// shed again.
    Overloaded {
        /// Virtual nanoseconds until the class's queue is expected to have
        /// drained enough to accept this operation.
        retry_after_nanos: u64,
    },
    /// Admission control shed the operation because its estimated queue
    /// wait exceeds the class deadline: the op would have been admitted,
    /// executed after the caller stopped caring, and wasted the budget.
    DeadlineExceeded {
        /// Estimated queue wait at submission, in virtual nanoseconds.
        estimated_wait_nanos: u64,
        /// The class deadline it exceeded, in virtual nanoseconds.
        deadline_nanos: u64,
    },
    /// The stream's tail is poisoned by an earlier failed durability
    /// barrier (the "fsyncgate" rule): after a `sync`/`seal` fails, the
    /// kernel may have silently dropped the dirty pages, so the in-memory
    /// picture of the tail can no longer be trusted. The store and the WAL
    /// writer fail every subsequent append closed with this kind instead of
    /// retrying the fsync; only a fresh open (which re-derives durability
    /// from the frames actually on disk) clears the state.
    SyncPoisoned {
        /// The stream whose tail is poisoned.
        stream: StreamId,
    },
    /// A fault injected by the chaos layer (see [`crate::fault`]).
    Injected(FaultKind),
    /// A crash-point kill fired by the chaos harness.
    Crash(CrashPoint),
    /// An operating-system I/O failure surfaced by a real storage backend
    /// (the file backend; the simulated backend never produces these). The
    /// class drives retry policy; the detail preserves the OS message for
    /// logs without forcing callers to string-match.
    Io {
        /// Coarse classification of the underlying `std::io::ErrorKind`.
        class: IoErrorClass,
        /// The OS error rendered as text (errno message).
        detail: String,
    },
}

/// Coarse classification of `std::io::ErrorKind` used by [`ErrorKind::Io`].
/// Each class maps a family of errnos; [`StorageError::is_retryable`]
/// treats [`IoErrorClass::Interrupted`], [`IoErrorClass::TimedOut`], and
/// [`IoErrorClass::WouldBlock`] as retryable — everything else fails
/// closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorClass {
    /// ENOENT: the extent file or directory vanished underneath us.
    NotFound,
    /// EACCES/EPERM: the backend root is not writable.
    PermissionDenied,
    /// ENOSPC/EDQUOT: the filesystem is out of space or quota. Not
    /// syscall-retryable — retrying the write cannot free space; the only
    /// recovery path is the admission layer's `Overloaded{retry_after}`
    /// shed while GC reclaims extents.
    NoSpace,
    /// A durability barrier (fsync/fdatasync) failed. Never retryable: the
    /// kernel may have dropped the dirty pages on the first failure, so a
    /// later "successful" fsync proves nothing about the lost writes.
    SyncFailed,
    /// EINTR: the syscall was interrupted; retrying is safe.
    Interrupted,
    /// ETIMEDOUT: the device or network filesystem timed out.
    TimedOut,
    /// EAGAIN/EWOULDBLOCK: transient back-pressure; retrying is safe.
    WouldBlock,
    /// A positioned read ended before the requested range (truncated file).
    UnexpectedEof,
    /// A write returned zero bytes of progress.
    WriteZero,
    /// EINVAL: a malformed path or offset reached the OS.
    InvalidInput,
    /// The operation is not supported by this filesystem.
    Unsupported,
    /// Any other `std::io::ErrorKind`.
    Other,
}

impl IoErrorClass {
    /// Classifies a raw `std::io::Error` by its kind.
    pub fn classify(err: &std::io::Error) -> IoErrorClass {
        use std::io::ErrorKind as K;
        match err.kind() {
            K::NotFound => IoErrorClass::NotFound,
            K::PermissionDenied => IoErrorClass::PermissionDenied,
            K::StorageFull | K::QuotaExceeded => IoErrorClass::NoSpace,
            K::Interrupted => IoErrorClass::Interrupted,
            K::TimedOut => IoErrorClass::TimedOut,
            K::WouldBlock => IoErrorClass::WouldBlock,
            K::UnexpectedEof => IoErrorClass::UnexpectedEof,
            K::WriteZero => IoErrorClass::WriteZero,
            K::InvalidInput => IoErrorClass::InvalidInput,
            K::Unsupported => IoErrorClass::Unsupported,
            _ => IoErrorClass::Other,
        }
    }

    /// True when retrying the same syscall can succeed without any other
    /// intervention (interrupted, timed out, or back-pressured).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            IoErrorClass::Interrupted | IoErrorClass::TimedOut | IoErrorClass::WouldBlock
        )
    }
}

impl fmt::Display for IoErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoErrorClass::NotFound => "not-found",
            IoErrorClass::PermissionDenied => "permission-denied",
            IoErrorClass::NoSpace => "no-space",
            IoErrorClass::SyncFailed => "sync-failed",
            IoErrorClass::Interrupted => "interrupted",
            IoErrorClass::TimedOut => "timed-out",
            IoErrorClass::WouldBlock => "would-block",
            IoErrorClass::UnexpectedEof => "unexpected-eof",
            IoErrorClass::WriteZero => "write-zero",
            IoErrorClass::InvalidInput => "invalid-input",
            IoErrorClass::Unsupported => "unsupported",
            IoErrorClass::Other => "other",
        };
        f.write_str(name)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::AddrNotFound => write!(f, "address not found"),
            ErrorKind::AddrOutOfBounds => write!(f, "address out of bounds"),
            ErrorKind::UnknownStream(s) => write!(f, "unknown stream {s}"),
            ErrorKind::UnknownExtent(e) => write!(f, "unknown extent {e}"),
            ErrorKind::RecordTooLarge { len, capacity } => {
                write!(
                    f,
                    "record of {len} bytes exceeds extent capacity {capacity}"
                )
            }
            ErrorKind::AlreadyInvalid => write!(f, "record already invalidated"),
            ErrorKind::ExtentStillLive { extent, valid } => {
                write!(f, "{extent} still holds {valid} valid records")
            }
            ErrorKind::CorruptRecord => write!(f, "record bytes failed to decode"),
            ErrorKind::ChecksumMismatch => write!(f, "record frame failed checksum verification"),
            ErrorKind::ExtentQuarantined(e) => {
                write!(f, "{e} is quarantined pending repair")
            }
            ErrorKind::EpochFenced { attempted, current } => {
                write!(f, "epoch {attempted} is fenced (store is at {current})")
            }
            ErrorKind::Timeout { waited_nanos } => {
                write!(f, "timed out after {waited_nanos}ns of virtual time")
            }
            ErrorKind::NoLeader => write!(f, "no leader available"),
            ErrorKind::Overloaded { retry_after_nanos } => {
                write!(f, "overloaded; retry after {retry_after_nanos}ns")
            }
            ErrorKind::DeadlineExceeded {
                estimated_wait_nanos,
                deadline_nanos,
            } => write!(
                f,
                "estimated queue wait {estimated_wait_nanos}ns exceeds the \
                 {deadline_nanos}ns deadline"
            ),
            ErrorKind::SyncPoisoned { stream } => {
                write!(
                    f,
                    "{stream} tail is poisoned by an earlier failed fsync; \
                     reopen to recover from on-disk frames"
                )
            }
            ErrorKind::Injected(fault) => write!(f, "injected fault: {fault}"),
            ErrorKind::Crash(point) => write!(f, "crashed at {point}"),
            ErrorKind::Io { class, detail } => write!(f, "os i/o error ({class}): {detail}"),
        }
    }
}

/// A storage failure with full context: kind, operation, and (when one
/// exists) the address involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// The operation that was executing.
    pub op: StorageOp,
    /// The record address involved, when the failure concerns one.
    pub addr: Option<PageAddr>,
}

impl StorageError {
    /// Creates an error with no address context.
    pub fn new(kind: ErrorKind, op: StorageOp) -> Self {
        StorageError {
            kind,
            op,
            addr: None,
        }
    }

    /// Attaches the address the failure concerns.
    pub fn with_addr(mut self, addr: PageAddr) -> Self {
        self.addr = Some(addr);
        self
    }

    /// Missing record during `op` at `addr`.
    pub fn addr_not_found(op: StorageOp, addr: PageAddr) -> Self {
        Self::new(ErrorKind::AddrNotFound, op).with_addr(addr)
    }

    /// Range mismatch during `op` at `addr`.
    pub fn addr_out_of_bounds(op: StorageOp, addr: PageAddr) -> Self {
        Self::new(ErrorKind::AddrOutOfBounds, op).with_addr(addr)
    }

    /// Unopened stream touched during `op`.
    pub fn unknown_stream(op: StorageOp, stream: StreamId) -> Self {
        Self::new(ErrorKind::UnknownStream(stream), op)
    }

    /// Missing extent touched during `op`.
    pub fn unknown_extent(op: StorageOp, extent: ExtentId) -> Self {
        Self::new(ErrorKind::UnknownExtent(extent), op)
    }

    /// Oversized append.
    pub fn record_too_large(len: usize, capacity: usize) -> Self {
        Self::new(
            ErrorKind::RecordTooLarge { len, capacity },
            StorageOp::Append,
        )
    }

    /// Double invalidation at `addr`.
    pub fn already_invalid(addr: PageAddr) -> Self {
        Self::new(ErrorKind::AlreadyInvalid, StorageOp::Invalidate).with_addr(addr)
    }

    /// Premature expiry of a live extent.
    pub fn extent_still_live(extent: ExtentId, valid: usize) -> Self {
        Self::new(
            ErrorKind::ExtentStillLive { extent, valid },
            StorageOp::Expire,
        )
    }

    /// Undecodable record bytes during `op` at `addr`.
    pub fn corrupt_record(op: StorageOp, addr: PageAddr) -> Self {
        Self::new(ErrorKind::CorruptRecord, op).with_addr(addr)
    }

    /// Frame verification failure during `op` at `addr`.
    pub fn checksum_mismatch(op: StorageOp, addr: PageAddr) -> Self {
        Self::new(ErrorKind::ChecksumMismatch, op).with_addr(addr)
    }

    /// Read or relocation refused because `extent` is quarantined.
    pub fn extent_quarantined(op: StorageOp, extent: ExtentId) -> Self {
        Self::new(ErrorKind::ExtentQuarantined(extent), op)
    }

    /// A write from sealed epoch `attempted` rejected during `op` while the
    /// store accepts `current`.
    pub fn epoch_fenced(op: StorageOp, attempted: u64, current: u64) -> Self {
        Self::new(ErrorKind::EpochFenced { attempted, current }, op)
    }

    /// A virtual-time deadline elapsed during `op` after `waited_nanos`.
    pub fn timeout(op: StorageOp, waited_nanos: u64) -> Self {
        Self::new(ErrorKind::Timeout { waited_nanos }, op)
    }

    /// No leader was available to serve `op`.
    pub fn no_leader(op: StorageOp) -> Self {
        Self::new(ErrorKind::NoLeader, op)
    }

    /// Admission control shed the operation; the caller should back off
    /// for at least `retry_after_nanos` of virtual time.
    pub fn overloaded(retry_after_nanos: u64) -> Self {
        Self::new(
            ErrorKind::Overloaded { retry_after_nanos },
            StorageOp::Admission,
        )
    }

    /// Admission control shed the operation because its estimated queue
    /// wait exceeds the class deadline.
    pub fn deadline_exceeded(estimated_wait_nanos: u64, deadline_nanos: u64) -> Self {
        Self::new(
            ErrorKind::DeadlineExceeded {
                estimated_wait_nanos,
                deadline_nanos,
            },
            StorageOp::Admission,
        )
    }

    /// An append or sync rejected because `stream`'s tail was poisoned by
    /// an earlier failed durability barrier (fsyncgate rule).
    pub fn sync_poisoned(op: StorageOp, stream: StreamId) -> Self {
        Self::new(ErrorKind::SyncPoisoned { stream }, op)
    }

    /// A fault injected by the chaos layer during `op`.
    pub fn injected(op: StorageOp, fault: FaultKind) -> Self {
        Self::new(ErrorKind::Injected(fault), op)
    }

    /// A crash-point kill at `point`.
    pub fn crash(point: CrashPoint) -> Self {
        Self::new(ErrorKind::Crash(point), point.op())
    }

    /// An OS I/O failure surfaced by a real backend during `op`. The error
    /// is classified by [`IoErrorClass::classify`] so retry policies never
    /// string-match, and the OS message is preserved for logs.
    pub fn io(op: StorageOp, err: &std::io::Error) -> Self {
        Self::new(
            ErrorKind::Io {
                class: IoErrorClass::classify(err),
                detail: err.to_string(),
            },
            op,
        )
    }

    /// An OS I/O failure with a caller-forced class — used where the
    /// syscall context, not the errno, decides the class (fault-injecting
    /// backends, and fsync paths that must report [`IoErrorClass::SyncFailed`]).
    pub fn io_class(op: StorageOp, class: IoErrorClass, detail: impl Into<String>) -> Self {
        Self::new(
            ErrorKind::Io {
                class,
                detail: detail.into(),
            },
            op,
        )
    }

    /// A failed durability barrier surfaced by a real backend during `op`.
    /// Always classed [`IoErrorClass::SyncFailed`] regardless of errno:
    /// whatever the kernel reported, the dirty pages may already be gone,
    /// so the failure must not be retried (fsyncgate rule).
    pub fn io_sync(op: StorageOp, err: &std::io::Error) -> Self {
        Self::io_class(op, IoErrorClass::SyncFailed, err.to_string())
    }

    /// True when this error was injected by the chaos layer (fault or
    /// crash), as opposed to arising organically.
    pub fn is_injected(&self) -> bool {
        matches!(self.kind, ErrorKind::Injected(_) | ErrorKind::Crash(_))
    }

    /// True when this error is a crash-point kill. Crash errors must
    /// propagate to the harness — retrying them would defeat the kill.
    pub fn is_crash(&self) -> bool {
        matches!(self.kind, ErrorKind::Crash(_))
    }

    /// True when the stream tail is poisoned by an earlier failed fsync.
    /// Never retryable: only a fresh open clears the state.
    pub fn is_sync_poisoned(&self) -> bool {
        matches!(self.kind, ErrorKind::SyncPoisoned { .. })
    }

    /// True when the error is an epoch-fencing rejection. A fenced writer
    /// must never retry — it is a zombie; the error is its signal to step
    /// down.
    pub fn is_fenced(&self) -> bool {
        matches!(self.kind, ErrorKind::EpochFenced { .. })
    }

    /// True when a virtual-time deadline elapsed.
    pub fn is_timeout(&self) -> bool {
        matches!(self.kind, ErrorKind::Timeout { .. })
    }

    /// True when admission control shed the operation — either outright
    /// ([`ErrorKind::Overloaded`]) or because its estimated queue wait
    /// exceeded the class deadline ([`ErrorKind::DeadlineExceeded`]). Shed
    /// ops were never executed, so retrying after backing off is always
    /// safe.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Overloaded { .. } | ErrorKind::DeadlineExceeded { .. }
        )
    }

    /// The virtual-time backoff hint carried by an [`ErrorKind::Overloaded`]
    /// shed, when present. Deadline sheds carry no hint: the class queue is
    /// not over its bound, so any backoff that outlasts the current burst
    /// will do.
    pub fn retry_after_nanos(&self) -> Option<u64> {
        match self.kind {
            ErrorKind::Overloaded { retry_after_nanos } => Some(retry_after_nanos),
            _ => None,
        }
    }

    /// True when the failure is transient and retrying the same operation
    /// can succeed: injected append/read failures and torn appends. Crashes
    /// and organic errors (bad address, oversized record, ...) are
    /// permanent for a given call.
    pub fn is_transient(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Injected(
                FaultKind::AppendFail | FaultKind::AppendTorn | FaultKind::ReadFail
            )
        )
    }

    /// True when retrying the operation has a chance of succeeding. This is
    /// a superset of [`Self::is_transient`]: a checksum mismatch on a *read*
    /// is retryable (the store may serve a clean replica, or the mapping
    /// may have moved on), whereas a quarantined extent is not — the
    /// scrubber must repair it first. Crashes and fencing are never retried.
    pub fn is_retryable(&self) -> bool {
        if self.is_transient() {
            return true;
        }
        if self.is_overloaded() {
            // Shed operations were never executed; once the caller backs
            // off (see [`Self::retry_after_nanos`]) resubmission is safe
            // and expected to succeed when pressure drains.
            return true;
        }
        if let ErrorKind::Io { class, .. } = &self.kind {
            return class.is_retryable();
        }
        matches!(
            (&self.kind, self.op),
            (ErrorKind::ChecksumMismatch, StorageOp::Read)
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(addr) => write!(f, "{} failed at {addr}: {}", self.op, self.kind),
            None => write!(f, "{} failed: {}", self.op, self.kind),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RecordId;

    fn addr() -> PageAddr {
        PageAddr {
            stream: StreamId::BASE,
            extent: ExtentId(2),
            offset: 4,
            len: 8,
            record: RecordId(11),
        }
    }

    #[test]
    fn errors_render_kind_op_and_addr() {
        assert_eq!(
            StorageError::addr_not_found(StorageOp::Read, addr()).to_string(),
            "read failed at base/ext#2@4+8: address not found"
        );
        assert_eq!(
            StorageError::record_too_large(10, 4).to_string(),
            "append failed: record of 10 bytes exceeds extent capacity 4"
        );
        assert_eq!(
            StorageError::extent_still_live(ExtentId(1), 3).to_string(),
            "expire failed: ext#1 still holds 3 valid records"
        );
    }

    #[test]
    fn classification_flags() {
        let organic = StorageError::addr_not_found(StorageOp::Read, addr());
        assert!(!organic.is_injected());
        assert!(!organic.is_transient());
        assert!(!organic.is_crash());

        let fault = StorageError::injected(StorageOp::Append, FaultKind::AppendFail);
        assert!(fault.is_injected());
        assert!(fault.is_transient());
        assert!(!fault.is_crash());

        let crash = StorageError::crash(CrashPoint::MidFlush);
        assert!(crash.is_injected());
        assert!(!crash.is_transient(), "crashes must not be retried");
        assert!(crash.is_crash());
    }

    #[test]
    fn fencing_and_timeout_classification() {
        let fenced = StorageError::epoch_fenced(StorageOp::MappingPublish, 3, 5);
        assert!(fenced.is_fenced());
        assert!(!fenced.is_transient(), "zombies must not retry");
        assert!(!fenced.is_crash());
        assert_eq!(
            fenced.to_string(),
            "mapping-publish failed: epoch 3 is fenced (store is at 5)"
        );

        let timeout = StorageError::timeout(StorageOp::WalReplay, 1_000);
        assert!(timeout.is_timeout());
        assert!(!timeout.is_transient());
        assert_eq!(
            timeout.to_string(),
            "wal-replay failed: timed out after 1000ns of virtual time"
        );

        let no_leader = StorageError::no_leader(StorageOp::Append);
        assert!(!no_leader.is_transient());
        assert_eq!(no_leader.to_string(), "append failed: no leader available");
    }

    #[test]
    fn retryable_covers_read_checksum_but_not_quarantine() {
        let mismatch = StorageError::checksum_mismatch(StorageOp::Read, addr());
        assert!(!mismatch.is_transient());
        assert!(mismatch.is_retryable(), "store may serve a clean replica");
        assert_eq!(
            mismatch.to_string(),
            "read failed at base/ext#2@4+8: record frame failed checksum verification"
        );

        // A mismatch found while relocating is not retryable: the damage is
        // in our own extent, not in a flaky read path.
        let relocating = StorageError::checksum_mismatch(StorageOp::Relocate, addr());
        assert!(!relocating.is_retryable());

        let quarantined = StorageError::extent_quarantined(StorageOp::Read, ExtentId(7));
        assert!(!quarantined.is_retryable(), "repair must happen first");
        assert_eq!(
            quarantined.to_string(),
            "read failed: ext#7 is quarantined pending repair"
        );

        // Transient injected faults remain retryable.
        assert!(StorageError::injected(StorageOp::Read, FaultKind::ReadFail).is_retryable());
        assert!(!StorageError::crash(CrashPoint::MidFlush).is_retryable());
    }

    #[test]
    fn overload_sheds_are_retryable_with_backoff_hints() {
        let shed = StorageError::overloaded(2_500);
        assert!(shed.is_overloaded());
        assert!(shed.is_retryable(), "shed ops were never executed");
        assert!(!shed.is_transient(), "sheds are not chaos injections");
        assert_eq!(shed.retry_after_nanos(), Some(2_500));
        assert_eq!(
            shed.to_string(),
            "admission failed: overloaded; retry after 2500ns"
        );

        let late = StorageError::deadline_exceeded(9_000, 5_000);
        assert!(late.is_overloaded());
        assert!(late.is_retryable());
        assert!(!late.is_timeout(), "distinct from an elapsed-wait Timeout");
        assert_eq!(
            late.retry_after_nanos(),
            None,
            "deadline sheds carry no hint"
        );
        assert_eq!(
            late.to_string(),
            "admission failed: estimated queue wait 9000ns exceeds the 5000ns deadline"
        );
    }

    #[test]
    fn publish_drop_is_not_surfaced_as_transient() {
        // PublishDrop never surfaces as an error at all; if one is wrapped
        // manually it is not retryable.
        let e = StorageError::injected(StorageOp::MappingPublish, FaultKind::PublishDrop);
        assert!(!e.is_transient());
    }

    #[test]
    fn implements_std_error_end_to_end() {
        let e: Box<dyn std::error::Error> = Box::new(StorageError::already_invalid(addr()));
        assert!(e.to_string().contains("already invalidated"));
    }

    /// One assertion per mapped errno class: the `std::io::ErrorKind` →
    /// [`IoErrorClass`] mapping and the fail-closed retry policy for each.
    #[test]
    fn io_error_classes_map_and_classify_per_errno() {
        use std::io::{Error as IoError, ErrorKind as K};
        let cases: &[(K, IoErrorClass, bool)] = &[
            (K::NotFound, IoErrorClass::NotFound, false),
            (K::PermissionDenied, IoErrorClass::PermissionDenied, false),
            (K::StorageFull, IoErrorClass::NoSpace, false),
            (K::QuotaExceeded, IoErrorClass::NoSpace, false),
            (K::Interrupted, IoErrorClass::Interrupted, true),
            (K::TimedOut, IoErrorClass::TimedOut, true),
            (K::WouldBlock, IoErrorClass::WouldBlock, true),
            (K::UnexpectedEof, IoErrorClass::UnexpectedEof, false),
            (K::WriteZero, IoErrorClass::WriteZero, false),
            (K::InvalidInput, IoErrorClass::InvalidInput, false),
            (K::Unsupported, IoErrorClass::Unsupported, false),
            (K::BrokenPipe, IoErrorClass::Other, false),
        ];
        for &(kind, class, retryable) in cases {
            let os = IoError::new(kind, format!("synthetic {kind:?}"));
            let err = StorageError::io(StorageOp::Append, &os);
            match &err.kind {
                ErrorKind::Io { class: got, detail } => {
                    assert_eq!(*got, class, "errno kind {kind:?} misclassified");
                    assert!(detail.contains("synthetic"), "OS message dropped");
                }
                other => panic!("expected Io kind, got {other:?}"),
            }
            assert_eq!(
                err.is_retryable(),
                retryable,
                "retry policy wrong for {kind:?}"
            );
            assert!(!err.is_transient(), "OS errors are never chaos-injected");
            assert!(!err.is_injected());
        }
    }

    #[test]
    fn io_errors_render_class_and_detail() {
        let os = std::io::Error::new(std::io::ErrorKind::StorageFull, "no space left on device");
        let err = StorageError::io(StorageOp::Append, &os);
        assert_eq!(
            err.to_string(),
            "append failed: os i/o error (no-space): no space left on device"
        );
    }

    /// `NoSpace` is not syscall-retryable — the only recovery path is the
    /// admission layer's `Overloaded{retry_after}` shed while GC reclaims.
    #[test]
    fn no_space_retries_only_through_the_admission_path() {
        let os = std::io::Error::new(std::io::ErrorKind::StorageFull, "ENOSPC");
        let enospc = StorageError::io(StorageOp::Append, &os);
        assert!(!enospc.is_retryable(), "retrying a full disk is futile");
        assert!(!enospc.is_transient());

        // The degradation ladder converts the condition into an admission
        // shed, and *that* carries the retry contract.
        let shed = StorageError::overloaded(7_000);
        assert!(shed.is_retryable());
        assert_eq!(shed.retry_after_nanos(), Some(7_000));
    }

    /// The fsyncgate rule end to end at the error layer: a failed barrier
    /// is always classed `SyncFailed` (whatever errno the kernel chose),
    /// and a poisoned tail is never retryable.
    #[test]
    fn sync_failures_and_poisoned_tails_are_never_retryable() {
        // Any errno on the fsync path maps to SyncFailed, even ones that
        // would be retryable on a read/write path.
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::StorageFull,
            std::io::ErrorKind::Other,
        ] {
            let os = std::io::Error::new(kind, format!("fsync {kind:?}"));
            let err = StorageError::io_sync(StorageOp::Append, &os);
            match &err.kind {
                ErrorKind::Io { class, detail } => {
                    assert_eq!(*class, IoErrorClass::SyncFailed);
                    assert!(detail.contains("fsync"));
                }
                other => panic!("expected Io kind, got {other:?}"),
            }
            assert!(!err.is_retryable(), "fsync must never be retried");
        }
        assert!(!IoErrorClass::SyncFailed.is_retryable());
        assert!(!IoErrorClass::NoSpace.is_retryable());

        let poisoned = StorageError::sync_poisoned(StorageOp::Append, StreamId::WAL);
        assert!(poisoned.is_sync_poisoned());
        assert!(!poisoned.is_retryable(), "poison clears only on reopen");
        assert!(!poisoned.is_transient());
        assert!(!poisoned.is_overloaded());
        assert_eq!(
            poisoned.to_string(),
            "append failed: wal tail is poisoned by an earlier failed fsync; \
             reopen to recover from on-disk frames"
        );
    }
}
