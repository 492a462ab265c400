//! File-backed extent storage: one file per extent, real fsync discipline.
//!
//! Layout under the backend root:
//!
//! ```text
//! <root>/<stream>/ext-<id:016x>.dat      extent bytes
//! <root>/<stream>/ext-<id:016x>.sealed   empty durable-seal marker
//! ```
//!
//! where `<stream>` is `base`/`delta`/`wal`/`sst` for the well-known
//! streams and `stream-<N>` otherwise. The format inside each `.dat` file
//! is exactly the store's frame codec ([`crate::frame`]): a sequence of
//! 28-byte checksummed headers each followed by its payload, which makes
//! every extent file self-describing — recovery rebuilds the full record
//! index (including WAL LSNs, persisted in the frame tag) by walking
//! frames, with no separate metadata journal.
//!
//! Durability rules (rule 3 of the [`crate::backend`] contract):
//!
//! - `allocate` creates the file with `O_EXCL` and fsyncs the stream
//!   directory, so a crash cannot lose the directory entry of an extent
//!   that later acks writes.
//! - `sync` is `fdatasync` on the extent file. The WAL writer batches
//!   these (group commit); everyone else syncs at seal time.
//! - `seal` is `fdatasync` + create-and-fsync the `.sealed` marker +
//!   fsync the directory — fsync-before-seal, so a sealed extent's bytes
//!   are always durable before the seal itself becomes visible.
//! - `delete` removes both files and fsyncs the directory.
//!
//! Every `io::Error` is mapped through [`StorageError::io`] — the backend
//! fails closed, never panics, and never serves short reads (rule 2/4).

use crate::addr::{ExtentId, StreamId};
use crate::backend::{BackendStats, ExtentBackend, PersistedExtent, StatsSlot};
use crate::error::{StorageError, StorageOp, StorageResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Directory name for a stream under the backend root.
fn stream_dir_name(stream: StreamId) -> String {
    match stream {
        StreamId::BASE => "base".to_string(),
        StreamId::DELTA => "delta".to_string(),
        StreamId::WAL => "wal".to_string(),
        StreamId::SST => "sst".to_string(),
        StreamId(n) => format!("stream-{n}"),
    }
}

/// Inverse of [`stream_dir_name`]; `None` for unrelated directories.
fn parse_stream_dir(name: &str) -> Option<StreamId> {
    match name {
        "base" => Some(StreamId::BASE),
        "delta" => Some(StreamId::DELTA),
        "wal" => Some(StreamId::WAL),
        "sst" => Some(StreamId::SST),
        other => other
            .strip_prefix("stream-")
            .and_then(|n| n.parse::<u8>().ok())
            .map(StreamId),
    }
}

fn extent_file_name(extent: ExtentId) -> String {
    format!("ext-{:016x}.dat", extent.0)
}

fn seal_marker_name(extent: ExtentId) -> String {
    format!("ext-{:016x}.sealed", extent.0)
}

/// Inverse of [`extent_file_name`]; `None` for unrelated files.
fn parse_extent_file(name: &str) -> Option<ExtentId> {
    let hex = name.strip_prefix("ext-")?.strip_suffix(".dat")?;
    u64::from_str_radix(hex, 16).ok().map(ExtentId)
}

/// Opens `dir` and fsyncs it so freshly created/removed entries are
/// durable. Directory fsync is how POSIX persists the *name*, not just
/// the inode.
fn fsync_dir(dir: &Path, op: StorageOp) -> StorageResult<()> {
    let d = File::open(dir).map_err(|e| StorageError::io(op, &e))?;
    // A failed directory fsync is a failed durability barrier: the kernel
    // may have dropped the dirty entry, so report it as `SyncFailed`
    // (never retryable) rather than classifying the raw errno.
    d.sync_all().map_err(|e| StorageError::io_sync(op, &e))
}

/// The file-per-extent backend. Open file handles are cached (extents are
/// long-lived and bounded in number); all handle-table access is behind
/// one mutex, while the positioned reads/writes themselves run lock-free
/// on the shared `File` via `pread`/`pwrite`.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    handles: Mutex<HashMap<(StreamId, ExtentId), Arc<File>>>,
    stats: StatsSlot,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> StorageResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StorageError::io(StorageOp::Recovery, &e))?;
        Ok(FileBackend {
            root,
            handles: Mutex::new(HashMap::new()),
            stats: StatsSlot::default(),
        })
    }

    /// The backend's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn stream_dir(&self, stream: StreamId) -> PathBuf {
        self.root.join(stream_dir_name(stream))
    }

    fn extent_path(&self, stream: StreamId, extent: ExtentId) -> PathBuf {
        self.stream_dir(stream).join(extent_file_name(extent))
    }

    fn marker_path(&self, stream: StreamId, extent: ExtentId) -> PathBuf {
        self.stream_dir(stream).join(seal_marker_name(extent))
    }

    /// Returns the cached handle, opening the existing file on a miss
    /// (reattach after recovery).
    fn handle(
        &self,
        stream: StreamId,
        extent: ExtentId,
        op: StorageOp,
    ) -> StorageResult<Arc<File>> {
        let mut guard = self.handles.lock();
        if let Some(f) = guard.get(&(stream, extent)) {
            return Ok(Arc::clone(f));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.extent_path(stream, extent))
            .map_err(|e| StorageError::io(op, &e))?;
        let file = Arc::new(file);
        guard.insert((stream, extent), Arc::clone(&file));
        Ok(file)
    }
}

impl ExtentBackend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn attach_stats(&self, stats: BackendStats) {
        self.stats.attach(stats);
    }

    fn allocate(&self, stream: StreamId, extent: ExtentId, _capacity: usize) -> StorageResult<()> {
        let dir = self.stream_dir(stream);
        fs::create_dir_all(&dir).map_err(|e| StorageError::io(StorageOp::Append, &e))?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true) // extent ids are never reused; a collision is a bug
            .open(self.extent_path(stream, extent))
            .map_err(|e| StorageError::io(StorageOp::Append, &e))?;
        // The directory entry must survive a crash before any write to the
        // extent is acknowledged.
        fsync_dir(&dir, StorageOp::Append)?;
        self.handles.lock().insert((stream, extent), Arc::new(file));
        Ok(())
    }

    fn write_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        bytes: &[u8],
    ) -> StorageResult<()> {
        let file = self.handle(stream, extent, StorageOp::Append)?;
        file.write_all_at(bytes, at)
            .map_err(|e| StorageError::io(StorageOp::Append, &e))?;
        self.stats.with(|s| s.record_write(bytes.len()));
        Ok(())
    }

    fn read_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        len: usize,
    ) -> StorageResult<Vec<u8>> {
        let file = self.handle(stream, extent, StorageOp::Read)?;
        let mut buf = vec![0u8; len];
        file.read_exact_at(&mut buf, at)
            .map_err(|e| StorageError::io(StorageOp::Read, &e))?;
        self.stats.with(|s| s.record_read(len));
        Ok(buf)
    }

    fn extent_len(&self, stream: StreamId, extent: ExtentId) -> StorageResult<u64> {
        let file = self.handle(stream, extent, StorageOp::Read)?;
        let meta = file
            .metadata()
            .map_err(|e| StorageError::io(StorageOp::Read, &e))?;
        Ok(meta.len())
    }

    fn sync(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        let file = self.handle(stream, extent, StorageOp::Append)?;
        // Fsyncgate: after a failed fdatasync the kernel may already have
        // dropped the dirty pages, so the error is `SyncFailed` — callers
        // must poison the tail, never retry the sync.
        file.sync_data()
            .map_err(|e| StorageError::io_sync(StorageOp::Append, &e))?;
        self.stats.with(|s| s.record_sync());
        Ok(())
    }

    fn seal(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        // Fsync-before-seal: bytes first, then the marker, then the
        // directory entry of the marker. A crash can leave an unsealed
        // durable extent, never a sealed extent with undurable bytes.
        let file = self.handle(stream, extent, StorageOp::Append)?;
        file.sync_data()
            .map_err(|e| StorageError::io_sync(StorageOp::Append, &e))?;
        self.stats.with(|s| s.record_sync());
        let marker = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true) // idempotent re-seal
            .open(self.marker_path(stream, extent))
            .map_err(|e| StorageError::io(StorageOp::Append, &e))?;
        marker
            .sync_all()
            .map_err(|e| StorageError::io_sync(StorageOp::Append, &e))?;
        fsync_dir(&self.stream_dir(stream), StorageOp::Append)?;
        self.stats.with(|s| s.record_seal());
        Ok(())
    }

    fn delete(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        self.handles.lock().remove(&(stream, extent));
        fs::remove_file(self.extent_path(stream, extent))
            .map_err(|e| StorageError::io(StorageOp::Expire, &e))?;
        match fs::remove_file(self.marker_path(stream, extent)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {} // never sealed
            Err(e) => return Err(StorageError::io(StorageOp::Expire, &e)),
        }
        fsync_dir(&self.stream_dir(stream), StorageOp::Expire)?;
        self.stats.with(|s| s.record_delete());
        Ok(())
    }

    fn corrupt_bit(&self, stream: StreamId, extent: ExtentId, bit: u64) -> StorageResult<()> {
        let file = self.handle(stream, extent, StorageOp::Read)?;
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, bit / 8)
            .map_err(|e| StorageError::io(StorageOp::Read, &e))?;
        byte[0] ^= 1 << (bit % 8);
        file.write_all_at(&byte, bit / 8)
            .map_err(|e| StorageError::io(StorageOp::Read, &e))?;
        Ok(())
    }

    fn list_extents(&self) -> StorageResult<Vec<PersistedExtent>> {
        let op = StorageOp::Recovery;
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| StorageError::io(op, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io(op, &e))?;
            let Some(stream) = entry.file_name().to_str().and_then(parse_stream_dir) else {
                continue;
            };
            let dir = entry.path();
            let files = fs::read_dir(&dir).map_err(|e| StorageError::io(op, &e))?;
            for file in files {
                let file = file.map_err(|e| StorageError::io(op, &e))?;
                let name = file.file_name();
                let Some(extent) = name.to_str().and_then(parse_extent_file) else {
                    continue;
                };
                let meta = file.metadata().map_err(|e| StorageError::io(op, &e))?;
                let sealed = self.marker_path(stream, extent).exists();
                out.push(PersistedExtent {
                    stream,
                    extent,
                    len: meta.len(),
                    sealed,
                });
            }
        }
        out.sort_by_key(|p| (p.stream.0, p.extent.0));
        Ok(out)
    }
}

/// A fresh, empty directory under the system temp dir, removed on drop
/// (also when a test panics): scratch space for file-backed tests and
/// experiments. Unique per process and call.
#[doc(hidden)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `bg3-<label>-<pid>-<n>`, clearing any stale copy first.
    pub fn new(label: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bg3-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create a temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorKind, IoErrorClass};

    #[test]
    fn file_backend_round_trips_on_disk() {
        let tmp = TempDir::new("roundtrip");
        let b = FileBackend::open(&tmp.0).unwrap();
        b.allocate(StreamId::BASE, ExtentId(1), 64).unwrap();
        b.write_at(StreamId::BASE, ExtentId(1), 0, b"hello")
            .unwrap();
        b.write_at(StreamId::BASE, ExtentId(1), 5, b" world")
            .unwrap();
        assert_eq!(b.extent_len(StreamId::BASE, ExtentId(1)).unwrap(), 11);
        assert_eq!(
            b.read_at(StreamId::BASE, ExtentId(1), 6, 5).unwrap(),
            b"world"
        );
        assert!(tmp.0.join("base").join("ext-0000000000000001.dat").exists());
    }

    #[test]
    fn file_backend_survives_handle_cache_loss() {
        let tmp = TempDir::new("reattach");
        {
            let b = FileBackend::open(&tmp.0).unwrap();
            b.allocate(StreamId::WAL, ExtentId(7), 64).unwrap();
            b.write_at(StreamId::WAL, ExtentId(7), 0, b"durable")
                .unwrap();
            b.seal(StreamId::WAL, ExtentId(7)).unwrap();
        } // drop: all handles closed, like a process restart
        let b = FileBackend::open(&tmp.0).unwrap();
        let listed = b.list_extents().unwrap();
        assert_eq!(
            listed,
            vec![PersistedExtent {
                stream: StreamId::WAL,
                extent: ExtentId(7),
                len: 7,
                sealed: true,
            }]
        );
        assert_eq!(
            b.read_at(StreamId::WAL, ExtentId(7), 0, 7).unwrap(),
            b"durable"
        );
    }

    #[test]
    fn file_backend_fails_closed_on_missing_extents() {
        let tmp = TempDir::new("missing");
        let b = FileBackend::open(&tmp.0).unwrap();
        let err = b.read_at(StreamId::BASE, ExtentId(42), 0, 4).unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::Io {
                class: IoErrorClass::NotFound,
                ..
            }
        ));
        assert!(!err.is_retryable(), "a vanished file will not reappear");
    }

    #[test]
    fn file_backend_short_reads_are_eof_errors() {
        let tmp = TempDir::new("shortread");
        let b = FileBackend::open(&tmp.0).unwrap();
        b.allocate(StreamId::BASE, ExtentId(1), 64).unwrap();
        b.write_at(StreamId::BASE, ExtentId(1), 0, b"abc").unwrap();
        let err = b.read_at(StreamId::BASE, ExtentId(1), 2, 4).unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::Io {
                class: IoErrorClass::UnexpectedEof,
                ..
            }
        ));
    }

    #[test]
    fn file_backend_rejects_extent_id_reuse() {
        let tmp = TempDir::new("reuse");
        let b = FileBackend::open(&tmp.0).unwrap();
        b.allocate(StreamId::SST, ExtentId(1), 64).unwrap();
        assert!(b.allocate(StreamId::SST, ExtentId(1), 64).is_err());
    }

    #[test]
    fn file_backend_delete_removes_both_files() {
        let tmp = TempDir::new("delete");
        let b = FileBackend::open(&tmp.0).unwrap();
        b.allocate(StreamId::DELTA, ExtentId(2), 64).unwrap();
        b.write_at(StreamId::DELTA, ExtentId(2), 0, b"bytes")
            .unwrap();
        b.seal(StreamId::DELTA, ExtentId(2)).unwrap();
        b.delete(StreamId::DELTA, ExtentId(2)).unwrap();
        assert!(b.list_extents().unwrap().is_empty());
        assert!(matches!(
            b.delete(StreamId::DELTA, ExtentId(2)).unwrap_err().kind,
            ErrorKind::Io {
                class: IoErrorClass::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn corrupt_bit_persists_on_disk() {
        let tmp = TempDir::new("rot");
        let b = FileBackend::open(&tmp.0).unwrap();
        b.allocate(StreamId::BASE, ExtentId(1), 64).unwrap();
        b.write_at(StreamId::BASE, ExtentId(1), 0, &[0u8; 4])
            .unwrap();
        b.corrupt_bit(StreamId::BASE, ExtentId(1), 17).unwrap();
        assert_eq!(
            b.read_at(StreamId::BASE, ExtentId(1), 0, 4).unwrap(),
            vec![0, 0, 2, 0]
        );
    }

    #[test]
    fn stream_dir_names_round_trip() {
        for stream in [
            StreamId::BASE,
            StreamId::DELTA,
            StreamId::WAL,
            StreamId::SST,
            StreamId(9),
        ] {
            assert_eq!(parse_stream_dir(&stream_dir_name(stream)), Some(stream));
        }
        assert_eq!(parse_stream_dir("lost+found"), None);
        assert_eq!(parse_extent_file("ext-zz.dat"), None);
        assert_eq!(
            parse_extent_file("ext-00000000000000ff.dat"),
            Some(ExtentId(255))
        );
    }
}
