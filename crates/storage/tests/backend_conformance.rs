//! Backend-conformance suite: one behavioral contract, executed against
//! both [`SimBackend`] (the deterministic CI default) and [`FileBackend`](bg3_storage::FileBackend)
//! (real files in a tempdir). Every case runs on both backends — if a
//! behavior diverges, the assertion message names the backend that broke
//! the contract.
//!
//! Covered contract surface:
//! * append/read round-trip (cached and cache-bypassing),
//! * checksum-mismatch surfacing on a corrupted frame,
//! * reads from sealed extents after rollover,
//! * recovery replay: reopen from the persisted bytes alone,
//! * every byte-level fault the store's plan installs: a failed append
//!   writes nothing, a torn append leaves the cursor for its retry, and a
//!   bit flip persists across re-reads until repair,
//! * (proptest) seeded fault schedules replay identically,
//! * (proptest, file only) any single-bit flip on the real extent file is
//!   detected at read time.

use bg3_storage::{
    BackendKind, ErrorKind, ExtentBackend, ExtentId, FaultBackend, FaultInjector, FaultKind,
    FaultOp, FaultPlan, FaultRule, PageAddr, ReadOpts, SimBackend, StoreBuilder, StreamId,
    FRAME_HEADER_LEN,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Minimal self-cleaning tempdir (no external crates available).
struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let unique = format!(
            "bg3-conformance-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )
        .replace(['(', ')'], "");
        let path = std::env::temp_dir().join(unique);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One backend under test. Holds whatever keeps the persisted bytes alive
/// across a store drop (the shared `Arc` for sim, the tempdir for file),
/// so `open()` models recovery: a brand-new store over surviving bytes.
enum Fixture {
    Sim(Arc<dyn ExtentBackend>),
    File(TempDir),
    /// A real [`FileBackend`](bg3_storage::FileBackend) under a plan whose rules never fire: the
    /// store installs [`FaultBackend`], which must be behaviorally
    /// invisible when no fault fires, so every case runs through it too.
    FaultFile(TempDir),
}

impl Fixture {
    fn all(tag: &str) -> Vec<Fixture> {
        vec![
            Fixture::Sim(Arc::new(SimBackend::new())),
            Fixture::File(TempDir::new(tag)),
            Fixture::FaultFile(TempDir::new(&format!("fault-{tag}"))),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Fixture::Sim(_) => "sim",
            Fixture::File(_) => "file",
            Fixture::FaultFile(_) => "fault(file)",
        }
    }

    fn builder(&self) -> StoreBuilder {
        let b = StoreBuilder::counting();
        match self {
            Fixture::Sim(backend) => b.backend(Arc::clone(backend)),
            Fixture::File(dir) => b.backend_kind(BackendKind::File {
                root: dir.0.clone(),
            }),
            Fixture::FaultFile(dir) => {
                let never = |op| FaultRule::new(op, FaultKind::AppendFail, 0.0);
                b.backend_kind(BackendKind::File {
                    root: dir.0.clone(),
                })
                .faults(
                    FaultPlan::seeded(1)
                        .with_rule(never(FaultOp::Write))
                        .with_rule(never(FaultOp::Read))
                        .with_rule(never(FaultOp::Sync)),
                )
            }
        }
    }

    fn open(&self) -> bg3_storage::AppendOnlyStore {
        self.builder().build()
    }

    /// A store whose plan fires `kind` on the first operation of `op`.
    fn open_with_one(&self, op: FaultOp, kind: FaultKind) -> bg3_storage::AppendOnlyStore {
        let rule = FaultRule::new(op, kind, 1.0).at_most(1);
        self.builder()
            .faults(FaultPlan::seeded(7).with_rule(rule))
            .build()
    }
}

#[test]
fn round_trip_appends_and_reads() {
    for fx in Fixture::all("roundtrip") {
        let store = fx.open();
        let mut written: Vec<(PageAddr, Vec<u8>)> = Vec::new();
        for i in 0..20u64 {
            let payload = vec![i as u8; 16 + i as usize];
            let addr = store
                .append(StreamId::BASE, &payload, i + 1, None)
                .unwrap_or_else(|e| panic!("[{}] append failed: {e}", fx.name()));
            written.push((addr, payload));
        }
        for (addr, payload) in &written {
            let cached = store.read(*addr).unwrap();
            assert_eq!(&cached[..], &payload[..], "[{}] cached read", fx.name());
            let raw = store
                .read_with(*addr, ReadOpts { bypass_cache: true })
                .unwrap();
            assert_eq!(&raw[..], &payload[..], "[{}] uncached read", fx.name());
        }
    }
}

#[test]
fn checksum_mismatch_surfaces_on_read() {
    for fx in Fixture::all("checksum") {
        let store = fx.open();
        let addr = store.append(StreamId::BASE, b"sensitive", 1, None).unwrap();
        // Flip one payload bit through the store's chaos hook — it lands in
        // the backend's persisted bytes, not any in-memory copy.
        store.corrupt_record_bit(addr, 3).unwrap();
        let err = store
            .read_with(addr, ReadOpts { bypass_cache: true })
            .unwrap_err();
        assert!(
            matches!(err.kind, ErrorKind::ChecksumMismatch),
            "[{}] expected ChecksumMismatch, got {err:?}",
            fx.name()
        );
    }
}

#[test]
fn sealed_extents_remain_readable() {
    for fx in Fixture::all("seal") {
        let store = fx.builder().extent_capacity(128).build();
        let mut written = Vec::new();
        // Enough appends to roll through several extents.
        for i in 0..30u64 {
            let payload = vec![0xA0 | (i as u8 & 0xF); 48];
            let addr = store
                .append(StreamId::DELTA, &payload, i + 1, None)
                .unwrap();
            written.push((addr, payload));
        }
        let sealed: Vec<_> = written
            .iter()
            .filter(|(addr, _)| addr.extent != written.last().unwrap().0.extent)
            .collect();
        assert!(
            !sealed.is_empty(),
            "[{}] test must cover sealed extents",
            fx.name()
        );
        for (addr, payload) in sealed {
            let bytes = store
                .read_with(*addr, ReadOpts { bypass_cache: true })
                .unwrap_or_else(|e| panic!("[{}] sealed read failed: {e}", fx.name()));
            assert_eq!(&bytes[..], &payload[..], "[{}] sealed extent", fx.name());
        }
    }
}

#[test]
fn recovery_replays_persisted_records() {
    for fx in Fixture::all("recovery") {
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        {
            let store = fx.open();
            for i in 0..12u64 {
                let payload = format!("record-{i}").into_bytes();
                store.append(StreamId::WAL, &payload, i + 1, None).unwrap();
                expected.push((i + 1, payload));
            }
            store.sync_stream(StreamId::WAL).unwrap();
        } // node dies: only the backend's bytes survive

        let store = fx.open();
        let mut recovered: Vec<(u64, Vec<u8>)> = store
            .scan_stream(StreamId::WAL)
            .unwrap_or_else(|e| panic!("[{}] scan after reopen: {e}", fx.name()))
            .into_iter()
            .map(|(_, tag, bytes)| (tag, bytes.to_vec()))
            .collect();
        recovered.sort_by_key(|(tag, _)| *tag);
        assert_eq!(recovered, expected, "[{}] recovery replay", fx.name());

        // The recovered store keeps accepting appends with fresh ids.
        let addr = store.append(StreamId::WAL, b"post", 99, None).unwrap();
        assert_eq!(
            &store.read(addr).unwrap()[..],
            b"post",
            "[{}] append after recovery",
            fx.name()
        );
    }
}

#[test]
fn a_failed_append_writes_nothing() {
    for fx in Fixture::all("append-fail") {
        let store = fx.open_with_one(FaultOp::Write, FaultKind::AppendFail);
        let err = store.append(StreamId::BASE, b"lost", 1, None).unwrap_err();
        assert!(err.is_transient(), "[{}] {err:?}", fx.name());
        assert_eq!(store.total_used_bytes(), 0, "[{}]", fx.name());
        let addr = store.append(StreamId::BASE, b"kept", 2, None).unwrap();
        // Only the retried frame reached the media.
        assert_eq!(
            store
                .backend()
                .extent_len(StreamId::BASE, addr.extent)
                .unwrap(),
            (FRAME_HEADER_LEN + 4) as u64,
            "[{}] failed append left bytes behind",
            fx.name()
        );
        drop(store);
        let scanned = fx.open().scan_stream(StreamId::BASE).unwrap();
        assert_eq!(scanned.len(), 1, "[{}]", fx.name());
        assert_eq!(&scanned[0].2[..], b"kept", "[{}]", fx.name());
    }
}

#[test]
fn a_torn_append_leaves_the_cursor_for_its_retry() {
    for fx in Fixture::all("append-torn") {
        let store = fx.open_with_one(FaultOp::Write, FaultKind::AppendTorn);
        let err = store
            .append(StreamId::BASE, b"scarred", 1, None)
            .unwrap_err();
        assert!(err.is_transient(), "[{}] {err:?}", fx.name());
        assert_eq!(store.total_used_bytes(), 0, "[{}] cursor moved", fx.name());
        let addr = store.append(StreamId::BASE, b"retried", 1, None).unwrap();
        assert_eq!(
            addr.offset as usize,
            FRAME_HEADER_LEN,
            "[{}] the retry overwrites the torn frame",
            fx.name()
        );
        let bytes = store
            .read_with(addr, ReadOpts { bypass_cache: true })
            .unwrap();
        assert_eq!(&bytes[..], b"retried", "[{}]", fx.name());
        drop(store);
        let scanned = fx.open().scan_stream(StreamId::BASE).unwrap();
        assert_eq!(scanned.len(), 1, "[{}]", fx.name());
        assert_eq!(&scanned[0].2[..], b"retried", "[{}]", fx.name());
    }
}

#[test]
fn a_bit_flip_persists_across_rereads_until_repair() {
    for fx in Fixture::all("bit-flip") {
        let store = fx.open_with_one(FaultOp::Read, FaultKind::ReadBitFlip);
        let addr = store.append(StreamId::BASE, b"precious", 5, None).unwrap();
        // The first read rots the frame; the budget is spent, but the
        // re-read still fails: the flipped bit lives on the media.
        for attempt in 0..2 {
            let err = store
                .read_with(addr, ReadOpts { bypass_cache: true })
                .unwrap_err();
            assert!(
                matches!(err.kind, ErrorKind::ChecksumMismatch),
                "[{}] read {attempt}: {err:?}",
                fx.name()
            );
        }
        let check = store.verify_extent(StreamId::BASE, addr.extent).unwrap();
        assert_eq!(check.corrupt_records, 1, "[{}]", fx.name());
        let mut moved = None;
        store
            .repair_extent(
                StreamId::BASE,
                addr.extent,
                |_, _| Some(b"precious".to_vec()),
                |_, _, new| moved = Some(new),
            )
            .unwrap();
        let bytes = store.read(moved.unwrap()).unwrap();
        assert_eq!(&bytes[..], b"precious", "[{}] repaired", fx.name());
    }
}

/// Locates the single extent file a fresh one-record store produced.
fn only_extent_file(root: &std::path::Path) -> PathBuf {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "dat") {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    walk(root, &mut found);
    assert_eq!(found.len(), 1, "expected exactly one extent file");
    found.into_iter().next().unwrap()
}

/// Runs a fixed backend op script through a freshly seeded
/// [`FaultBackend`] over a fresh [`SimBackend`] and returns a transcript
/// of every outcome. Two runs with the same `(seed, probability)` must
/// produce bit-identical transcripts — the errno storm is a pure function
/// of the seed and the op sequence.
fn fault_transcript(seed: u64, probability: f64) -> Vec<String> {
    fn show<T: std::fmt::Debug>(r: &Result<T, bg3_storage::StorageError>) -> String {
        match r {
            Ok(v) => format!("ok:{v:?}"),
            Err(e) => format!("err:{e}"),
        }
    }
    let rule = |op, kind| FaultRule::new(op, kind, probability / 2.0);
    let plan = FaultPlan::seeded(seed)
        .fail_syncs(probability)
        .no_space_writes(probability)
        .eio_reads(probability)
        .torn_backend_writes(probability / 2.0)
        .with_rule(rule(FaultOp::Write, FaultKind::AppendFail))
        .with_rule(rule(FaultOp::Write, FaultKind::AppendTorn))
        .with_rule(rule(FaultOp::Read, FaultKind::ReadFail))
        .with_rule(rule(FaultOp::Read, FaultKind::ReadBitFlip));
    let backend = FaultBackend::new(Arc::new(SimBackend::new()), FaultInjector::new(plan));
    let stream = StreamId::BASE;
    backend.allocate(stream, ExtentId(1), 4096).unwrap();
    let mut log = Vec::new();
    for i in 0..24u64 {
        log.push(show(&backend.write_at(
            stream,
            ExtentId(1),
            i * 4,
            &[i as u8; 4],
        )));
        log.push(show(&backend.read_at(stream, ExtentId(1), i * 4, 4)));
        if i % 4 == 3 {
            log.push(show(&backend.sync(stream, ExtentId(1))));
        }
    }
    log.push(show(&backend.seal(stream, ExtentId(1))));
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded errno schedules are deterministic: the same seed and fault
    /// probability produce the exact same sequence of injected failures
    /// (and surviving data) across two independent runs.
    #[test]
    fn seeded_errno_schedules_replay_identically(
        seed in any::<u64>(),
        p_mille in 0u32..=1000,
    ) {
        let probability = f64::from(p_mille) / 1000.0;
        let first = fault_transcript(seed, probability);
        let second = fault_transcript(seed, probability);
        prop_assert_eq!(first, second, "seed {} diverged", seed);
    }

    /// Flip any single bit of the frame (header or payload) directly in
    /// the on-disk extent file — no store API involved — and the next
    /// cache-bypassing read must fail verification. This is the scrubber's
    /// silent-corruption model exercised end-to-end on a real filesystem.
    #[test]
    fn file_backend_detects_any_on_disk_bit_flip(
        params in (
            proptest::collection::vec(any::<u8>(), 1..96),
            any::<u32>(),
        ),
    ) {
        let (payload, flip) = params;
        let dir = TempDir::new("bitflip");
        let store = StoreBuilder::counting()
            .backend_kind(BackendKind::File { root: dir.0.clone() })
            .build();
        let addr = store.append(StreamId::BASE, &payload, 7, None).unwrap();
        store.sync_stream(StreamId::BASE).unwrap();

        let file = only_extent_file(&dir.0);
        let mut bytes = std::fs::read(&file).unwrap();
        let span = FRAME_HEADER_LEN + payload.len();
        prop_assert_eq!(bytes.len(), span, "one frame on disk");
        let bit = flip as usize % (span * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&file, &bytes).unwrap();

        let err = store.read_with(addr, ReadOpts { bypass_cache: true });
        prop_assert!(
            err.is_err(),
            "on-disk bit {bit} flipped but the read succeeded"
        );
    }
}
