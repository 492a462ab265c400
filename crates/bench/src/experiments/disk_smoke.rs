//! Disk smoke test — the file backend's two headline claims on a real
//! filesystem, with real OS threads (no virtual clock shortcuts):
//!
//! 1. **Kill-and-recover loses zero acked writes.** Several threads hammer
//!    the WAL through the group-fsync path; the "node" is then killed by
//!    dropping every in-memory structure, and a brand-new store is opened
//!    over the surviving extent files. Every append that returned `Ok`
//!    must come back from [`bg3_wal::WalWriter::recover`] byte-identical.
//! 2. **Scrub detects an injected on-disk bit flip.** A bit is flipped
//!    directly in an extent *file* — below every store API — and the
//!    scrubber must detect it, quarantine the extent, and repair it from a
//!    resupplied payload, after which the record reads back intact.
//!
//! Everything runs in a self-cleaning tempdir; the experiment is the CI
//! proof (`scripts/check.sh`) that `SimBackend` and `FileBackend` share
//! one recovery/scrub behavior on actual files.

use bg3_storage::{
    AppendOnlyStore, BackendKind, MetricsSnapshot, PageAddr, ReadOpts, RepairSupply, StoreBuilder,
    StreamId,
};
use bg3_wal::{WalPayload, WalWriter};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct DiskSmokeReport {
    /// Backend under test (always `file`).
    pub backend: String,
    /// Real OS threads appending concurrently in phase 1.
    pub threads: usize,
    /// WAL appends that returned `Ok` before the kill.
    pub acked_records: u64,
    /// Records [`WalWriter::recover`] replayed from the extent files.
    pub recovered_records: u64,
    /// Acked records missing or altered after recovery (must be 0).
    pub acked_lost: u64,
    /// Corrupt frames the scrubber found after the on-disk bit flip
    /// (must be ≥ 1).
    pub corrupt_detected: u64,
    /// True when the flip drove the extent into quarantine.
    pub quarantined: bool,
    /// Records repaired from a resupplied payload.
    pub resupplied: u64,
    /// True when every record read back intact after the repair.
    pub post_repair_reads_ok: bool,
    /// Registry snapshot of the recovered store (backend counters included).
    pub metrics: MetricsSnapshot,
}

/// Minimal self-cleaning tempdir (no external crates available).
struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let unique = format!("bg3-disk-smoke-{}", std::process::id());
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

fn file_store(root: &std::path::Path) -> AppendOnlyStore {
    StoreBuilder::counting()
        .backend_kind(BackendKind::File {
            root: root.to_path_buf(),
        })
        .build()
}

/// Key a phase-1 record by identity: `(tree, page)` encodes
/// `(thread, op index)`, so equality means the exact acked bytes survived.
fn record_key(r: &bg3_wal::WalRecord) -> (u64, u64) {
    (r.tree, r.page)
}

/// Runs the smoke test: `threads` appenders × `per_thread` records, then
/// kill/recover, then the on-disk bit-flip scrub.
pub fn run(threads: usize, per_thread: usize) -> DiskSmokeReport {
    let tmp = TempDir::new();

    // ---- Phase 1: concurrent WAL appends, kill, recover. ----
    let acked: Vec<bg3_wal::WalRecord> = {
        let store = file_store(&tmp.0);
        let writer = Arc::new(WalWriter::new(store.clone()).with_group_sync_every(4));
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let writer = Arc::clone(&writer);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..per_thread as u64 {
                    let rec = writer
                        .append(
                            t,
                            i,
                            WalPayload::Upsert {
                                key: format!("t{t}-k{i}").into_bytes(),
                                value: i.to_le_bytes().to_vec(),
                            },
                        )
                        .expect("append on a healthy file backend");
                    acked.push(rec);
                }
                acked
            }));
        }
        let mut acked = Vec::new();
        for h in handles {
            acked.extend(h.join().unwrap());
        }
        // The durability point: everything acked is on disk after this.
        writer.flush().unwrap();
        acked
    }; // `store` and `writer` drop here — the node is dead; files remain.

    let store = file_store(&tmp.0);
    let (_writer, recovered) =
        WalWriter::recover(store.clone()).expect("recovery from extent files");
    let replayed: std::collections::HashMap<(u64, u64), &bg3_wal::WalRecord> =
        recovered.iter().map(|r| (record_key(r), r)).collect();
    let mut acked_lost = 0u64;
    for want in &acked {
        match replayed.get(&record_key(want)) {
            Some(got) if got.payload == want.payload && got.lsn == want.lsn => {}
            _ => acked_lost += 1,
        }
    }

    // ---- Phase 2: flip a bit in a BASE extent file, scrub, repair. ----
    let mut payloads: Vec<(PageAddr, Vec<u8>)> = Vec::new();
    for i in 0..8u64 {
        let payload = format!("base-record-{i}").into_bytes();
        let addr = store.append(StreamId::BASE, &payload, i + 1, None).unwrap();
        payloads.push((addr, payload));
    }
    store.sync_stream(StreamId::BASE).unwrap();

    // Reach *under* the store: flip one payload bit in the extent file
    // itself, the way real media rots.
    let extent = payloads[0].0.extent;
    let ext_file = tmp
        .0
        .join("base")
        .join(format!("ext-{:016x}.dat", extent.0));
    let mut bytes = std::fs::read(&ext_file).expect("extent file exists");
    let victim = payloads[0].0.offset as usize; // first payload byte
    bytes[victim] ^= 0x01;
    std::fs::write(&ext_file, &bytes).unwrap();

    let check = store.verify_extent(StreamId::BASE, extent).unwrap();
    let quarantined = check.newly_quarantined;

    // Repair: the "owning tree" resupplies the payload it acked.
    let by_tag: std::collections::HashMap<u64, Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, (_, p))| (i as u64 + 1, p.clone()))
        .collect();
    let mut moves: Vec<(u64, PageAddr)> = Vec::new();
    let repair = store
        .repair_extent(
            StreamId::BASE,
            extent,
            |tag, _| RepairSupply::Payload(by_tag[&tag].clone()),
            |tag, _, to| moves.push((tag, to)),
        )
        .unwrap();

    let post_repair_reads_ok = moves.iter().all(|(tag, addr)| {
        store
            .read_with(*addr, ReadOpts { bypass_cache: true })
            .map(|bytes| bytes[..] == by_tag[tag][..])
            .unwrap_or(false)
    }) && !moves.is_empty();

    let report = DiskSmokeReport {
        backend: "file".to_string(),
        threads,
        acked_records: acked.len() as u64,
        recovered_records: recovered.len() as u64,
        acked_lost,
        corrupt_detected: check.corrupt_records,
        quarantined,
        resupplied: repair.resupplied_records,
        post_repair_reads_ok,
        metrics: store.metrics_snapshot(),
    };
    // The smoke's invariants: a violation fails `reproduce disk_smoke`.
    assert!(verdict(&report), "{}", render(&report));
    report
}

/// True when no acked write was lost and the on-disk flip was detected,
/// quarantined and repaired.
pub fn verdict(report: &DiskSmokeReport) -> bool {
    report.acked_lost == 0
        && report.corrupt_detected >= 1
        && report.quarantined
        && report.post_repair_reads_ok
}

/// Renders the pass/fail summary.
pub fn render(report: &DiskSmokeReport) -> String {
    let mut out = String::from("Disk smoke: file backend on a real filesystem\n");
    out.push_str(&format!(
        "kill+recover : {} threads, {} acked, {} recovered, {} lost\n",
        report.threads, report.acked_records, report.recovered_records, report.acked_lost,
    ));
    out.push_str(&format!(
        "bit-flip scrub: {} corrupt detected, quarantined {}, {} resupplied, reads-after-repair ok {}\n",
        report.corrupt_detected, report.quarantined, report.resupplied, report.post_repair_reads_ok,
    ));
    out.push_str(&format!(
        "verdict      : {}\n",
        if verdict(report) { "PASS" } else { "FAIL" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_recover_and_bit_flip_scrub_pass_on_real_files() {
        let report = run(3, 40);
        assert_eq!(report.acked_records, 120);
        assert_eq!(report.recovered_records, 120);
        assert_eq!(report.acked_lost, 0, "acked writes lost across recovery");
        assert!(report.corrupt_detected >= 1, "on-disk flip went undetected");
        assert!(report.quarantined, "corrupt extent was not quarantined");
        assert!(report.resupplied >= 1);
        assert!(report.post_repair_reads_ok);
    }
}
