//! §4.2 — storage cost comparison.
//!
//! The paper reports ~80% average storage-cost savings for BG3 over
//! ByteGraph and attributes it to two factors:
//!
//! 1. the Bw-tree forest + workload-aware reclamation easing the write
//!    amplification of LSM compaction, which keeps occupied capacity close
//!    to live data;
//! 2. "switching from LSM-tree based KV storage to shared cloud storage
//!    further reduces the cost per bit" — ByteGraph's persistence layer is
//!    a *multi-copy* distributed KV store (3 replicas on local SSD),
//!    whereas BG3 keeps a single logical copy on an erasure-coded
//!    append-only cloud service.
//!
//! We measure factor 1 directly (occupied/live bytes and background rewrite
//! volume after the same write stream) and apply factor 2 as an explicit,
//! documented constant ([`REPLICA_FACTOR`]); EXPERIMENTS.md discusses the
//! sensitivity.

use bg3_core::{Bg3Config, Bg3Db, ByteGraphConfig, ByteGraphDb, GcPolicyKind};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_lsm::LsmConfig;
use bg3_storage::{obs::names, StoreConfig};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Copies of every byte ByteGraph's multi-copy KV layer stores (the paper's
/// production deployment uses 3-way replication); BG3's shared append-only
/// store keeps one logical copy (durability via the storage service's own
/// erasure coding, already included in its $/bit).
pub const REPLICA_FACTOR: u64 = 3;

/// One system's storage bill.
#[derive(Debug, Clone, Serialize)]
pub struct CostRow {
    /// System name.
    pub system: String,
    /// Live (valid) bytes at the end — the logical dataset.
    pub valid_bytes: u64,
    /// Occupied bytes per copy (valid + not-yet-reclaimed garbage).
    pub used_bytes: u64,
    /// Background maintenance rewrites (GC relocation / LSM compaction).
    pub background_bytes: u64,
    /// Total bytes written to storage (foreground + background).
    pub bytes_written: u64,
    /// Provisioned capacity across all copies: `used_bytes × copies`.
    pub billed_bytes: u64,
}

/// The comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CostReport {
    /// BG3 and ByteGraph rows.
    pub rows: Vec<CostRow>,
    /// Capacity-cost savings of BG3 vs ByteGraph, percent (paper: ~80%).
    pub capacity_savings_pct: f64,
    /// Background-write savings of BG3 vs ByteGraph, percent.
    pub background_savings_pct: f64,
    /// Merged registry snapshot of both systems' stores.
    pub metrics: bg3_storage::MetricsSnapshot,
}

fn workload(store_ops: usize, mut insert: impl FnMut(Edge)) {
    let users = Zipf::new(2_000, 1.1);
    let mut rng = StdRng::seed_from_u64(4);
    for i in 0..store_ops {
        let src = VertexId(users.sample(&mut rng));
        // A small per-user id space => heavy overwrite churn, as follow /
        // unfollow / re-follow traffic produces in production.
        let dst = VertexId(rng.gen_range(0..8));
        insert(Edge::new(src, EdgeType::FOLLOW, dst).with_props((i as u64).to_le_bytes().to_vec()));
    }
}

/// Runs the comparison with `ops` writes per system.
pub fn run(ops: usize) -> CostReport {
    // BG3: forest over small extents; background GC keeps utilization ≥75%.
    let bg3_config = Bg3Config {
        store: StoreConfig::counting().with_extent_capacity(16 * 1024),
        gc_policy: GcPolicyKind::WorkloadAware,
        ..Bg3Config::default()
    };
    let bg3 = Bg3Db::new(bg3_config);
    let mut i = 0usize;
    workload(ops, |e| {
        bg3.store().clock().advance_micros(25);
        bg3.insert_edge(&e).unwrap();
        i += 1;
        if i.is_multiple_of(2000) {
            bg3.reclaim_to_utilization(0.75, 4).unwrap();
        }
    });
    bg3.reclaim_to_utilization(0.75, 4).unwrap();
    let bg3_io = bg3.store().stats().registry();
    let bg3_used = bg3.store().total_used_bytes();
    let bg3_row = CostRow {
        system: "BG3 (shared storage, 1 copy)".into(),
        valid_bytes: bg3.store().total_valid_bytes(),
        used_bytes: bg3_used,
        background_bytes: bg3_io.counter(names::GC_RELOCATION_BYTES_TOTAL).get(),
        bytes_written: bg3_io.counter(names::STORAGE_BYTES_APPENDED_TOTAL).get(),
        billed_bytes: bg3_used, // single logical copy
    };

    // ByteGraph: LSM with a memory budget typical of the storage layer
    // (small memtables => real compaction traffic), 3-way replicated.
    let byte = ByteGraphDb::new(ByteGraphConfig {
        store: StoreConfig::counting().with_extent_capacity(1 << 20),
        lsm: LsmConfig {
            memtable_flush_bytes: 16 * 1024,
            l0_compaction_threshold: 4,
            level_base_bytes: 64 * 1024,
            level_size_multiplier: 8,
            max_levels: 5,
            wal_enabled: true,
        },
        ..ByteGraphConfig::default()
    });
    workload(ops, |e| byte.insert_edge(&e).unwrap());
    byte.lsm().flush().unwrap();
    let lsm_stats = byte.lsm().stats();
    let byte_used = byte.lsm().store().total_used_bytes();
    let byte_row = CostRow {
        system: format!("ByteGraph (LSM, {REPLICA_FACTOR} copies)"),
        valid_bytes: byte.lsm().store().total_valid_bytes(),
        used_bytes: byte_used,
        background_bytes: lsm_stats.compaction_bytes,
        bytes_written: byte
            .lsm()
            .store()
            .stats()
            .registry()
            .counter(names::STORAGE_BYTES_APPENDED_TOTAL)
            .get(),
        billed_bytes: byte_used * REPLICA_FACTOR,
    };

    let capacity_savings_pct = if byte_row.billed_bytes > 0 {
        100.0 * (1.0 - bg3_row.billed_bytes as f64 / byte_row.billed_bytes as f64)
    } else {
        0.0
    };
    let background_savings_pct = if byte_row.background_bytes > 0 {
        100.0 * (1.0 - bg3_row.background_bytes as f64 / byte_row.background_bytes as f64)
    } else {
        0.0
    };
    CostReport {
        rows: vec![bg3_row, byte_row],
        capacity_savings_pct,
        background_savings_pct,
        metrics: super::merged_metrics([bg3.store(), byte.lsm().store()]),
    }
}

/// Renders the comparison.
pub fn render(report: &CostReport) -> String {
    let mut out = String::from("§4.2: Storage cost comparison (same write stream)\n");
    for row in &report.rows {
        out.push_str(&format!(
            "{:<30} live {:>11}  occupied/copy {:>11}  background {:>11}  total-written {:>11}  billed {:>11}\n",
            row.system,
            super::mib(row.valid_bytes),
            super::mib(row.used_bytes),
            super::mib(row.background_bytes),
            super::mib(row.bytes_written),
            super::mib(row.billed_bytes),
        ));
    }
    out.push_str(&format!(
        "BG3 capacity-cost savings: {:.1}% (paper: ~80%); background-write savings: {:.1}%\n",
        report.capacity_savings_pct, report.background_savings_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn bg3_bills_less_capacity_and_less_background_io() {
        let report = super::run(8_000);
        let bg3 = &report.rows[0];
        let byte = &report.rows[1];
        assert!(
            bg3.billed_bytes < byte.billed_bytes,
            "BG3 {} vs ByteGraph {}",
            bg3.billed_bytes,
            byte.billed_bytes
        );
        assert!(
            report.capacity_savings_pct > 50.0,
            "large capacity savings: {:.1}%",
            report.capacity_savings_pct
        );
        assert!(byte.background_bytes > 0, "compaction ran");
        // GC keeps BG3's occupancy close to live data.
        assert!(bg3.used_bytes as f64 <= bg3.valid_bytes as f64 / 0.6);
    }
}
