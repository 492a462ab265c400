//! Fig. 10 — write bandwidth: traditional (SLED-style) vs read-optimized
//! Bw-tree.
//!
//! A write-only power-law stream. The read-optimized tree re-flushes the
//! merged delta on every write, so it appends more bytes (the paper: 70 MB
//! vs 64.5 MB, +9.3%) — all of them sequential.

use bg3_bwtree::{BwTree, BwTreeConfig};
use bg3_storage::{obs::names, AppendOnlyStore, StoreBuilder, StoreConfig, StreamId};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One system's write volume.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Row {
    /// System label.
    pub system: String,
    /// Bytes appended to the BASE stream (consolidations).
    pub base_bytes: u64,
    /// Bytes appended to the DELTA stream.
    pub delta_bytes: u64,
    /// Total bytes appended.
    pub total_bytes: u64,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Report {
    /// SLED-style and read-optimized rows.
    pub rows: Vec<Fig10Row>,
    /// Extra write volume of the read-optimized tree (paper: +9.3%).
    pub overhead_pct: f64,
    /// Merged registry snapshot of both systems' stores.
    pub metrics: bg3_storage::MetricsSnapshot,
}

fn run_mode(config: BwTreeConfig, label: &str, ops: usize) -> (Fig10Row, AppendOnlyStore) {
    let store =
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(1 << 20)).build();
    let tree = BwTree::new(1, store.clone(), config);
    let zipf = Zipf::new(512, 1.0);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..ops {
        let key = format!("user{:06}", zipf.sample(&mut rng)).into_bytes();
        tree.put(&key, &[i as u8; 16]).unwrap();
    }
    let base = store.stream_stats(StreamId::BASE).unwrap().used_bytes;
    let delta = store.stream_stats(StreamId::DELTA).unwrap().used_bytes;
    let row = Fig10Row {
        system: label.to_string(),
        base_bytes: base,
        delta_bytes: delta,
        total_bytes: store
            .stats()
            .registry()
            .counter(names::STORAGE_BYTES_APPENDED_TOTAL)
            .get(),
    };
    (row, store)
}

/// Runs the experiment with `ops` writes.
pub fn run(ops: usize) -> Fig10Report {
    let (sled, sled_store) = run_mode(BwTreeConfig::sled_baseline(), "SLED (traditional)", ops);
    let (bg3, bg3_store) = run_mode(
        BwTreeConfig::read_optimized_baseline(),
        "BG3 (read-optimized)",
        ops,
    );
    let overhead_pct = if sled.total_bytes > 0 {
        100.0 * (bg3.total_bytes as f64 / sled.total_bytes as f64 - 1.0)
    } else {
        0.0
    };
    Fig10Report {
        rows: vec![sled, bg3],
        overhead_pct,
        metrics: super::merged_metrics([&sled_store, &bg3_store]),
    }
}

/// Renders the figure's series.
pub fn render(report: &Fig10Report) -> String {
    let mut out = String::from("Fig. 10: Write bandwidth, traditional vs read-optimized Bw-tree\n");
    for row in &report.rows {
        out.push_str(&format!(
            "{:<22} base {}  delta {}  total {}\n",
            row.system,
            super::mib(row.base_bytes),
            super::mib(row.delta_bytes),
            super::mib(row.total_bytes),
        ));
    }
    out.push_str(&format!(
        "read-optimized write overhead: +{:.1}% (paper: +9.3%)\n",
        report.overhead_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn read_optimized_writes_more_but_modestly() {
        let report = super::run(4_000);
        let sled = &report.rows[0];
        let bg3 = &report.rows[1];
        assert!(bg3.total_bytes > sled.total_bytes, "merging costs bytes");
        assert!(bg3.delta_bytes > sled.delta_bytes);
        assert_eq!(
            bg3.base_bytes, sled.base_bytes,
            "consolidation volume identical at equal thresholds"
        );
        assert!(
            report.overhead_pct < 100.0,
            "overhead stays modest: +{:.1}%",
            report.overhead_pct
        );
    }
}
