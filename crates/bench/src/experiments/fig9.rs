//! Fig. 9 — read amplification: traditional (SLED-style) vs read-optimized
//! Bw-tree.
//!
//! Protocol (§4.3.1): both trees get identical settings — consolidate after
//! every 10 delta updates, splits disabled, cache size zero so every read
//! hits storage — and the same interleaved power-law read/write stream. The
//! paper reports entry QPS 20k fanning out to 76k storage QPS for SLED
//! (3.87× amplification) vs 48k for BG3 (2.4×, a 36.8% reduction).

use bg3_bwtree::{BwTree, BwTreeConfig};
use bg3_storage::{AppendOnlyStore, StoreBuilder, StoreConfig};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One system's measured amplification.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    /// System label ("SLED (traditional)" / "BG3 (read-optimized)").
    pub system: String,
    /// Entry-level reads issued.
    pub entry_reads: u64,
    /// Random storage reads those lookups caused.
    pub storage_reads: u64,
    /// `storage_reads / entry_reads`.
    pub amplification: f64,
    /// Cache-adjusted store-level accounting: with the page cache on by
    /// default, repeat reads of hot pages never reach storage.
    pub io: super::IoSummary,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Report {
    /// SLED-style and read-optimized rows.
    pub rows: Vec<Fig9Row>,
    /// Relative reduction of storage reads, BG3 vs SLED (paper: 36.8%).
    pub reduction_pct: f64,
    /// Merged registry snapshot of both systems' stores.
    pub metrics: bg3_storage::MetricsSnapshot,
}

fn run_mode(config: BwTreeConfig, label: &str, ops: usize) -> (Fig9Row, AppendOnlyStore) {
    let store =
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(1 << 20)).build();
    let tree = BwTree::new(1, store.clone(), config);
    let zipf = Zipf::new(512, 1.0);
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..ops {
        let write_key = format!("user{:06}", zipf.sample(&mut rng)).into_bytes();
        tree.put(&write_key, &i.to_le_bytes()).unwrap();
        let read_key = format!("user{:06}", zipf.sample(&mut rng)).into_bytes();
        let _ = tree.get(&read_key).unwrap();
    }
    let stats = tree.stats().snapshot();
    let row = Fig9Row {
        system: label.to_string(),
        entry_reads: stats.cold_reads,
        storage_reads: stats.cold_read_ios,
        amplification: stats.read_amplification(),
        io: super::IoSummary::between(&Default::default(), &store.metrics_snapshot()),
    };
    (row, store)
}

/// Runs the experiment with `ops` interleaved write+read pairs.
pub fn run(ops: usize) -> Fig9Report {
    let (sled, sled_store) = run_mode(BwTreeConfig::sled_baseline(), "SLED (traditional)", ops);
    let (bg3, bg3_store) = run_mode(
        BwTreeConfig::read_optimized_baseline(),
        "BG3 (read-optimized)",
        ops,
    );
    let reduction_pct = if sled.storage_reads > 0 {
        100.0 * (1.0 - bg3.storage_reads as f64 / sled.storage_reads as f64)
    } else {
        0.0
    };
    Fig9Report {
        rows: vec![sled, bg3],
        reduction_pct,
        metrics: super::merged_metrics([&sled_store, &bg3_store]),
    }
}

/// Renders the figure's series.
pub fn render(report: &Fig9Report) -> String {
    let mut out =
        String::from("Fig. 9: Read amplification, traditional vs read-optimized Bw-tree\n");
    for row in &report.rows {
        out.push_str(&format!(
            "{:<22} entry reads {:>7}  storage reads {:>8}  amplification {:.2}x\n",
            row.system, row.entry_reads, row.storage_reads, row.amplification
        ));
    }
    out.push_str(&format!(
        "storage-read reduction: {:.1}% (paper: 36.8%)\n",
        report.reduction_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn read_optimized_cuts_storage_reads() {
        let report = super::run(2_000);
        let sled = &report.rows[0];
        let bg3 = &report.rows[1];
        assert!(sled.amplification > bg3.amplification);
        assert!(
            bg3.amplification <= 2.0 + 1e-9,
            "single-delta invariant caps reads at 2: {}",
            bg3.amplification
        );
        assert!(
            report.reduction_pct > 20.0,
            "substantial reduction: {:.1}%",
            report.reduction_pct
        );
    }
}
