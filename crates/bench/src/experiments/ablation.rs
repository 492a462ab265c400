//! Ablations beyond the paper's tables — the design-choice studies
//! DESIGN.md commits to:
//!
//! 1. **GC policy sweep** — the Table 2 follow workload under all four
//!    policies, including the traditional FIFO queue (the paper only
//!    mentions it in prose) and the hybrid TTL+gradient policy the paper
//!    lists as future work (§4.4).
//! 2. **Consolidation threshold sweep** — the read-optimized Bw-tree's
//!    `ConsolidateNum` trades read amplification (chain length before
//!    consolidation) against write volume (base-page rewrites); Algorithm 1
//!    fixes it at 10 for the §4.3 experiments.

use bg3_bwtree::{BwTree, BwTreeConfig};
use bg3_core::{Bg3Config, Bg3Db, GcPolicyKind};
use bg3_gc::{HybridTtlGradientPolicy, SpaceReclaimer};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_storage::{obs::names, StoreBuilder, StoreConfig};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One GC-policy ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct GcAblationRow {
    /// Policy label.
    pub policy: String,
    /// Total bytes relocated.
    pub moved_bytes: u64,
    /// Relocated bytes that later died (wasted background I/O).
    pub wasted_bytes: u64,
}

/// One consolidation-threshold ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct ConsolidationRow {
    /// `ConsolidateNum`.
    pub threshold: usize,
    /// Cold-read amplification (storage reads per lookup).
    pub read_amplification: f64,
    /// Total bytes appended per logical write.
    pub write_bytes_per_op: f64,
}

/// The ablation report.
#[derive(Debug, Clone, Serialize)]
pub struct AblationReport {
    /// GC policies on the moving-hotspot workload.
    pub gc_rows: Vec<GcAblationRow>,
    /// Consolidation threshold sweep.
    pub consolidation_rows: Vec<ConsolidationRow>,
    /// Merged registry snapshot across every ablation cell.
    pub metrics: bg3_storage::MetricsSnapshot,
}

/// The Table 2 follow workload under one policy (shared shape).
fn run_gc_policy(
    policy: Option<GcPolicyKind>,
    ops: usize,
) -> (GcAblationRow, bg3_storage::MetricsSnapshot) {
    let mut config = Bg3Config {
        store: StoreConfig::counting().with_extent_capacity(8 * 1024),
        ..Bg3Config::default()
    };
    config.forest.tree_config = config.forest.tree_config.with_max_page_entries(32);
    if let Some(p) = policy {
        config.gc_policy = p;
    }
    let db = Bg3Db::new(config);
    let users = Zipf::new(64, 1.1);
    let recency = Zipf::new(2_048, 1.3);
    let mut rng = StdRng::seed_from_u64(17);
    let mut moved = 0u64;
    for i in 0..ops {
        let src = VertexId(users.sample(&mut rng));
        let released = (i / 2) as u64;
        let video = released.saturating_sub(recency.sample(&mut rng) - 1);
        db.store().clock().advance_micros(25);
        db.insert_edge(
            &Edge::new(src, EdgeType::LIKE, VertexId(video))
                .with_props((i as u64).to_le_bytes().to_vec()),
        )
        .unwrap();
        if i % 500 == 499 {
            moved += match policy {
                Some(_) => db.run_gc_cycle(24).unwrap().moved_bytes,
                None => {
                    // Hybrid policy: driven directly through the reclaimer.
                    let forest = std::sync::Arc::clone(db.forest());
                    SpaceReclaimer::new(
                        db.store().clone(),
                        HybridTtlGradientPolicy::default(),
                        move |tag: u64, old, new| {
                            forest.repair_relocated(tag, old, new);
                        },
                    )
                    .run_cycle(24)
                    .unwrap()
                    .moved_bytes
                }
            };
        }
    }
    let label = match policy {
        Some(GcPolicyKind::Fifo) => "FIFO (traditional Bw-tree)",
        Some(GcPolicyKind::DirtyRatio) => "Dirty ratio (ArkDB)",
        Some(GcPolicyKind::WorkloadAware) => "Workload-aware (BG3)",
        None => "Hybrid TTL+gradient (future work)",
    };
    let row = GcAblationRow {
        policy: label.into(),
        moved_bytes: moved,
        wasted_bytes: db
            .store()
            .stats()
            .registry()
            .counter(names::GC_WASTED_RELOCATION_BYTES_TOTAL)
            .get(),
    };
    (row, db.store().metrics_snapshot())
}

fn run_consolidation(
    threshold: usize,
    ops: usize,
) -> (ConsolidationRow, bg3_storage::MetricsSnapshot) {
    let store =
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(1 << 20)).build();
    let tree = BwTree::new(
        1,
        store.clone(),
        BwTreeConfig::read_optimized_baseline().with_consolidate_threshold(threshold),
    );
    let zipf = Zipf::new(512, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..ops {
        let key = format!("user{:06}", zipf.sample(&mut rng)).into_bytes();
        tree.put(&key, &i.to_le_bytes()).unwrap();
        let read_key = format!("user{:06}", zipf.sample(&mut rng)).into_bytes();
        let _ = tree.get(&read_key).unwrap();
    }
    let stats = tree.stats().snapshot();
    let row = ConsolidationRow {
        threshold,
        read_amplification: stats.read_amplification(),
        write_bytes_per_op: store
            .stats()
            .registry()
            .counter(names::STORAGE_BYTES_APPENDED_TOTAL)
            .get() as f64
            / ops as f64,
    };
    (row, store.metrics_snapshot())
}

/// Runs both ablations.
pub fn run(ops: usize) -> AblationReport {
    let mut metrics = bg3_storage::MetricsSnapshot::default();
    let mut gc_rows = Vec::new();
    for policy in [
        Some(GcPolicyKind::Fifo),
        Some(GcPolicyKind::DirtyRatio),
        Some(GcPolicyKind::WorkloadAware),
        None,
    ] {
        let (row, snap) = run_gc_policy(policy, ops);
        gc_rows.push(row);
        metrics.merge(&snap);
    }
    let mut consolidation_rows = Vec::new();
    for t in [2, 5, 10, 20, 40] {
        let (row, snap) = run_consolidation(t, ops / 2);
        consolidation_rows.push(row);
        metrics.merge(&snap);
    }
    AblationReport {
        gc_rows,
        consolidation_rows,
        metrics,
    }
}

/// Renders both ablation tables.
pub fn render(report: &AblationReport) -> String {
    let mut out = String::from("Ablation A: GC policy sweep (moving-hotspot workload)\n");
    for row in &report.gc_rows {
        out.push_str(&format!(
            "{:<36} moved {:>11}  wasted {:>11}\n",
            row.policy,
            super::mib(row.moved_bytes),
            super::mib(row.wasted_bytes),
        ));
    }
    out.push_str("\nAblation B: read-optimized Bw-tree consolidation threshold\n");
    for row in &report.consolidation_rows {
        out.push_str(&format!(
            "ConsolidateNum {:>3}  cold-read amplification {:.2}x  write bytes/op {:.0}\n",
            row.threshold, row.read_amplification, row.write_bytes_per_op,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn fifo_is_worst_and_thresholds_trade_reads_for_writes() {
        let report = super::run(6_000);
        let by_name = |needle: &str| {
            report
                .gc_rows
                .iter()
                .find(|r| r.policy.contains(needle))
                .unwrap()
        };
        // FIFO ignores content entirely: it must move at least as much as
        // the content-aware policies.
        assert!(
            by_name("FIFO").moved_bytes >= by_name("BG3").moved_bytes,
            "FIFO {} vs BG3 {}",
            by_name("FIFO").moved_bytes,
            by_name("BG3").moved_bytes
        );
        // Consolidation threshold: higher => longer chains => more read
        // amplification but fewer base rewrites (less write volume).
        let rows = &report.consolidation_rows;
        assert!(rows[0].read_amplification <= rows[rows.len() - 1].read_amplification + 1e-9);
        assert!(
            rows[0].write_bytes_per_op > rows[rows.len() - 1].write_bytes_per_op,
            "tiny thresholds rewrite bases constantly: {} vs {}",
            rows[0].write_bytes_per_op,
            rows[rows.len() - 1].write_bytes_per_op
        );
    }
}
