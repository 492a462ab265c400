//! Table 2 — space-reclamation policies.
//!
//! Two workloads, mirroring §4.4:
//!
//! * **Workload 1** ("Douyin Follow"-shaped): write-only power-law stream
//!   with hot/cold skew and no TTL. Baseline = ArkDB-style dirty-ratio
//!   selection; BG3 adds the update gradient. The paper measures background
//!   relocation bandwidth of 15 MB/s vs 12.5 MB/s (−16%).
//! * **Workload 2** ("Financial Risk Control"-shaped): TTL'd inserts. With
//!   the TTL-aware policy, background movement drops to exactly zero — the
//!   extents expire wholesale (paper: 8 MB/s vs 0).

use bg3_core::{Bg3Config, Bg3Db, EngineRuntime, GcPolicyKind};
use bg3_graph::{Edge, EdgeType, GraphStore, VertexId};
use bg3_storage::{obs::names, StoreConfig};
use bg3_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One (workload, policy) cell.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Cell {
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Bytes relocated by background GC.
    pub moved_bytes: u64,
    /// Relocated bytes that later became garbage anyway — the wasted
    /// background I/O Fig. 5 argues about. The gradient policy exists to
    /// minimize exactly this.
    pub wasted_bytes: u64,
    /// Extents freed by relocation.
    pub relocated_extents: u64,
    /// Extents freed for free via TTL expiry.
    pub expired_extents: u64,
}

/// The table's data.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Report {
    /// Four cells: 2 workloads × 2 policies.
    pub cells: Vec<Table2Cell>,
    /// Relative reduction of *wasted* background writes on workload 1
    /// (the paper reports ~16% lower background bandwidth).
    pub w1_waste_reduction_pct: f64,
    /// Merged registry snapshot across every cell's engine.
    pub metrics: bg3_storage::MetricsSnapshot,
}

/// Workload 1: a moving hotspot — §3.3 Observation 1. Videos attract most
/// of their likes right after release and cool down afterwards, so *young*
/// extents churn (their records keep getting overwritten) while old extents
/// go quiet with a mix of garbage and survivors. GC runs under space
/// pressure, interleaved with the writes.
fn run_follow(policy: GcPolicyKind, ops: usize) -> (Table2Cell, bg3_storage::MetricsSnapshot) {
    let mut config = Bg3Config {
        store: StoreConfig::counting().with_extent_capacity(8 * 1024),
        gc_policy: policy,
        ..Bg3Config::default()
    };
    // Small pages: several base images per extent, so fragmentation is
    // fine-grained enough for extent selection to matter.
    config.forest.tree_config = config.forest.tree_config.with_max_page_entries(32);
    let db = Bg3Db::new(config);
    let users = Zipf::new(64, 1.1);
    // How far back (in video releases) a like reaches: heavily recent.
    let recency = Zipf::new(2_048, 1.3);
    let mut rng = StdRng::seed_from_u64(17);
    let mut total = bg3_gc::CycleReport::default();
    for i in 0..ops {
        let src = VertexId(users.sample(&mut rng));
        // Videos release steadily; likes target mostly recent releases, so
        // re-likes (overwrites) concentrate on young data.
        let released = (i / 2) as u64;
        let video = released.saturating_sub(recency.sample(&mut rng) - 1);
        // Advance simulated time so update gradients are measurable.
        db.store().clock().advance_micros(25);
        db.insert_edge(
            &Edge::new(src, EdgeType::LIKE, VertexId(video))
                .with_props((i as u64).to_le_bytes().to_vec()),
        )
        .unwrap();
        if i % 500 == 499 {
            // Algorithm 2's interface: reclaim a fixed number of extents
            // per cycle. The budget outstrips the supply of fully-dead
            // extents, so each policy must make marginal choices — that is
            // where dirty-ratio picks still-dying extents and wastes I/O.
            total.absorb(db.run_gc_cycle(24).unwrap());
        }
    }
    // Quiesce, then bring every run to the same utilization so the
    // comparison is space-fair: the hot extents a gradient-aware policy
    // deferred have finished dying by now and reclaim for (almost) free —
    // the payoff Fig. 5 predicts.
    db.store().clock().advance_millis(50);
    total.absorb(db.reclaim_to_utilization(0.90, 16).unwrap());
    let wasted = db
        .store()
        .stats()
        .registry()
        .counter(names::GC_WASTED_RELOCATION_BYTES_TOTAL)
        .get();
    let cell = Table2Cell {
        workload: "Douyin Follow (no TTL)".into(),
        policy: policy_name(policy),
        moved_bytes: total.moved_bytes,
        wasted_bytes: wasted,
        relocated_extents: total.relocated_extents,
        expired_extents: total.expired_extents,
    };
    (cell, db.metrics_snapshot())
}

/// Workload 2: TTL'd inserts; after the TTL elapses whole extents die.
fn run_risk(policy: GcPolicyKind, ops: usize) -> (Table2Cell, bg3_storage::MetricsSnapshot) {
    let ttl_nanos = 50_000_000; // 50 simulated ms
    let mut config = Bg3Config {
        store: StoreConfig::counting().with_extent_capacity(8 * 1024),
        gc_policy: policy,
        ..Bg3Config::default()
    }
    .with_ttl_nanos(Some(ttl_nanos));
    let _ = &mut config;
    let db = Bg3Db::new(config);
    let accounts = Zipf::new(2048, 1.0);
    let mut rng = StdRng::seed_from_u64(18);
    let mut total = bg3_gc::CycleReport::default();
    for i in 0..ops {
        let src = VertexId(accounts.sample(&mut rng));
        let dst = VertexId(accounts.sample(&mut rng));
        db.store().clock().advance_micros(25); // 40K QPS pacing
        db.insert_edge(
            &Edge::new(src, EdgeType::TRANSFER, dst).with_props((i as u64).to_le_bytes().to_vec()),
        )
        .unwrap();
        if i % 500 == 499 {
            total.absorb(db.run_gc_cycle(24).unwrap());
        }
    }
    // Same space-fair equalization; with TTL data the aware policy gets
    // there purely through expiry.
    db.store().clock().advance_millis(60);
    total.absorb(db.reclaim_to_utilization(0.90, 16).unwrap());
    let wasted = db
        .store()
        .stats()
        .registry()
        .counter(names::GC_WASTED_RELOCATION_BYTES_TOTAL)
        .get();
    let cell = Table2Cell {
        workload: "Financial Risk Control (TTL)".into(),
        policy: policy_name(policy),
        moved_bytes: total.moved_bytes,
        wasted_bytes: wasted,
        relocated_extents: total.relocated_extents,
        expired_extents: total.expired_extents,
    };
    (cell, db.metrics_snapshot())
}

fn policy_name(policy: GcPolicyKind) -> String {
    match policy {
        GcPolicyKind::Fifo => "FIFO".into(),
        GcPolicyKind::DirtyRatio => "Dirty ratio".into(),
        GcPolicyKind::WorkloadAware => "Workload-aware (+Gradient/+TTL)".into(),
    }
}

/// Runs both workloads under both policies.
pub fn run(ops: usize) -> Table2Report {
    let mut metrics = bg3_storage::MetricsSnapshot::default();
    let mut cells = Vec::new();
    for (cell, snap) in [
        run_follow(GcPolicyKind::DirtyRatio, ops),
        run_follow(GcPolicyKind::WorkloadAware, ops),
        run_risk(GcPolicyKind::DirtyRatio, ops),
        run_risk(GcPolicyKind::WorkloadAware, ops),
    ] {
        cells.push(cell);
        metrics.merge(&snap);
    }
    let w1_waste_reduction_pct = if cells[0].wasted_bytes > 0 {
        100.0 * (1.0 - cells[1].wasted_bytes as f64 / cells[0].wasted_bytes as f64)
    } else {
        0.0
    };
    Table2Report {
        cells,
        w1_waste_reduction_pct,
        metrics,
    }
}

/// Renders the table.
pub fn render(report: &Table2Report) -> String {
    let mut out = String::from("Table 2: Evaluation of different space reclamation policies\n");
    for cell in &report.cells {
        out.push_str(&format!(
            "{:<30} | {:<32} | moved {:>11} (wasted {:>11}) | relocated {:>4} | expired {:>4}\n",
            cell.workload,
            cell.policy,
            super::mib(cell.moved_bytes),
            super::mib(cell.wasted_bytes),
            cell.relocated_extents,
            cell.expired_extents,
        ));
    }
    out.push_str(&format!(
        "workload-1 wasted-background-write reduction: {:.1}% (paper: ~16% bandwidth reduction)\n",
        report.w1_waste_reduction_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn gradient_reduces_and_ttl_eliminates_movement() {
        let report = super::run(8_000);
        let dirty_follow = &report.cells[0];
        let aware_follow = &report.cells[1];
        let dirty_risk = &report.cells[2];
        let aware_risk = &report.cells[3];
        assert!(dirty_follow.moved_bytes > 0, "baseline moves data");
        assert!(
            aware_follow.wasted_bytes < dirty_follow.wasted_bytes,
            "gradient-aware wastes less background I/O ({} vs {})",
            aware_follow.wasted_bytes,
            dirty_follow.wasted_bytes
        );
        assert!(
            aware_follow.moved_bytes < dirty_follow.moved_bytes,
            "gradient-aware also moves less in total ({} vs {})",
            aware_follow.moved_bytes,
            dirty_follow.moved_bytes
        );
        assert!(dirty_risk.moved_bytes > 0, "TTL-blind baseline moves data");
        assert_eq!(
            aware_risk.moved_bytes, 0,
            "TTL bypass moves nothing (paper: 0 MB/s)"
        );
        assert!(aware_risk.expired_extents > 0, "extents expire wholesale");
    }
}
