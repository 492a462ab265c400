//! Fig. 13 — leader-follower synchronization latency vs write throughput.
//!
//! The paper raises the write load from 10K to 60K QPS and observes BG3's
//! sync latency staying flat around 120 ms: with dirty-page flushing pushed
//! to background group commit, the latency is just "how long it takes the
//! RW to write the WAL ... and the RO nodes to read this log".
//!
//! We reproduce that on the simulated clock: writes are paced at the target
//! QPS, each WAL append charges a small storage latency, and followers poll
//! the log on a fixed interval. Latency is measured per record from leader
//! timestamp to follower pickup.

use bg3_core::{Bg3Config, ReplicatedBg3, ReplicatedConfig};
use bg3_graph::{Edge, EdgeType, VertexId};
use bg3_storage::{LatencyModel, StoreConfig};
use serde::Serialize;

/// One write-rate measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    /// Target write rate, queries/second.
    pub write_qps: u64,
    /// Mean leader→follower latency, ms (simulated clock).
    pub mean_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Report {
    /// One row per write rate.
    pub rows: Vec<Fig13Row>,
    /// Merged registry snapshot across every write rate's deployment.
    pub metrics: bg3_storage::MetricsSnapshot,
}

/// WAL-oriented latency model: appends cost 10 µs (pipelined log writes);
/// reads are charged to the poll loop, not the clock, to keep the two
/// timelines separable.
fn wal_latency() -> LatencyModel {
    LatencyModel {
        append_us: 10,
        random_read_us: 0,
        per_kib_us: 0,
        mapping_publish_us: 0,
        network_rtt_us: 0,
    }
}

/// Follower poll interval in simulated nanoseconds (200 ms — half of it is
/// the expected pickup delay).
const POLL_INTERVAL_NANOS: u64 = 200_000_000;

fn run_rate(write_qps: u64, sim_millis: u64) -> (Fig13Row, bg3_storage::MetricsSnapshot) {
    // Fixed simulated duration, not a fixed write count: every rate must
    // span several poll intervals or the latency sample is truncated.
    let writes = (write_qps * sim_millis / 1000) as usize;
    let dep = ReplicatedBg3::new(ReplicatedConfig {
        leader: Bg3Config {
            store: StoreConfig {
                extent_capacity: 1 << 20,
                latency: wal_latency(),
                ..StoreConfig::default()
            },
            ..Bg3Config::default().with_group_commit_pages(64)
        },
        ro_nodes: 1,
        ..ReplicatedConfig::default()
    });
    let interarrival = 1_000_000_000 / write_qps;
    let clock = dep.store().clock().clone();
    let mut last_poll = clock.now();
    for i in 0..writes as u64 {
        dep.insert_edge(&Edge::new(
            VertexId(i % 4096),
            EdgeType::TRANSFER,
            VertexId(1_000_000 + i),
        ))
        .unwrap();
        // Pace the writer: the WAL append latency overlaps the interarrival
        // gap (log writes pipeline), so advance to the next arrival.
        clock.advance_nanos(interarrival.saturating_sub(10_000));
        if clock.now().duration_since(last_poll) >= POLL_INTERVAL_NANOS {
            dep.poll_all().unwrap();
            last_poll = clock.now();
        }
    }
    dep.poll_all().unwrap();
    let ro = dep.ro(0);
    let latency = ro.sync_latency();
    let row = Fig13Row {
        write_qps,
        mean_ms: latency.mean_nanos() / 1e6,
        p99_ms: latency.value_at_quantile(0.99) as f64 / 1e6,
    };
    (row, dep.metrics_snapshot())
}

/// Runs the sweep, simulating `sim_millis` milliseconds per write rate.
pub fn run(sim_millis: u64) -> Fig13Report {
    let mut rows = Vec::new();
    let mut metrics = bg3_storage::MetricsSnapshot::default();
    for i in 1..=6 {
        let (row, snap) = run_rate(i * 10_000, sim_millis);
        rows.push(row);
        metrics.merge(&snap);
    }
    Fig13Report { rows, metrics }
}

/// Renders the figure's series.
pub fn render(report: &Fig13Report) -> String {
    let mut out =
        String::from("Fig. 13: Leader-follower latency vs write throughput (simulated clock)\n");
    for row in &report.rows {
        out.push_str(&format!(
            "{:>3}K writes/s  mean {:>7.1} ms  p99 {:>7.1} ms\n",
            row.write_qps / 1000,
            row.mean_ms,
            row.p99_ms
        ));
    }
    out.push_str("(paper: flat ≈120 ms across 10K–60K)\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn latency_is_flat_across_write_rates() {
        let report = super::run(1_000);
        let means: Vec<f64> = report.rows.iter().map(|r| r.mean_ms).collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0, f64::max);
        assert!(min > 10.0, "poll interval dominates: {means:?}");
        assert!(
            max / min < 1.5,
            "latency stays flat as load grows 6x: {means:?}"
        );
        // Roughly half the poll interval (100 ms), like the paper's 120 ms.
        assert!((50.0..200.0).contains(&means[0]), "mean {} ms", means[0]);
    }
}
