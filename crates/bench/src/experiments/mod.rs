//! One module per table/figure of the paper's evaluation.

pub mod ablation;
pub mod cache_scaling;
pub mod chaos;
pub mod cost;
pub mod disk_chaos;
pub mod failover;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod fig9;
pub mod khop;
pub mod overload;
pub mod profile;
pub mod scenario;
pub mod scrub;
pub mod table1;
pub mod table2;

use bg3_storage::obs::names;

/// Cache-adjusted I/O accounting attached to experiment reports. Reports
/// that embed one (anywhere in their JSON) get a per-experiment cache line
/// printed by the `reproduce` binary — the field names are the contract.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IoSummary {
    /// Random reads that actually reached storage.
    pub random_reads: u64,
    /// Reads served by the page cache without touching storage.
    pub cache_hits: u64,
    /// Reads that missed the cache (and went on to storage).
    pub cache_misses: u64,
    /// Pages evicted — CLOCK capacity pressure plus GC coherence.
    pub cache_evictions: u64,
    /// `random_reads / (cache_hits + random_reads)` — 1.0 without a cache.
    pub read_amplification: f64,
}

impl IoSummary {
    /// The cache-adjusted I/O one store's registry recorded between two of
    /// its snapshots. Pass `MetricsSnapshot::default()` as `before` for
    /// the store's whole life.
    pub fn between(
        before: &bg3_storage::MetricsSnapshot,
        after: &bg3_storage::MetricsSnapshot,
    ) -> IoSummary {
        let delta = |name| {
            after
                .counter(name)
                .unwrap_or(0)
                .saturating_sub(before.counter(name).unwrap_or(0))
        };
        let random_reads = delta(names::STORAGE_RANDOM_READS_TOTAL);
        let cache_hits = delta(names::CACHE_HITS_TOTAL);
        IoSummary {
            random_reads,
            cache_hits,
            cache_misses: delta(names::CACHE_MISSES_TOTAL),
            cache_evictions: delta(names::CACHE_EVICTIONS_TOTAL),
            read_amplification: read_amplification(random_reads, cache_hits),
        }
    }
}

/// Storage reads over logical reads (cache hits + storage reads), in
/// `[0.0, 1.0]`: 1.0 with the cache disabled or stone cold, and 1.0 (never
/// `NaN`) with no traffic at all.
fn read_amplification(random_reads: u64, cache_hits: u64) -> f64 {
    let logical = cache_hits + random_reads;
    if logical == 0 {
        return 1.0;
    }
    random_reads as f64 / logical as f64
}

/// Merges the registry snapshots of every store an experiment touched into
/// the single `metrics` field its report embeds. Counters and histograms
/// sum across stores; the `reproduce` binary turns the merged histograms
/// into the per-experiment `latency …: p50/p95/p99/max` lines.
pub fn merged_metrics<'a>(
    stores: impl IntoIterator<Item = &'a bg3_storage::AppendOnlyStore>,
) -> bg3_storage::MetricsSnapshot {
    let mut merged = bg3_storage::MetricsSnapshot::default();
    for store in stores {
        merged.merge(&store.metrics_snapshot());
    }
    merged
}

/// Formats a throughput as `x.y Kq/s`.
pub(crate) fn kqps(ops_per_sec: f64) -> String {
    format!("{:.1} Kq/s", ops_per_sec / 1e3)
}

/// Formats bytes as MiB.
pub(crate) fn mib(bytes: u64) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::read_amplification;

    #[test]
    fn read_amplification_math() {
        assert_eq!(read_amplification(0, 0), 1.0, "no traffic: neutral");
        assert_eq!(read_amplification(10, 0), 1.0, "no cache: every read pays");
        assert!((read_amplification(10, 30) - 0.25).abs() < 1e-9);
        assert_eq!(read_amplification(0, 30), 0.0, "fully cached");
    }
}
