//! Per-tree operation counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters describing one Bw-tree's activity.
#[derive(Debug, Default)]
pub struct BwTreeStats {
    pub(crate) writes: AtomicU64,
    pub(crate) reads: AtomicU64,
    pub(crate) delta_flushes: AtomicU64,
    pub(crate) base_flushes: AtomicU64,
    pub(crate) delta_merges: AtomicU64,
    pub(crate) consolidations: AtomicU64,
    pub(crate) splits: AtomicU64,
    pub(crate) cold_reads: AtomicU64,
    pub(crate) cold_read_ios: AtomicU64,
    pub(crate) base_rewrites: [AtomicU64; 4],
}

impl BwTreeStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> BwTreeStatsSnapshot {
        BwTreeStatsSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            delta_flushes: self.delta_flushes.load(Ordering::Relaxed),
            base_flushes: self.base_flushes.load(Ordering::Relaxed),
            delta_merges: self.delta_merges.load(Ordering::Relaxed),
            consolidations: self.consolidations.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            cold_read_ios: self.cold_read_ios.load(Ordering::Relaxed),
            base_rewrites: self
                .base_rewrites
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
        }
    }
}

/// Copyable snapshot of [`BwTreeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BwTreeStatsSnapshot {
    /// Upsert + delete operations accepted.
    pub writes: u64,
    /// Point lookups served.
    pub reads: u64,
    /// Delta records flushed to the DELTA stream.
    pub delta_flushes: u64,
    /// Base pages flushed to the BASE stream.
    pub base_flushes: u64,
    /// Read-optimized delta merges performed (Algorithm 1 line 20).
    pub delta_merges: u64,
    /// Chain consolidations into a new base page.
    pub consolidations: u64,
    /// Structural leaf splits.
    pub splits: u64,
    /// Reads served by fetching from storage (cache miss or cache off).
    pub cold_reads: u64,
    /// Random storage reads those cold reads issued — `cold_read_ios /
    /// cold_reads` is the read-amplification factor of Fig. 9.
    pub cold_read_ios: u64,
    /// Group-commit base rewrites (a subset of `base_flushes`), indexed by
    /// [`crate::tree::Rewrite`]: why a flush wrote a base, not a delta.
    pub base_rewrites: [u64; 4],
}

impl BwTreeStatsSnapshot {
    /// Average random storage reads per cold lookup.
    pub fn read_amplification(&self) -> f64 {
        if self.cold_reads == 0 {
            0.0
        } else {
            self.cold_read_ios as f64 / self.cold_reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = BwTreeStats::default();
        BwTreeStats::bump(&s.writes);
        BwTreeStats::bump(&s.writes);
        BwTreeStats::add(&s.cold_read_ios, 4);
        BwTreeStats::bump(&s.cold_reads);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.cold_read_ios, 4);
        assert!((snap.read_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn read_amplification_of_idle_tree_is_zero() {
        assert_eq!(BwTreeStatsSnapshot::default().read_amplification(), 0.0);
    }
}
