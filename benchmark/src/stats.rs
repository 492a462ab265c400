//! Percentiles and medians for the benchmark's reported numbers.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `sorted` must be non-empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q).max(1) - 1]
}

/// 1-based nearest rank of `q` among `n` samples. The epsilon keeps
/// products such as `0.999 * 10_000` from rounding up past an exact rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).min(n)
}

/// Number of samples strictly beyond the `q` rank.
fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The "ten samples beyond" rule: a percentile is reportable only when at
/// least ten samples lie beyond its rank, so one outlier cannot set it.
pub fn supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Highest of the usual percentiles that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supported(n, q))
}

/// Median of unsorted values (mean of the middle pair for even counts).
/// `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sorts latency samples and returns `(p50, p99)` in microseconds, or
/// `None` when there are no samples.
pub fn p50_p99_us(samples: &mut [u64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some((
        percentile(samples, 0.5) as f64 / 1e3,
        percentile(samples, 0.99) as f64 / 1e3,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1 000 samples: 990 at or below, ten beyond.
        assert!(!supported(999, 0.99));
        assert!(supported(1_000, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
