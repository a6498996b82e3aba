//! Latency-sample helpers shared by the open-loop harness (E20) and the
//! per-op latency satellites of E16/E18: nearest-rank percentiles over
//! virtual-time (`us`) samples, summarised as p50/p99/p999.
//!
//! Everything here is integer arithmetic over already-measured samples,
//! so summaries are byte-stable across platforms — a requirement for the
//! committed `BENCH_latency.json` lane.
//!
//! Percentile ranks are computed in exact integer per-mille arithmetic.
//! The earlier f64 formula (`((p / 100.0) * n as f64).ceil()`) was subtly
//! wrong for p999: `99.9 / 100.0` rounds to a binary double slightly
//! *above* 0.999, so for n = 1000 (and every multiple of 1000) the ceil
//! landed on rank 1000 instead of 999 — p999 silently reported the max
//! sample and understated tail regressions.

/// Nearest-rank percentile in **per-mille** (`pm` in `0..=1000`, so
/// p99.9 is `pm = 999`) over an **ascending sorted** slice. Exact
/// integer arithmetic: rank = ceil(pm * n / 1000), clamped to `1..=n`.
/// Empty input yields 0.
pub fn percentile_pm(sorted: &[u64], pm: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pm * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// p50/p99/p999 summary of one op class's latency samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median, microseconds.
    pub p50: u64,
    /// 99th percentile, microseconds.
    pub p99: u64,
    /// 99.9th percentile, microseconds.
    pub p999: u64,
    /// Worst sample, microseconds.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises `samples` (unsorted; a sorted copy is made).
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Self {
            count: sorted.len(),
            p50: percentile_pm(&sorted, 500),
            p99: percentile_pm(&sorted, 990),
            p999: percentile_pm(&sorted, 999),
            max: sorted.last().copied().unwrap_or(0),
        }
    }

    /// `p50=.. p99=..` one-liner for report footers.
    pub fn line(&self) -> String {
        format!(
            "p50={}us p99={}us p999={}us max={}us over {} samples",
            self.p50, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_pm(&sorted, 500), 50);
        assert_eq!(percentile_pm(&sorted, 990), 99);
        assert_eq!(percentile_pm(&sorted, 999), 100);
        assert_eq!(percentile_pm(&sorted, 1000), 100);
        assert_eq!(percentile_pm(&sorted, 0), 1);
        assert_eq!(percentile_pm(&[], 500), 0);
        assert_eq!(percentile_pm(&[7], 999), 7);
    }

    // Hand-computed nearest-rank fixtures. rank = ceil(pm * n / 1000),
    // value = sorted[rank - 1]; samples are 1..=n so value == rank.
    #[test]
    fn hand_computed_rank_fixtures() {
        // n = 10: p50 → rank ceil(5) = 5; p99 → ceil(9.9) = 10; p999 → ceil(9.99) = 10.
        let n10: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_pm(&n10, 500), 5);
        assert_eq!(percentile_pm(&n10, 990), 10);
        assert_eq!(percentile_pm(&n10, 999), 10);
        // n = 100: p999 → rank ceil(99.9) = 100 (max is genuinely correct here).
        let n100: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_pm(&n100, 999), 100);
        // n = 1000: p999 → rank ceil(999.0) = 999, NOT 1000. The old f64
        // path returned 1000 (the max) because 99.9/100.0 > 0.999 in f64.
        let n1000: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_pm(&n1000, 999), 999);
        assert_eq!(percentile_pm(&n1000, 990), 990);
        assert_eq!(percentile_pm(&n1000, 1000), 1000);
        // n = 1001: p999 → rank ceil(999.999) = 1000.
        let n1001: Vec<u64> = (1..=1001).collect();
        assert_eq!(percentile_pm(&n1001, 999), 1000);
        // n = 2000: p999 → rank ceil(1998.0) = 1998.
        let n2000: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile_pm(&n2000, 999), 1998);
        // pm = 0 clamps to rank 1; empty slice yields 0.
        assert_eq!(percentile_pm(&n10, 0), 1);
        assert_eq!(percentile_pm(&[], 999), 0);
    }

    #[test]
    fn summary_over_unsorted_samples() {
        let samples = [30u64, 10, 20];
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 20);
        assert_eq!(s.p99, 30);
        assert_eq!(s.p999, 30);
        assert_eq!(s.max, 30);
        assert!(s.line().contains("p99=30us"));
    }
}
