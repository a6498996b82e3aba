//! Pure arithmetic of the benchmark: nearest-rank percentiles, the
//! calibration factor, Σ-epoch throughput and the quartile spread the
//! A/A gate judges with. Integer math wherever a result is compared
//! between runs, so no bucket is ever wider than one nanosecond.

/// Nearest-rank percentile of an ascending slice, in per-mille
/// (`500` = median, `990` = p99). Rank `ceil(pm * n / 1000)`, computed
/// in integers: the f64 form `(p / 100.0) * n` put p999 on the maximum
/// whenever `n` was a multiple of 1000 (the PR 8 bug).
///
/// # Panics
///
/// Panics on an empty slice or `pm` outside `1..=1000`.
pub fn percentile(sorted: &[u64], pm: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=1000).contains(&pm), "per-mille out of range");
    let rank = (pm as u128 * sorted.len() as u128).div_ceil(1000) as usize;
    sorted[rank.max(1) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pm` — a
/// percentile is only worth quoting with at least ten of them.
pub fn samples_beyond(n: usize, pm: u64) -> usize {
    n - (pm as u128 * n as u128).div_ceil(1000) as usize
}

/// Rescales a raw duration into calibrated time: the reference kernel
/// took `kernel_ns` around this measurement and takes `nominal_ns` on
/// the machine the constant was committed from, so the box was running
/// at `kernel_ns / nominal_ns` of nominal cost per unit of work.
pub fn calibrate(raw_ns: u64, kernel_ns: u64, nominal_ns: u64) -> u64 {
    (raw_ns as u128 * nominal_ns as u128 / kernel_ns.max(1) as u128) as u64
}

/// Epoch factor input: the mean of the kernel timings bracketing it.
pub fn bracket(before_ns: u64, after_ns: u64) -> u64 {
    before_ns.midpoint(after_ns)
}

/// Requests per second over the whole measured phase: total requests
/// over the *sum* of (calibrated) epoch durations, so a slow epoch
/// weighs as much as it lasted.
pub fn ops_per_s(requests: u64, epoch_ns: &[u64]) -> f64 {
    let total: u128 = epoch_ns.iter().map(|&ns| ns as u128).sum();
    requests as f64 * 1e9 / (total.max(1) as f64)
}

/// Median of f64 values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the driver judges spread with that function, so the A/A
/// table must too.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // position i*(n+1)/4 on a 1-based scale, clamped to the data
        let num = i * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is better. `higher_is_better` flips the sign.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_fixtures() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 500), 5);
        assert_eq!(percentile(&v, 990), 10);
        assert_eq!(percentile(&v, 100), 1);
        assert_eq!(percentile(&v, 101), 2);
        assert_eq!(percentile(&[7], 500), 7);
        assert_eq!(percentile(&[3, 9], 500), 3);
        assert_eq!(percentile(&[3, 9], 501), 9);
        let odd: Vec<u64> = vec![10, 20, 30, 40, 50];
        assert_eq!(percentile(&odd, 500), 30);
        assert_eq!(percentile(&odd, 990), 50);
    }

    #[test]
    fn p999_is_not_the_maximum_when_n_is_a_multiple_of_1000() {
        for n in [1000u64, 2000, 10_000] {
            let v: Vec<u64> = (1..=n).collect();
            assert_eq!(percentile(&v, 999), n * 999 / 1000, "n = {n}");
            assert_eq!(percentile(&v, 990), n * 99 / 100, "n = {n}");
            assert_eq!(samples_beyond(n as usize, 999), (n / 1000) as usize);
        }
        assert_eq!(percentile(&(1..=1000).collect::<Vec<u64>>(), 1000), 1000);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(samples_beyond(10, 500), 5);
    }

    #[test]
    fn calibration_divides_by_the_kernel_ratio() {
        // Box running 25% slow: kernel took 1250 against a nominal 1000.
        assert_eq!(calibrate(5000, 1250, 1000), 4000);
        // Box at nominal speed leaves the sample alone.
        assert_eq!(calibrate(5000, 1000, 1000), 5000);
        // Faster box: samples stretch.
        assert_eq!(calibrate(5000, 800, 1000), 6250);
        assert_eq!(bracket(1000, 1500), 1250);
        // No overflow on a minute of nanoseconds.
        assert_eq!(
            calibrate(60_000_000_000, 2_600_000, 2_600_000),
            60_000_000_000
        );
    }

    #[test]
    fn throughput_is_total_over_summed_epochs() {
        // 300 requests over 0.1 s + 0.2 s.
        let got = ops_per_s(300, &[100_000_000, 200_000_000]);
        assert!((got - 1000.0).abs() < 1e-9, "{got}");
        // Not the mean of per-epoch rates (which would be 1250).
        let skew = ops_per_s(200, &[50_000_000, 150_000_000]);
        assert!((skew - 1000.0).abs() < 1e-9, "{skew}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) -> [10.5, 12.0, 14.0]
        let (q1, q3) = quartiles(&[10.0, 12.0, 11.0, 15.0, 13.0]);
        assert!((q1 - 10.5).abs() < 1e-12 && (q3 - 14.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, false) < 0.0);
    }
}
