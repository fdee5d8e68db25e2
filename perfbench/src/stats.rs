//! Order statistics used by every workload: nearest-rank percentiles for
//! latency tails, the conventional median for repeated timings, and
//! quartiles computed exactly as Python's `statistics.quantiles(data,
//! n=4)` (its default "exclusive" method), so the spread the benchmark
//! prints matches the spread a reader recomputes from its output.

/// Nearest-rank percentile: the smallest value with at least `pct`% of
/// the samples at or below it. `pct` is a whole percent in `1..=100`.
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Integer rank arithmetic: ceil(pct * n / 100) without float rounding.
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The median: the middle value, or the mean of the two middle values
/// for an even count (Python's `statistics.median`). 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. A single value is its own quartiles; an empty sample gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (d[0], d[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is
/// 0): the run-to-run spread the benchmark's bounds are set against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(10);
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
        // 160 samples: p90 is rank 144, leaving 16 samples beyond it.
        assert_eq!(percentile(&seq(160), 90), 144.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order_and_keeps_infinities_last() {
        let v = [3.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(percentile(&v, 50), 2.0);
        assert_eq!(percentile(&v, 100), f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&seq(10));
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
