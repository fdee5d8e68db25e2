//! Statistics used by the paper's evaluation: speedup/slowdown, the
//! Van Craeynest fairness metric (Eq. 1), geometric means, CDFs, box-plot
//! summaries and moving averages.
//!
//! All functions are pure and panic on empty input (an empty mix is a
//! harness bug, not a runtime condition).
//!
//! [`prom`] holds the Prometheus text-exposition renderers and lint the
//! daemon's `/metrics` endpoint uses; the daemon's own job counters live
//! with its job table in `mnpu-service`.
//!
//! # Example
//!
//! ```
//! use mnpu_metrics::{fairness, geomean, Speedup};
//!
//! // A dual-core mix: each workload vs its Ideal (solo, all resources) run.
//! let a = Speedup::new(1000, 1250); // 0.8 of ideal
//! let b = Speedup::new(2000, 2000); // 1.0 of ideal
//! let mix_perf = geomean(&[a.value(), b.value()]);
//! assert!(mix_perf > 0.89 && mix_perf < 0.90);
//! let f = fairness(&[a.slowdown(), b.slowdown()]);
//! assert!(f > 0.8 && f < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prom;

pub use prom::ExpHistogram;

/// A workload's speedup relative to its `Ideal` (solo, all-resources) run.
///
/// Values are ≤ 1.0 when sharing hurts and can exceed 1.0 only through
/// simulator noise (e.g. row-buffer luck).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    ideal_cycles: u64,
    actual_cycles: u64,
}

impl Speedup {
    /// Build from the Ideal run's cycles and the measured run's cycles.
    ///
    /// # Panics
    ///
    /// Panics if either cycle count is zero.
    pub fn new(ideal_cycles: u64, actual_cycles: u64) -> Self {
        assert!(ideal_cycles > 0 && actual_cycles > 0, "cycle counts must be positive");
        Speedup { ideal_cycles, actual_cycles }
    }

    /// `ideal / actual` — 1.0 means no interference at all.
    pub fn value(&self) -> f64 {
        self.ideal_cycles as f64 / self.actual_cycles as f64
    }

    /// `actual / ideal`, the inverse of [`Speedup::value`] (the paper's
    /// slowdown, input to the fairness metric).
    pub fn slowdown(&self) -> f64 {
        self.actual_cycles as f64 / self.ideal_cycles as f64
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or any value is not finite and positive.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0 && x.is_finite(), "geomean requires positive finite values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn stddev(xs: &[f64]) -> f64 {
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Eq. 1 of the paper (Van Craeynest et al.): `Fairness = 1 - σ/μ` over the
/// per-workload slowdowns of one mix. 1.0 = perfectly balanced.
///
/// # Panics
///
/// Panics if `slowdowns` is empty or contains non-positive values.
pub fn fairness(slowdowns: &[f64]) -> f64 {
    assert!(!slowdowns.is_empty(), "fairness of empty mix");
    assert!(slowdowns.iter().all(|&s| s > 0.0), "slowdowns must be positive");
    1.0 - stddev(slowdowns) / mean(slowdowns)
}

/// An empirical CDF over a sample, for the paper's quad-core and mapping
/// figures.
///
/// ```
/// use mnpu_metrics::Cdf;
///
/// let cdf = Cdf::new(vec![0.5, 0.7, 0.9, 1.0]);
/// assert_eq!(cdf.fraction_at_or_below(0.7), 0.5);
/// assert_eq!(cdf.quantile(0.0), 0.5);
/// assert_eq!(cdf.quantile(1.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from a sample (order irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "CDF of empty sample");
        assert!(sample.iter().all(|x| !x.is_nan()), "CDF sample contains NaN");
        sample.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the sample is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations ≤ `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by nearest-rank: the smallest
    /// observation `v` with [`fraction_at_or_below`](Cdf::fraction_at_or_below)`(v) >= q`
    /// (the sample minimum for `q = 0`). Every returned value is an actual
    /// observation, and `quantile(1.0)` is always the maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        // Nearest-rank: the smallest 1-based rank whose cumulative fraction
        // `rank / n` reaches q. Phrased as the same `count / n` division
        // `fraction_at_or_below` performs (rather than `ceil(q * n)`, whose
        // product rounds the other way for some q) so the two stay exactly
        // consistent under floating point.
        let n = self.sorted.len();
        let (mut lo, mut hi) = (1usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid as f64 / n as f64 >= q {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.sorted[lo - 1]
    }

    /// `(value, cumulative fraction)` pairs for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted.iter().enumerate().map(|(i, &v)| (v, (i + 1) as f64 / n)).collect()
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Five-number summary for the paper's Fig. 8 box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

impl BoxStats {
    /// Compute the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn from_sample(sample: &[f64]) -> Self {
        let cdf = Cdf::new(sample.to_vec());
        BoxStats {
            min: cdf.quantile(0.0),
            q1: cdf.quantile(0.25),
            median: cdf.quantile(0.5),
            q3: cdf.quantile(0.75),
            max: cdf.quantile(1.0),
        }
    }

    /// `max - min`: the spread the paper reads as contention sensitivity.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Tail-latency summary of a cycle-valued sample (per-job queueing delay,
/// service time or completion latency from a serve-mode run).
///
/// Quantiles are nearest-rank over the empirical [`Cdf`], so every reported
/// value is an actual observation.
///
/// ```
/// use mnpu_metrics::LatencyStats;
///
/// let s = LatencyStats::from_cycles(&[100, 200, 300, 400]);
/// assert_eq!(s.p50, 200.0); // ceil(0.5 * 4) = rank 2
/// assert_eq!(s.max, 400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observation.
    pub max: f64,
}

impl LatencyStats {
    /// Summarize a sample of latencies.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn from_sample(sample: &[f64]) -> Self {
        let cdf = Cdf::new(sample.to_vec());
        LatencyStats {
            p50: cdf.quantile(0.5),
            p95: cdf.quantile(0.95),
            p99: cdf.quantile(0.99),
            mean: mean(cdf.values()),
            max: cdf.quantile(1.0),
        }
    }

    /// [`LatencyStats::from_sample`] over integer cycle counts.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn from_cycles(cycles: &[u64]) -> Self {
        let sample: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
        LatencyStats::from_sample(&sample)
    }
}

/// Throughput of a serve-mode run in jobs per million cycles (`makespan` is
/// the span from the first arrival to the last completion).
///
/// # Panics
///
/// Panics if `makespan` is zero while jobs completed.
pub fn throughput_per_mcycle(jobs: usize, makespan: u64) -> f64 {
    if jobs == 0 {
        return 0.0;
    }
    assert!(makespan > 0, "jobs completed in a zero-cycle makespan");
    jobs as f64 * 1e6 / makespan as f64
}

/// Trailing moving average with the given window, as in the paper's Fig. 2b
/// (1000-cycle window over memory-request counts).
///
/// Output has the same length as the input; prefix positions average over
/// the elements seen so far. Each window is summed on its own, so a window
/// of zeros averages to exactly zero (a running sum would carry the
/// rounding residue of the values that left it).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    (0..xs.len())
        .map(|i| {
            let w = &xs[(i + 1).saturating_sub(window)..=i];
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_slowdown_are_inverse() {
        let s = Speedup::new(100, 125);
        assert!((s.value() - 0.8).abs() < 1e-12);
        assert!((s.slowdown() - 1.25).abs() < 1e-12);
        assert!((s.value() * s.slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycles_rejected() {
        let _ = Speedup::new(0, 1);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_below_arithmetic_mean() {
        let xs = [0.5, 0.9, 1.3, 2.0];
        assert!(geomean(&xs) < mean(&xs));
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn fairness_perfect_balance_is_one() {
        assert!((fairness(&[1.3, 1.3, 1.3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_decreases_with_imbalance() {
        let balanced = fairness(&[1.1, 1.15]);
        let skewed = fairness(&[1.0, 2.0]);
        assert!(balanced > skewed);
        assert!(skewed < 0.8);
    }

    #[test]
    fn fairness_matches_hand_computation() {
        // slowdowns 1.0, 1.5: mean 1.25, stddev 0.25 -> 1 - 0.2 = 0.8.
        assert!((fairness(&[1.0, 1.5]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cdf_fraction_and_points() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert!((c.fraction_at_or_below(1.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.fraction_at_or_below(3.0) - 1.0).abs() < 1e-12);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        let pts = c.points();
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn cdf_quantiles_monotone() {
        let c = Cdf::new((0..100).map(|i| i as f64).collect());
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = c.quantile(q);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn box_stats_ordering() {
        let b = BoxStats::from_sample(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.range(), 4.0);
    }

    #[test]
    fn moving_average_constant_signal() {
        let xs = vec![2.0; 10];
        let ma = moving_average(&xs, 3);
        assert!(ma.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_smooths_spike() {
        let mut xs = vec![0.0; 10];
        xs[5] = 10.0;
        let ma = moving_average(&xs, 5);
        let peak = ma.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 2.0).abs() < 1e-12, "spike spread over window");
        assert_eq!(ma.len(), xs.len());
    }

    #[test]
    fn moving_average_of_an_idle_window_is_exactly_zero() {
        let ma = moving_average(&[0.1, 0.2, 0.3, 0.0, 0.0], 2);
        assert_eq!(ma[4].to_bits(), 0.0f64.to_bits(), "{ma:?}");
    }

    #[test]
    fn moving_average_prefix_uses_partial_window() {
        let ma = moving_average(&[4.0, 0.0], 4);
        assert_eq!(ma[0], 4.0);
        assert_eq!(ma[1], 2.0);
    }

    #[test]
    fn latency_stats_ordering_and_values() {
        let cycles: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::from_cycles(&cycles);
        assert_eq!(s.p50, 50.0); // nearest-rank: ceil(0.5 * 100) = rank 50
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn quantile_is_exact_on_small_ranks() {
        // Two observations: anything at or below 0.5 must pick the first.
        let c = Cdf::new(vec![10.0, 20.0]);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(0.5), 10.0);
        assert_eq!(c.quantile(0.51), 20.0);
        assert_eq!(c.quantile(1.0), 20.0);
        // The old round()-based interpolation returned 20.0 for q = 0.5
        // (round(0.5 * 1) rounds up), over-reporting the median.
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.quantile(0.5), 2.0);
        assert_eq!(c.quantile(0.75), 3.0);
        assert_eq!(c.quantile(0.76), 4.0);
    }

    #[test]
    fn latency_stats_single_observation() {
        let s = LatencyStats::from_cycles(&[42]);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (42.0, 42.0, 42.0, 42.0));
        assert_eq!(s.mean, 42.0);
        assert_eq!(LatencyStats::from_sample(&[42.0]), s);
    }

    #[test]
    fn throughput_counts_jobs_per_mcycle() {
        assert_eq!(throughput_per_mcycle(0, 0), 0.0);
        assert!((throughput_per_mcycle(8, 2_000_000) - 4.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    /// The nearest-rank quantile, spelled as the definition rather than an
    /// index formula: the first sorted element whose cumulative count
    /// reaches `q * n` (the minimum for `q = 0`). `None` on an empty
    /// sample — the oracle the service's percentile exports are fenced
    /// against.
    fn oracle_quantile(sample: &[f64], q: f64) -> Option<f64> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let idx = (0..n).find(|&i| (i + 1) as f64 / n as f64 >= q).unwrap_or(n - 1);
        Some(sorted[idx])
    }

    #[test]
    fn oracle_edge_cases() {
        assert_eq!(oracle_quantile(&[], 0.5), None);
        assert_eq!(oracle_quantile(&[3.0], 0.0), Some(3.0));
        assert_eq!(oracle_quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(oracle_quantile(&[2.0, 2.0, 2.0], 0.5), Some(2.0));
    }

    proptest! {
        #[test]
        fn prop_latency_percentiles_match_oracle(
            xs in proptest::collection::vec(0.0f64..1e6, 1..80),
        ) {
            let s = LatencyStats::from_sample(&xs);
            prop_assert_eq!(s.p50, oracle_quantile(&xs, 0.5).expect("non-empty"));
            prop_assert_eq!(s.p95, oracle_quantile(&xs, 0.95).expect("non-empty"));
            prop_assert_eq!(s.p99, oracle_quantile(&xs, 0.99).expect("non-empty"));
            prop_assert_eq!(s.max, oracle_quantile(&xs, 1.0).expect("non-empty"));
        }

        #[test]
        fn prop_all_equal_samples_collapse(x in -1e6f64..1e6, n in 1usize..40) {
            let s = LatencyStats::from_sample(&vec![x; n]);
            // Quantiles are observations, so they collapse exactly; the mean
            // only to summation rounding.
            prop_assert_eq!((s.p50, s.p95, s.p99, s.max), (x, x, x, x));
            prop_assert!((s.mean - x).abs() <= x.abs() * 1e-12);
        }

        #[test]
        fn prop_quantile_is_an_observation_and_covers(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..60),
            qp in 0u32..=1000,
        ) {
            let q = qp as f64 / 1000.0;
            let c = Cdf::new(xs.clone());
            let v = c.quantile(q);
            // Every quantile is an actual observation...
            prop_assert!(xs.contains(&v));
            // ...that covers at least fraction q of the sample...
            prop_assert!(c.fraction_at_or_below(v) >= q);
            // ...and is the smallest such observation.
            for &x in &xs {
                if x < v {
                    prop_assert!(c.fraction_at_or_below(x) < q);
                }
            }
        }

        #[test]
        fn prop_geomean_between_min_and_max(xs in proptest::collection::vec(0.01f64..100.0, 1..20)) {
            let g = geomean(&xs);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
        }

        #[test]
        fn prop_fairness_at_most_one(xs in proptest::collection::vec(0.1f64..10.0, 1..16)) {
            let f = fairness(&xs);
            prop_assert!(f <= 1.0 + 1e-12);
            // Eq. 1 can go negative only when sigma > mu; with positive
            // slowdowns sigma < mu * sqrt(n), so just check it is finite.
            prop_assert!(f.is_finite());
        }

        #[test]
        fn prop_fairness_is_scale_invariant(xs in proptest::collection::vec(0.1f64..10.0, 2..12), s in 0.5f64..5.0) {
            let scaled: Vec<f64> = xs.iter().map(|x| x * s).collect();
            prop_assert!((fairness(&xs) - fairness(&scaled)).abs() < 1e-9);
        }

        #[test]
        fn prop_cdf_fraction_monotone(xs in proptest::collection::vec(-100.0f64..100.0, 1..50), a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let c = Cdf::new(xs);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.fraction_at_or_below(lo) <= c.fraction_at_or_below(hi));
        }

        #[test]
        fn prop_moving_average_preserves_bounds(xs in proptest::collection::vec(0.0f64..10.0, 1..64), w in 1usize..10) {
            let ma = moving_average(&xs, w);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(ma.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
        }
    }
}
