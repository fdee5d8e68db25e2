//! Power-of-two-bucket latency histograms.

/// A log2-bucket histogram of `u64` samples (latencies, depths).
///
/// Bucket *i* holds samples whose bit length is *i*: bucket 0 is exactly
/// `{0}`, bucket 1 is `{1}`, bucket 2 is `{2, 3}`, bucket 3 is `{4..=7}`,
/// and so on. Recording is O(1) and the memory footprint is bounded by 65
/// counters, so the probe can histogram every DRAM transaction and
/// page-table walk of a run without touching the allocator in steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl Histogram {
    /// Bucket index of `v` (its bit length).
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = Histogram::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample (0 when empty). Exact — tracked per sample, not
    /// reconstructed from the log2 buckets — so analytical lower bounds
    /// (e.g. a walk can never beat `levels * (CL + burst)`) can be checked
    /// without slack.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Raw bucket counters; index = bit length of the samples it holds.
    /// Trailing empty buckets are not materialized.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive `(lo, hi)` sample range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            return (0, 0);
        }
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }

    /// Serialize the histogram's full state.
    pub fn save_state(&self, w: &mut mnpu_snapshot::Writer) {
        w.seq(&self.buckets, |w, &b| w.u64(b));
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.max);
        w.u64(self.min);
    }

    /// Restore a histogram saved by [`Histogram::save_state`].
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is truncated.
    pub fn load_state(
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<Histogram, mnpu_snapshot::SnapError> {
        Ok(Histogram {
            buckets: r.seq(|r| r.u64())?,
            count: r.u64()?,
            sum: r.u64()?,
            max: r.u64()?,
            min: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_partition_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), &[1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.min(), 0);
        assert_eq!(h.sum(), 1049);
    }

    #[test]
    fn min_tracks_smallest_sample_exactly() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), 0, "empty histogram reports 0");
        h.record(37);
        assert_eq!(h.min(), 37);
        h.record(5);
        h.record(900);
        assert_eq!(h.min(), 5);
    }

    #[test]
    fn bounds_cover_each_bucket() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
    }

    proptest! {
        #[test]
        fn prop_every_sample_lands_in_its_bounds(vs in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
            let mut h = Histogram::default();
            for &v in &vs {
                h.record(v);
            }
            prop_assert_eq!(h.count(), vs.len() as u64);
            prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), vs.len() as u64);
            for &v in &vs {
                let i = (64 - v.leading_zeros()) as usize;
                let (lo, hi) = Histogram::bucket_bounds(i);
                prop_assert!(v >= lo && v <= hi);
            }
        }
    }
}
