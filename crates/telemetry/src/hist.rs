//! Log-scale histograms.
//!
//! Values are bucketed by their binary magnitude: bucket 0 holds exactly
//! the value 0, bucket `i` (1 ≤ i ≤ 64) holds values in
//! `[2^(i-1), 2^i - 1]`, so bucket 64 ends at `u64::MAX`. Sixty-five
//! buckets cover the whole `u64` range with no saturation and constant
//! memory, which is what a hot path wants from a distribution sketch.

/// Number of buckets (value 0 plus one per binary magnitude).
pub const N_BUCKETS: usize = 65;

/// A fixed-shape log-scale histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count per bucket.
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; N_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for a value.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive value range of bucket `i`.
    pub(crate) fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate value at quantile `q` (clamped to `[0, 1]`): the
    /// upper bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, refined by the recorded min/max so single-value
    /// histograms report exactly that value. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1).min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let (_, hi) = Self::bucket_range(i);
                // The bucket's observations are bounded by the recorded
                // max, so report the tighter of the two upper bounds.
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(index, low, high, count)` rows.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(usize, u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (i, lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        assert_eq!(Histogram::bucket_index(0), 0);
        let mut h = Histogram::new();
        h.observe(0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn u64_max_goes_to_last_bucket() {
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.max, u64::MAX);
        // A second MAX saturates the sum instead of wrapping.
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn power_of_two_boundaries() {
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn ranges_partition_u64() {
        // Each bucket's range starts where the previous ended + 1.
        let mut next = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(lo, next, "bucket {i} must start at {next}");
            assert!(hi >= lo);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket must end at u64::MAX");
        // Every value's bucket contains it.
        for v in [0, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = Histogram::bucket_range(Histogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
    }

    #[test]
    fn percentile_of_single_bucket_is_exact() {
        // All observations share one bucket; the recorded max tightens
        // the bucket bound down to the exact value.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.observe(9);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 9);
        }
        // A single zero observation reports zero.
        let mut z = Histogram::new();
        z.observe(0);
        assert_eq!(z.percentile(0.5), 0);
    }

    #[test]
    fn percentile_splits_two_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(10); // bucket [8, 15]
        }
        for _ in 0..10 {
            h.observe(1000); // bucket [512, 1023]
        }
        assert_eq!(h.percentile(0.5), 15);
        assert_eq!(h.percentile(0.9), 15);
        assert_eq!(h.percentile(0.95), 1000); // capped by max
        assert_eq!(h.percentile(1.0), 1000);
        // Quantiles outside [0, 1] clamp instead of panicking.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
    }

    #[test]
    fn stats_track_observations() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 15] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 30);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 15);
        assert!((h.mean() - 10.0).abs() < 1e-12);
        assert_eq!(h.nonzero_buckets().len(), 2); // 5 → [4,7]; 10 and 15 share [8,15]
    }
}
