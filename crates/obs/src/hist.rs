//! Fixed log-linear-bucket histogram.
//!
//! Bucket `0` holds the value zero and buckets `1..=7` hold their own
//! value exactly; from 8 up, each power-of-two octave `[2^(b-1), 2^b)`
//! is split into 4 linear steps of width `2^(b-3)` (the two bits after
//! the leading one select the step). Quantile upper bounds are
//! therefore within 25% of the true sample value instead of within a
//! full power of two — enough resolution for latency percentiles to be
//! meaningful near saturation. The bucket array is a fixed
//! `[u64; 252]`, so recording is branch-light (a `leading_zeros`, two
//! shifts and an indexed add) and merging is a bucket-wise integer
//! sum — exactly associative and commutative, which is what the
//! registry's determinism guarantee rests on.

/// One bucket for zero, seven exact buckets for `1..=7`, then 4 linear
/// sub-buckets per octave for bit lengths `4..=64`: `8 + 61 * 4 = 252`.
pub(crate) const NUM_BUCKETS: usize = 252;

/// Fixed-size log-linear histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample: values below 8 index themselves;
    /// otherwise 4 sub-buckets per bit length, selected by the two bits
    /// after the leading one.
    #[inline]
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < 8 {
            value as usize
        } else {
            let b = (64 - value.leading_zeros()) as usize; // bit length, >= 4
            let sub = ((value >> (b - 3)) & 3) as usize;
            8 + (b - 4) * 4 + sub
        }
    }

    /// Inclusive upper bound of the values a bucket can hold.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index < 8 {
            index as u64
        } else {
            let b = 4 + (index - 8) / 4;
            let sub = ((index - 8) % 4) as u64;
            // For the very last bucket (b = 64, sub = 3) the exact bound
            // is 2^64 - 1; the wrapping ops land on u64::MAX.
            (1u64 << (b - 1))
                .wrapping_add((sub + 1) << (b - 3))
                .wrapping_sub(1)
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value` in one update.
    #[inline]
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket-wise sum; min/max/count/sum combine exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile sample
    /// (`q` in `[0, 1]`). A log-linear approximation: exact below 8 and
    /// within 25% of the true sample value above.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_exact_below_eight() {
        for v in 0..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_splits_octaves_in_four() {
        // Octave [8, 16): width-2 steps.
        assert_eq!(Histogram::bucket_index(8), 8);
        assert_eq!(Histogram::bucket_index(9), 8);
        assert_eq!(Histogram::bucket_index(10), 9);
        assert_eq!(Histogram::bucket_index(14), 11);
        assert_eq!(Histogram::bucket_index(15), 11);
        // Octave [256, 512): width-64 steps.
        assert_eq!(Histogram::bucket_index(256), 8 + 5 * 4);
        assert_eq!(Histogram::bucket_index(319), 8 + 5 * 4);
        assert_eq!(Histogram::bucket_index(320), 8 + 5 * 4 + 1);
        assert_eq!(Histogram::bucket_index(511), 8 + 5 * 4 + 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            7,
            8,
            9,
            10,
            15,
            16,
            100,
            1023,
            1024,
            32_767,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let b = Histogram::bucket_index(v);
            assert!(b < NUM_BUCKETS);
            assert!(v <= Histogram::bucket_upper_bound(b), "v={v} b={b}");
            if b > 0 {
                assert!(v > Histogram::bucket_upper_bound(b - 1), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn bounds_are_strictly_monotone() {
        for i in 1..NUM_BUCKETS {
            assert!(
                Histogram::bucket_upper_bound(i) > Histogram::bucket_upper_bound(i - 1),
                "bucket {i}"
            );
        }
        assert_eq!(Histogram::bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_within_a_quarter() {
        // The defining property of the 4-steps-per-octave layout: the
        // bucket upper bound never overstates a sample by more than 25%.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for x in [v, v + v / 3, v + v / 2] {
                let bound = Histogram::bucket_upper_bound(Histogram::bucket_index(x));
                assert!(bound >= x);
                assert!(bound - x <= x / 4 + 1, "x={x} bound={bound}");
            }
            v = v.wrapping_mul(3) + 1;
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        h.record_n(7, 3);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 2 + 3 + 100 + 21);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 127.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn record_n_zero_is_a_noop() {
        let mut h = Histogram::new();
        h.record_n(42, 0);
        assert_eq!(h, Histogram::new());
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (i, v) in [0u64, 1, 5, 9, 1000, 65_536, 3].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            whole.record(*v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // And the other order.
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, whole);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [10, 11], bound 11
        }
        h.record(1_000_000);
        assert_eq!(h.quantile_upper_bound(0.5), 11);
        assert_eq!(h.quantile_upper_bound(0.99), 11);
        assert_eq!(h.quantile_upper_bound(1.0), 1_000_000); // capped at max
    }

    #[test]
    fn saturation_median_resolves_below_a_power_of_two() {
        // The regression this layout fixes: a pile of ~20k-us latencies
        // used to report p50 = 32767 (the whole [16384, 32768) octave).
        let mut h = Histogram::new();
        for v in [20_000u64, 21_000, 22_000, 23_000] {
            h.record_n(v, 25);
        }
        let p50 = h.quantile_upper_bound(0.5);
        assert!(p50 < 24_576, "p50={p50} should resolve sub-octave");
        assert!(p50 >= 21_000);
    }
}
