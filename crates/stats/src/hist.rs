//! Fixed-bin histograms and periodic (hour-of-day) profiles.

/// A histogram over `[lo, hi)` with equally sized bins.
///
/// Values below `lo` land in the first bin; values at or above `hi` land in
/// the last bin, so the histogram never drops observations (the figure
/// harness relies on totals being conserved).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`, which is always a programming
    /// error in the callers of this crate.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram needs hi > lo");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        let idx = self.bin_index(x);
        self.counts[idx] += 1;
    }

    fn bin_index(&self, x: f64) -> usize {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let raw = ((x - self.lo) / w).floor();
        if raw < 0.0 {
            0
        } else {
            (raw as usize).min(self.counts.len() - 1)
        }
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Iterates `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c))
    }
}

/// A 24-slot hour-of-day profile accumulating weights per hour.
///
/// Used to characterize diurnal patterns in the usage traces and as the
/// backing store of the time-of-day predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HourProfile {
    weights: [f64; 24],
}

impl Default for HourProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl HourProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self { weights: [0.0; 24] }
    }

    /// Adds `weight` to the given hour (wrapped modulo 24).
    pub fn add(&mut self, hour: u32, weight: f64) {
        self.weights[(hour % 24) as usize] += weight;
    }

    /// Raw weight of an hour.
    pub fn weight(&self, hour: u32) -> f64 {
        self.weights[(hour % 24) as usize]
    }

    /// Total weight across all hours.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Fraction of total weight in the given hour; `0.0` when empty.
    pub fn fraction(&self, hour: u32) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.weight(hour) / total
        }
    }

    /// Hour with the largest weight (ties resolve to the earliest hour).
    pub fn peak_hour(&self) -> u32 {
        let mut best = 0;
        for h in 1..24 {
            if self.weights[h] > self.weights[best] {
                best = h;
            }
        }
        best as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_values() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0);
        h.add(1.9);
        h.add(2.0);
        h.add(9.99);
        h.add(10.0); // Clamped into last bin.
        h.add(-5.0); // Clamped into first bin.
        assert_eq!(h.counts(), &[3, 1, 0, 0, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn hour_profile_basics() {
        let mut p = HourProfile::new();
        p.add(9, 2.0);
        p.add(21, 6.0);
        p.add(33, 1.0); // Wraps to hour 9.
        assert_eq!(p.weight(9), 3.0);
        assert_eq!(p.peak_hour(), 21);
        assert!((p.fraction(21) - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hour_profile_is_safe() {
        let p = HourProfile::new();
        assert_eq!(p.fraction(3), 0.0);
        assert_eq!(p.peak_hour(), 0);
    }
}
