//! Online (streaming) statistics.

/// Welford's online mean.
///
/// Numerically stable and O(1) per update; used by predictors that must keep
/// per-user statistics over long traces without buffering them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` — a programming error.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Feeds one observation; the first observation initializes the average.
    pub fn add(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.add(1.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut empty = Welford::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(9.0), 9.0);
        for _ in 0..64 {
            e.add(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_alpha_one_tracks_last() {
        let mut e = Ewma::new(1.0);
        e.add(1.0);
        e.add(42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}
