//! Empirical cumulative distribution functions.

use crate::summary::quantile_sorted;

/// An empirical CDF built from a finite sample.
///
/// Evaluation uses the right-continuous step convention
/// `F(x) = |{ i : x_i <= x }| / n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample; non-finite values are dropped.
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        Self { sorted: xs }
    }

    /// Number of (finite) observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the ECDF holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `F(x)`; returns `0.0` for an empty ECDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Returns the `q`-quantile (with interpolation); `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Kolmogorov–Smirnov statistic between two ECDFs: the maximum absolute
    /// difference of the two step functions.
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        let mut max_diff: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            max_diff = max_diff.max((self.cdf(x) - other.cdf(x)).abs());
        }
        max_diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_steps_correctly() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(10.0), 1.0);
    }

    #[test]
    fn empty_ecdf() {
        let e = Ecdf::new(vec![f64::NAN]);
        assert!(e.is_empty());
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.quantile(0.5), 0.0);
    }

    #[test]
    fn ks_of_identical_samples_is_zero() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_statistic(&b), 0.0);
    }

    #[test]
    fn ks_of_disjoint_samples_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert!((a.ks_statistic(&b) - 1.0).abs() < 1e-12);
    }
}
