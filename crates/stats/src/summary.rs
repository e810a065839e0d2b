//! Descriptive statistics over slices of `f64`.

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean; `0.0` for an empty sample.
    pub mean: f64,
    /// Population standard deviation; `0.0` for fewer than two observations.
    pub std_dev: f64,
    /// Smallest observation; `0.0` for an empty sample.
    pub min: f64,
    /// Largest observation; `0.0` for an empty sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics for `xs`.
    ///
    /// Non-finite values are ignored. An empty (or all-non-finite) input
    /// yields an all-zero summary with `count == 0`.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        if sorted.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile_sorted(&sorted, 0.5),
            p90: quantile_sorted(&sorted, 0.9),
            p99: quantile_sorted(&sorted, 0.99),
        }
    }
}

/// Returns the `q`-quantile of an **ascending-sorted** slice using linear
/// interpolation between order statistics.
///
/// `q` is clamped to `[0, 1]`. Returns `0.0` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_by(sorted.len(), q, |rank| sorted[rank])
}

/// [`quantile_sorted`] over `len` values held in any layout: `at(rank)`
/// returns the `rank`-th smallest (0-based), and is asked only for the
/// one or two ranks the interpolation needs.
pub fn quantile_by(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Returns the `q`-quantile of an arbitrary slice (sorts a copy).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    quantile_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::from_slice(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 40.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
        // Quantile clamps out-of-range q.
        assert!((quantile(&xs, 2.0) - 40.0).abs() < 1e-12);
        assert!((quantile(&xs, -1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.37), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
