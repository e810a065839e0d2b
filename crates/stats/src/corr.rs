//! Correlation measures used when characterizing trace predictability.

/// Pearson correlation coefficient between two equally long series.
///
/// Returns `0.0` if the series differ in length, are shorter than two
/// elements, or either has zero variance.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Autocorrelation of `xs` at the given `lag`.
///
/// Returns `0.0` when the lag leaves fewer than two overlapping points.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if lag >= xs.len() {
        return 0.0;
    }
    pearson(&xs[..xs.len() - lag], &xs[lag..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_zero() {
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        // Period-4 signal: autocorrelation at lag 4 is 1, at lag 2 is -1.
        let xs: Vec<f64> = (0..64)
            .map(|i| if i % 4 < 2 { 1.0 } else { -1.0 })
            .collect();
        assert!((autocorrelation(&xs, 4) - 1.0).abs() < 1e-9);
        assert!((autocorrelation(&xs, 2) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn autocorrelation_lag_out_of_range() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 2), 0.0);
        assert_eq!(autocorrelation(&[], 0), 0.0);
    }
}
