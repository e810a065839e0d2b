//! Offline prediction-accuracy evaluation (experiments E5/E6).

use adpf_desim::{SimDuration, SimTime};

use crate::predictor::PredictorKind;

/// Accuracy report for one predictor at one prediction horizon.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Prediction window length.
    pub horizon: SimDuration,
    /// Number of evaluated (user, window) pairs.
    pub windows: usize,
    /// Fraction of windows where the rounded prediction exceeded demand.
    pub over_rate: f64,
    /// Fraction of windows where the rounded prediction fell short.
    pub under_rate: f64,
    /// Fraction of windows predicted exactly (after rounding).
    pub exact_rate: f64,
    /// Mean absolute error in slots.
    pub mean_abs_err: f64,
    /// Root-mean-square error in slots.
    pub rmse: f64,
    /// Sum of raw (unrounded) predictions.
    pub total_predicted: f64,
    /// Sum of actual slot counts.
    pub total_actual: u64,
    /// Per-window normalized errors `(pred - actual) / max(actual, 1)`,
    /// for error-CDF figures.
    pub norm_errors: Vec<f64>,
}

impl EvalReport {
    /// Aggregate bias: `total_predicted / total_actual` (1.0 is unbiased);
    /// `0.0` when nothing actually happened.
    pub fn bias(&self) -> f64 {
        if self.total_actual == 0 {
            0.0
        } else {
            self.total_predicted / self.total_actual as f64
        }
    }
}

/// Evaluates a predictor family over a population of per-user slot series.
///
/// For every user, time is cut into consecutive windows of length `window`
/// over `[0, horizon_end)`. Windows starting before `warmup` only train the
/// predictor; later windows are predicted first, then observed — exactly the
/// online regime of the deployed system.
///
/// `kind` builds one predictor per user from the user's full slot series
/// (consumed only by the oracle).
pub fn evaluate_predictor(
    users_slots: &[Vec<SimTime>],
    horizon_end: SimTime,
    window: SimDuration,
    warmup: SimTime,
    kind: PredictorKind,
) -> EvalReport {
    assert!(!window.is_zero(), "evaluation window must be positive");
    let mut windows = 0usize;
    let mut over = 0usize;
    let mut under = 0usize;
    let mut exact = 0usize;
    let mut abs_err = 0.0f64;
    let mut sq_err = 0.0f64;
    let mut total_predicted = 0.0f64;
    let mut total_actual = 0u64;
    let mut norm_errors = Vec::new();

    for slots in users_slots {
        let mut predictor = kind.build(slots);
        let mut idx = 0usize; // Cursor into the sorted slot series.
        let mut start = SimTime::ZERO;
        while start < horizon_end {
            let end = (start + window).min(horizon_end);
            // Count slots in [start, end).
            let begin_idx = idx;
            while idx < slots.len() && slots[idx] < end {
                idx += 1;
            }
            let in_window = &slots[begin_idx..idx];
            let actual = in_window.len() as u32;

            if start >= warmup {
                let pred = predictor.predict(start, end.saturating_since(start));
                debug_assert!(pred >= 0.0, "predictions must be non-negative");
                let rounded = pred.round() as i64;
                windows += 1;
                match rounded.cmp(&(actual as i64)) {
                    core::cmp::Ordering::Greater => over += 1,
                    core::cmp::Ordering::Less => under += 1,
                    core::cmp::Ordering::Equal => exact += 1,
                }
                let err = pred - actual as f64;
                abs_err += err.abs();
                sq_err += err * err;
                total_predicted += pred;
                total_actual += actual as u64;
                norm_errors.push(err / (actual as f64).max(1.0));
            }
            predictor.observe(start, end, in_window);
            start = end;
        }
    }

    let denom = windows.max(1) as f64;
    EvalReport {
        horizon: window,
        windows,
        over_rate: over as f64 / denom,
        under_rate: under as f64 / denom,
        exact_rate: exact as f64 / denom,
        mean_abs_err: abs_err / denom,
        rmse: (sq_err / denom).sqrt(),
        total_predicted,
        total_actual,
        norm_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A user with exactly `k` slots in hour `h` of every day.
    fn periodic_user(days: u64, hour: u64, k: usize) -> Vec<SimTime> {
        let mut out = Vec::new();
        for d in 0..days {
            for j in 0..k {
                out.push(
                    SimTime::from_days(d)
                        + SimDuration::from_hours(hour)
                        + SimDuration::from_mins(j as u64),
                );
            }
        }
        out
    }

    #[test]
    fn oracle_is_perfect() {
        let users = vec![periodic_user(10, 9, 3), periodic_user(10, 20, 5)];
        let r = evaluate_predictor(
            &users,
            SimTime::from_days(10),
            SimDuration::from_hours(4),
            SimTime::from_days(2),
            PredictorKind::Oracle,
        );
        assert_eq!(r.exact_rate, 1.0);
        assert_eq!(r.over_rate, 0.0);
        assert_eq!(r.under_rate, 0.0);
        assert!((r.bias() - 1.0).abs() < 1e-9);
        assert_eq!(r.mean_abs_err, 0.0);
    }

    #[test]
    fn tod_beats_global_rate_on_diurnal_demand() {
        let users: Vec<Vec<SimTime>> = (0..20).map(|u| periodic_user(14, 8 + u % 3, 4)).collect();
        let horizon = SimTime::from_days(14);
        let window = SimDuration::from_hours(2);
        let warmup = SimTime::from_days(7);
        let tod = evaluate_predictor(&users, horizon, window, warmup, PredictorKind::TimeOfDay);
        let global = evaluate_predictor(&users, horizon, window, warmup, PredictorKind::GlobalRate);
        assert!(
            tod.mean_abs_err < global.mean_abs_err,
            "tod {} vs global {}",
            tod.mean_abs_err,
            global.mean_abs_err
        );
    }

    #[test]
    fn zero_predictor_always_underpredicts_active_users() {
        let users = vec![periodic_user(4, 10, 2)];
        let r = evaluate_predictor(
            &users,
            SimTime::from_days(4),
            SimDuration::from_days(1),
            SimTime::from_days(1),
            PredictorKind::Zero,
        );
        assert_eq!(r.windows, 3);
        assert_eq!(r.under_rate, 1.0);
        assert_eq!(r.bias(), 0.0);
    }

    #[test]
    fn quantile_knob_moves_over_under_balance() {
        let users: Vec<Vec<SimTime>> = (0..10).map(|_| periodic_user(20, 12, 3)).collect();
        let horizon = SimTime::from_days(20);
        let window = SimDuration::from_hours(6);
        let warmup = SimTime::from_days(5);
        let lo = evaluate_predictor(
            &users,
            horizon,
            window,
            warmup,
            PredictorKind::Quantile(0.05),
        );
        let hi = evaluate_predictor(
            &users,
            horizon,
            window,
            warmup,
            PredictorKind::Quantile(0.95),
        );
        assert!(lo.over_rate <= hi.over_rate, "lo {lo:?} hi {hi:?}");
        assert!(lo.bias() <= hi.bias());
    }

    #[test]
    fn empty_population_yields_empty_report() {
        let r = evaluate_predictor(
            &[],
            SimTime::from_days(1),
            SimDuration::from_hours(1),
            SimTime::ZERO,
            PredictorKind::GlobalRate,
        );
        assert_eq!(r.windows, 0);
        assert_eq!(r.bias(), 0.0);
    }

    #[test]
    fn norm_errors_match_window_count() {
        let users = vec![periodic_user(6, 9, 1)];
        let r = evaluate_predictor(
            &users,
            SimTime::from_days(6),
            SimDuration::from_days(1),
            SimTime::from_days(2),
            PredictorKind::GlobalRate,
        );
        assert_eq!(r.norm_errors.len(), r.windows);
        assert_eq!(r.windows, 4);
    }
}
