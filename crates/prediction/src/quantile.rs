//! Percentile-targeted demand prediction.

use adpf_desim::{SimDuration, SimTime};

use crate::history::RateHistory;

/// Predicts a chosen percentile of the historical per-period demand rate.
///
/// Where the mean-style predictors answer "how many slots do I *expect*?",
/// this one answers "how many slots can I count on with probability `1-q`
/// of over-predicting?" — the knob the paper turns to trade revenue
/// (selling more future slots) against SLA risk (selling slots that never
/// materialize). `q = 0.5` tracks the median; low `q` is conservative
/// (rarely over-predicts), high `q` is aggressive.
#[derive(Debug, Clone)]
pub(crate) struct QuantilePredictor {
    q: f64,
    /// Normalized demand rates (slots per hour) of past periods.
    rates: RateHistory,
    /// Quantile and arrival-order mean of `rates`, recomputed on
    /// observation: `predict` and `expected_rate` are called far more
    /// often than `observe` (once per replication candidate).
    cached_rate: f64,
    cached_mean: f64,
}

impl QuantilePredictor {
    /// Creates a predictor targeting quantile `q` (clamped into `[0, 1]`).
    pub(crate) fn new(q: f64) -> Self {
        Self {
            q: q.clamp(0.0, 1.0),
            rates: RateHistory::default(),
            cached_rate: 0.0,
            cached_mean: 0.0,
        }
    }

    pub(crate) fn observe(
        &mut self,
        period_start: SimTime,
        period_end: SimTime,
        slot_times: &[SimTime],
    ) {
        let hours = period_end.saturating_since(period_start).as_hours_f64();
        if hours <= 0.0 {
            return;
        }
        self.rates.push(slot_times.len() as f64 / hours);
        self.cached_rate = self.rates.quantile(self.q);
        self.cached_mean = self.rates.mean();
    }

    pub(crate) fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.cached_rate * horizon.as_hours_f64()
    }

    pub(crate) fn expected_rate(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        // Unbiased availability estimate: the mean rate, regardless of the
        // selling quantile.
        if self.rates.is_empty() {
            return 0.0;
        }
        self.cached_mean * horizon.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut QuantilePredictor, rates_per_hour: &[usize]) {
        for (i, &n) in rates_per_hour.iter().enumerate() {
            let start = SimTime::from_hours(i as u64);
            let end = start + SimDuration::from_hours(1);
            p.observe(start, end, &vec![start; n]);
        }
    }

    #[test]
    fn median_of_alternating_demand() {
        let mut p = QuantilePredictor::new(0.5);
        feed(&mut p, &[0, 10, 0, 10, 0, 10, 0, 10]);
        let pred = p.predict(SimTime::from_hours(8), SimDuration::from_hours(1));
        // Median of {0,10} repeated is 5 (interpolated).
        assert!((pred - 5.0).abs() < 1e-9, "pred {pred}");
    }

    #[test]
    fn low_quantile_is_conservative_high_is_aggressive() {
        let rates = [0, 0, 0, 2, 2, 4, 8, 20];
        let mut lo = QuantilePredictor::new(0.1);
        let mut hi = QuantilePredictor::new(0.9);
        feed(&mut lo, &rates);
        feed(&mut hi, &rates);
        let h = SimDuration::from_hours(1);
        let now = SimTime::from_hours(8);
        assert!(lo.predict(now, h) < hi.predict(now, h));
        assert!(lo.predict(now, h) < 1.0);
        assert!(hi.predict(now, h) > 7.0);
    }

    #[test]
    fn scales_with_horizon() {
        let mut p = QuantilePredictor::new(0.5);
        feed(&mut p, &[4, 4, 4, 4]);
        let one = p.predict(SimTime::from_hours(4), SimDuration::from_hours(1));
        let three = p.predict(SimTime::from_hours(4), SimDuration::from_hours(3));
        assert!((three - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn q_is_clamped() {
        assert_eq!(QuantilePredictor::new(5.0).q, 1.0);
        assert_eq!(QuantilePredictor::new(-2.0).q, 0.0);
    }

    #[test]
    fn history_is_bounded() {
        let mut p = QuantilePredictor::new(1.0);
        // One early burst, then a long quiet stretch exceeding the history
        // bound: the burst must age out.
        feed(&mut p, &[1000]);
        for i in 0..RateHistory::MAX_LEN {
            let start = SimTime::from_hours(1 + i as u64);
            p.observe(start, start + SimDuration::from_hours(1), &[]);
        }
        let pred = p.predict(SimTime::from_hours(600), SimDuration::from_hours(1));
        assert_eq!(pred, 0.0);
    }

    #[test]
    fn zero_length_periods_ignored() {
        let mut p = QuantilePredictor::new(0.5);
        p.observe(SimTime::ZERO, SimTime::ZERO, &[]);
        assert_eq!(p.predict(SimTime::ZERO, SimDuration::from_hours(1)), 0.0);
    }
}
