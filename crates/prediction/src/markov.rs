//! Two-state Markov activity model.

use adpf_desim::{SimDuration, SimTime};
use adpf_stats::Welford;

/// Predicts demand from a two-state (idle/active) Markov chain over
/// observation periods.
///
/// App usage is self-exciting at the hour scale: a user who was active in
/// the last period is far more likely to be active in the next one than
/// the population base rate suggests. The model tracks the idle↔active
/// transition matrix and the mean demand rate of active periods; the
/// prediction is `P(active next | current state) × E[rate | active] ×
/// horizon`. Compared to the diurnal models it has no clock, only
/// recency — the evaluation (E5/E12) shows what each signal is worth.
#[derive(Debug, Clone, Default)]
pub(crate) struct MarkovPredictor {
    /// `transitions[prev][next]` counts, with 0 = idle, 1 = active.
    transitions: [[u64; 2]; 2],
    /// Mean slots/hour across active periods.
    active_rate: Welford,
    /// Activity of the most recent observed period.
    prev_active: Option<bool>,
}

impl MarkovPredictor {
    /// `P(next period active | previous period state)`, with add-one
    /// smoothing so cold rows stay sane.
    fn p_active_given(&self, prev_active: bool) -> f64 {
        let row = &self.transitions[prev_active as usize];
        (row[1] as f64 + 1.0) / ((row[0] + row[1]) as f64 + 2.0)
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
        let active = !slot_times.is_empty();
        if let Some(prev) = self.prev_active {
            self.transitions[prev as usize][active as usize] += 1;
        }
        if active {
            self.active_rate.add(slot_times.len() as f64 / hours);
        }
        self.prev_active = Some(active);
    }

    pub(crate) fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        let Some(prev) = self.prev_active else {
            return 0.0; // Cold client: never pre-sell.
        };
        let p_active = self.p_active_given(prev);
        p_active * self.active_rate.mean() * horizon.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration::from_hours(1);

    /// Observes one period of `n` slots.
    fn feed(p: &mut MarkovPredictor, idx: u64, n: usize) {
        let start = SimTime::from_hours(idx);
        let slots = vec![start; n];
        p.observe(start, start + HOUR, &slots);
    }

    #[test]
    fn cold_predictor_is_zero() {
        let p = MarkovPredictor::default();
        assert_eq!(p.predict(SimTime::ZERO, HOUR), 0.0);
    }

    #[test]
    fn activity_raises_prediction() {
        let mut p = MarkovPredictor::default();
        // Alternate long idle stretches with short active bursts.
        for k in 0..100 {
            feed(&mut p, k, if k % 10 < 2 { 6 } else { 0 });
        }
        // After an idle period the prediction is low.
        let idle_pred = p.predict(SimTime::from_hours(100), HOUR);
        // Observe an active period: prediction jumps.
        feed(&mut p, 100, 6);
        let active_pred = p.predict(SimTime::from_hours(101), HOUR);
        assert!(
            active_pred > 2.0 * idle_pred,
            "active {active_pred} vs idle {idle_pred}"
        );
    }

    #[test]
    fn transition_probabilities_are_smoothed() {
        let mut p = MarkovPredictor::default();
        feed(&mut p, 0, 1);
        // One observation: both rows stay near 0.5 thanks to smoothing.
        assert!((p.p_active_given(true) - 0.5).abs() < 0.4);
        assert!((p.p_active_given(false) - 0.5).abs() < 0.4);
    }

    #[test]
    fn always_active_user_converges_to_rate() {
        let mut p = MarkovPredictor::default();
        for k in 0..200 {
            feed(&mut p, k, 4);
        }
        let pred = p.predict(SimTime::from_hours(200), HOUR);
        assert!((pred - 4.0).abs() < 0.2, "pred {pred}");
    }

    #[test]
    fn zero_length_periods_are_ignored() {
        let mut p = MarkovPredictor::default();
        p.observe(SimTime::ZERO, SimTime::ZERO, &[]);
        assert_eq!(p.predict(SimTime::ZERO, HOUR), 0.0);
    }
}
