//! The predictor interface and history-free baselines.

use adpf_desim::{SimDuration, SimTime};
use adpf_stats::Ewma;

/// A per-client model of future ad-slot demand.
///
/// The contract mirrors what a deployed client SDK can actually do: at each
/// sync it reports the slots shown since the previous sync
/// ([`SlotPredictor::observe`]); the server then asks how many slots to
/// expect until the next sync ([`SlotPredictor::predict`]).
///
/// Implementations must accept periods in non-decreasing time order; the
/// slot times passed to `observe` always fall inside the observed period.
pub trait SlotPredictor {
    /// Records the slots shown during `[period_start, period_end)`.
    fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]);

    /// Predicts the number of slots in `[now, now + horizon)`.
    ///
    /// Returns a non-negative real; callers round according to their own
    /// policy. Predictors with no history yet must return `0.0` (a cold
    /// client is never pre-sold).
    fn predict(&self, now: SimTime, horizon: SimDuration) -> f64;

    /// Unbiased estimate of the expected slots in `[now, now + horizon)`.
    ///
    /// [`SlotPredictor::predict`] may be deliberately conservative (it
    /// drives how much inventory is *sold*); this estimate drives
    /// *availability* when choosing replica holders, where bias in either
    /// direction misplaces insurance. Defaults to `predict`.
    fn expected_rate(&self, now: SimTime, horizon: SimDuration) -> f64 {
        self.predict(now, horizon)
    }

    /// Average number of slots a burst (app session) contributes.
    ///
    /// Availability models use this to convert expected slot counts into
    /// expected *session* counts: clustered slots make "at least one
    /// display" much rarer than independent slots would. Predictors that
    /// do not track session structure report `1.0` (no clustering).
    fn mean_session_slots(&self) -> f64 {
        1.0
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Identifies a predictor family plus its parameters; the configuration
/// currency used by the simulator and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// Always predicts zero (disables pre-selling).
    Zero,
    /// Long-run average rate.
    GlobalRate,
    /// Exponentially weighted per-period rate with the given alpha.
    Ewma(f64),
    /// Per-hour-of-day rates.
    TimeOfDay,
    /// Per-(day-of-week, hour) rates with time-of-day fallback.
    DayHour,
    /// Two-state (idle/active) Markov chain over observation periods.
    Markov,
    /// The given percentile of historical window demand.
    Quantile(f64),
    /// Session-structure model: low-quantile idle rate plus the expected
    /// remainder of the current session when one is live (the model the
    /// end-to-end system defaults to).
    SessionAware,
    /// Exact future knowledge (needs the user's slot times at build time).
    Oracle,
}

impl PredictorKind {
    /// Resolves a CLI predictor name (`session`, `day-hour`, `tod`,
    /// `markov`, `mean`, `oracle`, `zero`). The canonical name set shared
    /// by the `simulate` and `serve` binaries.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "session" => PredictorKind::SessionAware,
            "day-hour" => PredictorKind::DayHour,
            "tod" => PredictorKind::TimeOfDay,
            "markov" => PredictorKind::Markov,
            "mean" => PredictorKind::GlobalRate,
            "oracle" => PredictorKind::Oracle,
            "zero" => PredictorKind::Zero,
            other => return Err(format!("unknown predictor `{other}`")),
        })
    }

    /// Builds a predictor. `oracle_slots` is consulted only by
    /// [`PredictorKind::Oracle`]; pass the user's full slot-time series
    /// there (an empty slice yields an oracle that predicts zero).
    pub fn build(&self, oracle_slots: &[SimTime]) -> Box<dyn SlotPredictor> {
        match *self {
            PredictorKind::Zero => Box::new(ZeroPredictor),
            PredictorKind::GlobalRate => Box::new(GlobalRatePredictor::new()),
            PredictorKind::Ewma(alpha) => Box::new(EwmaPredictor::new(alpha)),
            PredictorKind::TimeOfDay => Box::new(crate::tod::TimeOfDayPredictor::new()),
            PredictorKind::DayHour => Box::new(crate::tod::DayHourPredictor::new()),
            PredictorKind::Markov => Box::new(crate::markov::MarkovPredictor::new()),
            PredictorKind::Quantile(q) => Box::new(crate::quantile::QuantilePredictor::new(q)),
            PredictorKind::SessionAware => {
                Box::new(crate::session::SessionAwarePredictor::default_config())
            }
            PredictorKind::Oracle => {
                Box::new(crate::oracle::OraclePredictor::new(oracle_slots.to_vec()))
            }
        }
    }

    /// Stable label for tables.
    pub fn label(&self) -> String {
        match self {
            PredictorKind::Zero => "zero".to_string(),
            PredictorKind::GlobalRate => "mean-rate".to_string(),
            PredictorKind::Ewma(a) => format!("ewma({a})"),
            PredictorKind::TimeOfDay => "time-of-day".to_string(),
            PredictorKind::DayHour => "day-hour".to_string(),
            PredictorKind::Markov => "markov".to_string(),
            PredictorKind::Quantile(q) => format!("quantile({q})"),
            PredictorKind::SessionAware => "session-aware".to_string(),
            PredictorKind::Oracle => "oracle".to_string(),
        }
    }
}

/// Predicts zero slots — the "never pre-sell" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ZeroPredictor;

impl SlotPredictor for ZeroPredictor {
    fn observe(&mut self, _start: SimTime, _end: SimTime, _slots: &[SimTime]) {}

    fn predict(&self, _now: SimTime, _horizon: SimDuration) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "zero"
    }
}

/// Long-run average slot rate over all observed time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GlobalRatePredictor {
    total_slots: u64,
    observed_ms: u64,
}

impl GlobalRatePredictor {
    /// Creates a predictor with no history.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Slots per millisecond observed so far.
    fn rate_per_ms(&self) -> f64 {
        if self.observed_ms == 0 {
            0.0
        } else {
            self.total_slots as f64 / self.observed_ms as f64
        }
    }
}

impl SlotPredictor for GlobalRatePredictor {
    fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]) {
        self.total_slots += slot_times.len() as u64;
        self.observed_ms += period_end.saturating_since(period_start).as_millis();
    }

    fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        self.rate_per_ms() * horizon.as_millis() as f64
    }

    fn name(&self) -> &'static str {
        "mean-rate"
    }
}

/// Exponentially weighted per-period rate.
///
/// Each observed period contributes its normalized rate (slots per hour);
/// prediction scales the smoothed rate by the horizon. Reacts faster than
/// [`GlobalRatePredictor`] to regime changes (vacation weeks, new apps) at
/// the cost of more variance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EwmaPredictor {
    rate_per_hour: Ewma,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with smoothing factor `alpha` in `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        Self {
            rate_per_hour: Ewma::new(alpha),
        }
    }
}

impl SlotPredictor for EwmaPredictor {
    fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]) {
        let hours = period_end.saturating_since(period_start).as_hours_f64();
        if hours > 0.0 {
            self.rate_per_hour.add(slot_times.len() as f64 / hours);
        }
    }

    fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        self.rate_per_hour.value_or(0.0) * horizon.as_hours_f64()
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration::from_hours(1);

    #[test]
    fn zero_predictor_is_always_zero() {
        let mut p = ZeroPredictor;
        p.observe(SimTime::ZERO, SimTime::from_hours(1), &[SimTime::ZERO; 100]);
        assert_eq!(p.predict(SimTime::from_hours(1), HOUR), 0.0);
    }

    #[test]
    fn cold_predictors_predict_zero() {
        for kind in [
            PredictorKind::GlobalRate,
            PredictorKind::Ewma(0.3),
            PredictorKind::TimeOfDay,
            PredictorKind::DayHour,
            PredictorKind::Markov,
            PredictorKind::Quantile(0.5),
            PredictorKind::SessionAware,
        ] {
            let p = kind.build(&[]);
            assert_eq!(
                p.predict(SimTime::from_hours(5), HOUR),
                0.0,
                "{} must start cold",
                p.name()
            );
        }
    }

    #[test]
    fn global_rate_extrapolates_linearly() {
        let mut p = GlobalRatePredictor::new();
        let slots = vec![SimTime::from_mins(1); 6];
        p.observe(SimTime::ZERO, SimTime::from_hours(2), &slots);
        // 6 slots over 2 h = 3 slots/h.
        assert!((p.predict(SimTime::from_hours(2), HOUR) - 3.0).abs() < 1e-9);
        assert!(
            (p.predict(SimTime::from_hours(2), SimDuration::from_hours(4)) - 12.0).abs() < 1e-9
        );
    }

    #[test]
    fn ewma_tracks_recent_rate() {
        let mut p = EwmaPredictor::new(0.5);
        // Old regime: 10 slots/hour. New regime: 0.
        p.observe(SimTime::ZERO, SimTime::from_hours(1), &[SimTime::ZERO; 10]);
        for k in 1..6 {
            p.observe(SimTime::from_hours(k), SimTime::from_hours(k + 1), &[]);
        }
        let pred = p.predict(SimTime::from_hours(6), HOUR);
        assert!(pred < 1.0, "EWMA should decay, got {pred}");

        let mut global = GlobalRatePredictor::new();
        global.observe(SimTime::ZERO, SimTime::from_hours(1), &[SimTime::ZERO; 10]);
        for k in 1..6 {
            global.observe(SimTime::from_hours(k), SimTime::from_hours(k + 1), &[]);
        }
        assert!(global.predict(SimTime::from_hours(6), HOUR) > pred);
    }

    #[test]
    fn zero_length_period_is_ignored() {
        let mut p = EwmaPredictor::new(0.5);
        p.observe(SimTime::ZERO, SimTime::ZERO, &[]);
        assert_eq!(p.predict(SimTime::ZERO, HOUR), 0.0);
        let mut g = GlobalRatePredictor::new();
        g.observe(SimTime::ZERO, SimTime::ZERO, &[]);
        assert_eq!(g.predict(SimTime::ZERO, HOUR), 0.0);
    }

    #[test]
    fn kind_labels_are_distinct() {
        let kinds = [
            PredictorKind::Zero,
            PredictorKind::GlobalRate,
            PredictorKind::Ewma(0.3),
            PredictorKind::TimeOfDay,
            PredictorKind::DayHour,
            PredictorKind::Markov,
            PredictorKind::Quantile(0.8),
            PredictorKind::SessionAware,
            PredictorKind::Oracle,
        ];
        let labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
