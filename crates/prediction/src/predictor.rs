//! The predictor type and the history-free baselines.

use adpf_desim::{SimDuration, SimTime};
use adpf_stats::Ewma;

use crate::markov::MarkovPredictor;
use crate::oracle::OraclePredictor;
use crate::quantile::QuantilePredictor;
use crate::session::SessionAwarePredictor;
use crate::tod::{DayHourPredictor, TimeOfDayPredictor};

/// A per-client model of future ad-slot demand, built by
/// [`PredictorKind::build`].
///
/// The contract mirrors what a deployed client SDK can actually do: at each
/// sync it reports the slots shown since the previous sync
/// ([`Predictor::observe`]); the server then asks how many slots to
/// expect until the next sync ([`Predictor::predict`]).
///
/// Periods must be observed in non-decreasing time order; the slot times
/// passed to `observe` always fall inside the observed period.
#[derive(Debug, Clone)]
pub struct Predictor(Model);

// One of these per client sits inline in the engine's client table:
// the session-aware model sets the size, and the day-hour one is boxed.
const _: () = assert!(std::mem::size_of::<Predictor>() <= 432);

/// One variant per family, its state inline.
#[derive(Debug, Clone)]
enum Model {
    Zero,
    GlobalRate(GlobalRatePredictor),
    Ewma(EwmaPredictor),
    TimeOfDay(TimeOfDayPredictor),
    /// Boxed: its 7 × 24 cells would otherwise set every client's size.
    DayHour(Box<DayHourPredictor>),
    Markov(MarkovPredictor),
    Quantile(QuantilePredictor),
    SessionAware(SessionAwarePredictor),
    /// Knows the future already, so observes nothing.
    Oracle(OraclePredictor),
}

impl Predictor {
    /// Records the slots shown during `[period_start, period_end)`.
    pub fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]) {
        match &mut self.0 {
            Model::Zero | Model::Oracle(_) => {}
            Model::GlobalRate(p) => p.observe(period_start, period_end, slot_times),
            Model::Ewma(p) => p.observe(period_start, period_end, slot_times),
            Model::TimeOfDay(p) => p.observe(period_start, period_end, slot_times),
            Model::DayHour(p) => p.observe(period_start, period_end, slot_times),
            Model::Markov(p) => p.observe(period_start, period_end, slot_times),
            Model::Quantile(p) => p.observe(period_start, period_end, slot_times),
            Model::SessionAware(p) => p.observe(period_start, period_end, slot_times),
        }
    }

    /// Predicts the number of slots in `[now, now + horizon)`.
    ///
    /// Returns a non-negative real; callers round according to their own
    /// policy. A predictor with no history yet returns `0.0` (a cold
    /// client is never pre-sold).
    pub fn predict(&self, now: SimTime, horizon: SimDuration) -> f64 {
        match &self.0 {
            Model::Zero => 0.0,
            Model::GlobalRate(p) => p.predict(now, horizon),
            Model::Ewma(p) => p.predict(now, horizon),
            Model::TimeOfDay(p) => p.predict(now, horizon),
            Model::DayHour(p) => p.predict(now, horizon),
            Model::Markov(p) => p.predict(now, horizon),
            Model::Quantile(p) => p.predict(now, horizon),
            Model::SessionAware(p) => p.predict(now, horizon),
            Model::Oracle(p) => p.predict(now, horizon),
        }
    }

    /// Unbiased estimate of the expected slots in `[now, now + horizon)`.
    ///
    /// [`Predictor::predict`] may be deliberately conservative (it drives
    /// how much inventory is *sold*); this estimate drives *availability*
    /// when choosing replica holders, where bias in either direction
    /// misplaces insurance. Families without a separate estimate answer
    /// `predict`.
    pub fn expected_rate(&self, now: SimTime, horizon: SimDuration) -> f64 {
        match &self.0 {
            Model::Quantile(p) => p.expected_rate(now, horizon),
            Model::SessionAware(p) => p.expected_rate(now, horizon),
            _ => self.predict(now, horizon),
        }
    }

    /// Average number of slots a burst (app session) contributes.
    ///
    /// Availability models use this to convert expected slot counts into
    /// expected *session* counts: clustered slots make "at least one
    /// display" much rarer than independent slots would. Families that do
    /// not track session structure report `1.0` (no clustering).
    pub fn mean_session_slots(&self) -> f64 {
        match &self.0 {
            Model::SessionAware(p) => p.mean_session_slots(),
            _ => 1.0,
        }
    }
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
    pub fn build(&self, oracle_slots: &[SimTime]) -> Predictor {
        Predictor(match *self {
            PredictorKind::Zero => Model::Zero,
            PredictorKind::GlobalRate => Model::GlobalRate(GlobalRatePredictor::default()),
            PredictorKind::Ewma(alpha) => Model::Ewma(EwmaPredictor::new(alpha)),
            PredictorKind::TimeOfDay => Model::TimeOfDay(TimeOfDayPredictor::default()),
            PredictorKind::DayHour => Model::DayHour(Box::default()),
            PredictorKind::Markov => Model::Markov(MarkovPredictor::default()),
            PredictorKind::Quantile(q) => Model::Quantile(QuantilePredictor::new(q)),
            PredictorKind::SessionAware => {
                Model::SessionAware(SessionAwarePredictor::default_config())
            }
            PredictorKind::Oracle => Model::Oracle(OraclePredictor::new(oracle_slots.to_vec())),
        })
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

/// Long-run average slot rate over all observed time.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalRatePredictor {
    total_slots: u64,
    observed_ms: u64,
}

impl GlobalRatePredictor {
    /// Slots per millisecond observed so far.
    fn rate_per_ms(&self) -> f64 {
        if self.observed_ms == 0 {
            0.0
        } else {
            self.total_slots as f64 / self.observed_ms as f64
        }
    }

    fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]) {
        self.total_slots += slot_times.len() as u64;
        self.observed_ms += period_end.saturating_since(period_start).as_millis();
    }

    fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        self.rate_per_ms() * horizon.as_millis() as f64
    }
}

/// Exponentially weighted per-period rate.
///
/// Each observed period contributes its normalized rate (slots per hour);
/// prediction scales the smoothed rate by the horizon. Reacts faster than
/// [`GlobalRatePredictor`] to regime changes (vacation weeks, new apps) at
/// the cost of more variance.
#[derive(Debug, Clone, Copy)]
struct EwmaPredictor {
    rate_per_hour: Ewma,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with smoothing factor `alpha` in `(0, 1]`.
    fn new(alpha: f64) -> Self {
        Self {
            rate_per_hour: Ewma::new(alpha),
        }
    }

    fn observe(&mut self, period_start: SimTime, period_end: SimTime, slot_times: &[SimTime]) {
        let hours = period_end.saturating_since(period_start).as_hours_f64();
        if hours > 0.0 {
            self.rate_per_hour.add(slot_times.len() as f64 / hours);
        }
    }

    fn predict(&self, _now: SimTime, horizon: SimDuration) -> f64 {
        self.rate_per_hour.value_or(0.0) * horizon.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration::from_hours(1);

    #[test]
    fn zero_predictor_is_always_zero() {
        let mut p = PredictorKind::Zero.build(&[]);
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
                kind.label()
            );
        }
    }

    #[test]
    fn global_rate_extrapolates_linearly() {
        let mut p = GlobalRatePredictor::default();
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

        let mut global = GlobalRatePredictor::default();
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
        let mut g = GlobalRatePredictor::default();
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
