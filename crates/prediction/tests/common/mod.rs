//! Shared by the prediction crate's integration tests.

use adpf_prediction::PredictorKind;

/// Every buildable predictor family, the quantile one at both ends of
/// its knob.
pub fn all_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Zero,
        PredictorKind::GlobalRate,
        PredictorKind::Ewma(0.3),
        PredictorKind::TimeOfDay,
        PredictorKind::DayHour,
        PredictorKind::Markov,
        PredictorKind::Quantile(0.25),
        PredictorKind::Quantile(0.95),
        PredictorKind::SessionAware,
        PredictorKind::Oracle,
    ]
}
