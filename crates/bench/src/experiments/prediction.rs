//! E5–E6: offline prediction accuracy.

use adpf_desim::{SimDuration, SimTime};
use adpf_prediction::{evaluate_predictor, PredictorKind};
use adpf_stats::Ecdf;

use crate::scale::Scale;
use crate::table::{f, pct, Table};

const REFRESH: SimDuration = SimDuration::from_secs(30);

fn predictors() -> Vec<PredictorKind> {
    vec![
        PredictorKind::GlobalRate,
        PredictorKind::Ewma(0.3),
        PredictorKind::TimeOfDay,
        PredictorKind::DayHour,
        PredictorKind::Markov,
        PredictorKind::Quantile(0.5),
        PredictorKind::SessionAware,
        PredictorKind::Oracle,
    ]
}

/// E5: over/under-prediction versus prediction-window length, per
/// predictor family.
pub(crate) fn e5_accuracy_by_window(scale: Scale) -> Table {
    let trace = scale.iphone(42).generate();
    let users = trace.slots_by_user(REFRESH);
    let horizon = trace.horizon();
    let warmup = SimTime::from_days(scale.warmup_days());

    let mut table = Table::new(
        "E5",
        "slot-demand prediction accuracy by window length",
        "diurnal models beat flat rates; longer windows are easier; the knob trades over- for under-prediction",
        &["predictor", "window h", "over", "under", "exact", "MAE", "bias"],
    );
    for kind in predictors() {
        for window_h in [1u64, 2, 4, 8, 12, 24] {
            let r = evaluate_predictor(
                &users,
                horizon,
                SimDuration::from_hours(window_h),
                warmup,
                kind,
            );
            table.push(vec![
                kind.label(),
                window_h.to_string(),
                pct(r.over_rate),
                pct(r.under_rate),
                pct(r.exact_rate),
                f(r.mean_abs_err, 2),
                f(r.bias(), 2),
            ]);
        }
    }
    table
}

/// E6: CDF of normalized prediction error for the session-aware and
/// day-hour models at several windows.
pub(crate) fn e6_error_cdf(scale: Scale) -> Table {
    let trace = scale.iphone(42).generate();
    let users = trace.slots_by_user(REFRESH);
    let horizon = trace.horizon();
    let warmup = SimTime::from_days(scale.warmup_days());

    let mut table = Table::new(
        "E6",
        "CDF of normalized prediction error (pred - actual) / max(actual, 1)",
        "errors concentrate near zero; the tails drive overbooking and fallbacks",
        &["predictor", "window h", "p10", "p25", "p50", "p75", "p90"],
    );
    for kind in [PredictorKind::DayHour, PredictorKind::SessionAware] {
        for window_h in [2u64, 8, 24] {
            let r = evaluate_predictor(
                &users,
                horizon,
                SimDuration::from_hours(window_h),
                warmup,
                kind,
            );
            let e = Ecdf::new(r.norm_errors);
            table.push(vec![
                kind.label(),
                window_h.to_string(),
                f(e.quantile(0.10), 2),
                f(e.quantile(0.25), 2),
                f(e.quantile(0.50), 2),
                f(e.quantile(0.75), 2),
                f(e.quantile(0.90), 2),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_oracle_dominates_and_rates_sum_to_one() {
        let t = e5_accuracy_by_window(Scale::Micro);
        assert_eq!(t.rows.len(), 8 * 6);
        for row in &t.rows {
            let over: f64 = row[2].to_string().trim_end_matches('%').parse().unwrap();
            let under: f64 = row[3].to_string().trim_end_matches('%').parse().unwrap();
            let exact: f64 = row[4].to_string().trim_end_matches('%').parse().unwrap();
            assert!((over + under + exact - 100.0).abs() < 0.2, "{row:?}");
        }
        let oracle_rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "oracle").collect();
        for r in oracle_rows {
            let exact: f64 = r[4].to_string().trim_end_matches('%').parse().unwrap();
            assert!(exact > 99.9, "oracle exact {exact}");
        }
    }

    #[test]
    fn e6_quantiles_are_monotone() {
        let t = e6_error_cdf(Scale::Micro);
        for row in &t.rows {
            let qs: Vec<f64> = row[2..]
                .iter()
                .map(|c| c.to_string().parse().unwrap())
                .collect();
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{row:?}");
        }
    }
}
