//! Cold-start hardening: regression tests for the zero-history regime.
//!
//! The scenario suite's churn layer drops users into the simulation
//! mid-trace with *no* predictor history (`adpf_core::scenario`), which makes
//! the cold paths load-bearing: a predictor that divides by an empty
//! history or feeds NaN into the planner corrupts every downstream
//! energy and revenue number without crashing. These tests pin the
//! contract: zero history yields finite, non-negative, zero-valued
//! predictions, and a user whose first-ever event lands mid-day (not on
//! a period boundary) reconciles cleanly.

mod common;

use adpf_desim::{SimDuration, SimTime};
use adpf_prediction::PredictorKind;
use common::all_kinds;

fn assert_sane(value: f64, what: &str, name: &str) {
    assert!(
        value.is_finite() && value >= 0.0,
        "{name}: {what} = {value} must be finite and non-negative"
    );
}

#[test]
fn zero_history_predictions_are_finite_and_zero() {
    let probes = [
        (SimTime::ZERO, SimDuration::from_millis(1)),
        (SimTime::ZERO, SimDuration::from_hours(2)),
        (SimTime::from_days(3), SimDuration::from_hours(12)),
        (SimTime::from_days(400), SimDuration::from_days(28)),
    ];
    for kind in all_kinds() {
        let p = kind.build(&[]);
        for (now, horizon) in probes {
            assert_sane(p.predict(now, horizon), "predict", &kind.label());
            assert_sane(
                p.expected_rate(now, horizon),
                "expected_rate",
                &kind.label(),
            );
            assert_eq!(
                p.predict(now, horizon),
                0.0,
                "{}: a cold client is never pre-sold",
                &kind.label()
            );
        }
        let mss = p.mean_session_slots();
        assert!(
            mss.is_finite() && mss >= 1.0,
            "{}: mean_session_slots {mss} must be finite and at least one slot",
            &kind.label()
        );
    }
}

#[test]
fn empty_and_degenerate_periods_keep_quantiles_finite() {
    // A user who is installed but never opens an app: day after day of
    // zero-slot periods, plus zero-length periods (back-to-back syncs).
    // The idle-quantile machinery must keep producing 0.0, never NaN
    // (an empty or all-zero rate history is where a naive quantile
    // divides by zero).
    for kind in all_kinds() {
        let mut p = kind.build(&[]);
        for day in 0..30u64 {
            let start = SimTime::from_days(day);
            p.observe(start, start + SimDuration::from_days(1), &[]);
            let t = start + SimDuration::from_days(1);
            p.observe(t, t, &[]); // zero-length period
        }
        let now = SimTime::from_days(30);
        for horizon in [SimDuration::from_hours(2), SimDuration::from_days(7)] {
            let pred = p.predict(now, horizon);
            assert_sane(pred, "predict after empty history", &kind.label());
            assert_eq!(
                pred,
                0.0,
                "{}: all-idle history sells nothing",
                &kind.label()
            );
            assert_sane(
                p.expected_rate(now, horizon),
                "expected_rate after empty history",
                &kind.label(),
            );
        }
    }
}

#[test]
fn mid_day_first_event_reconciles_cleanly() {
    // The churn arrival shape: the user's first observation period opens
    // mid-afternoon (not midnight, not a period boundary multiple), and
    // the first-ever slot lands inside it. Every predictor must absorb
    // the ragged first period and produce finite, non-negative
    // predictions immediately after — this is exactly the state a
    // mid-trace arrival presents to the engine's first sync.
    let arrive = SimTime::from_days(2) + SimDuration::from_mins(13 * 60 + 37);
    let first_sync = arrive + SimDuration::from_mins(47);
    let slots = [
        arrive + SimDuration::from_mins(5),
        arrive + SimDuration::from_mins(5) + SimDuration::from_secs(30),
        arrive + SimDuration::from_mins(5) + SimDuration::from_secs(60),
    ];
    for kind in all_kinds() {
        let mut p = kind.build(&slots);
        p.observe(arrive, first_sync, &slots);
        for horizon in [SimDuration::from_mins(30), SimDuration::from_hours(12)] {
            assert_sane(p.predict(first_sync, horizon), "predict", &kind.label());
            assert_sane(
                p.expected_rate(first_sync, horizon),
                "expected_rate",
                &kind.label(),
            );
        }
        assert_sane(p.mean_session_slots(), "mean_session_slots", &kind.label());

        // The next period opens where the last closed; a long silent
        // gap after the burst must decay, not corrupt, the state.
        let later = first_sync + SimDuration::from_hours(9);
        p.observe(first_sync, later, &[]);
        let pred = p.predict(later, SimDuration::from_hours(2));
        assert_sane(pred, "predict after gap", &kind.label());
    }
}

#[test]
fn session_predictor_rides_the_mid_day_session() {
    // Sharper check for the system's default predictor: observing a
    // live mid-day session with no prior history must (a) stay finite
    // and (b) predict a session remainder, because the engine tops up
    // in-session users immediately — cold-start users otherwise serve
    // every slot over the radio.
    let mut p = PredictorKind::SessionAware.build(&[]);
    let arrive = SimTime::from_days(5) + SimDuration::from_hours(14);
    let slots = [arrive, arrive + SimDuration::from_secs(30)];
    p.observe(arrive, arrive + SimDuration::from_secs(31), &slots);
    let pred = p.predict(
        arrive + SimDuration::from_secs(40),
        SimDuration::from_hours(2),
    );
    assert!(
        pred.is_finite() && pred > 0.0,
        "in-session remainder: {pred}"
    );
}
