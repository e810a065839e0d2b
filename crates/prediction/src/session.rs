//! Session-aware demand prediction.

use adpf_desim::{SimDuration, SimTime};
use adpf_stats::Welford;

use crate::history::RateHistory;
use crate::tod::TimeOfDayPredictor;

/// Predicts demand from the client's *session structure* rather than a
/// smooth rate.
///
/// Mobile ad demand is extremely bursty: a user produces zero slots for
/// hours, then a session yields several slots half a minute apart. A
/// mean-rate model spread over that burstiness sells inventory into idle
/// windows (ads that expire) while underselling live sessions (real-time
/// fallbacks). This model separates the two regimes, which is what lets
/// the ad server sell conservatively while idle and top up aggressively
/// the moment a session materializes:
///
/// - **Idle**: predicts a low quantile of the historical per-period demand
///   rate (`idle_q`, default 0.25) — for bursty users this is ~0, so
///   periodic syncs sell almost nothing speculative.
/// - **In session** (a slot occurred within `session_gap` of `now`):
///   additionally predicts the *remaining* slots of the current session,
///   `mean session length − slots already shown in this session`.
#[derive(Debug, Clone)]
pub(crate) struct SessionAwarePredictor {
    /// Gap separating two sessions in the slot stream.
    session_gap: SimDuration,
    /// Quantile of the idle rate history used for speculative selling.
    idle_q: f64,
    /// Per-period demand rates (slots per hour), bounded history.
    rates: RateHistory,
    /// Cached `idle_q`-quantile of `rates`; recomputed on observation so
    /// the hot `predict` path stays O(1).
    cached_idle_rate: f64,
    /// Hour-of-day mean rates, used for unbiased availability estimates
    /// over arbitrary windows (a flat mean overestimates night windows).
    tod: TimeOfDayPredictor,
    /// Mean slots per completed session.
    session_len: Welford,
    /// Slots seen so far in the (possibly still open) current session.
    current_session: u32,
    /// Time of the most recent observed slot.
    last_slot: Option<SimTime>,
}

impl SessionAwarePredictor {
    /// Creates a predictor with the given session gap and idle quantile.
    pub(crate) fn new(session_gap: SimDuration, idle_q: f64) -> Self {
        Self {
            session_gap,
            idle_q: idle_q.clamp(0.0, 1.0),
            rates: RateHistory::default(),
            cached_idle_rate: 0.0,
            tod: TimeOfDayPredictor::default(),
            session_len: Welford::new(),
            current_session: 0,
            last_slot: None,
        }
    }

    /// The defaults used by the end-to-end system: 90-second session gap
    /// (three missed 30-second refreshes) and the 25th percentile while
    /// idle.
    pub(crate) fn default_config() -> Self {
        Self::new(SimDuration::from_secs(90), 0.25)
    }

    /// Expected slots still to come in the current session.
    fn remaining_session(&self) -> f64 {
        let mean = if self.session_len.count() > 0 {
            self.session_len.mean()
        } else {
            // No completed session yet: assume the current one continues a
            // little longer.
            (self.current_session + 1) as f64
        };
        (mean - self.current_session as f64).max(0.0)
    }

    pub(crate) fn observe(
        &mut self,
        period_start: SimTime,
        period_end: SimTime,
        slot_times: &[SimTime],
    ) {
        self.tod.observe(period_start, period_end, slot_times);
        let hours = period_end.saturating_since(period_start).as_hours_f64();
        if hours > 0.0 {
            self.rates.push(slot_times.len() as f64 / hours);
            self.cached_idle_rate = self.rates.quantile(self.idle_q);
        }
        for &t in slot_times {
            match self.last_slot {
                Some(prev) if t.saturating_since(prev) <= self.session_gap => {
                    self.current_session += 1;
                }
                Some(_) => {
                    // A gap closed the previous session.
                    self.session_len.add(self.current_session as f64);
                    self.current_session = 1;
                }
                None => {
                    self.current_session = 1;
                }
            }
            self.last_slot = Some(t);
        }
    }

    pub(crate) fn predict(&self, now: SimTime, horizon: SimDuration) -> f64 {
        if self.rates.is_empty() && self.last_slot.is_none() {
            return 0.0;
        }
        let idle = self.cached_idle_rate * horizon.as_hours_f64();
        let in_session = matches!(
            self.last_slot,
            Some(t) if now.saturating_since(t) <= self.session_gap
        );
        if in_session {
            idle + self.remaining_session()
        } else {
            idle
        }
    }

    pub(crate) fn expected_rate(&self, now: SimTime, horizon: SimDuration) -> f64 {
        // Same session logic, but with the *mean* hour-of-day rates
        // instead of the conservative selling quantile.
        let mean = self.tod.predict(now, horizon);
        let in_session = matches!(
            self.last_slot,
            Some(t) if now.saturating_since(t) <= self.session_gap
        );
        if in_session {
            mean + self.remaining_session()
        } else {
            mean
        }
    }

    pub(crate) fn mean_session_slots(&self) -> f64 {
        if self.session_len.count() > 0 {
            self.session_len.mean().max(1.0)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `sessions_per_day` sessions of `len` slots (30 s apart) for
    /// `days` days, observing in daily periods.
    fn train(p: &mut SessionAwarePredictor, days: u64, sessions_per_day: u64, len: u32) {
        for d in 0..days {
            let day = SimTime::from_days(d);
            let mut slots = Vec::new();
            for s in 0..sessions_per_day {
                let start = day + SimDuration::from_hours(9 + s * 3);
                for k in 0..len {
                    slots.push(start + SimDuration::from_secs(30 * k as u64));
                }
            }
            p.observe(day, day + SimDuration::from_days(1), &slots);
        }
    }

    #[test]
    fn cold_predictor_is_zero() {
        let p = SessionAwarePredictor::default_config();
        assert_eq!(p.predict(SimTime::ZERO, SimDuration::from_hours(2)), 0.0);
    }

    #[test]
    fn idle_prediction_is_conservative_for_bursty_users() {
        let mut p = SessionAwarePredictor::default_config();
        // Two 4-slot sessions per day: daily rate is 8/24 h, but the 25th
        // percentile of per-day rates is a constant 1/3 slots/hour; the
        // point is the *session* component dominates and idle stays small.
        train(&mut p, 14, 2, 4);
        let idle = p.predict(
            SimTime::from_days(14) + SimDuration::from_hours(3),
            SimDuration::from_hours(2),
        );
        assert!(idle < 1.5, "idle prediction {idle} should be small");
    }

    #[test]
    fn in_session_prediction_jumps() {
        let mut p = SessionAwarePredictor::default_config();
        train(&mut p, 14, 2, 6);
        // A new session starts: one slot observed just now.
        let t = SimTime::from_days(14) + SimDuration::from_hours(9);
        p.observe(t, t + SimDuration::from_secs(1), &[t]);
        let pred = p.predict(t + SimDuration::from_secs(10), SimDuration::from_hours(2));
        // Mean session is 6 slots; one shown; ~5 remain (plus small idle).
        assert!(pred > 3.5, "in-session prediction {pred}");
        // Mid-session, after 4 shown, the remainder shrinks.
        let mut later = Vec::new();
        for k in 1..4u64 {
            later.push(t + SimDuration::from_secs(30 * k));
        }
        p.observe(
            t + SimDuration::from_secs(1),
            t + SimDuration::from_secs(100),
            &later,
        );
        let pred2 = p.predict(t + SimDuration::from_secs(100), SimDuration::from_hours(2));
        assert!(pred2 < pred, "remaining shrinks: {pred2} < {pred}");
    }

    #[test]
    fn session_segmentation_counts_correctly() {
        let mut p = SessionAwarePredictor::default_config();
        // Three sessions of 3 slots across two observe calls, split
        // mid-session.
        let mk = |h: u64, k: u64| SimTime::from_hours(h) + SimDuration::from_secs(30 * k);
        p.observe(
            SimTime::ZERO,
            SimTime::from_hours(2),
            &[mk(1, 0), mk(1, 1), mk(1, 2)],
        );
        p.observe(
            SimTime::from_hours(2),
            SimTime::from_hours(6),
            &[mk(3, 0), mk(3, 1), mk(3, 2), mk(5, 0), mk(5, 1), mk(5, 2)],
        );
        // Two sessions completed (the third is open): mean length 3.
        assert_eq!(p.session_len.count(), 2);
        assert!((p.session_len.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn session_state_survives_observe_boundaries() {
        let mut p = SessionAwarePredictor::default_config();
        let t = SimTime::from_hours(1);
        // A session whose slots straddle two observe periods must count as
        // one session.
        p.observe(
            SimTime::ZERO,
            t + SimDuration::from_secs(45),
            &[t, t + SimDuration::from_secs(30)],
        );
        p.observe(
            t + SimDuration::from_secs(45),
            t + SimDuration::from_secs(105),
            &[
                t + SimDuration::from_secs(60),
                t + SimDuration::from_secs(90),
            ],
        );
        assert_eq!(p.session_len.count(), 0, "session still open");
        assert_eq!(p.current_session, 4);
    }

    #[test]
    fn history_is_bounded() {
        let mut p = SessionAwarePredictor::default_config();
        for i in 0..(RateHistory::MAX_LEN + 100) {
            let start = SimTime::from_hours(i as u64);
            p.observe(start, start + SimDuration::from_hours(1), &[]);
        }
        assert_eq!(p.rates.len(), RateHistory::MAX_LEN);
    }
}
