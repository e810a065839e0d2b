//! Diurnal predictors: per-hour (and per-day-of-week) slot rates.

use adpf_desim::{SimDuration, SimTime};

/// Milliseconds per hour, re-exported locally for readability.
const MS_PER_HOUR: u64 = adpf_desim::time::MILLIS_PER_HOUR;
/// Milliseconds per day.
const MS_PER_DAY: u64 = adpf_desim::time::MILLIS_PER_DAY;

/// Splits `[start, end)` at the hour boundaries and calls `f(span_start,
/// span_ms)` for each span.
fn for_each_hour_span(start: SimTime, end: SimTime, mut f: impl FnMut(SimTime, u64)) {
    let mut cursor = start;
    while cursor < end {
        let hour_end_ms = (cursor.as_millis() / MS_PER_HOUR + 1) * MS_PER_HOUR;
        let span_end = SimTime::from_millis(hour_end_ms).min(end);
        f(cursor, span_end.saturating_since(cursor).as_millis());
        cursor = span_end;
    }
}

/// Adds the time of `[start, end)` to the hour cells `cells`, of which
/// `cell(at)` is the one holding instant `at` and which repeat every
/// `cycle_ms` (a whole number of hours). A span of one whole cycle,
/// wherever it starts, covers every cell for exactly one hour, so the
/// whole cycles are added to every cell in one step and only the rest is
/// walked hour by hour: O(cells) however long the period.
fn observe_time(
    start: SimTime,
    end: SimTime,
    cycle_ms: u64,
    cells: &mut [u64],
    cell: impl Fn(SimTime) -> usize,
) {
    let cycles = end.saturating_since(start).as_millis() / cycle_ms;
    if cycles > 0 {
        for c in cells.iter_mut() {
            *c += cycles * MS_PER_HOUR;
        }
    }
    let rest = start + SimDuration::from_millis(cycles * cycle_ms);
    for_each_hour_span(rest, end, |at, ms| cells[cell(at)] += ms);
}

/// Per-hour-of-day slot rates.
///
/// Maintains, for each of the 24 hours, the total slots observed and the
/// total time observed, as integers converted to `f64` only to divide, so
/// no sum ever rounds: a `u64` of milliseconds holds any instant a trace
/// can carry (a recorded trace may start at a Unix-epoch timestamp), and
/// a slot count saturates only past 2^32 slots of one client in one hour
/// of the day. Prediction integrates
/// the hourly rates over the requested window, handling partial hours at
/// both ends. This is the paper's key insight about client modeling: slot
/// demand is strongly diurnal, so an hour-indexed rate beats a global
/// average.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimeOfDayPredictor {
    /// Slots seen in each hour of the day, saturating.
    slots: [u32; 24],
    /// Milliseconds observed in each hour of the day.
    observed_ms: [u64; 24],
}

impl TimeOfDayPredictor {
    /// Rate (slots per ms) for a given hour of day; `0.0` if unobserved.
    fn rate(&self, hour: u32) -> f64 {
        let h = (hour % 24) as usize;
        if self.observed_ms[h] == 0 {
            0.0
        } else {
            f64::from(self.slots[h]) / self.observed_ms[h] as f64
        }
    }

    pub(crate) fn observe(
        &mut self,
        period_start: SimTime,
        period_end: SimTime,
        slot_times: &[SimTime],
    ) {
        observe_time(
            period_start,
            period_end,
            MS_PER_DAY,
            &mut self.observed_ms,
            |at| at.hour_of_day() as usize,
        );
        for t in slot_times {
            let cell = &mut self.slots[(t.hour_of_day() % 24) as usize];
            *cell = cell.saturating_add(1);
        }
    }

    pub(crate) fn predict(&self, now: SimTime, horizon: SimDuration) -> f64 {
        let mut expected = 0.0;
        for_each_hour_span(now, now + horizon, |at, ms| {
            expected += self.rate(at.hour_of_day()) * ms as f64;
        });
        expected
    }
}

/// Per-(day-of-week, hour-of-day) slot rates with a time-of-day fallback.
///
/// Distinguishes weekday from weekend rhythms. Cells that have been
/// observed for less than [`DayHourPredictor::MIN_CELL_MS`] fall back to
/// the all-days hourly rate, avoiding wild extrapolation from a single
/// observed Monday. Cell `24 · day + hour` holds one hour of one day of
/// the week.
#[derive(Debug, Clone)]
pub(crate) struct DayHourPredictor {
    slots: [u32; 7 * 24],
    observed_ms: [u64; 7 * 24],
    fallback: TimeOfDayPredictor,
}

impl Default for DayHourPredictor {
    fn default() -> Self {
        Self {
            slots: [0; 7 * 24],
            observed_ms: [0; 7 * 24],
            fallback: TimeOfDayPredictor::default(),
        }
    }
}

/// The day-hour cell holding instant `at`.
fn day_hour(at: SimTime) -> usize {
    at.day_of_week() as usize * 24 + (at.hour_of_day() % 24) as usize
}

impl DayHourPredictor {
    /// Minimum per-cell observation (one full hour) before the cell's own
    /// rate is trusted.
    pub(crate) const MIN_CELL_MS: u64 = MS_PER_HOUR;

    fn rate(&self, at: SimTime) -> f64 {
        let c = day_hour(at);
        if self.observed_ms[c] >= Self::MIN_CELL_MS {
            f64::from(self.slots[c]) / self.observed_ms[c] as f64
        } else {
            // Delegate to the hour-only rate.
            self.fallback.rate(at.hour_of_day())
        }
    }

    pub(crate) fn observe(
        &mut self,
        period_start: SimTime,
        period_end: SimTime,
        slot_times: &[SimTime],
    ) {
        self.fallback.observe(period_start, period_end, slot_times);
        observe_time(
            period_start,
            period_end,
            7 * MS_PER_DAY,
            &mut self.observed_ms,
            day_hour,
        );
        for &t in slot_times {
            let cell = &mut self.slots[day_hour(t)];
            *cell = cell.saturating_add(1);
        }
    }

    pub(crate) fn predict(&self, now: SimTime, horizon: SimDuration) -> f64 {
        let mut expected = 0.0;
        for_each_hour_span(now, now + horizon, |at, ms| {
            expected += self.rate(at) * ms as f64;
        });
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains a predictor with `slots_at_hour` slots in a fixed hour of each
    /// of `days` days (observing the full day).
    fn train(p: &mut TimeOfDayPredictor, days: u64, hour: u64, slots_at_hour: usize) {
        for day in 0..days {
            let day_start = SimTime::from_days(day);
            let slot_t = day_start + SimDuration::from_hours(hour) + SimDuration::from_mins(10);
            let slots = vec![slot_t; slots_at_hour];
            p.observe(day_start, day_start + SimDuration::from_days(1), &slots);
        }
    }

    #[test]
    fn tod_concentrates_prediction_in_active_hour() {
        let mut p = TimeOfDayPredictor::default();
        train(&mut p, 14, 20, 6);
        let day = SimTime::from_days(14);
        // Predicting exactly the active hour sees ~6 slots.
        let active = p.predict(
            day + SimDuration::from_hours(20),
            SimDuration::from_hours(1),
        );
        assert!((active - 6.0).abs() < 1e-6, "active {active}");
        // A quiet hour sees ~0.
        let quiet = p.predict(day + SimDuration::from_hours(3), SimDuration::from_hours(1));
        assert!(quiet.abs() < 1e-9, "quiet {quiet}");
        // A full day sees the daily total.
        let daily = p.predict(day, SimDuration::from_days(1));
        assert!((daily - 6.0).abs() < 1e-6, "daily {daily}");
    }

    #[test]
    fn tod_handles_partial_hour_windows() {
        let mut p = TimeOfDayPredictor::default();
        train(&mut p, 10, 12, 4);
        let day = SimTime::from_days(10);
        // Half of the active hour gets half the slots.
        let half = p.predict(
            day + SimDuration::from_hours(12),
            SimDuration::from_mins(30),
        );
        assert!((half - 2.0).abs() < 1e-6, "half {half}");
        // Window straddling the active hour's start.
        let straddle = p.predict(
            day + SimDuration::from_hours(11) + SimDuration::from_mins(30),
            SimDuration::from_hours(1),
        );
        assert!((straddle - 2.0).abs() < 1e-6, "straddle {straddle}");
    }

    #[test]
    fn day_hour_separates_weekend_from_weekday() {
        let mut p = DayHourPredictor::default();
        // Weekdays (day 0..5): 2 slots at hour 9. Weekends (5, 6): 10 slots
        // at hour 9. Train over 4 weeks.
        for day in 0..28u64 {
            let day_start = SimTime::from_days(day);
            let n = if day_start.is_weekend() { 10 } else { 2 };
            let slot_t = day_start + SimDuration::from_hours(9) + SimDuration::from_mins(5);
            p.observe(
                day_start,
                day_start + SimDuration::from_days(1),
                &vec![slot_t; n],
            );
        }
        // Day 28 is a Monday; day 33 is a Saturday.
        let weekday = p.predict(
            SimTime::from_days(28) + SimDuration::from_hours(9),
            SimDuration::from_hours(1),
        );
        let weekend = p.predict(
            SimTime::from_days(33) + SimDuration::from_hours(9),
            SimDuration::from_hours(1),
        );
        assert!((weekday - 2.0).abs() < 0.1, "weekday {weekday}");
        assert!((weekend - 10.0).abs() < 0.5, "weekend {weekend}");

        // A plain time-of-day model blurs the two.
        let mut tod = TimeOfDayPredictor::default();
        for day in 0..28u64 {
            let day_start = SimTime::from_days(day);
            let n = if day_start.is_weekend() { 10 } else { 2 };
            let slot_t = day_start + SimDuration::from_hours(9) + SimDuration::from_mins(5);
            tod.observe(
                day_start,
                day_start + SimDuration::from_days(1),
                &vec![slot_t; n],
            );
        }
        let blurred = tod.predict(
            SimTime::from_days(33) + SimDuration::from_hours(9),
            SimDuration::from_hours(1),
        );
        assert!(blurred < weekend, "tod {blurred} vs day-hour {weekend}");
    }

    #[test]
    fn day_hour_falls_back_when_cell_unobserved() {
        let mut p = DayHourPredictor::default();
        // Observe only Monday (day 0) with slots at hour 10.
        let slot_t = SimTime::from_hours(10) + SimDuration::from_mins(1);
        p.observe(SimTime::ZERO, SimTime::from_days(1), &[slot_t; 3]);
        // Predicting a Tuesday at hour 10 uses the fallback hourly rate
        // rather than zero.
        let tue = p.predict(
            SimTime::from_days(1) + SimDuration::from_hours(10),
            SimDuration::from_hours(1),
        );
        assert!(tue > 0.0);
    }

    #[test]
    fn predictors_with_no_history_predict_zero() {
        let tod = TimeOfDayPredictor::default();
        assert_eq!(tod.predict(SimTime::ZERO, SimDuration::from_hours(4)), 0.0);
        let dh = DayHourPredictor::default();
        assert_eq!(dh.predict(SimTime::ZERO, SimDuration::from_hours(4)), 0.0);
    }

    #[test]
    fn multi_day_window_integrates_rates() {
        let mut p = TimeOfDayPredictor::default();
        train(&mut p, 7, 8, 3);
        let pred = p.predict(SimTime::from_days(7), SimDuration::from_days(2));
        assert!((pred - 6.0).abs() < 1e-6, "two days {pred}");
    }
}
