//! The compact predictor state against the bodies it replaced.
//!
//! - The rate history (distinct values with counts, and a ring of `u16`
//!   indices into them) against a `VecDeque<f64>` with a sorted copy
//!   beside it, for the session-aware model's idle quantile, and against
//!   a plain `Vec<f64>` sorted on every observation, for the quantile
//!   model's selling quantile and arrival-order mean. Sequences run past
//!   the 512-rate bound, so eviction runs, with many repeats and zeros.
//! - The integer hour cells, which add whole days (whole weeks for the
//!   day-hour cells) in one step, against `f64` cells filled by walking
//!   every hour of every period, over periods of up to 60 days. As in the
//!   engine, whose first sync period starts at time zero, a first period
//!   runs from zero to the first week or to a start far out, as a
//!   recorded trace with Unix-epoch timestamps has: past the ≈ 1,193
//!   days at which a `u32` of observed milliseconds would saturate.
//!
//! Every comparison is of `f64` bits, after every observation.

use std::collections::VecDeque;

use adpf_desim::{SimDuration, SimTime};
use adpf_prediction::PredictorKind;
use adpf_stats::summary::{quantile, quantile_sorted};
use proptest::prelude::*;

/// The history bound both models keep.
const MAX_HISTORY: usize = 512;

/// The session-aware model's idle quantile.
const IDLE_Q: f64 = 0.25;

/// The old session-aware history: arrival order plus a sorted copy kept
/// by binary insertion and removal.
#[derive(Default)]
struct SortedHistory {
    rates: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl SortedHistory {
    fn push(&mut self, rate: f64) -> f64 {
        if self.rates.len() == MAX_HISTORY {
            let evicted = self.rates.pop_front().unwrap();
            let at = self.sorted.partition_point(|&x| x < evicted);
            assert_eq!(self.sorted[at].to_bits(), evicted.to_bits());
            self.sorted.remove(at);
        }
        self.rates.push_back(rate);
        let at = self.sorted.partition_point(|&x| x < rate);
        self.sorted.insert(at, rate);
        quantile_sorted(&self.sorted, IDLE_Q)
    }
}

/// The old quantile-model history: a `Vec` evicted from the front,
/// sorted afresh for every quantile, its mean summed in arrival order.
#[derive(Default)]
struct VecHistory(Vec<f64>);

impl VecHistory {
    fn push(&mut self, rate: f64, q: f64) -> (f64, f64) {
        if self.0.len() == MAX_HISTORY {
            self.0.remove(0);
        }
        self.0.push(rate);
        let mean = self.0.iter().sum::<f64>() / self.0.len() as f64;
        (quantile(&self.0, q), mean)
    }
}

/// A period length drawn from `kind`: mostly whole sync intervals, so
/// rates repeat, otherwise any length up to ~2.8 h.
fn period_ms(kind: u8, any_ms: u64) -> u64 {
    match kind {
        0..=3 => 2 * 3_600_000,
        4 => 3_600_000,
        5 => 1_800_000,
        _ => any_ms,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rate_history_matches_the_sorted_vectors(
        q in 0.0f64..1.0,
        periods in proptest::collection::vec((0u8..8, 1u64..10_000_000, 0u8..4, 1usize..13), 513..1300),
    ) {
        let mut session = PredictorKind::SessionAware.build(&[]);
        let mut quant = PredictorKind::Quantile(q).build(&[]);
        let mut sorted = SortedHistory::default();
        let mut plain = VecHistory::default();
        let hour = SimDuration::from_hours(1);
        let mut start = SimTime::ZERO;
        for (i, &(kind, any_ms, busy, n)) in periods.iter().enumerate() {
            let len = period_ms(kind, any_ms);
            let end = start + SimDuration::from_millis(len);
            // Half the periods are silent, so `0.0` is the commonest rate.
            let count = if busy < 2 { 0 } else { n };
            let slots = vec![start; count];
            session.observe(start, end, &slots);
            quant.observe(start, end, &slots);
            let rate = count as f64 / SimDuration::from_millis(len).as_hours_f64();

            // Past the 90 s session gap, the session-aware selling
            // prediction is its idle quantile times the window.
            let idle = sorted.push(rate);
            let after = end + SimDuration::from_secs(100);
            prop_assert_eq!(session.predict(after, hour).to_bits(), idle.to_bits(), "period {}", i);

            let (want_q, want_mean) = plain.push(rate, q);
            prop_assert_eq!(quant.predict(end, hour).to_bits(), want_q.to_bits(), "period {}", i);
            prop_assert_eq!(
                quant.expected_rate(end, hour).to_bits(),
                want_mean.to_bits(),
                "period {}", i
            );
            start = end;
        }
    }
}

const MS_PER_HOUR: u64 = 3_600_000;

/// The old hour cells: `f64` sums, filled by walking each period one
/// hour span at a time.
struct F64Cells {
    slots: [f64; 24],
    observed: [f64; 24],
    week_slots: [[f64; 24]; 7],
    week_observed: [[f64; 24]; 7],
}

fn for_each_hour_span(start: SimTime, end: SimTime, mut f: impl FnMut(SimTime, f64)) {
    let mut cursor = start;
    while cursor < end {
        let hour_end = SimTime::from_millis((cursor.as_millis() / MS_PER_HOUR + 1) * MS_PER_HOUR);
        let span_end = hour_end.min(end);
        f(cursor, span_end.saturating_since(cursor).as_millis() as f64);
        cursor = span_end;
    }
}

impl F64Cells {
    fn new() -> Self {
        Self {
            slots: [0.0; 24],
            observed: [0.0; 24],
            week_slots: [[0.0; 24]; 7],
            week_observed: [[0.0; 24]; 7],
        }
    }

    fn observe(&mut self, start: SimTime, end: SimTime, slots: &[SimTime]) {
        for_each_hour_span(start, end, |at, ms| {
            let (d, h) = (at.day_of_week() as usize, at.hour_of_day() as usize);
            self.observed[h] += ms;
            self.week_observed[d][h] += ms;
        });
        for t in slots {
            let (d, h) = (t.day_of_week() as usize, t.hour_of_day() as usize);
            self.slots[h] += 1.0;
            self.week_slots[d][h] += 1.0;
        }
    }

    fn tod_rate(&self, h: usize) -> f64 {
        if self.observed[h] <= 0.0 {
            0.0
        } else {
            self.slots[h] / self.observed[h]
        }
    }

    fn tod(&self, now: SimTime, horizon: SimDuration) -> f64 {
        let mut expected = 0.0;
        for_each_hour_span(now, now + horizon, |at, ms| {
            expected += self.tod_rate(at.hour_of_day() as usize) * ms;
        });
        expected
    }

    fn day_hour(&self, now: SimTime, horizon: SimDuration) -> f64 {
        let mut expected = 0.0;
        for_each_hour_span(now, now + horizon, |at, ms| {
            let (d, h) = (at.day_of_week() as usize, at.hour_of_day() as usize);
            let rate = if self.week_observed[d][h] >= MS_PER_HOUR as f64 {
                self.week_slots[d][h] / self.week_observed[d][h]
            } else {
                self.tod_rate(h)
            };
            expected += rate * ms;
        });
        expected
    }
}

/// A period length of up to 60 days: whole days, a millisecond either
/// side of them, or any length.
fn long_period_ms(kind: u8, days: u64, any_ms: u64) -> u64 {
    let whole = days * 24 * MS_PER_HOUR;
    match kind {
        0 => whole,
        1 => whole + 1,
        2 => whole.saturating_sub(1),
        3 => any_ms % (3 * MS_PER_HOUR),
        _ => any_ms,
    }
}

/// The first instant at which a cell filled from time zero would hold
/// more milliseconds than a `u32` can: one hour of every day, for
/// `u32::MAX / MS_PER_HOUR` + 1 days (≈ 1,193).
const FAR_MS: u64 = (u32::MAX as u64 / MS_PER_HOUR + 1) * 24 * MS_PER_HOUR;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn integer_hour_cells_match_the_f64_hour_walk(
        far in 0u8..2,
        week_ms in 0u64..(7 * 24 * MS_PER_HOUR),
        far_ms in FAR_MS..(1 << 41),
        periods in proptest::collection::vec(
            (0u8..6, 0u64..61, 0u64..(60 * 24 * MS_PER_HOUR), proptest::collection::vec(0u64..1_000_000, 0..6)),
            1..12,
        ),
        windows in proptest::collection::vec((0u64..(7 * 24 * MS_PER_HOUR), 0u64..(3 * 24 * MS_PER_HOUR)), 1..4),
    ) {
        let mut tod = PredictorKind::TimeOfDay.build(&[]);
        let mut day_hour = PredictorKind::DayHour.build(&[]);
        let mut reference = F64Cells::new();
        let mut start = SimTime::from_millis(if far == 1 { far_ms } else { week_ms });
        tod.observe(SimTime::ZERO, start, &[]);
        day_hour.observe(SimTime::ZERO, start, &[]);
        reference.observe(SimTime::ZERO, start, &[]);
        for &(kind, days, any_ms, ref at) in &periods {
            let len = long_period_ms(kind, days, any_ms);
            let end = start + SimDuration::from_millis(len);
            // Slots spread over the period, so every cell's rate is its
            // own ratio.
            let mut slots: Vec<SimTime> = at
                .iter()
                .filter(|_| len > 0)
                .map(|&x| start + SimDuration::from_millis(x * 7_919 % len))
                .collect();
            slots.sort_unstable();
            tod.observe(start, end, &slots);
            day_hour.observe(start, end, &slots);
            reference.observe(start, end, &slots);
            for &(offset, horizon) in &windows {
                let now = end + SimDuration::from_millis(offset);
                let horizon = SimDuration::from_millis(horizon);
                prop_assert_eq!(tod.predict(now, horizon).to_bits(), reference.tod(now, horizon).to_bits());
                prop_assert_eq!(
                    day_hour.predict(now, horizon).to_bits(),
                    reference.day_hour(now, horizon).to_bits()
                );
            }
            start = end;
        }
    }
}
