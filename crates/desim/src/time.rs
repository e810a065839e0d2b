//! Simulated time and durations.
//!
//! Simulated time is an absolute instant measured in **milliseconds since
//! the trace epoch**. By convention the epoch is midnight at the start of
//! day 0 of a trace, which makes calendar helpers ([`SimTime::hour_of_day`],
//! [`SimTime::day_index`]) trivial and timezone-free.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Milliseconds per second.
pub(crate) const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds per minute.
pub(crate) const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds per hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds per day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

/// An absolute simulated instant (milliseconds since the trace epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The trace epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * MILLIS_PER_SEC)
    }

    /// Creates an instant from whole minutes since the epoch.
    pub const fn from_mins(m: u64) -> Self {
        Self(m * MILLIS_PER_MIN)
    }

    /// Creates an instant from whole hours since the epoch.
    pub const fn from_hours(h: u64) -> Self {
        Self(h * MILLIS_PER_HOUR)
    }

    /// Creates an instant from whole days since the epoch.
    pub const fn from_days(d: u64) -> Self {
        Self(d * MILLIS_PER_DAY)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Hours since the epoch, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Hour of day in `0..24`.
    pub const fn hour_of_day(self) -> u32 {
        ((self.0 % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as u32
    }

    /// Zero-based day index since the epoch.
    pub const fn day_index(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Day of week in `0..7`, with day 0 of the trace defined as a Monday
    /// (so 5 and 6 are the weekend).
    pub const fn day_of_week(self) -> u32 {
        (self.day_index() % 7) as u32
    }

    /// Returns `true` when the instant falls on a weekend day.
    pub const fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is
    /// later than `self`.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration (clamps at the epoch).
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Saturating addition of a duration.
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * MILLIS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Self(m * MILLIS_PER_MIN)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        Self(h * MILLIS_PER_HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        Self(d * MILLIS_PER_DAY)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            Self(0)
        } else {
            Self((s * MILLIS_PER_SEC as f64).round() as u64)
        }
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Hours, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Returns `true` for a zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the duration by a non-negative float factor.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        if k <= 0.0 || !k.is_finite() {
            SimDuration(0)
        } else {
            SimDuration((self.0 as f64 * k).round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: duration too large"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is unknown.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let rem = self.0 % MILLIS_PER_DAY;
        let h = rem / MILLIS_PER_HOUR;
        let m = (rem % MILLIS_PER_HOUR) / MILLIS_PER_MIN;
        let s = (rem % MILLIS_PER_MIN) / MILLIS_PER_SEC;
        write!(f, "d{day} {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < MILLIS_PER_SEC {
            write!(f, "{}ms", self.0)
        } else if self.0 < MILLIS_PER_HOUR {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else {
            write!(f, "{:.2}h", self.as_hours_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(2), SimTime::from_hours(48));
        assert_eq!(SimDuration::from_days(1).as_hours_f64(), 24.0);
    }

    #[test]
    fn calendar_helpers() {
        let t = SimTime::from_days(9) + SimDuration::from_hours(13) + SimDuration::from_mins(30);
        assert_eq!(t.day_index(), 9);
        assert_eq!(t.hour_of_day(), 13);
        // Day 9 with day 0 = Monday is a Wednesday.
        assert_eq!(t.day_of_week(), 2);
        assert!(!t.is_weekend());
        let sat = SimTime::from_days(5);
        assert!(sat.is_weekend());
    }

    #[test]
    fn arithmetic_and_saturation() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(b.saturating_since(a), SimDuration::ZERO);
        assert_eq!(a.saturating_since(b), SimDuration::from_secs(6));
        assert_eq!(
            a.saturating_sub(SimDuration::from_secs(4)),
            SimTime::from_secs(6)
        );
        assert_eq!(a.saturating_sub(SimDuration::from_hours(1)), SimTime::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_hours(5)),
            SimTime::MAX
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn float_constructors_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.saturating_mul(6), SimDuration::from_mins(1));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration(u64::MAX).saturating_mul(2),
            SimDuration(u64::MAX)
        );
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(7) + SimDuration::from_secs(5);
        assert_eq!(t.to_string(), "d3 07:00:05");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "90.0s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3.00h");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
