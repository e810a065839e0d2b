//! Radio state timelines for figure output.

use adpf_desim::{SimDuration, SimTime};

/// A radio macro-state, as rendered in the paper's tail-energy figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Promoting from idle to the transfer-capable state.
    Promoting,
    /// Actively moving bytes.
    Transferring,
    /// In post-transfer tail phase `i` (0 = highest power).
    Tail(u8),
    /// Fully idle.
    Idle,
}

impl RadioState {
    /// Short label for tabular output.
    pub fn label(&self) -> String {
        match self {
            RadioState::Promoting => "PROMO".to_string(),
            RadioState::Transferring => "XFER".to_string(),
            RadioState::Tail(i) => format!("TAIL{i}"),
            RadioState::Idle => "IDLE".to_string(),
        }
    }
}

/// A half-open interval `[start, end)` spent in one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateInterval {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// State during the interval.
    pub state: RadioState,
}

impl StateInterval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// An append-only record of radio state intervals.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    intervals: Vec<StateInterval>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an interval; zero-length intervals are dropped.
    pub fn record(&mut self, start: SimTime, end: SimTime, state: RadioState) {
        if end > start {
            self.intervals.push(StateInterval { start, end, state });
        }
    }

    /// All recorded intervals in insertion (time) order.
    pub fn intervals(&self) -> &[StateInterval] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums_intervals() {
        let mut tl = Timeline::new();
        tl.record(SimTime::ZERO, SimTime::from_secs(2), RadioState::Promoting);
        tl.record(
            SimTime::from_secs(2),
            SimTime::from_secs(3),
            RadioState::Transferring,
        );
        tl.record(
            SimTime::from_secs(3),
            SimTime::from_secs(8),
            RadioState::Tail(0),
        );
        assert_eq!(tl.intervals().len(), 3);
        assert_eq!(tl.intervals()[2].duration(), SimDuration::from_secs(5));
    }

    #[test]
    fn zero_length_intervals_dropped() {
        let mut tl = Timeline::new();
        tl.record(
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            RadioState::Idle,
        );
        assert!(tl.intervals().is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RadioState::Promoting.label(), "PROMO");
        assert_eq!(RadioState::Tail(1).label(), "TAIL1");
    }
}
