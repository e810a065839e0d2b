//! Perfect-knowledge predictor (evaluation upper bound).

use adpf_desim::{SimDuration, SimTime};

/// Predicts exactly the slots that will occur, from a pre-loaded schedule.
///
/// Used as the upper bound in the prediction-accuracy and end-to-end
/// experiments: it isolates how much of the system's loss comes from
/// prediction error versus from the overbooking mechanics themselves.
#[derive(Debug, Clone)]
pub(crate) struct OraclePredictor {
    /// Sorted slot times.
    slot_times: Vec<SimTime>,
}

impl OraclePredictor {
    /// Creates an oracle from the user's full slot-time series (sorted
    /// internally).
    pub(crate) fn new(mut slot_times: Vec<SimTime>) -> Self {
        slot_times.sort_unstable();
        Self { slot_times }
    }

    /// Exact number of slots in `[from, to)`.
    pub(crate) fn count_in(&self, from: SimTime, to: SimTime) -> usize {
        let lo = self.slot_times.partition_point(|&t| t < from);
        let hi = self.slot_times.partition_point(|&t| t < to);
        hi - lo
    }

    pub(crate) fn predict(&self, now: SimTime, horizon: SimDuration) -> f64 {
        self.count_in(now, now + horizon) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_exactly() {
        let o = OraclePredictor::new(vec![
            SimTime::from_mins(10),
            SimTime::from_mins(70),
            SimTime::from_mins(90),
            SimTime::from_mins(190),
        ]);
        assert_eq!(o.predict(SimTime::ZERO, SimDuration::from_hours(1)), 1.0);
        assert_eq!(
            o.predict(SimTime::from_hours(1), SimDuration::from_hours(1)),
            2.0
        );
        assert_eq!(
            o.predict(SimTime::from_hours(2), SimDuration::from_hours(2)),
            1.0
        );
        assert_eq!(
            o.predict(SimTime::from_hours(4), SimDuration::from_hours(24)),
            0.0
        );
    }

    #[test]
    fn boundary_is_half_open() {
        let o = OraclePredictor::new(vec![SimTime::from_hours(1)]);
        // Slot at exactly the window end is excluded; at window start,
        // included.
        assert_eq!(o.predict(SimTime::ZERO, SimDuration::from_hours(1)), 0.0);
        assert_eq!(
            o.predict(SimTime::from_hours(1), SimDuration::from_hours(1)),
            1.0
        );
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let o = OraclePredictor::new(vec![SimTime::from_secs(30), SimTime::from_secs(10)]);
        assert_eq!(o.count_in(SimTime::ZERO, SimTime::from_secs(20)), 1);
    }

    #[test]
    fn empty_oracle_predicts_zero() {
        let o = OraclePredictor::new(Vec::new());
        assert_eq!(o.predict(SimTime::ZERO, SimDuration::from_days(30)), 0.0);
    }
}
