//! Periodic (hour-of-day) profiles.

/// A 24-slot hour-of-day profile accumulating weights per hour.
///
/// Used to characterize diurnal patterns in the usage traces and as the
/// backing store of the time-of-day predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HourProfile {
    weights: [f64; 24],
}

impl Default for HourProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl HourProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self { weights: [0.0; 24] }
    }

    /// Adds `weight` to the given hour (wrapped modulo 24).
    pub fn add(&mut self, hour: u32, weight: f64) {
        self.weights[(hour % 24) as usize] += weight;
    }

    /// Raw weight of an hour.
    pub(crate) fn weight(&self, hour: u32) -> f64 {
        self.weights[(hour % 24) as usize]
    }

    /// Total weight across all hours.
    pub(crate) fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Fraction of total weight in the given hour; `0.0` when empty.
    pub fn fraction(&self, hour: u32) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.weight(hour) / total
        }
    }

    /// Hour with the largest weight (ties resolve to the earliest hour).
    pub fn peak_hour(&self) -> u32 {
        let mut best = 0;
        for h in 1..24 {
            if self.weights[h] > self.weights[best] {
                best = h;
            }
        }
        best as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_profile_basics() {
        let mut p = HourProfile::new();
        p.add(9, 2.0);
        p.add(21, 6.0);
        p.add(33, 1.0); // Wraps to hour 9.
        assert_eq!(p.weight(9), 3.0);
        assert_eq!(p.peak_hour(), 21);
        assert!((p.fraction(21) - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hour_profile_is_safe() {
        let p = HourProfile::new();
        assert_eq!(p.fraction(3), 0.0);
        assert_eq!(p.peak_hour(), 0);
    }
}
