//! Battery-life conversions.
//!
//! The paper motivates everything in battery terms ("ads shorten your
//! battery life by ..."), so reports need a way to turn joules into hours
//! and percent-of-battery figures.

use crate::radio::EnergyBreakdown;

/// A device battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    /// Usable capacity in joules.
    pub capacity_j: f64,
}

impl BatteryModel {
    /// Builds a battery from a milliamp-hour rating at the given nominal
    /// voltage.
    ///
    /// # Panics
    ///
    /// Panics on non-positive ratings — battery specs are compile-time
    /// constants in this codebase.
    pub(crate) fn from_mah(mah: f64, volts: f64) -> Self {
        assert!(
            mah > 0.0 && volts > 0.0,
            "battery spec must be positive, got {mah} mAh @ {volts} V"
        );
        // mAh * V = mWh; * 3.6 = joules.
        Self {
            capacity_j: mah * volts * 3.6,
        }
    }

    /// A 2012-era smartphone battery (~1,450 mAh at 3.7 V), matching the
    /// handsets of the paper's measurement study.
    pub fn smartphone_2012() -> Self {
        Self::from_mah(1_450.0, 3.7)
    }

    /// Fraction of the battery consumed by the given energy.
    pub(crate) fn fraction_used(&self, energy_j: f64) -> f64 {
        (energy_j / self.capacity_j).max(0.0)
    }

    /// Fraction of the battery one client's ad traffic burns per day.
    pub fn daily_ad_drain(&self, energy: &EnergyBreakdown, users: u32, days: u32) -> f64 {
        if users == 0 || days == 0 {
            return 0.0;
        }
        self.fraction_used(energy.total_j() / (users as f64 * days as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_conversion_is_correct() {
        // 1,450 mAh * 3.7 V = 5,365 mWh = 19,314 J.
        let b = BatteryModel::smartphone_2012();
        assert!((b.capacity_j - 19_314.0).abs() < 1.0);
    }

    #[test]
    fn fractions_scale_linearly() {
        let b = BatteryModel::from_mah(1_000.0, 3.7);
        let half = b.capacity_j / 2.0;
        assert!((b.fraction_used(half) - 0.5).abs() < 1e-12);
        assert_eq!(b.fraction_used(-1.0), 0.0);
    }

    #[test]
    fn daily_drain_divides_by_population() {
        let b = BatteryModel::from_mah(1_000.0, 3.6);
        let e = EnergyBreakdown {
            tail_j: b.capacity_j * 10.0,
            ..EnergyBreakdown::default()
        };
        // 10 battery-fulls across 10 users over 10 days = 10% per user-day.
        assert!((b.daily_ad_drain(&e, 10, 10) - 0.1).abs() < 1e-12);
        assert_eq!(b.daily_ad_drain(&e, 0, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_spec_panics() {
        let _ = BatteryModel::from_mah(0.0, 3.7);
    }
}
