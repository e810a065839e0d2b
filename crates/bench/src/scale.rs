//! Experiment scale presets.

use adpf_traces::{PopulationConfig, Trace};

/// How big the experiment populations are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny populations for unit tests (sub-second runs).
    Micro,
    /// Small populations for seconds-long runs (CI, iteration).
    Quick,
    /// The paper-sized populations (minutes-long full sweeps).
    Full,
}

impl Scale {
    /// The iPhone-like population (paper: 1,693 users, several weeks).
    pub(crate) fn iphone(self, seed: u64) -> PopulationConfig {
        match self {
            Scale::Micro => PopulationConfig {
                num_users: 30,
                days: 7,
                ..PopulationConfig::iphone_like(seed)
            },
            Scale::Quick => PopulationConfig {
                num_users: 150,
                days: 14,
                ..PopulationConfig::iphone_like(seed)
            },
            Scale::Full => PopulationConfig::iphone_like(seed),
        }
    }

    /// The Windows-Phone-like population (paper: dozens of in-lab users).
    pub(crate) fn windows_phone(self, seed: u64) -> PopulationConfig {
        match self {
            Scale::Micro => PopulationConfig {
                num_users: 10,
                days: 7,
                ..PopulationConfig::windows_phone_like(seed)
            },
            Scale::Quick => PopulationConfig {
                num_users: 30,
                days: 14,
                ..PopulationConfig::windows_phone_like(seed)
            },
            Scale::Full => PopulationConfig::windows_phone_like(seed),
        }
    }

    /// The default trace used by the full-system sweeps (E7–E13).
    pub(crate) fn system_trace(self, seed: u64) -> Trace {
        let cfg = match self {
            Scale::Micro => PopulationConfig {
                num_users: 30,
                days: 5,
                ..PopulationConfig::iphone_like(seed)
            },
            Scale::Quick => PopulationConfig {
                num_users: 120,
                days: 10,
                ..PopulationConfig::iphone_like(seed)
            },
            Scale::Full => PopulationConfig {
                num_users: 600,
                days: 28,
                ..PopulationConfig::iphone_like(seed)
            },
        };
        cfg.generate()
    }

    /// Days of warmup granted to predictors in offline evaluations.
    pub(crate) fn warmup_days(self) -> u64 {
        match self {
            Scale::Micro => 3,
            Scale::Quick => 7,
            Scale::Full => 14,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.iphone(1).num_users < Scale::Full.iphone(1).num_users);
        assert!(Scale::Quick.windows_phone(1).num_users < Scale::Full.windows_phone(1).num_users);
        assert!(Scale::Quick.warmup_days() < Scale::Full.iphone(1).days as u64);
    }

    #[test]
    fn full_matches_paper_population() {
        assert_eq!(Scale::Full.iphone(1).num_users, 1_693);
        assert_eq!(Scale::Full.windows_phone(1).num_users, 60);
    }
}
