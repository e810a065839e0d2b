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

    /// Population sizes for the scaling experiment (E14).
    pub(crate) fn scaling_sizes(self) -> Vec<u32> {
        match self {
            Scale::Micro => vec![20, 40],
            Scale::Quick => vec![50, 100, 200, 400],
            Scale::Full => vec![200, 400, 800, 1_600],
        }
    }

    /// Worker-thread counts for the sharded-throughput sweeps
    /// (E14c, E17).
    ///
    /// Counts never exceed [`adpf_core::DEFAULT_SHARDS`], the *floor* of
    /// the derived shard count — so every sweep population has at least
    /// one shard per worker at every listed count.
    pub(crate) fn thread_counts(self) -> Vec<usize> {
        match self {
            Scale::Micro => vec![1, 2],
            Scale::Quick => vec![1, 2, 4],
            Scale::Full => vec![1, 2, 4, 8],
        }
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
        assert!(Scale::Quick.scaling_sizes().len() == 4);
        assert!(Scale::Quick.warmup_days() < Scale::Full.iphone(1).days as u64);
    }

    #[test]
    fn thread_counts_stay_within_the_shard_budget() {
        for scale in [Scale::Micro, Scale::Quick, Scale::Full] {
            let counts = scale.thread_counts();
            assert!(!counts.is_empty());
            assert_eq!(counts[0], 1, "sweeps start from the sequential baseline");
            assert!(counts.iter().all(|&t| t <= adpf_core::DEFAULT_SHARDS));
        }
    }

    #[test]
    fn full_matches_paper_population() {
        assert_eq!(Scale::Full.iphone(1).num_users, 1_693);
        assert_eq!(Scale::Full.windows_phone(1).num_users, 60);
    }
}
