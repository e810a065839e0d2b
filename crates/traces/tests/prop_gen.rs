//! Property-based tests for trace generation and serialization.

use adpf_desim::SimDuration;
use adpf_traces::{csv, PopulationConfig, Trace};
use proptest::prelude::*;

/// A small but varied population configuration.
fn arb_config() -> impl Strategy<Value = PopulationConfig> {
    (
        1u32..20,       // users
        1u32..6,        // days
        1u16..40,       // apps
        0.0f64..2.0,    // zipf exponent
        1.0f64..30.0,   // sessions/day
        20.0f64..400.0, // session secs
        any::<u64>(),   // seed
    )
        .prop_map(
            |(users, days, apps, zipf, rate, secs, seed)| PopulationConfig {
                num_users: users,
                days,
                num_apps: apps,
                app_zipf_exponent: zipf,
                mean_sessions_per_day: rate,
                mean_session_secs: secs,
                seed,
                ..PopulationConfig::small_test(0)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated traces satisfy their structural invariants for any
    /// (sane) configuration.
    #[test]
    fn generated_traces_are_well_formed(cfg in arb_config()) {
        let trace = cfg.generate();
        prop_assert_eq!(trace.num_users(), cfg.num_users);
        // Sorted by start time, all inside the horizon, valid ids.
        let mut last = None;
        for s in trace.sessions() {
            if let Some(prev) = last {
                prop_assert!(s.start() >= prev);
            }
            last = Some(s.start());
            prop_assert!(s.end() <= trace.horizon());
            prop_assert!(s.user().0 < cfg.num_users);
            prop_assert!(s.app().0 < cfg.num_apps);
            prop_assert!(!s.duration().is_zero());
        }
    }

    /// Slot derivation: every session contributes 1 + floor((len-1)/refresh)
    /// slots, and per-user partitions cover the whole stream.
    #[test]
    fn slot_derivation_counts(cfg in arb_config(), refresh_s in 5u64..120) {
        let trace = cfg.generate();
        let refresh = SimDuration::from_secs(refresh_s);
        let slots = trace.ad_slots(refresh);
        let expected: usize = trace
            .sessions()
            .iter()
            .map(|s| {
                let len = s.duration().as_millis();
                1 + ((len.saturating_sub(1)) / refresh.as_millis()) as usize
            })
            .sum();
        prop_assert_eq!(slots.len(), expected);
        let by_user = trace.slots_by_user(refresh);
        let partition_total: usize = by_user.iter().map(|v| v.len()).sum();
        prop_assert_eq!(partition_total, slots.len());
    }

    /// CSV round-trips preserve the exact trace for any generated input.
    #[test]
    fn csv_round_trip(cfg in arb_config()) {
        let trace = cfg.generate();
        let mut buf = Vec::new();
        csv::write_trace(&trace, &mut buf).unwrap();
        let back: Trace = csv::read_trace(&buf[..]).unwrap();
        prop_assert_eq!(trace, back);
    }
}
