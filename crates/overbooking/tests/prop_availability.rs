//! Property tests pinning the incremental availability evaluators to the
//! closed-form reference implementations.
//!
//! The simulator's determinism contract demands *bit-identical* reports,
//! so these tests assert exact `f64` equality (`to_bits`), not tolerance:
//! [`RunningTail`] and [`BurstyTail`] (the engine's placement kernel),
//! [`PoissonTailSeries`] and [`AvailabilityCache`] must be pure
//! memoizations of [`poisson_tail`] and [`display_probability_bursty`],
//! never "close enough" approximations.

use adpf_overbooking::availability::{
    display_probability_bursty, poisson_tail, AvailabilityCache, BurstyTail, PoissonTailSeries,
    RunningTail,
};
use proptest::prelude::*;

/// Asserts exact bitwise equality with a readable failure message.
macro_rules! assert_bits_eq {
    ($got:expr, $want:expr, $($ctx:tt)*) => {{
        let (got, want): (f64, f64) = ($got, $want);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: got {got:e}, want {want:e}",
            format_args!($($ctx)*)
        );
    }};
}

/// Rates from every regime the closed form distinguishes: degenerate
/// (zero of either sign, negative), NaN, subnormal, the whole normal
/// range down to where `exp(-lambda)` rounds to 1 and up to where it
/// underflows (745), and the workload's own few-sessions range.
fn any_lambda() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..1.0, any::<u64>()).prop_map(|(sel, unit, bits)| match sel {
        0 => 0.0,
        1 => -0.0,
        2 => -unit * 10.0,
        3 => f64::NAN,
        4 => f64::from_bits(1 + bits % ((1u64 << 52) - 1)), // Subnormal.
        5 | 6 => 10f64.powf(-300.0 + unit * 302.872).min(745.0),
        _ => unit * 50.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The running tail asked for a `k` sequence that only grows — what
    /// the engine does within a sync — and for one with a fall in it (the
    /// restart) always matches the direct summation bit for bit.
    #[test]
    fn running_tail_matches_direct_tail_growing_and_after_a_fall(
        lambda in any_lambda(),
        steps in prop::collection::vec(0u32..6, 1..40),
        fall_at in 0usize..40,
        fall_to in 0u32..8,
    ) {
        let mut tail = RunningTail::new(lambda);
        let mut k = 0u32;
        for (i, step) in steps.into_iter().enumerate() {
            // About half the cases have `fall_at` inside the sequence.
            k = if i == fall_at { k.min(fall_to) } else { k + step };
            assert_bits_eq!(
                tail.tail(k),
                poisson_tail(k, lambda),
                "query {i}: tail(k={k}, lambda={lambda:e})"
            );
        }
    }

    /// Scoring a client the way the engine does — one `BurstyTail`,
    /// asked again at every deeper queue — answers exactly what the
    /// memoizing cache it replaced answers, zero, negative, NaN and
    /// underflowing expectations included.
    #[test]
    fn running_tail_scores_what_the_cache_scores(
        dispersion in (0u8..7, 0.0f64..1.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => 1.0,
            2 => 1.0 + raw * 2.0, // Above the clamp range.
            _ => raw,
        }),
        clients in prop::collection::vec(
            (0u8..8, 0.0f64..200.0, 0.0f64..12.0, 0u32..20, 1usize..6).prop_map(
                |(sel, raw, per_raw, queued, sales)| {
                    let expected = match sel {
                        0 => 0.0,
                        1 => -raw,
                        2 => f64::NAN,
                        3 => f64::from_bits(1), // The session rate underflows to zero.
                        _ => raw,
                    };
                    // sel 4: sub-1.0 slots-per-session (the max(1.0) clamp).
                    let per_session = if sel == 4 { per_raw / 12.0 } else { per_raw.max(1.0) };
                    (expected, per_session, queued, sales)
                },
            ),
            1..40,
        ),
    ) {
        let mut cache = AvailabilityCache::new(dispersion);
        for (expected, per_session, queued, sales) in clients {
            let mut tail = BurstyTail::new(expected, per_session, dispersion);
            for depth in queued..queued + sales as u32 {
                assert_bits_eq!(
                    tail.prob(depth),
                    cache.display_probability_bursty(expected, depth, per_session),
                    "expected={expected:e}, depth={depth}, per_session={per_session}, \
                     dispersion={dispersion}"
                );
            }
        }
    }

    /// A series queried at arbitrary `k` values — out of order, with
    /// repeats — always matches the direct summation bit for bit.
    #[test]
    fn series_matches_direct_tail_in_any_query_order(
        // Mostly positive rates, with zero and negative (degenerate)
        // cases mixed in via the selector byte.
        lambda in (0u8..5, 0.0f64..50.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => -raw / 10.0,
            _ => raw,
        }),
        ks in prop::collection::vec(0u32..64, 1..40),
    ) {
        let mut series = PoissonTailSeries::new(lambda);
        for k in ks {
            assert_bits_eq!(
                series.tail(k),
                poisson_tail(k, lambda),
                "tail(k={k}, lambda={lambda})"
            );
        }
    }

    /// The memoizing cache agrees exactly with the free function across
    /// random workload-shaped inputs, including the `lambda = 0` and
    /// `queued_ahead > 0` edges, under repeated (cache-hitting) queries.
    #[test]
    fn cache_matches_free_function_exactly(
        // In-range dispersions plus the 0, 1, and above-clamp edges.
        dispersion in (0u8..7, 0.0f64..1.0).prop_map(|(sel, raw)| match sel {
            0 => 0.0,
            1 => 1.0,
            2 => 1.0 + raw * 2.0, // Above the clamp range.
            _ => raw,
        }),
        queries in prop::collection::vec(
            (0u8..5, 0.0f64..200.0, 0u32..20, 0.0f64..12.0).prop_map(
                |(sel, expected, queued, per_raw)| {
                    // sel 0: zero expected slots (lambda = 0 edge);
                    // sel 1: sub-1.0 slots-per-session (the max(1.0) clamp).
                    let expected = if sel == 0 { 0.0 } else { expected };
                    let per_session = if sel == 1 { per_raw / 12.0 } else { per_raw.max(1.0) };
                    (expected, queued, per_session)
                },
            ),
            1..60,
        ),
    ) {
        let mut cache = AvailabilityCache::new(dispersion);
        // Two passes: the second re-asks every query so answers served
        // from warm series prefixes are checked too.
        for pass in 0..2 {
            for &(expected, queued, per_session) in &queries {
                assert_bits_eq!(
                    cache.display_probability_bursty(expected, queued, per_session),
                    display_probability_bursty(expected, queued, per_session, dispersion),
                    "pass {pass}: expected={expected}, queued={queued}, \
                     per_session={per_session}, dispersion={dispersion}"
                );
            }
        }
        // Counters only tick for queries that reach the series map
        // (the lambda = 0 short-circuit bypasses it).
        let reaching = queries
            .iter()
            .filter(|&&(expected, _, per_session)| {
                dispersion.clamp(0.0, 1.0) * expected.max(0.0) / per_session.max(1.0) > 0.0
            })
            .count();
        let (hits, misses) = cache.stats();
        prop_assert_eq!((hits + misses) as usize, reaching * 2);
    }
}

/// Deterministic spot-check of the edges the ISSUE calls out, plus the
/// hit-counting that makes the cache worth having.
#[test]
fn cache_reuses_series_across_queue_depths() {
    let mut cache = AvailabilityCache::new(0.7);
    // Same rate inputs, varying queue depth: one miss then all hits.
    for queued in 0..10u32 {
        let got = cache.display_probability_bursty(24.0, queued, 5.0);
        let want = display_probability_bursty(24.0, queued, 5.0, 0.7);
        assert_eq!(got.to_bits(), want.to_bits(), "queued={queued}");
    }
    let (hits, misses) = cache.stats();
    assert_eq!((hits, misses), (9, 1));

    // lambda = 0 short-circuits without touching the map.
    assert_eq!(cache.display_probability_bursty(0.0, 3, 5.0), 0.0);
    assert_eq!(cache.stats(), (9, 1));
}
