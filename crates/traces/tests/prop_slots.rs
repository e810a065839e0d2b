//! The pulled slot stream against the push-and-sort it replaced:
//! `Trace::slots` yields, and `Trace::ad_slots` collects at exactly its
//! length, the slots the old body pushed session by session and then
//! stably sorted by `(time, user)`, on random traces with same-user
//! overlapping sessions, equal `(start, user)` pairs, zero durations,
//! durations at and beside exact refresh multiples, and refresh 0.

use adpf_desim::{SimDuration, SimTime};
use adpf_traces::{AdSlot, AppId, PopulationConfig, Session, Trace, UserId};
use proptest::prelude::*;

/// The old `Trace::ad_slots`: every session's slots pushed in session
/// order, then a stable sort by `(time, user)`.
fn push_and_sort(t: &Trace, refresh: SimDuration) -> Vec<AdSlot> {
    let mut slots = Vec::new();
    for s in t.sessions() {
        slots.push(AdSlot {
            user: s.user,
            app: s.app,
            time: s.start,
        });
        if !refresh.is_zero() {
            let mut t = s.start + refresh;
            while t < s.end() {
                slots.push(AdSlot {
                    user: s.user,
                    app: s.app,
                    time: t,
                });
                t += refresh;
            }
        }
    }
    slots.sort_by(|a, b| a.time.cmp(&b.time).then(a.user.cmp(&b.user)));
    slots
}

/// Holds both readers of the stream to the reference.
fn check(t: &Trace, refresh: SimDuration) -> Result<(), TestCaseError> {
    let expected = push_and_sort(t, refresh);
    prop_assert_eq!(&t.slots(refresh).collect::<Vec<_>>(), &expected);
    let collected = t.ad_slots(refresh);
    prop_assert_eq!(collected.capacity(), collected.len());
    prop_assert_eq!(&collected, &expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slots_match_the_push_and_sort(
        refresh_kind in 0u8..4,
        refresh_ms in 1u64..5_000,
        raw in proptest::collection::vec(
            (0u32..4, 0u16..3, 0u64..40, 0u8..4, 0u64..6, 0u64..20_000),
            0..60,
        ),
    ) {
        let refresh = SimDuration::from_millis(match refresh_kind {
            0 => 0,
            1 => 1_000,
            2 => 30_000,
            _ => refresh_ms,
        });
        let r = refresh.as_millis();
        // Starts on a 500 ms grid and four users, so equal `(start,
        // user)` pairs and same-user overlaps are common; durations are
        // zero, a refresh multiple, one beside one, or anything.
        let sessions = raw
            .iter()
            .map(|&(user, app, start, kind, mult, any)| {
                let duration = match kind {
                    0 => 0,
                    1 => mult * r,
                    2 => (mult * r + 1).saturating_sub(2 * (any % 2)),
                    _ => any,
                };
                Session {
                    user: UserId(user),
                    app: AppId(app),
                    start: SimTime::from_millis(start * 500),
                    duration: SimDuration::from_millis(duration),
                }
            })
            .collect();
        let t = Trace::new(sessions, 4, SimTime::ZERO);
        check(&t, refresh)?;
    }
}

#[test]
fn generated_populations_and_their_shards_match_the_push_and_sort() {
    let refresh = SimDuration::from_secs(30);
    for seed in [1, 7, 23] {
        let trace = PopulationConfig::small_test(seed).generate();
        check(&trace, refresh).unwrap();
        for shard in trace.split_users(3) {
            check(&shard, refresh).unwrap();
        }
    }
}

#[test]
fn an_empty_trace_has_no_slots() {
    let t = Trace::new(Vec::new(), 3, SimTime::from_secs(5));
    assert_eq!(t.slots(SimDuration::from_secs(30)).next(), None);
    assert_eq!(t.ad_slots(SimDuration::ZERO).capacity(), 0);
}
