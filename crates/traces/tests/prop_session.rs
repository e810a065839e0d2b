//! The packed 16-byte `Session` against the plain 24-byte struct it
//! replaced: every field round-trips at 0, at its limit and anywhere
//! between; one past a limit is an error that leaves the session as it
//! was; and `Trace::new` orders packed sessions exactly as the old stable
//! sort ordered the plain ones, on vectors whose few users, apps and
//! starts make exact `(start, user, app)` ties common (tied sessions
//! differ in their durations, so a reordered tie shows).

use adpf_desim::{SimDuration, SimTime};
use adpf_traces::{AppId, Session, Trace, UserId};
use proptest::prelude::*;

/// The session as it was: one field each, 24 bytes with padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plain {
    user: u32,
    app: u16,
    start_ms: u64,
    duration_ms: u64,
}

const _: () = assert!(std::mem::size_of::<Plain>() == 24);

impl Plain {
    fn pack(self) -> Session {
        Session::new(
            UserId(self.user),
            AppId(self.app),
            SimTime::from_millis(self.start_ms),
            SimDuration::from_millis(self.duration_ms),
        )
        .unwrap_or_else(|e| panic!("{self:?} must fit: {e}"))
    }

    fn unpack(s: &Session) -> Self {
        Self {
            user: s.user().0,
            app: s.app().0,
            start_ms: s.start().as_millis(),
            duration_ms: s.duration().as_millis(),
        }
    }
}

/// The old `Trace::new` sort: stable, by `(start, user, app)`.
fn stable_sort(mut sessions: Vec<Plain>) -> Vec<Plain> {
    sessions.sort_by_key(|s| (s.start_ms, s.user, s.app));
    sessions
}

/// Holds `Trace::new` on the packed sessions to the old sort.
fn check_sort(plain: Vec<Plain>) -> Result<(), TestCaseError> {
    let expected = stable_sort(plain.clone());
    let trace = Trace::new(plain.iter().map(|p| p.pack()).collect(), 0, SimTime::ZERO);
    let got: Vec<Plain> = trace.sessions().iter().map(Plain::unpack).collect();
    prop_assert_eq!(got, expected);
    Ok(())
}

/// Holds every accessor, `set_user` and `set_duration` to `p`.
fn check_round_trip(p: Plain) -> Result<(), TestCaseError> {
    let s = p.pack();
    prop_assert_eq!(Plain::unpack(&s), p);
    prop_assert_eq!(
        s.end().as_millis(),
        p.start_ms + p.duration_ms,
        "end of {:?}",
        p
    );
    // Renumbering and resetting each field alone leave the others.
    let mut t = s;
    t.set_user(UserId(!p.user));
    t.set_duration(SimDuration::from_millis(
        Session::MAX_DURATION_MS - p.duration_ms,
    ))
    .unwrap();
    let moved = Plain {
        user: !p.user,
        duration_ms: Session::MAX_DURATION_MS - p.duration_ms,
        ..p
    };
    prop_assert_eq!(Plain::unpack(&t), moved);
    t.set_user(UserId(p.user));
    t.set_duration(SimDuration::from_millis(p.duration_ms))
        .unwrap();
    prop_assert_eq!(t, s);
    Ok(())
}

/// A value at, beside or far from either end of `0..=max`.
fn edge_or_any(max: u64) -> impl Strategy<Value = u64> {
    (0u8..5, 0..=max).prop_map(move |(kind, any)| match kind {
        0 => 0,
        1 => 1,
        2 => max - 1,
        3 => max,
        _ => any,
    })
}

#[test]
fn every_field_round_trips_at_zero_and_at_its_limit() {
    for user in [0, u32::MAX] {
        for app in [0, u16::MAX] {
            for start_ms in [0, Session::MAX_START_MS] {
                for duration_ms in [0, u32::MAX as u64, 1 << 32, Session::MAX_DURATION_MS] {
                    check_round_trip(Plain {
                        user,
                        app,
                        start_ms,
                        duration_ms,
                    })
                    .unwrap();
                }
            }
        }
    }
}

#[test]
fn one_past_a_limit_is_an_error_naming_the_field() {
    let ok = Plain {
        user: 7,
        app: 3,
        start_ms: 1_000,
        duration_ms: 2_000,
    };
    let err = Session::new(
        UserId(ok.user),
        AppId(ok.app),
        SimTime::from_millis(Session::MAX_START_MS + 1),
        SimDuration::from_millis(ok.duration_ms),
    )
    .unwrap_err();
    let reason = err.to_string();
    assert!(reason.contains("start_ms"), "{reason}");
    assert!(
        reason.contains(&Session::MAX_START_MS.to_string()),
        "{reason}"
    );

    let err = Session::new(
        UserId(ok.user),
        AppId(ok.app),
        SimTime::from_millis(ok.start_ms),
        SimDuration::from_millis(Session::MAX_DURATION_MS + 1),
    )
    .unwrap_err();
    let reason = err.to_string();
    assert!(reason.contains("duration_ms"), "{reason}");
    assert!(
        reason.contains(&Session::MAX_DURATION_MS.to_string()),
        "{reason}"
    );

    // A rejected duration leaves the session as it was.
    let mut s = ok.pack();
    assert!(s
        .set_duration(SimDuration::from_millis(Session::MAX_DURATION_MS + 1))
        .is_err());
    assert_eq!(Plain::unpack(&s), ok);
}

#[test]
fn exact_ties_with_different_durations_keep_their_input_order() {
    // One key held by six sessions numbered by duration, among
    // neighbours that differ from it in one key field each, the user and
    // app ones in opposite directions: the sort must order by user before
    // app and leave the tied run as it came.
    let at = |user, app, start_ms, duration_ms| Plain {
        user,
        app,
        start_ms,
        duration_ms,
    };
    let mut plain = vec![
        at(1, 0, 500, 1),
        at(0, 9, 500, 2),
        at(0, 3, 499, 3),
        at(0, 3, 501, 4),
    ];
    plain.extend((0..6).rev().map(|i| at(0, 3, 500, 10 + i)));
    plain.push(at(0, 4, 500, 5));
    check_sort(plain).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fields_round_trip_anywhere_in_range(
        user in any::<u32>(),
        app in any::<u16>(),
        start_ms in edge_or_any(Session::MAX_START_MS),
        duration_ms in edge_or_any(Session::MAX_DURATION_MS),
    ) {
        check_round_trip(Plain { user, app, start_ms, duration_ms })?;
    }

    #[test]
    fn new_sorts_as_the_plain_stable_sort_did(
        order in 0u8..3,
        raw in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..4, edge_or_any(Session::MAX_DURATION_MS)),
            0..200,
        ),
    ) {
        // Three users, apps and starts, each picked from both ends of
        // its range, so ties are common and every key bit is in play.
        const USERS: [u32; 3] = [0, 1, u32::MAX];
        const APPS: [u16; 3] = [0, 1, u16::MAX];
        const STARTS: [u64; 4] = [0, 1, 1 << 32, Session::MAX_START_MS];
        let mut plain: Vec<Plain> = raw
            .iter()
            .map(|&(u, a, s, duration_ms)| Plain {
                user: USERS[u as usize],
                app: APPS[a as usize],
                start_ms: STARTS[s as usize],
                duration_ms,
            })
            .collect();
        match order {
            0 => {}
            1 => plain = stable_sort(plain),
            _ => {
                plain = stable_sort(plain);
                plain.reverse();
            }
        }
        check_sort(plain)?;
    }
}
