//! `Trace::new`'s sort against the stable `sort_by` it replaced: the
//! sessions come out in the same order, ties on `(start, user, app)` in
//! input order, on random session vectors whose few users, apps and start
//! times make exact ties common (tied sessions differ in their
//! durations, so a reordered tie shows), fed in as drawn, presorted and
//! reversed, and on empty and one-session inputs.

use adpf_desim::{SimDuration, SimTime};
use adpf_traces::{AppId, Session, Trace, UserId};
use proptest::prelude::*;

/// The old `Trace::new` sort: stable, by `(start, user, app)`.
fn stable_sort(mut sessions: Vec<Session>) -> Vec<Session> {
    sessions.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(a.user.cmp(&b.user))
            .then(a.app.cmp(&b.app))
    });
    sessions
}

/// Holds `Trace::new` to the reference on `sessions`.
fn check(sessions: Vec<Session>) -> Result<(), TestCaseError> {
    let expected = stable_sort(sessions.clone());
    let trace = Trace::new(sessions, 3, SimTime::ZERO);
    prop_assert_eq!(trace.sessions(), &expected[..]);
    Ok(())
}

fn session(user: u32, app: u16, start_s: u64, dur_ms: u64) -> Session {
    Session {
        user: UserId(user),
        app: AppId(app),
        start: SimTime::from_secs(start_s),
        duration: SimDuration::from_millis(dur_ms),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn new_sorts_as_the_stable_sort_did(
        order in 0u8..3,
        raw in proptest::collection::vec(
            (0u32..3, 0u16..2, 0u64..6, 1u64..1_000_000),
            0..300,
        ),
    ) {
        let mut sessions: Vec<Session> = raw
            .iter()
            .map(|&(user, app, start, dur)| session(user, app, start, dur))
            .collect();
        match order {
            0 => {}
            1 => sessions = stable_sort(sessions),
            _ => {
                sessions = stable_sort(sessions);
                sessions.reverse();
            }
        }
        check(sessions)?;
    }
}

#[test]
fn empty_and_one_session_inputs_sort_as_the_stable_sort_did() {
    check(Vec::new()).unwrap();
    check(vec![session(2, 1, 7, 30)]).unwrap();
}

#[test]
fn a_reversed_run_of_exact_ties_keeps_its_input_order() {
    // Sixty sessions on one key, numbered by duration, behind a later
    // one: the sort must move the later one last and leave the run as
    // it came.
    let mut sessions = vec![session(1, 0, 9, 1)];
    sessions.extend((0..60).rev().map(|i| session(0, 0, 3, 10 + i)));
    check(sessions).unwrap();
}
