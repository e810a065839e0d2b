//! The shard index against the split it replaced: every shard copied
//! out of `Trace::shard_index(n)` equals `split_users(n)[i]` and the
//! per-shard push loop `split_users` ran before the index existed, on
//! random traces with ids at or above the population (dropped), empty
//! traces, `n = 0` and `n` above the population.

use adpf_desim::{SimDuration, SimTime};
use adpf_traces::{shard_ranges, AppId, Session, Trace, UserId};
use proptest::prelude::*;

/// The old split: each session routed by the `base`/`extra`/`wide`
/// arithmetic and pushed onto its shard's vector.
fn reference_split(t: &Trace, n_shards: usize) -> Vec<Trace> {
    let users = t.num_users() as usize;
    if users == 0 {
        return vec![Trace::new(Vec::new(), 0, t.horizon())];
    }
    let ranges = shard_ranges(t.num_users(), n_shards);
    let n = ranges.len();
    let base = users / n;
    let extra = users % n;
    let wide = (extra * (base + 1)) as u32;
    let mut per_shard: Vec<Vec<Session>> = vec![Vec::new(); n];
    for s in t.sessions() {
        let u = s.user().0;
        if u as usize >= users {
            continue;
        }
        let shard = if u < wide {
            (u as usize) / (base + 1)
        } else {
            extra + ((u - wide) as usize) / base
        };
        let mut s = *s;
        s.set_user(UserId(u - ranges[shard].start));
        per_shard[shard].push(s);
    }
    per_shard
        .into_iter()
        .zip(&ranges)
        .map(|(sessions, range)| Trace::new(sessions, range.end - range.start, t.horizon()))
        .collect()
}

/// Asserts the index, `split_users` and the reference agree shard for
/// shard.
fn check(t: &Trace, n_shards: usize) -> Result<(), TestCaseError> {
    let expected = reference_split(t, n_shards);
    prop_assert_eq!(expected.len(), shard_ranges(t.num_users(), n_shards).len());
    prop_assert_eq!(&t.split_users(n_shards), &expected);
    let index = t.shard_index(n_shards);
    for (i, shard) in expected.iter().enumerate() {
        prop_assert_eq!(&index.shard(i), shard);
    }
    Ok(())
}

fn session(user: u32, app: u16, start_s: u64, dur_s: u64) -> Session {
    Session::new(
        UserId(user),
        AppId(app),
        SimTime::from_secs(start_s),
        SimDuration::from_secs(dur_s),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_shards_match_the_push_loop(
        users in 0u32..30,
        n_shards in 0usize..40,
        raw in proptest::collection::vec((0u32..40, 0u16..4, 0u64..600, 1u64..120), 0..200),
        horizon_s in 0u64..2_000,
    ) {
        let sessions = raw.iter().map(|&(u, a, s, d)| session(u, a, s, d)).collect();
        let t = Trace::new(sessions, users, SimTime::from_secs(horizon_s));
        check(&t, n_shards)?;
    }
}

#[test]
fn degenerate_splits_match_the_push_loop() {
    let empty = Trace::new(Vec::new(), 0, SimTime::from_secs(5));
    let no_sessions = Trace::new(Vec::new(), 7, SimTime::ZERO);
    // Every id at or above the population: all dropped.
    let strays = Trace::new(
        vec![session(3, 0, 0, 10), session(9, 1, 4, 10)],
        3,
        SimTime::ZERO,
    );
    let two = Trace::new(
        vec![session(0, 0, 0, 10), session(1, 0, 5, 10)],
        2,
        SimTime::ZERO,
    );
    for t in [&empty, &no_sessions, &strays, &two] {
        for n in [0, 1, 2, 3, 100] {
            check(t, n).unwrap();
        }
    }
}
