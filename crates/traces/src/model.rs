//! Trace data model.

use core::cmp::Reverse;
use core::fmt;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use adpf_desim::{SimDuration, SimTime};

/// Identifier of one device/user in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Identifier of one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u16);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One foreground app session, packed into 16 bytes.
///
/// The start and the app share one word: the start in milliseconds sits
/// in its top 44 bits, the duration's top four bits below it, and the app
/// in the low 16. The user and the duration's low 32 bits fill the second
/// word. A start holds up to [`Session::MAX_START_MS`] (≈ 557 years) and
/// a duration up to [`Session::MAX_DURATION_MS`] (≈ 795 days); a value
/// past either is an error, never clamped.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// `start_ms << 20 | duration_ms >> 32 << 16 | app`.
    start_app: u64,
    user: u32,
    /// The duration's low 32 bits.
    duration_lo: u32,
}

const _: () = assert!(core::mem::size_of::<Session>() == 16);

/// Bits below the start in [`Session`]'s first word: the duration's top
/// four, then the app's 16.
const START_SHIFT: u32 = 20;
const APP_BITS: u32 = 16;

/// A session field past what [`Session`]'s layout holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimitError {
    field: &'static str,
    value: u64,
    limit: u64,
}

impl fmt::Display for SessionLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` {} is past a session's limit of {} ms",
            self.field, self.value, self.limit
        )
    }
}

impl std::error::Error for SessionLimitError {}

impl Session {
    /// The latest start a session holds: 2^44 − 1 ms, ≈ 557 years.
    pub const MAX_START_MS: u64 = u64::MAX >> START_SHIFT;
    /// The longest duration a session holds: 2^36 − 1 ms, ≈ 795 days.
    pub const MAX_DURATION_MS: u64 = (1 << 36) - 1;

    /// A session of `user` in `app` from `start` for `duration`.
    ///
    /// # Errors
    ///
    /// A start past [`Session::MAX_START_MS`] or a duration past
    /// [`Session::MAX_DURATION_MS`], named by its field.
    pub fn new(
        user: UserId,
        app: AppId,
        start: SimTime,
        duration: SimDuration,
    ) -> Result<Self, SessionLimitError> {
        let start = start.as_millis();
        if start > Self::MAX_START_MS {
            return Err(SessionLimitError {
                field: "start_ms",
                value: start,
                limit: Self::MAX_START_MS,
            });
        }
        let mut s = Self {
            start_app: (start << START_SHIFT) | u64::from(app.0),
            user: user.0,
            duration_lo: 0,
        };
        s.set_duration(duration)?;
        Ok(s)
    }

    /// Who used the app.
    pub fn user(&self) -> UserId {
        UserId(self.user)
    }

    /// Which app was in the foreground.
    pub fn app(&self) -> AppId {
        AppId(self.start_app as u16)
    }

    /// Foreground start time.
    pub fn start(&self) -> SimTime {
        SimTime::from_millis(self.start_app >> START_SHIFT)
    }

    /// Foreground duration.
    pub fn duration(&self) -> SimDuration {
        let high = (self.start_app >> APP_BITS) & 0xf;
        SimDuration::from_millis((high << 32) | u64::from(self.duration_lo))
    }

    /// End of the session.
    pub fn end(&self) -> SimTime {
        self.start() + self.duration()
    }

    /// Renumbers the session's user (a shard's local ids).
    pub fn set_user(&mut self, user: UserId) {
        self.user = user.0;
    }

    /// Sets the session's duration.
    ///
    /// # Errors
    ///
    /// A duration past [`Session::MAX_DURATION_MS`]; the session is left
    /// as it was.
    pub fn set_duration(&mut self, duration: SimDuration) -> Result<(), SessionLimitError> {
        let ms = duration.as_millis();
        if ms > Self::MAX_DURATION_MS {
            return Err(SessionLimitError {
                field: "duration_ms",
                value: ms,
                limit: Self::MAX_DURATION_MS,
            });
        }
        self.start_app = (self.start_app & !(0xf << APP_BITS)) | ((ms >> 32) << APP_BITS);
        self.duration_lo = ms as u32;
        Ok(())
    }

    /// The sort key of [`Trace::new`], `(start, user, app)`, with the
    /// input position last.
    fn sort_key(&self, position: u32) -> (u64, u32, u16, u32) {
        (
            self.start_app >> START_SHIFT,
            self.user,
            self.start_app as u16,
            position,
        )
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("user", &self.user())
            .field("app", &self.app())
            .field("start", &self.start())
            .field("duration", &self.duration())
            .finish()
    }
}

/// One displayable ad slot: the app showed (or could show) an ad at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdSlot {
    /// The user whose screen shows the ad.
    pub user: UserId,
    /// The app hosting the ad.
    pub app: AppId,
    /// When the slot occurs.
    pub time: SimTime,
}

/// The balanced contiguous user-id ranges of an `n_shards`-way population
/// split.
///
/// This is the single source of truth for shard boundaries: both
/// [`Trace::split_users`] (materialized splitting) and the streaming
/// generator (`PopulationConfig::generate_shard`) use it, which is what
/// makes the two pipelines cover byte-identical user ranges. Shard sizes
/// differ by at most one user, with the earlier shards taking the
/// remainder. `n_shards` is clamped to `[1, num_users]`; an empty
/// population yields a single empty range.
pub fn shard_ranges(num_users: u32, n_shards: usize) -> Vec<core::ops::Range<u32>> {
    let users = num_users as usize;
    // An empty population falls through to one 0..0 range: n clamps to
    // 1, base and extra are both 0.
    let n = n_shards.clamp(1, users.max(1));
    let base = (users / n) as u32;
    let extra = users % n;
    let mut ranges = Vec::with_capacity(n);
    let mut off = 0u32;
    for i in 0..n {
        let len = base + u32::from(i < extra);
        ranges.push(off..off + len);
        off += len;
    }
    ranges
}

/// Per-user slot times in a compact CSR (offsets + one flat array)
/// layout.
///
/// Replaces the `Vec<Vec<SimTime>>` per-user layout on the simulator hot
/// path: one allocation for the whole population instead of one per
/// user, and each user's slot times are a contiguous `&[SimTime]` slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserSlots {
    /// `offsets[u]..offsets[u + 1]` indexes `times` for user `u`.
    offsets: Vec<u32>,
    /// All slot times, grouped by user, time-ordered within each user.
    times: Vec<SimTime>,
}

impl UserSlots {
    /// Builds the CSR view from a time-ordered slot stream (as produced
    /// by [`Trace::ad_slots`]). Slots with out-of-range user ids are
    /// dropped.
    pub fn from_slots(slots: &[AdSlot], num_users: u32) -> Self {
        let n = num_users as usize;
        let mut counts = vec![0u32; n + 1];
        for slot in slots {
            let idx = slot.user.0 as usize;
            if idx < n {
                counts[idx + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut times = vec![SimTime::ZERO; counts[n] as usize];
        let mut cursor: Vec<u32> = counts[..n].to_vec();
        for slot in slots {
            let idx = slot.user.0 as usize;
            if idx < n {
                times[cursor[idx] as usize] = slot.time;
                cursor[idx] += 1;
            }
        }
        Self {
            offsets: counts,
            times,
        }
    }

    /// Number of users the view covers.
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Time-ordered slot times of user `u`.
    pub fn user(&self, u: usize) -> &[SimTime] {
        &self.times[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// A complete usage trace: sessions of a user population over a horizon.
///
/// Sessions are kept sorted by start time (ties by user, then app), which
/// every consumer — the event-driven simulator, the predictors, the
/// statistics — relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    sessions: Vec<Session>,
    num_users: u32,
    horizon: SimTime,
}

impl Trace {
    /// Builds a trace from raw sessions.
    ///
    /// Sessions are sorted by `(start, user, app)`, ties kept in input
    /// order; `num_users` is the population size (user ids must be
    /// `< num_users`); the horizon is extended to cover the last session
    /// end if needed.
    ///
    /// # Panics
    ///
    /// Panics if unsorted input holds more than `u32::MAX` sessions.
    pub fn new(mut sessions: Vec<Session>, num_users: u32, horizon: SimTime) -> Self {
        sort_sessions(&mut sessions);
        let last_end = sessions
            .iter()
            .map(|s| s.end())
            .max()
            .unwrap_or(SimTime::ZERO);
        Self {
            sessions,
            num_users,
            horizon: horizon.max(last_end),
        }
    }

    /// All sessions, sorted by start time.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The sessions, sorted by start time, without a copy.
    pub fn into_sessions(self) -> Vec<Session> {
        self.sessions
    }

    /// Number of users in the population (including users with no
    /// sessions).
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Trace end time.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of whole days covered (rounded up).
    pub fn days(&self) -> u32 {
        let ms = self.horizon.as_millis();
        ms.div_ceil(adpf_desim::time::MILLIS_PER_DAY) as u32
    }

    /// Sessions of one user, in time order.
    pub fn sessions_for(&self, user: UserId) -> impl Iterator<Item = &Session> {
        self.sessions.iter().filter(move |s| s.user() == user)
    }

    /// The ad-slot stream, pulled from the sessions: one slot at each
    /// session start plus one every `refresh` while the session lasts,
    /// in `(time, user)` order, ties in session order.
    ///
    /// A merge over the sessions still open: it holds one entry per open
    /// session, never one per slot, and sorts nothing.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds more than `u32::MAX` sessions.
    pub fn slots(&self, refresh: SimDuration) -> impl Iterator<Item = AdSlot> + '_ {
        assert!(
            u32::try_from(self.sessions.len()).is_ok(),
            "a slot stream addresses at most u32::MAX sessions"
        );
        Slots {
            sessions: &self.sessions,
            refresh,
            next: 0,
            open: BinaryHeap::new(),
        }
    }

    /// [`Trace::slots`] collected into a vector of exactly its length,
    /// counted in a first pass.
    pub fn ad_slots(&self, refresh: SimDuration) -> Vec<AdSlot> {
        let mut slots = Vec::with_capacity(self.slots(refresh).count());
        slots.extend(self.slots(refresh));
        slots
    }

    /// Per-user time-ordered slot times, indexed by user id.
    ///
    /// Convenient layout for the predictors and offline evaluations,
    /// which consume one user's slot stream at a time; the simulator
    /// itself consumes the compact [`UserSlots`] CSR view this is built
    /// from.
    pub fn slots_by_user(&self, refresh: SimDuration) -> Vec<Vec<SimTime>> {
        let csr = UserSlots::from_slots(&self.ad_slots(refresh), self.num_users);
        (0..csr.num_users()).map(|u| csr.user(u).to_vec()).collect()
    }

    /// Partitions the population into `n_shards` contiguous user-id
    /// ranges for sharded simulation.
    ///
    /// Shard `i` covers original users `[offset_i, offset_i + len_i)`
    /// (the ranges come from [`shard_ranges`], shared with the streaming
    /// generator), remapped to the dense range `0..len_i`, so each shard
    /// is itself a well-formed [`Trace`]. Shard sizes are balanced: they
    /// differ by at most one user, with the earlier shards taking the
    /// remainder. Every shard keeps the *global* horizon, so time-driven
    /// schedules (sync periods, expiry sweeps) run identically whether a
    /// user is simulated in the whole trace or in their shard.
    ///
    /// `n_shards` is clamped to `[1, num_users]` (an empty trace yields a
    /// single empty shard): a shard is never left without users.
    /// Concatenating the shards' users in shard order reconstructs the
    /// original user indexing, which is what report merging relies on to
    /// reassemble per-user series.
    ///
    /// Every shard is copied out of one [`Trace::shard_index`]; a caller
    /// that wants one shard at a time should take them from the index.
    pub fn split_users(&self, n_shards: usize) -> Vec<Trace> {
        let index = self.shard_index(n_shards);
        (0..index.ranges.len()).map(|i| index.shard(i)).collect()
    }

    /// Indexes this trace's sessions by shard of the `n_shards`-way
    /// split of [`Trace::split_users`], in one stable counting pass.
    ///
    /// The index costs 4 bytes per session; [`ShardIndex::shard`]
    /// copies out one shard when asked, so a sharded run holds the trace,
    /// the index and the shards in flight instead of the trace twice.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds more than `u32::MAX` sessions.
    pub fn shard_index(&self, n_shards: usize) -> ShardIndex<'_> {
        let ranges = shard_ranges(self.num_users, n_shards);
        let n = ranges.len();
        assert!(
            u32::try_from(self.sessions.len()).is_ok(),
            "a shard index addresses at most u32::MAX sessions"
        );
        // The one routing of a user to their shard: a lookup table laid
        // out from the ranges. Ids at or above the population have no
        // entry and are dropped.
        let mut shard_of = vec![0u32; self.num_users as usize];
        for (i, range) in ranges.iter().enumerate() {
            shard_of[range.start as usize..range.end as usize].fill(i as u32);
        }
        let route = |s: &Session| shard_of.get(s.user as usize).map(|&i| i as usize);
        let mut starts = vec![0u32; n + 1];
        for s in &self.sessions {
            if let Some(i) = route(s) {
                starts[i + 1] += 1;
            }
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts[..n].to_vec();
        let mut positions = vec![0u32; starts[n] as usize];
        for (p, s) in self.sessions.iter().enumerate() {
            if let Some(i) = route(s) {
                positions[cursor[i] as usize] = p as u32;
                cursor[i] += 1;
            }
        }
        ShardIndex {
            trace: self,
            ranges,
            starts,
            positions,
        }
    }
}

/// Sorts `sessions` by `(start, user, app)`, ties in input order: the
/// order a stable sort leaves, without its scratch copy of the sessions.
///
/// Input already in that order is left as it is after one pass. Otherwise
/// a `u32` index is sorted with the input position as the last key, so
/// every key is distinct and the unstable sort is exact, and the sessions
/// are then permuted in place by following the permutation's cycles. The
/// scratch is 4 bytes per session instead of a session's 16.
fn sort_sessions(sessions: &mut [Session]) {
    // Position 0 everywhere leaves the key `(start, user, app)` alone.
    if sessions
        .windows(2)
        .all(|w| w[0].sort_key(0) <= w[1].sort_key(0))
    {
        return;
    }
    let n = u32::try_from(sessions.len()).expect("a trace sorts at most u32::MAX sessions");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_unstable_by_key(|&i| sessions[i as usize].sort_key(i));
    // Position `p` takes the session at `order[p]`. Walking a cycle from
    // its first position, each position is written from the next one
    // along, which is still unwritten, and the cycle closes with the
    // saved first session; a written position is marked as a fixed point.
    for first in 0..sessions.len() {
        if order[first] as usize == first {
            continue;
        }
        let saved = sessions[first];
        let mut p = first;
        loop {
            let from = order[p] as usize;
            order[p] = p as u32;
            if from == first {
                sessions[p] = saved;
                break;
            }
            sessions[p] = sessions[from];
            p = from;
        }
    }
}

/// The iterator of [`Trace::slots`]: a merge of the sessions' slot runs.
///
/// Sessions open in trace order, which is `(start, user)` order, so the
/// next session to open always holds the least key among the unopened
/// ones. Each open session sits in a min-heap keyed `(time, user,
/// session index)` at the time of its next refresh slot; the index makes
/// equal `(time, user)` keys come out in session order, as a stable sort
/// of the sessions' slots would leave them.
struct Slots<'a> {
    sessions: &'a [Session],
    refresh: SimDuration,
    /// The first session not yet opened.
    next: usize,
    /// The open sessions that still have a slot to show.
    open: BinaryHeap<Reverse<(SimTime, UserId, u32)>>,
}

impl Iterator for Slots<'_> {
    type Item = AdSlot;

    fn next(&mut self) -> Option<AdSlot> {
        let opening = self
            .sessions
            .get(self.next)
            .map(|s| (s.start(), s.user(), self.next as u32));
        // The open session due first refreshes, unless the next session
        // opens before it.
        let refreshed = match self.open.peek_mut() {
            Some(mut top) if opening.is_none_or(|o| top.0 < o) => {
                let key = top.0;
                let later = key.0 + self.refresh;
                if later < self.sessions[key.2 as usize].end() {
                    top.0 .0 = later;
                } else {
                    PeekMut::pop(top);
                }
                Some(key)
            }
            _ => None,
        };
        let (time, user, i) = match refreshed {
            Some(key) => key,
            None => {
                let key = opening?;
                self.next += 1;
                let later = key.0 + self.refresh;
                if !self.refresh.is_zero() && later < self.sessions[key.2 as usize].end() {
                    self.open.push(Reverse((later, key.1, key.2)));
                }
                key
            }
        };
        Some(AdSlot {
            user,
            app: self.sessions[i as usize].app(),
            time,
        })
    }
}

/// A trace's sessions indexed by shard (see [`Trace::shard_index`]):
/// shard `i`'s sessions sit at `positions[starts[i]..starts[i + 1]]` of
/// the trace, in trace order.
#[derive(Debug)]
pub struct ShardIndex<'a> {
    trace: &'a Trace,
    ranges: Vec<core::ops::Range<u32>>,
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl ShardIndex<'_> {
    /// Copies out shard `i` as a trace of its own, users renumbered to
    /// `0..len_i`: exactly [`Trace::split_users`]`(n)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a shard of the clamped split.
    pub fn shard(&self, i: usize) -> Trace {
        let offset = self.ranges[i].start;
        let sessions = self.positions[self.starts[i] as usize..self.starts[i + 1] as usize]
            .iter()
            .map(|&p| {
                let mut s = self.trace.sessions[p as usize];
                s.user -= offset;
                s
            })
            .collect();
        // Already in `Trace::new`'s order: a subsequence of a sorted
        // trace, every user id shifted by the same offset. The global
        // horizon covers every session end.
        Trace {
            sessions,
            num_users: self.ranges[i].end - offset,
            horizon: self.trace.horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(user: u32, app: u16, start_s: u64, dur_s: u64) -> Session {
        Session::new(
            UserId(user),
            AppId(app),
            SimTime::from_secs(start_s),
            SimDuration::from_secs(dur_s),
        )
        .unwrap()
    }

    #[test]
    fn trace_sorts_sessions() {
        let t = Trace::new(vec![s(0, 0, 100, 10), s(1, 0, 50, 10)], 2, SimTime::ZERO);
        assert_eq!(t.sessions()[0].user(), UserId(1));
        assert_eq!(t.horizon(), SimTime::from_secs(110));
    }

    #[test]
    fn ad_slots_follow_refresh_rule() {
        // A 95 s session with 30 s refresh yields slots at 0, 30, 60, 90.
        let t = Trace::new(vec![s(0, 0, 0, 95)], 1, SimTime::ZERO);
        let slots = t.ad_slots(SimDuration::from_secs(30));
        let times: Vec<u64> = slots.iter().map(|x| x.time.as_millis() / 1000).collect();
        assert_eq!(times, vec![0, 30, 60, 90]);
    }

    #[test]
    fn session_shorter_than_refresh_yields_one_slot() {
        let t = Trace::new(vec![s(0, 0, 0, 10)], 1, SimTime::ZERO);
        assert_eq!(t.ad_slots(SimDuration::from_secs(30)).len(), 1);
    }

    #[test]
    fn exact_multiple_excludes_end_boundary() {
        // A 60 s session has slots at 0 and 30; the slot at t = 60 would be
        // at session end and is not shown.
        let t = Trace::new(vec![s(0, 0, 0, 60)], 1, SimTime::ZERO);
        assert_eq!(t.ad_slots(SimDuration::from_secs(30)).len(), 2);
    }

    #[test]
    fn zero_refresh_means_launch_only() {
        let t = Trace::new(vec![s(0, 0, 0, 600)], 1, SimTime::ZERO);
        assert_eq!(t.ad_slots(SimDuration::ZERO).len(), 1);
    }

    #[test]
    fn slots_by_user_partitions_slots() {
        let t = Trace::new(vec![s(0, 0, 0, 65), s(1, 1, 10, 5)], 2, SimTime::ZERO);
        let by_user = t.slots_by_user(SimDuration::from_secs(30));
        assert_eq!(by_user.len(), 2);
        assert_eq!(by_user[0].len(), 3);
        assert_eq!(by_user[1].len(), 1);
    }

    #[test]
    fn days_rounds_up() {
        let t = Trace::new(
            vec![s(0, 0, 0, 90_000)], // Ends at 25 h.
            1,
            SimTime::ZERO,
        );
        assert_eq!(t.days(), 2);
    }

    #[test]
    fn split_users_partitions_population_and_sessions() {
        // 7 users, uneven activity (user 5 has none), split 3 ways:
        // shard sizes 3/2/2 covering users 0-2, 3-4, 5-6.
        let sessions = vec![
            s(0, 0, 0, 10),
            s(1, 0, 5, 10),
            s(2, 1, 20, 10),
            s(3, 0, 30, 10),
            s(4, 2, 40, 10),
            s(6, 0, 50, 10),
            s(6, 1, 60, 10),
        ];
        let t = Trace::new(sessions, 7, SimTime::from_secs(1_000));
        let shards = t.split_users(3);
        assert_eq!(
            shards.iter().map(|s| s.num_users()).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        // Every session lands in exactly one shard.
        let total: usize = shards.iter().map(|s| s.sessions().len()).sum();
        assert_eq!(total, t.sessions().len());
        // User ids are dense within each shard, and mapping back through
        // the cumulative offsets recovers the original sessions.
        let mut offset = 0u32;
        let mut recovered = Vec::new();
        for shard in &shards {
            for sess in shard.sessions() {
                assert!(sess.user().0 < shard.num_users());
                let mut sess = *sess;
                sess.set_user(UserId(sess.user().0 + offset));
                recovered.push(sess);
            }
            assert_eq!(shard.horizon(), t.horizon(), "global horizon kept");
            offset += shard.num_users();
        }
        recovered.sort_by_key(|s| (s.start(), s.user()));
        assert_eq!(recovered, t.sessions());
    }

    #[test]
    fn split_users_preserves_slot_counts() {
        let sessions: Vec<Session> = (0..10).map(|u| s(u, 0, u as u64 * 100, 95)).collect();
        let t = Trace::new(sessions, 10, SimTime::ZERO);
        let refresh = SimDuration::from_secs(30);
        let whole = t.ad_slots(refresh).len();
        for n in [1, 2, 3, 10] {
            let sharded: usize = t
                .split_users(n)
                .iter()
                .map(|s| s.ad_slots(refresh).len())
                .sum();
            assert_eq!(sharded, whole, "slot count must survive a {n}-way split");
        }
    }

    #[test]
    fn split_users_clamps_shard_count() {
        let t = Trace::new(vec![s(0, 0, 0, 10), s(1, 0, 5, 10)], 2, SimTime::ZERO);
        assert_eq!(t.split_users(0).len(), 1, "zero shards clamps to one");
        assert_eq!(t.split_users(100).len(), 2, "never more shards than users");
        let empty = Trace::new(Vec::new(), 0, SimTime::from_secs(5));
        let shards = empty.split_users(4);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].num_users(), 0);
    }

    #[test]
    fn single_shard_split_is_the_whole_trace() {
        let t = Trace::new(vec![s(0, 0, 0, 10), s(1, 0, 5, 10)], 2, SimTime::ZERO);
        let shards = t.split_users(1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], t);
    }

    #[test]
    fn shard_ranges_agree_with_split_users() {
        for (users, n) in [(7u32, 3usize), (10, 2), (2, 100), (5, 1), (40, 8)] {
            let sessions: Vec<Session> = (0..users).map(|u| s(u, 0, u as u64 * 100, 95)).collect();
            let t = Trace::new(sessions, users, SimTime::ZERO);
            let shards = t.split_users(n);
            let ranges = shard_ranges(users, n);
            assert_eq!(shards.len(), ranges.len());
            for (shard, range) in shards.iter().zip(&ranges) {
                assert_eq!(shard.num_users(), range.end - range.start);
            }
            // Ranges are contiguous and cover the population exactly.
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, users);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn shard_ranges_handles_empty_population() {
        assert_eq!(shard_ranges(0, 4), vec![0..0]);
        assert_eq!(shard_ranges(1, 4), vec![0..1]);
    }

    #[test]
    fn user_slots_drops_out_of_range_ids() {
        let slots = [AdSlot {
            user: UserId(9),
            app: AppId(0),
            time: SimTime::from_secs(1),
        }];
        let csr = UserSlots::from_slots(&slots, 2);
        assert!(csr.times.is_empty());
    }

    #[test]
    fn sessions_for_filters_by_user() {
        let t = Trace::new(
            vec![s(0, 0, 0, 10), s(1, 0, 5, 10), s(0, 1, 20, 10)],
            2,
            SimTime::ZERO,
        );
        assert_eq!(t.sessions_for(UserId(0)).count(), 2);
        assert_eq!(t.sessions_for(UserId(1)).count(), 1);
    }
}
