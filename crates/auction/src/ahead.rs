//! Auctions sampled ahead: exchanges' bid draws, made on a helper thread
//! before the event loop asks for them.
//!
//! One auction's draws depend on the RNG state, the banked polar spare,
//! and what the gates of the exchange's one sampling loop, [`draw_bids`],
//! answer: whether each campaign's budget covers its mean price (its
//! entry), each campaign's pacing multiplier or throttle, and whether a
//! budget covers a bid. The helper runs that loop from a copy of the RNG
//! and spare under an *anchor*: a snapshot of every entry and every
//! campaign's [`Pace`] (and whether any of them is not unit, which the
//! loop asks once per draw), the reserve, and a small *thin* set of
//! campaigns whose budgets sit below the lane's cover. Throttle draws replay
//! against the snapshot, so each draw records its throttle skips. The
//! other campaigns are *covered*: their budget gates stay open, and the
//! draw records the largest bid one was asked about, its *need*. A thin
//! campaign is left out of the ranking, and the draw records its bid.
//!
//! The exchange commits a draw when the reserve is the one the draw saw
//! and the lowest covered budget is at least its need. Then every gate
//! of the loop here passes as it did ahead. The exchange merges each
//! thin bid its live budget affords, in catalog order (the leader is the
//! earliest maximum, the second price the maximum of the rest), so the
//! sale is the one the loop would make here. Installing the draw's
//! `rng_after` and `spare_after` leaves the stream where the loop would.
//!
//! Anything that would change the answers *re-anchors* the lane in place
//! at the exchange's current stream position: a pacing tick that moves
//! some campaign's `Pace`, a budget crossing its mean price either way,
//! a reseed or a rescale, and a *miss*, a draw that cannot be committed,
//! after which the exchange samples that auction itself. A re-anchor
//! hands every queued draw back unread and bumps the lane's epoch, so a
//! batch the helper was filling is thrown away. Contextual campaigns and
//! floors above the reserve are still sampled in place.
//!
//! One helper serves one engine worker: a [`BidSampler`] holds the
//! thread, and every exchange the worker drives registers a *lane* with
//! it, holding that exchange's RNG, spare, anchor, bids and batches. The
//! helper fills the lane with the fewest batches ready. A lane nobody
//! reads stays full, so the lane the worker is draining is the one
//! refilled, and however many engines a worker keeps alive, it adds one
//! thread.
//!
//! The helper never calls the allocator, to allocate or to free: the
//! exchange's thread allocates a lane's batches and the helper's copy of
//! its anchor when it registers the lane, batches circulate between the
//! two threads, re-anchoring reuses them, and when the lane is dropped
//! the exchange waits out any batch the helper is filling and frees them
//! itself. The handoff is a `Mutex` and a `Condvar`, which block on a
//! futex; `std::sync::mpsc` allocates on its first blocking receive.
//!
//! Helpers outlive their samplers. A dropped sampler ends its lanes and
//! parks its helper in an idle pool, and the next sampler takes it from
//! there, so a process runs at most as many helpers as it ever had
//! samplers at once. Every new thread allocates at start, which binds it
//! to a glibc malloc arena, the one the thread that ended last freed, so
//! threads started and ended per session trade arenas and each grows to
//! the largest working set among them: with a helper started and joined
//! per serve session, `serve-paced`'s per-session peak RSS crept from 16
//! to 20–24 MiB over six sessions, where it stays flat with a single
//! arena or with helpers kept. `adpf-serve` keeps its workers for the
//! same cause.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;

use crate::campaign::{Campaign, PreparedBid};
use crate::exchange::{draw_bids, Gates, Pace};

/// Draws per batch, at most: what one lock round trip hands over. A
/// serve worker keeps a lane per engine, and a short session never
/// reads what the helper queued, so batches stay small.
const BATCH: usize = 64;

/// Batches per lane: the one the exchange reads, the one the helper
/// fills, and one queued. The helper keeps every lane full, so a short
/// run leaves each lane's queue unread: with a fourth batch the
/// benchmark's `serve-paced` set-up, an eight-lane warm-up serve, took
/// 14 % longer than sampling in place, with three 0.5–7 %.
const BATCHES: usize = 3;

/// Most campaigns a lane checks at commit rather than ahead.
const THIN: usize = 4;

/// A campaign is thin when its budget is below this many times the
/// largest mean price, times its pacing multiplier, of the campaigns
/// that enter: a bid that far above a mean is more than four standard
/// deviations out at the catalogs' largest spread (`cv` 0.8), so
/// covered campaigns almost never miss.
const COVER: f64 = 16.0;

/// One auction's bids, sampled ahead.
#[derive(Debug)]
pub(crate) struct Draw {
    /// The leading covered campaign's index and bid.
    best: Option<(usize, f64)>,
    /// The second price over the covered campaigns, seeded with the
    /// reserve.
    second: f64,
    /// The largest bid any covered campaign's budget gate was asked
    /// about; every budget at or above it passes every one of them.
    need: f64,
    /// Throttle draws that left a campaign out.
    pub(crate) skips: u64,
    /// Each thin campaign's bid, in the lane's thin order; `NaN` where it
    /// made none, which no budget affords.
    thin: [f64; THIN],
    pub(crate) rng_after: StdRng,
    pub(crate) spare_after: Option<f64>,
}

/// How one campaign's gates answer under an anchor.
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// Whether the budget covered the mean price: the campaign takes part.
    enters: bool,
    /// The campaign's place in the lane's thin list, if it is thin.
    thin: Option<u8>,
    pace: Pace,
}

/// What a lane's draws are sampled under: the reserve, and each
/// campaign's [`Gate`], index-aligned with the catalog.
#[derive(Debug, Clone, Default)]
struct Params {
    reserve: f64,
    gates: Vec<Gate>,
    /// Whether some gate's pace is not unit: what [`Gates::paced`]
    /// answers for every draw under these params.
    paced: bool,
}

impl Params {
    /// Copies `other` into these params' own buffer, which never
    /// allocates: a lane's params all hold its catalog's length.
    fn copy_from(&mut self, other: &Params) {
        self.reserve = other.reserve;
        self.gates.copy_from_slice(&other.gates);
        self.paced = other.paced;
    }
}

/// The worker's side of an anchor: the params it computed, the thin
/// campaigns and the running minimum of the covered budgets.
#[derive(Debug)]
struct Anchor {
    params: Params,
    /// Thin campaigns' indices, in catalog order: `thin[k]`'s bid is
    /// [`Draw::thin`]`[k]`.
    thin: [usize; THIN],
    thins: usize,
    /// At most every covered budget since the anchor: lowered on each
    /// debit of a covered campaign, left alone on refunds.
    min_covered: f64,
}

impl Anchor {
    /// Snapshots `campaigns`' entries, `pace` and `reserve`, and picks the
    /// thin set: of the campaigns that enter with a budget under the
    /// cover, the [`THIN`] with the smallest budgets.
    fn set(&mut self, campaigns: &[Campaign], reserve: f64, pace: impl Fn(usize) -> Pace) {
        let p = &mut self.params;
        p.reserve = reserve;
        p.paced = false;
        let mut top = f64::NEG_INFINITY;
        for (i, (g, c)) in p.gates.iter_mut().zip(campaigns).enumerate() {
            let pace = pace(i);
            p.paced |= !pace.is_unit();
            let enters = c.can_afford(c.bid.mean_price);
            *g = Gate {
                enters,
                thin: None,
                pace,
            };
            if enters {
                top = top.max(c.bid.mean_price * pace.scale());
            }
        }
        let cover = COVER * top;
        // The smallest budgets under the cover, ascending; an insertion
        // that bubbles each candidate through the fixed array.
        let mut low = [(f64::INFINITY, usize::MAX); THIN];
        for (i, (g, c)) in p.gates.iter().zip(campaigns).enumerate() {
            if g.enters && c.budget < cover {
                let mut cand = (c.budget, i);
                for held in &mut low {
                    if cand.0 < held.0 {
                        std::mem::swap(held, &mut cand);
                    }
                }
            }
        }
        self.thins = low.iter().take_while(|(_, i)| *i != usize::MAX).count();
        let low = &mut low[..self.thins];
        low.sort_unstable_by_key(|&(_, i)| i);
        for (k, &(_, i)) in low.iter().enumerate() {
            self.thin[k] = i;
            p.gates[i].thin = Some(k as u8);
        }
        self.min_covered = campaigns
            .iter()
            .zip(&p.gates)
            .filter(|(_, g)| g.enters && g.thin.is_none())
            .map(|(c, _)| c.budget)
            .fold(f64::INFINITY, f64::min);
    }
}

/// The helper's gates under an anchor: entries and paces from the
/// snapshot, covered budgets open, thin bids recorded and left out.
struct Open<'a> {
    gates: &'a [Gate],
    paced: bool,
    need: f64,
    skips: u64,
    thin: [f64; THIN],
}

impl Gates for Open<'_> {
    #[inline]
    fn enters(&mut self, i: usize) -> bool {
        self.gates[i].enters
    }

    #[inline]
    fn affords(&mut self, i: usize, price: f64) -> bool {
        if let Some(k) = self.gates[i].thin {
            self.thin[usize::from(k)] = price;
            return false;
        }
        // `budget >= NaN` fails whatever the budget; any other price
        // passes every budget of at least `need`.
        if price.is_nan() {
            return false;
        }
        self.need = self.need.max(price);
        true
    }

    #[inline]
    fn paced(&self) -> bool {
        self.paced
    }

    #[inline]
    fn pace(&mut self, i: usize, rng: &mut StdRng) -> Option<f64> {
        self.gates[i].pace.apply(rng, &mut self.skips)
    }

    /// Unreachable with the entry floor at the reserve.
    #[inline]
    fn floor_blocked(&mut self) {}
}

/// Ranks one more valid bid into a sale: the leader is the earliest
/// maximum, and the second price the maximum of the rest.
#[inline]
fn rank(best: &mut Option<(usize, f64)>, second: &mut f64, i: usize, bid: f64) {
    match *best {
        Some((lead, b)) if bid < b || (bid == b && lead < i) => *second = second.max(bid),
        Some((_, b)) => {
            *second = second.max(b);
            *best = Some((i, bid));
        }
        None => *best = Some((i, bid)),
    }
}

/// Why a lane's next draw was not committed.
#[derive(Debug)]
pub(crate) enum Missed {
    /// The draw's gates would not all pass here: sample this auction in
    /// place, then re-anchor.
    Draw,
    /// The sampler is gone, or its helper would not start or died.
    Ended,
}

/// A committed draw and the sale it makes with the thin bids merged.
pub(crate) struct Committed<'a> {
    pub(crate) draw: &'a Draw,
    pub(crate) best: Option<(usize, f64)>,
    pub(crate) second: f64,
}

/// One engine worker's bid sampler: a helper thread, taken at the first
/// lane an exchange registers, that samples ahead for every exchange the
/// worker owns.
///
/// Dropping it ends the lanes still registered at their next batch
/// boundary, after which their exchanges sample in place, and returns
/// the helper to the idle pool.
#[derive(Debug)]
pub struct BidSampler(SamplerRef);

/// What an exchange keeps of a worker's [`BidSampler`]: the right to
/// register a lane with it while the sampler lives. Holds no thread.
#[derive(Debug, Clone)]
pub(crate) struct SamplerRef {
    shared: Arc<Shared>,
    /// The `State::generation` the sampler's lanes belong to.
    generation: u64,
}

/// Helpers no sampler holds, each waiting on its own `Shared`, plus
/// states whose helper has not been spawned yet.
static IDLE: Mutex<Vec<Arc<Shared>>> = Mutex::new(Vec::new());

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    /// Signals a change of `state`: a batch was queued or freed, a lane
    /// came, went or was re-anchored, the helper ended.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Registered lanes, by id; a dropped lane's id is reused.
    lanes: Vec<Option<Slot>>,
    /// The lane whose batch the helper is filling, outside the lock.
    filling: Option<usize>,
    /// Counts the samplers that held this state and are gone: lanes of
    /// an older generation end, and cannot be registered.
    generation: u64,
    /// Whether the helper was spawned; there is at most one per state.
    spawned: bool,
    /// The helper panicked, or could not be spawned.
    ended: bool,
}

/// A lane as the helper sees it.
#[derive(Debug)]
struct Slot {
    data: Arc<LaneData>,
    /// Where the lane's next draw starts.
    rng: StdRng,
    spare: Option<f64>,
    /// The current anchor's params.
    params: Params,
    /// The helper's copy of `params`, which it takes out under the lock
    /// and fills a batch under without it.
    scratch: Params,
    /// Filled batches, oldest first.
    full: VecDeque<Vec<Draw>>,
    /// Spent batches to refill.
    free: VecDeque<Vec<Draw>>,
}

/// What the helper reads while filling a lane's batch without the lock.
#[derive(Debug)]
struct LaneData {
    prepared: Vec<PreparedBid>,
    /// Counts the lane's re-anchors; changed only under the lock. A batch
    /// started under an older epoch is thrown away. `Relaxed` suffices:
    /// the helper decides under the lock, and its lock-free reads only
    /// stop a stale batch early; the value publishes nothing else.
    epoch: AtomicU64,
    /// The lane is being dropped or its sampler is gone: stop filling.
    cancel: AtomicBool,
}

impl LaneData {
    /// Whether a batch started at `epoch` should stop filling.
    #[inline]
    fn stale(&self, epoch: u64) -> bool {
        self.epoch.load(Ordering::Relaxed) != epoch || self.cancel.load(Ordering::Relaxed)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these locks is one push, pop, take, copy or
    // field store, so a panic elsewhere cannot leave the data half-changed.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(sh: &Shared, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    sh.changed
        .wait(guard)
        .unwrap_or_else(PoisonError::into_inner)
}

impl BidSampler {
    /// A sampler with no lane yet, holding an idle helper if there is
    /// one.
    pub fn new() -> Self {
        let shared = lock(&IDLE).pop().unwrap_or_default();
        let generation = lock(&shared.state).generation;
        Self(SamplerRef { shared, generation })
    }

    pub(crate) fn handle(&self) -> SamplerRef {
        self.0.clone()
    }
}

impl Default for BidSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for BidSampler {
    fn drop(&mut self) {
        let sh = &self.0.shared;
        let mut st = lock(&sh.state);
        st.generation += 1;
        for slot in st.lanes.iter().flatten() {
            slot.data.cancel.store(true, Ordering::Relaxed);
        }
        let reusable = !st.ended;
        drop(st);
        sh.changed.notify_all();
        if reusable {
            lock(&IDLE).push(Arc::clone(sh));
        }
    }
}

impl SamplerRef {
    /// Registers a lane sampling ahead from `rng` and `spare`, anchored
    /// at `campaigns`' budgets, `pace` and `reserve`, and spawns the
    /// helper if no lane ever had one. `None` once the sampler is dropped
    /// or its helper has ended.
    pub(crate) fn lane(
        &self,
        prepared: &[PreparedBid],
        campaigns: &[Campaign],
        rng: &StdRng,
        spare: Option<f64>,
        reserve: f64,
        pace: impl Fn(usize) -> Pace,
    ) -> Option<Lane> {
        let sh = &self.shared;
        let mut anchor = Anchor {
            params: Params {
                reserve,
                gates: vec![
                    Gate {
                        enters: false,
                        thin: None,
                        pace: Pace::Scale(1.0),
                    };
                    campaigns.len()
                ],
                paced: false,
            },
            thin: [0; THIN],
            thins: 0,
            min_covered: f64::INFINITY,
        };
        anchor.set(campaigns, reserve, pace);
        // Room for every batch in either queue, so a push never grows one.
        let mut free = VecDeque::with_capacity(BATCHES);
        free.extend((1..BATCHES).map(|_| Vec::with_capacity(BATCH)));
        let slot = Slot {
            data: Arc::new(LaneData {
                prepared: prepared.to_vec(),
                epoch: AtomicU64::new(0),
                cancel: AtomicBool::new(false),
            }),
            rng: rng.clone(),
            spare,
            params: anchor.params.clone(),
            scratch: anchor.params.clone(),
            full: VecDeque::with_capacity(BATCHES),
            free,
        };
        let current = Vec::with_capacity(BATCH);
        let mut st = lock(&sh.state);
        if st.generation != self.generation || st.ended {
            return None;
        }
        let id = match st.lanes.iter().position(Option::is_none) {
            Some(id) => id,
            None => {
                st.lanes.push(None);
                st.lanes.len() - 1
            }
        };
        st.lanes[id] = Some(slot);
        if !st.spawned {
            st.spawned = true;
            let helper = Arc::clone(sh);
            // Never joined: the helper serves sampler after sampler for
            // the life of the process (see the module docs).
            let spawned = std::thread::Builder::new()
                .name("bid-sampler".into())
                .spawn(move || sample(&helper));
            // The lane's first commit finds the helper ended.
            st.ended = spawned.is_err();
        }
        drop(st);
        sh.changed.notify_all();
        Some(Lane {
            sampler: self.clone(),
            id,
            current,
            pos: 0,
            anchor,
        })
    }
}

/// An exchange's lane on a worker's sampler. Dropping it unregisters
/// the lane and frees its batches on the dropping thread.
#[derive(Debug)]
pub(crate) struct Lane {
    sampler: SamplerRef,
    id: usize,
    /// The batch being committed, read from `pos` on.
    current: Vec<Draw>,
    pos: usize,
    anchor: Anchor,
}

impl Lane {
    /// The reserve, and entry floor, every draw is sampled under.
    pub(crate) fn reserve(&self) -> f64 {
        self.anchor.params.reserve
    }

    /// The next draw, committed against `campaigns`' live budgets, with
    /// the thin bids they afford merged in. Waits for the helper if it
    /// is behind, adding one to `waits` when it had to. [`Missed::Draw`]
    /// when a covered budget fell below the draw's need,
    /// [`Missed::Ended`] once the sampler is dropped or its helper ended.
    #[inline]
    pub(crate) fn commit(
        &mut self,
        campaigns: &[Campaign],
        waits: &mut u64,
    ) -> Result<Committed<'_>, Missed> {
        while self.pos == self.current.len() {
            self.swap_batch(waits).ok_or(Missed::Ended)?;
        }
        self.pos += 1;
        let draw = &self.current[self.pos - 1];
        let a = &self.anchor;
        // Neither is ever NaN: a NaN bid fails its gate unrecorded.
        if draw.need > a.min_covered {
            return Err(Missed::Draw);
        }
        let (mut best, mut second) = (draw.best, draw.second);
        for (&i, &bid) in a.thin[..a.thins].iter().zip(&draw.thin) {
            if campaigns[i].can_afford(bid) {
                rank(&mut best, &mut second, i, bid);
            }
        }
        Ok(Committed { draw, best, second })
    }

    /// Records a debit that left campaign `i` with `budget`, still at or
    /// above its mean price.
    #[inline]
    pub(crate) fn debited(&mut self, i: usize, budget: f64) {
        if self.anchor.params.gates[i].thin.is_none() {
            self.anchor.min_covered = self.anchor.min_covered.min(budget);
        }
    }

    /// Re-anchors the lane at the exchange's stream position `rng` and
    /// `spare`, under `campaigns`' budgets, `pace` and `reserve`: every
    /// queued draw goes back unread, and the helper starts over from
    /// there. Allocates nothing.
    pub(crate) fn reanchor(
        &mut self,
        campaigns: &[Campaign],
        rng: &StdRng,
        spare: Option<f64>,
        reserve: f64,
        pace: impl Fn(usize) -> Pace,
    ) {
        self.anchor.set(campaigns, reserve, pace);
        self.current.clear();
        self.pos = 0;
        let sh = &*self.sampler.shared;
        let mut st = lock(&sh.state);
        let slot = st.lanes[self.id]
            .as_mut()
            .expect("a live lane is registered");
        slot.data.epoch.fetch_add(1, Ordering::Relaxed);
        slot.rng.clone_from(rng);
        slot.spare = spare;
        slot.params.copy_from(&self.anchor.params);
        while let Some(stale) = slot.full.pop_front() {
            slot.free.push_back(stale);
        }
        drop(st);
        sh.changed.notify_all();
    }

    /// Hands the spent batch back for refilling and takes the next full
    /// one; `None` once the sampler is dropped or its helper has ended.
    fn swap_batch(&mut self, waits: &mut u64) -> Option<()> {
        let sh = &*self.sampler.shared;
        let mut st = lock(&sh.state);
        let spent = std::mem::take(&mut self.current);
        let slot = st.lanes[self.id]
            .as_mut()
            .expect("a live lane is registered");
        slot.free.push_back(spent);
        sh.changed.notify_all();
        let mut waited = false;
        self.current = loop {
            if st.generation != self.sampler.generation || st.ended {
                return None;
            }
            let slot = st.lanes[self.id]
                .as_mut()
                .expect("a live lane is registered");
            if let Some(batch) = slot.full.pop_front() {
                break batch;
            }
            if !waited {
                waited = true;
                *waits += 1;
            }
            st = wait(sh, st);
        };
        self.pos = 0;
        Some(())
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        let sh = &*self.sampler.shared;
        let slot = {
            let mut st = lock(&sh.state);
            if let Some(slot) = &st.lanes[self.id] {
                slot.data.cancel.store(true, Ordering::Relaxed);
            }
            // The batch being filled comes back within one draw.
            while st.filling == Some(self.id) && !st.ended {
                st = wait(sh, st);
            }
            st.lanes[self.id].take()
        };
        // Freed here, on the exchange's thread, never on the helper's.
        drop(slot);
    }
}

/// Marks the helper ended if it panics, so no exchange waits on a
/// helper that is gone.
struct Ended<'a>(&'a Shared);

impl Drop for Ended<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).ended = true;
        self.0.changed.notify_all();
    }
}

/// The live lane with a batch to fill and the fewest batches ready; the
/// first such from `from` on, wrapping, among equals.
fn next_to_fill(lanes: &[Option<Slot>], from: usize) -> Option<usize> {
    let n = lanes.len();
    (0..n)
        .map(|k| (from + k) % n)
        .filter_map(|id| Some((id, lanes[id].as_ref()?)))
        .filter(|(_, s)| !s.free.is_empty() && !s.data.cancel.load(Ordering::Relaxed))
        .min_by_key(|(_, s)| s.full.len())
        .map(|(id, _)| id)
}

/// The helper: fills lanes' free batches, emptiest lane first, for as
/// long as the process runs.
fn sample(sh: &Shared) {
    let _ended = Ended(sh);
    let mut st = lock(&sh.state);
    let mut from = 0;
    loop {
        let Some(id) = next_to_fill(&st.lanes, from) else {
            st = wait(sh, st);
            continue;
        };
        from = id + 1;
        let slot = st.lanes[id]
            .as_mut()
            .expect("picked among registered lanes");
        let mut batch = slot.free.pop_front().expect("picked for a free batch");
        // Taking the scratch out leaves an empty `Params`, which holds no
        // allocation; it goes back before the lane can be dropped.
        let mut params = std::mem::take(&mut slot.scratch);
        params.copy_from(&slot.params);
        let data = Arc::clone(&slot.data);
        let epoch = data.epoch.load(Ordering::Relaxed);
        let (mut rng, mut spare) = (slot.rng.clone(), slot.spare);
        st.filling = Some(id);
        drop(st);
        batch.clear();
        // Never past capacity: pushes stay allocation-free.
        while batch.len() < batch.capacity() && !data.stale(epoch) {
            let mut open = Open {
                gates: &params.gates,
                paced: params.paced,
                need: f64::NEG_INFINITY,
                skips: 0,
                thin: [f64::NAN; THIN],
            };
            let (best, second) = draw_bids(
                &data.prepared,
                &mut rng,
                &mut spare,
                None,
                params.reserve,
                params.reserve,
                &mut open,
            );
            batch.push(Draw {
                best,
                second,
                need: open.need,
                skips: open.skips,
                thin: open.thin,
                rng_after: rng.clone(),
                spare_after: spare,
            });
        }
        st = lock(&sh.state);
        let current = data.epoch.load(Ordering::Relaxed) == epoch;
        // A lane stays registered while it is being filled, so the slot
        // keeps a reference to `data` and this one is never the last.
        drop(data);
        let slot = st.lanes[id]
            .as_mut()
            .expect("a lane being filled stays registered");
        slot.scratch = params;
        if current {
            slot.full.push_back(batch);
            slot.rng = rng;
            slot.spare = spare;
        } else {
            // Sampled from before a re-anchor: nobody will read it.
            slot.free.push_back(batch);
        }
        st.filling = None;
        sh.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The sampling loop's ranking: every valid bid in catalog order.
    fn ranked(bids: impl Iterator<Item = (usize, f64)>, floor: f64) -> (Option<(usize, f64)>, f64) {
        let (mut best, mut second) = (None, floor);
        for (i, bid) in bids {
            match best {
                None => best = Some((i, bid)),
                Some((_, b)) if bid > b => {
                    second = b;
                    best = Some((i, bid));
                }
                Some(_) => second = second.max(bid),
            }
        }
        (best, second)
    }

    proptest! {
        /// Thin bids ranked in after the covered ones make the sale the
        /// loop makes from every bid in catalog order: the leader is the
        /// earliest maximum, the second price the maximum of the rest.
        /// Bids take one of three values, so ties are common.
        #[test]
        fn ahead_thin_bids_rank_in_as_the_loop_would(seed in any::<u64>(), n in 0usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            // `(index, bid, thin)` for each campaign that bids.
            let mut bids = Vec::new();
            for i in 0..n {
                if rng.gen_bool(0.8) {
                    let bid = [0.001, 0.002, 0.003][rng.gen_range(0..3usize)];
                    bids.push((i, bid, rng.gen_bool(0.4)));
                }
            }
            let floor = 0.0001;
            let want = ranked(bids.iter().map(|&(i, b, _)| (i, b)), floor);
            let covered = bids.iter().filter(|t| !t.2).map(|&(i, b, _)| (i, b));
            let (mut best, mut second) = ranked(covered, floor);
            for &(i, bid, _) in bids.iter().filter(|t| t.2) {
                rank(&mut best, &mut second, i, bid);
            }
            let bits = |(b, s): (Option<(usize, f64)>, f64)| (b.map(|(i, b)| (i, b.to_bits())), s.to_bits());
            prop_assert_eq!(bits((best, second)), bits(want));
        }
    }
}
