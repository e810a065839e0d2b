//! Auctions sampled ahead: exchanges' bid draws, made on a helper thread
//! before the event loop asks for them.
//!
//! In a static marketplace (no pacers, no targeted campaign, no floor
//! above the reserve) one auction's draws depend on three things: the
//! RNG state, the banked polar spare, and whether each budget covers the
//! prices the loop checks it against. The helper runs the exchange's one
//! sampling loop, [`draw_bids`], from a copy of the RNG and spare with
//! every budget gate open, and records with each draw the largest price
//! a gate was asked about, plus the RNG state and spare after it.
//!
//! The exchange commits a draw when every budget is at least that need
//! and the reserve is the one the draw saw. Then each gate the loop
//! would evaluate passes, so the draw is the one the loop would make,
//! and installing its `rng_after`/`spare_after` leaves the stream where
//! the loop would. Otherwise the exchange drops its lane and samples
//! the auction itself, from a stream that still sits before it.
//!
//! One helper serves one engine worker: a [`BidSampler`] holds the
//! thread, and every exchange the worker drives registers a *lane* with
//! it, holding that exchange's RNG, spare, bids and batches. The helper
//! fills the lane with the fewest batches ready. A lane nobody reads
//! stays full, so the lane the worker is draining is the one refilled,
//! and however many engines a worker keeps alive, it adds one thread.
//!
//! The helper never calls the allocator, to allocate or to free: the
//! exchange's thread allocates a lane's batches when it registers the
//! lane, batches circulate between the two threads, and when the lane is
//! dropped the exchange waits out any batch the helper is filling and
//! frees them itself. The handoff is a `Mutex` + `Condvar`, which block
//! on a futex; `std::sync::mpsc` allocates on its first blocking receive.
//!
//! Helpers outlive their samplers. A dropped sampler ends its lanes and
//! parks its helper in an idle pool, and the next sampler takes it from
//! there, so a process runs at most as many helpers as it ever had
//! samplers at once. Every new thread allocates at start, which binds it
//! to a glibc malloc arena: with a helper started and joined per serve
//! session, `serve-paced`'s per-session peak RSS crept from 16 to 20–24
//! MiB over six sessions, where it stays flat with a single arena or
//! with helpers kept.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;

use crate::campaign::{Campaign, PreparedBid};
use crate::exchange::{draw_bids, Gates};

/// Draws per batch: what one lock round trip hands over. An exchange's
/// first auction on a new lane waits for a whole batch, and a serve
/// worker starts a lane per engine, so batches stay small.
const BATCH: usize = 64;

/// Batches per lane: the one the exchange reads, the one the helper
/// fills, and one queued. The helper keeps every lane full, so a short
/// run leaves each lane's queue unread: with a fourth batch the
/// benchmark's `serve-paced` set-up, an eight-lane warm-up serve, took
/// 14 % longer than sampling in place, with three 0.5–7 %.
const BATCHES: usize = 3;

/// One auction's bids, sampled ahead.
#[derive(Debug)]
pub(crate) struct Draw {
    /// The leading campaign's index and bid.
    pub(crate) best: Option<(usize, f64)>,
    /// The second price, seeded with the reserve.
    pub(crate) second: f64,
    /// The largest price any budget gate of the draw was asked about;
    /// every budget at or above it passes every one of them.
    pub(crate) need: f64,
    pub(crate) rng_after: StdRng,
    pub(crate) spare_after: Option<f64>,
}

/// Every budget gate open, recording what it would have needed.
struct Open<'a> {
    mean_prices: &'a [f64],
    need: f64,
}

impl Gates for Open<'_> {
    #[inline]
    fn enters(&mut self, i: usize) -> bool {
        self.affords(i, self.mean_prices[i])
    }

    #[inline]
    fn affords(&mut self, _: usize, price: f64) -> bool {
        // `budget >= NaN` fails whatever the budget; any other price
        // passes every budget of at least `need`.
        if price.is_nan() {
            return false;
        }
        self.need = self.need.max(price);
        true
    }

    #[inline]
    fn pace(&mut self, _: usize, _: &mut StdRng) -> Option<f64> {
        Some(1.0)
    }

    /// Unreachable with the entry floor at the reserve.
    #[inline]
    fn floor_blocked(&mut self) {}
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
    /// came or is going, the helper ended.
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
    /// The reserve, and entry floor, every draw is sampled under.
    reserve: f64,
    /// Filled batches, oldest first.
    full: VecDeque<Vec<Draw>>,
    /// Spent batches to refill.
    free: VecDeque<Vec<Draw>>,
}

/// What the helper reads while filling a lane's batch without the lock.
#[derive(Debug)]
struct LaneData {
    prepared: Vec<PreparedBid>,
    /// Each campaign's mean bid, the price its entry gate checks.
    mean_prices: Vec<f64>,
    /// The lane is being dropped or its sampler is gone: stop filling.
    cancel: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these locks is one push, pop, take or field
    // store, so a panic elsewhere cannot leave the data half-changed.
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
    /// Registers a lane sampling ahead from `rng` and `spare`, spawning
    /// the helper if no lane ever had one. `None` once the sampler is
    /// dropped or its helper has ended.
    pub(crate) fn lane(
        &self,
        prepared: &[PreparedBid],
        campaigns: &[Campaign],
        rng: &StdRng,
        spare: Option<f64>,
        reserve: f64,
    ) -> Option<Lane> {
        let sh = &self.shared;
        // Room for every batch in either queue, so a push never grows one.
        let mut free = VecDeque::with_capacity(BATCHES);
        free.extend((1..BATCHES).map(|_| Vec::with_capacity(BATCH)));
        let slot = Slot {
            data: Arc::new(LaneData {
                prepared: prepared.to_vec(),
                mean_prices: campaigns.iter().map(|c| c.bid.mean_price).collect(),
                cancel: AtomicBool::new(false),
            }),
            rng: rng.clone(),
            spare,
            reserve,
            full: VecDeque::with_capacity(BATCHES),
            free,
        };
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
            // The lane's first `next` finds the helper ended.
            st.ended = spawned.is_err();
        }
        drop(st);
        sh.changed.notify_all();
        Some(Lane {
            sampler: self.clone(),
            id,
            current: Vec::with_capacity(BATCH),
            pos: 0,
            reserve,
            min_budget: campaigns
                .iter()
                .map(|c| c.budget)
                .fold(f64::INFINITY, f64::min),
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
    /// The reserve, and entry floor, every draw was sampled under.
    pub(crate) reserve: f64,
    /// At most every campaign budget since the lane started: lowered on
    /// each debit, left alone on refunds.
    pub(crate) min_budget: f64,
}

impl Lane {
    /// The next draw, waiting for the helper if it is behind and adding
    /// one to `waits` when it had to; `None` once the sampler is dropped
    /// or its helper has ended.
    #[inline]
    pub(crate) fn next(&mut self, waits: &mut u64) -> Option<&Draw> {
        while self.pos == self.current.len() {
            self.swap_batch(waits)?;
        }
        self.pos += 1;
        Some(&self.current[self.pos - 1])
    }

    /// Hands the spent batch back for refilling and takes the next full
    /// one.
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
        let data = Arc::clone(&slot.data);
        let (mut rng, mut spare, reserve) = (slot.rng.clone(), slot.spare, slot.reserve);
        st.filling = Some(id);
        drop(st);
        batch.clear();
        // Never past capacity: pushes stay allocation-free.
        while batch.len() < batch.capacity() && !data.cancel.load(Ordering::Relaxed) {
            let mut open = Open {
                mean_prices: &data.mean_prices,
                need: f64::NEG_INFINITY,
            };
            let (best, second) = draw_bids(
                &data.prepared,
                &mut rng,
                &mut spare,
                None,
                reserve,
                reserve,
                &mut open,
            );
            batch.push(Draw {
                best,
                second,
                need: open.need,
                rng_after: rng.clone(),
                spare_after: spare,
            });
        }
        st = lock(&sh.state);
        // A lane stays registered while it is being filled, so the slot
        // keeps a reference to `data` and this one is never the last.
        drop(data);
        let slot = st.lanes[id]
            .as_mut()
            .expect("a lane being filled stays registered");
        slot.full.push_back(batch);
        slot.rng = rng;
        slot.spare = spare;
        st.filling = None;
        sh.changed.notify_all();
    }
}
