//! Auctions sampled ahead: an exchange's bid draws, made on a helper
//! thread before the event loop asks for them.
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
//! the loop would. Otherwise the exchange drops the helper and samples
//! the auction itself, from a stream that still sits before it.
//!
//! The helper never calls the allocator: the exchange's thread allocates
//! every batch and both queues before spawning it, batches circulate
//! between the two threads, and the last reference to them is the
//! exchange's. The handoff is a `Mutex` + `Condvar`, which block on a
//! futex; `std::sync::mpsc` allocates on its first blocking receive.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use rand::rngs::StdRng;

use crate::campaign::{Campaign, PreparedBid};
use crate::exchange::{draw_bids, Gates};

/// Draws per batch: what one lock round trip hands over.
const BATCH: usize = 256;

/// Batches in circulation: the one the exchange reads, the one the
/// helper fills, and two queued.
const BATCHES: usize = 4;

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

/// The exchange's handle on its helper. Dropping it stops and joins the
/// helper.
#[derive(Debug)]
pub(crate) struct Sampler {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    /// The batch being committed, read from `pos` on.
    current: Vec<Draw>,
    pos: usize,
    /// The reserve, and entry floor, every draw was sampled under.
    pub(crate) reserve: f64,
    /// At most every campaign budget since the helper started: lowered
    /// on each debit, left alone on refunds.
    pub(crate) min_budget: f64,
}

#[derive(Debug)]
struct Shared {
    prepared: Vec<PreparedBid>,
    /// Each campaign's mean bid, the price its entry gate checks.
    mean_prices: Vec<f64>,
    /// Set under `queues`' lock, so a helper about to wait sees it; also
    /// polled without the lock between draws.
    stop: AtomicBool,
    queues: Mutex<Queues>,
    /// Signals either side: a batch was queued, or the helper ended or
    /// must stop. At most one side waits at a time.
    changed: Condvar,
}

#[derive(Debug)]
struct Queues {
    /// Filled batches, oldest first.
    full: VecDeque<Vec<Draw>>,
    /// Spent batches for the helper to refill.
    free: VecDeque<Vec<Draw>>,
    /// The helper returned, normally or not.
    ended: bool,
}

fn lock(m: &Mutex<Queues>) -> MutexGuard<'_, Queues> {
    // Every update of `Queues` is one push, pop or flag store, so a
    // panic elsewhere cannot leave it half-changed.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Sampler {
    /// Starts a helper sampling ahead from `rng` and `spare`, or `None`
    /// when the thread cannot be spawned.
    pub(crate) fn spawn(
        prepared: &[PreparedBid],
        campaigns: &[Campaign],
        rng: &StdRng,
        spare: Option<f64>,
        reserve: f64,
    ) -> Option<Self> {
        let mut free = VecDeque::with_capacity(BATCHES);
        free.extend((1..BATCHES).map(|_| Vec::with_capacity(BATCH)));
        let shared = Arc::new(Shared {
            prepared: prepared.to_vec(),
            mean_prices: campaigns.iter().map(|c| c.bid.mean_price).collect(),
            stop: AtomicBool::new(false),
            queues: Mutex::new(Queues {
                full: VecDeque::with_capacity(BATCHES),
                free,
                ended: false,
            }),
            changed: Condvar::new(),
        });
        let helper = Arc::clone(&shared);
        let rng = rng.clone();
        let thread = std::thread::Builder::new()
            .name("bid-sampler".into())
            .spawn(move || sample(&helper, rng, spare, reserve))
            .ok()?;
        Some(Self {
            shared,
            thread: Some(thread),
            current: Vec::with_capacity(BATCH),
            pos: 0,
            reserve,
            min_budget: campaigns
                .iter()
                .map(|c| c.budget)
                .fold(f64::INFINITY, f64::min),
        })
    }

    /// The next draw, waiting for the helper if it is behind; `None`
    /// once the helper has ended.
    pub(crate) fn next(&mut self) -> Option<&Draw> {
        while self.pos == self.current.len() {
            let sh = &*self.shared;
            let mut q = lock(&sh.queues);
            q.free.push_back(std::mem::take(&mut self.current));
            sh.changed.notify_one();
            self.current = loop {
                if let Some(batch) = q.full.pop_front() {
                    break batch;
                }
                if q.ended {
                    return None;
                }
                q = sh.changed.wait(q).unwrap_or_else(PoisonError::into_inner);
            };
            self.pos = 0;
        }
        self.pos += 1;
        Some(&self.current[self.pos - 1])
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let q = lock(&self.shared.queues);
        self.shared.stop.store(true, Ordering::Relaxed);
        drop(q);
        self.shared.changed.notify_one();
        if let Some(thread) = self.thread.take() {
            // A helper that panicked has nothing left to report.
            let _ = thread.join();
        }
    }
}

/// Marks the helper ended however it returns, so the exchange never
/// waits on a helper that is gone.
struct Ended<'a>(&'a Shared);

impl Drop for Ended<'_> {
    fn drop(&mut self) {
        lock(&self.0.queues).ended = true;
        self.0.changed.notify_one();
    }
}

/// The helper: fills free batches with draws, sampled under `reserve`,
/// until told to stop.
fn sample(sh: &Shared, mut rng: StdRng, mut spare: Option<f64>, reserve: f64) {
    let _ended = Ended(sh);
    let mut q = lock(&sh.queues);
    loop {
        let mut batch = loop {
            if sh.stop.load(Ordering::Relaxed) {
                return;
            }
            if let Some(batch) = q.free.pop_front() {
                break batch;
            }
            q = sh.changed.wait(q).unwrap_or_else(PoisonError::into_inner);
        };
        drop(q);
        batch.clear();
        // Never past capacity: pushes stay allocation-free.
        while batch.len() < batch.capacity() && !sh.stop.load(Ordering::Relaxed) {
            let mut open = Open {
                mean_prices: &sh.mean_prices,
                need: f64::NEG_INFINITY,
            };
            let (best, second) = draw_bids(
                &sh.prepared,
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
        q = lock(&sh.queues);
        q.full.push_back(batch);
        sh.changed.notify_one();
    }
}
