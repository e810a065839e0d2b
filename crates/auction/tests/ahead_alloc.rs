//! The allocation rule of auctions sampled ahead: once a worker's
//! helper thread has started, neither it nor the exchanges committing
//! its draws call the allocator, and the helper never frees, not even
//! when a lane is dropped. A paced lane's pacing ticks re-anchor it in
//! place, and that allocates nothing either.
//!
//! A counting global allocator sees every allocation and free of every
//! thread in the process, and tells the main thread's apart from the
//! rest. The binary runs without the test harness (`harness = false`),
//! so the only other thread is the helper:
//! `cargo test -p adpf-auction --test ahead_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adpf_auction::{BidSampler, CampaignCatalog, Exchange, MarketplaceConfig, SlotOffer};
use adpf_desim::SimTime;
use adpf_obs::MetricRegistry;

/// Allocator calls (allocations, reallocations and frees) so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Frees (and reallocations) made by any thread but the main one.
static OFF_MAIN_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the main thread only. Constant-initialized and without a
    /// destructor, so reading it never allocates.
    static ON_MAIN: Cell<bool> = const { Cell::new(false) };
}

fn count_free() {
    if !ON_MAIN.with(Cell::get) {
        OFF_MAIN_FREES.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        count_free();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        count_free();
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Auctions committed after the helpers' first batches, in all.
const AUCTIONS: u64 = 20_000;

/// Run lengths the exchanges take turns with: single auctions, partial
/// batches, and runs past the 192 draws a lane holds, which make the
/// exchange wait for the helper.
const RUNS: [u64; 6] = [1, 300, 17, 1_500, 255, 700];

/// The paced exchange's auctions between pacing ticks.
const TICK_EVERY: u64 = 250;

/// Allocator calls since `from`.
fn calls_since(from: u64) -> u64 {
    CALLS.load(Ordering::SeqCst) - from
}

fn main() {
    ON_MAIN.with(|m| m.set(true));
    let sampler = BidSampler::new();
    let lane = |seed: u64| {
        let mut ex = Exchange::new(CampaignCatalog::synthetic(50, seed).into_campaigns(), seed);
        ex.sample_ahead_on(&sampler);
        ex
    };
    let (mut a, mut b) = (lane(7), lane(8));
    // A paced exchange, ticked early and late in its schedule in turn:
    // every tick moves some campaign's pace, which re-anchors its lane.
    let mut paced = {
        let mut ex = lane(9);
        let mc = MarketplaceConfig::paced();
        let types = mc.assign_types(ex.campaigns());
        ex.configure_marketplace(&mc, &types);
        ex
    };
    let horizon = SimTime::from_hours(48);
    let mut paced_auctions = 0u64;
    let mut run_paced = |ex: &mut Exchange, slot: &SlotOffer| {
        black_box(ex.run_auction(slot));
        paced_auctions += 1;
        if paced_auctions.is_multiple_of(TICK_EVERY) {
            let early = paced_auctions.is_multiple_of(2 * TICK_EVERY);
            let now = if early {
                SimTime::from_millis(1)
            } else {
                horizon
            };
            ex.pacing_tick(now, horizon);
        }
    };
    let slot = SlotOffer::realtime(SimTime::ZERO, None);
    // Registers the lanes and starts the helper, then gives it time to
    // fill them, so whatever the thread does once at start-up is behind
    // us; the auctions after that leave it spent batches to refill.
    black_box(a.run_auction(&slot));
    black_box(b.run_auction(&slot));
    run_paced(&mut paced, &slot);
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..100 {
        black_box(a.run_auction(&slot));
        black_box(b.run_auction(&slot));
        run_paced(&mut paced, &slot);
    }
    let helper_frees = OFF_MAIN_FREES.load(Ordering::SeqCst);

    // Only the helper runs: it refills every free batch of both lanes,
    // then waits.
    let from = CALLS.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    let helper_alone = calls_since(from);

    // The exchanges take turns, as a serve worker's engines do; spent
    // batches go back for refilling.
    let from = CALLS.load(Ordering::SeqCst);
    let mut committed = 0;
    for (k, run) in RUNS.iter().cycle().enumerate() {
        if committed >= AUCTIONS / 2 {
            break;
        }
        for _ in 0..*run {
            match k % 3 {
                0 => {
                    black_box(a.run_auction(&slot));
                }
                1 => {
                    black_box(b.run_auction(&slot));
                }
                _ => run_paced(&mut paced, &slot),
            }
        }
        committed += run;
    }
    let interleaved = calls_since(from);

    let reg = MetricRegistry::new();
    b.publish(&reg);
    assert_eq!(
        reg.counter_value("proc.auction.ahead_auctions"),
        b.auctions_run(),
        "every auction of the dropped lane was sampled ahead"
    );
    // Dropping `b` drops its lane: its batches are freed here, on the
    // main thread, after any batch the helper was filling comes back.
    drop(b);

    // The remaining lanes go on without it.
    let from = CALLS.load(Ordering::SeqCst);
    for k in committed..AUCTIONS {
        if k % 2 == 0 {
            black_box(a.run_auction(&slot));
        } else {
            run_paced(&mut paced, &slot);
        }
    }
    let alone = calls_since(from);
    let helper_frees = OFF_MAIN_FREES.load(Ordering::SeqCst) - helper_frees;

    for ex in [&a, &paced] {
        let reg = MetricRegistry::new();
        ex.publish(&reg);
        assert_eq!(
            reg.counter_value("proc.auction.ahead_auctions"),
            ex.auctions_run(),
            "every auction was sampled ahead"
        );
        assert_eq!(reg.counter_value("proc.auction.ahead_fallbacks"), 0);
    }
    let reg = MetricRegistry::new();
    paced.publish(&reg);
    let reanchors = reg.counter_value("proc.auction.ahead_reanchors");
    assert!(
        reanchors * TICK_EVERY >= paced.auctions_run() / 2,
        "{reanchors} re-anchors over {} paced auctions",
        paced.auctions_run()
    );
    assert_eq!(helper_alone, 0, "allocator calls while only the helper ran");
    assert_eq!(
        interleaved, 0,
        "allocator calls over {committed} interleaved committed auctions"
    );
    assert_eq!(
        alone,
        0,
        "allocator calls over {} committed auctions after a lane was dropped",
        AUCTIONS - committed
    );
    assert_eq!(helper_frees, 0, "frees on the helper thread");
}
