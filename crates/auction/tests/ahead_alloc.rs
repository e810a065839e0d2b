//! The allocation rule of auctions sampled ahead: once the helper
//! thread has started, neither it nor the exchange committing its draws
//! calls the allocator.
//!
//! A counting global allocator sees every allocation and free of every
//! thread in the process. The binary runs without the test harness
//! (`harness = false`), so no harness thread allocates beside the
//! exchange: `cargo test -p adpf-auction --test ahead_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
use adpf_desim::SimTime;
use adpf_obs::MetricRegistry;

/// Allocator calls (allocations, reallocations and frees) so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

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
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Auctions committed after the helper's first batch.
const AUCTIONS: u64 = 20_000;

fn main() {
    let mut ex = Exchange::new(CampaignCatalog::synthetic(50, 7).into_campaigns(), 7);
    ex.enable_sample_ahead();
    let slot = SlotOffer::realtime(SimTime::ZERO, None);
    // Starts the helper and waits for its first batch, so whatever the
    // thread does once at start-up is behind us.
    black_box(ex.run_auction(&slot));
    let started = CALLS.load(Ordering::SeqCst);

    // Only the helper runs: it fills every free batch, then waits.
    std::thread::sleep(Duration::from_millis(100));
    let helper_alone = CALLS.load(Ordering::SeqCst) - started;

    // Committing draws hands spent batches back for refilling.
    for _ in 0..AUCTIONS {
        black_box(ex.run_auction(&slot));
    }
    let committing = CALLS.load(Ordering::SeqCst) - started - helper_alone;

    let reg = MetricRegistry::new();
    ex.publish(&reg);
    assert_eq!(
        reg.counter_value("proc.auction.ahead_auctions"),
        AUCTIONS + 1,
        "every auction was sampled ahead"
    );
    assert_eq!(reg.counter_value("proc.auction.ahead_fallbacks"), 0);
    assert_eq!(helper_alone, 0, "allocator calls while only the helper ran");
    assert_eq!(
        committing, 0,
        "allocator calls over {AUCTIONS} committed auctions"
    );
}
