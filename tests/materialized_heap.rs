//! The memory rule of a materialized sharded run: `Simulator::run_trace`
//! holds the trace once. It indexes the trace by shard and copies each
//! shard out only when a worker claims it, so what the run allocates
//! above its input is the index and the shards in flight, never a second
//! copy of every session.
//!
//! A counting global allocator tracks the bytes live in the process and
//! their high-water mark. The binary runs without the test harness
//! (`harness = false`), so only the run's own threads allocate while it
//! is measured: `cargo test --test materialized_heap`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use adpf_core::{Simulator, SystemConfig};
use adpf_traces::{PopulationConfig, Session};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`LIVE`] since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The population: iPhone-shaped, as the benchmark's materialized
/// workload, over a week, so that the session bytes outweigh the
/// per-shard reports a run keeps until its merge.
const USERS: u32 = 2_000;
const DAYS: u32 = 7;
const SEED: u64 = 1;

/// Ceiling on the run's high-water above its input, as a share of the
/// trace's session bytes. A run that splits the whole trace up front
/// holds a second copy of every session and cannot read under 1.
const MAX_SHARE: f64 = 1.0;

fn main() {
    let pop = PopulationConfig {
        num_users: USERS,
        days: DAYS,
        ..PopulationConfig::iphone_like(SEED)
    };
    let trace = pop.generate();
    let session_bytes = std::mem::size_of_val(trace.sessions());
    let config = SystemConfig::realtime(1);

    let input = LIVE.load(Ordering::SeqCst);
    PEAK.store(input, Ordering::SeqCst);
    let report = black_box(Simulator::run_trace(&config, &trace, 2));
    let above = PEAK.load(Ordering::SeqCst) - input;
    assert_eq!(
        report.slots(),
        trace.ad_slots(config.ad_refresh).len() as u64
    );

    let share = above as f64 / session_bytes as f64;
    println!(
        "materialized_heap: {} sessions ({session_bytes} B, {} B each), \
         high-water +{above} B above the input = {share:.3} of the session bytes \
         (ceiling {MAX_SHARE})",
        trace.sessions().len(),
        std::mem::size_of::<Session>(),
    );
    assert!(
        share < MAX_SHARE,
        "run_trace allocated {share:.3}× the trace's session bytes above its input"
    );
}
