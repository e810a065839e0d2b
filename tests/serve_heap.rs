//! The memory rule of the online server: it holds the state that is
//! live, not each client's high-water mark. A client's slot times and
//! reports since its last sync, the replicas waiting for its next sync
//! and the cancellations queued for it live in slabs per engine that
//! every client's queue shares, each engine's event queue is one heap, a
//! client's cache gives back capacity as it empties, its rate history
//! is a multiset and its hour cells integers, and a cached ad and a
//! routed event are 16 bytes each, so what a session allocates above its
//! input is the engines, the mailbox and the live queue entries.
//!
//! The counting allocator of `heap/` tracks the bytes live in the
//! process and their high-water mark; the binary runs without the test
//! harness, so only the session's own threads allocate while it is
//! measured: `cargo test --test serve_heap`.

mod heap;
#[path = "heap/serve.rs"]
mod session;

use adpf_serve::CLIENT_BYTES;

/// The population: iPhone-shaped over two days, the size of the
/// benchmark's saturated serve workload. Its 179,262 requests keep the
/// single worker behind the router, so the mailbox fills every run and
/// the reading repeats (smaller populations let it vary by run).
const USERS: u32 = 2_000;
const DAYS: u32 = 2;
/// The benchmark's serve shape: 16 shards and one worker.
const SHARDS: usize = 16;

// The ceiling is `CLIENT_BYTES`, which the server also admits headers
// by. This population reads ≈ 5,540 B per client (±100 run to run).
// Undoing one part of this layout at a time adds: rate histories as a
// `VecDeque<f64>` with a sorted copy ≈ +760; 8-byte slot counts in the
// hour cells, the size the `f64` cells had, ≈ +95; caches kept at their
// high-water capacity ≈ +280 (shrinking at every display instead of
// only at a sync reads the same to ±15); 24-byte cached ads ≈ +270;
// 24-byte routed events ≈ +525. Without all five, the layout before
// them, ≈ 7,620; restoring the queue's calendar ring (1,024 bucket
// `Vec`s per engine) on top of that ≈ 8,890, and 40-byte routed events
// with every queue in `Vec`s ≈ 12,100.

fn main() {
    let r = session::serve_once(USERS, DAYS, SHARDS);
    println!(
        "serve_heap: {USERS} users, {} requests, {SHARDS} shards, 1 worker: \
         high-water above the input = {} B per client (ceiling {CLIENT_BYTES})",
        r.requests, r.per_client
    );
    assert!(
        (r.per_client as u64) < CLIENT_BYTES,
        "the session allocated {} B per client above its input",
        r.per_client
    );
}
