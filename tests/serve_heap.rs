//! The memory rule of the online server: it holds the state that is
//! live, not each client's high-water mark. A client's slot times and
//! reports since its last sync, the replicas waiting for its next sync
//! and the cancellations queued for it live in slabs per engine that
//! every client's queue shares, each engine's event queue is one heap,
//! and a routed event is 24 bytes, so what a session allocates above its
//! input is the engines, the mailbox and the live queue entries.
//!
//! The counting allocator of `heap/` tracks the bytes live in the
//! process and their high-water mark; the binary runs without the test
//! harness, so only the session's own threads allocate while it is
//! measured: `cargo test --test serve_heap`.

mod heap;

use adpf_core::SystemConfig;
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::PopulationConfig;

/// The population: iPhone-shaped over two days, the size of the
/// benchmark's saturated serve workload. Its 179,262 requests keep the
/// single worker behind the router, so the mailbox fills every run and
/// the reading repeats (smaller populations let it vary by run).
const USERS: u32 = 2_000;
const DAYS: u32 = 2;
const SEED: u64 = 1;
/// The benchmark's serve shape: 16 shards and one worker.
const SHARDS: usize = 16;

/// Ceiling on the session's high-water above its input, in bytes per
/// client; one heap per engine queue and every per-client queue in a
/// slab read ≈ 7,650. Restoring the queue's calendar ring (1,024 bucket
/// `Vec`s per engine) reads ≈ 8,890; keeping slot times and pending
/// reports in one `Vec` per client ≈ 7,940; both ≈ 9,190. With one `Vec`
/// per client's outbox on top ≈ 10,800, and 40-byte routed events with
/// every queue in `Vec`s ≈ 12,100.
const MAX_BYTES_PER_CLIENT: usize = 8_300;

fn main() {
    let config = SystemConfig::prefetch_default(1);
    let pop = PopulationConfig {
        num_users: USERS,
        days: DAYS,
        ..PopulationConfig::iphone_like(SEED)
    };
    let mut stream = Vec::new();
    let trace = pop.generate();
    write_events(&trace, config.ad_refresh, &mut stream).expect("in-memory write");
    let slots = trace.ad_slots(config.ad_refresh).len() as u64;
    drop(trace);
    let mut opts = ServeOptions::new(config);
    opts.threads = 1;
    opts.shards = Some(SHARDS);
    opts.error_sample = 0;

    let input = heap::start();
    let out = serve(&opts, stream.as_slice()).expect("a generated stream always ingests");
    let above = heap::high_water_above(input);
    assert_eq!((out.requests, out.ingest_errors), (slots, 0));
    assert_eq!(out.report.slots(), slots);

    let per_client = above / USERS as usize;
    println!(
        "serve_heap: {USERS} users, {slots} requests, {SHARDS} shards, 1 worker: \
         high-water +{above} B above the input = {per_client} B per client \
         (ceiling {MAX_BYTES_PER_CLIENT})"
    );
    assert!(
        per_client < MAX_BYTES_PER_CLIENT,
        "the session allocated {per_client} B per client above its input"
    );
}
