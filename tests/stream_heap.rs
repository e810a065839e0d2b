//! The memory rule of a streamed shard: it holds its sessions, its
//! client table and the slot state of its open sessions, never one entry
//! per slot. `Simulator::run_shards` pulls each shard's ad slots from its
//! sessions (`Trace::slots`) as it drives the engine, so no slot vector
//! is built, sorted or held for the shard's life.
//!
//! The counting allocator of `heap/` tracks the bytes live in the
//! process and their high-water mark; the binary runs without the test
//! harness, so only the run's own threads allocate while it is measured:
//! `cargo test --test stream_heap`.

mod heap;

use std::hint::black_box;

use adpf_core::{Simulator, SystemConfig};
use adpf_traces::PopulationConfig;

/// The population: iPhone-shaped over two days, as the benchmark's
/// streamed workloads, in four shards of 187 or 188 users, each
/// generated when a worker claims it.
const USERS: u32 = 750;
const DAYS: u32 = 2;
const SEED: u64 = 1;
const SHARDS: usize = 4;

/// Ceiling on the run's high-water above its input, in bytes per client
/// of a shard. Pulling the slots from the sessions reads ≈ 6,900 with
/// 16-byte sessions (≈ 7,100 with 24-byte ones, ≈ 7,550 while a shard's
/// session vector grew by doubling); a run that collects and sorts each
/// shard's slot vector reads ≈ 10,350.
const MAX_BYTES_PER_SHARD_CLIENT: usize = 8_800;

fn main() {
    let config = SystemConfig::prefetch_default(1);
    let pop = PopulationConfig {
        num_users: USERS,
        days: DAYS,
        ..PopulationConfig::iphone_like(SEED)
    };

    let input = heap::start();
    let report = black_box(Simulator::run_shards(&config, USERS, SHARDS, 1, |i| {
        pop.generate_shard(i, SHARDS)
    }));
    let above = heap::high_water_above(input);
    let slots: u64 = (0..SHARDS)
        .map(|i| {
            pop.generate_shard(i, SHARDS)
                .slots(config.ad_refresh)
                .count() as u64
        })
        .sum();
    assert_eq!(report.slots(), slots);

    let per_client = above / (USERS as usize / SHARDS);
    println!(
        "stream_heap: {USERS} users, {slots} slots, {SHARDS} shards, 1 worker: \
         high-water +{above} B above the input = {per_client} B per client of a shard \
         (ceiling {MAX_BYTES_PER_SHARD_CLIENT})"
    );
    assert!(
        per_client < MAX_BYTES_PER_SHARD_CLIENT,
        "a streamed shard allocated {per_client} B per client above its input"
    );
}
