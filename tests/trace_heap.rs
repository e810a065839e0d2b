//! The memory rule of trace construction: building a trace holds it
//! once. Generation appends every block of users into one reserved
//! vector, and `Trace::new` sorts through a 4-byte index per session, so
//! what a build allocates above its start is the trace, the index and a
//! worker's block of scratch, never a second copy of the sessions.
//!
//! The counting allocator of `heap/` tracks the bytes live in the
//! process and their high-water mark; the binary runs without the test
//! harness, so only the build's own threads allocate while it is
//! measured: `cargo test --test trace_heap`.

mod heap;

use std::hint::black_box;

use adpf_core::scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_traces::{PopulationConfig, Trace};

/// Ceiling on a build's high-water above its start, in bytes per session
/// of the built trace. One buffer of 16-byte sessions, the 4-byte sort
/// index and the reservation's margin read 20.2–22.1; a stable sort's
/// scratch in place of the index reads 32.2–34.7, and per-block vectors
/// and their concatenated copy or a scenario shard's second vector each
/// add another 16.
const CEILING: f64 = 24.8;

/// Shards of the streamed builds.
const SHARDS: usize = 16;

/// The high-water of `build` above its start, in bytes per session of
/// the trace it returns.
fn per_session(build: impl FnOnce() -> Trace) -> f64 {
    let input = heap::start();
    let trace = black_box(build());
    let above = heap::high_water_above(input);
    above as f64 / trace.sessions().len() as f64
}

/// The largest reading over every shard of a `SHARDS`-way split.
fn largest_shard(shard: impl Fn(usize) -> Trace) -> f64 {
    (0..SHARDS)
        .map(|i| per_session(|| shard(i)))
        .fold(0.0, f64::max)
}

fn main() {
    // The benchmark's materialized population: 12,000 iPhone-shaped
    // users over two days, generated on two threads.
    let whole = PopulationConfig {
        num_users: 12_000,
        days: 2,
        ..PopulationConfig::iphone_like(1)
    };
    // The streamed workloads' unit of work: one shard of 3,000 users.
    let base = PopulationConfig {
        num_users: 3_000,
        ..whole.clone()
    };
    let mixed = ScenarioPopulation::new(base.clone(), ScenarioSpec::mixed());
    // The flash crowd's burst falls on day 4, so its population runs a
    // week: the burst sessions are appended to the clipped base ones.
    let flash = ScenarioPopulation::new(
        PopulationConfig {
            days: 7,
            ..base.clone()
        },
        ScenarioSpec::flash_crowd(),
    );
    let cases = [
        (
            "generate_parallel(2), 12,000 users",
            per_session(|| whole.generate_parallel(2)),
        ),
        (
            "generate_shard of 16, 3,000 users (largest)",
            largest_shard(|i| base.generate_shard(i, SHARDS)),
        ),
        (
            "mixed-scenario generate_shard of 16, 3,000 users (largest)",
            largest_shard(|i| mixed.generate_shard(i, SHARDS)),
        ),
        (
            "flash-crowd generate_shard of 16, 3,000 users × 7 days (largest)",
            largest_shard(|i| flash.generate_shard(i, SHARDS)),
        ),
    ];
    for (name, bytes) in &cases {
        println!(
            "trace_heap: {name}: high-water above the start = {bytes:.1} B per \
             session (ceiling {CEILING})"
        );
    }
    for (name, bytes) in cases {
        assert!(
            bytes <= CEILING,
            "{name}: building the trace allocated {bytes:.1} B per session"
        );
    }
}
