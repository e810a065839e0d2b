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

/// Ceiling on a build's high-water above its start, as a share of the
/// built trace's session bytes. One buffer, the sort index and the
/// reservation's margin read 1.18–1.29; per-block vectors, their
/// concatenated copy and a stable sort's scratch read 2.45 whole and up
/// to 3.02 per shard, and a scenario shard's second vector up to 4.04
/// (mixed) and 4.91 (flash crowd, whose bursts grew it by doubling).
const CEILING: f64 = 1.4;

/// Shards of the streamed builds.
const SHARDS: usize = 16;

/// The high-water of `build` above its start, as a share of the session
/// bytes of the trace it returns.
fn share(build: impl FnOnce() -> Trace) -> f64 {
    let input = heap::start();
    let trace = black_box(build());
    let above = heap::high_water_above(input);
    above as f64 / std::mem::size_of_val(trace.sessions()) as f64
}

/// The largest share over every shard of a `SHARDS`-way split.
fn largest_shard_share(shard: impl Fn(usize) -> Trace) -> f64 {
    (0..SHARDS).map(|i| share(|| shard(i))).fold(0.0, f64::max)
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
            share(|| whole.generate_parallel(2)),
        ),
        (
            "generate_shard of 16, 3,000 users (largest)",
            largest_shard_share(|i| base.generate_shard(i, SHARDS)),
        ),
        (
            "mixed-scenario generate_shard of 16, 3,000 users (largest)",
            largest_shard_share(|i| mixed.generate_shard(i, SHARDS)),
        ),
        (
            "flash-crowd generate_shard of 16, 3,000 users × 7 days (largest)",
            largest_shard_share(|i| flash.generate_shard(i, SHARDS)),
        ),
    ];
    for (name, share) in &cases {
        println!(
            "trace_heap: {name}: high-water above the start = {share:.3} of the \
             session bytes (ceiling {CEILING})"
        );
    }
    for (name, share) in cases {
        assert!(
            share <= CEILING,
            "{name}: building the trace allocated {share:.3}× its session bytes"
        );
    }
}
