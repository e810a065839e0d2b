//! The memory rule of a materialized sharded run: `Simulator::run_trace`
//! holds the trace once. It indexes the trace by shard and copies each
//! shard out only when a worker claims it, so what the run allocates
//! above its input is the index and the shards in flight, never a second
//! copy of every session.
//!
//! The counting allocator of `heap/` tracks the bytes live in the
//! process and their high-water mark; the binary runs without the test
//! harness, so only the run's own threads allocate while it is measured:
//! `cargo test --test materialized_heap`.

mod heap;

use std::hint::black_box;

use adpf_core::{Simulator, SystemConfig};
use adpf_traces::{PopulationConfig, Session};

/// The population: iPhone-shaped, as the benchmark's materialized
/// workload, over a week, so that the session bytes outweigh the
/// per-shard reports a run keeps until its merge.
const USERS: u32 = 2_000;
const DAYS: u32 = 7;
const SEED: u64 = 1;

/// Ceiling on a realtime run's high-water above its input, in bytes per
/// session of the trace. The run holds the trace once and builds no
/// predictor for its clients: ≈ 10.1. One predictor per realtime client
/// adds ≈ 6, and a run that splits the whole trace up front holds a
/// second copy of every session, 16 more.
const REALTIME_CEILING: f64 = 14.0;

/// The same ceiling for a prefetch run, whose shards each add a
/// predictor per client, the client queues and the engine's event queue
/// and scratch buffers, all dropped with the shard: 14.4–15.2, so the
/// ceiling leaves ≈ 2.3.
const PREFETCH_CEILING: f64 = 17.5;

/// Measured runs per configuration: the two workers claim shards in an
/// order the host decides, which moves the high-water from run to run,
/// so the gate holds the largest of several.
const RUNS: usize = 5;

fn main() {
    let pop = PopulationConfig {
        num_users: USERS,
        days: DAYS,
        ..PopulationConfig::iphone_like(SEED)
    };
    let trace = pop.generate();
    let sessions = trace.sessions().len();
    let cases = [
        ("realtime", SystemConfig::realtime(1), REALTIME_CEILING),
        (
            "prefetch",
            SystemConfig::prefetch_default(1),
            PREFETCH_CEILING,
        ),
    ];
    for (name, config, ceiling) in cases {
        let slots = trace.slots(config.ad_refresh).count() as u64;
        let shares: Vec<f64> = (0..RUNS)
            .map(|_| {
                let input = heap::start();
                let report = black_box(Simulator::run_trace(&config, &trace, 2));
                let above = heap::high_water_above(input);
                assert_eq!(report.slots(), slots);
                above as f64 / sessions as f64
            })
            .collect();
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let max = shares.iter().copied().fold(0.0, f64::max);
        println!(
            "materialized_heap: {name}: {sessions} sessions of {} B, high-water above \
             the input over {RUNS} runs = {min:.2}–{max:.2} B per session (ceiling {ceiling})",
            std::mem::size_of::<Session>(),
        );
        assert!(
            max < ceiling,
            "{name}: run_trace allocated {max:.2} B per session above its input"
        );
    }
}
