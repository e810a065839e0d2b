//! Determinism suite: the simulator is a pure function of
//! `(config, trace)`, the same report at every thread count, streamed or
//! served. Every run that pins this is a row of one table,
//! `adpf_bench::baseline::ROWS`, driven by one function,
//! `baseline::check`; tier 1 drives the smoke-scale rows here.

#[macro_use]
mod common;

use adpf_bench::baseline::{check, Row};
use adprefetch::core::{Simulator, SystemConfig};
use adprefetch::traces::PopulationConfig;

/// The worker counts tier 1 runs every row at: one worker taking every
/// shard, and one worker per shard. `baseline --check` runs each row's
/// own list.
const THREADS: &[usize] = &[1, 8];

#[test]
fn every_smoke_scale_row_holds() {
    // One `check` per core, each over an interleaved share of the rows:
    // runs at one worker would leave the other cores idle.
    let rows = common::smoke_scale_rows();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shares: Vec<Vec<Row>> = (0..cores)
        .map(|c| rows.iter().skip(c).step_by(cores).copied().collect())
        .collect();
    let checked: Vec<(usize, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                s.spawn(move || {
                    let mut lines = Vec::new();
                    let failed = check(share, Some(THREADS), None, |l| lines.push(l.to_string()));
                    (failed, lines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let failed: usize = checked.iter().map(|(f, _)| f).sum();
    let lines: Vec<&String> = checked.iter().flat_map(|(_, l)| l).collect();
    assert_eq!(failed, 0, "{lines:#?}");
    assert_eq!(lines.len(), rows.len() * 3 * THREADS.len(), "{lines:#?}");
}

pinned_by! {
    same_seed_twice_is_bit_identical: "smoke", "smoke-realtime";
    sharded_run_with_same_seed_twice_is_bit_identical: "smoke";
    one_thread_and_four_threads_agree_on_every_aggregate: "smoke", "smoke-realtime";
    iphone_preset_matches_across_thread_counts: "iphone-60";
    netem_enabled_runs_are_bit_identical_across_threads: "smoke-flaky", "smoke-outage";
    netem_runs_with_same_seed_twice_are_bit_identical: "smoke-flaky", "smoke-outage";
    parallel_trace_generation_is_deterministic_across_thread_counts: "smoke";
    marketplace_enabled_runs_are_bit_identical_across_threads:
        "smoke-market", "smoke-market-floored", "smoke-paced";
    marketplace_runs_with_same_seed_twice_are_bit_identical:
        "smoke-market", "smoke-market-floored", "smoke-paced";
    marketplace_actually_changes_outcomes_when_enabled: "smoke", "smoke-market";
    marketplace_off_run_matches_the_committed_smoke_golden: "smoke";
}

#[test]
fn work_queue_stress_hands_out_each_index_exactly_once() {
    // Stress iteration over the atomic work queue that schedules shards
    // and generated users: many rounds of racing claimants, each round
    // checked for exactly-once coverage. Failures here would surface as
    // lost or double-simulated shards above, but this pins the primitive
    // directly under far more interleavings than one simulation sees.
    use adprefetch::desim::WorkQueue;
    for round in 0..200 {
        let len = 1 + (round * 37) % 256;
        let queue = WorkQueue::new(len);
        let mut claimed: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(i) = queue.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        claimed.sort_unstable();
        assert_eq!(
            claimed,
            (0..len).collect::<Vec<_>>(),
            "round {round}: every index exactly once"
        );
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the degenerate way to pass the rows: a simulator that
    // ignores its seed would also be "deterministic".
    let trace = PopulationConfig::small_test(777).generate();
    let a = Simulator::run_trace(&SystemConfig::prefetch_default(5), &trace, 4).0;
    let b = Simulator::run_trace(&SystemConfig::prefetch_default(6), &trace, 4).0;
    assert_ne!(
        a.ledger.revenue, b.ledger.revenue,
        "different seeds should produce different auctions"
    );
}
