//! Streaming-vs-materialized equivalence: the bounded-memory pipeline
//! (`Simulator::run_shards` over per-shard lazy generation) must produce
//! **byte-identical** reports to the same scheduler over a materialized
//! split of the same `(config, population)` — at every thread count, for
//! every shard count, including degenerate populations, and from a CSV
//! file. Every smoke-scale row of `adpf_bench::baseline::ROWS` runs
//! under `Driver::Streaming` too.

#[macro_use]
mod common;

use adpf_core::{default_shards, Simulator, SystemConfig};
use adpf_traces::PopulationConfig;

/// Runs both pipelines over `pop` with `cfg` and asserts equal reports.
fn assert_equivalent(pop: &PopulationConfig, cfg: &SystemConfig, n_shards: usize, threads: usize) {
    let split = pop.generate().split_users(n_shards);
    let (materialized, _) =
        Simulator::run_shards(cfg, pop.num_users, n_shards, threads, |i| split[i].clone());
    let (streamed, _) = Simulator::run_shards(cfg, pop.num_users, n_shards, threads, |i| {
        pop.generate_shard(i, n_shards)
    });
    assert_eq!(
        materialized, streamed,
        "streaming diverged ({n_shards} shards, {threads} threads, {} users)",
        pop.num_users
    );
}

pinned_by! {
    streaming_matches_materialized_at_1_2_8_threads: "smoke";
    streaming_hash_equals_the_committed_smoke_golden: "smoke";
    streaming_report_is_independent_of_thread_count: "smoke";
    streaming_matches_materialized_under_netem_and_marketplace: "smoke-paced";
    observed_streaming_matches_plain_streaming_and_records_rss: "smoke";
}

#[test]
fn streaming_handles_zero_user_population() {
    let mut pop = PopulationConfig::small_test(1);
    pop.num_users = 0;
    let cfg = SystemConfig::prefetch_default(5);
    for threads in [1usize, 4] {
        assert_equivalent(&pop, &cfg, default_shards(0), threads);
    }
}

#[test]
fn streaming_handles_one_user_population() {
    let mut pop = PopulationConfig::small_test(3);
    pop.num_users = 1;
    let cfg = SystemConfig::prefetch_default(5);
    for threads in [1usize, 4] {
        assert_equivalent(&pop, &cfg, default_shards(1), threads);
    }
}

#[test]
fn streaming_handles_shard_count_above_user_count() {
    // Requested shard counts clamp to the population in both pipelines.
    let mut pop = PopulationConfig::small_test(7);
    pop.num_users = 5;
    let cfg = SystemConfig::prefetch_default(5);
    assert_equivalent(&pop, &cfg, 64, 2);
}

#[test]
fn streaming_a_csv_file_matches_the_materialized_read() {
    // Recorded-trace streaming (PR 8): re-reading the file per shard
    // through `csv::read_trace_shard` must reproduce the classic
    // read-whole-file-then-split pipeline byte for byte — the CSV
    // input side of the same shard source the generators fill.
    let pop = PopulationConfig::small_test(777);
    let trace = pop.generate();
    let mut buf = Vec::new();
    adpf_traces::csv::write_trace(&trace, &mut buf).unwrap();
    let (users, horizon_ms) = adpf_traces::csv::trace_dims(&buf[..]).unwrap();
    assert_eq!(users, trace.num_users());

    let cfg = SystemConfig::prefetch_default(5);
    let n_shards = default_shards(users);
    let ranges = adpf_traces::shard_ranges(users, n_shards);
    let materialized = Simulator::run_trace(&cfg, &trace, 2).0;
    for threads in [1usize, 4] {
        let (streamed, _) = Simulator::run_shards(&cfg, users, n_shards, threads, |i| {
            adpf_traces::csv::read_trace_shard(&buf[..], ranges[i].clone(), horizon_ms).unwrap()
        });
        assert_eq!(
            materialized, streamed,
            "file streaming diverged at {threads} threads"
        );
    }
}
