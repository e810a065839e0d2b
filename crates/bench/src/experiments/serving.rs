//! E20: closed-loop serving load sweep.
//!
//! The batch experiments ask what prefetching costs; this one asks what
//! *serving* those decisions online costs. A load generator serializes a
//! population's slot stream to the serve wire protocol and replays it
//! into an in-process [`adpf_serve::serve`] instance, closing the loop:
//! every decision is made in-line before the next event is dequeued, so
//! the recorded latency percentiles reflect real queueing under the
//! offered load, not an open-loop approximation.

use std::time::Instant;

use adpf_core::SystemConfig;
use adpf_obs::Histogram;
use adpf_serve::{serve, write_events, ServeOptions, DECISION_LATENCY_METRIC};
use adpf_traces::PopulationConfig;

use crate::scale::Scale;
use crate::table::{f, pct, Table};

/// Decision-latency SLA for the miss-rate column, in microseconds.
/// Deliberately a power of two: every octave boundary is also a
/// log-linear sub-bucket boundary, so a bucket starts exactly at
/// 1024 µs and "missed the SLA" is an exact bucket sum, not a
/// bucket-boundary approximation.
const SLA_US: u64 = 1024;

/// Fraction of decisions that took `SLA_US` or longer.
fn sla_miss_rate(h: &Histogram) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let missed: u64 = h
        .nonzero_buckets()
        .filter(|&(i, _)| Histogram::bucket_upper_bound(i) >= SLA_US)
        .map(|(_, n)| n)
        .sum();
    missed as f64 / h.count() as f64
}

/// E20: offered load (population size) × worker threads → request
/// throughput, decision-latency percentiles, and SLA-miss rate.
///
/// The sweep replays each population's full slot stream as fast as the
/// server drains it, so requests/s is the closed-loop capacity at that
/// thread count. The report-hash column is the determinism witness:
/// serving is pure scheduling, so every thread count must reproduce the
/// identical report for a given population.
pub(crate) fn e20_serving_load(scale: Scale) -> Table {
    let mut table = Table::new(
        "E20",
        "closed-loop serving: offered load × threads → latency + SLA misses",
        "the online server decides the replayed slot stream in-line; percentiles are \
         log-linear-bucket upper bounds from the serve.decision_latency_us histogram and the \
         SLA column counts decisions at 1024 us or slower",
        &[
            "users",
            "threads",
            "requests",
            "req/s",
            "p50 us",
            "p95 us",
            "p99 us",
            "SLA miss",
            "report hash",
        ],
    );
    let cfg = SystemConfig::prefetch_default(1);
    for users in scale.scaling_sizes() {
        let pop = PopulationConfig {
            num_users: users,
            days: 7,
            ..PopulationConfig::iphone_like(42)
        };
        let trace = pop.generate();
        let mut stream = Vec::new();
        write_events(&trace, cfg.ad_refresh, &mut stream).expect("in-memory write");
        for threads in scale.thread_counts() {
            let mut opts = ServeOptions::new(cfg.clone());
            opts.threads = threads;
            opts.error_sample = 0;
            let t0 = Instant::now();
            let out = serve(&opts, stream.as_slice()).expect("generated streams ingest cleanly");
            let wall = t0.elapsed().as_secs_f64();
            let hist = out
                .registry
                .histogram_snapshot(DECISION_LATENCY_METRIC)
                .unwrap_or_default();
            table.push(vec![
                users.to_string(),
                threads.to_string(),
                out.requests.to_string(),
                f(out.requests as f64 / wall.max(1e-9), 0),
                hist.quantile_upper_bound(0.50).to_string(),
                hist.quantile_upper_bound(0.95).to_string(),
                hist.quantile_upper_bound(0.99).to_string(),
                pct(sla_miss_rate(&hist)),
                format!("{:016x}", out.report.stable_hash()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_is_deterministic_across_thread_counts() {
        let t = e20_serving_load(Scale::Micro);
        let sizes = Scale::Micro.scaling_sizes();
        let threads = Scale::Micro.thread_counts();
        assert_eq!(t.rows.len(), sizes.len() * threads.len());
        // Rows group by population; within a group only wall-clock
        // columns may vary — the hash is the determinism witness.
        for group in t.rows.chunks(threads.len()) {
            let hashes: Vec<_> = group.iter().map(|r| &r[8]).collect();
            assert!(
                hashes.windows(2).all(|w| w[0] == w[1]),
                "thread count changed a served report: {hashes:?}"
            );
            let requests: Vec<_> = group.iter().map(|r| &r[2]).collect();
            assert!(requests.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn sla_misses_count_exact_buckets() {
        let mut h = Histogram::new();
        for v in [0, 1, 500, 1023] {
            h.record(v);
        }
        assert_eq!(sla_miss_rate(&h), 0.0, "1023 us makes the 1024 us SLA");
        h.record(1024);
        h.record(u64::MAX);
        assert!((sla_miss_rate(&h) - 2.0 / 6.0).abs() < 1e-12);
    }
}
