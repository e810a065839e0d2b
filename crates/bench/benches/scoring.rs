//! Microbenchmarks of the batched hot path's scoring kernel: the
//! gather → rate → score sweep the engine runs over its flat candidate
//! pool on every sync (the substrate of the `batched-hotpath` baseline
//! rows).

use adpf_overbooking::availability::{display_probability_bursty, AvailabilityCache};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A synthetic candidate pool shaped like the engine's score-phase
/// input: a small set of distinct session rates (users cluster by
/// activity level, so the availability cache sees heavy lambda reuse)
/// with varying per-candidate queue depths.
fn pool(n: usize) -> Vec<(f64, u32, f64)> {
    (0..n)
        .map(|i| {
            let lambda = 2.0 + ((i * 7919) % 16) as f64 * 1.5;
            let queued = ((i * 31) % 5) as u32;
            (lambda, queued, 3.5)
        })
        .collect()
}

fn bench_closed_form(c: &mut Criterion) {
    c.bench_function("score_closed_form", |b| {
        b.iter(|| {
            black_box(display_probability_bursty(
                black_box(8.0),
                black_box(2),
                black_box(3.5),
                black_box(0.85),
            ))
        });
    });
}

fn bench_score_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("score_sweep");
    for n in [32usize, 128, 512] {
        let cands = pool(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &cands, |b, cands| {
            // One cache reused across iterations, exactly like the
            // engine reuses its cache across syncs: steady-state scoring
            // is almost entirely memoized-series extensions.
            let mut cache = AvailabilityCache::new(0.85);
            b.iter(|| {
                let mut acc = 0.0;
                for &(lambda, queued, mean_session) in cands {
                    acc += cache.display_probability_bursty(lambda, queued, mean_session);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

fn bench_score_sweep_cold(c: &mut Criterion) {
    // The cache-miss path: a fresh cache per iteration pays
    // `exp(-lambda)` and the series build for every distinct rate.
    let cands = pool(128);
    let mut g = c.benchmark_group("score_sweep_cold");
    g.throughput(Throughput::Elements(cands.len() as u64));
    g.bench_function("128", |b| {
        b.iter(|| {
            let mut cache = AvailabilityCache::new(0.85);
            let mut acc = 0.0;
            for &(lambda, queued, mean_session) in &cands {
                acc += cache.display_probability_bursty(lambda, queued, mean_session);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_closed_form,
    bench_score_sweep,
    bench_score_sweep_cold
);
criterion_main!(benches);
