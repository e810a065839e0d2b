//! Microbenchmarks of replica-candidate scoring: the closed form, sweeps
//! through the memoizing `AvailabilityCache` (the engine's scorer up to
//! the `batched-hotpath`/`sale-path` baseline rows), and `pool_score` —
//! one sync's pool at the engine's measured mix, through that cache and
//! through the running tails that replaced it.

use adpf_overbooking::availability::{display_probability_bursty, AvailabilityCache, BurstyTail};
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

/// Candidates scored per pool build on `stream-homog` (61.9 measured).
const POOL: usize = 62;
/// Re-scores per pool build: 11.6 % of scorings, one holder per sale.
const SALES: usize = 7;
/// `SystemConfig::availability_dispersion`'s default.
const DISPERSION: f64 = 0.5;

/// One sync's pool as `(expected slots, queued, mean session slots)`.
/// Three candidates in four expect nothing in the replica window (a
/// bursty user has no history in most hour-of-day cells); the fifteen
/// others each have a rate of their own.
fn sync_pool() -> Vec<(f64, u32, f64)> {
    (0..POOL)
        .map(|i| {
            let expected = if i % 4 == 3 {
                0.4 + (i * 7919 % 61) as f64 * 0.11
            } else {
                0.0
            };
            (expected, (i * 31 % 3) as u32, 3.5)
        })
        .collect()
}

/// A rate recurs within its own sync and nowhere else: every build
/// shifts the positive rates to bit patterns no earlier build used.
fn shifted(expected: f64, sync: u64) -> f64 {
    if expected > 0.0 {
        expected + (sync % (1 << 20)) as f64 * 1e-6
    } else {
        expected
    }
}

fn bench_pool_score(c: &mut Criterion) {
    let base = sync_pool();
    let mut g = c.benchmark_group("pool_score");
    g.throughput(Throughput::Elements(POOL as u64));
    g.bench_function("availability_cache", |b| {
        // One cache across syncs, as the engine held it: a build's fresh
        // rates miss, its re-scores hit, and the map is cleared (4,096
        // series freed) whenever it fills.
        let mut cache = AvailabilityCache::new(DISPERSION);
        let mut probs = vec![0.0; POOL];
        let mut sync = 0u64;
        b.iter(|| {
            sync += 1;
            for (p, &(expected, queued, session)) in probs.iter_mut().zip(&base) {
                *p = cache.display_probability_bursty(shifted(expected, sync), queued, session);
            }
            for sale in 0..SALES {
                let i = 3 + 8 * sale;
                let (expected, queued, session) = base[i];
                probs[i] =
                    cache.display_probability_bursty(shifted(expected, sync), queued + 1, session);
            }
            black_box(probs.iter().sum::<f64>())
        });
    });
    g.bench_function("running_tail", |b| {
        // The engine's pass: a zero rate leaves before any arithmetic, a
        // positive one pays its `exp` and keeps the running sum inline;
        // a re-score extends that sum.
        let mut pool: Vec<(f64, BurstyTail, u32)> = Vec::with_capacity(POOL);
        let mut sync = 0u64;
        b.iter(|| {
            sync += 1;
            pool.clear();
            for &(expected, queued, session) in &base {
                let expected = shifted(expected, sync);
                if expected <= 0.0 {
                    continue;
                }
                let mut tail = BurstyTail::new(expected, session, DISPERSION);
                let prob = tail.prob(queued);
                if prob <= 0.0 {
                    continue;
                }
                pool.push((prob, tail, queued));
            }
            for sale in 0..SALES {
                // Pool entry `2 * sale` is candidate `3 + 8 * sale`.
                let (prob, tail, queued) = &mut pool[2 * sale];
                *prob = tail.prob(*queued + 1);
            }
            black_box(pool.iter().map(|e| e.0).sum::<f64>())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_closed_form,
    bench_score_sweep,
    bench_score_sweep_cold,
    bench_pool_score
);
criterion_main!(benches);
