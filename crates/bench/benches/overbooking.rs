//! Microbenchmarks of the overbooking math (substrate of E8/E9/E13).

use adpf_overbooking::availability::{poisson_tail, ClientAvailability};
use adpf_overbooking::PlannerKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_poisson_tail(c: &mut Criterion) {
    c.bench_function("poisson_tail_k4", |b| {
        b.iter(|| black_box(poisson_tail(black_box(4), black_box(2.7))));
    });
}

fn bench_greedy_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_plan");
    for pool in [16usize, 64, 256] {
        let candidates: Vec<ClientAvailability> = (0..pool)
            .map(|i| ClientAvailability {
                client: i as u32,
                prob: 0.05 + 0.9 * ((i * 7919) % pool) as f64 / pool as f64,
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(pool),
            &candidates,
            |b, cands| {
                b.iter(|| black_box(PlannerKind::Greedy.plan(cands, 0.95, 8)));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_poisson_tail, bench_greedy_planner);
criterion_main!(benches);
