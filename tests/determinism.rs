//! Golden determinism suite: the simulator must be a pure function of
//! `(config, trace)`, and the sharded runner must be a pure function of
//! `(config, trace, shard count)` — worker threads only schedule shards,
//! so the merged report is identical at every `--threads` value.

use adprefetch::core::{DeliveryMode, SimReport, Simulator, SystemConfig};
use adprefetch::traces::{PopulationConfig, Trace};

fn small_trace() -> Trace {
    PopulationConfig::small_test(777).generate()
}

/// A scaled-down iPhone-like population: same shape parameters as the
/// paper's dataset, sized for a seconds-long test.
fn iphone_trace() -> Trace {
    PopulationConfig {
        num_users: 60,
        days: 7,
        ..PopulationConfig::iphone_like(2013)
    }
    .generate()
}

/// The aggregate fields the acceptance criterion compares (everything in
/// the printed summary), extracted so a failure names the field.
fn aggregates(r: &SimReport) -> Vec<(&'static str, f64)> {
    vec![
        ("users", r.users as f64),
        ("days", r.days as f64),
        ("slots", r.slots as f64),
        ("impressions", r.impressions as f64),
        ("cache_hits", r.cache_hits as f64),
        ("realtime_fetches", r.realtime_fetches as f64),
        ("unfilled", r.unfilled as f64),
        ("energy_j", r.energy.total_j()),
        ("syncs", r.syncs as f64),
        ("syncs_skipped", r.syncs_skipped as f64),
        ("syncs_dropped", r.syncs_dropped as f64),
        ("replicas_assigned", r.replicas_assigned as f64),
        ("netem_sync_failures", r.netem.sync_failures as f64),
        ("netem_retries_scheduled", r.netem.retries_scheduled as f64),
        ("netem_retries_succeeded", r.netem.retries_succeeded as f64),
        ("netem_syncs_abandoned", r.netem.syncs_abandoned as f64),
        ("netem_realtime_failures", r.netem.realtime_failures as f64),
        ("netem_ads_rescued", r.netem.ads_rescued as f64),
        ("netem_rescues_unplaced", r.netem.rescues_unplaced as f64),
        ("sold", r.ledger.sold as f64),
        ("billed", r.ledger.billed as f64),
        ("revenue", r.ledger.revenue),
        ("expired", r.ledger.expired as f64),
        ("refunded", r.ledger.refunded),
        ("duplicates", r.ledger.duplicates as f64),
        ("late_displays", r.ledger.late_displays as f64),
    ]
}

fn assert_same_aggregates(a: &SimReport, b: &SimReport, what: &str) {
    for ((name, va), (_, vb)) in aggregates(a).iter().zip(aggregates(b).iter()) {
        assert_eq!(va, vb, "{what}: field `{name}` diverged");
    }
}

#[test]
fn same_seed_twice_is_bit_identical() {
    let trace = small_trace();
    for mode in [DeliveryMode::RealTime, DeliveryMode::Prefetch] {
        let mk = || match mode {
            DeliveryMode::RealTime => SystemConfig::realtime(5),
            DeliveryMode::Prefetch => SystemConfig::prefetch_default(5),
        };
        let a = Simulator::new(mk(), &trace).run();
        let b = Simulator::new(mk(), &trace).run();
        assert_eq!(a, b, "{mode:?}: two runs with one seed must be identical");
    }
}

#[test]
fn sharded_run_with_same_seed_twice_is_bit_identical() {
    let trace = small_trace();
    let cfg = SystemConfig::prefetch_default(5);
    let a = Simulator::run_trace(&cfg, &trace, 4).0;
    let b = Simulator::run_trace(&cfg, &trace, 4).0;
    assert_eq!(a, b);
}

#[test]
fn one_thread_and_four_threads_agree_on_every_aggregate() {
    let trace = small_trace();
    for mode in [DeliveryMode::RealTime, DeliveryMode::Prefetch] {
        let cfg = match mode {
            DeliveryMode::RealTime => SystemConfig::realtime(5),
            DeliveryMode::Prefetch => SystemConfig::prefetch_default(5),
        };
        let t1 = Simulator::run_trace(&cfg, &trace, 1).0;
        let t4 = Simulator::run_trace(&cfg, &trace, 4).0;
        assert_same_aggregates(&t1, &t4, &format!("{mode:?} threads 1 vs 4"));
        // Beyond the aggregates: the whole report, per-user series
        // included, is bit-identical.
        assert_eq!(t1, t4, "{mode:?}: full report must match");
    }
}

#[test]
fn iphone_preset_matches_across_thread_counts() {
    // Library-level version of the acceptance check
    // `simulate --preset iphone --threads 4` vs `--threads 1`, on a
    // population with the iPhone dataset's shape parameters.
    let trace = iphone_trace();
    let cfg = SystemConfig::prefetch_default(1);
    let t1 = Simulator::run_trace(&cfg, &trace, 1).0;
    let t4 = Simulator::run_trace(&cfg, &trace, 4).0;
    assert_same_aggregates(&t1, &t4, "iphone-like threads 1 vs 4");
    assert_eq!(t1, t4);
}

/// The netem-enabled configs the determinism suite covers: plain flaky
/// links, and flaky links plus a half-population blackout.
fn netem_configs() -> Vec<SystemConfig> {
    use adprefetch::desim::SimDuration;
    use adprefetch::netem::NetemConfig;
    let mut flaky = SystemConfig::prefetch_default(5);
    flaky.netem = NetemConfig::flaky_cellular();
    let mut blackout = SystemConfig::prefetch_default(5);
    blackout.netem = NetemConfig::flaky_cellular().with_outage(48, SimDuration::from_hours(6), 0.5);
    vec![flaky, blackout]
}

#[test]
fn netem_enabled_runs_are_bit_identical_across_threads() {
    // The tentpole's determinism criterion: with netem enabled, reports
    // are identical at --threads 1/2/4. Channel trajectories depend only
    // on (stream_seed, client index), never on thread scheduling.
    let trace = small_trace();
    for cfg in netem_configs() {
        let t1 = Simulator::run_trace(&cfg, &trace, 1).0;
        let t2 = Simulator::run_trace(&cfg, &trace, 2).0;
        let t4 = Simulator::run_trace(&cfg, &trace, 4).0;
        assert!(
            t1.netem.sync_failures > 0,
            "netem must be live in this check ({})",
            cfg.netem.name
        );
        assert_same_aggregates(
            &t1,
            &t2,
            &format!("netem {} threads 1 vs 2", cfg.netem.name),
        );
        assert_same_aggregates(
            &t1,
            &t4,
            &format!("netem {} threads 1 vs 4", cfg.netem.name),
        );
        assert_eq!(t1, t2);
        assert_eq!(t1, t4);
    }
}

#[test]
fn netem_runs_with_same_seed_twice_are_bit_identical() {
    let trace = small_trace();
    for cfg in netem_configs() {
        let a = Simulator::new(cfg.clone(), &trace).run();
        let b = Simulator::new(cfg.clone(), &trace).run();
        assert_eq!(a, b, "netem {}: reruns must be identical", cfg.netem.name);
    }
}

#[test]
fn stalled_first_shard_cannot_perturb_the_merged_report() {
    // Work-stealing scheduling seam: pin shard 0 behind an artificial
    // delay so every other shard finishes (and is stolen) first. The
    // merged report must equal the single-thread run — completion order
    // is invisible after the shard-ordered merge.
    use adprefetch::core::DEFAULT_SHARDS;
    let trace = small_trace();
    let cfg = SystemConfig::prefetch_default(5);
    let baseline = Simulator::run_trace(&cfg, &trace, 1).0;
    let split = trace.split_users(DEFAULT_SHARDS);
    let (stalled, _) = Simulator::run_shards(&cfg, trace.num_users(), DEFAULT_SHARDS, 4, |shard| {
        if shard == 0 {
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        split[shard].clone()
    });
    assert_same_aggregates(&baseline, &stalled, "slow shard 0 vs single thread");
    assert_eq!(baseline, stalled);
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
fn parallel_trace_generation_is_deterministic_across_thread_counts() {
    // End-to-end version of the generator parity tests: the full
    // pipeline (parallel generation feeding the sharded simulator) must
    // be a pure function of (seed, config) at any thread count.
    let pop = PopulationConfig::small_test(777);
    let serial = pop.generate();
    let cfg = SystemConfig::prefetch_default(5);
    let want = Simulator::run_trace(&cfg, &serial, 1).0;
    for threads in [2, 4, 8] {
        let trace = pop.generate_parallel(threads);
        assert_eq!(serial, trace, "{threads}-thread generation diverged");
        let got = Simulator::run_trace(&cfg, &trace, threads).0;
        assert_eq!(want, got, "{threads}-thread pipeline diverged");
    }
}

/// The marketplace-enabled configs the determinism suite covers: the
/// paced second-price regime, and paced first-price with a realtime
/// floor (every new mechanism live at once).
fn marketplace_configs() -> Vec<SystemConfig> {
    use adprefetch::auction::{MarketplaceConfig, PriceFloors, PricingRule};
    let mut paced = SystemConfig::prefetch_default(5);
    paced.marketplace = MarketplaceConfig::paced();
    let mut floored_first = SystemConfig::prefetch_default(5);
    floored_first.marketplace = MarketplaceConfig::paced();
    floored_first.marketplace.pricing = PricingRule::FirstPrice;
    floored_first.marketplace.floors = PriceFloors::uniform(0.0005);
    vec![paced, floored_first]
}

#[test]
fn marketplace_enabled_runs_are_bit_identical_across_threads() {
    // The tentpole's determinism criterion: pacing-controller state lives
    // per shard and ticks on the event queue at simulated times, so the
    // merged report is a pure function of (config, trace) at any thread
    // count.
    let trace = small_trace();
    for cfg in marketplace_configs() {
        let t1 = Simulator::run_trace(&cfg, &trace, 1).0;
        let t2 = Simulator::run_trace(&cfg, &trace, 2).0;
        let t8 = Simulator::run_trace(&cfg, &trace, 8).0;
        assert!(
            t1.ledger.sold > 0,
            "marketplace {}: the market must be live in this check",
            cfg.marketplace.name
        );
        assert_same_aggregates(
            &t1,
            &t2,
            &format!("marketplace {} threads 1 vs 2", cfg.marketplace.name),
        );
        assert_same_aggregates(
            &t1,
            &t8,
            &format!("marketplace {} threads 1 vs 8", cfg.marketplace.name),
        );
        assert_eq!(t1, t2);
        assert_eq!(t1, t8);
    }
}

#[test]
fn marketplace_runs_with_same_seed_twice_are_bit_identical() {
    let trace = small_trace();
    for cfg in marketplace_configs() {
        let a = Simulator::new(cfg.clone(), &trace).run();
        let b = Simulator::new(cfg.clone(), &trace).run();
        assert_eq!(
            a, b,
            "marketplace {}: reruns must be identical",
            cfg.marketplace.name
        );
    }
}

#[test]
fn marketplace_actually_changes_outcomes_when_enabled() {
    // Guard against the degenerate way to pass the off-path hash check: a
    // marketplace layer that never engages would also leave the hash
    // unchanged. Pacing must move revenue on the standard workload.
    let trace = small_trace();
    let off = Simulator::run_trace(&SystemConfig::prefetch_default(5), &trace, 4).0;
    let on = Simulator::run_trace(&marketplace_configs()[0], &trace, 4).0;
    assert_ne!(
        off.ledger.revenue, on.ledger.revenue,
        "enabling the paced marketplace should change auction outcomes"
    );
}

#[test]
fn marketplace_off_run_matches_the_committed_smoke_golden() {
    // The CI smoke gate's hash, asserted from library code: the default
    // (marketplace-off) pipeline must reproduce the committed golden
    // exactly — the marketplace layer must be invisible until enabled.
    use adpf_bench::baseline::{SMOKE, SMOKE_GOLDEN};
    let report = Simulator::run_trace(&SMOKE.config(), &SMOKE.population().generate(), 2).0;
    assert_eq!(
        report.stable_hash(),
        SMOKE_GOLDEN,
        "marketplace-off smoke hash diverged from the committed golden"
    );
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the degenerate way to pass the tests above: a
    // simulator that ignores its seed would also be "deterministic".
    let trace = small_trace();
    let a = Simulator::run_trace(&SystemConfig::prefetch_default(5), &trace, 4).0;
    let b = Simulator::run_trace(&SystemConfig::prefetch_default(6), &trace, 4).0;
    assert_ne!(
        a.ledger.revenue, b.ledger.revenue,
        "different seeds should produce different auctions"
    );
}
