//! Cross-crate integration tests: the whole pipeline from trace
//! generation through simulation to reports.

use adprefetch::core::{DeliveryMode, PlannerKind, Simulator, SystemConfig};
use adprefetch::desim::SimDuration;
use adprefetch::energy::profiles;
use adprefetch::prediction::PredictorKind;
use adprefetch::traces::{csv, PopulationConfig};

fn small_trace() -> adprefetch::traces::Trace {
    PopulationConfig::small_test(777).generate()
}

#[test]
fn headline_claim_holds_end_to_end() {
    // The paper's abstract: >50% ad energy reduction with negligible
    // revenue loss and SLA violation rate, on the smoke population run
    // serially and sharded. Measured (savings, revenue loss, cache hit
    // rate, SLA violations): serial 57.0%, 1.2%, 62.9%, 1.4%; sharded
    // 56.9%, 1.0%, 62.6%, 1.3%.
    let trace = small_trace();
    let runs = |cfg: SystemConfig| {
        let serial = Simulator::new(cfg.clone(), &trace).run();
        let sharded = Simulator::run_trace(&cfg, &trace, 2);
        [("serial", serial), ("sharded", sharded)]
    };
    let realtime = runs(SystemConfig::realtime(5));
    let prefetch = runs(SystemConfig::prefetch_default(5));
    for ((how, rt), (_, pf)) in realtime.iter().zip(&prefetch) {
        let savings = pf.energy_savings_vs(rt);
        let loss = pf.revenue_loss_vs(rt);
        let (hits, sla) = (pf.cache_hit_rate(), pf.sla_violation_rate());
        assert!(
            savings > 0.5 && loss < 0.05 && hits > 0.5 && sla < 0.05,
            "{how}: savings {savings:.3}, revenue loss {loss:.3}, hit rate {hits:.3}, \
             sla {sla:.3}\nrt: {}\npf: {}",
            rt.summary(),
            pf.summary()
        );
    }
}

#[test]
fn trace_survives_csv_round_trip_into_simulation() {
    // Serialize the trace, read it back, and check the simulator produces
    // the identical report — the CSV path is how real traces come in.
    let trace = small_trace();
    let mut buf = Vec::new();
    csv::write_trace(&trace, &mut buf).expect("write trace");
    let back = csv::read_trace(&buf[..]).expect("read trace");
    let a = Simulator::new(SystemConfig::prefetch_default(9), &trace).run();
    let b = Simulator::new(SystemConfig::prefetch_default(9), &back).run();
    assert_eq!(a, b);
}

#[test]
fn all_predictors_run_in_the_full_system() {
    let trace = PopulationConfig {
        num_users: 15,
        days: 4,
        ..PopulationConfig::small_test(3)
    }
    .generate();
    for predictor in [
        PredictorKind::Zero,
        PredictorKind::GlobalRate,
        PredictorKind::Ewma(0.3),
        PredictorKind::TimeOfDay,
        PredictorKind::DayHour,
        PredictorKind::Quantile(0.5),
        PredictorKind::SessionAware,
        PredictorKind::Oracle,
    ] {
        let mut cfg = SystemConfig::prefetch_default(11);
        cfg.predictor = predictor;
        let report = Simulator::new(cfg, &trace).run();
        assert_eq!(
            report.impressions() + report.unfilled(),
            report.slots(),
            "{predictor:?} must settle every slot"
        );
        let lt = report.ledger;
        assert_eq!(lt.billed + lt.expired, lt.sold, "{predictor:?} ledger");
    }
}

#[test]
fn all_planners_and_radios_run_in_the_full_system() {
    let trace = PopulationConfig {
        num_users: 15,
        days: 4,
        ..PopulationConfig::small_test(4)
    }
    .generate();
    for planner in [
        PlannerKind::NoReplication,
        PlannerKind::FixedK(2),
        PlannerKind::Greedy,
    ] {
        for radio in [profiles::umts_3g(), profiles::lte(), profiles::wifi()] {
            let mut cfg = SystemConfig::prefetch_default(13);
            cfg.planner = planner;
            cfg.radio = radio;
            let report = Simulator::new(cfg, &trace).run();
            assert!(report.energy.total_j() > 0.0);
        }
    }
}

#[test]
fn wifi_narrows_the_gap() {
    // On WiFi the tail is tiny, so prefetching buys much less — the
    // paper's motivation is specifically the cellular tail.
    let trace = small_trace();
    let mk = |radio| {
        let mut rt_cfg = SystemConfig::realtime(5);
        rt_cfg.radio = radio;
        rt_cfg
    };
    let rt_3g = Simulator::new(mk(profiles::umts_3g()), &trace).run();
    let rt_wifi = Simulator::new(mk(profiles::wifi()), &trace).run();
    assert!(
        rt_wifi.energy.total_j() < rt_3g.energy.total_j() / 10.0,
        "wifi {} vs 3g {}",
        rt_wifi.energy.total_j(),
        rt_3g.energy.total_j()
    );
}

#[test]
fn longer_deadlines_monotonically_reduce_violations() {
    let trace = small_trace();
    let mut last = f64::INFINITY;
    for deadline_h in [4u64, 12, 24] {
        let mut cfg = SystemConfig::prefetch_default(21);
        cfg.deadline = SimDuration::from_hours(deadline_h);
        let r = Simulator::new(cfg, &trace).run();
        assert!(
            r.sla_violation_rate() <= last + 0.005,
            "deadline {deadline_h}h: {} > previous {last}",
            r.sla_violation_rate()
        );
        last = r.sla_violation_rate();
    }
}

#[test]
fn modes_are_labelled_in_reports() {
    let trace = PopulationConfig {
        num_users: 5,
        days: 2,
        ..PopulationConfig::small_test(8)
    }
    .generate();
    let rt = Simulator::new(SystemConfig::realtime(1), &trace).run();
    assert!(rt.config.contains("realtime"));
    let mut cfg = SystemConfig::prefetch_default(1);
    cfg.mode = DeliveryMode::Prefetch;
    let pf = Simulator::new(cfg, &trace).run();
    assert!(pf.config.contains("prefetch"));
    assert!(pf.config.contains("session-aware"));
}

#[test]
fn realtime_ignores_the_prefetch_knobs() {
    // A metamorphic relation: a realtime run predicts nothing, sells
    // nothing ahead, overbooks nothing and never syncs, so no prefetch
    // knob may reach its report. Every variant keeps the hash the
    // `smoke-realtime` row pins for this trace, config and thread count.
    const SMOKE_REALTIME: u64 = 0xcdba_9393_c93e_e236;
    let trace = small_trace();
    let base = SystemConfig::realtime(5);
    type Vary = fn(&mut SystemConfig);
    let variants: [(&str, Vary); 13] = [
        ("oracle predictor", |c| c.predictor = PredictorKind::Oracle),
        ("greedy planner", |c| c.planner = PlannerKind::Greedy),
        ("fixed-3 planner", |c| c.planner = PlannerKind::FixedK(3)),
        ("sla_target", |c| c.sla_target = 0.5),
        ("max_replicas 1", |c| c.max_replicas = 1),
        ("max_replicas 16", |c| c.max_replicas = 16),
        ("deadline", |c| c.deadline = SimDuration::from_hours(3)),
        ("replica_window", |c| {
            c.replica_window = SimDuration::from_mins(5)
        }),
        ("candidate_pool", |c| c.candidate_pool = 2),
        ("prefetch_interval", |c| {
            c.prefetch_interval = SimDuration::from_mins(30)
        }),
        ("sell_margin", |c| c.sell_margin = 1.5),
        ("availability_dispersion", |c| {
            c.availability_dispersion = 1.0
        }),
        ("all at once", |c| {
            c.predictor = PredictorKind::Oracle;
            c.planner = PlannerKind::FixedK(3);
            c.max_replicas = 2;
            c.sell_margin = 0.5;
        }),
    ];
    let hash = |cfg: &SystemConfig| Simulator::run_trace(cfg, &trace, 2).stable_hash();
    assert_eq!(hash(&base), SMOKE_REALTIME);
    for (knob, vary) in variants {
        let mut cfg = base.clone();
        vary(&mut cfg);
        assert_eq!(hash(&cfg), SMOKE_REALTIME, "{knob} reached a realtime run");
    }
}
