//! The scenario suite's determinism contracts, end to end.
//!
//! Three invariants, each load-bearing for the repo's reproducibility
//! story:
//!
//! 1. **Scenario-off is bit-exact legacy**: with `ScenarioConfig`
//!    disabled, the smoke workload reproduces the committed golden hash
//!    at every thread count — the scenario layer pays nothing when off.
//! 2. **Thread-count invariance**: every scenario preset hashes
//!    identically at 1, 2, and 8 worker threads.
//! 3. **Streaming equivalence**: the bounded-memory streaming pipeline
//!    (per-shard scenario generation as the `run_shards` source)
//!    reproduces the materialized run bit for bit, with the user-cost
//!    counters populated.

use adpf_core::{Simulator, SystemConfig};
use adpf_scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_traces::PopulationConfig;

/// The committed smoke golden: `small_test(777)` population under
/// `prefetch_default(5)`, as pinned by ci.sh (`SMOKE_GOLDEN`).
const SMOKE_GOLDEN: u64 = 0xba08_fcf9_274d_6de0;

const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn scenario_off_reproduces_the_committed_smoke_golden() {
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    assert!(!cfg.scenario.enabled, "default config keeps the layer off");
    for threads in THREADS {
        let r = Simulator::run_trace(&cfg, &trace, threads).0;
        assert_eq!(
            r.stable_hash(),
            SMOKE_GOLDEN,
            "scenario-off run diverged from the smoke golden at {threads} threads"
        );
        assert_eq!(
            r.scenario,
            adpf_core::ScenarioCounters::default(),
            "scenario-off runs must keep the user-cost counters empty"
        );
    }
}

#[test]
fn every_preset_is_thread_count_and_streaming_invariant() {
    for preset in ["mixed", "churn", "flashcrowd"] {
        let base = PopulationConfig::small_test(777);
        let users = base.num_users;
        let spec = ScenarioSpec::parse_preset(preset).expect("preset parses");
        let pop = ScenarioPopulation::new(base, spec);
        let mut cfg = SystemConfig::prefetch_default(5);
        pop.apply_to(&mut cfg);

        let trace = pop.generate();
        let reference = Simulator::run_trace(&cfg, &trace, 1).0;
        for threads in THREADS {
            let r = Simulator::run_trace(&cfg, &trace, threads).0;
            assert_eq!(
                r.stable_hash(),
                reference.stable_hash(),
                "{preset}: materialized run diverged at {threads} threads"
            );
        }

        let n_shards = adpf_core::default_shards(users);
        for threads in THREADS {
            let (streamed, _) = Simulator::run_shards(&cfg, users, n_shards, threads, |i| {
                pop.generate_shard(i, n_shards)
            });
            assert_eq!(
                streamed.stable_hash(),
                reference.stable_hash(),
                "{preset}: streamed run diverged at {threads} threads"
            );
        }

        // The invariance proof is only meaningful if the scenario
        // actually did something: every preset meters bytes and records
        // display latency on this population.
        assert!(
            reference.scenario.metered_bytes() > 0,
            "{preset}: no metered bytes recorded"
        );
        assert!(
            reference.scenario.display_latency_ms.count() > 0,
            "{preset}: no display-latency samples recorded"
        );
    }
}

#[test]
fn presets_produce_distinct_outcomes() {
    // The three presets are different regimes, not aliases: their
    // reports must differ from one another and from scenario-off.
    let base = PopulationConfig::small_test(777);
    let mut hashes = vec![SMOKE_GOLDEN];
    for preset in ["mixed", "churn", "flashcrowd"] {
        let spec = ScenarioSpec::parse_preset(preset).unwrap();
        let pop = ScenarioPopulation::new(base.clone(), spec);
        let mut cfg = SystemConfig::prefetch_default(5);
        pop.apply_to(&mut cfg);
        let (report, _) = Simulator::run_trace(&cfg, &pop.generate(), 2);
        hashes.push(report.stable_hash());
    }
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 4, "presets must not collapse into each other");
}
