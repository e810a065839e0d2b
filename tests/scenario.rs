//! The scenario suite's determinism contracts, end to end.
//!
//! Four invariants, each load-bearing for the repo's reproducibility
//! story:
//!
//! 1. **Scenario-off is bit-exact legacy**: with `ScenarioConfig`
//!    disabled, the smoke workload reproduces the committed golden hash
//!    at every thread count — the scenario layer pays nothing when off.
//! 2. **Thread-count invariance**: every scenario path hashes
//!    identically at 1, 2, and 8 worker threads.
//! 3. **Streaming equivalence**: the bounded-memory streaming pipeline
//!    (per-shard scenario generation as the `run_shards` source)
//!    reproduces the materialized run bit for bit, with the user-cost
//!    counters populated.
//! 4. **Pinned outcomes**: every scenario path — the three presets under
//!    both delivery modes, the plain-realtime fallback, and a cell
//!    ceiling tight enough to drop or defer — reproduces its golden hash.

use adpf_bench::baseline::SMOKE_GOLDEN;
use adpf_core::scenario::{CellCapacity, CellPolicy, ScenarioPopulation, ScenarioSpec};
use adpf_core::{Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_traces::PopulationConfig;

const THREADS: [usize; 3] = [1, 2, 8];

/// The flash crowd under a ceiling of two fetches per region-minute:
/// tight enough that the overflow policy decides thousands of fetches.
fn capped(policy: CellPolicy) -> ScenarioSpec {
    let mut spec = ScenarioSpec::flash_crowd();
    spec.cell = CellCapacity {
        policy,
        ..CellCapacity::capped(4, 2, SimDuration::from_mins(1))
    };
    spec
}

fn capped_drop() -> ScenarioSpec {
    capped(CellPolicy::Drop)
}

fn capped_defer() -> ScenarioSpec {
    capped(CellPolicy::Defer)
}

fn prefetch() -> SystemConfig {
    SystemConfig::prefetch_default(5)
}

fn no_piggyback() -> SystemConfig {
    SystemConfig {
        piggyback_on_fallback: false,
        ..prefetch()
    }
}

fn realtime() -> SystemConfig {
    SystemConfig::realtime(5)
}

/// One pinned scenario run over `small_test(777)`: the scenario, the
/// delivery config it is installed on, its report hash, and how many
/// realtime fetches the cell ceiling must have dropped and deferred.
struct Golden {
    what: &'static str,
    spec: fn() -> ScenarioSpec,
    config: fn() -> SystemConfig,
    hash: u64,
    cell: (u64, u64),
}

const GOLDENS: [Golden; 11] = [
    Golden {
        what: "mixed",
        spec: ScenarioSpec::mixed,
        config: prefetch,
        hash: 0xddb8_fd9f_23e2_7430,
        cell: (0, 0),
    },
    Golden {
        what: "mixed realtime",
        spec: ScenarioSpec::mixed,
        config: realtime,
        hash: 0xeb0c_5a35_a004_6549,
        cell: (0, 0),
    },
    Golden {
        what: "mixed without piggybacking",
        spec: ScenarioSpec::mixed,
        config: no_piggyback,
        hash: 0x5451_f589_645c_c359,
        cell: (0, 0),
    },
    Golden {
        what: "churn",
        spec: ScenarioSpec::churn,
        config: prefetch,
        hash: 0xde65_db09_8721_6443,
        cell: (0, 0),
    },
    Golden {
        what: "churn realtime",
        spec: ScenarioSpec::churn,
        config: realtime,
        hash: 0x316c_41b2_69b2_02d4,
        cell: (0, 0),
    },
    Golden {
        what: "flashcrowd",
        spec: ScenarioSpec::flash_crowd,
        config: prefetch,
        hash: 0x8949_83e7_2143_ad19,
        cell: (0, 0),
    },
    Golden {
        what: "flashcrowd realtime",
        spec: ScenarioSpec::flash_crowd,
        config: realtime,
        hash: 0xa21e_72ba_fc13_7557,
        cell: (0, 0),
    },
    Golden {
        what: "capped drop",
        spec: capped_drop,
        config: prefetch,
        hash: 0xc968_711b_7ecb_0098,
        cell: (1_093, 0),
    },
    Golden {
        what: "capped drop realtime",
        spec: capped_drop,
        config: realtime,
        hash: 0x39a9_515d_5453_0207,
        cell: (4_350, 0),
    },
    Golden {
        what: "capped defer",
        spec: capped_defer,
        config: prefetch,
        hash: 0xf6ba_eba9_d28f_aa5d,
        cell: (0, 1_022),
    },
    Golden {
        what: "capped defer realtime",
        spec: capped_defer,
        config: realtime,
        hash: 0x21b3_6ef0_ca94_a8a3,
        cell: (0, 4_350),
    },
];

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
    for g in &GOLDENS {
        let pop = ScenarioPopulation::new(PopulationConfig::small_test(777), (g.spec)());
        let mut cfg = (g.config)();
        pop.apply_to(&mut cfg);
        let (what, want) = (g.what, g.hash);
        let trace = pop.generate();
        let users = pop.num_users();
        let n_shards = adpf_core::default_shards(users);
        for threads in THREADS {
            let materialized = Simulator::run_trace(&cfg, &trace, threads).0;
            let streamed = Simulator::run_shards(&cfg, users, n_shards, threads, |i| {
                pop.generate_shard(i, n_shards)
            })
            .0;
            for (how, r) in [("materialized", materialized), ("streamed", streamed)] {
                let got = r.stable_hash();
                assert_eq!(
                    got, want,
                    "{what}, {how} at {threads} threads: expected {want:016x}, got {got:016x}"
                );
            }
        }

        // The counters feed the hash; these checks name what it pins, and
        // show the invariance proof is not vacuous: every path meters
        // bytes and records display latency on this population.
        let sc = Simulator::run_trace(&cfg, &trace, 2).0.scenario;
        assert_eq!(
            (sc.cell_dropped_fetches, sc.cell_deferred_fetches),
            g.cell,
            "{what}: cell ceiling (dropped, deferred)"
        );
        assert!(sc.metered_bytes() > 0, "{what}: no metered bytes recorded");
        assert!(
            sc.display_latency_ms.count() > 0,
            "{what}: no display-latency samples recorded"
        );
    }
}

#[test]
fn presets_produce_distinct_outcomes() {
    // The pinned paths are different regimes, not aliases: no two share
    // a report, and none is the scenario-off smoke report.
    let mut hashes: Vec<u64> = GOLDENS.iter().map(|g| g.hash).collect();
    hashes.push(SMOKE_GOLDEN);
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        GOLDENS.len() + 1,
        "scenario paths must not collapse into each other"
    );
}
