//! E21/E22: the scenario-suite sweeps.
//!
//! Every earlier sweep runs one homogeneous population on one radio
//! profile; these two stress the paper's affordability claim with the
//! regimes it skips. E21 crosses the device-class mix against the
//! prefetch policy and reads the user-cost counters the scenario layer
//! adds — metered bytes, wasted prefetch traffic, data-cap blocks,
//! display latency. E22 composes a flash crowd with an AdCell-style
//! per-region cell ceiling and the planner's overbooking aggressiveness.

use adpf_core::scenario::{
    CellCapacity, CellPolicy, DeviceClass, ScenarioPopulation, ScenarioSpec,
};
use adpf_core::{Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_traces::PopulationConfig;

use crate::scale::Scale;
use crate::table::{f, pct, Table};

const SEED: u64 = 42;

/// The scenario sweeps' base population: the iPhone-like shape at the
/// experiment scale, capped at sweep size (like `Scale::system_trace`)
/// because each table cell is a full simulation run.
fn base_population(scale: Scale) -> PopulationConfig {
    let mut cfg = scale.iphone(SEED);
    if matches!(scale, Scale::Full) {
        cfg.num_users = 600;
    }
    cfg
}

/// A homogeneous single-class scenario: one class of the canonical mix
/// promoted to the whole population. Rows for these are the per-class
/// breakdown of E21 — class membership is the only axis that moves.
fn solo(class: &DeviceClass) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("solo-{}", class.name),
        classes: vec![DeviceClass {
            weight: 1.0,
            ..class.clone()
        }],
        ..ScenarioSpec::mixed()
    }
}

/// The population-mix axis: the canonical three-way mix plus each class
/// alone.
fn mixes() -> Vec<(String, ScenarioSpec)> {
    let mut axis = vec![("mixed".to_string(), ScenarioSpec::mixed())];
    for class in &ScenarioSpec::mixed().classes {
        axis.push((class.name.clone(), solo(class)));
    }
    axis
}

/// The prefetch-policy axis: pure on-demand delivery, the paper's
/// default 2 h prefetch interval, and an aggressive 30 min interval
/// (more syncs, fresher caches, more wasted bytes).
fn policies(seed: u64) -> Vec<(&'static str, SystemConfig)> {
    let mut aggressive = SystemConfig::prefetch_default(seed);
    aggressive.prefetch_interval = SimDuration::from_mins(30);
    vec![
        ("realtime", SystemConfig::realtime(seed)),
        ("prefetch 2h", SystemConfig::prefetch_default(seed)),
        ("prefetch 30m", aggressive),
    ]
}

/// E21: population mix × prefetch policy → energy and user-cost.
///
/// The per-class rows answer what the mixed aggregate hides: WiFi-heavy
/// users pay no metered bytes at all, LTE users pay in bytes but never
/// hit a cap, and 3G-budget users exhaust their plan allowance under
/// prefetching — the cap-block column — then fall back to (still
/// metered) on-demand fetches.
pub(crate) fn e21_population_mix(scale: Scale, threads: usize) -> Table {
    let mut table = Table::new(
        "E21",
        "population mix x prefetch policy: energy + user-cost per class",
        "scenario-layer counters: metered bytes bill against the user's data plan, wasted MB is \
         prefetch traffic that expired undisplayed, cap-blk counts prefetch syncs blocked by an \
         exhausted plan, display latency from the scenario.display_latency_ms histogram",
        &[
            "mix",
            "policy",
            "J/imp",
            "metered MB",
            "MB/user-day",
            "wasted MB",
            "wasted ads",
            "cap-blk",
            "disp p50 ms",
            "disp p95 ms",
        ],
    );
    let base = base_population(scale);
    for (mix_label, spec) in mixes() {
        let pop = ScenarioPopulation::new(base.clone(), spec);
        let trace = pop.generate_parallel(threads);
        for (policy, mut cfg) in policies(1) {
            pop.apply_to(&mut cfg);
            let r = Simulator::run_trace(&cfg, &trace, threads);
            let count = |name| r.metrics.counter_value(name);
            let latency = r.display_latency_ms();
            let user_days = (r.users as f64 * r.days as f64).max(1.0);
            table.push(vec![
                mix_label.clone(),
                policy.to_string(),
                f(r.energy_per_impression_j(), 3),
                f(r.metered_bytes() as f64 / 1e6, 2),
                f(r.metered_bytes() as f64 / 1e6 / user_days, 3),
                f(count("scenario.prefetch_wasted_bytes") as f64 / 1e6, 2),
                count("scenario.prefetch_wasted_ads").to_string(),
                count("scenario.cap_blocked_syncs").to_string(),
                latency.quantile_upper_bound(0.50).to_string(),
                latency.quantile_upper_bound(0.95).to_string(),
            ]);
        }
    }
    table
}

/// The cell-ceiling axis for E22: no ceiling, then a tight per-region
/// budget under each overflow policy. The budget scales with the
/// population (per region-minute) so the ceiling stays binding at every
/// experiment scale. `regions` is pinned to the flashcrowd preset's so
/// the burst's regional targeting — baked into the trace — is identical
/// across cells of the sweep.
fn cell_axis(users: u32) -> Vec<(&'static str, CellCapacity)> {
    let tight = (users / 20).max(1);
    let mut drop = CellCapacity::capped(4, tight, SimDuration::from_mins(1));
    drop.policy = CellPolicy::Drop;
    let mut defer = drop.clone();
    defer.policy = CellPolicy::Defer;
    vec![
        ("uncapped", CellCapacity::disabled()),
        ("tight/drop", drop),
        ("tight/defer", defer),
    ]
}

/// E22: flash-crowd intensity × cell capacity × overbooking.
///
/// Each intensity generates one trace (the burst is trace-side); the
/// cell ceiling and the planner's SLA target are engine-side, so they
/// sweep over the same bytes. Dropped fetches surface as unfilled
/// slots; deferred ones as display latency. A less aggressive
/// overbooking target (0.50) leans harder on realtime fetches, which is
/// exactly the traffic the saturated cell throttles.
pub(crate) fn e22_flash_crowd(scale: Scale, threads: usize) -> Table {
    let mut table = Table::new(
        "E22",
        "flash crowd x cell capacity x overbooking",
        "burst = mean extra sessions per affected user over the 2 h window (0 = outage-only \
         baseline); the cell ceiling admits a per-region fetch budget per minute and drops or \
         defers the overflow",
        &[
            "burst",
            "cell",
            "SLA tgt",
            "dropped",
            "deferred",
            "unfilled",
            "SLA viol",
            "disp p95 ms",
            "J/imp",
        ],
    );
    let base = base_population(scale);
    for intensity in [0.0, 3.0, 6.0] {
        let mut spec = ScenarioSpec::flash_crowd();
        spec.burst.as_mut().unwrap().intensity = intensity;
        let pop = ScenarioPopulation::new(base.clone(), spec);
        let trace = pop.generate_parallel(threads);
        for (cell_label, cell) in cell_axis(base.num_users) {
            for sla_target in [0.95, 0.50] {
                let mut cfg = SystemConfig::prefetch_default(1);
                cfg.sla_target = sla_target;
                pop.apply_to(&mut cfg);
                cfg.scenario.cell = cell.clone();
                let r = Simulator::run_trace(&cfg, &trace, threads);
                let count = |name| r.metrics.counter_value(name);
                table.push(vec![
                    f(intensity, 1),
                    cell_label.to_string(),
                    f(sla_target, 2),
                    count("scenario.cell_dropped_fetches").to_string(),
                    count("scenario.cell_deferred_fetches").to_string(),
                    r.unfilled().to_string(),
                    pct(r.sla_violation_rate()),
                    r.display_latency_ms()
                        .quantile_upper_bound(0.95)
                        .to_string(),
                    f(r.energy_per_impression_j(), 3),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn e21_shape_and_per_class_cost_structure() {
        let t = e21_population_mix(Scale::Micro, 2);
        assert_eq!(t.rows.len(), 4 * 3, "4 mixes x 3 policies");

        let row = |mix: &str, policy: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == mix && r[1] == policy)
                .unwrap_or_else(|| panic!("row {mix}/{policy}"))
        };
        // WiFi is unmetered: the solo WiFi-heavy class pays zero metered
        // bytes under every policy.
        for (policy, _) in policies(1) {
            assert_eq!(num(&row("wifi-heavy", policy)[3]), 0.0);
        }
        // Pure on-demand delivery prefetches nothing, so it wastes
        // nothing and never hits a data cap.
        for mix in ["mixed", "wifi-heavy", "lte", "3g-budget"] {
            assert_eq!(num(&row(mix, "realtime")[5]), 0.0);
            assert_eq!(row(mix, "realtime")[7], "0");
        }
        // The budget class's tiny plan allowance blocks prefetch syncs,
        // and metered LTE users pay real bytes.
        assert!(num(&row("3g-budget", "prefetch 2h")[7]) > 0.0);
        assert!(num(&row("lte", "prefetch 2h")[3]) > 0.0);
    }

    #[test]
    fn e21_is_deterministic_across_thread_counts() {
        let a = e21_population_mix(Scale::Micro, 1);
        let b = e21_population_mix(Scale::Micro, 4);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn e22_shape_and_ceiling_effects() {
        let t = e22_flash_crowd(Scale::Micro, 2);
        assert_eq!(
            t.rows.len(),
            3 * 3 * 2,
            "3 intensities x 3 cells x 2 targets"
        );

        let cell = |burst: &str, cell: &str, tgt: &str, col: usize| -> f64 {
            num(&t
                .rows
                .iter()
                .find(|r| r[0] == burst && r[1] == cell && r[2] == tgt)
                .unwrap_or_else(|| panic!("row {burst}/{cell}/{tgt}"))[col])
        };
        // The uncapped rows never drop or defer.
        for r in t.rows.iter().filter(|r| r[1] == "uncapped") {
            assert_eq!(r[3], "0");
            assert_eq!(r[4], "0");
        }
        // A tight ceiling under the heavy crowd actually intervenes, and
        // each policy routes the overflow to its own counter.
        assert!(
            cell("6.0", "tight/drop", "0.50", 3) > 0.0,
            "drops under load"
        );
        assert_eq!(cell("6.0", "tight/drop", "0.50", 4), 0.0);
        assert!(
            cell("6.0", "tight/defer", "0.50", 4) > 0.0,
            "defers under load"
        );
        assert_eq!(cell("6.0", "tight/defer", "0.50", 3), 0.0);
        // Dropped fetches leave slots unfilled relative to the same
        // run without a ceiling.
        assert!(cell("6.0", "tight/drop", "0.50", 5) >= cell("6.0", "uncapped", "0.50", 5));
    }

    #[test]
    fn e22_is_deterministic_across_thread_counts() {
        let a = e22_flash_crowd(Scale::Micro, 1);
        let b = e22_flash_crowd(Scale::Micro, 4);
        assert_eq!(a.rows, b.rows);
    }
}
