//! Fault-path coverage for the `sync_dropout` knob: accounting, the
//! no-double-charge energy property, and (the `smoke-dropout` row)
//! determinism.

#[macro_use]
mod common;

use adprefetch::core::{Simulator, SystemConfig};
use adprefetch::traces::{PopulationConfig, Trace};

fn trace() -> Trace {
    PopulationConfig::small_test(4242).generate()
}

fn dropout_cfg(seed: u64, p: f64) -> SystemConfig {
    let mut cfg = SystemConfig::prefetch_default(seed);
    cfg.sync_dropout = p;
    cfg
}

#[test]
fn dropped_syncs_are_counted_and_books_still_balance() {
    let r = Simulator::new(dropout_cfg(3, 0.4), &trace()).run();
    assert!(r.syncs_dropped() > 0, "a 40% dropout must drop something");
    // Dropped syncs are periodic syncs that never happened: they appear
    // in no other counter, and every slot and sold ad still settles.
    assert_eq!(r.impressions() + r.unfilled(), r.slots());
    assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);
}

#[test]
fn dropped_syncs_never_charge_the_radio() {
    // With piggybacking on (the default), every radio transfer in
    // prefetch mode belongs to exactly one completed sync — so the
    // transfer count equals the sync count, with or without dropout. A
    // dropped sync that still charged energy would break the identity.
    let healthy = Simulator::new(dropout_cfg(7, 0.0), &trace()).run();
    let flaky = Simulator::new(dropout_cfg(7, 0.5), &trace()).run();
    for r in [&healthy, &flaky] {
        assert_eq!(
            r.energy.transfers,
            r.syncs(),
            "one radio transfer per completed sync"
        );
    }
    assert!(flaky.syncs_dropped() > 0);
    // Fewer completed syncs can only mean fewer charged transfers.
    assert!(flaky.energy.transfers < healthy.energy.transfers + flaky.syncs_dropped());
}

pinned_by! {
    dropout_runs_are_deterministic: "smoke-dropout";
    dropout_is_thread_invariant_under_sharding: "smoke-dropout";
}
