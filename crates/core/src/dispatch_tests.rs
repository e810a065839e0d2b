//! The one internal-event drain held to the pop-by-pop loop it replaced.
//!
//! `drain_reference` is the engine's dispatch as it stood before events
//! left the queue a bucket at a time: one pop, one dispatch, one re-peek.
//! [`lockstep`] drives two engines over one slot stream, one through
//! each, and compares everything they report.
//!
//! A self-scheduling delta shorter than one 1.024 s queue bucket puts a
//! handler's newcomer *inside* the batch being dispatched. One such delta
//! alone never interleaves (staggered syncs of one period keep their
//! order, a lone pacer has nothing to overtake), so those cases pass even
//! with the newcomer check removed; the combined case has newcomers that
//! must overtake batch items, and equal-time pairs that must not. Both
//! mutations of the check (loop removed; `<=` for `<`) fail that case and
//! nothing else.

use adpf_auction::MarketplaceConfig;
use adpf_netem::{NetemConfig, RetryPolicy};
use adpf_traces::PopulationConfig;

use super::*;

impl ClientEngine {
    /// Pops and dispatches every event before `t`, or with `None` every
    /// event there is.
    fn drain_reference(&mut self, t: Option<SimTime>) {
        while self
            .next_internal
            .is_some_and(|nt| t.is_none_or(|t| nt < t))
        {
            let (now, ev) = self.scratch.queue.pop().expect("peeked");
            self.dispatch(now, ev);
            self.next_internal = self.scratch.queue.peek_time();
        }
    }
}

/// Runs `config` over the first `hours` of `pop`'s trace through both
/// drains; the reports and deterministic registries must be equal.
/// Returns how many internal events each engine dispatched.
fn lockstep(name: &str, config: &SystemConfig, pop: &PopulationConfig, hours: u64) -> u64 {
    let trace = pop.generate();
    let horizon = SimTime::from_hours(hours).min(trace.horizon());
    let mut slots = trace.ad_slots(config.ad_refresh);
    slots.retain(|s| s.time < horizon);
    let by_user = UserSlots::from_slots(&slots, trace.num_users());
    let ctx = ShardContext::new(config);
    let mk = || ClientEngine::new(config.clone(), &by_user, horizon, trace.days(), &ctx);
    let (mut one, mut reference) = (mk(), mk());
    for s in &slots {
        one.drain_internal_before(s.time);
        reference.drain_reference(Some(s.time));
        assert_eq!(one.next_internal, reference.next_internal, "{name}");
        one.on_slot(s.time, s.user, s.app);
        reference.on_slot(s.time, s.user, s.app);
    }
    one.drain_internal();
    reference.drain_reference(None);
    let (got, want) = (one.into_report(), reference.into_report());
    let (got_reg, want_reg) = (&got.metrics, &want.metrics);
    assert_eq!(got.stable_hash(), want.stable_hash(), "{name}");
    assert!(got == want, "{name}: reports differ");
    assert_eq!(
        got_reg.deterministic_snapshot(),
        want_reg.deterministic_snapshot(),
        "{name}"
    );
    ["sync", "retry", "expiry_sweep", "pacing"]
        .iter()
        .map(|ev| got_reg.counter_value(&format!("sim.event.{ev}")))
        .sum()
}

#[test]
fn dispatch_matches_pop_by_pop_on_the_default_configurations() {
    let pop = PopulationConfig::small_test(777);
    let week = 24 * 7;
    for netem in [false, true] {
        for market in [false, true] {
            let mut config = SystemConfig::prefetch_default(5);
            if netem {
                config.netem = NetemConfig::flaky_cellular();
            }
            if market {
                config.marketplace = MarketplaceConfig::paced();
            }
            let name = format!("netem={netem},marketplace={market}");
            assert!(lockstep(&name, &config, &pop, week) > 0, "{name}");
        }
    }
    // Real-time delivery schedules nothing for itself: the drain is a
    // compare per slot.
    let events = lockstep("realtime", &SystemConfig::realtime(5), &pop, week);
    assert_eq!(events, 0, "realtime");
}

/// Six users busy round the clock (the cut-off horizon would otherwise
/// be the small hours, with no slots) under the chosen sub-bucket deltas:
/// a 0.7 s sync period, a 0.3 s pacer, 150–900 ms jittered retries.
fn sub_bucket(seed: u64, hours: u64, [sync, pacing, retries]: [bool; 3]) -> u64 {
    let mut pop = PopulationConfig::small_test(777);
    pop.num_users = 6;
    pop.days = 1;
    pop.hour_weights = [1.0; 24];
    pop.mean_sessions_per_day = 60.0;
    let mut config = SystemConfig::prefetch_default(seed);
    if sync {
        config.prefetch_interval = SimDuration::from_millis(700);
    }
    if pacing {
        config.marketplace = MarketplaceConfig::paced();
        config.marketplace.pacing_interval = SimDuration::from_millis(300);
    }
    if retries {
        config.netem = NetemConfig::flaky_cellular().with_retry(RetryPolicy {
            max_retries: 4,
            base: SimDuration::from_millis(150),
            factor: 2.0,
            cap: SimDuration::from_millis(900),
            jitter: 0.5,
        });
    }
    let name = format!("seed={seed} sync={sync} pacing={pacing} retries={retries}");
    lockstep(&name, &config, &pop, hours)
}

#[test]
fn dispatch_matches_pop_by_pop_with_one_sub_bucket_delta() {
    assert!(sub_bucket(5, 2, [true, false, false]) > 50_000);
    assert!(sub_bucket(5, 4, [false, true, false]) > 40_000);
}

#[test]
fn dispatch_matches_pop_by_pop_with_interleaving_sub_bucket_deltas() {
    // A newcomer overtaking a batch item happens within seconds on any
    // seed. What tells `<` from `<=` is rarer: a newcomer and a batch
    // item at the same millisecond whose order matters (a client's retry
    // against its own sync draw from one link RNG), once in hours. Each
    // of these seeds has one in its first quarter of an hour, so each
    // alone fails under either mutation.
    for seed in [6, 14, 26] {
        let events = sub_bucket(seed, 1, [true, true, true]);
        assert!(
            events > 40_000,
            "seed {seed}: only {events} internal events"
        );
    }
}
