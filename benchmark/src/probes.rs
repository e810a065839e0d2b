//! Layer probes: each layer's public function timed in isolation, on the
//! workload's own config and its first shard's data, in nanoseconds per
//! call.
//!
//! Probes run in the traced process after the drive, hot and alone, so
//! they are lower bounds on what the same call costs inside a run. A
//! layer the workload's config switches off is not probed: its metrics
//! stay 0, the same way its counts do.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
use adpf_core::DeliveryMode;
use adpf_desim::{EventQueue, SimTime};
use adpf_energy::Radio;
use adpf_netem::NetworkModel;
use adpf_obs::MetricRegistry;
use adpf_overbooking::availability::AvailabilityCache;
use adpf_overbooking::{ClientAvailability, ReplicaTracker};
use adpf_traces::UserSlots;

use crate::workloads::Inputs;

/// Calls per probe: enough that `Instant` resolution is noise, few
/// enough that all probes together stay well under a second.
const CALLS: usize = 100_000;

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// A fixed multiplicative-congruential stream in `[0, 1)`: probe inputs
/// must vary, and must be the same on every run.
fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs every probe the workload's config has a layer for and stores
/// the results in `m`.
pub fn run(inputs: &Inputs, m: &mut BTreeMap<&'static str, f64>) {
    let cfg = &inputs.cfg;
    let shard0 = inputs.pop.generate_shard(0, inputs.n_shards);
    let slots = shard0.ad_slots(cfg.ad_refresh);
    let times: Vec<SimTime> = slots.iter().map(|s| s.time).collect();
    let time_at = |i: usize| times[i % times.len().max(1)];
    if times.is_empty() {
        return;
    }
    let prefetch = cfg.mode == DeliveryMode::Prefetch;
    let by_user = UserSlots::from_slots(&slots, shard0.num_users());

    // desim: the calendar queue, fed the shard's own slot times pushed a
    // prefetch interval ahead (the distance syncs are scheduled at).
    {
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = CALLS.min(times.len());
        let fill = |q: &mut EventQueue<u32>| {
            for (i, &t) in times.iter().take(n).enumerate() {
                q.push(t + cfg.prefetch_interval, i as u32);
            }
        };
        let t0 = Instant::now();
        fill(&mut q);
        while let Some(e) = q.pop() {
            black_box(e);
        }
        m.insert(
            "desim.queue_push_pop_ns",
            t0.elapsed().as_nanos() as f64 / n as f64,
        );
        q.reset();
        fill(&mut q);
        let mut batch = Vec::new();
        let t0 = Instant::now();
        while !q.is_empty() {
            batch.clear();
            black_box(q.drain_near_bucket(SimTime::MAX, &mut batch));
        }
        m.insert(
            "desim.queue_drain_ns",
            t0.elapsed().as_nanos() as f64 / n as f64,
        );
    }

    // prediction: one user's predictor fed that user's slot times, one
    // prefetch interval per observation — what a sync does.
    if prefetch {
        let busiest = (0..by_user.num_users())
            .max_by_key(|&u| by_user.user(u).len())
            .unwrap_or(0);
        let mine = by_user.user(busiest);
        let interval = cfg.prefetch_interval;
        let periods = (shard0.horizon().as_millis() / interval.as_millis().max(1)).max(1) as usize;
        let mut predictor = cfg.predictor.build(mine);
        let window = |p: usize| {
            let start = SimTime::from_millis((p % periods) as u64 * interval.as_millis());
            let end = start + interval;
            let lo = mine.partition_point(|&t| t < start);
            let hi = mine.partition_point(|&t| t < end);
            (start, end, &mine[lo..hi])
        };
        m.insert(
            "prediction.observe_ns",
            ns_per_call(CALLS, |i| {
                let (start, end, seen) = window(i);
                predictor.observe(start, end, seen);
            }),
        );
        m.insert(
            "prediction.predict_ns",
            ns_per_call(CALLS, |i| {
                black_box(predictor.predict(window(i).1, interval));
            }),
        );
    }

    // auction: the shard-0 exchange as the engine builds it, offered the
    // slot kind this delivery mode sells.
    {
        let campaigns = CampaignCatalog::synthetic_with_targeting(
            cfg.campaigns,
            cfg.seed,
            cfg.contextual_fraction,
            cfg.contextual_premium,
        )
        .into_campaigns();
        let types = cfg.marketplace.assign_types(&campaigns);
        let mut exchange = Exchange::new(campaigns, cfg.seed);
        exchange.advance_discount = cfg.advance_discount;
        if cfg.marketplace.enabled {
            exchange.configure_marketplace(&cfg.marketplace, &types);
        }
        m.insert(
            "auction.run_auction_ns",
            ns_per_call(CALLS, |i| {
                let at = time_at(i);
                let offer = if prefetch {
                    SlotOffer::advance(at, at + cfg.deadline)
                } else {
                    SlotOffer::realtime(at, Some(slots[i % slots.len()].app.0 as u8 % 8))
                };
                black_box(exchange.run_auction(&offer));
            }),
        );
    }

    // overbooking: planner, availability cache and replica tracker.
    if prefetch {
        let mut unit = unit_stream(cfg.seed);
        let cands: Vec<ClientAvailability> = (0..cfg.candidate_pool as u32)
            .map(|client| ClientAvailability {
                client,
                prob: unit(),
            })
            .collect();
        let planner = cfg.planner.build();
        m.insert(
            "overbooking.plan_ns",
            ns_per_call(CALLS, |_| {
                black_box(planner.plan(black_box(&cands), cfg.sla_target, cfg.max_replicas));
            }),
        );

        // Expected-slot values as the engine derives them: a user's
        // slots per prefetch interval, so repeated users hit the cache.
        let intervals = (shard0.horizon().as_millis() as f64
            / cfg.prefetch_interval.as_millis().max(1) as f64)
            .max(1.0);
        let expected: Vec<f64> = (0..by_user.num_users())
            .map(|u| by_user.user(u).len() as f64 / intervals)
            .collect();
        let mut cache = AvailabilityCache::new(cfg.availability_dispersion);
        m.insert(
            "overbooking.avail_tail_ns",
            ns_per_call(CALLS, |i| {
                let e = expected[i % expected.len()];
                black_box(cache.display_probability_bursty(e, (i % 4) as u32, 3.0));
            }),
        );
        let (hits, misses) = cache.stats();
        m.insert(
            "overbooking.avail_cache_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );

        let mut tracker = ReplicaTracker::new();
        let mut cancelled = Vec::new();
        let deadline = SimTime::ZERO + cfg.deadline;
        let per_round = ns_per_call(CALLS, |i| {
            let ad = i as u64;
            let c = (i % 64) as u32;
            tracker.register(ad, &[c, c + 1, c + 2], deadline);
            black_box(tracker.record_display(ad, c));
            cancelled.clear();
            tracker.drain_cancellations(c + 1, &mut cancelled);
            tracker.remove(ad);
        });
        // Three tracked operations per round; `remove` keeps the arena
        // at its steady-state size and is charged to them.
        m.insert("overbooking.tracker_op_ns", per_round / 3.0);
    }

    // energy: one radio fed transfers at the shard's slot times.
    {
        let mut radio = Radio::new(cfg.radio.clone());
        let n = CALLS.min(times.len());
        m.insert(
            "energy.transfer_ns",
            ns_per_call(n, |i| {
                black_box(radio.transfer(times[i], cfg.ad_bytes_down, cfg.ad_bytes_up));
            }),
        );
    }

    // netem: link verdicts across the shard's clients, in time order.
    if cfg.netem.enabled {
        let clients = shard0.num_users().max(1) as usize;
        let mut net = NetworkModel::new(cfg.netem.clone(), clients, cfg.seed);
        let n = CALLS.min(times.len());
        m.insert(
            "netem.attempt_ns",
            ns_per_call(n, |i| {
                black_box(net.attempt(slots[i].user.0 as usize % clients, times[i]));
            }),
        );
    }

    // obs: one histogram sample through a pre-resolved id, the form the
    // engine's hot path uses.
    {
        let reg = MetricRegistry::new();
        let id = reg.histogram("bench.probe");
        m.insert(
            "obs.observe_ns",
            ns_per_call(CALLS, |i| reg.observe_id(id, i as u64)),
        );
        black_box(reg.len());
    }

    // serve protocol: serialize the shard. (`serve.protocol.feed_ns`
    // comes from the traced drive, which parses the whole stream.)
    if inputs.stream.is_some() {
        let mut wire = Vec::new();
        let t0 = Instant::now();
        adpf_serve::write_events(&shard0, cfg.ad_refresh, &mut wire)
            .expect("writing to memory cannot fail");
        let lines = slots.len() + 1;
        m.insert(
            "serve.protocol.write_ns",
            t0.elapsed().as_nanos() as f64 / lines as f64,
        );
        black_box(wire.len());
    }
}
