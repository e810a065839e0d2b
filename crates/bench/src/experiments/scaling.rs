//! E14: exchange behaviour and simulator scaling.

use std::time::Instant;

use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
use adpf_core::{Simulator, SystemConfig};
use adpf_desim::SimTime;
use adpf_traces::PopulationConfig;

use crate::scale::Scale;
use crate::table::{f, pct, Table};

/// E14: (a) real-time vs. advance clearing prices in the exchange, (b)
/// simulator throughput versus population size on `threads` worker
/// threads, and (c) a thread sweep measuring sharded scaling on the
/// largest population of the scale.
pub(crate) fn e14_scaling_threads(scale: Scale, threads: usize) -> Vec<Table> {
    let mut prices = Table::new(
        "E14a",
        "exchange clearing: real-time vs. advance sale",
        "advance slots clear at second price minus the risk discount; contextual campaigns \
         cannot bid on them, so targeting erodes advance prices further",
        &[
            "discount",
            "contextual",
            "auctions",
            "fill",
            "advance/realtime revenue",
        ],
    );
    for (discount, contextual) in [(1.0, 0.0), (0.95, 0.0), (0.9, 0.0), (1.0, 0.3), (1.0, 0.6)] {
        let n = 5_000;
        let mut rt_rev = 0.0;
        let mut adv_rev = 0.0;
        let mk = || {
            Exchange::new(
                CampaignCatalog::synthetic_with_targeting(40, 7, contextual, 1.5).into_campaigns(),
                7,
            )
        };
        let mut rt = mk();
        let mut adv = mk();
        adv.advance_discount = discount;
        for k in 0..n {
            let category = Some((k % 8) as u8);
            if let Some(s) = rt.run_auction(&SlotOffer::realtime(SimTime::ZERO, category)) {
                rt_rev += s.price;
            }
            if let Some(s) =
                adv.run_auction(&SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(12)))
            {
                adv_rev += s.price;
            }
        }
        prices.push(vec![
            f(discount, 2),
            pct(contextual),
            n.to_string(),
            pct(adv.fill_rate()),
            f(adv_rev / rt_rev, 3),
        ]);
    }

    let mut throughput = Table::new(
        "E14b",
        "simulator throughput vs. population size (prefetch mode, sharded)",
        "the event-driven design scales linearly in slots",
        &["users", "threads", "slots", "wall s", "slots/s"],
    );
    for users in scale.scaling_sizes() {
        let cfg = PopulationConfig {
            num_users: users,
            days: 7,
            ..PopulationConfig::iphone_like(42)
        };
        let trace = cfg.generate();
        let t0 = Instant::now();
        let report = Simulator::run_trace(&SystemConfig::prefetch_default(1), &trace, threads);
        let wall = t0.elapsed().as_secs_f64();
        throughput.push(vec![
            users.to_string(),
            threads.to_string(),
            report.slots().to_string(),
            f(wall, 2),
            f(report.slots() as f64 / wall.max(1e-9), 0),
        ]);
    }

    let mut thread_sweep = Table::new(
        "E14c",
        "sharded throughput vs. worker threads",
        "shards are fixed, so the merged report is identical at every thread count; \
         only wall-clock changes",
        &["threads", "slots", "wall s", "slots/s", "speedup"],
    );
    let sweep_users = *scale.scaling_sizes().last().expect("scales are non-empty");
    let sweep_trace = PopulationConfig {
        num_users: sweep_users,
        days: 7,
        ..PopulationConfig::iphone_like(42)
    }
    .generate();
    let mut single_thread_wall = None;
    for threads in scale.thread_counts() {
        let t0 = Instant::now();
        let report =
            Simulator::run_trace(&SystemConfig::prefetch_default(1), &sweep_trace, threads);
        let wall = t0.elapsed().as_secs_f64();
        let base = *single_thread_wall.get_or_insert(wall);
        thread_sweep.push(vec![
            threads.to_string(),
            report.slots().to_string(),
            f(wall, 2),
            f(report.slots() as f64 / wall.max(1e-9), 0),
            f(base / wall.max(1e-9), 2),
        ]);
    }

    vec![prices, throughput, thread_sweep]
}

/// E17: thread scaling of the parallel pipeline. Trace generation and
/// sharded simulation are timed separately at each worker-thread count
/// (generation used to be serial and dominated bench setup); the report
/// hash column is the determinism witness — threads are pure scheduling,
/// so it must be identical in every row.
pub(crate) fn e17_thread_scaling(scale: Scale) -> Table {
    let users = *scale.scaling_sizes().last().expect("scales are non-empty");
    let pop = PopulationConfig {
        num_users: users,
        days: 7,
        ..PopulationConfig::iphone_like(42)
    };
    let cfg = SystemConfig::prefetch_default(1);
    let mut table = Table::new(
        "E17",
        "pipeline thread scaling: parallel generation + work-stealing simulation",
        "threads are pure scheduling: the trace and the merged report are bit-identical \
         at every count, so the speedup columns carry no semantic drift",
        &[
            "threads",
            "gen s",
            "sim s",
            "events/s",
            "sim speedup",
            "report hash",
        ],
    );
    let mut base_wall = None;
    let mut base_hash = None;
    for threads in scale.thread_counts() {
        let t_gen = Instant::now();
        let trace = pop.generate_parallel(threads);
        let gen_s = t_gen.elapsed().as_secs_f64();
        let t_sim = Instant::now();
        let report = Simulator::run_trace(&cfg, &trace, threads);
        let wall = t_sim.elapsed().as_secs_f64();
        let hash = report.stable_hash();
        let expect = *base_hash.get_or_insert(hash);
        assert_eq!(hash, expect, "thread count changed the merged report");
        let events =
            report.slots() + report.syncs() + report.syncs_skipped() + report.syncs_dropped();
        let base = *base_wall.get_or_insert(wall);
        table.push(vec![
            threads.to_string(),
            f(gen_s, 2),
            f(wall, 2),
            f(events as f64 / wall.max(1e-9), 0),
            f(base / wall.max(1e-9), 2),
            format!("{hash:016x}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_discount_tracks_revenue_ratio() {
        let tables = e14_scaling_threads(Scale::Micro, 1);
        let prices = &tables[0];
        for row in &prices.rows {
            let discount: f64 = row[0].parse().unwrap();
            let contextual: f64 = row[1].trim_end_matches('%').parse().unwrap();
            let ratio: f64 = row[4].parse().unwrap();
            if contextual == 0.0 {
                assert!(
                    (ratio - discount).abs() < 0.05,
                    "discount {discount} ratio {ratio}"
                );
            } else {
                // Contextual campaigns can only lift real-time revenue.
                assert!(ratio < 1.0, "contextual {contextual}% ratio {ratio}");
            }
        }
        assert_eq!(tables[1].rows.len(), Scale::Micro.scaling_sizes().len());
    }

    #[test]
    fn e17_hashes_are_identical_at_every_thread_count() {
        let t = e17_thread_scaling(Scale::Micro);
        assert_eq!(t.rows.len(), Scale::Micro.thread_counts().len());
        let hashes: Vec<&String> = t.rows.iter().map(|r| &r[5]).collect();
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "report hash must not depend on threads: {hashes:?}"
        );
    }

    #[test]
    fn e14_thread_sweep_simulates_the_same_slots_at_every_count() {
        let tables = e14_scaling_threads(Scale::Micro, 2);
        let sweep = &tables[2];
        assert_eq!(sweep.rows.len(), Scale::Micro.thread_counts().len());
        let slots: Vec<&String> = sweep.rows.iter().map(|r| &r[1]).collect();
        assert!(
            slots.windows(2).all(|w| w[0] == w[1]),
            "thread count must not change the simulated work: {slots:?}"
        );
    }
}
