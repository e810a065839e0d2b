//! Operator view: what does enabling prefetching do to an ad network's
//! books?
//!
//! Simulates an iPhone-scale population for one week and prints the
//! operator-facing scorecard — revenue, fill, SLA compliance, and the
//! client-side energy bill — at three display deadlines the exchange
//! might demand from advertisers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ad_network_day
//! ```

use adprefetch::core::{Simulator, SystemConfig};
use adprefetch::desim::SimDuration;
use adprefetch::traces::PopulationConfig;

fn main() {
    let cfg = PopulationConfig {
        num_users: 300,
        days: 7,
        ..PopulationConfig::iphone_like(2026)
    };
    let trace = cfg.generate();
    let realtime = Simulator::new(SystemConfig::realtime(7), &trace).run();
    println!(
        "population: {} users, {} slots/week; real-time books: ${:.2} revenue, {:.2} J/impression\n",
        trace.num_users(),
        realtime.slots(),
        realtime.revenue(),
        realtime.energy_per_impression_j()
    );

    println!(
        "{:>10}  {:>9} {:>9} {:>9} {:>10} {:>10}",
        "deadline", "revenue", "loss", "SLA viol", "dup/slot", "energy sav"
    );
    for deadline_h in [4u64, 12, 24] {
        let mut cfg = SystemConfig::prefetch_default(7);
        cfg.deadline = SimDuration::from_hours(deadline_h);
        let pf = Simulator::new(cfg, &trace).run();
        println!(
            "{:>9}h  {:>8.2}$ {:>8.2}% {:>8.2}% {:>9.2}% {:>9.1}%",
            deadline_h,
            pf.revenue(),
            pf.revenue_loss_vs(&realtime) * 100.0,
            pf.sla_violation_rate() * 100.0,
            pf.ledger.duplicates as f64 / pf.slots().max(1) as f64 * 100.0,
            pf.energy_savings_vs(&realtime) * 100.0
        );
    }
    println!(
        "\nreading: longer deadlines let the overbooking model keep both SLA\n\
         violations and duplicate displays negligible while retaining the\n\
         energy savings — the paper's central trade."
    );
}
