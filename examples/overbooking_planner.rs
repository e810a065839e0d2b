//! Standalone overbooking math: size a replica set for a pre-sold ad.
//!
//! Uses the overbooking library directly (no simulation): given per-client
//! display probabilities, compare replication policies on analytic SLA
//! violation probability and expected duplicate displays.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example overbooking_planner
//! ```

use adprefetch::overbooking::availability::{display_probability_bursty, ClientAvailability};
use adprefetch::overbooking::PlannerKind;

fn main() {
    // Candidate replica holders: expected slots before the ad's deadline,
    // ads already queued on them, and their typical session length.
    let profiles: Vec<(f64, u32, f64)> = vec![
        (12.0, 0, 4.0), // Heavy user, idle queue.
        (12.0, 6, 4.0), // Heavy user, deep queue.
        (4.0, 0, 3.0),  // Medium user.
        (4.0, 2, 3.0),
        (1.0, 0, 2.0), // Light user.
        (0.5, 0, 2.0),
        (6.0, 1, 5.0),
        (2.0, 0, 1.0),
    ];
    let candidates: Vec<ClientAvailability> = profiles
        .iter()
        .enumerate()
        .map(|(i, &(slots, queued, session))| ClientAvailability {
            client: i as u32,
            prob: display_probability_bursty(slots, queued, session, 0.5),
        })
        .collect();

    println!("candidate availabilities:");
    for c in &candidates {
        println!(
            "  client {:>2}: P(display before deadline) = {:.3}",
            c.client, c.prob
        );
    }

    println!(
        "\n{:>8}  {:>8} {:>14} {:>18}",
        "planner", "replicas", "P(violation)", "E[duplicates]"
    );
    for planner in [
        PlannerKind::NoReplication,
        PlannerKind::FixedK(2),
        PlannerKind::Greedy,
    ] {
        let plan = planner.plan(&candidates, 0.95, 8);
        println!(
            "{:>8}  {:>8} {:>14.4} {:>18.3}",
            planner.label(),
            plan.replicas(),
            1.0 - plan.success_prob,
            plan.expected_duplicates
        );
    }
    println!(
        "\nreading: the greedy planner reaches the 95% SLA with the fewest\n\
         replicas by taking the most-available clients first; fixed factors\n\
         either miss the target or overpay in expected duplicates."
    );
}
