//! Overbooking: probabilistic replication of pre-sold ads across clients.
//!
//! Prefetching inverts the usual order of mobile advertising: an ad is sold
//! *before* any client is known to have a slot for it. Client predictions
//! are unreliable, so a pre-sold ad placed on a single client may never be
//! shown before its deadline (an **SLA violation**, which costs advertiser
//! trust and a refund). The paper's remedy is the overbooking model used by
//! airlines in reverse: place each sold ad on *several* clients, sized so
//! the probability that at least one of them shows it in time meets the SLA
//! target — while keeping the expected number of duplicate displays (shown
//! more often than paid for, i.e. **revenue loss**) as small as possible.
//!
//! - [`availability`]: per-client display probabilities from predicted slot
//!   rates (Poisson tails, discounted by ads already queued on the client).
//! - [`planner`]: [`PlannerKind`], the replica-set construction policy
//!   (greedy availability-ordered, fixed factor, none) and its one
//!   selection loop.
//! - [`sla_violation_prob`], [`expected_duplicates`]: closed-form
//!   SLA-violation and duplicate-display estimates for a chosen replica
//!   set.
//! - [`AdBook`]: one record per sold ad, from sale to its first display
//!   (billed, outstanding replicas cancelled, bounding duplicates to the
//!   sync delay) or its expiry (refunded).
//!
//! # Examples
//!
//! ```
//! use adpf_overbooking::availability::ClientAvailability;
//! use adpf_overbooking::PlannerKind;
//!
//! let candidates = vec![
//!     ClientAvailability { client: 0, prob: 0.6 },
//!     ClientAvailability { client: 1, prob: 0.5 },
//!     ClientAvailability { client: 2, prob: 0.4 },
//! ];
//! let plan = PlannerKind::Greedy.plan(&candidates, 0.9, 8);
//! assert!(plan.success_prob >= 0.85);
//! assert!(plan.clients.len() >= 2, "one 0.6 client cannot meet a 0.9 SLA");
//! ```

pub mod availability;
mod book;
mod estimator;
pub mod planner;

pub use availability::{poisson_tail, ClientAvailability};
pub use book::{AdBook, AdState, LedgerTotals, Record, ReplicaTracker, Shown};
pub use estimator::{expected_duplicates, sla_violation_prob};
pub use planner::{Plan, PlannerKind};
