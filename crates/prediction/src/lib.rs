//! Client ad-slot demand prediction.
//!
//! The paper's ad server sells a client's *future* ad slots in the exchange
//! before the client has opened any app. That requires a per-client model of
//! how many slots the client will have between now and its next sync. This
//! crate implements that model family behind one interface:
//!
//! - [`Predictor`]: one client's model, whatever its family — observe the
//!   slots shown in each past period, predict the count for an upcoming
//!   window.
//! - [`PredictorKind`]: names a family and builds it. The baselines (zero,
//!   long-run mean rate, EWMA); the diurnal models (per-hour rates,
//!   optionally split by day of week) — the shape the paper found
//!   effective, since app usage is strongly time-of-day bound; a two-state
//!   Markov chain; a chosen percentile of historical demand, the paper's
//!   central knob (predicting low under-sells but rarely strands prefetched
//!   ads, predicting high over-sells and leans on overbooking); the
//!   session-aware model the system defaults to; and the oracle, exact
//!   future knowledge, the upper bound.
//! - [`evaluate_predictor`]: the offline evaluation harness behind
//!   experiments E5/E6 (over/under-prediction rates and error CDFs per
//!   horizon).
//!
//! # Examples
//!
//! ```
//! use adpf_desim::{SimDuration, SimTime};
//! use adpf_prediction::PredictorKind;
//!
//! let mut p = PredictorKind::GlobalRate.build(&[]);
//! // Observe 4 slots in the first hour.
//! let hour = SimDuration::from_hours(1);
//! p.observe(SimTime::ZERO, SimTime::ZERO + hour, &[SimTime::from_mins(10); 4]);
//! let pred = p.predict(SimTime::from_hours(1), SimDuration::from_hours(2));
//! assert!((pred - 8.0).abs() < 1e-9);
//! ```

mod eval;
mod history;
mod markov;
mod oracle;
mod predictor;
mod quantile;
mod session;
mod tod;

pub use eval::{evaluate_predictor, EvalReport};
pub use predictor::{Predictor, PredictorKind};
