//! End-to-end ad-prefetching system (the paper's contribution).
//!
//! This crate wires the substrates together into the system evaluated by
//! *Prefetching mobile ads: can advertising systems afford it?* (EuroSys
//! 2013):
//!
//! 1. Clients replay an app-usage trace; every session start and 30-second
//!    refresh is an **ad slot**.
//! 2. In [`config::DeliveryMode::RealTime`] (the status quo), each slot
//!    triggers an exchange auction and a radio fetch — paying the full
//!    promotion + tail energy every time.
//! 3. In [`config::DeliveryMode::Prefetch`] (the paper's scheme), each
//!    client syncs with the ad server every prefetch interval. At a sync
//!    the server (a) ingests the client's impression reports and slot
//!    observations, (b) updates the client's demand predictor, (c) sells
//!    the *predicted* slots of the upcoming interval in the exchange as
//!    advance slots with a display deadline, (d) replicates each sold ad
//!    across clients using the overbooking planner so the SLA target is
//!    met despite prediction error, and (e) delivers assigned ads in one
//!    batched radio transfer. Slots that find the cache empty fall back to
//!    a real-time fetch.
//! 4. A [`report::SimReport`] captures the three currencies the paper
//!    trades: **energy** (promotion/transfer/tail joules of ad traffic),
//!    **revenue** (billed impressions minus refunds), and **SLA
//!    violations** (sold ads that expired undisplayed), plus duplicate
//!    displays, cache hit rates, and sync costs. Every count in it is
//!    read from the run's metric registry, which the report carries.
//!
//! Batch runs shard the population through one scheduler,
//! [`Simulator::run_shards`]; [`Simulator::run_trace`] feeds it a
//! materialized trace.
//!
//! # Examples
//!
//! ```
//! use adpf_core::{Simulator, SystemConfig, DeliveryMode};
//! use adpf_traces::PopulationConfig;
//!
//! let trace = PopulationConfig::small_test(1).generate();
//! let rt = Simulator::new(SystemConfig::realtime(1), &trace).run();
//! let pf = Simulator::new(SystemConfig::prefetch_default(1), &trace).run();
//! assert!(pf.energy.total_j() < rt.energy.total_j(), "prefetch must save energy");
//! ```

mod client;
mod config;
mod engine;
mod report;
pub mod scenario;
mod sim;

pub use adpf_overbooking::PlannerKind;
pub use config::{DeliveryMode, SystemConfig};
pub use engine::ClientEngine;
pub use report::SimReport;
pub use scenario::{CellCapacity, CellPolicy, DeviceClass, ScenarioConfig};
pub use sim::{default_shards, merge_shards, shard_configs, ShardContext, Simulator};
