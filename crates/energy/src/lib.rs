//! Radio energy models for mobile ad delivery.
//!
//! The motivation of *Prefetching mobile ads* (EuroSys 2013) is the **tail
//! energy** problem: after every cellular transfer the radio lingers in
//! high-power states for several seconds before demoting to idle, so a small
//! periodic ad download (a few KB every 30 s) pays a fixed multi-joule tail
//! each time. Batching `K` ads into one prefetch removes `K - 1` tails.
//!
//! This crate models that structure explicitly:
//!
//! - `profile`: parameterized radio profiles — promotion delay/power,
//!   transfer power and throughput, and a sequence of post-transfer tail
//!   phases (3G: DCH then FACH tails; LTE: one long tail; WiFi: a short
//!   PSM tail). Constants follow the measurement literature the paper
//!   builds on (Balasubramanian et al. IMC'09, Huang et al. MobiSys'12).
//! - `radio`: a per-client radio state machine that converts a stream of
//!   timestamped transfers into an [`EnergyBreakdown`] split into
//!   promotion, transfer, and tail energy.
//! - `timeline`: optional recording of state intervals for figure output.
//! - [`audit`]: app-level energy audits that attribute marginal energy to
//!   in-app advertising, reproducing the paper's "ads are 65% of an app's
//!   communication energy" motivation study.
//!
//! # Examples
//!
//! ```
//! use adpf_desim::SimTime;
//! use adpf_energy::{profiles, Radio};
//!
//! let mut radio = Radio::new(profiles::umts_3g());
//! // Two 4 KB ad downloads a minute apart each pay promotion + full tail.
//! radio.transfer(SimTime::from_secs(0), 4_096, 512);
//! radio.transfer(SimTime::from_secs(60), 4_096, 512);
//! let e = radio.finish(SimTime::from_secs(120));
//! assert!(e.tail_j > e.transfer_j, "tail energy dominates small transfers");
//! ```

pub mod audit;
mod battery;
mod profile;
mod radio;
mod timeline;

pub use audit::{AdTrafficModel, AppProfile, AppTrafficModel, EnergyAudit};
pub use battery::BatteryModel;
pub use profile::{profiles, RadioProfile, TailPhase};
pub use radio::{EnergyBreakdown, Radio, TransferRecord};
pub use timeline::{RadioState, StateInterval, Timeline};
