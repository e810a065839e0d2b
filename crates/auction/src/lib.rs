//! Ad exchange substrate.
//!
//! Modern mobile advertising sells every impression through a real-time
//! auction: when a client can display an ad, the ad server offers the slot
//! to an exchange, advertiser campaigns bid, and the winner's creative is
//! returned to the client. The paper's contribution changes *when* slots
//! are offered (in advance, based on predictions) but not *how* they are
//! sold — so this crate implements the standard machinery the paper builds
//! on:
//!
//! - `campaign`: advertiser campaigns with budgets, lognormal bid
//!   distributions, and participation (targeting reach) probabilities.
//! - `exchange`: a sealed-bid second-price exchange. Slots can be
//!   offered [`exchange::SlotKind::RealTime`] (display is certain, the
//!   status quo) or [`exchange::SlotKind::Advance`] (display is predicted;
//!   sold with a display deadline and a risk discount). Given an idle
//!   core, an exchange samples its auctions ahead on its worker's
//!   [`BidSampler`], bit-identically ([`Exchange::sample_ahead_on`]).
//! - `market`: the opt-in reactive marketplace layer — campaign types
//!   with proportional pacing controllers, per-slot-kind price floors,
//!   and a first-price/second-price switch. Off by default; the static
//!   exchange above is the paper's model.
//!
//! What happens to a sold ad afterwards — billed at its first display in
//! time, refunded at expiry — is `adpf_overbooking::AdBook`'s, which
//! keeps one record per sold ad; [`Exchange::refund`] credits the payer.
//!
//! # Examples
//!
//! ```
//! use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
//! use adpf_desim::SimTime;
//!
//! let mut ex = Exchange::new(CampaignCatalog::synthetic(20, 7).into_campaigns(), 7);
//! let sold = ex.run_auction(&SlotOffer::realtime(SimTime::ZERO, None));
//! assert!(sold.is_some(), "a 20-campaign exchange fills a slot");
//! ```

mod ahead;
mod campaign;
mod exchange;
mod market;

pub use ahead::BidSampler;
pub use campaign::{BidModel, Campaign, CampaignCatalog, CampaignId};
pub use exchange::{AdId, Exchange, SlotKind, SlotOffer, SoldAd};
pub use market::{CampaignType, MarketplaceConfig, PacingController, PriceFloors, PricingRule};
