//! Per-client radio state machine with energy accounting.

use adpf_desim::{SimDuration, SimTime};
use adpf_obs::MetricRegistry;

use crate::profile::RadioProfile;
use crate::timeline::{RadioState, Timeline};

/// Accumulated radio energy, split by cause.
///
/// All energies are joules. `tail_j` is the quantity the paper's prefetching
/// attacks: energy burnt *after* transfers while inactivity timers run down.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy spent promoting the radio from idle, in joules.
    pub promotion_j: f64,
    /// Energy spent actively moving bytes, in joules.
    pub transfer_j: f64,
    /// Energy spent in post-transfer tail states, in joules.
    pub tail_j: f64,
    /// Number of transfers performed.
    pub transfers: u64,
    /// Number of transfers that required an idle promotion.
    pub promotions: u64,
    /// Total bytes downloaded.
    pub bytes_down: u64,
    /// Total bytes uploaded.
    pub bytes_up: u64,
    /// Total time with the radio out of idle.
    pub active_time: SimDuration,
    /// Portion of `active_time` spent in idle→active promotions.
    pub promo_time: SimDuration,
    /// Portion of `active_time` spent in post-transfer tail states.
    pub tail_time: SimDuration,
}

impl EnergyBreakdown {
    /// Total radio energy, in joules.
    pub fn total_j(&self) -> f64 {
        self.promotion_j + self.transfer_j + self.tail_j
    }

    /// Fraction of total energy attributable to the tail; `0.0` when no
    /// energy has been spent.
    pub fn tail_fraction(&self) -> f64 {
        let total = self.total_j();
        if total <= 0.0 {
            0.0
        } else {
            self.tail_j / total
        }
    }

    /// Adds another breakdown into this one (for fleet-wide aggregation).
    pub fn absorb(&mut self, other: &EnergyBreakdown) {
        self.promotion_j += other.promotion_j;
        self.transfer_j += other.transfer_j;
        self.tail_j += other.tail_j;
        self.transfers += other.transfers;
        self.promotions += other.promotions;
        self.bytes_down += other.bytes_down;
        self.bytes_up += other.bytes_up;
        self.active_time += other.active_time;
        self.promo_time += other.promo_time;
        self.tail_time += other.tail_time;
    }

    /// Time spent actively moving bytes (or stalled on a round trip):
    /// active time minus the promotion and tail residencies.
    pub fn transfer_time(&self) -> SimDuration {
        SimDuration::from_millis(
            self.active_time
                .as_millis()
                .saturating_sub(self.promo_time.as_millis())
                .saturating_sub(self.tail_time.as_millis()),
        )
    }

    /// Publishes this (per-client) breakdown as radio state-residency
    /// histograms: one sample per state per client, in milliseconds,
    /// plus per-client energy in millijoules. All inputs are simulated
    /// quantities, so the resulting metrics are deterministic.
    pub fn publish_residency(&self, reg: &MetricRegistry) {
        reg.observe("energy.user.promo_ms", self.promo_time.as_millis());
        reg.observe("energy.user.xfer_ms", self.transfer_time().as_millis());
        reg.observe("energy.user.tail_ms", self.tail_time.as_millis());
        reg.observe("energy.user.active_ms", self.active_time.as_millis());
        reg.observe("energy.user.total_mj", (self.total_j() * 1_000.0) as u64);
    }
}

/// Outcome of a single [`Radio::transfer`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// When the bytes actually started moving (after any queueing delay and
    /// promotion).
    pub start: SimTime,
    /// When the transfer finished.
    pub end: SimTime,
    /// Whether this transfer paid an idle→active promotion.
    pub promoted: bool,
    /// Marginal energy charged by this call (tail of the previous gap +
    /// promotion + transfer), in joules.
    pub energy_j: f64,
}

/// A radio modem owned by one simulated client.
///
/// Feed it timestamped transfers in non-decreasing time order; it charges
/// promotion, transfer, and tail energy exactly as the state machine of the
/// underlying technology dictates. Call [`Radio::finish`] at the end of the
/// simulation to flush the final tail.
#[derive(Debug, Clone)]
pub struct Radio {
    profile: RadioProfile,
    /// End of the last activity (transfer completion), if any since the
    /// radio was last fully idle.
    last_activity_end: Option<SimTime>,
    energy: EnergyBreakdown,
    timeline: Option<Timeline>,
}

impl Radio {
    /// Creates an idle radio with the given profile.
    pub fn new(profile: RadioProfile) -> Self {
        Self {
            profile,
            last_activity_end: None,
            energy: EnergyBreakdown::default(),
            timeline: None,
        }
    }

    /// Creates a radio that also records a state [`Timeline`] (for figures;
    /// costs memory proportional to the number of transfers).
    pub fn with_timeline(profile: RadioProfile) -> Self {
        let mut r = Self::new(profile);
        r.timeline = Some(Timeline::new());
        r
    }

    /// The radio's profile.
    pub fn profile(&self) -> &RadioProfile {
        &self.profile
    }

    /// Recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Performs a transfer of `down_bytes` + `up_bytes` requested at `at`.
    ///
    /// If the previous transfer is still in flight the new one queues behind
    /// it (no tail, no promotion). If the radio is in a tail phase, the
    /// partial tail is charged and the transfer proceeds without an idle
    /// promotion. If the tail has fully run down, the full tail of the
    /// previous activity plus a fresh promotion are charged.
    ///
    /// Requests must arrive in non-decreasing `at` order; earlier requests
    /// are treated as arriving at the end of the in-flight transfer.
    pub fn transfer(&mut self, at: SimTime, down_bytes: u64, up_bytes: u64) -> TransferRecord {
        let record = self.stall(at, self.profile.transfer_time(down_bytes, up_bytes));
        self.energy.transfers += 1;
        self.energy.bytes_down += down_bytes;
        self.energy.bytes_up += up_bytes;
        record
    }

    /// Holds the radio active for `duration` starting at `at` without moving
    /// any payload bytes — a failed round trip that times out, or extra
    /// degraded-link latency. Charges the same promotion/tail preamble as a
    /// transfer plus active power for `duration`, but does not count a
    /// transfer or any bytes.
    ///
    /// Like [`Radio::transfer`], calls must arrive in non-decreasing `at`
    /// order. A zero `duration` on an idle radio still pays the promotion —
    /// the modem woke up for nothing, which is exactly the waste the paper's
    /// tail-energy analysis worries about.
    ///
    /// This is the radio's one activity path: [`Radio::transfer`] is a
    /// stall for the payload's transfer time that also counts the transfer
    /// and its bytes.
    pub fn stall(&mut self, at: SimTime, duration: SimDuration) -> TransferRecord {
        let before = self.energy.total_j();
        let tail_total = self.profile.tail_duration();

        let (mut start, promoted) = match self.last_activity_end {
            None => {
                // First ever activity: promotion from idle.
                (at, true)
            }
            Some(prev_end) => {
                let arrival = at.max(prev_end);
                let gap = arrival.saturating_since(prev_end);
                self.charge_tail(prev_end, gap);
                if gap >= tail_total {
                    // The radio demoted all the way to idle.
                    if let Some(tl) = self.timeline.as_mut() {
                        tl.record(prev_end + tail_total, arrival, RadioState::Idle);
                    }
                    (arrival, true)
                } else {
                    (arrival, false)
                }
            }
        };

        if promoted {
            self.energy.promotion_j += self.profile.promotion_energy_j();
            self.energy.promotions += 1;
            self.energy.active_time += self.profile.promotion_delay;
            self.energy.promo_time += self.profile.promotion_delay;
            if let Some(tl) = self.timeline.as_mut() {
                tl.record(
                    start,
                    start + self.profile.promotion_delay,
                    RadioState::Promoting,
                );
            }
            start += self.profile.promotion_delay;
        }

        let end = start + duration;
        self.energy.transfer_j += self.profile.transfer_power_mw * duration.as_secs_f64() / 1_000.0;
        self.energy.active_time += duration;
        if let Some(tl) = self.timeline.as_mut() {
            tl.record(start, end, RadioState::Transferring);
        }
        self.last_activity_end = Some(end);

        TransferRecord {
            start,
            end,
            promoted,
            energy_j: self.energy.total_j() - before,
        }
    }

    /// Flushes any pending tail as of `at` and returns the final breakdown.
    ///
    /// After `finish` the radio is fully idle; a later transfer pays a fresh
    /// promotion. If `at` falls inside the tail only the elapsed portion is
    /// charged.
    pub fn finish(&mut self, at: SimTime) -> EnergyBreakdown {
        if let Some(prev_end) = self.last_activity_end.take() {
            let gap = at.saturating_since(prev_end);
            self.charge_tail(prev_end, gap);
        }
        self.energy
    }

    /// Charges tail energy for an idle gap of `gap` following activity that
    /// ended at `prev_end`, recording timeline intervals per phase.
    fn charge_tail(&mut self, prev_end: SimTime, gap: SimDuration) {
        self.energy.tail_j += self.profile.tail_energy_for_gap_j(gap);
        let consumed = gap.min(self.profile.tail_duration());
        self.energy.active_time += consumed;
        self.energy.tail_time += consumed;
        if let Some(tl) = self.timeline.as_mut() {
            let mut cursor = prev_end;
            let mut remaining = consumed;
            for (i, phase) in self.profile.tail_phases.iter().enumerate() {
                if remaining.is_zero() {
                    break;
                }
                let t = remaining.min(phase.duration);
                tl.record(cursor, cursor + t, RadioState::Tail(i as u8));
                cursor += t;
                remaining = SimDuration::from_millis(
                    remaining
                        .as_millis()
                        .saturating_sub(phase.duration.as_millis()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profiles;

    #[test]
    fn first_transfer_pays_promotion() {
        let mut r = Radio::new(profiles::umts_3g());
        let rec = r.transfer(SimTime::from_secs(10), 4_096, 256);
        assert!(rec.promoted);
        assert_eq!(
            rec.start,
            SimTime::from_secs(10) + r.profile().promotion_delay
        );
        let e = &r.energy;
        assert_eq!(e.transfers, 1);
        assert_eq!(e.promotions, 1);
        assert!((e.promotion_j - r.profile().promotion_energy_j()).abs() < 1e-12);
        assert_eq!(e.tail_j, 0.0);
    }

    #[test]
    fn widely_spaced_transfers_each_pay_full_tail() {
        let p = profiles::umts_3g();
        let full_tail = p.full_tail_energy_j();
        let mut r = Radio::new(p);
        for k in 0..5u64 {
            r.transfer(SimTime::from_secs(k * 60), 4_096, 256);
        }
        let e = r.finish(SimTime::from_secs(600));
        assert_eq!(e.transfers, 5);
        assert_eq!(e.promotions, 5);
        assert!((e.tail_j - 5.0 * full_tail).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_transfers_share_one_tail() {
        let p = profiles::umts_3g();
        let full_tail = p.full_tail_energy_j();
        let mut r = Radio::new(p);
        // Five transfers 1 s apart: each 1 s gap is charged at DCH power,
        // then one full tail at the end.
        for k in 0..5u64 {
            let rec = r.transfer(SimTime::from_secs(k), 1_024, 128);
            assert_eq!(rec.promoted, k == 0);
        }
        let e = r.finish(SimTime::from_hours(1));
        assert_eq!(e.promotions, 1);
        assert!(e.tail_j < full_tail + 5.0 * 0.8 + 1e-9);
        assert!(e.tail_j >= full_tail);
    }

    #[test]
    fn batching_saves_energy_versus_periodic() {
        // The paper's core energy claim in miniature: 10 ads fetched every
        // 30 s cost far more than the same bytes in one batch.
        let p = profiles::umts_3g();
        let mut periodic = Radio::new(p.clone());
        for k in 0..10u64 {
            periodic.transfer(SimTime::from_secs(k * 30), 4_096, 256);
        }
        let e_periodic = periodic.finish(SimTime::from_hours(1));

        let mut batched = Radio::new(p);
        batched.transfer(SimTime::ZERO, 10 * 4_096, 10 * 256);
        let e_batched = batched.finish(SimTime::from_hours(1));

        assert!(
            e_batched.total_j() < e_periodic.total_j() / 2.0,
            "batched {} vs periodic {}",
            e_batched.total_j(),
            e_periodic.total_j()
        );
    }

    #[test]
    fn overlapping_requests_queue_without_tail() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p);
        let a = r.transfer(SimTime::ZERO, 1_000_000, 0);
        // Requested while the first is still in flight.
        let b = r.transfer(SimTime::from_secs(1), 1_000, 0);
        assert_eq!(b.start, a.end);
        assert!(!b.promoted);
        assert_eq!(r.energy.tail_j, 0.0);
    }

    #[test]
    fn finish_is_idempotent_and_resets_to_idle() {
        let p = profiles::umts_3g();
        let full_tail = p.full_tail_energy_j();
        let mut r = Radio::new(p);
        r.transfer(SimTime::ZERO, 4_096, 0);
        let e1 = r.finish(SimTime::from_hours(1));
        let e2 = r.finish(SimTime::from_hours(2));
        assert_eq!(e1, e2);
        assert!((e1.tail_j - full_tail).abs() < 1e-9);
        // Next transfer after finish pays promotion again.
        let rec = r.transfer(SimTime::from_hours(3), 1_024, 0);
        assert!(rec.promoted);
    }

    #[test]
    fn partial_tail_when_finishing_early() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p);
        let rec = r.transfer(SimTime::ZERO, 1_024, 0);
        // Finish 2 s after the transfer ends: only 2 s of DCH tail.
        let e = r.finish(rec.end + SimDuration::from_secs(2));
        assert!((e.tail_j - 1.6).abs() < 1e-9);
    }

    #[test]
    fn timeline_records_states() {
        let mut r = Radio::with_timeline(profiles::umts_3g());
        r.transfer(SimTime::ZERO, 4_096, 0);
        r.transfer(SimTime::from_secs(60), 4_096, 0);
        r.finish(SimTime::from_secs(120));
        let tl = r.timeline().unwrap();
        let states: Vec<RadioState> = tl.intervals().iter().map(|iv| iv.state).collect();
        assert!(states.contains(&RadioState::Promoting));
        assert!(states.contains(&RadioState::Transferring));
        assert!(states.contains(&RadioState::Tail(0)));
        assert!(states.contains(&RadioState::Tail(1)));
        assert!(states.contains(&RadioState::Idle));
        // Intervals must be time-ordered and non-overlapping.
        for w in tl.intervals().windows(2) {
            assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn stall_pays_wakeup_but_moves_no_bytes() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p.clone());
        let rec = r.stall(SimTime::from_secs(5), SimDuration::from_millis(1_500));
        assert!(rec.promoted);
        let e = r.energy;
        assert_eq!(e.transfers, 0);
        assert_eq!(e.bytes_down + e.bytes_up, 0);
        assert_eq!(e.promotions, 1);
        let expected_transfer = p.transfer_power_mw * 1.5 / 1_000.0;
        assert!((e.transfer_j - expected_transfer).abs() < 1e-12);
        // Flushing later charges the full tail: the wasted wakeup costs
        // promotion + hold + tail, same shape as a real transfer.
        let final_e = r.finish(SimTime::from_hours(1));
        assert!((final_e.tail_j - p.full_tail_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn stall_inside_tail_skips_promotion() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p);
        let rec = r.transfer(SimTime::ZERO, 4_096, 0);
        // Retry 2 s after the transfer ends: still in DCH tail, no
        // promotion, partial tail charged.
        let s = r.stall(
            rec.end + SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        assert!(!s.promoted);
        assert_eq!(r.energy.promotions, 1);
        assert!(r.energy.tail_j > 0.0);
    }

    #[test]
    fn stall_and_transfer_interleave_in_time_order() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p);
        let a = r.transfer(SimTime::ZERO, 1_000_000, 0);
        // Stall requested while the transfer is in flight queues behind it.
        let s = r.stall(SimTime::from_secs(1), SimDuration::from_secs(2));
        assert_eq!(s.start, a.end);
        assert!(!s.promoted);
        assert_eq!(r.energy.tail_j, 0.0);
        assert_eq!(r.energy.transfers, 1);
    }

    #[test]
    fn residency_splits_partition_active_time() {
        let p = profiles::umts_3g();
        let mut r = Radio::new(p);
        r.transfer(SimTime::ZERO, 4_096, 256);
        r.stall(SimTime::from_secs(120), SimDuration::from_secs(1));
        let e = r.finish(SimTime::from_hours(1));
        assert!(e.promo_time > SimDuration::ZERO);
        assert!(e.tail_time > SimDuration::ZERO);
        assert_eq!(
            e.active_time.as_millis(),
            e.promo_time.as_millis() + e.transfer_time().as_millis() + e.tail_time.as_millis()
        );

        let reg = adpf_obs::MetricRegistry::new();
        e.publish_residency(&reg);
        let h = reg.histogram_snapshot("energy.user.tail_ms").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), e.tail_time.as_millis());
        assert!(reg.histogram_snapshot("energy.user.total_mj").is_some());
    }

    #[test]
    fn marginal_energy_sums_to_total() {
        let mut r = Radio::new(profiles::lte());
        let mut marginal = 0.0;
        for k in 0..7u64 {
            marginal += r.transfer(SimTime::from_secs(k * 20), 2_048, 512).energy_j;
        }
        let final_e = r.finish(SimTime::from_hours(1));
        // The last tail is only charged by finish.
        assert!(final_e.total_j() > marginal);
        assert!((final_e.promotion_j + final_e.transfer_j) <= marginal + 1e-9);
    }
}
