//! Radio power profiles.

use adpf_desim::SimDuration;

/// One post-transfer tail phase: the radio stays at `power_mw` for
/// `duration` after the last activity before falling to the next phase (or
/// to idle after the final phase).
///
/// 3G UMTS has two phases (DCH inactivity tail, then FACH tail); LTE has a
/// single connected-mode tail (short DRX modeled as an average power); WiFi
/// has a brief high-power dwell before returning to PSM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPhase {
    /// Length of the phase.
    pub duration: SimDuration,
    /// Average power draw during the phase, in milliwatts.
    pub power_mw: f64,
}

/// A radio technology's power/latency parameters.
///
/// All powers are *marginal* over device idle, i.e. the extra draw caused by
/// the radio; device baseline (screen, CPU) is accounted separately by the
/// [`crate::audit`] module.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioProfile {
    /// Human-readable name ("3G", "LTE", "WiFi").
    pub name: &'static str,
    /// Time to promote from fully idle to transfer-capable.
    pub promotion_delay: SimDuration,
    /// Average power during promotion, in milliwatts.
    pub promotion_power_mw: f64,
    /// Average power while actively transferring, in milliwatts.
    pub transfer_power_mw: f64,
    /// Downlink goodput in bytes per second.
    pub downlink_bps: f64,
    /// Uplink goodput in bytes per second.
    pub uplink_bps: f64,
    /// Fixed per-transfer network latency (RTT + server time) added to the
    /// byte-transmission time.
    pub per_transfer_latency: SimDuration,
    /// Post-transfer tail phases, ordered from first (highest power) to
    /// last.
    pub tail_phases: Vec<TailPhase>,
}

impl RadioProfile {
    /// Total length of the tail after a transfer.
    pub fn tail_duration(&self) -> SimDuration {
        self.tail_phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// Energy of one full (uninterrupted) tail, in joules.
    pub fn full_tail_energy_j(&self) -> f64 {
        self.tail_phases
            .iter()
            .map(|p| p.power_mw * p.duration.as_secs_f64() / 1_000.0)
            .sum()
    }

    /// Energy of promotion from idle, in joules.
    pub(crate) fn promotion_energy_j(&self) -> f64 {
        self.promotion_power_mw * self.promotion_delay.as_secs_f64() / 1_000.0
    }

    /// Time to move `down_bytes` + `up_bytes` once the radio is
    /// transfer-capable (byte time plus fixed latency).
    pub fn transfer_time(&self, down_bytes: u64, up_bytes: u64) -> SimDuration {
        let secs = down_bytes as f64 / self.downlink_bps + up_bytes as f64 / self.uplink_bps;
        self.per_transfer_latency + SimDuration::from_secs_f64(secs)
    }

    /// Energy spent in the tail when the radio goes idle for `gap` after a
    /// transfer, in joules. Saturates at [`Self::full_tail_energy_j`] once
    /// the gap covers the whole tail.
    pub fn tail_energy_for_gap_j(&self, gap: SimDuration) -> f64 {
        let mut remaining = gap;
        let mut energy = 0.0;
        for p in &self.tail_phases {
            if remaining.is_zero() {
                break;
            }
            let t = remaining.min(p.duration);
            energy += p.power_mw * t.as_secs_f64() / 1_000.0;
            remaining = SimDuration::from_millis(
                remaining.as_millis().saturating_sub(p.duration.as_millis()),
            );
        }
        energy
    }
}

/// Literature-calibrated radio profiles.
///
/// The absolute numbers below are representative of the 2012-era handsets
/// the paper measured; the reproduction's claims are ratios (energy *saved*
/// by batching), which are insensitive to modest constant changes — see
/// DESIGN.md's substitution table.
pub mod profiles {
    use super::{RadioProfile, TailPhase};
    use adpf_desim::SimDuration;

    /// Resolves a CLI profile name (`3g`, `lte`, `wifi`). The canonical
    /// name set shared by the `simulate` and `serve` binaries.
    pub fn by_name(name: &str) -> Result<RadioProfile, String> {
        Ok(match name {
            "3g" => umts_3g(),
            "lte" => lte(),
            "wifi" => wifi(),
            other => return Err(format!("unknown radio `{other}`")),
        })
    }

    /// 3G UMTS: IDLE → DCH promotion ~2 s; DCH tail ~5 s at ~800 mW, then
    /// FACH tail ~12 s at ~460 mW (Balasubramanian et al., IMC 2009).
    pub fn umts_3g() -> RadioProfile {
        RadioProfile {
            name: "3G",
            promotion_delay: SimDuration::from_millis(2_000),
            promotion_power_mw: 550.0,
            transfer_power_mw: 800.0,
            downlink_bps: 250_000.0, // ~2 Mbit/s goodput.
            uplink_bps: 80_000.0,
            per_transfer_latency: SimDuration::from_millis(350),
            tail_phases: vec![
                TailPhase {
                    duration: SimDuration::from_millis(5_000),
                    power_mw: 800.0,
                },
                TailPhase {
                    duration: SimDuration::from_millis(12_000),
                    power_mw: 460.0,
                },
            ],
        }
    }

    /// LTE: fast promotion (~260 ms), high transfer power, single long
    /// connected-mode tail ~11.6 s at ~1060 mW (Huang et al., MobiSys 2012).
    pub fn lte() -> RadioProfile {
        RadioProfile {
            name: "LTE",
            promotion_delay: SimDuration::from_millis(260),
            promotion_power_mw: 1_200.0,
            transfer_power_mw: 1_210.0,
            downlink_bps: 1_500_000.0,
            uplink_bps: 700_000.0,
            per_transfer_latency: SimDuration::from_millis(70),
            tail_phases: vec![TailPhase {
                duration: SimDuration::from_millis(11_600),
                power_mw: 1_060.0,
            }],
        }
    }

    /// WiFi with power-save mode: negligible promotion, short post-transfer
    /// dwell before the NIC returns to PSM.
    pub fn wifi() -> RadioProfile {
        RadioProfile {
            name: "WiFi",
            promotion_delay: SimDuration::from_millis(80),
            promotion_power_mw: 400.0,
            transfer_power_mw: 700.0,
            downlink_bps: 2_500_000.0,
            uplink_bps: 1_500_000.0,
            per_transfer_latency: SimDuration::from_millis(40),
            tail_phases: vec![TailPhase {
                duration: SimDuration::from_millis(240),
                power_mw: 400.0,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_duration_sums_phases() {
        let p = profiles::umts_3g();
        assert_eq!(p.tail_duration(), SimDuration::from_secs(17));
    }

    #[test]
    fn full_tail_energy_matches_hand_computation() {
        let p = profiles::umts_3g();
        // 800 mW * 5 s + 460 mW * 12 s = 4.0 J + 5.52 J.
        assert!((p.full_tail_energy_j() - 9.52).abs() < 1e-9);
    }

    #[test]
    fn partial_tail_energy_saturates() {
        let p = profiles::umts_3g();
        let short = p.tail_energy_for_gap_j(SimDuration::from_secs(2));
        assert!((short - 1.6).abs() < 1e-9); // 800 mW * 2 s.
        let mid = p.tail_energy_for_gap_j(SimDuration::from_secs(10));
        // 800 mW * 5 s + 460 mW * 5 s = 4.0 + 2.3.
        assert!((mid - 6.3).abs() < 1e-9);
        let long = p.tail_energy_for_gap_j(SimDuration::from_secs(300));
        assert!((long - p.full_tail_energy_j()).abs() < 1e-12);
        assert_eq!(p.tail_energy_for_gap_j(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = profiles::umts_3g();
        let small = p.transfer_time(1_000, 100);
        let large = p.transfer_time(1_000_000, 100);
        assert!(large > small);
        assert!(small >= p.per_transfer_latency);
        // 1 MB at 250 KB/s is ~4 s of byte time.
        let secs = large.as_secs_f64();
        assert!(secs > 4.0 && secs < 4.8, "got {secs}");
    }

    #[test]
    fn lte_tail_dominates_promotion() {
        let p = profiles::lte();
        assert!(p.full_tail_energy_j() > 10.0 * p.promotion_energy_j());
    }

    #[test]
    fn wifi_tail_is_tiny() {
        let w = profiles::wifi();
        let g = profiles::umts_3g();
        assert!(w.full_tail_energy_j() < g.full_tail_energy_j() / 20.0);
    }
}
