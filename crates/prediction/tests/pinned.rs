//! Every predictor family pinned bit for bit.
//!
//! The end-to-end pinned runs (`adpf_bench::baseline::ROWS`) use only the
//! session-aware and zero predictors, so nothing else would notice a
//! family's arithmetic moving. Here each family is driven over one fixed,
//! hand-built three-week slot series, observed in 2 h periods offset
//! from the hour (so hour spans are partial at both ends), and after every
//! period the bits of its selling prediction, its availability estimate
//! and its mean session length fold into one digest per family. A change
//! that moves any of them, in any family, on any period, moves the digest.

mod common;

use adpf_desim::{SimDuration, SimTime};
use common::all_kinds;

/// Digests from [`digest`], keyed by `PredictorKind::label`.
const PINNED: [(&str, u64); 10] = [
    ("zero", 0x5445bd6e69a75f05),
    ("mean-rate", 0x3260c505b3e500fa),
    ("ewma(0.3)", 0x224c4a6334dc9b39),
    ("time-of-day", 0x0a0c5243635157c6),
    ("day-hour", 0x4499a0fb1956283d),
    ("markov", 0x8e35a488f7934c89),
    ("quantile(0.25)", 0xcc7f5213956393cc),
    ("quantile(0.95)", 0x438201b1ed1e906c),
    ("session-aware", 0x3fd25344f89b17d1),
    ("oracle", 0x50e6bd6e69a75f05),
];

const DAYS: u64 = 21;

/// Three weeks of sessions: weekday mornings, most lunches, every evening
/// (longer at weekends), weekend afternoons, late sessions straddling a
/// period boundary on even days, and a silent stretch from
/// day 10 to day 12. Slots are 30 s apart except every fifth gap, which is
/// 95 s and so splits the session for a 90 s session gap.
fn slot_series() -> Vec<SimTime> {
    let mut sessions = Vec::new();
    for d in 0..DAYS {
        if (10..13).contains(&d) {
            continue;
        }
        let weekend = d % 7 >= 5;
        let day = SimTime::from_days(d);
        let at = |h: u64, m: u64| day + SimDuration::from_mins(h * 60 + m);
        if !weekend {
            sessions.push((at(7, 50 + (d % 3) * 7), 2 + d % 4));
        }
        if d % 4 != 3 {
            sessions.push((at(12, 30), 1 + (d * 5) % 7));
        }
        let evening = 3 + d % 6;
        sessions.push((
            at(20, 15 + (d % 5) * 11),
            if weekend { 2 * evening } else { evening },
        ));
        if weekend {
            sessions.push((at(15, 40), 8));
        }
        if d % 2 == 0 {
            // Still live when the 22:37 period closes.
            sessions.push((at(22, 35), 6));
        }
    }
    let mut slots = Vec::new();
    for (start, len) in sessions {
        let mut t = start;
        for k in 0..len {
            slots.push(t);
            t += SimDuration::from_secs(if k % 5 == 4 { 95 } else { 30 });
        }
    }
    slots.sort_unstable();
    slots
}

/// FNV-1a over 64-bit words.
fn fold(h: &mut u64, word: u64) {
    *h ^= word;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Drives one family over [`slot_series`] and digests what it reports
/// after each period.
fn digest(kind: adpf_prediction::PredictorKind, slots: &[SimTime]) -> u64 {
    let mut p = kind.build(slots);
    let period = SimDuration::from_hours(2);
    let end = SimTime::from_days(DAYS + 1);
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut start = SimTime::from_mins(37);
    let mut idx = 0;
    while start < end {
        let stop = (start + period).min(end);
        let first = idx;
        while idx < slots.len() && slots[idx] < stop {
            idx += 1;
        }
        p.observe(start, stop, &slots[first..idx]);
        fold(&mut h, p.predict(stop, period).to_bits());
        fold(
            &mut h,
            p.expected_rate(stop, SimDuration::from_hours(12)).to_bits(),
        );
        fold(&mut h, p.mean_session_slots().to_bits());
        start = stop;
    }
    h
}

#[test]
fn every_family_reports_its_pinned_digest() {
    let slots = slot_series();
    let got: Vec<(String, u64)> = all_kinds()
        .into_iter()
        .map(|kind| (kind.label(), digest(kind, &slots)))
        .collect();
    let want: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    assert_eq!(
        got,
        want,
        "digests moved; all of them now:\n{}",
        got.iter()
            .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
            .collect::<String>()
    );
}
