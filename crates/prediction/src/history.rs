//! A bounded history of per-period demand rates, kept as a multiset.

use std::collections::VecDeque;

use adpf_stats::summary::quantile_by;

/// The last [`RateHistory::MAX_LEN`] per-period rates, in two views: the
/// distinct values ascending with their multiplicities (the sorted
/// side, for quantiles), and the arrival ring as `u16` indices into
/// those runs (for eviction and the arrival-order mean).
///
/// Most periods are one sync interval and most of a bursty user's
/// rates are `0.0`, so a history holds far fewer distinct values than
/// observations: each observation costs a 2-byte ring index, each
/// distinct value 10 bytes. Quantiles and the mean are the same `f64`
/// bits as a `VecDeque<f64>` and a sorted copy of it would give.
#[derive(Debug, Clone, Default)]
pub(crate) struct RateHistory {
    /// The distinct rates, ascending.
    values: Vec<f64>,
    /// How many of the ring's entries hold `values[i]`.
    counts: Vec<u16>,
    /// Index into `values` of each rate in arrival order (front = oldest).
    ring: VecDeque<u16>,
}

impl RateHistory {
    /// Maximum history length: older rates are evicted so a model adapts
    /// to regime changes over multi-month traces.
    pub(crate) const MAX_LEN: usize = 512;

    /// Number of rates held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Appends `rate`, evicting the oldest first once
    /// [`RateHistory::MAX_LEN`] are held. `rate` is finite and not `-0.0`
    /// (a count over a positive duration), so equal values are equal bits.
    pub(crate) fn push(&mut self, rate: f64) {
        debug_assert!(rate.is_finite() && rate.is_sign_positive());
        if self.ring.len() == Self::MAX_LEN {
            let oldest = self.ring.pop_front().expect("history is non-empty");
            let run = usize::from(oldest);
            self.counts[run] -= 1;
            if self.counts[run] == 0 {
                self.values.remove(run);
                self.counts.remove(run);
                for i in &mut self.ring {
                    if *i > oldest {
                        *i -= 1;
                    }
                }
            }
        }
        let at = self.values.partition_point(|&x| x < rate);
        if self.values.get(at) == Some(&rate) {
            self.counts[at] += 1;
        } else {
            self.values.insert(at, rate);
            self.counts.insert(at, 1);
            let at = at as u16;
            for i in &mut self.ring {
                if *i >= at {
                    *i += 1;
                }
            }
        }
        self.ring.push_back(at as u16);
    }

    /// The `rank`-th smallest rate held (0-based).
    fn at_rank(&self, rank: usize) -> f64 {
        let mut below = 0;
        for (&value, &count) in self.values.iter().zip(&self.counts) {
            below += usize::from(count);
            if rank < below {
                return value;
            }
        }
        unreachable!("rank {rank} is past the {below} rates held")
    }

    /// The `q`-quantile of the rates held, interpolated as
    /// `adpf_stats::summary::quantile_sorted` does; `0.0` when empty.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        quantile_by(self.ring.len(), q, |rank| self.at_rank(rank))
    }

    /// The mean of the rates held, summed in arrival order; `0.0` when
    /// empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        let sum = self
            .ring
            .iter()
            .map(|&i| self.values[usize::from(i)])
            .sum::<f64>();
        sum / self.ring.len() as f64
    }
}
