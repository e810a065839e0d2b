//! One module per experiment family; see DESIGN.md's experiment index.
//! The system sweeps are rows of one table, [`sweeps::SWEEPS`].

mod exchange;
mod motivation;
mod obs;
mod prediction;
mod sweeps;
mod traces;

use crate::scale::Scale;
use crate::table::Table;

/// All experiment ids, in DESIGN.md order. E17 and E20 are retired;
/// the other ids keep their numbers.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15", "e16", "e18", "e19", "e21", "e22",
    ]
}

/// Runs one experiment by id (case-insensitive); `None` for unknown ids.
///
/// Some ids return more than one table (e.g. E2's gap sweep plus state
/// timeline; E8/E9 are two views of one sweep and both appear under
/// either id). `threads` is the worker-thread count for the experiments
/// that exercise the sharded simulator; single-run experiments ignore it.
/// No table reads the host: each is a function of the scale alone.
/// A table that fails one of its checks names it in [`Table::failed`].
pub fn run_experiment_threads(id: &str, scale: Scale, threads: usize) -> Option<Vec<Table>> {
    let id = id.to_ascii_lowercase();
    let sweep = || sweeps::SWEEPS.iter().find(|s| s.answers(&id));
    match id.as_str() {
        "e1" => Some(vec![motivation::e1_ad_energy_share(scale)]),
        "e2" => Some(motivation::e2_tail_energy()),
        "e3" => Some(vec![traces::e3_dataset_table(scale)]),
        "e4" => Some(traces::e4_predictability(scale)),
        "e5" => Some(vec![prediction::e5_accuracy_by_window(scale)]),
        "e6" => Some(vec![prediction::e6_error_cdf(scale)]),
        "e7" => {
            let mut tables = sweep()?.run(scale, threads);
            tables.push(sweeps::e7b_per_user_savings(scale));
            Some(tables)
        }
        "e14" => Some(vec![exchange::e14_exchange_clearing()]),
        "e18" => Some(vec![obs::e18_observability_breakdown(scale, threads)]),
        _ => Some(sweep()?.run(scale, threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment_threads("e99", Scale::Micro, 1).is_none());
    }

    #[test]
    fn ids_are_complete() {
        assert_eq!(all_ids().len(), 20);
    }
}
