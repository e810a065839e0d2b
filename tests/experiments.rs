//! Every experiment table holds its own checks: the claims its rows must
//! show (`Table::failed` names each one it fails). The `experiments`
//! binary exits non-zero on the same failures at any scale; here they run
//! at micro scale, on two worker threads.

use adpf_bench::{all_ids, run_experiment_threads, Scale};

#[test]
fn every_experiment_holds_its_checks_at_micro_scale() {
    let mut failed = Vec::new();
    for id in all_ids() {
        let tables = run_experiment_threads(id, Scale::Micro, 2).expect("a known id");
        for table in tables {
            failed.extend(
                table
                    .failed
                    .iter()
                    .map(|check| format!("{}: {check}", table.id)),
            );
        }
    }
    assert!(failed.is_empty(), "failed checks: {failed:#?}");
}
