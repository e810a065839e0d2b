//! The scenario layer's determinism contracts, pinned by the `smoke-*`
//! scenario rows of `adpf_bench::baseline::ROWS`: every preset under both
//! delivery modes, the mixed one without piggybacking, and the capped
//! flash crowd dropping or deferring what the cell ceiling refuses. Each
//! reproduces its hash at 1, 2 and 8 threads, materialized, streamed and
//! served, with its user-cost counters populated; the smoke row is the
//! scenario layer switched off.

#[macro_use]
mod common;

pinned_by! {
    scenario_off_reproduces_the_committed_smoke_golden: "smoke";
    every_preset_is_thread_count_and_streaming_invariant:
        "smoke-mixed", "smoke-mixed-realtime", "smoke-mixed-no-piggyback",
        "smoke-churn", "smoke-churn-realtime",
        "smoke-flashcrowd", "smoke-flashcrowd-realtime",
        "smoke-capped-drop", "smoke-capped-drop-realtime",
        "smoke-capped-defer", "smoke-capped-defer-realtime";
    presets_produce_distinct_outcomes:
        "smoke", "smoke-mixed", "smoke-mixed-realtime", "smoke-mixed-no-piggyback",
        "smoke-churn", "smoke-churn-realtime",
        "smoke-flashcrowd", "smoke-flashcrowd-realtime",
        "smoke-capped-drop", "smoke-capped-drop-realtime",
        "smoke-capped-defer", "smoke-capped-defer-realtime";
}
