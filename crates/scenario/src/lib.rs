//! Re-export shim: the scenario layer lives in [`adpf_core::scenario`].
//! Deleted once `benchmark/` rebinds to that path.
pub use adpf_core::scenario::{BurstSpec, ChurnSpec, ScenarioPopulation, ScenarioSpec};
