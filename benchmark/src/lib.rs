//! The repo benchmark: six workloads, seven end-to-end metrics, and a
//! per-layer trace taken from outside the program. See `README.md` in
//! this directory for what is measured and why.

pub mod calib;
pub mod catalog;
pub mod json;
pub mod one;
pub mod openloop;
pub mod probes;
pub mod procfs;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
