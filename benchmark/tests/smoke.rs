//! A `--scale 0.01` pass over all six workloads, untraced and traced,
//! through the real binary: finishes in seconds with every check green.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use adpf_benchmark::catalog::{END_TO_END, PER_LAYER};
use adpf_benchmark::runner::parse_child_output;
use adpf_benchmark::workloads::ALL as WORKLOADS;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

/// A scratch directory under the build's own target directory.
fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn names(list: &[adpf_benchmark::catalog::Metric]) -> BTreeSet<String> {
    list.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_runs_green_in_both_modes_and_prints_its_metric_set() {
    let out = out_dir("one");
    for w in WORKLOADS {
        let mut hashes = Vec::new();
        for (trace, list) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let run = Command::new(BENCH)
                .args(["--workload", w.name, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--scale", "0.01", "--out"])
                .arg(&out)
                .output()
                .expect("bench runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            let parsed = parse_child_output(&stdout, run.status.success())
                .unwrap_or_else(|e| panic!("{} --trace {trace}: {e}\n{stdout}", w.name));
            assert!(
                parsed.correct && parsed.exit_ok,
                "{} --trace {trace}: {:?}\n{}",
                w.name,
                parsed.violations,
                String::from_utf8_lossy(&run.stderr)
            );
            // Printed and described metric sets are equal, both ways,
            // and each carries the unit the catalog states.
            let printed: BTreeSet<String> = parsed.metrics.keys().cloned().collect();
            assert_eq!(printed, names(list), "{} --trace {trace}", w.name);
            for m in list {
                assert_eq!(parsed.metrics[m.name].1, m.unit, "{}", m.name);
                assert!(parsed.metrics[m.name].0.is_finite(), "{}", m.name);
            }
            if trace == "0" {
                for m in END_TO_END {
                    assert!(parsed.metrics[m.name].0 > 0.0, "{} {} is 0", w.name, m.name);
                }
            }
            hashes.push(parsed.hash);
        }
        assert_eq!(hashes[0], hashes[1], "{}: traced vs untraced hash", w.name);
        let trace_file = out.join(format!("trace-{}.jsonl", w.name));
        let text = std::fs::read_to_string(&trace_file).expect("trace file written");
        assert!(text.lines().count() > 1, "{}: empty trace", w.name);
        for line in text.lines() {
            adpf_benchmark::json::parse(line).expect("every trace line is JSON");
        }
    }
}

#[test]
fn bench_run_aggregates_reps_and_passes_its_own_checks() {
    let out = out_dir("run");
    let run = Command::new(BENCH)
        .args(["run", "--reps", "2", "--traced", "--seconds", "0.2"])
        .args(["--scale", "0.01", "--out"])
        .arg(&out)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("all checks passed"));
    // Every metric is printed by name with its unit, for every workload.
    for w in WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let found = stdout.lines().any(|l| {
                let mut f = l.split_whitespace();
                f.next() == Some(w.name) && f.next() == Some(m.name) && l.ends_with(m.unit)
            });
            assert!(found, "{} {} missing from the table", w.name, m.name);
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seconds", "-1"],
        &["--trace", "2", "--workload", "stream-homog"],
        &["--frobnicate", "1"],
    ] {
        let run = Command::new(BENCH).args(args).output().expect("bench runs");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
