//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments all            # every experiment at quick scale
//! experiments e7 e10         # selected experiments
//! experiments all --full     # paper-scale populations (slow)
//! experiments e14 --threads 4  # sharded simulator on 4 worker threads
//! experiments all --metrics    # print per-experiment wall-time metrics
//! ```
//!
//! Stdout carries the tables alone, so it depends on the scale and
//! nothing else; progress lines go to stderr. The exit status is non-zero
//! when a table fails one of its checks (each failure is named on stderr).

use std::process::ExitCode;
use std::time::Instant;

use adpf_bench::{all_ids, run_experiment_threads, Scale};
use adpf_obs::{render_table, to_json_lines, MetricRegistry};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let metrics = args.iter().any(|a| a == "--metrics");
    let threads_pos = args.iter().position(|a| a == "--threads");
    let threads = match threads_pos {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(t) if t >= 1 => t,
            _ => {
                eprintln!("--threads requires a positive integer");
                return ExitCode::FAILURE;
            }
        },
        None => 1,
    };
    let metrics_out_pos = args.iter().position(|a| a == "--metrics-out");
    let metrics_out = match metrics_out_pos {
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("--metrics-out requires a path");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let value_positions = [threads_pos.map(|p| p + 1), metrics_out_pos.map(|p| p + 1)];
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && !value_positions.contains(&Some(i)))
        .map(|(_, a)| a.to_ascii_lowercase())
        .collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = all_ids().iter().map(|s| s.to_string()).collect();
        // E9 is printed as part of E8.
        ids.retain(|i| i != "e9");
    }

    println!(
        "adprefetch experiment harness — scale: {:?} (pass --full for paper-scale populations)\n",
        scale
    );
    // Per-experiment wall-time metrics, keyed by the experiment's static
    // id so the registry stays allocation-free on names.
    let collect = metrics || metrics_out.is_some();
    let reg = MetricRegistry::new();
    let mut failed = false;
    for id in &ids {
        let t0 = Instant::now();
        match run_experiment_threads(id, scale, threads) {
            Some(tables) => {
                if collect {
                    if let Some(name) = all_ids().into_iter().find(|&s| s == id.as_str()) {
                        reg.add_time_ns(name, t0.elapsed().as_nanos() as u64);
                        reg.add(name, tables.len() as u64);
                    }
                }
                for table in tables {
                    println!("{table}");
                    for check in &table.failed {
                        eprintln!("{}: check failed: {check}", table.id);
                        failed = true;
                    }
                }
                println!();
                eprintln!("[{} done in {:.1}s]", id, t0.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment `{id}`; known: {}", all_ids().join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    if metrics {
        println!("metrics (experiments):\n{}", render_table(&reg));
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, to_json_lines(&reg, "experiments")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
