//! `bench run` and `bench check`: many runs, one child process each.
//!
//! Every run re-executes this binary in the contract's one-run form, so
//! allocator state and peak RSS are per run, and so these commands see
//! exactly the lines the driver sees.

use std::collections::BTreeMap;
use std::process::Command;

use crate::catalog::{self, Metric};
use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use crate::workloads;

/// The seeds `bench check` runs each workload on: ten, as the contract's
/// steadiness rule takes ten values, and none of them the held-out seed 7.
pub const CHECK_SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 8, 9, 10, 11];

/// Settings shared by every child of one `run` or `check`.
#[derive(Debug, Clone)]
pub struct ChildSettings {
    pub seconds: f64,
    pub scale: f64,
    pub out_dir: String,
}

/// What one child printed.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub correct: bool,
    pub exit_ok: bool,
    pub hash: String,
    pub iterations: u64,
    pub rss_includes_setup: bool,
    pub violations: Vec<String>,
    /// Metric name → `(value, unit)` as printed.
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses a child's standard output: the `info` line and, last, the
/// contract's result line.
pub fn parse_child_output(stdout: &str, exit_ok: bool) -> Result<ChildRun, String> {
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let result = json::parse(lines.last().ok_or("child printed nothing")?)?;
    let info = lines
        .iter()
        .rev()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("info").is_some())
        .ok_or("child printed no info line")?;
    let keys: Vec<&str> = result
        .as_obj()
        .ok_or("result line is not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), (v, u.to_string()))),
                _ => Err(format!("metric {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        exit_ok,
        hash: info
            .get("hash")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        iterations: info
            .get("iterations")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64,
        rss_includes_setup: info.get("rss_includes_setup").and_then(Value::as_bool) == Some(true),
        violations: info
            .get("violations")
            .and_then(Value::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        metrics,
    })
}

/// Runs one child in the contract's form and parses what it printed.
pub fn spawn_one(
    workload: &str,
    seed: u64,
    traced: bool,
    settings: &ChildSettings,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &settings.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", &settings.scale.to_string()])
        .args(["--out", &settings.out_dir])
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_child_output(&stdout, out.status.success()).map_err(|e| {
        format!(
            "{workload} seed {seed}: {e}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Values of `metric` across `runs`, in run order.
fn column(runs: &[ChildRun], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
        .collect()
}

fn print_metric_rows(workload: &str, list: &[Metric], runs: &[ChildRun]) {
    for m in list {
        let values = column(runs, m.name);
        let (q1, q3) = quartiles(&values);
        println!(
            "{workload:<20} {:<36} {:>16.6} {:>16.6} {:>16.6} {:>3}  {}",
            m.name,
            median(&values),
            q1,
            q3,
            values.len(),
            m.unit
        );
    }
}

/// Records why `run` is unacceptable, if it is.
fn run_problems(workload: &str, label: &str, run: &ChildRun, problems: &mut Vec<String>) {
    if !run.correct || !run.exit_ok {
        problems.push(format!(
            "{workload} {label}: incorrect ({})",
            run.violations.join("; ")
        ));
    }
}

/// `bench run`: every workload `reps` times on one seed, medians and
/// quartiles per metric; with `traced`, one traced run per workload
/// more, checked against the untraced hash. Returns the problems found
/// (empty means every check passed).
pub fn run_all(seed: u64, reps: usize, traced: bool, settings: &ChildSettings) -> Vec<String> {
    let mut problems = Vec::new();
    println!(
        "{:<20} {:<36} {:>16} {:>16} {:>16} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for w in workloads::ALL {
        let mut runs = Vec::new();
        for rep in 0..reps {
            match spawn_one(w.name, seed, false, settings) {
                Ok(r) => {
                    run_problems(w.name, &format!("rep {rep}"), &r, &mut problems);
                    runs.push(r);
                }
                Err(e) => problems.push(e),
            }
        }
        // Same seed, same inputs: every rep must produce the same report.
        if let Some(first) = runs.first() {
            if runs.iter().any(|r| r.hash != first.hash) {
                let hashes: Vec<&str> = runs.iter().map(|r| r.hash.as_str()).collect();
                problems.push(format!("{}: hashes differ across reps: {hashes:?}", w.name));
            }
            println!(
                "{:<20} hash {} iterations/run {} rss_includes_setup {}",
                w.name, first.hash, first.iterations, first.rss_includes_setup
            );
        }
        print_metric_rows(w.name, catalog::END_TO_END, &runs);
        if traced {
            match spawn_one(w.name, seed, true, settings) {
                Ok(t) => {
                    run_problems(w.name, "traced", &t, &mut problems);
                    if runs.first().is_some_and(|r| r.hash != t.hash) {
                        problems.push(format!(
                            "{}: traced run hashed {}, untraced {}",
                            w.name, t.hash, runs[0].hash
                        ));
                    }
                    print_metric_rows(w.name, catalog::PER_LAYER, std::slice::from_ref(&t));
                }
                Err(e) => problems.push(e),
            }
        }
    }
    problems
}

/// One end-to-end cell of the repeatability check.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: &'static str,
    pub metric: &'static Metric,
    pub medians: [f64; 2],
    pub spreads: [f64; 2],
}

impl Cell {
    /// Distance between the two medians as a share of the smaller one.
    /// Both sets ran the same code, so neither is "the better one": a
    /// gap is disagreement whichever set it favours.
    pub fn gap(&self) -> f64 {
        let [a, b] = self.medians.map(f64::abs);
        match a.min(b) {
            0.0 if a == b => 0.0,
            0.0 => f64::INFINITY,
            smaller => (a - b).abs() / smaller,
        }
    }

    /// The acceptance rule: the two medians differ by no more than the
    /// bound, and neither set's spread exceeds it. This is the driver's
    /// rule made symmetric and without its exemption for set-up spread.
    pub fn ok(&self) -> bool {
        let bound = self.metric.bound;
        self.gap() <= bound && self.spreads.iter().all(|&s| s <= bound)
    }
}

/// Builds the check's cells from two sets of runs per workload.
pub fn cells(sets: &[BTreeMap<&'static str, Vec<ChildRun>>; 2]) -> Vec<Cell> {
    let mut out = Vec::new();
    for w in workloads::ALL {
        for metric in catalog::END_TO_END {
            let cols = [0, 1].map(|s| {
                sets[s]
                    .get(w.name)
                    .map(|runs| column(runs, metric.name))
                    .unwrap_or_default()
            });
            out.push(Cell {
                workload: w.name,
                metric,
                medians: [median(&cols[0]), median(&cols[1])],
                spreads: [spread(&cols[0]), spread(&cols[1])],
            });
        }
    }
    out
}

/// Renders the noise table `README.md` carries.
pub fn render_cells(cells: &[Cell]) -> String {
    let mut s = String::from(
        "| workload | metric | median A | spread A | median B | spread B | medians apart | bound | ok |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for c in cells {
        s.push_str(&format!(
            "| {} | {} | {:.6} | {:.4} | {:.6} | {:.4} | {:.4} | {} | {} |\n",
            c.workload,
            c.metric.name,
            c.medians[0],
            c.spreads[0],
            c.medians[1],
            c.spreads[1],
            c.gap(),
            c.metric.bound,
            if c.ok() { "yes" } else { "NO" }
        ));
    }
    s
}

/// `bench check`: two full sets of untraced runs, each workload on each
/// of [`CHECK_SEEDS`], every cell judged by [`Cell::ok`]. Returns the
/// problems found.
pub fn check(settings: &ChildSettings) -> Vec<String> {
    let mut problems = Vec::new();
    let mut sets: [BTreeMap<&'static str, Vec<ChildRun>>; 2] = Default::default();
    for (s, set) in sets.iter_mut().enumerate() {
        for w in workloads::ALL {
            for seed in CHECK_SEEDS {
                match spawn_one(w.name, seed, false, settings) {
                    Ok(r) => {
                        run_problems(w.name, &format!("set {s} seed {seed}"), &r, &mut problems);
                        set.entry(w.name).or_default().push(r);
                    }
                    Err(e) => problems.push(e),
                }
            }
            eprintln!("set {s}: {} done", w.name);
        }
    }
    let cells = cells(&sets);
    print!("{}", render_cells(&cells));
    for c in cells.iter().filter(|c| !c.ok()) {
        problems.push(format!(
            "{} {}: spreads {:.4}/{:.4}, medians {:.4} apart, bound {}",
            c.workload,
            c.metric.name,
            c.spreads[0],
            c.spreads[1],
            c.gap(),
            c.metric.bound
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        catalog::metric(name).unwrap()
    }

    #[test]
    fn a_cell_fails_on_a_gap_in_either_direction_or_on_spread() {
        // Judged against each metric's own bound, whatever it is: the
        // second median sits `gap` bounds from the first (negative:
        // below it), the second spread is `spread` bounds wide.
        let cell = |name: &str, gap: f64, spread: f64| {
            let metric = metric(name);
            Cell {
                workload: "w",
                metric,
                medians: [100.0, 100.0 * (1.0 + gap * metric.bound)],
                spreads: [0.0, spread * metric.bound],
            }
        };
        for name in ["slots_per_s", "peak_rss_mb", "setup_s"] {
            assert!(cell(name, 0.5, 0.5).ok(), "{name}");
            assert!(cell(name, -0.5, 0.5).ok(), "{name}");
            assert!(!cell(name, 1.5, 0.5).ok(), "{name}: second set far above");
            assert!(!cell(name, -1.5, 0.5).ok(), "{name}: second set far below");
            assert!(!cell(name, 0.0, 1.5).ok(), "{name}: spread past the bound");
        }
        // The gap is a share of the smaller median, so which set ran
        // first does not change the verdict.
        let mut c = cell("slots_per_s", 1.05, 0.0);
        let forward = c.gap();
        c.medians.reverse();
        assert_eq!(c.gap(), forward);
        assert!(!c.ok());
        c.medians = [0.0, 0.0];
        assert_eq!(c.gap(), 0.0);
        c.medians = [0.0, 1.0];
        assert!(!c.ok());
    }

    #[test]
    fn child_output_must_end_in_exactly_the_contract_keys() {
        let info = r#"{"info": 1, "hash": "00ff", "iterations": 2, "rss_includes_setup": false, "violations": []}"#;
        let good = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let run = parse_child_output(&format!("{info}\n{good}\n"), true).unwrap();
        assert!(run.correct);
        assert_eq!(run.hash, "00ff");
        assert_eq!(run.iterations, 2);
        assert_eq!(run.metrics["setup_s"], (0.5, "s".to_string()));

        let extra = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {}, "hash": 1}"#;
        assert!(parse_child_output(&format!("{info}\n{extra}\n"), true).is_err());
        assert!(parse_child_output("", true).is_err());
        assert!(parse_child_output(good, true).is_err(), "no info line");
    }
}
