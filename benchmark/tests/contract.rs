//! The benchmark's description of itself (`BENCHMARK.json`) and what the
//! code measures (`catalog`) must be the same sets, in both directions.

use std::collections::BTreeSet;

use adpf_benchmark::catalog::{self, Metric, END_TO_END, PER_LAYER};
use adpf_benchmark::json::{self, Value};
use adpf_benchmark::workloads::ALL as WORKLOADS;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the contract's rule for a name.
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// `[A-Za-z0-9_/%.-]{1,16}` — the contract's rule for a unit.
fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

#[test]
fn every_name_and_unit_is_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(m.name), "bad metric name `{}`", m.name);
        assert!(is_unit(m.unit), "bad unit `{}` on {}", m.unit, m.name);
        assert!(seen.insert(m.name), "metric `{}` listed twice", m.name);
    }
    for w in WORKLOADS {
        assert!(is_name(w.name), "bad workload name `{}`", w.name);
        assert!(seen.insert(w.name), "name `{}` used twice", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn bounds_fit_the_contract_and_setup_has_the_largest() {
    let setup = catalog::metric("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
        assert!(m.bound <= setup.bound);
    }
}

fn assert_same_metrics(listed: &[Value], ours: &[Metric], with_bound: bool) {
    let theirs: Vec<(String, String, String, Option<f64>)> = listed
        .iter()
        .map(|m| {
            let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
            let want: &[&str] = if with_bound {
                &["better", "bound", "name", "unit"]
            } else {
                &["better", "name", "unit"]
            };
            assert_eq!(keys, want, "keys of {m:?}");
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect();
    let mine: Vec<_> = ours
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                with_bound.then_some(m.bound),
            )
        })
        .collect();
    assert_eq!(theirs, mine);
}

#[test]
fn benchmark_json_lists_exactly_what_the_catalog_measures() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(catalog::RUN_SECONDS as f64)
    );
    let workloads: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, ours);
    assert_same_metrics(
        doc.get("end_to_end").and_then(Value::as_arr).unwrap(),
        END_TO_END,
        true,
    );
    assert_same_metrics(
        doc.get("per_layer").and_then(Value::as_arr).unwrap(),
        PER_LAYER,
        false,
    );
}

#[test]
fn the_command_and_paths_stay_inside_the_benchmark_directory() {
    let doc = benchmark_json();
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
}
