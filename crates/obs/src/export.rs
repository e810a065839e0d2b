//! Metric export: JSON-lines for machines, a table for humans.
//!
//! The JSON-lines schema is one object per line:
//!
//! ```text
//! {"label":"smoke","name":"sim.event.slot","kind":"counter","value":1234}
//! {"label":"smoke","name":"overbooking.peak_tracked","kind":"gauge","value":17}
//! {"label":"smoke","name":"phase.merge","kind":"time","nanos":52100}
//! {"label":"smoke","name":"energy.user.tail_ms","kind":"histogram",
//!  "count":40,"sum":9000,"min":100,"max":400,"buckets":[[7,12],[8,28]]}
//! ```
//!
//! `label` is omitted when empty. Histogram `buckets` are
//! `[bucket_index, count]` pairs for non-empty buckets only, in the
//! log-linear layout of `Histogram::bucket_index`
//! (bucket 0 holds zeros, values below 8 index themselves, then 4
//! linear sub-buckets per power-of-two octave).
//! Lines are sorted by `(name, kind)`, so a given registry always
//! exports byte-identically.

use std::fmt::Write as _;

use crate::registry::{MetricRegistry, MetricValue};

/// Serialize every metric as one JSON object per line.
pub fn to_json_lines(reg: &MetricRegistry, label: &str) -> String {
    let mut out = String::new();
    for m in reg.snapshot() {
        out.push('{');
        if !label.is_empty() {
            let _ = write!(out, "\"label\":\"{}\",", escape(label));
        }
        let _ = write!(
            out,
            "\"name\":\"{}\",\"kind\":\"{}\"",
            m.name,
            m.kind.label()
        );
        match &m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"value\":{v}");
            }
            MetricValue::Time { nanos } => {
                let _ = write!(out, ",\"nanos\":{nanos}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                );
                for (i, (bucket, n)) in h.nonzero_buckets().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{bucket},{n}]");
                }
                out.push(']');
            }
        }
        out.push_str("}\n");
    }
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Render metrics as an aligned human-readable table, sorted by name.
pub fn render_table(reg: &MetricRegistry) -> String {
    let snap = reg.snapshot();
    if snap.is_empty() {
        return "  (no metrics recorded)\n".to_string();
    }
    let rows: Vec<(String, &'static str, String)> = snap
        .iter()
        .map(|m| {
            let summary = match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v.to_string(),
                MetricValue::Time { nanos } => format!("{:.3} ms", *nanos as f64 / 1e6),
                MetricValue::Histogram(h) => format!(
                    "n={} mean={:.1} min={} p95<={} max={}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.quantile_upper_bound(0.95),
                    h.max()
                ),
            };
            (m.name.to_string(), m.kind.label(), summary)
        })
        .collect();
    let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let kind_w = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, kind, summary) in rows {
        let _ = writeln!(out, "  {name:<name_w$}  {kind:<kind_w$}  {summary}");
    }
    out
}

/// Structural validation of a JSON-lines metrics file as produced by
/// [`to_json_lines`]. Returns the number of metric lines on success.
///
/// This is a schema check, not a JSON parser: each non-empty line must
/// be a single object carrying `name` and a known `kind`, plus the
/// value keys that kind requires.
pub fn validate_json_lines(contents: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |why: &str| Err(format!("line {}: {why}: {line}", lineno + 1));
        if !(line.starts_with('{') && line.ends_with('}')) {
            return fail("not a JSON object");
        }
        if !line.contains("\"name\":\"") {
            return fail("missing \"name\"");
        }
        let kind = ["counter", "gauge", "histogram", "time"]
            .iter()
            .find(|k| line.contains(&format!("\"kind\":\"{k}\"")));
        let required: &[&str] = match kind {
            Some(&"counter") | Some(&"gauge") => &["\"value\":"],
            Some(&"time") => &["\"nanos\":"],
            Some(&"histogram") => &[
                "\"count\":",
                "\"sum\":",
                "\"min\":",
                "\"max\":",
                "\"buckets\":[",
            ],
            _ => return fail("missing or unknown \"kind\""),
        };
        for key in required {
            if !line.contains(key) {
                return Err(format!("line {}: missing {key}: {line}", lineno + 1));
            }
        }
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricRegistry {
        let reg = MetricRegistry::new();
        reg.add("z.count", 12);
        reg.gauge_max("a.peak", 7);
        reg.observe("m.hist", 0);
        reg.observe("m.hist", 300);
        reg.add_time_ns("p.wall", 1_500_000);
        reg
    }

    #[test]
    fn json_lines_round_trip_through_the_validator() {
        let reg = sample_registry();
        let text = to_json_lines(&reg, "unit");
        assert_eq!(validate_json_lines(&text), Ok(4));
        assert!(text.starts_with("{\"label\":\"unit\",\"name\":\"a.peak\""));
        assert!(text.contains("\"name\":\"m.hist\",\"kind\":\"histogram\",\"count\":2"));
        // 300 sits in the first quarter of the [256, 512) octave:
        // bucket 8 + 5*4 = 28.
        assert!(text.contains("\"buckets\":[[0,1],[28,1]]"));
        // Empty label omits the key entirely.
        let unlabeled = to_json_lines(&reg, "");
        assert!(!unlabeled.contains("label"));
        assert_eq!(validate_json_lines(&unlabeled), Ok(4));
    }

    #[test]
    fn export_is_deterministic_under_registration_order() {
        let a = sample_registry();
        let b = MetricRegistry::new();
        b.add_time_ns("p.wall", 1_500_000);
        b.observe("m.hist", 300);
        b.observe("m.hist", 0);
        b.gauge_max("a.peak", 7);
        b.add("z.count", 12);
        assert_eq!(to_json_lines(&a, "x"), to_json_lines(&b, "x"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_json_lines("not json").is_err());
        assert!(validate_json_lines("{\"kind\":\"counter\",\"value\":1}").is_err());
        assert!(validate_json_lines("{\"name\":\"x\",\"kind\":\"wat\",\"value\":1}").is_err());
        assert!(validate_json_lines("{\"name\":\"x\",\"kind\":\"counter\"}").is_err());
        assert!(
            validate_json_lines("{\"name\":\"x\",\"kind\":\"histogram\",\"count\":1}").is_err()
        );
        assert_eq!(validate_json_lines("\n\n"), Ok(0));
    }

    #[test]
    fn table_renders_every_metric_once() {
        let reg = sample_registry();
        let table = render_table(&reg);
        for name in ["z.count", "a.peak", "m.hist", "p.wall"] {
            assert_eq!(table.matches(name).count(), 1, "{name} in:\n{table}");
        }
        assert!(render_table(&MetricRegistry::new()).contains("no metrics"));
    }
}
