//! In-memory spans recorded by the traced run, and the self-time
//! arithmetic over them.
//!
//! A span is `(name, start, end, parent, shard)`. The two per-call
//! classes of the engine drive (`on_slot`, `drain`) would be millions of
//! spans per run, so they are folded into one *aggregate* span per shard:
//! its duration is the summed time of its calls and `calls` says how
//! many there were. Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use std::io::Write;
use std::time::Instant;

use crate::json::quote;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub shard: Option<u32>,
    /// Calls folded into this span; `1` for an ordinary span.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        shard: Option<u32>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            shard,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as a span and returns what it returned.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        shard: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, shard);
        let out = f();
        self.end(id);
        out
    }

    /// Records an aggregate span: `calls` calls that together took
    /// `total_ns`, laid out from the parent's start.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: usize,
        shard: Option<u32>,
        total_ns: u64,
        calls: u64,
    ) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(parent),
            shard,
            calls,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e9
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed call count of every span called `name`.
    pub fn total_calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children are sequential by construction (one thread
/// records them), so their cover is the sum of their durations; it is
/// clamped to the parent's duration so that timer jitter on an aggregate
/// can never produce a negative self time.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// For each top-level-per-shard span called `root_name`: its duration
/// and the summed self time of its whole subtree. The two agree unless
/// children overran their parent, which is what the 5 % closure check
/// in the traced run looks for.
pub fn subtree_closure(spans: &[Span], root_name: &str) -> Vec<(u64, u64)> {
    let selfs = self_times_ns(spans);
    // Parents always precede children in the recording order.
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut sums: Vec<u64> = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = if s.name == root_name {
            Some(i)
        } else {
            s.parent.and_then(|p| root_of[p])
        };
        if let Some(r) = root_of[i] {
            sums[r] += selfs[i];
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root_name)
        .map(|(i, s)| (s.duration_ns(), sums[i]))
        .collect()
}

/// Writes `spans` as JSON lines, one span per line, after one header
/// line carrying `meta` (already-rendered JSON members).
pub fn write_jsonl<W: Write>(w: &mut W, meta: &str, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "{{\"trace\": 1, {meta}, \"spans\": {}}}", spans.len())?;
    let selfs = self_times_ns(spans);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"shard\": {}, \"calls\": {}, \"self_ns\": {self_ns}}}",
            quote(s.name),
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.shard.map(u64::from)),
            s.calls,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            shard: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100; a 10..40 (child b 15..25); c 50..90.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum back to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn zero_length_spans_have_zero_self_time_and_cost_their_parent_nothing() {
        let spans = [
            span("root", 5, 25, None),
            span("empty", 7, 7, Some(0)),
            span("leaf", 7, 17, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 0, 10]);
    }

    #[test]
    fn overrunning_children_clamp_to_zero_not_negative() {
        let spans = [span("root", 0, 10, None), span("agg", 0, 12, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn aggregate_spans_carry_call_counts_and_sit_under_their_parent() {
        let mut r = Recorder::new();
        let shard = r.begin("shard", None, Some(3));
        r.aggregate("on_slot", shard, Some(3), 500, 10);
        r.aggregate("on_slot", shard, Some(3), 300, 5);
        r.end(shard);
        assert_eq!(r.total_ns("on_slot"), 800);
        assert_eq!(r.total_calls("on_slot"), 15);
        assert_eq!(r.spans()[1].parent, Some(shard));
        assert_eq!(r.spans()[1].start_ns, r.spans()[shard].start_ns);
    }

    #[test]
    fn closure_reports_each_root_with_its_subtree_self_sum() {
        let spans = [
            span("shard", 0, 100, None),
            span("gen", 0, 30, Some(0)),
            span("shard", 100, 150, None),
            span("gen", 100, 110, Some(2)),
            span("deep", 100, 105, Some(3)),
        ];
        assert_eq!(subtree_closure(&spans, "shard"), vec![(100, 100), (50, 50)]);
    }

    #[test]
    fn jsonl_has_a_header_and_one_parsable_line_per_span() {
        let spans = [span("root", 0, 9, None), span("kid", 1, 4, Some(0))];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "\"workload\": \"w\"", &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let head = crate::json::parse(lines[0]).unwrap();
        assert_eq!(head.get("spans").and_then(|v| v.as_f64()), Some(2.0));
        let kid = crate::json::parse(lines[2]).unwrap();
        assert_eq!(kid.get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(kid.get("self_ns").and_then(|v| v.as_f64()), Some(3.0));
    }
}
