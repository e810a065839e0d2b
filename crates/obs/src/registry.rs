//! The metric registry: named slots behind pre-resolved ids.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::hist::Histogram;

/// What a metric slot holds and how it merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// Monotone sum; merges by addition.
    Counter,
    /// High-water mark; merges by max.
    Gauge,
    /// Log-linear histogram (252 buckets); merges bucket-wise.
    Histogram,
    /// Accumulated wall-clock nanoseconds; merges by addition.
    /// The one kind whose values are *not* deterministic across runs.
    Time,
}

impl MetricKind {
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Time => "time",
        }
    }
}

/// Pre-resolved handle to a slot in one specific registry. Updating
/// through an id is an array index plus an integer add — the hot path
/// never hashes a name or allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

#[derive(Debug)]
enum Slot {
    Counter(u64),
    Gauge(u64),
    Hist(Box<Histogram>),
    Time(u64),
}

#[derive(Default, Debug)]
struct Inner {
    /// Names and kinds in registration order, parallel to `slots`.
    names: Vec<(&'static str, MetricKind)>,
    slots: Vec<Slot>,
    index: HashMap<(&'static str, MetricKind), u32>,
}

impl Inner {
    fn register(&mut self, name: &'static str, kind: MetricKind) -> MetricId {
        if let Some(&i) = self.index.get(&(name, kind)) {
            return MetricId(i);
        }
        let i = self.slots.len() as u32;
        self.names.push((name, kind));
        self.slots.push(match kind {
            MetricKind::Counter => Slot::Counter(0),
            MetricKind::Gauge => Slot::Gauge(0),
            MetricKind::Histogram => Slot::Hist(Box::default()),
            MetricKind::Time => Slot::Time(0),
        });
        self.index.insert((name, kind), i);
        MetricId(i)
    }
}

/// A set of named metrics with deterministic merge semantics.
///
/// Interior mutability (`RefCell`) keeps all update methods `&self`, so
/// instrumented components can publish through shared references.
/// Registries are `Send` but not `Sync`; parallel runs keep one per
/// shard and merge them in shard order, exactly like `SimReport::merge`.
#[derive(Default, Debug)]
pub struct MetricRegistry {
    inner: RefCell<Inner>,
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- registration --------------------------------------------------

    pub fn counter(&self, name: &'static str) -> MetricId {
        self.inner.borrow_mut().register(name, MetricKind::Counter)
    }

    pub(crate) fn gauge(&self, name: &'static str) -> MetricId {
        self.inner.borrow_mut().register(name, MetricKind::Gauge)
    }

    pub fn histogram(&self, name: &'static str) -> MetricId {
        self.inner
            .borrow_mut()
            .register(name, MetricKind::Histogram)
    }

    pub(crate) fn timer(&self, name: &'static str) -> MetricId {
        self.inner.borrow_mut().register(name, MetricKind::Time)
    }

    // ---- hot-path updates by id ---------------------------------------

    #[inline]
    pub fn inc(&self, id: MetricId, delta: u64) {
        if let Slot::Counter(v) = &mut self.inner.borrow_mut().slots[id.0 as usize] {
            *v += delta;
        }
    }

    #[inline]
    pub(crate) fn gauge_max_id(&self, id: MetricId, value: u64) {
        if let Slot::Gauge(v) = &mut self.inner.borrow_mut().slots[id.0 as usize] {
            *v = (*v).max(value);
        }
    }

    #[inline]
    pub fn observe_id(&self, id: MetricId, value: u64) {
        if let Slot::Hist(h) = &mut self.inner.borrow_mut().slots[id.0 as usize] {
            h.record(value);
        }
    }

    #[inline]
    pub(crate) fn add_time_ns_id(&self, id: MetricId, nanos: u64) {
        if let Slot::Time(v) = &mut self.inner.borrow_mut().slots[id.0 as usize] {
            *v += nanos;
        }
    }

    // ---- updates by name ----------------------------------------------
    //
    // Register (or find) the slot, then update it. For publish-at-finalize
    // seams; hot paths hold `MetricId`s instead.

    /// Adds to a counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        let id = self.counter(name);
        self.inc(id, delta);
    }

    /// Raises a high-water gauge to at least `value`.
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        let id = self.gauge(name);
        self.gauge_max_id(id, value);
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: &'static str, value: u64) {
        let id = self.histogram(name);
        self.observe_id(id, value);
    }

    /// Folds a pre-aggregated histogram into the named histogram.
    pub fn merge_histogram(&self, name: &'static str, hist: &Histogram) {
        let id = self.histogram(name);
        if let Slot::Hist(h) = &mut self.inner.borrow_mut().slots[id.0 as usize] {
            h.merge(hist);
        }
    }

    /// Adds wall-clock nanoseconds to a time metric.
    pub fn add_time_ns(&self, name: &'static str, nanos: u64) {
        let id = self.timer(name);
        self.add_time_ns_id(id, nanos);
    }

    // ---- readers -------------------------------------------------------

    /// Value of a counter, or 0 if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.find(name, MetricKind::Counter) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Value of a gauge, or 0 if it was never registered.
    pub fn gauge_value(&self, name: &str) -> u64 {
        match self.find(name, MetricKind::Gauge) {
            Some(MetricValue::Gauge(v)) => v,
            _ => 0,
        }
    }

    /// Accumulated nanoseconds of a time metric, or 0 if absent.
    pub fn time_ns(&self, name: &str) -> u64 {
        match self.find(name, MetricKind::Time) {
            Some(MetricValue::Time { nanos }) => nanos,
            _ => 0,
        }
    }

    /// Copy of a histogram, or `None` if absent.
    pub fn histogram_snapshot(&self, name: &str) -> Option<Histogram> {
        match self.find(name, MetricKind::Histogram) {
            Some(MetricValue::Histogram(h)) => Some(*h),
            _ => None,
        }
    }

    fn find(&self, name: &str, kind: MetricKind) -> Option<MetricValue> {
        let inner = self.inner.borrow();
        // Linear scan: keys are `&'static str` so a borrowed `&str`
        // cannot index the map; readers run at finalize/export time
        // where O(metric count) is irrelevant.
        let i = inner
            .names
            .iter()
            .position(|&(n, k)| n == name && k == kind)?;
        Some(MetricValue::from_slot(&inner.slots[i]))
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- merge & snapshot ---------------------------------------------

    /// Fold another registry into this one: counters and times add,
    /// gauges take the max, histograms sum bucket-wise. Metrics absent
    /// on either side are treated as zero-valued, so merging is exactly
    /// associative and commutative for every kind.
    pub fn merge(&mut self, other: &MetricRegistry) {
        let mut inner = self.inner.borrow_mut();
        let other = other.inner.borrow();
        for ((name, kind), slot) in other.names.iter().zip(other.slots.iter()) {
            let id = inner.register(name, *kind);
            match (&mut inner.slots[id.0 as usize], slot) {
                (Slot::Counter(a), Slot::Counter(b)) => *a += b,
                (Slot::Gauge(a), Slot::Gauge(b)) => *a = (*a).max(*b),
                (Slot::Hist(a), Slot::Hist(b)) => a.merge(b),
                (Slot::Time(a), Slot::Time(b)) => *a += b,
                _ => unreachable!("register() returned a slot of the wrong kind"),
            }
        }
    }

    /// All metrics, sorted by `(name, kind)` for deterministic export
    /// regardless of registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let inner = self.inner.borrow();
        let mut out: Vec<MetricSnapshot> = inner
            .names
            .iter()
            .zip(inner.slots.iter())
            .map(|(&(name, kind), slot)| MetricSnapshot {
                name,
                kind,
                value: MetricValue::from_slot(slot),
            })
            .collect();
        out.sort_by_key(|m| (m.name, m.kind));
        out
    }

    /// Snapshot restricted to deterministic metrics: wall-clock `Time`
    /// entries and host-fact metrics (the [`crate::rss::PROC_PREFIX`]
    /// namespace — process RSS and friends, which vary run to run even
    /// on identical workloads) are dropped. Two runs of the same
    /// workload must produce equal deterministic snapshots at any
    /// thread count.
    pub fn deterministic_snapshot(&self) -> Vec<MetricSnapshot> {
        self.snapshot()
            .into_iter()
            .filter(|m| m.kind != MetricKind::Time && !m.name.starts_with(crate::rss::PROC_PREFIX))
            .collect()
    }
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: &'static str,
    pub kind: MetricKind,
    pub value: MetricValue,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Time { nanos: u64 },
    // Boxed: a histogram is ~550 bytes and would otherwise dominate the
    // size of every snapshot entry.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn from_slot(slot: &Slot) -> Self {
        match slot {
            Slot::Counter(v) => MetricValue::Counter(*v),
            Slot::Gauge(v) => MetricValue::Gauge(*v),
            Slot::Hist(h) => MetricValue::Histogram(h.clone()),
            Slot::Time(v) => MetricValue::Time { nanos: *v },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_update_their_slots() {
        let r = MetricRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        let t = r.timer("t");
        r.inc(c, 2);
        r.inc(c, 3);
        r.gauge_max_id(g, 7);
        r.gauge_max_id(g, 4);
        r.observe_id(h, 100);
        r.add_time_ns_id(t, 1_000);
        assert_eq!(r.counter_value("c"), 5);
        assert_eq!(r.gauge_value("g"), 7);
        assert_eq!(r.histogram_snapshot("h").unwrap().count(), 1);
        assert_eq!(r.time_ns("t"), 1_000);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn reregistration_returns_the_same_id() {
        let r = MetricRegistry::new();
        assert_eq!(r.counter("x"), r.counter("x"));
        // Same name, different kind: a distinct slot.
        let _ = r.timer("x");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn absent_metrics_read_as_zero() {
        let r = MetricRegistry::new();
        assert_eq!(r.counter_value("nope"), 0);
        assert_eq!(r.gauge_value("nope"), 0);
        assert_eq!(r.time_ns("nope"), 0);
        assert!(r.histogram_snapshot("nope").is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn updates_by_name_register_on_demand() {
        let r = MetricRegistry::new();
        r.add("a", 1);
        r.add("a", 2);
        r.gauge_max("b", 9);
        r.observe("c", 3);
        let mut pre = Histogram::new();
        pre.record(8);
        r.merge_histogram("c", &pre);
        r.add_time_ns("d", 50);
        assert_eq!(r.counter_value("a"), 3);
        assert_eq!(r.gauge_value("b"), 9);
        let h = r.histogram_snapshot("c").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3 + 8);
        assert_eq!(r.time_ns("d"), 50);
    }

    #[test]
    fn merge_combines_by_kind_and_tolerates_disjoint_names() {
        let mut a = MetricRegistry::new();
        let b = MetricRegistry::new();
        a.add("shared.count", 1);
        b.add("shared.count", 10);
        a.gauge_max("peak", 3);
        b.gauge_max("peak", 8);
        a.observe("lat", 4);
        b.observe("lat", 1024);
        b.add("only.b", 5);
        a.add_time_ns("wall", 100);
        b.add_time_ns("wall", 200);
        a.merge(&b);
        assert_eq!(a.counter_value("shared.count"), 11);
        assert_eq!(a.gauge_value("peak"), 8);
        assert_eq!(a.counter_value("only.b"), 5);
        assert_eq!(a.time_ns("wall"), 300);
        let h = a.histogram_snapshot("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic_filter_drops_time() {
        let r = MetricRegistry::new();
        r.add("zz", 1);
        r.add_time_ns("aa.wall", 5);
        r.add("mm", 2);
        let snap = r.snapshot();
        let names: Vec<_> = snap.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["aa.wall", "mm", "zz"]);
        let det = r.deterministic_snapshot();
        assert!(det.iter().all(|m| m.kind != MetricKind::Time));
        assert_eq!(det.len(), 2);
    }
}
