//! The per-instance metric registry and its snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::tracer::{SpanSnapshot, Tracer};
use crate::Counter;

/// One database instance's metrics: named counters and histograms, plus
/// the span [`Tracer`]. Handles are `Arc`s — hot paths
/// look a metric up once and keep the handle; the registry lock is
/// only taken at registration and snapshot time.
///
/// Names are `&'static str`. Dynamic names (per-shard, per-peer) go
/// through [`intern`](Registry::intern), which leaks each distinct name
/// once per process — bounded by the metric namespace however many
/// databases a process builds, and what lets `STATUS` serve every key
/// without per-request string allocation.
pub struct Registry {
    start: Instant,
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    hists: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    tracer: Tracer,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry whose clock starts now.
    pub fn new() -> Self {
        let start = Instant::now();
        Registry {
            start,
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            tracer: Tracer::new(start),
        }
    }

    /// Microseconds since the registry was created (the clock every
    /// span timestamp uses).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Returns `name` as a `&'static str`, leaking each distinct name
    /// at most once per process (every server interns the names its
    /// STATUS reports, so a per-registry set would leak them once per
    /// database).
    pub fn intern(&self, name: &str) -> &'static str {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut set = INTERNED.lock().unwrap();
        if let Some(s) = set.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        set.insert(leaked);
        leaked
    }

    /// The counter registered as `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram registered as `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.hists
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Every counter's current total, sorted by name. Keys are the
    /// registered `&'static` names, so `STATUS` serves them without
    /// allocating.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect()
    }

    /// Every registered metric plus the retained spans, as one
    /// mergeable snapshot. `gauges` is left empty: the registry stores
    /// no point-in-time values, so the `METRICS` server fills it with
    /// the levels it computes per request.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let histograms = self
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect();
        let (spans, spans_dropped) = self.tracer.events();
        MetricsSnapshot {
            uptime_us: self.now_us(),
            counters,
            gauges: Vec::new(),
            histograms,
            spans,
            spans_dropped,
        }
    }
}

/// A point-in-time view of a whole [`Registry`] — what the BFNET1
/// `METRICS` opcode returns. All four sections are sorted by name
/// (snapshot order is registry iteration order, which is a `BTreeMap`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Microseconds the registry has been alive.
    pub uptime_us: u64,
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time levels by name, computed when the snapshot was
    /// requested (empty straight off a [`Registry`]).
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained span events, oldest first.
    pub spans: Vec<SpanSnapshot>,
    /// Spans that scrolled off the ring before this snapshot.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// The counter total named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The gauge level named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram snapshot named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Spans named `name`, oldest first.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanSnapshot> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_snapshot_sees_them() {
        let reg = Registry::new();
        let a = reg.counter("x.total");
        let b = reg.counter("x.total");
        a.add(2);
        b.inc();
        reg.histogram("x.lat_us").record(100);
        reg.tracer().record("x.span", 7, 1, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x.total"), Some(3));
        assert!(snap.gauges.is_empty(), "the registry stores no gauges");
        assert_eq!(reg.counters(), vec![("x.total", 3)]);
        assert_eq!(snap.histogram("x.lat_us").unwrap().count(), 1);
        assert_eq!(snap.spans_named("x.span").count(), 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn intern_is_stable_and_deduplicated() {
        let reg = Registry::new();
        let a = reg.intern(&format!("net.conn{}.frames", 0));
        let b = reg.intern("net.conn0.frames");
        assert!(std::ptr::eq(a, b), "same allocation for the same name");
    }
}
