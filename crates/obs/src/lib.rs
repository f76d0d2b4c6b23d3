//! # bullfrog-obs — unified observability for every subsystem
//!
//! BullFrog's claim is about *latency during the lazy-migration window*:
//! the paper's headline figures are tail-latency timelines across the
//! flip, drain, and finalize phases. Flat counters cannot produce those
//! figures, so this crate adds the three primitives every layer shares:
//!
//! - **[`Counter`]** — a plain relaxed atomic, registered by `&'static`
//!   name so `STATUS` serves keys without per-request string allocation.
//!   There is no stored gauge: a point-in-time level (lag, queue depth,
//!   log length) is computed by its owner when a request asks for it.
//! - **[`Histogram`]** — a fixed log-bucket latency histogram (4
//!   sub-buckets per power of two, ≤ 25 % relative bucket width) whose
//!   recording path is two relaxed `fetch_add`s on a thread-sharded
//!   bucket array: a few nanoseconds, safe on the WAL-append and
//!   statement hot paths. Snapshots are plain bucket vectors that
//!   [merge](HistogramSnapshot::merge) associatively and commutatively,
//!   so per-shard, per-node, and per-second views all aggregate with the
//!   same element-wise add.
//! - **[`Tracer`]** — a bounded ring of start/end-stamped span events
//!   for the migration lifecycle (per-granule copy, flip quiesce,
//!   exchange, finalize). Span rates are migration-bounded, so the ring
//!   trades a short mutex hold for exact ordering; the metrics hot path
//!   never touches it.
//!
//! A [`Registry`] ties the three together per database instance (tests
//! run several servers in one process, so there is no process-global
//! registry) and produces a [`MetricsSnapshot`] — the
//! payload of the BFNET1 `METRICS` opcode.
//!
//! [`set_enabled(false)`](set_enabled) turns histogram recording and
//! span capture into a single relaxed load + branch, which is how
//! `micro_net` demonstrates the instrumentation overhead. Counters
//! ignore the switch: `STATUS` totals must stay exact.

mod hist;
mod registry;
mod tracer;

pub use hist::{bucket_low, bucket_of, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{MetricsSnapshot, Registry};
pub use tracer::{Span, SpanSnapshot, Tracer};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Process-wide switch for *sampling* instrumentation (histograms and
/// tracer spans). Counters stay live regardless — they back
/// `STATUS` totals, which must not change when sampling is off.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables histogram recording and span capture
/// process-wide. Used by benches to measure instrumentation overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether sampling instrumentation is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event count. One relaxed `fetch_add` to
/// bump; always live (see [`set_enabled`]).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh, unregistered counter (use [`Registry::counter`] for a
    /// named one).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }
}
