//! Ring-buffered span events for the migration lifecycle.
//!
//! Spans are *rare* relative to statements — per-granule copies, the
//! flip quiesce, finalize — so the ring trades a short mutex hold for
//! exact ordering and bounded memory: the newest [`RING_CAPACITY`]
//! events win, and a dropped-event counter records what scrolled off.
//! Timestamps are microseconds on the owning
//! [`Registry`](crate::Registry)'s monotonic clock, so span windows and
//! histogram samples line up in one timeline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Events retained before the oldest scroll off.
const RING_CAPACITY: usize = 4096;

/// One completed span in wire-friendly form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// What happened (`migrate.granule`, `migrate.flip`, …).
    pub name: String,
    /// Free per-span payload: granule index, row count, shard id.
    pub detail: u64,
    /// Start, microseconds on the registry clock.
    pub start_us: u64,
    /// End, microseconds on the registry clock.
    pub end_us: u64,
}

/// Internal ring entry — the name stays `&'static` until snapshot time.
#[derive(Clone, Copy)]
struct Event {
    name: &'static str,
    detail: u64,
    start_us: u64,
    end_us: u64,
}

/// The span ring. One per [`Registry`](crate::Registry).
pub struct Tracer {
    start: Instant,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub(crate) fn new(start: Instant) -> Self {
        Tracer {
            start,
            ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since the registry was created.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Appends one completed span (no-op while sampling is disabled).
    pub fn record(&self, name: &'static str, detail: u64, start_us: u64, end_us: u64) {
        if !crate::enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event {
            name,
            detail,
            start_us,
            end_us,
        });
    }

    /// Opens a span that records itself when finished or dropped.
    pub fn span(&self, name: &'static str, detail: u64) -> Span<'_> {
        Span {
            tracer: self,
            name,
            detail,
            start_us: self.now_us(),
            done: false,
        }
    }

    /// The retained events (oldest first) and how many were dropped.
    pub fn events(&self) -> (Vec<SpanSnapshot>, u64) {
        let ring = self.ring.lock().unwrap();
        let events = ring
            .iter()
            .map(|e| SpanSnapshot {
                name: e.name.to_string(),
                detail: e.detail,
                start_us: e.start_us,
                end_us: e.end_us,
            })
            .collect();
        (events, self.dropped.load(Ordering::Relaxed))
    }
}

/// An open span; records on [`finish`](Span::finish) or drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    detail: u64,
    start_us: u64,
    done: bool,
}

impl Span<'_> {
    /// Closes the span now and returns its duration in microseconds.
    pub fn finish(mut self) -> u64 {
        let end = self.tracer.now_us();
        self.tracer
            .record(self.name, self.detail, self.start_us, end);
        self.done = true;
        end.saturating_sub(self.start_us)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            let end = self.tracer.now_us();
            self.tracer
                .record(self.name, self.detail, self.start_us, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_order_and_ring_bounds() {
        let t = Tracer::new(Instant::now());
        t.record("a", 1, 0, 10);
        t.span("b", 2).finish();
        {
            let _guard = t.span("c", 3); // records on drop
        }
        let (events, dropped) = t.events();
        assert_eq!(dropped, 0);
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert!(events.iter().all(|e| e.end_us >= e.start_us));

        for i in 0..(RING_CAPACITY as u64 + 10) {
            t.record("spam", i, i, i);
        }
        let (events, dropped) = t.events();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped, 13, "3 originals + 10 overflow scrolled off");
    }
}
