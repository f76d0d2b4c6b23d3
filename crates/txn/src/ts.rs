//! The commit-timestamp oracle (Snapshot engine mode).
//!
//! Commit timestamps are drawn under the WAL's core mutex (see
//! [`crate::wal::Wal::append`]) so timestamp order and LSN
//! order agree: if `ts_a < ts_b` then `lsn_a < lsn_b`. Readers never see a
//! timestamp until its transaction finished installing versions — the
//! **stable** timestamp trails the oldest drawn-but-unfinished commit, and
//! new snapshots read at the stable point. That makes a snapshot an
//! ordinary prefix of the commit order with no holes: every version at or
//! below it is fully installed.
//!
//! The oracle also tracks active snapshots. Their minimum bounds the
//! version-GC horizon (a chain node may be pruned only when no registered
//! snapshot can still need it), and the per-snapshot *writer* flag lets a
//! migration flip quiesce in-flight writers that began before the flip
//! (the SI analogue of the S-lock barrier the 2PL granule reads rely on).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
struct OracleInner {
    /// Drawn but not yet finished commit timestamps.
    in_flight: BTreeSet<u64>,
    /// Highest commit timestamp ever drawn.
    last: u64,
    /// Everything at or below this is fully installed.
    stable: u64,
    /// Active snapshots: registration seq → (snapshot ts, has writes).
    snapshots: BTreeMap<u64, (u64, bool)>,
    /// Next registration seq.
    next_seq: u64,
}

impl OracleInner {
    fn recompute_stable(&mut self) {
        let candidate = match self.in_flight.first() {
            Some(min) => min - 1,
            None => self.last,
        };
        self.stable = self.stable.max(candidate);
    }
}

/// Draws commit timestamps, tracks the stable horizon, and registers
/// active snapshots. One per [`crate::wal::Wal`].
#[derive(Default)]
pub struct TsOracle {
    inner: Mutex<OracleInner>,
    /// Signaled when a snapshot releases or a commit finishes (the flip
    /// quiesce and GC both park here).
    changed: Condvar,
    /// Lock-free mirror of `inner.stable` for monitoring.
    stable: AtomicU64,
}

impl TsOracle {
    /// A fresh oracle starting at timestamp 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fast-forwards the timestamp space past `ts` (recovery: resume past
    /// the highest commit timestamp found in the log or checkpoint, so
    /// post-restart commits never reuse a persisted timestamp).
    pub fn resume_past(&self, ts: u64) {
        let mut inner = self.inner.lock();
        if inner.last < ts {
            inner.last = ts;
        }
        inner.recompute_stable();
        self.stable.store(inner.stable, Ordering::Release);
    }

    /// Draws the next commit timestamp. The caller must already hold the
    /// WAL core mutex (that is what aligns timestamp and LSN order) and
    /// must call [`TsOracle::finish`] after installing its versions.
    pub fn draw(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.last += 1;
        let ts = inner.last;
        inner.in_flight.insert(ts);
        ts
    }

    /// Marks `ts` fully installed, advancing the stable horizon past it
    /// once every older drawn timestamp has also finished.
    pub fn finish(&self, ts: u64) {
        let mut inner = self.inner.lock();
        inner.in_flight.remove(&ts);
        inner.recompute_stable();
        self.stable.store(inner.stable, Ordering::Release);
        self.changed.notify_all();
    }

    /// The stable timestamp: the snapshot point handed to new readers.
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::Acquire)
    }

    /// Blocks until the stable horizon reaches `ts`, i.e. until this
    /// commit is visible to new snapshots. Commit acknowledgement must
    /// park here: with concurrent committers, `finish(ts)` alone does
    /// not advance the horizon past `ts` while an older timestamp is
    /// still installing, and acking before visibility lets a caller
    /// publish "done" markers (e.g. migration granule state) that a
    /// fresh snapshot then contradicts. Bounded: every drawn timestamp
    /// is finished promptly by its committer. Returns false on timeout.
    pub fn wait_stable(&self, ts: u64, timeout: Duration) -> bool {
        if self.stable() >= ts {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if inner.stable >= ts {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.changed.wait_for(&mut inner, deadline - now);
        }
    }

    /// Highest commit timestamp drawn so far.
    pub fn last_drawn(&self) -> u64 {
        self.inner.lock().last
    }

    /// Registers a snapshot at the current stable timestamp; the returned
    /// handle unregisters on drop. Registration and horizon computation
    /// share one lock, so GC can never prune a version a just-registered
    /// snapshot still needs.
    pub fn begin_snapshot(self: &Arc<Self>) -> SnapshotHandle {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let ts = inner.stable;
        inner.snapshots.insert(seq, (ts, false));
        SnapshotHandle {
            oracle: Arc::clone(self),
            seq,
            ts,
        }
    }

    /// Flags the snapshot registered as `seq` as a writer (first in-place
    /// write); the flip quiesce waits on these.
    pub fn mark_writer(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.snapshots.get_mut(&seq) {
            entry.1 = true;
        }
    }

    fn release(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.snapshots.remove(&seq);
        self.changed.notify_all();
    }

    /// The version-GC horizon: the oldest timestamp any active snapshot
    /// (or a brand-new one) could read at. Chains may be pruned below it.
    pub fn gc_horizon(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .snapshots
            .values()
            .map(|(ts, _)| *ts)
            .min()
            .unwrap_or(inner.stable)
            .min(inner.stable)
    }

    /// Number of currently registered snapshots.
    pub fn active_snapshots(&self) -> usize {
        self.inner.lock().snapshots.len()
    }

    /// A barrier sequence: snapshots registered before this call have
    /// `seq` below the returned value. Pair with
    /// [`TsOracle::quiesce_writers_before`].
    pub fn barrier_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Blocks until no registered snapshot with `seq < barrier` has the
    /// writer flag set — i.e. every transaction that started before the
    /// barrier and wrote anything has committed or aborted. Returns false
    /// on timeout. A migration flip uses this so granule reads (which run
    /// lock-free at their own snapshot) can never miss a pre-flip
    /// straggler's in-flight write to an input table.
    pub fn quiesce_writers_before(&self, barrier: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            let blocked = inner
                .snapshots
                .range(..barrier)
                .any(|(_, (_, writer))| *writer);
            if !blocked {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.changed.wait_for(&mut inner, deadline - now);
        }
    }
}

impl std::fmt::Debug for TsOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsOracle")
            .field("stable", &self.stable())
            .finish()
    }
}

/// An active snapshot registration; unregisters on drop.
pub struct SnapshotHandle {
    oracle: Arc<TsOracle>,
    seq: u64,
    ts: u64,
}

impl SnapshotHandle {
    /// The snapshot timestamp reads run at.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Registration sequence (quiesce barrier ordering).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Flags this snapshot's transaction as a writer.
    pub fn mark_writer(&self) {
        self.oracle.mark_writer(self.seq);
    }
}

impl std::fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHandle")
            .field("seq", &self.seq)
            .field("ts", &self.ts)
            .finish()
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        self.oracle.release(self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_trails_oldest_in_flight() {
        let o = Arc::new(TsOracle::new());
        assert_eq!(o.stable(), 0);
        let a = o.draw();
        let b = o.draw();
        assert_eq!((a, b), (1, 2));
        assert_eq!(o.stable(), 0, "nothing finished yet");
        o.finish(b);
        assert_eq!(o.stable(), 0, "ts 1 still installing");
        o.finish(a);
        assert_eq!(o.stable(), 2, "prefix complete");
    }

    #[test]
    fn wait_stable_blocks_until_prefix_finishes() {
        let o = Arc::new(TsOracle::new());
        let a = o.draw();
        let b = o.draw();
        o.finish(b);
        assert!(
            !o.wait_stable(b, Duration::from_millis(20)),
            "ts 1 still installing, ts 2 must not be visible"
        );
        let o2 = Arc::clone(&o);
        let h = std::thread::spawn(move || o2.wait_stable(b, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        o.finish(a);
        assert!(h.join().unwrap());
        assert!(o.wait_stable(a, Duration::from_millis(1)));
    }

    #[test]
    fn snapshots_pin_the_gc_horizon() {
        let o = Arc::new(TsOracle::new());
        let t = o.draw();
        o.finish(t);
        let snap = o.begin_snapshot();
        assert_eq!(snap.ts(), 1);
        for _ in 0..3 {
            let t = o.draw();
            o.finish(t);
        }
        assert_eq!(o.stable(), 4);
        assert_eq!(o.gc_horizon(), 1, "held down by the old snapshot");
        drop(snap);
        assert_eq!(o.gc_horizon(), 4);
        assert_eq!(o.active_snapshots(), 0);
    }

    #[test]
    fn quiesce_waits_for_pre_barrier_writers() {
        let o = Arc::new(TsOracle::new());
        let writer = o.begin_snapshot();
        writer.mark_writer();
        let reader = o.begin_snapshot();
        let barrier = o.barrier_seq();
        assert!(
            !o.quiesce_writers_before(barrier, Duration::from_millis(20)),
            "writer still active"
        );
        drop(reader); // readers never block the quiesce
        let o2 = Arc::clone(&o);
        let h =
            std::thread::spawn(move || o2.quiesce_writers_before(barrier, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        drop(writer);
        assert!(h.join().unwrap());
        // Writers that begin after the barrier never block it.
        let late = o.begin_snapshot();
        late.mark_writer();
        assert!(o.quiesce_writers_before(barrier, Duration::from_millis(20)));
    }

    #[test]
    fn resume_past_restores_the_frontier() {
        let o = TsOracle::new();
        o.resume_past(41);
        assert_eq!(o.stable(), 41);
        let mut inner_next = o.draw();
        assert_eq!(inner_next, 42);
        o.finish(inner_next);
        inner_next = o.draw();
        assert_eq!(inner_next, 43);
        o.finish(inner_next);
        assert_eq!(o.stable(), 43);
    }
}
