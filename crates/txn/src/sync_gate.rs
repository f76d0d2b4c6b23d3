//! The synchronous-replication commit gate.
//!
//! `SET SYNC_REPLICAS n` asks that a commit acknowledgement wait until
//! `n` replicas have confirmed (via `REPL_ACK`) applying everything up
//! to the commit's end LSN. The gate **composes with** the WAL's
//! durable horizon rather than replacing it: callers first wait for
//! local durability and then park here until the n-th highest replica
//! ack covers the commit — the gate only ever *adds* a condition on top
//! of the horizon every ack already waits for.
//!
//! The gate is also where fencing bites the commit path: a member that
//! observed a higher epoch (or verifiably lost its lease) flips
//! `fenced`, and every waiter — including ones already parked — returns
//! [`AckOutcome::Fenced`] instead of acknowledging. Degrading (acking
//! without the replica quorum) is only permitted while the node holds a
//! valid leadership lease; a fenced or lease-less node blocks, because
//! an ack it hands out could be lost to a promotion it cannot see.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// How a gated commit was acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// Replicated to the required number of replicas (or no sync
    /// replication configured).
    Synced,
    /// The degrade policy fired: acknowledged on local durability alone
    /// because the replicas fell away while we verifiably still led.
    Degraded,
    /// This node is fenced (stale epoch or lapsed lease): the commit is
    /// locally durable but MUST NOT be acknowledged — the client has to
    /// re-route to the current primary and retry.
    Fenced,
}

/// What to do when `sync_replicas` cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never ack without the replica quorum; commits wait indefinitely
    /// (checking for fencing as they wait).
    Block,
    /// Wait up to the window, then ack on local durability alone —
    /// but only while the node holds a valid lease (see module docs).
    Degrade(Duration),
}

/// Connected sync-capable replicas, by registration id, with the highest
/// LSN each has acked.
#[derive(Default)]
struct GateInner {
    peers: HashMap<u64, u64>,
    next_id: u64,
}

/// Shared gate state; one per WAL (reachable from every
/// [`crate::wal::CommitTicket`]).
pub struct SyncGate {
    /// Replica acks required per commit (0 = sync replication off).
    required: AtomicUsize,
    policy: Mutex<SyncPolicy>,
    /// Stale epoch observed or leadership verifiably lost: never ack.
    fenced: AtomicBool,
    /// True while the node holds a majority lease (or runs standalone,
    /// where the lease is vacuously ours). Gates the degrade path only.
    lease_ok: AtomicBool,
    /// Where writes should go instead, when known (set at fencing time).
    leader_hint: Mutex<Option<String>>,
    inner: Mutex<GateInner>,
    cv: Condvar,
    /// Gauge: the n-th-highest acked LSN at the last recompute.
    replicated: AtomicU64,
    degraded_commits: AtomicU64,
    fenced_commits: AtomicU64,
}

impl Default for SyncGate {
    fn default() -> Self {
        SyncGate {
            required: AtomicUsize::new(0),
            policy: Mutex::new(SyncPolicy::Degrade(Duration::from_secs(1))),
            fenced: AtomicBool::new(false),
            lease_ok: AtomicBool::new(true),
            leader_hint: Mutex::new(None),
            inner: Mutex::new(GateInner::default()),
            cv: Condvar::new(),
            replicated: AtomicU64::new(0),
            degraded_commits: AtomicU64::new(0),
            fenced_commits: AtomicU64::new(0),
        }
    }
}

impl SyncGate {
    /// Blocks until the commit ending at `lsn` may be acknowledged, and
    /// says how. Callers must already have waited for local durability.
    pub fn wait_acked(&self, lsn: u64) -> AckOutcome {
        if self.required.load(Ordering::Acquire) == 0 {
            return if self.fenced.load(Ordering::Acquire) {
                self.fenced_commits.fetch_add(1, Ordering::Relaxed);
                AckOutcome::Fenced
            } else {
                AckOutcome::Synced
            };
        }
        let policy = *self.policy.lock();
        let start = Instant::now();
        let mut inner = self.inner.lock();
        loop {
            if self.fenced.load(Ordering::Acquire) {
                self.fenced_commits.fetch_add(1, Ordering::Relaxed);
                return AckOutcome::Fenced;
            }
            let n = self.required.load(Ordering::Acquire);
            if n == 0 || self.nth_acked(&inner, n) >= lsn {
                return AckOutcome::Synced;
            }
            let may_degrade = self.lease_ok.load(Ordering::Acquire);
            match policy {
                SyncPolicy::Degrade(window) if may_degrade => {
                    // With nobody connected to ack, the window is pure
                    // added latency: a leaseholder degrades immediately.
                    // This is what keeps a freshly promoted primary (no
                    // replicas yet) responsive.
                    if inner.peers.is_empty() || start.elapsed() >= window {
                        self.degraded_commits.fetch_add(1, Ordering::Relaxed);
                        return AckOutcome::Degraded;
                    }
                    self.cv.wait_until(&mut inner, start + window);
                }
                // Block policy — or a lease-less node, which must not
                // degrade no matter the policy. Re-check fencing often.
                _ => {
                    self.cv.wait_for(&mut inner, Duration::from_millis(50));
                }
            }
        }
    }

    /// Registers a connected replica; its acked LSN starts at 0.
    pub fn register_peer(&self) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.peers.insert(id, 0);
        self.cv.notify_all();
        id
    }

    /// Advances peer `id`'s acked LSN (never backward) and wakes
    /// waiters whose quorum may now be satisfied.
    pub fn advance_peer(&self, id: u64, lsn: u64) {
        let mut inner = self.inner.lock();
        if let Some(h) = inner.peers.get_mut(&id) {
            if lsn <= *h {
                return;
            }
            *h = lsn;
        } else {
            return;
        }
        let n = self.required.load(Ordering::Acquire).max(1);
        self.replicated
            .fetch_max(self.nth_acked(&inner, n), Ordering::AcqRel);
        self.cv.notify_all();
    }

    /// Drops a disconnected peer. Waiters wake so the degrade path can
    /// notice the quorum shrank.
    pub fn remove_peer(&self, id: u64) {
        self.inner.lock().peers.remove(&id);
        self.cv.notify_all();
    }

    /// The n-th highest acked LSN, or 0 when fewer than `n` replicas
    /// are connected.
    fn nth_acked(&self, inner: &GateInner, n: usize) -> u64 {
        if inner.peers.len() < n {
            return 0;
        }
        let mut acks: Vec<u64> = inner.peers.values().copied().collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        acks[n - 1]
    }

    /// Sets the required replica count (`SET SYNC_REPLICAS n`).
    pub fn set_required(&self, n: usize) {
        self.required.store(n, Ordering::Release);
        self.cv.notify_all();
    }

    /// Current required replica count.
    pub fn required(&self) -> usize {
        self.required.load(Ordering::Acquire)
    }

    /// Sets the degrade-or-block policy (`SET SYNC_POLICY ...`).
    pub fn set_policy(&self, p: SyncPolicy) {
        *self.policy.lock() = p;
        self.cv.notify_all();
    }

    /// Current policy.
    pub fn policy(&self) -> SyncPolicy {
        *self.policy.lock()
    }

    /// Fences the node: every present and future commit wait returns
    /// [`AckOutcome::Fenced`]. `leader` names where writes go now, when
    /// known. Idempotent.
    pub fn fence(&self, leader: Option<String>) {
        if let Some(l) = leader {
            *self.leader_hint.lock() = Some(l);
        }
        self.fenced.store(true, Ordering::Release);
        let _ = self.inner.lock();
        self.cv.notify_all();
    }

    /// Clears the fence (a node re-joining as a leader after proving a
    /// fresh majority — never called on mere reconnect).
    pub fn unfence(&self) {
        self.fenced.store(false, Ordering::Release);
        self.cv.notify_all();
    }

    /// True when fenced.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Updates the lease view (majority held / lost). Losing the lease
    /// does not fence by itself, but it forbids degrading.
    pub fn set_lease_ok(&self, ok: bool) {
        self.lease_ok.store(ok, Ordering::Release);
        self.cv.notify_all();
    }

    /// True while the node may degrade (holds the lease or standalone).
    pub fn lease_ok(&self) -> bool {
        self.lease_ok.load(Ordering::Acquire)
    }

    /// The last known primary, for rejection messages.
    pub fn leader_hint(&self) -> Option<String> {
        self.leader_hint.lock().clone()
    }

    /// Records where the primary is (kept fresh by the HA loops so
    /// fencing can name it).
    pub fn set_leader_hint(&self, leader: Option<String>) {
        *self.leader_hint.lock() = leader;
    }

    /// Connected sync-capable peers.
    pub fn peer_count(&self) -> usize {
        self.inner.lock().peers.len()
    }

    /// Gauge: highest LSN known replicated to the required quorum.
    pub fn replicated_lsn(&self) -> u64 {
        self.replicated.load(Ordering::Acquire)
    }

    /// Gauge: commits acknowledged via the degrade path.
    pub fn degraded_commits(&self) -> u64 {
        self.degraded_commits.load(Ordering::Relaxed)
    }

    /// Gauge: commit waits refused because the node was fenced.
    pub fn fenced_commits(&self) -> u64 {
        self.fenced_commits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn no_sync_replicas_is_transparent() {
        let g = SyncGate::default();
        assert_eq!(g.wait_acked(100), AckOutcome::Synced);
    }

    #[test]
    fn quorum_ack_releases_waiter() {
        let g = Arc::new(SyncGate::default());
        g.set_required(1);
        g.set_policy(SyncPolicy::Block);
        let p = g.register_peer();
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || g2.wait_acked(10));
        std::thread::sleep(Duration::from_millis(30));
        g.advance_peer(p, 10);
        assert_eq!(t.join().unwrap(), AckOutcome::Synced);
        assert_eq!(g.replicated_lsn(), 10);
    }

    #[test]
    fn nth_highest_ack_gates_two_replicas() {
        let g = SyncGate::default();
        g.set_required(2);
        g.set_policy(SyncPolicy::Block);
        let a = g.register_peer();
        let b = g.register_peer();
        g.advance_peer(a, 50);
        // Only one replica at 50: a 2-replica commit at 20 must not pass.
        let inner = g.inner.lock();
        assert_eq!(g.nth_acked(&inner, 2), 0);
        drop(inner);
        g.advance_peer(b, 20);
        let inner = g.inner.lock();
        assert_eq!(g.nth_acked(&inner, 2), 20);
    }

    #[test]
    fn degrade_fires_without_peers_and_after_window() {
        let g = SyncGate::default();
        g.set_required(1);
        g.set_policy(SyncPolicy::Degrade(Duration::from_millis(40)));
        // No peers: immediate degrade.
        let t0 = Instant::now();
        assert_eq!(g.wait_acked(5), AckOutcome::Degraded);
        assert!(t0.elapsed() < Duration::from_millis(40));
        // A silent peer: degrade only after the window.
        let _p = g.register_peer();
        let t0 = Instant::now();
        assert_eq!(g.wait_acked(5), AckOutcome::Degraded);
        assert!(t0.elapsed() >= Duration::from_millis(35));
        assert_eq!(g.degraded_commits(), 2);
    }

    #[test]
    fn lease_loss_blocks_degrade_and_fence_rejects() {
        let g = Arc::new(SyncGate::default());
        g.set_required(1);
        g.set_policy(SyncPolicy::Degrade(Duration::from_millis(10)));
        g.set_lease_ok(false);
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || g2.wait_acked(5));
        // Without the lease the degrade window must NOT fire...
        std::thread::sleep(Duration::from_millis(60));
        assert!(!t.is_finished());
        // ...and fencing releases the waiter with a refusal.
        g.fence(Some("db-b:4001".into()));
        assert_eq!(t.join().unwrap(), AckOutcome::Fenced);
        assert_eq!(g.fenced_commits(), 1);
        assert_eq!(g.leader_hint().as_deref(), Some("db-b:4001"));
    }

    #[test]
    fn peer_disconnect_lets_leaseholder_degrade() {
        let g = Arc::new(SyncGate::default());
        g.set_required(1);
        g.set_policy(SyncPolicy::Degrade(Duration::from_secs(5)));
        let p = g.register_peer();
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || g2.wait_acked(5));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished());
        g.remove_peer(p);
        assert_eq!(t.join().unwrap(), AckOutcome::Degraded);
    }
}
