//! The lock manager: hierarchical strict two-phase locking.
//!
//! Tables take intention locks (`IS`/`IX`), scans and DDL take `S`/`X`
//! table locks, and individual rows take `S`/`X`. Lock waits are bounded by
//! a deadline; timing out returns [`Error::LockTimeout`] and the caller is
//! expected to abort and retry — this is the deadlock-avoidance policy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bullfrog_common::{Error, FnvHasher, Result, RowId, TableId, TxnId};
use parking_lot::{Condvar, Mutex};

/// Lock modes, in the classical hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (table level).
    IS,
    /// Intention exclusive (table level).
    IX,
    /// Shared.
    S,
    /// Shared + intention exclusive (table level).
    SIX,
    /// Exclusive.
    X,
}

impl LockMode {
    /// The standard multigranularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS)
                | (IS, IX)
                | (IS, S)
                | (IS, SIX)
                | (IX, IS)
                | (IX, IX)
                | (S, IS)
                | (S, S)
                | (SIX, IS)
        )
    }

    /// Least upper bound of two modes — the mode a transaction holds after
    /// requesting `other` while already holding `self` (lock upgrade).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            (S, IX) | (IX, S) => SIX,
            (S, IS) | (IS, S) => S,
            (IX, IS) | (IS, IX) => IX,
            _ => unreachable!("covered by the equality fast path"),
        }
    }

    /// True when holding `self` already implies `other`'s permissions.
    pub fn covers(self, other: LockMode) -> bool {
        self.combine(other) == self
    }
}

/// What a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// A whole table.
    Table(TableId),
    /// One row.
    Row(TableId, RowId),
}

impl LockKey {
    /// The table this key belongs to (for error messages).
    pub fn table(self) -> TableId {
        match self {
            LockKey::Table(t) | LockKey::Row(t, _) => t,
        }
    }
}

/// Per-key lock state: which transactions hold which modes, plus a FIFO
/// wait queue for fairness (without it, a continuous stream of compatible
/// intention locks starves table-X requests — exactly what an eager
/// migration needs).
#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(TxnId, LockMode)>,
    waiters: Vec<(TxnId, LockMode)>,
}

impl LockState {
    /// Can `txn` acquire `mode` given the other holders and the queue?
    /// Transactions that already hold the key (lock upgrades) bypass the
    /// queue; everyone else must be compatible with all waiters ahead of
    /// them, so a queued writer blocks later readers. Holds by `ally` are
    /// treated as compatible (see [`LockManager::acquire_deadline_ally`]).
    fn grantable(&self, txn: TxnId, mode: LockMode, ally: Option<TxnId>) -> bool {
        let compatible_with_holders = self
            .holders
            .iter()
            .filter(|(t, _)| *t != txn && Some(*t) != ally)
            .all(|(_, held)| held.compatible(mode));
        if !compatible_with_holders {
            return false;
        }
        if self.held_mode(txn).is_some() {
            return true; // upgrade: jump the queue
        }
        for (t, waiting_mode) in &self.waiters {
            if *t == txn {
                return true; // everyone ahead of us is compatible
            }
            if !waiting_mode.compatible(mode) {
                return false;
            }
        }
        true
    }

    fn enqueue(&mut self, txn: TxnId, mode: LockMode) {
        if !self.waiters.iter().any(|(t, _)| *t == txn) {
            self.waiters.push((txn, mode));
        }
    }

    fn dequeue(&mut self, txn: TxnId) {
        self.waiters.retain(|(t, _)| *t != txn);
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if let Some(slot) = self.holders.iter_mut().find(|(t, _)| *t == txn) {
            slot.1 = slot.1.combine(mode);
        } else {
            self.holders.push((txn, mode));
        }
    }

    fn held_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// One shard's lock table, plus how many requests are parked on the
/// shard's condvar right now.
#[derive(Default)]
struct ShardTable {
    locks: HashMap<LockKey, LockState, BuildHasherDefault<FnvHasher>>,
    /// Requests inside `wait_until`. Grants and releases notify only
    /// while it is non-zero: on the `std`-backed shim every `notify_all`
    /// is a futex syscall, even with nobody waiting.
    parked: usize,
}

struct Shard {
    table: Mutex<ShardTable>,
    /// Woken when a change in this shard may let a parked request through.
    released: Condvar,
}

impl Shard {
    /// Wakes this shard's parked requests, if any, so they recheck.
    /// Called with the shard mutex held, after the change.
    fn wake(&self, table: &ShardTable) {
        if table.parked > 0 {
            self.released.notify_all();
        }
    }
}

/// The sharded lock table.
///
/// Granting a lock takes one shard mutex; waiting blocks on the shard's
/// condvar and rechecks on every wake-up. Shards remove the obvious global
/// bottleneck (the paper partitions its migration data structures for the
/// same reason).
pub struct LockManager {
    shards: Vec<Shard>,
    default_timeout: Duration,
    /// `txn.lock_wait_us`, attached once by the owning database (see
    /// [`LockManager::attach_obs`]). Unattached managers skip recording.
    wait_hist: OnceLock<Arc<bullfrog_obs::Histogram>>,
}

/// Number of lock-table shards (power of two).
const SHARDS: usize = 64;

/// The shard `key` lives in. Deterministic FNV (not the
/// per-process-seeded DefaultHasher), so shard assignment is reproducible
/// across runs — same reasoning as the trackers' partitioning.
fn shard_index(key: &LockKey) -> usize {
    (bullfrog_common::fnv_hash_one(key) as usize) & (SHARDS - 1)
}

impl LockManager {
    /// Creates a lock manager with the given wait deadline.
    pub fn new(default_timeout: Duration) -> Self {
        LockManager {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    table: Mutex::new(ShardTable::default()),
                    released: Condvar::new(),
                })
                .collect(),
            default_timeout,
            wait_hist: OnceLock::new(),
        }
    }

    /// Attaches the `txn.lock_wait_us` histogram from `reg`: how long a
    /// request stayed parked before it was granted or timed out. A
    /// request granted without parking records nothing. Idempotent; the
    /// first registry wins.
    pub fn attach_obs(&self, reg: &bullfrog_obs::Registry) {
        let _ = self.wait_hist.set(reg.histogram("txn.lock_wait_us"));
    }

    /// The configured lock-wait deadline.
    pub fn timeout(&self) -> Duration {
        self.default_timeout
    }

    fn shard(&self, key: &LockKey) -> &Shard {
        &self.shards[shard_index(key)]
    }

    /// Records a parked request's wait; no-op for one that never parked.
    fn record_wait(&self, parked_since: Option<Instant>) {
        if let (Some(since), Some(hist)) = (parked_since, self.wait_hist.get()) {
            hist.record_micros(since.elapsed());
        }
    }

    /// Acquires `mode` on `key` for `txn`, blocking up to the default
    /// deadline. Returns `true` when this call made `txn` a **new holder**
    /// of the key (callers record it for release exactly once); upgrades of
    /// an already-held key return `false`.
    pub fn acquire(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<bool> {
        self.acquire_deadline(txn, key, mode, self.default_timeout)
    }

    /// As [`LockManager::acquire`] with an explicit deadline.
    pub fn acquire_deadline(
        &self,
        txn: TxnId,
        key: LockKey,
        mode: LockMode,
        timeout: Duration,
    ) -> Result<bool> {
        self.acquire_deadline_ally(txn, key, mode, timeout, None)
    }

    /// As [`LockManager::acquire_deadline`], but holds by `ally` are
    /// treated as compatible with the request.
    ///
    /// This exists for lazy migration transactions, which run on the
    /// thread of the client transaction that triggered them: the client
    /// may hold X locks on input rows it wrote itself (co-maintained
    /// plans with unfrozen inputs), and blocking on those locks would
    /// deadlock the thread against itself. The ally never waits — it is
    /// suspended while the migration runs — so only its holds matter.
    pub fn acquire_deadline_ally(
        &self,
        txn: TxnId,
        key: LockKey,
        mode: LockMode,
        timeout: Duration,
        ally: Option<TxnId>,
    ) -> Result<bool> {
        let shard = self.shard(&key);
        let mut table = shard.table.lock();
        // The clock is read only once the request has to park: the
        // deadline runs from then.
        let mut parked_since = None;
        loop {
            let state = table.locks.entry(key).or_default();
            if let Some(held) = state.held_mode(txn) {
                if held.covers(mode) {
                    state.dequeue(txn);
                    return Ok(false); // already strong enough
                }
            }
            if state.grantable(txn, mode, ally) {
                let newly = state.held_mode(txn).is_none();
                state.grant(txn, mode);
                state.dequeue(txn);
                // A grant can unblock queued requests behind us (e.g. two
                // queued readers); let them recheck.
                shard.wake(&table);
                self.record_wait(parked_since);
                return Ok(newly);
            }
            state.enqueue(txn, mode);
            let deadline = *parked_since.get_or_insert_with(Instant::now) + timeout;
            table.parked += 1;
            let timed_out = shard.released.wait_until(&mut table, deadline).timed_out();
            table.parked -= 1;
            if timed_out {
                if let Some(state) = table.locks.get_mut(&key) {
                    state.dequeue(txn);
                    if state.is_idle() {
                        table.locks.remove(&key);
                    }
                }
                // Our queue entry may have been what held back the
                // requests behind it.
                shard.wake(&table);
                self.record_wait(parked_since);
                return Err(Error::LockTimeout {
                    txn,
                    table: key.table(),
                });
            }
        }
    }

    /// Non-blocking acquire; `Ok(false)`/`Ok(true)` as in `acquire`, error
    /// when the lock is unavailable *now*.
    pub fn try_acquire(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<bool> {
        let mut table = self.shard(&key).table.lock();
        let state = table.locks.entry(key).or_default();
        if let Some(held) = state.held_mode(txn) {
            if held.covers(mode) {
                return Ok(false);
            }
        }
        if state.grantable(txn, mode, None) {
            let newly = state.held_mode(txn).is_none();
            state.grant(txn, mode);
            Ok(newly)
        } else {
            Err(Error::LockTimeout {
                txn,
                table: key.table(),
            })
        }
    }

    /// Releases every given key held by `txn` (commit/abort time — strict
    /// 2PL never releases early). Keys are grouped by shard, so each
    /// shard mutex is taken once and each shard woken at most once.
    pub fn release_all(&self, txn: TxnId, keys: impl IntoIterator<Item = LockKey>) {
        let mut keyed: Vec<(usize, LockKey)> =
            keys.into_iter().map(|k| (shard_index(&k), k)).collect();
        keyed.sort_unstable_by_key(|&(shard, _)| shard);
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[run[0].0];
            let mut table = shard.table.lock();
            for (_, key) in run {
                if let Some(state) = table.locks.get_mut(key) {
                    state.holders.retain(|(t, _)| *t != txn);
                    state.dequeue(txn);
                    if state.is_idle() {
                        table.locks.remove(key);
                    }
                }
            }
            shard.wake(&table);
        }
    }

    /// The mode `txn` currently holds on `key`, if any (diagnostics).
    pub fn held(&self, txn: TxnId, key: LockKey) -> Option<LockMode> {
        self.shard(&key)
            .table
            .lock()
            .locks
            .get(&key)?
            .held_mode(txn)
    }

    /// Number of requests queued on `key` right now (diagnostics/tests).
    pub fn queued(&self, key: LockKey) -> usize {
        self.shard(&key)
            .table
            .lock()
            .locks
            .get(&key)
            .map_or(0, |s| s.waiters.len())
    }

    /// Total number of keys with at least one holder (diagnostics/tests).
    pub fn locked_key_count(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().locks.len()).sum()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("locked_keys", &self.locked_key_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const TABLE: TableId = TableId(1);

    fn row(n: u16) -> LockKey {
        LockKey::Row(TABLE, RowId::new(0, n))
    }

    fn lm() -> LockManager {
        LockManager::new(Duration::from_millis(20))
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        let compat = [
            (IS, IS, true),
            (IS, IX, true),
            (IS, S, true),
            (IS, SIX, true),
            (IS, X, false),
            (IX, IX, true),
            (IX, S, false),
            (IX, SIX, false),
            (IX, X, false),
            (S, S, true),
            (S, SIX, false),
            (S, X, false),
            (SIX, SIX, false),
            (SIX, X, false),
            (X, X, false),
        ];
        for (a, b, expect) in compat {
            assert_eq!(a.compatible(b), expect, "{a:?} vs {b:?}");
            assert_eq!(b.compatible(a), expect, "{b:?} vs {a:?} (symmetry)");
        }
    }

    #[test]
    fn combine_lattice() {
        use LockMode::*;
        assert_eq!(S.combine(IX), SIX);
        assert_eq!(IX.combine(S), SIX);
        assert_eq!(IS.combine(IX), IX);
        assert_eq!(S.combine(X), X);
        assert_eq!(SIX.combine(IS), SIX);
        assert!(X.covers(S));
        assert!(SIX.covers(IX));
        assert!(!S.covers(IX));
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = lm();
        assert!(lm.acquire(T1, row(1), LockMode::S).unwrap());
        assert!(lm.acquire(T2, row(1), LockMode::S).unwrap());
        assert_eq!(lm.held(T1, row(1)), Some(LockMode::S));
        assert_eq!(lm.held(T2, row(1)), Some(LockMode::S));
    }

    #[test]
    fn exclusive_blocks_until_timeout() {
        let lm = lm();
        lm.acquire(T1, row(1), LockMode::X).unwrap();
        let err = lm.acquire(T2, row(1), LockMode::S).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { txn: T2, .. }));
    }

    #[test]
    fn reacquire_is_idempotent() {
        let lm = lm();
        assert!(lm.acquire(T1, row(1), LockMode::X).unwrap());
        assert!(!lm.acquire(T1, row(1), LockMode::X).unwrap());
        assert!(!lm.acquire(T1, row(1), LockMode::S).unwrap(), "X covers S");
    }

    #[test]
    fn upgrade_s_to_x_when_sole_holder() {
        let lm = lm();
        assert!(lm.acquire(T1, row(1), LockMode::S).unwrap());
        // Upgrade succeeds but the txn is not a *new* holder.
        assert!(!lm.acquire(T1, row(1), LockMode::X).unwrap());
        assert_eq!(lm.held(T1, row(1)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = lm();
        lm.acquire(T1, row(1), LockMode::S).unwrap();
        lm.acquire(T2, row(1), LockMode::S).unwrap();
        assert!(lm.acquire(T1, row(1), LockMode::X).is_err());
    }

    #[test]
    fn release_wakes_waiter() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(T1, row(1), LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || lm2.acquire(T2, row(1), LockMode::X));
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(T1, [row(1)]);
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(lm.held(T2, row(1)), Some(LockMode::X));
    }

    #[test]
    fn intention_locks_on_table() {
        let lm = lm();
        let tbl = LockKey::Table(TABLE);
        lm.acquire(T1, tbl, LockMode::IX).unwrap();
        lm.acquire(T2, tbl, LockMode::IS).unwrap();
        // A third txn cannot take X while intents are held.
        assert!(lm.acquire(TxnId(3), tbl, LockMode::X).is_err());
        lm.release_all(T1, [tbl]);
        lm.release_all(T2, [tbl]);
        lm.acquire(TxnId(3), tbl, LockMode::X).unwrap();
    }

    #[test]
    fn try_acquire_does_not_block() {
        let lm = lm();
        lm.acquire(T1, row(1), LockMode::X).unwrap();
        let t0 = Instant::now();
        assert!(lm.try_acquire(T2, row(1), LockMode::S).is_err());
        assert!(t0.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn release_all_cleans_table() {
        let lm = lm();
        for i in 0..10 {
            lm.acquire(T1, row(i), LockMode::X).unwrap();
        }
        assert_eq!(lm.locked_key_count(), 10);
        lm.release_all(T1, (0..10).map(row));
        assert_eq!(lm.locked_key_count(), 0);
    }

    #[test]
    fn writer_is_not_starved_by_reader_stream() {
        // A continuous stream of IS lockers must not starve a queued X
        // request (the eager-migration pattern).
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        let key = LockKey::Table(TABLE);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for r in 0..3u64 {
            let lm = Arc::clone(&lm);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let txn = TxnId(1000 + r * 1_000_000 + i);
                    if lm.acquire(txn, key, LockMode::IS).is_ok() {
                        std::thread::sleep(Duration::from_micros(200));
                        lm.release_all(txn, [key]);
                    }
                    i += 1;
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        lm.acquire(TxnId(1), key, LockMode::X).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "X request starved for {:?}",
            t0.elapsed()
        );
        lm.release_all(TxnId(1), [key]);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn timed_out_waiter_leaves_no_queue_debris() {
        let lm = lm();
        lm.acquire(T1, row(1), LockMode::X).unwrap();
        assert!(lm.acquire(T2, row(1), LockMode::S).is_err());
        // T2 timed out; its queue entry must not block a fresh reader
        // after T1 releases.
        lm.release_all(T1, [row(1)]);
        lm.acquire(TxnId(3), row(1), LockMode::S).unwrap();
        assert_eq!(lm.locked_key_count(), 1);
    }

    /// Blocks until `n` requests are queued on `key`.
    fn await_queued(lm: &LockManager, key: LockKey, n: usize) {
        let t0 = Instant::now();
        while lm.queued(key) < n {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{n} waiters never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_release_wakes_waiters_in_every_shard() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let mut keys: Vec<Option<LockKey>> = vec![None; SHARDS];
        let mut n = 0;
        while keys.iter().any(Option::is_none) {
            let key = row(n);
            keys[shard_index(&key)].get_or_insert(key);
            n += 1;
        }
        let keys: Vec<LockKey> = keys.into_iter().flatten().collect();
        for &key in &keys {
            lm.acquire(T1, key, LockMode::X).unwrap();
        }
        let waiters: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || lm.acquire(TxnId(100 + i as u64), key, LockMode::X))
            })
            .collect();
        for &key in &keys {
            await_queued(&lm, key, 1);
        }
        let t0 = Instant::now();
        lm.release_all(T1, keys.iter().copied());
        for w in waiters {
            assert!(w.join().unwrap().unwrap(), "waiter granted as a new holder");
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "waiters granted only after {:?}",
            t0.elapsed()
        );
        assert_eq!(lm.locked_key_count(), SHARDS);
    }

    #[test]
    fn waiter_timeout_wakes_the_request_queued_behind_it() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let key = row(1);
        lm.acquire(T1, key, LockMode::S).unwrap();
        let lm2 = Arc::clone(&lm);
        let writer = std::thread::spawn(move || {
            let r = lm2.acquire_deadline(T2, key, LockMode::X, Duration::from_millis(20));
            (r, Instant::now())
        });
        await_queued(&lm, key, 1);
        // S is compatible with T1's S but queues behind T2's X.
        let lm3 = Arc::clone(&lm);
        let reader = std::thread::spawn(move || {
            let r = lm3.acquire_deadline(TxnId(3), key, LockMode::S, Duration::from_secs(5));
            (r, Instant::now())
        });
        let (w, timed_out_at) = writer.join().unwrap();
        assert!(matches!(w, Err(Error::LockTimeout { txn: T2, .. })));
        let (r, granted_at) = reader.join().unwrap();
        assert!(r.unwrap());
        assert!(
            granted_at.saturating_duration_since(timed_out_at) < Duration::from_secs(1),
            "reader waited {:?} past the writer's timeout",
            granted_at.saturating_duration_since(timed_out_at)
        );
        assert_eq!(lm.held(T1, key), Some(LockMode::S));
    }

    #[test]
    fn release_grants_every_compatible_waiter() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let reg = bullfrog_obs::Registry::new();
        lm.attach_obs(&reg);
        let key = row(1);
        lm.acquire(T1, key, LockMode::X).unwrap();
        let readers: Vec<_> = [T2, TxnId(3)]
            .into_iter()
            .map(|txn| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || lm.acquire(txn, key, LockMode::S))
            })
            .collect();
        await_queued(&lm, key, 2);
        lm.release_all(T1, [key]);
        for r in readers {
            assert!(r.join().unwrap().unwrap());
        }
        assert_eq!(lm.held(T2, key), Some(LockMode::S));
        assert_eq!(lm.held(TxnId(3), key), Some(LockMode::S));
        let waits = reg.snapshot();
        let waits = waits.histogram("txn.lock_wait_us").unwrap();
        assert_eq!(waits.count(), 2, "the two parked readers, not the X grant");
    }

    #[test]
    fn concurrent_counter_under_x_locks() {
        // 8 threads × 100 increments through an X lock: no lost updates.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        let counter = Arc::new(Mutex::new(0u64));
        let key = row(1);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let txn = TxnId(t * 1000 + i + 1);
                    lm.acquire(txn, key, LockMode::X).unwrap();
                    {
                        let mut c = counter.lock();
                        let v = *c;
                        std::thread::yield_now();
                        *c = v + 1;
                    }
                    lm.release_all(txn, [key]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 800);
    }
}
