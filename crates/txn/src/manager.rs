//! Transaction objects and id assignment.

use std::sync::atomic::{AtomicU64, Ordering};

use bullfrog_common::{Error, Result, TableId, TxnId};

use crate::lock::{LockKey, LockMode};
use crate::ts::SnapshotHandle;
use crate::undo::UndoRecord;
use crate::wal::LogRecord;

/// Transaction lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running; may read and write.
    Active,
    /// Successfully committed.
    Committed,
    /// Rolled back.
    Aborted,
}

/// A transaction's bookkeeping: identity, 2PL lock set, undo log, and redo
/// records destined for the WAL.
///
/// A transaction is driven by exactly one worker thread, so the struct is
/// plain mutable state; the engine (which owns catalog + lock manager +
/// WAL) performs the actual commit/abort protocol.
#[derive(Debug)]
pub struct Transaction {
    id: TxnId,
    state: TxnState,
    /// A transaction whose locks this one may pass through (lazy
    /// migration transactions set this to the client transaction that
    /// triggered them — see `LockManager::acquire_deadline_ally`).
    ally: Option<TxnId>,
    /// Every lock key acquired (released wholesale at commit/abort; strict
    /// 2PL never releases early).
    pub locks: Vec<LockKey>,
    /// The mode held on each table locked so far, folded with
    /// [`LockMode::combine`]. Lets the engine answer a repeated table
    /// intent (one per row read) without the lock manager.
    table_modes: Vec<(TableId, LockMode)>,
    /// Undo records in acquisition order (applied in reverse on abort).
    pub undo: Vec<UndoRecord>,
    /// Redo records appended to the WAL at commit.
    pub redo: Vec<LogRecord>,
    /// Registered read snapshot (Snapshot engine mode; `None` under 2PL).
    /// Dropping it — explicitly at commit/abort or with the transaction —
    /// releases the GC-horizon pin.
    snapshot: Option<SnapshotHandle>,
    /// True once any read or write ran at the registered snapshot. A
    /// still-unused snapshot may be replaced with a fresh one (lazy
    /// migration advances the client past granule commits it just
    /// triggered); a used one must stay put for repeatable reads.
    snapshot_used: bool,
}

impl Transaction {
    fn new(id: TxnId) -> Self {
        Transaction {
            id,
            state: TxnState::Active,
            ally: None,
            locks: Vec::new(),
            table_modes: Vec::new(),
            undo: Vec::new(),
            redo: Vec::new(),
            snapshot: None,
            snapshot_used: false,
        }
    }

    /// Transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> TxnState {
        self.state
    }

    /// Declares `parent` an ally: its locks never conflict with this
    /// transaction's requests. Set by lazy migration transactions for the
    /// client transaction whose request triggered them (which is
    /// suspended on this thread until the migration finishes).
    pub fn set_ally(&mut self, parent: TxnId) {
        self.ally = Some(parent);
    }

    /// The declared ally, if any.
    pub fn ally(&self) -> Option<TxnId> {
        self.ally
    }

    /// Attaches the snapshot this transaction reads at (Snapshot engine
    /// mode; the engine sets it at begin, and may replace a still-unused
    /// one). The previous handle, if any, drops and unregisters.
    pub fn set_snapshot(&mut self, snap: SnapshotHandle) {
        self.snapshot = Some(snap);
        self.snapshot_used = false;
    }

    /// Flags the snapshot as used (first read or write at it).
    pub fn mark_snapshot_used(&mut self) {
        self.snapshot_used = true;
    }

    /// Whether any read or write ran at the registered snapshot yet.
    pub fn snapshot_used(&self) -> bool {
        self.snapshot_used
    }

    /// The registered snapshot, if any.
    pub fn snapshot(&self) -> Option<&SnapshotHandle> {
        self.snapshot.as_ref()
    }

    /// Snapshot timestamp reads run at (`None` under 2PL).
    pub fn snapshot_ts(&self) -> Option<u64> {
        self.snapshot.as_ref().map(SnapshotHandle::ts)
    }

    /// Releases the snapshot registration (commit/abort path; dropping
    /// the handle unpins the GC horizon).
    pub fn release_snapshot(&mut self) {
        self.snapshot = None;
    }

    /// Errors unless the transaction is still active.
    pub fn assert_active(&self) -> Result<()> {
        match self.state {
            TxnState::Active => Ok(()),
            TxnState::Aborted => Err(Error::TxnAborted(self.id)),
            TxnState::Committed => Err(Error::TxnNotActive(self.id)),
        }
    }

    /// Records a newly acquired lock for release at end-of-transaction.
    pub fn record_lock(&mut self, key: LockKey) {
        self.locks.push(key);
    }

    /// The mode this transaction holds on `key` when it is a table it
    /// locked before; `None` for rows and for tables not yet locked.
    pub fn table_mode(&self, key: LockKey) -> Option<LockMode> {
        let LockKey::Table(table) = key else {
            return None;
        };
        self.table_modes
            .iter()
            .find(|(t, _)| *t == table)
            .map(|(_, m)| *m)
    }

    /// Folds a granted `mode` into the one remembered for `key` (no-op
    /// for row keys).
    pub fn note_table_mode(&mut self, key: LockKey, mode: LockMode) {
        let LockKey::Table(table) = key else {
            return;
        };
        match self.table_modes.iter_mut().find(|(t, _)| *t == table) {
            Some(slot) => slot.1 = slot.1.combine(mode),
            None => self.table_modes.push((table, mode)),
        }
    }

    /// Hands over every recorded lock key for release and forgets the
    /// table modes (commit/abort).
    pub fn take_locks(&mut self) -> Vec<LockKey> {
        self.table_modes.clear();
        std::mem::take(&mut self.locks)
    }

    /// Appends an undo record.
    pub fn push_undo(&mut self, rec: UndoRecord) {
        self.undo.push(rec);
    }

    /// Appends a redo record.
    pub fn push_redo(&mut self, rec: LogRecord) {
        self.redo.push(rec);
    }

    /// Marks the transaction committed (engine calls this after the WAL
    /// append succeeds). Idempotent transitions are rejected.
    pub fn mark_committed(&mut self) -> Result<()> {
        self.assert_active()?;
        self.state = TxnState::Committed;
        Ok(())
    }

    /// Marks the transaction aborted.
    pub fn mark_aborted(&mut self) -> Result<()> {
        self.assert_active()?;
        self.state = TxnState::Aborted;
        Ok(())
    }
}

/// Hands out transaction ids.
#[derive(Debug)]
pub struct TxnManager {
    next: AtomicU64,
}

impl TxnManager {
    /// A manager starting at txn id 1.
    pub fn new() -> Self {
        TxnManager {
            next: AtomicU64::new(1),
        }
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(TxnId(self.next.fetch_add(1, Ordering::Relaxed)))
    }

    /// Number of transactions started so far.
    pub fn started(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - 1
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::TableId;

    #[test]
    fn ids_are_monotonic_and_unique() {
        let mgr = TxnManager::new();
        let a = mgr.begin();
        let b = mgr.begin();
        assert!(a.id() < b.id());
        assert_eq!(mgr.started(), 2);
    }

    #[test]
    fn state_transitions() {
        let mgr = TxnManager::new();
        let mut t = mgr.begin();
        assert_eq!(t.state(), TxnState::Active);
        t.assert_active().unwrap();
        t.mark_committed().unwrap();
        assert_eq!(t.state(), TxnState::Committed);
        assert!(matches!(t.assert_active(), Err(Error::TxnNotActive(_))));
        assert!(t.mark_aborted().is_err(), "cannot abort a committed txn");

        let mut t = mgr.begin();
        t.mark_aborted().unwrap();
        assert!(matches!(t.assert_active(), Err(Error::TxnAborted(_))));
        assert!(t.mark_committed().is_err(), "cannot commit an aborted txn");
    }

    #[test]
    fn bookkeeping_accumulates() {
        let mgr = TxnManager::new();
        let mut t = mgr.begin();
        t.record_lock(LockKey::Table(TableId(1)));
        t.push_undo(UndoRecord::Insert {
            table: TableId(1),
            rid: bullfrog_common::RowId::new(0, 0),
        });
        t.push_redo(LogRecord::Epoch { epoch: 1 });
        assert_eq!(t.locks.len(), 1);
        assert_eq!(t.undo.len(), 1);
        assert_eq!(t.redo.len(), 1);
    }

    #[test]
    fn concurrent_begin_unique_ids() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let mgr = Arc::new(TxnManager::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|_| mgr.begin().id()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id));
            }
        }
        assert_eq!(seen.len(), 1600);
    }
}
