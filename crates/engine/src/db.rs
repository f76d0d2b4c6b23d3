//! The `Database` facade: DDL, transactional DML, and commit/abort.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{Error, Result, Row, RowId, TableSchema, Value};
use bullfrog_query::{pred, Expr, Scope};
use bullfrog_storage::{BTreeIndex, Catalog, Table};
use bullfrog_txn::{
    AckOutcome, CommitTicket, LockKey, LockManager, LockMode, LogRecord, Transaction, TxnManager,
    UndoRecord, Wal,
};

/// Concurrency-control mode of the engine.
///
/// `TwoPL` is the original strict two-phase-locking engine: readers take
/// S row locks and block behind writers. `Snapshot` keeps X locks for
/// writers (write-write conflicts still serialize through the lock
/// manager) but gives readers snapshot isolation: each transaction reads
/// at the commit timestamp that was stable when it began, traversing
/// per-row version chains instead of locking. Writes to a row committed
/// after the snapshot fail with [`Error::WriteConflict`]
/// (first-updater-wins); the caller retries with a fresh snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Strict 2PL, read-committed (the original engine).
    #[default]
    TwoPL,
    /// Multi-version snapshot isolation: lock-free snapshot reads,
    /// X-locked first-updater-wins writes.
    Snapshot,
}

impl EngineMode {
    /// Both modes, in declaration order: tests that must hold under either
    /// engine run their body once per entry.
    pub const ALL: [EngineMode; 2] = [EngineMode::TwoPL, EngineMode::Snapshot];

    /// Parses a mode name: `2pl` selects [`EngineMode::TwoPL`]; `si`,
    /// `snapshot` or `mvcc` select [`EngineMode::Snapshot`] (any case).
    /// Any other name is an error that names it.
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "2pl" => Ok(EngineMode::TwoPL),
            "si" | "snapshot" | "mvcc" => Ok(EngineMode::Snapshot),
            _ => Err(Error::Config(format!(
                "unknown engine mode {name:?} (expected 2pl, si, snapshot or mvcc)"
            ))),
        }
    }

    /// The deployment setting `BULLFROG_ENGINE_MODE`, parsed by
    /// [`EngineMode::parse`]; unset selects [`EngineMode::TwoPL`]. The
    /// `repld` and `clusterd` daemons and the benches read it; a library
    /// caller sets [`DbConfig::mode`] instead.
    pub fn from_env() -> Result<Self> {
        match std::env::var("BULLFROG_ENGINE_MODE") {
            Ok(v) => Self::parse(&v),
            Err(std::env::VarError::NotPresent) => Ok(EngineMode::TwoPL),
            Err(e) => Err(Error::Config(format!("BULLFROG_ENGINE_MODE: {e}"))),
        }
    }

    /// True in [`EngineMode::Snapshot`].
    pub fn is_snapshot(self) -> bool {
        matches!(self, EngineMode::Snapshot)
    }

    /// Stable short name (`"2pl"` / `"si"`), used by STATUS reporting.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineMode::TwoPL => "2pl",
            EngineMode::Snapshot => "si",
        }
    }
}

/// Tuning knobs for a [`Database`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// How long a lock request may wait before the transaction is told to
    /// abort (deadlock avoidance).
    pub lock_timeout: Duration,
    /// Slots per heap page for newly created tables.
    pub slots_per_page: u16,
    /// Whether deletes check that no row still references the deleted key
    /// (full referential integrity; TPC-C never deletes parents, so
    /// workloads may disable this).
    pub enforce_fk_on_delete: bool,
    /// Background checkpoint policy. `None` leaves checkpointing manual;
    /// `Some` lets [`CheckpointScheduler::from_config`]
    /// (crate::scheduler::CheckpointScheduler::from_config) spawn a
    /// policy thread that cuts the WAL on these thresholds.
    pub checkpoint_policy: Option<crate::scheduler::CheckpointPolicy>,
    /// Concurrency-control mode. Defaults to [`EngineMode::TwoPL`].
    pub mode: EngineMode,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            lock_timeout: Duration::from_millis(200),
            slots_per_page: bullfrog_storage::DEFAULT_SLOTS_PER_PAGE,
            enforce_fk_on_delete: true,
            checkpoint_policy: None,
            mode: EngineMode::TwoPL,
        }
    }
}

/// Row-lock policy for read paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockPolicy {
    /// No locks: the caller guarantees the table is frozen (e.g. the old
    /// schema after a big-flip migration) or tolerates read-uncommitted.
    #[default]
    None,
    /// S row locks, re-validated after acquisition (read committed).
    Shared,
    /// X row locks (`SELECT ... FOR UPDATE`).
    Exclusive,
}

impl LockPolicy {
    /// The (table intent, row) lock modes the policy takes.
    fn modes(self) -> Option<(LockMode, LockMode)> {
        match self {
            LockPolicy::None => None,
            LockPolicy::Shared => Some((LockMode::IS, LockMode::S)),
            LockPolicy::Exclusive => Some((LockMode::IX, LockMode::X)),
        }
    }
}

/// Which rows a read sees, and under which locks. [`View::of`] decides it
/// once per read call; every row read in the engine goes through one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    /// The latest heap state, each row read after the policy's lock on it.
    Latest(LockPolicy),
    /// The versions visible to transaction `id` at commit timestamp
    /// `snap`, read without locks.
    AsOf { id: u64, snap: u64 },
}

impl View {
    /// A `Shared` read by a snapshot transaction reads as of its snapshot
    /// (and marks the snapshot used); every other read, and every read
    /// under 2PL, sees the latest state under `policy`'s locks. The
    /// snapshot read's id is the transaction's ally when it has one: a
    /// migration running on a suspended client's behalf sees that
    /// client's uncommitted writes, as the ally lock pass-through lets it
    /// under 2PL.
    fn of(txn: &mut Transaction, policy: LockPolicy) -> View {
        if policy == LockPolicy::Shared {
            if let Some(snap) = txn.snapshot_ts() {
                txn.mark_snapshot_used();
                let id = txn.ally().unwrap_or(txn.id()).0;
                return View::AsOf { id, snap };
            }
        }
        View::Latest(policy)
    }

    /// The row locks the read takes.
    fn locks(self) -> LockPolicy {
        match self {
            View::Latest(policy) => policy,
            View::AsOf { .. } => LockPolicy::None,
        }
    }

    fn get(self, t: &Table, rid: RowId) -> Option<Row> {
        match self {
            View::Latest(_) => t.heap().get(rid),
            View::AsOf { id, snap } => t.heap().get_visible(rid, Some(id), snap),
        }
    }

    fn scan(self, t: &Table, f: impl FnMut(RowId, &Row) -> bool) {
        match self {
            View::Latest(_) => t.heap().scan(f),
            View::AsOf { id, snap } => t.heap().scan_visible(Some(id), snap, f),
        }
    }

    /// Indexes track the latest state, so a probe is exact at a snapshot
    /// only while the table has no committed version newer than it and no
    /// write in flight (see `TableHeap::current_matches_snapshot`).
    fn index_exact(self, t: &Table) -> bool {
        match self {
            View::Latest(_) => true,
            View::AsOf { snap, .. } => t.heap().current_matches_snapshot(snap),
        }
    }
}

/// The database: catalog + lock manager + transaction manager + WAL.
///
/// `Database` is `Send + Sync`; share it behind an `Arc` and drive each
/// [`Transaction`] from a single worker thread.
pub struct Database {
    catalog: Catalog,
    lm: LockManager,
    tm: TxnManager,
    wal: Wal,
    ckpt: crate::checkpoint::Checkpointer,
    config: DbConfig,
    /// Snapshot-mode commits since the last amortized version GC.
    si_commits: AtomicU64,
    /// Version-chain nodes reclaimed by GC over the database's lifetime.
    gc_reclaimed: AtomicU64,
    /// This instance's metrics registry. Per-database (tests run several
    /// servers in one process), shared with the
    /// WAL at construction and with every layer above via [`Database::obs`].
    obs: Arc<bullfrog_obs::Registry>,
    /// End-to-end commit latency (append + group-commit wait + version
    /// install), microseconds. Cached handle off `obs`.
    commit_hist: Arc<bullfrog_obs::Histogram>,
    /// Lock keys a 2PL transaction held at commit. Cached handle off `obs`.
    locks_hist: Arc<bullfrog_obs::Histogram>,
}

impl Database {
    /// Creates an empty database with default configuration.
    pub fn new() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// Creates an empty database with the given configuration.
    pub fn with_config(config: DbConfig) -> Self {
        let obs = Arc::new(bullfrog_obs::Registry::new());
        let wal = Wal::new();
        wal.attach_obs(&obs);
        let lm = LockManager::new(config.lock_timeout);
        lm.attach_obs(&obs);
        Database {
            catalog: Catalog::new(),
            lm,
            tm: TxnManager::new(),
            wal,
            ckpt: crate::checkpoint::Checkpointer::new(None),
            config,
            si_commits: AtomicU64::new(0),
            gc_reclaimed: AtomicU64::new(0),
            commit_hist: obs.histogram("engine.commit_us"),
            locks_hist: obs.histogram("txn.locks_per_commit"),
            obs,
        }
    }

    /// Creates an empty database whose WAL is durably mirrored to `path`
    /// (see [`Wal::with_file`]), with checkpoints persisted to the
    /// sidecar path derived by
    /// [`checkpoint_path_for`](crate::checkpoint::checkpoint_path_for).
    /// Recovery flow: re-create the schema, replay the old files via
    /// [`crate::recovery::recover_from_files`], then open a fresh database
    /// on a new file.
    pub fn with_wal_file(
        config: DbConfig,
        path: impl AsRef<std::path::Path>,
    ) -> bullfrog_common::Result<Self> {
        Self::with_wal_file_opts(config, path, bullfrog_txn::WalOptions::default())
    }

    /// As [`Database::with_wal_file`], with explicit WAL tuning — most
    /// usefully a non-zero [`WalOptions::group_window`](bullfrog_txn::WalOptions)
    /// so concurrent commits coalesce into fewer fsyncs.
    pub fn with_wal_file_opts(
        config: DbConfig,
        path: impl AsRef<std::path::Path>,
        opts: bullfrog_txn::WalOptions,
    ) -> bullfrog_common::Result<Self> {
        let path = path.as_ref();
        let obs = Arc::new(bullfrog_obs::Registry::new());
        let wal = Wal::with_file_opts(path, opts)?;
        wal.attach_obs(&obs);
        let lm = LockManager::new(config.lock_timeout);
        lm.attach_obs(&obs);
        Ok(Database {
            catalog: Catalog::new(),
            lm,
            tm: TxnManager::new(),
            wal,
            ckpt: crate::checkpoint::Checkpointer::new(Some(
                crate::checkpoint::checkpoint_path_for(path),
            )),
            config,
            si_commits: AtomicU64::new(0),
            gc_reclaimed: AtomicU64::new(0),
            commit_hist: obs.histogram("engine.commit_us"),
            locks_hist: obs.histogram("txn.locks_per_commit"),
            obs,
        })
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The WAL.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The lock manager.
    pub fn lock_manager(&self) -> &LockManager {
        &self.lm
    }

    /// The configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// This database's metrics registry. Every layer above (sessions,
    /// migration controller, replication, cluster membership) registers
    /// its counters and histograms here, so one `METRICS` snapshot
    /// covers the whole instance.
    pub fn obs(&self) -> &Arc<bullfrog_obs::Registry> {
        &self.obs
    }

    // --- DDL --------------------------------------------------------------

    /// Creates a table, validating that FK targets exist and are unique.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<Table>> {
        self.create_table_with_slots(schema, self.config.slots_per_page)
    }

    /// Creates a table with an explicit page slot count.
    pub fn create_table_with_slots(
        &self,
        schema: TableSchema,
        slots_per_page: u16,
    ) -> Result<Arc<Table>> {
        for fk in &schema.foreign_keys {
            let target = self.catalog.get(&fk.ref_table)?;
            crate::fk::referenced_index(&target, &fk.ref_columns).ok_or_else(|| {
                Error::SchemaMismatch(format!(
                    "foreign key {} references non-unique columns {:?} of {}",
                    fk.name, fk.ref_columns, fk.ref_table
                ))
            })?;
        }
        self.catalog.create_table_with_slots(schema, slots_per_page)
    }

    /// Adds a secondary index.
    pub fn create_index(
        &self,
        table: &str,
        name: &str,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        self.catalog.get(table)?.create_index(name, columns, unique)
    }

    /// Drops a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.catalog.drop_table(name).map(|_| ())
    }

    /// Renames a table.
    pub fn rename_table(&self, from: &str, to: &str) -> Result<()> {
        self.catalog.rename_table(from, to)
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog.get(name)
    }

    // --- transaction lifecycle --------------------------------------------

    /// Begins a transaction. Under [`EngineMode::Snapshot`] the
    /// transaction registers a read snapshot at the oracle's stable
    /// timestamp; the registration pins the version-GC horizon until
    /// commit or abort releases it.
    pub fn begin(&self) -> Transaction {
        let mut txn = self.tm.begin();
        if self.config.mode.is_snapshot() {
            txn.set_snapshot(self.wal.oracle().begin_snapshot());
        }
        txn
    }

    /// Replaces the transaction's snapshot with a fresh one at the current
    /// stable timestamp — but only while the old one is still *unused* (no
    /// read or write ran at it) so repeatable reads are never broken. Lazy
    /// migration calls this after committing granule work on a client's
    /// behalf: the client transaction began (and took its snapshot) before
    /// that work existed, and its first read must see the rows it just
    /// forced into the new schema. No-op under 2PL.
    pub fn refresh_snapshot(&self, txn: &mut Transaction) {
        if txn.snapshot().is_some() && !txn.snapshot_used() && txn.undo.is_empty() {
            txn.set_snapshot(self.wal.oracle().begin_snapshot());
        }
    }

    /// Commits: appends the redo batch + `Commit` atomically to the WAL,
    /// waits on the group-commit barrier until the batch is on disk
    /// (no-op for in-memory databases), marks the transaction committed,
    /// and releases its locks.
    ///
    /// Read-only transactions (empty redo) skip the WAL entirely: there
    /// is nothing to replay, so appending a lone `Commit` and parking on
    /// the commit barrier would buy no durability — just an fsync and a
    /// stall behind unrelated writers.
    ///
    /// When synchronous replication is armed (`SET SYNC_REPLICAS`), the
    /// acknowledgement additionally waits on the WAL's [`SyncGate`]
    /// (local durability first, replica quorum second). A fenced node
    /// completes the local commit — the batch is already in the log and
    /// locks must not leak — but returns [`Error::Fenced`] so the client
    /// is never acked and re-routes to the current primary.
    pub fn commit(&self, txn: &mut Transaction) -> Result<()> {
        txn.assert_active()?;
        let started = std::time::Instant::now();
        if txn.snapshot().is_some() {
            let r = self.commit_snapshot(txn);
            self.commit_hist.record_micros(started.elapsed());
            return r;
        }
        let mut outcome = AckOutcome::Synced;
        if !txn.redo.is_empty() {
            let mut batch = std::mem::take(&mut txn.redo);
            batch.push(LogRecord::Commit(txn.id()));
            outcome = self.wal.append(batch, None).wait_acked();
        }
        txn.mark_committed()?;
        self.locks_hist.record(txn.locks.len() as u64);
        self.release_locks(txn);
        self.commit_hist.record_micros(started.elapsed());
        if outcome == AckOutcome::Fenced {
            return Err(Error::Fenced {
                leader: self.wal.sync_gate().leader_hint(),
            });
        }
        Ok(())
    }

    /// Snapshot-mode commit: the redo batch is appended together with a
    /// `CommitTs` record whose timestamp is drawn under the WAL core
    /// mutex (so timestamp order equals LSN order), the batch is made
    /// durable, and only then are this transaction's in-place writes
    /// published by installing chain versions at that timestamp. The
    /// oracle's stable horizon advances past the timestamp only after
    /// installation finishes, so no reader can snapshot at a timestamp
    /// whose versions are still being installed.
    fn commit_snapshot(&self, txn: &mut Transaction) -> Result<()> {
        if txn.redo.is_empty() {
            txn.release_snapshot();
            txn.mark_committed()?;
            self.release_locks(txn);
            return Ok(());
        }
        let batch = std::mem::take(&mut txn.redo);
        let ticket = self.wal.append(batch, Some(txn.id()));
        let outcome = ticket.wait_acked();
        let ts = ticket
            .commit_ts()
            .expect("a stamped append draws a timestamp");
        self.install_versions(txn, ts);
        self.wal.oracle().finish(ts);
        txn.release_snapshot();
        txn.mark_committed()?;
        self.release_locks(txn);
        // A commit is acknowledged only once it is visible to new
        // snapshots: with concurrent committers, our `finish` may not
        // advance the stable horizon past `ts` while an older timestamp
        // is still installing, and returning early would let the caller
        // publish state (migration granule marks, replies to clients)
        // that a fresh snapshot then contradicts.
        self.wal.oracle().wait_stable(ts, Duration::from_secs(5));
        self.maybe_gc();
        // The fence outcome is checked after the oracle bookkeeping —
        // the timestamp must be finished either way or the stable
        // horizon stalls for every other session.
        if outcome == AckOutcome::Fenced {
            return Err(Error::Fenced {
                leader: self.wal.sync_gate().leader_hint(),
            });
        }
        Ok(())
    }

    /// Installs this transaction's pending writes as committed chain
    /// versions at timestamp `ts`. The undo log is the write set: every
    /// written rid appears there exactly once per touch, and
    /// `install_version` is a no-op once the pending-writer mark is
    /// cleared, so double-touched rids install a single version.
    fn install_versions(&self, txn: &Transaction, ts: u64) {
        for rec in &txn.undo {
            let (table, rid) = match rec {
                UndoRecord::Insert { table, rid } => (*table, *rid),
                UndoRecord::Update { table, rid, .. } => (*table, *rid),
                UndoRecord::Delete { table, rid, .. } => (*table, *rid),
            };
            if let Ok(t) = self.catalog.get_by_id(table) {
                t.heap().install_version(rid, txn.id().0, ts);
            }
        }
    }

    /// Asynchronous commit: appends the redo batch + `Commit` atomically
    /// and returns a [`CommitTicket`] **at enqueue time**, without waiting
    /// for the flush. The caller keeps running (and may start its next
    /// transaction) while the WAL shard makes the batch durable; call
    /// [`CommitTicket::wait`] before acknowledging the commit to anyone
    /// who needs durability. Locks are released immediately — sound
    /// because every durability acknowledgement (synchronous commits and
    /// ticket waits alike) parks on the WAL's **merged** durable horizon,
    /// which covers all shards: a later transaction that read this data
    /// appends at a higher LSN, so its ack transitively covers this
    /// batch even when the two transactions hash to different shards.
    /// If no dependent commit is ever acknowledged, recovery replays
    /// only the gap-free on-disk prefix, so a crash can lose this
    /// unacknowledged batch together with everything that depended on
    /// it — never a dependent commit alone.
    ///
    /// Read-only transactions get a trivially-durable ticket.
    pub fn commit_nowait(&self, txn: &mut Transaction) -> Result<CommitTicket> {
        txn.assert_active()?;
        let started = std::time::Instant::now();
        let mut visible_ts = None;
        let ticket = if txn.redo.is_empty() {
            txn.release_snapshot();
            self.wal.durable_ticket()
        } else if txn.snapshot().is_some() {
            // Snapshot-mode async commit: versions are installed at
            // enqueue time, before durability — the same contract as the
            // 2PL NOWAIT path, which releases X locks at enqueue. A crash
            // may lose the batch, but never an acknowledged dependent.
            let batch = std::mem::take(&mut txn.redo);
            let ticket = self.wal.append(batch, Some(txn.id()));
            let ts = ticket
                .commit_ts()
                .expect("a stamped append draws a timestamp");
            self.install_versions(txn, ts);
            self.wal.oracle().finish(ts);
            txn.release_snapshot();
            self.maybe_gc();
            visible_ts = Some(ts);
            ticket
        } else {
            let mut batch = std::mem::take(&mut txn.redo);
            batch.push(LogRecord::Commit(txn.id()));
            self.wal.append(batch, None)
        };
        txn.mark_committed()?;
        self.release_locks(txn);
        // NOWAIT defers durability, not visibility: same stable-horizon
        // wait as the synchronous snapshot commit, so callers never
        // publish state a fresh snapshot contradicts.
        if let Some(ts) = visible_ts {
            self.wal.oracle().wait_stable(ts, Duration::from_secs(5));
        }
        // NOWAIT commit latency is the enqueue cost, not durability —
        // the deliberately-absent fsync wait is the point of the mode.
        self.commit_hist.record_micros(started.elapsed());
        Ok(ticket)
    }

    /// Waits until `ticket`, from [`Database::commit_nowait`], has the
    /// outcome [`Database::commit`] gives: durable on the merged horizon,
    /// past the sync-replica gate, and [`Error::Fenced`] on a fenced node.
    pub fn wait_acked(&self, ticket: &CommitTicket) -> Result<()> {
        if ticket.wait_acked() == AckOutcome::Fenced {
            return Err(Error::Fenced {
                leader: self.wal.sync_gate().leader_hint(),
            });
        }
        Ok(())
    }

    /// Runs one checkpoint cycle: snapshots the committed log prefix into
    /// the (persisted) checkpoint image and truncates the WAL, bounding
    /// its resident memory and the recovery tail. See
    /// [`crate::checkpoint`].
    pub fn checkpoint(&self) -> Result<crate::checkpoint::CheckpointStats> {
        self.ckpt.run(self)
    }

    /// The checkpointer (its running image and sidecar path).
    pub fn checkpointer(&self) -> &crate::checkpoint::Checkpointer {
        &self.ckpt
    }

    /// Aborts: applies the undo log in reverse, writes an `Abort` record,
    /// and releases locks. Safe to call on an already-aborted transaction
    /// (idempotent no-op) so error paths can abort unconditionally.
    pub fn abort(&self, txn: &mut Transaction) {
        if txn.assert_active().is_err() {
            return;
        }
        let wrote = !txn.redo.is_empty() || !txn.undo.is_empty();
        let mut touched: Vec<(bullfrog_common::TableId, RowId)> = Vec::new();
        for rec in std::mem::take(&mut txn.undo).into_iter().rev() {
            // Undo application must not fail: the operations below only
            // reverse changes this transaction itself made while holding
            // X locks. A failure indicates corruption, so surface loudly.
            match rec {
                UndoRecord::Insert { table, rid } => {
                    let t = self.catalog.get_by_id(table).expect("undo: table exists");
                    t.undo_insert(rid).expect("undo insert");
                    touched.push((table, rid));
                }
                UndoRecord::Update { table, rid, old } => {
                    let t = self.catalog.get_by_id(table).expect("undo: table exists");
                    t.undo_update(rid, old).expect("undo update");
                    touched.push((table, rid));
                }
                UndoRecord::Delete { table, rid, old } => {
                    let t = self.catalog.get_by_id(table).expect("undo: table exists");
                    t.undo_delete(rid, old).expect("undo delete");
                    touched.push((table, rid));
                }
            }
        }
        // Snapshot mode: undo restored each slot to its pre-transaction
        // state (the newest committed chain version), so dropping the
        // pending-writer marks re-establishes the writer-free invariant.
        if txn.snapshot().is_some() {
            for (table, rid) in touched {
                if let Ok(t) = self.catalog.get_by_id(table) {
                    t.heap().clear_pending(rid, txn.id().0);
                }
            }
            txn.release_snapshot();
        }
        txn.redo.clear();
        // A transaction that never wrote leaves no trace to disclaim.
        if wrote {
            self.wal.append([LogRecord::Abort(txn.id())], None);
        }
        txn.mark_aborted().expect("active checked above");
        self.release_locks(txn);
    }

    fn release_locks(&self, txn: &mut Transaction) {
        let keys = txn.take_locks();
        self.lm.release_all(txn.id(), keys);
    }

    /// Runs `f` inside a transaction: commit on `Ok`, abort on `Err`.
    pub fn with_txn<T>(&self, f: impl FnOnce(&mut Transaction) -> Result<T>) -> Result<T> {
        let mut txn = self.begin();
        match f(&mut txn) {
            Ok(v) => {
                self.commit(&mut txn)?;
                Ok(v)
            }
            Err(e) => {
                self.abort(&mut txn);
                Err(e)
            }
        }
    }

    /// As [`Database::with_txn`], retrying (with a fresh transaction) while
    /// `f` fails with a retryable error, up to `max_attempts`.
    pub fn with_txn_retry<T>(
        &self,
        max_attempts: usize,
        mut f: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let mut last = None;
        for _ in 0..max_attempts {
            match self.with_txn(&mut f) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::Internal("retry limit with no attempt".into())))
    }

    // --- locking helpers ---------------------------------------------------

    /// Acquires a lock and records it on the transaction. A declared ally
    /// (`Transaction::ally`) never conflicts with the request. A table
    /// request the transaction's remembered table mode already covers
    /// returns without asking the lock manager.
    pub fn lock(&self, txn: &mut Transaction, key: LockKey, mode: LockMode) -> Result<()> {
        txn.assert_active()?;
        if txn.table_mode(key).is_some_and(|held| held.covers(mode)) {
            return Ok(());
        }
        if self
            .lm
            .acquire_deadline_ally(txn.id(), key, mode, self.lm.timeout(), txn.ally())?
        {
            txn.record_lock(key);
        }
        txn.note_table_mode(key, mode);
        Ok(())
    }

    fn lock_row_for(
        &self,
        txn: &mut Transaction,
        table: &Table,
        rid: RowId,
        policy: LockPolicy,
    ) -> Result<()> {
        let Some((intent, row)) = policy.modes() else {
            return Ok(());
        };
        self.lock(txn, LockKey::Table(table.id()), intent)?;
        self.lock(txn, LockKey::Row(table.id(), rid), row)
    }

    /// Snapshot-mode write admission for an in-place update/delete of
    /// `rid` (no-op under 2PL, returning `false`). Enforces
    /// first-updater-wins — if a version of the row committed after this
    /// transaction's snapshot, the write loses with a retryable
    /// [`Error::WriteConflict`] — then marks the transaction as the row's
    /// pending writer. Returns whether this call was the transaction's
    /// first touch of the row (the caller must `clear_pending` on an
    /// immediately-following mutation failure in that case; later touches
    /// are cleaned up through the undo log).
    fn prepare_si_write(&self, txn: &mut Transaction, t: &Table, rid: RowId) -> Result<bool> {
        let Some(snap) = txn.snapshot() else {
            return Ok(false);
        };
        let first_touch = !txn.undo.iter().any(|u| match u {
            UndoRecord::Insert { table, rid: r } => *table == t.id() && *r == rid,
            UndoRecord::Update { table, rid: r, .. } => *table == t.id() && *r == rid,
            UndoRecord::Delete { table, rid: r, .. } => *table == t.id() && *r == rid,
        });
        if first_touch && t.heap().newest_version_ts(rid) > snap.ts() {
            return Err(Error::WriteConflict {
                txn: txn.id(),
                table: t.id(),
            });
        }
        snap.mark_writer();
        txn.mark_snapshot_used();
        t.heap().prepare_write(rid, txn.id().0);
        Ok(first_touch)
    }

    // --- DML ----------------------------------------------------------------

    /// Inserts a row transactionally: IX table lock, FK checks (S locks on
    /// referenced rows), uniqueness via the table's indexes, X lock on the
    /// new row, undo + redo records.
    pub fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId> {
        self.insert_with(txn, table, row, true)
    }

    /// As [`Database::insert`] with explicit control over FK S-locking.
    /// Migration transactions pass `fk_lock = false` — see
    /// [`crate::fk::check_outgoing_with`].
    pub fn insert_with(
        &self,
        txn: &mut Transaction,
        table: &str,
        row: Row,
        fk_lock: bool,
    ) -> Result<RowId> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        self.lock(txn, LockKey::Table(t.id()), LockMode::IX)?;
        self.insert_locked(txn, &t, &t.indexes(), row, fk_lock)
    }

    /// Inserts `rows` into `table` in one call, for a migration granule's
    /// output: the catalog lookup, the IX lock and the table's index list
    /// are taken once. Each row still gets what [`Database::insert_with`]
    /// gives it, in the same order: FK check, unique checks, X lock, undo
    /// and redo records. A row a uniqueness constraint rejects is skipped.
    /// Returns `(inserted, rejected)`.
    pub fn insert_rows(
        &self,
        txn: &mut Transaction,
        table: &str,
        rows: Vec<Row>,
        fk_lock: bool,
    ) -> Result<(u64, u64)> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        self.lock(txn, LockKey::Table(t.id()), LockMode::IX)?;
        let indexes = t.indexes();
        let (mut inserted, mut rejected) = (0, 0);
        for row in rows {
            match self.insert_locked(txn, &t, &indexes, row, fk_lock) {
                Ok(_) => inserted += 1,
                Err(Error::UniqueViolation { .. }) => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((inserted, rejected))
    }

    /// One insert under a held IX lock on `t`, maintaining `indexes`. The
    /// row is cloned once, for the redo after-image.
    fn insert_locked(
        &self,
        txn: &mut Transaction,
        t: &Table,
        indexes: &[Arc<BTreeIndex>],
        row: Row,
        fk_lock: bool,
    ) -> Result<RowId> {
        crate::fk::check_outgoing_with(self, txn, t, &row, fk_lock)?;
        let after = row.clone();
        let pending = txn.snapshot().map(|snap| {
            // Snapshot mode: the new slot carries a pending-writer mark so
            // concurrent snapshot readers skip it until commit installs
            // its first version.
            snap.mark_writer();
            txn.id().0
        });
        let rid = t.insert_indexed(row, pending, indexes)?;
        txn.mark_snapshot_used();
        self.lock(txn, LockKey::Row(t.id(), rid), LockMode::X)?;
        txn.push_undo(UndoRecord::Insert { table: t.id(), rid });
        txn.push_redo(LogRecord::Insert {
            txn: txn.id(),
            table: t.id(),
            rid,
            row: after,
        });
        Ok(rid)
    }

    /// Inserts unless a uniqueness constraint rejects the row; `Ok(None)`
    /// on conflict. This is `INSERT ... ON CONFLICT DO NOTHING`, the
    /// alternative duplicate-migration guard of paper §3.7.
    pub fn insert_or_ignore(
        &self,
        txn: &mut Transaction,
        table: &str,
        row: Row,
    ) -> Result<Option<RowId>> {
        self.insert_or_ignore_with(txn, table, row, true)
    }

    /// As [`Database::insert_or_ignore`] with explicit FK S-lock control.
    pub fn insert_or_ignore_with(
        &self,
        txn: &mut Transaction,
        table: &str,
        row: Row,
        fk_lock: bool,
    ) -> Result<Option<RowId>> {
        match self.insert_with(txn, table, row, fk_lock) {
            Ok(rid) => Ok(Some(rid)),
            Err(Error::UniqueViolation { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Unlogged, unlocked bulk insert for initial data loading only.
    pub fn insert_unlogged(&self, table: &str, row: Row) -> Result<RowId> {
        self.catalog.get(table)?.insert(row)
    }

    /// Updates the row at `rid` transactionally.
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: &str,
        rid: RowId,
        new_row: Row,
    ) -> Result<()> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        self.lock(txn, LockKey::Table(t.id()), LockMode::IX)?;
        self.lock(txn, LockKey::Row(t.id(), rid), LockMode::X)?;
        crate::fk::check_outgoing(self, txn, &t, &new_row)?;
        let first_touch = self.prepare_si_write(txn, &t, rid)?;
        let old = match t.update(rid, new_row.clone()) {
            Ok(old) => old,
            Err(e) => {
                if first_touch {
                    t.heap().clear_pending(rid, txn.id().0);
                }
                return Err(e);
            }
        };
        txn.push_undo(UndoRecord::Update {
            table: t.id(),
            rid,
            old,
        });
        txn.push_redo(LogRecord::Update {
            txn: txn.id(),
            table: t.id(),
            rid,
            after: new_row,
        });
        Ok(())
    }

    /// Deletes the row at `rid` transactionally, returning it.
    pub fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        self.lock(txn, LockKey::Table(t.id()), LockMode::IX)?;
        self.lock(txn, LockKey::Row(t.id(), rid), LockMode::X)?;
        if self.config.enforce_fk_on_delete {
            crate::fk::check_incoming(self, txn, &t, rid)?;
        }
        let first_touch = self.prepare_si_write(txn, &t, rid)?;
        let old = match t.delete(rid) {
            Ok(old) => old,
            Err(e) => {
                if first_touch {
                    t.heap().clear_pending(rid, txn.id().0);
                }
                return Err(e);
            }
        };
        txn.push_undo(UndoRecord::Delete {
            table: t.id(),
            rid,
            old: old.clone(),
        });
        txn.push_redo(LogRecord::Delete {
            txn: txn.id(),
            table: t.id(),
            rid,
        });
        Ok(old)
    }

    /// Point read of `rid` under the given lock policy.
    pub fn get(
        &self,
        txn: &mut Transaction,
        table: &str,
        rid: RowId,
        policy: LockPolicy,
    ) -> Result<Option<Row>> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        self.read_row(txn, &t, rid, policy)
    }

    /// Point read of `rid` in `t` under `policy`, through the read's
    /// `View`: the policy's locks, then the latest row, or the row
    /// visible at the transaction's snapshot.
    pub fn read_row(
        &self,
        txn: &mut Transaction,
        t: &Table,
        rid: RowId,
        policy: LockPolicy,
    ) -> Result<Option<Row>> {
        let view = View::of(txn, policy);
        self.lock_row_for(txn, t, rid, view.locks())?;
        Ok(view.get(t, rid))
    }

    /// Point read through the primary key. Under `View::Latest` the
    /// probe is authoritative. At a snapshot the index may have moved on:
    /// a probe hit counts only while its visible row still carries the
    /// key, and a miss is final only while the index is exact for the
    /// snapshot (checked after the probe); otherwise a visible scan
    /// decides.
    pub fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        let view = View::of(txn, policy);
        if let Some((rid, _)) = t.get_by_pk(key) {
            self.lock_row_for(txn, &t, rid, view.locks())?;
            // Re-read after locking: the row may have changed or vanished
            // while we waited.
            if let Some(row) = view.get(&t, rid) {
                if matches!(view, View::Latest(_)) || t.has_pk(&row, key) {
                    return Ok(Some((rid, row)));
                }
            }
        }
        if view.index_exact(&t) {
            return Ok(None);
        }
        let mut found = None;
        view.scan(&t, |rid, row| {
            if t.has_pk(row, key) {
                found = Some((rid, row.clone()));
            }
            found.is_none()
        });
        Ok(found)
    }

    /// Predicate select over one table. Uses an index for `col = literal`
    /// conjuncts when one covers them, otherwise scans; each candidate is
    /// locked per `policy` and then re-checked against the predicate.
    pub fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        txn.assert_active()?;
        let t = self.catalog.get(table)?;
        let scope = table_scope(&t);
        let keep = |row: &Row| predicate.map_or(Ok(true), |p| p.matches(&scope, row));
        self.select_with(txn, &t, || index_candidates(&t, predicate), keep, policy)
    }

    /// The select behind [`Database::select`], for a caller that bound
    /// its row test once: `probe` proposes index candidates (`None`:
    /// scan), and `keep` decides each row, re-checked after its lock.
    pub(crate) fn select_with(
        &self,
        txn: &mut Transaction,
        t: &Table,
        probe: impl FnOnce() -> Option<Vec<RowId>>,
        keep: impl Fn(&Row) -> Result<bool>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        txn.assert_active()?;
        let view = View::of(txn, policy);
        let locks = view.locks();
        if let Some((intent, _)) = locks.modes() {
            self.lock(txn, LockKey::Table(t.id()), intent)?;
        }
        self.select_in(t, view, probe, keep, |rid| {
            self.lock_row_for(txn, t, rid, locks)
        })
    }

    /// Unlocked, untransactional select (frozen tables / diagnostics).
    pub fn select_unlocked(
        &self,
        table: &str,
        predicate: Option<&Expr>,
    ) -> Result<Vec<(RowId, Row)>> {
        let t = self.catalog.get(table)?;
        let scope = table_scope(&t);
        let keep = |row: &Row| predicate.map_or(Ok(true), |p| p.matches(&scope, row));
        self.select_in(
            &t,
            View::Latest(LockPolicy::None),
            || index_candidates(&t, predicate),
            keep,
            |_| Ok(()),
        )
    }

    /// Whether an index probe on `t` finds exactly the rows a read by
    /// `txn` under `policy` sees. Always under `View::Latest`; at a
    /// snapshot only while the table's latest state is the snapshot's.
    /// A caller that walks an index asks again after the walk: a writer
    /// that raced it fails the second check.
    pub fn index_exact(&self, txn: &mut Transaction, t: &Table, policy: LockPolicy) -> bool {
        View::of(txn, policy).index_exact(t)
    }

    /// The weakest policy whose reads see the latest committed rows and
    /// keep them stable until commit: `Shared` under 2PL, `Exclusive`
    /// under snapshot isolation, where a `Shared` read serves the
    /// snapshot. Copiers that must not trail concurrent writers read
    /// with it.
    pub fn latest_read_policy(&self) -> LockPolicy {
        if self.config.mode.is_snapshot() {
            LockPolicy::Exclusive
        } else {
            LockPolicy::Shared
        }
    }

    /// The one row-set read behind `select_with` and `select_unlocked`:
    /// the `probe`'s index candidates while `view` says the index is exact
    /// (asked again after the walk), a scan otherwise. `lock_row` runs
    /// before each candidate is read; the row is then re-read and `keep`
    /// re-checked.
    fn select_in(
        &self,
        t: &Table,
        view: View,
        probe: impl FnOnce() -> Option<Vec<RowId>>,
        keep: impl Fn(&Row) -> Result<bool>,
        mut lock_row: impl FnMut(RowId) -> Result<()>,
    ) -> Result<Vec<(RowId, Row)>> {
        let mut read = |rids: Vec<RowId>| -> Result<Vec<(RowId, Row)>> {
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                lock_row(rid)?;
                // `None`: vanished while we waited for the lock.
                if let Some(row) = view.get(t, rid) {
                    if keep(&row)? {
                        out.push((rid, row));
                    }
                }
            }
            Ok(out)
        };
        if view.index_exact(t) {
            if let Some(rids) = probe() {
                let out = read(rids)?;
                if view.index_exact(t) {
                    return Ok(out);
                }
                // A writer raced the walk: discard, take the scan.
            }
        }
        let mut rids = Vec::new();
        let mut err = None;
        view.scan(t, |rid, row| match keep(row) {
            Ok(hit) => {
                if hit {
                    rids.push(rid);
                }
                true
            }
            Err(e) => {
                err = Some(e);
                false
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        read(rids)
    }

    // --- version GC (Snapshot engine mode) ---------------------------------

    /// Amortized inline GC: every 64th snapshot-mode commit prunes
    /// version chains below the oracle's horizon on its own thread.
    fn maybe_gc(&self) {
        if self.si_commits.fetch_add(1, Ordering::Relaxed) % 64 == 63 {
            self.version_gc();
        }
    }

    /// Prunes every table's version chains below the GC horizon (the
    /// oldest active snapshot, capped by the stable timestamp). Returns
    /// the number of chain nodes freed.
    pub fn version_gc(&self) -> usize {
        let horizon = self.wal.oracle().gc_horizon();
        let mut freed = 0;
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                freed += t.heap().gc_versions(horizon);
            }
        }
        self.gc_reclaimed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Retained version-chain nodes across all tables (O(pages)).
    pub fn version_count(&self) -> usize {
        let mut n = 0;
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                n += t.heap().version_count();
            }
        }
        n
    }

    /// Chain nodes reclaimed by GC since this database opened.
    pub fn gc_reclaimed(&self) -> u64 {
        self.gc_reclaimed.load(Ordering::Relaxed)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("wal_records", &self.wal.len())
            .finish()
    }
}

/// Scope for single-table predicates: columns visible both bare and
/// qualified by the table's catalog name.
pub fn table_scope(t: &Table) -> Scope {
    let cols: Vec<String> = t.schema().columns.iter().map(|c| c.name.clone()).collect();
    Scope::table(t.name(), &cols)
}

/// Index-assisted candidate lookup: `Some(rids)` when the predicate's
/// sargable conjuncts cover an index prefix (point/prefix lookup or
/// range scan), `None` when no index applies and the caller must scan.
pub(crate) fn index_candidates(t: &Table, predicate: Option<&Expr>) -> Option<Vec<RowId>> {
    let p = predicate?;
    let eqs = pred::sargable_equalities(p);
    let ranges = pred::sargable_ranges(p);
    if eqs.is_empty() && ranges.is_empty() {
        return None;
    }
    // Resolve the equality columns to positions.
    let mut by_pos: Vec<(usize, Value)> = Vec::new();
    for (col, v) in &eqs {
        if let Ok(i) = t.schema().col_index(&col.column) {
            by_pos.push((i, v.clone()));
        }
    }
    let mut positions: Vec<usize> = by_pos.iter().map(|(i, _)| *i).collect();
    // Range columns also make an index eligible.
    let mut range_by_pos: Vec<(usize, Option<pred::RangeBound>, Option<pred::RangeBound>)> =
        Vec::new();
    for (col, lo, hi) in &ranges {
        if let Ok(i) = t.schema().col_index(&col.column) {
            range_by_pos.push((i, lo.clone(), hi.clone()));
            positions.push(i);
        }
    }
    let idx = t.index_for_columns(&positions)?;
    // Build the longest usable equality prefix.
    let mut key = Vec::new();
    let mut next_kc = None;
    for kc in &idx.def().key_columns {
        match by_pos.iter().find(|(i, _)| i == kc) {
            Some((_, v)) => key.push(v.clone()),
            None => {
                next_kc = Some(*kc);
                break;
            }
        }
    }
    // A range bound on the key column right after the prefix turns
    // the prefix lookup into a range scan (TPC-C StockLevel's
    // "last 20 orders" window).
    if let Some(kc) = next_kc {
        if let Some((_, lo, hi)) = range_by_pos.iter().find(|(i, _, _)| *i == kc) {
            if !key.is_empty() || lo.is_some() {
                return Some(idx.range_scan(&key, lo.as_ref(), hi.as_ref()));
            }
        }
    }
    if !key.is_empty() {
        return Some(idx.get_prefix(&key));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{row, ColumnDef, DataType};

    fn db_with_accounts(mode: EngineMode) -> Database {
        let db = Database::with_config(DbConfig {
            mode,
            lock_timeout: Duration::from_millis(50),
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("owner", DataType::Text),
                    ColumnDef::new("balance", DataType::Decimal),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db
    }

    #[test]
    fn engine_mode_parses_known_names_and_rejects_others() {
        for (name, mode) in [
            ("2pl", EngineMode::TwoPL),
            ("2PL", EngineMode::TwoPL),
            ("si", EngineMode::Snapshot),
            ("Snapshot", EngineMode::Snapshot),
            ("MVCC", EngineMode::Snapshot),
        ] {
            assert_eq!(EngineMode::parse(name).unwrap(), mode, "{name}");
        }
        for bad in ["sii", "", "2pl "] {
            let err = EngineMode::parse(bad).unwrap_err();
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
        }
        assert_eq!(DbConfig::default().mode, EngineMode::TwoPL);
    }

    #[test]
    fn insert_commit_visible() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            let rid = db
                .with_txn(|txn| db.insert(txn, "accounts", row![1, "alice", 1000]))
                .unwrap();
            let mut txn = db.begin();
            let got = db
                .get(&mut txn, "accounts", rid, LockPolicy::Shared)
                .unwrap();
            assert_eq!(got, Some(row![1, "alice", 1000]));
            db.commit(&mut txn).unwrap();
        }
    }

    #[test]
    fn abort_rolls_back_insert_update_delete() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            let rid = db
                .with_txn(|txn| db.insert(txn, "accounts", row![1, "alice", 1000]))
                .unwrap();

            let mut txn = db.begin();
            db.insert(&mut txn, "accounts", row![2, "bob", 5]).unwrap();
            db.update(&mut txn, "accounts", rid, row![1, "alice", 900])
                .unwrap();
            db.abort(&mut txn);

            let mut txn = db.begin();
            assert!(db
                .get_by_pk(&mut txn, "accounts", &[Value::Int(2)], LockPolicy::Shared)
                .unwrap()
                .is_none());
            let (_, row) = db
                .get_by_pk(&mut txn, "accounts", &[Value::Int(1)], LockPolicy::Shared)
                .unwrap()
                .unwrap();
            assert_eq!(row, row![1, "alice", 1000]);
            db.commit(&mut txn).unwrap();

            // Delete + abort restores.
            let mut txn = db.begin();
            db.delete(&mut txn, "accounts", rid).unwrap();
            db.abort(&mut txn);
            let mut txn = db.begin();
            assert!(db
                .get(&mut txn, "accounts", rid, LockPolicy::Shared)
                .unwrap()
                .is_some());
            db.commit(&mut txn).unwrap();
        }
    }

    #[test]
    fn unique_violation_inside_txn_is_clean() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| db.insert(txn, "accounts", row![1, "a", 0]))
                .unwrap();
            let err = db
                .with_txn(|txn| {
                    db.insert(txn, "accounts", row![2, "b", 0])?;
                    db.insert(txn, "accounts", row![1, "dup", 0])
                })
                .unwrap_err();
            assert!(matches!(err, Error::UniqueViolation { .. }));
            // The first insert of the failed txn rolled back.
            let mut txn = db.begin();
            assert!(db
                .get_by_pk(&mut txn, "accounts", &[Value::Int(2)], LockPolicy::Shared)
                .unwrap()
                .is_none());
            db.commit(&mut txn).unwrap();
        }
    }

    #[test]
    fn insert_or_ignore_swallows_conflicts() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| {
                assert!(db
                    .insert_or_ignore(txn, "accounts", row![1, "a", 0])?
                    .is_some());
                assert!(db
                    .insert_or_ignore(txn, "accounts", row![1, "dup", 0])?
                    .is_none());
                Ok(())
            })
            .unwrap();
            assert_eq!(db.table("accounts").unwrap().live_count(), 1);
        }
    }

    #[test]
    fn select_uses_pk_index_and_rechecks() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| {
                for i in 0..100 {
                    db.insert(txn, "accounts", row![i, format!("o{i}"), i * 10])?;
                }
                Ok(())
            })
            .unwrap();
            let mut txn = db.begin();
            let p = Expr::column("id").eq(Expr::lit(42));
            let got = db
                .select(&mut txn, "accounts", Some(&p), LockPolicy::Shared)
                .unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].1, row![42, "o42", 420]);
            // Scan path: non-indexed predicate.
            let p = Expr::column("balance").ge(Expr::lit(Value::Decimal(980)));
            let got = db
                .select(&mut txn, "accounts", Some(&p), LockPolicy::Shared)
                .unwrap();
            assert_eq!(got.len(), 2); // balances 980, 990
            db.commit(&mut txn).unwrap();
        }
    }

    #[test]
    fn write_conflict_times_out() {
        // Asserts 2PL blocking-reader semantics.
        let db = Arc::new(Database::with_config(DbConfig {
            lock_timeout: Duration::from_millis(30),
            mode: EngineMode::TwoPL,
            ..DbConfig::default()
        }));
        db.create_table(
            TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)])
                .with_primary_key(&["id"]),
        )
        .unwrap();
        let rid = db.with_txn(|txn| db.insert(txn, "t", row![1])).unwrap();

        let mut holder = db.begin();
        db.update(&mut holder, "t", rid, row![2]).unwrap();

        // A second writer cannot get the X lock.
        let mut other = db.begin();
        let err = db.update(&mut other, "t", rid, row![3]).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
        db.abort(&mut other);

        // A reader with S policy also blocks (no dirty read) and times out.
        let mut reader = db.begin();
        assert!(db.get(&mut reader, "t", rid, LockPolicy::Shared).is_err());
        db.abort(&mut reader);

        db.commit(&mut holder).unwrap();
        // Now the read sees the committed value.
        let mut reader = db.begin();
        assert_eq!(
            db.get(&mut reader, "t", rid, LockPolicy::Shared).unwrap(),
            Some(row![2])
        );
        db.commit(&mut reader).unwrap();
    }

    #[test]
    fn with_txn_retry_retries_lock_timeouts() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Arc::new(Database::with_config(DbConfig {
                lock_timeout: Duration::from_millis(20),
                mode,
                ..DbConfig::default()
            }));
            assert_eq!(db.config().mode, mode);
            db.create_table(
                TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)])
                    .with_primary_key(&["id"]),
            )
            .unwrap();
            let rid = db.with_txn(|txn| db.insert(txn, "t", row![1])).unwrap();

            let mut holder = db.begin();
            db.update(&mut holder, "t", rid, row![2]).unwrap();
            let db2 = Arc::clone(&db);
            let t = std::thread::spawn(move || {
                db2.with_txn_retry(50, |txn| db2.update(txn, "t", rid, row![3]))
            });
            std::thread::sleep(Duration::from_millis(60));
            db.commit(&mut holder).unwrap();
            t.join().unwrap().unwrap();
            let mut txn = db.begin();
            assert_eq!(
                db.get(&mut txn, "t", rid, LockPolicy::Shared).unwrap(),
                Some(row![3])
            );
            db.commit(&mut txn).unwrap();
        }
    }

    #[test]
    fn commit_writes_atomic_wal_batch() {
        // Asserts the 2PL commit-record shape (`Commit`, not `CommitTs`).
        let db = Database::with_config(DbConfig {
            mode: EngineMode::TwoPL,
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("owner", DataType::Text),
                    ColumnDef::new("balance", DataType::Decimal),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.with_txn(|txn| {
            db.insert(txn, "accounts", row![1, "a", 0])?;
            db.insert(txn, "accounts", row![2, "b", 0])
        })
        .unwrap();
        let records = db.wal().snapshot();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], LogRecord::Insert { .. }));
        assert!(matches!(records[2], LogRecord::Commit(_)));
    }

    #[test]
    fn si_readers_never_block_on_writers() {
        let db = db_with_accounts(EngineMode::Snapshot);
        let rid = db
            .with_txn(|txn| db.insert(txn, "accounts", row![1, "alice", 100]))
            .unwrap();

        let mut writer = db.begin();
        db.update(&mut writer, "accounts", rid, row![1, "alice", 999])
            .unwrap();

        // The writer holds the X lock, but a snapshot reader sees the old
        // committed value immediately — no S lock, no timeout.
        let mut reader = db.begin();
        assert_eq!(
            db.get(&mut reader, "accounts", rid, LockPolicy::Shared)
                .unwrap(),
            Some(row![1, "alice", 100])
        );
        // Same through the pk index and through a predicate select.
        let (_, r) = db
            .get_by_pk(
                &mut reader,
                "accounts",
                &[Value::Int(1)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
        assert_eq!(r, row![1, "alice", 100]);
        let by_id = Expr::column("id").eq(Expr::lit(1));
        assert_eq!(
            db.select(&mut reader, "accounts", Some(&by_id), LockPolicy::Shared)
                .unwrap(),
            vec![(rid, row![1, "alice", 100])]
        );
        db.commit(&mut writer).unwrap();
        // The reader's snapshot predates the commit: still the old value.
        assert_eq!(
            db.get(&mut reader, "accounts", rid, LockPolicy::Shared)
                .unwrap(),
            Some(row![1, "alice", 100])
        );
        db.commit(&mut reader).unwrap();
        // A fresh snapshot sees the new value.
        let mut late = db.begin();
        assert_eq!(
            db.get(&mut late, "accounts", rid, LockPolicy::Shared)
                .unwrap(),
            Some(row![1, "alice", 999])
        );
        db.commit(&mut late).unwrap();
    }

    #[test]
    fn index_select_reads_the_snapshot_under_si_and_the_latest_under_2pl() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_with_accounts(mode);
            assert_eq!(db.config().mode, mode);
            db.create_index("accounts", "accounts_owner", &["owner"], false)
                .unwrap();
            let (gone, moved) = db
                .with_txn(|txn| {
                    Ok((
                        db.insert(txn, "accounts", row![1, "alice", 10])?,
                        db.insert(txn, "accounts", row![2, "bob", 20])?,
                    ))
                })
                .unwrap();
            let mut reader = db.begin();
            // After the reader's snapshot: delete row 1, move row 2's
            // indexed owner. Both index entries the reader probes are gone.
            db.with_txn(|txn| {
                db.delete(txn, "accounts", gone)?;
                db.update(txn, "accounts", moved, row![2, "carol", 20])
            })
            .unwrap();
            let mut select = |p: Expr| {
                db.select(&mut reader, "accounts", Some(&p), LockPolicy::Shared)
                    .unwrap()
            };
            let by_id = select(Expr::column("id").eq(Expr::lit(1)));
            let by_old_owner = select(Expr::column("owner").eq(Expr::lit("bob")));
            let by_new_owner = select(Expr::column("owner").eq(Expr::lit("carol")));
            if mode.is_snapshot() {
                assert_eq!(by_id, vec![(gone, row![1, "alice", 10])]);
                assert_eq!(by_old_owner, vec![(moved, row![2, "bob", 20])]);
                assert_eq!(by_new_owner, vec![]);
            } else {
                assert_eq!(by_id, vec![]);
                assert_eq!(by_old_owner, vec![]);
                assert_eq!(by_new_owner, vec![(moved, row![2, "carol", 20])]);
            }
            db.commit(&mut reader).unwrap();
        }
    }

    #[test]
    fn si_first_updater_wins() {
        let db = db_with_accounts(EngineMode::Snapshot);
        let rid = db
            .with_txn(|txn| db.insert(txn, "accounts", row![1, "a", 10]))
            .unwrap();

        let mut loser = db.begin(); // snapshot taken before the winner commits
        db.with_txn(|txn| db.update(txn, "accounts", rid, row![1, "a", 20]))
            .unwrap();
        let err = db
            .update(&mut loser, "accounts", rid, row![1, "a", 30])
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
        assert!(err.is_retryable());
        db.abort(&mut loser);

        // The retry (fresh snapshot) succeeds.
        db.with_txn_retry(3, |txn| db.update(txn, "accounts", rid, row![1, "a", 30]))
            .unwrap();
        let mut txn = db.begin();
        assert_eq!(
            db.get(&mut txn, "accounts", rid, LockPolicy::Shared)
                .unwrap(),
            Some(row![1, "a", 30])
        );
        db.commit(&mut txn).unwrap();
    }

    #[test]
    fn si_uncommitted_insert_invisible_deleted_row_visible() {
        let db = db_with_accounts(EngineMode::Snapshot);
        let rid = db
            .with_txn(|txn| db.insert(txn, "accounts", row![1, "a", 10]))
            .unwrap();

        let mut reader = db.begin();
        // Uncommitted insert by another txn: invisible to the reader but
        // visible to its own transaction.
        let mut writer = db.begin();
        db.insert(&mut writer, "accounts", row![2, "b", 20])
            .unwrap();
        assert!(db
            .get_by_pk(
                &mut reader,
                "accounts",
                &[Value::Int(2)],
                LockPolicy::Shared
            )
            .unwrap()
            .is_none());
        let all = db
            .select(&mut writer, "accounts", None, LockPolicy::Shared)
            .unwrap();
        assert_eq!(all.len(), 2, "writer reads its own insert");
        db.commit(&mut writer).unwrap();

        // Committed delete: still visible at the reader's snapshot, even
        // though the index entry is gone.
        db.with_txn(|txn| db.delete(txn, "accounts", rid).map(|_| ()))
            .unwrap();
        let (got_rid, got) = db
            .get_by_pk(
                &mut reader,
                "accounts",
                &[Value::Int(1)],
                LockPolicy::Shared,
            )
            .unwrap()
            .expect("snapshot still sees the deleted row");
        assert_eq!((got_rid, got), (rid, row![1, "a", 10]));
        assert_eq!(
            db.select(&mut reader, "accounts", None, LockPolicy::Shared)
                .unwrap()
                .len(),
            1,
            "reader's snapshot predates both the insert of 2 and the delete of 1"
        );
        db.commit(&mut reader).unwrap();
        let mut late = db.begin();
        assert!(db
            .get_by_pk(&mut late, "accounts", &[Value::Int(1)], LockPolicy::Shared)
            .unwrap()
            .is_none());
        db.commit(&mut late).unwrap();
    }

    #[test]
    fn si_abort_clears_pending_writes() {
        let db = db_with_accounts(EngineMode::Snapshot);
        let rid = db
            .with_txn(|txn| db.insert(txn, "accounts", row![1, "a", 10]))
            .unwrap();
        let mut t = db.begin();
        db.update(&mut t, "accounts", rid, row![1, "a", 99])
            .unwrap();
        db.insert(&mut t, "accounts", row![2, "b", 0]).unwrap();
        db.abort(&mut t);

        let mut txn = db.begin();
        assert_eq!(
            db.select(&mut txn, "accounts", None, LockPolicy::Shared)
                .unwrap(),
            vec![(rid, row![1, "a", 10])]
        );
        db.commit(&mut txn).unwrap();
        // The aborted writer left no pending marks: a new writer wins
        // immediately.
        db.with_txn(|txn| db.update(txn, "accounts", rid, row![1, "a", 11]))
            .unwrap();
    }

    #[test]
    fn si_version_gc_respects_active_snapshots() {
        let db = db_with_accounts(EngineMode::Snapshot);
        let rid = db
            .with_txn(|txn| db.insert(txn, "accounts", row![1, "a", 0]))
            .unwrap();
        let mut pinner = db.begin(); // pins the horizon at its snapshot
        for i in 1..=5 {
            db.with_txn(|txn| db.update(txn, "accounts", rid, row![1, "a", i]))
                .unwrap();
        }
        assert!(db.version_count() > 1);
        db.version_gc();
        // The pinner can still read its version.
        assert_eq!(
            db.get(&mut pinner, "accounts", rid, LockPolicy::Shared)
                .unwrap(),
            Some(row![1, "a", 0])
        );
        db.commit(&mut pinner).unwrap();
        let freed = db.version_gc();
        assert!(freed > 0, "releasing the snapshot unlocks GC");
        assert!(db.gc_reclaimed() >= freed as u64);
        assert_eq!(
            db.version_count(),
            0,
            "fully collapsed back to slot-only storage"
        );
    }

    #[test]
    fn concurrent_transfers_conserve_balance() {
        transfers_conserve_balance(EngineMode::TwoPL);
    }

    #[test]
    fn si_concurrent_transfers_conserve_balance() {
        transfers_conserve_balance(EngineMode::Snapshot);
    }

    /// Classic bank-transfer stress: eight threads move money between ten
    /// accounts; the total balance is invariant.
    fn transfers_conserve_balance(mode: EngineMode) {
        let db = Arc::new(db_with_accounts(mode));
        assert_eq!(db.config().mode, mode);
        db.with_txn(|txn| {
            for i in 0..10 {
                db.insert(txn, "accounts", row![i, format!("o{i}"), 1000])?;
            }
            Ok(())
        })
        .unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut rng = t;
                for _ in 0..50 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (rng >> 33) % 10;
                    let to = (from + 1 + (rng >> 20) % 9) % 10;
                    let _ = db.with_txn_retry(50, |txn| {
                        let (rid_a, a) = db
                            .get_by_pk(
                                txn,
                                "accounts",
                                &[Value::Int(from as i64)],
                                LockPolicy::Exclusive,
                            )?
                            .ok_or(Error::RowNotFound)?;
                        let (rid_b, b) = db
                            .get_by_pk(
                                txn,
                                "accounts",
                                &[Value::Int(to as i64)],
                                LockPolicy::Exclusive,
                            )?
                            .ok_or(Error::RowNotFound)?;
                        let amount = Value::Decimal(7);
                        let new_a =
                            Row(vec![a[0].clone(), a[1].clone(), a[2].sub(&amount).unwrap()]);
                        let new_b =
                            Row(vec![b[0].clone(), b[1].clone(), b[2].add(&amount).unwrap()]);
                        db.update(txn, "accounts", rid_a, new_a)?;
                        db.update(txn, "accounts", rid_b, new_b)?;
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = db
            .select_unlocked("accounts", None)
            .unwrap()
            .iter()
            .map(|(_, r)| r[2].as_i64().unwrap())
            .sum();
        assert_eq!(total, 10_000);
        // The WAL's timestamp oracle converged: nothing in flight.
        let oracle = db.wal().oracle();
        assert_eq!(oracle.stable(), oracle.last_drawn());
    }
}
