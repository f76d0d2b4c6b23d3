//! Sharded redo write-ahead log with group commit, async commit tickets,
//! and checkpoint truncation.
//!
//! The WAL serves two purposes in this reproduction:
//!
//! 1. Ordinary **data recovery**: replaying committed transactions rebuilds
//!    table contents.
//! 2. **Migration-tracker recovery** (paper §3.5, described there as future
//!    work — implemented here): `MigrationGranule` records are written
//!    inside migration transactions, so replay can mark exactly the
//!    granules whose migration committed as `[0 1]`/`migrated`.
//!
//! # Structure
//!
//! Records live in **segments**: a bounded open segment receives appends
//! under a short mutex, and full segments are sealed into immutable
//! `Arc<Segment>`s that readers can walk without copying. LSNs are record
//! offsets from the birth of the log and are assigned under the same mutex,
//! so batches stay contiguous and totally ordered no matter which shard
//! makes them durable.
//!
//! # Sharded durability
//!
//! Durability is decoupled from appending and **partitioned by
//! transaction**: a file-backed log keeps `N` shards
//! ([`WalOptions::shards`]), each with its own backing file, staging queue,
//! and flusher thread. A committing batch is encoded *outside* the lock,
//! assigned contiguous LSNs under it, and staged on the shard
//! [`shard_of`]`(txn)` hashes to, so independent committers fan out over
//! `N` fsync pipelines instead of serializing behind one.
//!
//! The commit barrier is a **merged durable horizon**: `durable_lsn` is
//! the minimum, over all shards, of the first LSN each shard still has
//! staged or in flight (and `next_lsn` when all are drained). It is
//! recomputed under the log mutex whenever a shard completes a flush, so
//! it is exactly the horizon a single-flusher log would expose — every
//! record below it is on disk in some shard file.
//!
//! # One append path
//!
//! [`Wal::append`] is the only way into the log. It stages a batch and
//! returns a [`CommitTicket`] at enqueue time; the caller picks the wait:
//! [`CommitTicket::wait`] parks on the barrier (local durability),
//! [`CommitTicket::wait_acked`] additionally consults the [`SyncGate`]
//! (replica quorum, fencing), and an asynchronous committer may simply
//! keep the ticket and wait (or poll) later. A `stamp` makes the batch a
//! snapshot-mode commit: a [`LogRecord::CommitTs`] is appended whose
//! timestamp is drawn under the log mutex, so timestamp order equals LSN
//! order. No fsync ever happens under the log lock.
//!
//! Acknowledgements deliberately wait on the **merged** horizon, never on
//! just the acknowledging transaction's own shard: asynchronous commits
//! release their locks at enqueue time, so a later transaction may read
//! data whose redo is still in flight on a *different* shard. Because
//! WAL order respects lock order, that dependency always has a lower
//! LSN — an ack at the merged horizon therefore transitively covers
//! every batch the acknowledged commit could depend on, and recovery can
//! treat the longest LSN-contiguous on-disk prefix as the durable log.
//!
//! # File format
//!
//! Shard 0 lives at the configured path, shard `i` at `<path>.s<i>`. Each
//! file starts with a `BFWAL4` header (base LSN, shard index, shard
//! count) and holds **frames**: `first_lsn:u64 nbytes:u32 payload`, where
//! the payload is one or more contiguous records starting at `first_lsn`.
//! Explicit frame LSNs are what let [`Wal::load_sharded`] merge the shard
//! files back into one totally ordered stream (duplicates from a crash
//! mid-rotation dedupe by LSN). `BFWAL4` is the only format: a file with
//! any other header is refused with [`Error::Wal`] and left untouched.
//! The scanner tolerates a torn tail frame from a crash mid-write, and a
//! file shorter than a header whose bytes are a prefix of one (a crash
//! tore the header write) is reset to an empty log.
//!
//! [`Wal::truncate_to`] supports checkpointing: once a caller has
//! persisted a snapshot of the committed prefix (see
//! `bullfrog-engine::checkpoint`), the prefix is dropped from memory at
//! segment granularity and every shard file is rotated to a fresh log
//! holding only that shard's slice of the tail. Rotation writes from the
//! in-memory record store — a superset of anything staged or in flight —
//! so a checkpoint racing a commit can never drop staged-but-unflushed
//! bytes past the cut.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{fnv_hash_one, Error, Result, Row, RowId, TableId, TxnId, Value};
use bullfrog_obs::{Counter, Histogram, Registry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use crate::sync_gate::{AckOutcome, SyncGate};
use crate::ts::TsOracle;

/// Identifies a granule within a migration for recovery purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GranuleKey {
    /// A bitmap-tracked granule: its dense ordinal.
    Ordinal(u64),
    /// A hashmap-tracked granule: the group key values.
    Group(Vec<Value>),
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start (informational).
    Begin(TxnId),
    /// Row inserted.
    Insert {
        /// Writing transaction.
        txn: TxnId,
        /// Table mutated.
        table: TableId,
        /// Row id assigned.
        rid: RowId,
        /// Inserted row (after-image).
        row: Row,
    },
    /// Row updated.
    Update {
        /// Writing transaction.
        txn: TxnId,
        /// Table mutated.
        table: TableId,
        /// Row id updated.
        rid: RowId,
        /// After-image.
        after: Row,
    },
    /// Row deleted.
    Delete {
        /// Writing transaction.
        txn: TxnId,
        /// Table mutated.
        table: TableId,
        /// Row id deleted.
        rid: RowId,
    },
    /// A migration granule was physically migrated inside `txn`; replay
    /// marks it migrated iff `txn` committed.
    MigrationGranule {
        /// Migrating transaction.
        txn: TxnId,
        /// Which migration statement (assigned by `bullfrog-core`).
        migration: u32,
        /// The granule.
        granule: GranuleKey,
    },
    /// Transaction committed — all earlier records of `txn` are durable.
    Commit(TxnId),
    /// Transaction committed at commit timestamp `ts` (Snapshot engine
    /// mode). The timestamp is drawn under the same mutex that assigns
    /// LSNs (a stamped [`Wal::append`]), so timestamp order and LSN
    /// order agree; replay treats it exactly like [`LogRecord::Commit`]
    /// and additionally resumes the timestamp oracle past `ts`.
    CommitTs {
        /// Committing transaction.
        txn: TxnId,
        /// Its global commit timestamp.
        ts: u64,
    },
    /// Transaction aborted (written for completeness; replay ignores the
    /// transaction's records either way).
    Abort(TxnId),
    /// The fencing epoch was raised to `epoch` (promotion, or adoption of
    /// a higher epoch observed from a peer). Written inside its own
    /// committed batch (`[Begin, Epoch, Commit]`) so it rides the normal
    /// committed-transaction replay and replication machinery; recovery
    /// takes the max over all committed `Epoch` records and the sidecar
    /// (see `epoch::EpochStore`), so the fence survives even a lost
    /// sidecar file.
    Epoch {
        /// Carrier transaction (allocated solely for this record).
        txn: TxnId,
        /// The epoch in force from this point of the log onward.
        epoch: u64,
    },
}

impl LogRecord {
    /// The transaction a record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin(t) | LogRecord::Commit(t) | LogRecord::Abort(t) => *t,
            LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::MigrationGranule { txn, .. }
            | LogRecord::CommitTs { txn, .. }
            | LogRecord::Epoch { txn, .. } => *txn,
        }
    }

    /// The commit timestamp, for commit records that carry one.
    pub fn commit_ts(&self) -> Option<u64> {
        match self {
            LogRecord::CommitTs { ts, .. } => Some(*ts),
            _ => None,
        }
    }

    /// True for the records that mark a transaction committed.
    pub fn is_commit(&self) -> bool {
        matches!(self, LogRecord::Commit(_) | LogRecord::CommitTs { .. })
    }

    /// True for the records that resolve a transaction.
    fn resolves(&self) -> bool {
        self.is_commit() || matches!(self, LogRecord::Abort(_))
    }
}

/// Records per segment; full open segments are sealed at this size, so
/// resident memory after a checkpoint is bounded by the tail length plus
/// one partially-covered segment.
const SEGMENT_RECORDS: usize = 1024;

/// Magic prefix of WAL shard files, the only on-disk log format.
const FILE_MAGIC: [u8; 6] = *b"BFWAL4";
/// File header: magic + base_lsn:u64 + shard:u32 + shards:u32.
const HEADER_LEN: usize = FILE_MAGIC.len() + 8 + 4 + 4;
/// Frame header: first_lsn:u64 + nbytes:u32.
const FRAME_HEADER_LEN: usize = 8 + 4;
/// Rotation closes a run's frame once its payload reaches this size, so a
/// huge checkpoint tail can never build a frame whose length overflows
/// the u32 `nbytes` field (frames carry absolute LSNs, so splitting a
/// contiguous run across frames is free).
const MAX_ROTATION_FRAME: usize = 256 << 20;

/// Default durability shard count for file-backed logs.
pub const DEFAULT_WAL_SHARDS: usize = 4;

/// The durability shard a transaction's batches are staged on: a
/// deterministic FNV-1a hash of the transaction id, so a transaction's
/// records always land in the same shard file in LSN order.
pub fn shard_of(txn: TxnId, shards: usize) -> usize {
    (fnv_hash_one(&txn.0) % shards.max(1) as u64) as usize
}

/// Shard `i`'s backing file: the configured path for shard 0, `<path>.s<i>`
/// otherwise (so single-shard logs keep the legacy layout).
pub fn shard_file_path(path: &Path, shard: usize) -> PathBuf {
    if shard == 0 {
        path.to_path_buf()
    } else {
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(".s{shard}"));
        PathBuf::from(os)
    }
}

/// Rotation scratch file for a shard file (unique per shard — the shard
/// suffix is part of the stem, not an extension swap).
fn rotate_tmp_path(spath: &Path) -> PathBuf {
    let mut os = spath.as_os_str().to_os_string();
    os.push(".rotate");
    PathBuf::from(os)
}

/// An immutable, sealed run of records starting at a fixed LSN. Shared out
/// under `Arc` so readers iterate without cloning records or holding the
/// log lock.
#[derive(Debug)]
struct Segment {
    base_lsn: u64,
    records: Vec<LogRecord>,
}

impl Segment {
    /// One past the LSN of the last record.
    fn end_lsn(&self) -> u64 {
        self.base_lsn + self.records.len() as u64
    }
}

/// Tuning knobs for a file-backed log.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// How long a shard's flusher waits after the first staged batch
    /// before issuing the combined write+fsync, to let concurrent
    /// committers pile into the same group. Zero (the default) flushes as
    /// soon as the flusher is free — grouping then happens naturally while
    /// a previous fsync is in flight.
    pub group_window: Duration,
    /// Durability shards: backing files and flusher threads. Clamped to at
    /// least 1. More shards let independent committers overlap fsyncs.
    pub shards: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            group_window: Duration::ZERO,
            shards: DEFAULT_WAL_SHARDS,
        }
    }
}

/// The WAL's durability counters, read off the registry at one moment
/// (each read is individually atomic; the set is advisory).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalStatsSnapshot {
    /// Combined write+fsync calls issued (`wal.flushes`).
    pub flushes: u64,
    /// Commit batches covered by those flushes (`wal.flushed_batches`).
    pub flushed_batches: u64,
    /// Bytes written (`wal.flushed_bytes`).
    pub flushed_bytes: u64,
    /// Checkpoint truncations performed (`wal.checkpoints`).
    pub checkpoints: u64,
    /// Records dropped from memory by truncation (`wal.truncated_records`).
    pub truncated_records: u64,
}

/// One scope's flush counters in the registry: `{prefix}.flushes`,
/// `{prefix}.flushed_batches` and `{prefix}.flushed_bytes`. The log keeps
/// one set for itself (`wal`) and one per shard (`wal.shard{i}`).
struct FlushCounters {
    flushes: Arc<Counter>,
    batches: Arc<Counter>,
    bytes: Arc<Counter>,
}

impl FlushCounters {
    fn register(reg: &Registry, prefix: &str) -> Self {
        let counter = |name: &str| reg.counter(reg.intern(&format!("{prefix}.{name}")));
        FlushCounters {
            flushes: counter("flushes"),
            batches: counter("flushed_batches"),
            bytes: counter("flushed_bytes"),
        }
    }

    fn record(&self, batches: u64, bytes: u64) {
        self.flushes.inc();
        self.batches.add(batches);
        self.bytes.add(bytes);
    }
}

/// One durability shard's staging state (under the log mutex). A batch is
/// one `(first_lsn, encoded payload)` entry; the flusher turns each into
/// one frame.
#[derive(Default)]
struct ShardPending {
    /// Encoded-but-unflushed batches, in LSN order.
    queue: Vec<(u64, Bytes)>,
    /// Batches in `queue`.
    queued_batches: u64,
    /// When the oldest staged batch arrived (drives the group window).
    pending_since: Option<Instant>,
    /// First LSN of the batch group currently being written+fsynced, if
    /// any. Pins the merged horizon until the flush completes.
    inflight_first: Option<u64>,
}

impl ShardPending {
    fn reset(&mut self) {
        self.queue.clear();
        self.queued_batches = 0;
        self.pending_since = None;
        self.inflight_first = None;
    }

    /// First LSN this shard has not yet made durable, if any.
    fn frontier(&self) -> Option<u64> {
        match (self.inflight_first, self.queue.first()) {
            (Some(a), Some((b, _))) => Some(a.min(*b)),
            (Some(a), None) => Some(a),
            (None, Some((b, _))) => Some(*b),
            (None, None) => None,
        }
    }
}

/// Log state under the (short) log mutex. Appenders extend the open
/// segment and stage pre-encoded bytes on their shard's queue; nothing
/// here does IO.
struct WalCore {
    /// Sealed, immutable segments in LSN order, all below `open_base`.
    sealed: Vec<Arc<Segment>>,
    /// The open segment's records; `open_base` is the LSN of `open[0]`.
    open: Vec<LogRecord>,
    open_base: u64,
    /// First retained LSN — records below it were checkpointed away.
    base_lsn: u64,
    /// Next LSN to assign (== `open_base + open.len()`).
    next_lsn: u64,
    /// Per-shard staging queues (file-backed logs only stage into them).
    shards: Vec<ShardPending>,
    /// Set by `Drop`; the flushers drain and exit.
    shutdown: bool,
}

impl WalCore {
    fn push(&mut self, record: LogRecord) {
        self.open.push(record);
        self.next_lsn += 1;
        if self.open.len() >= SEGMENT_RECORDS {
            let records = std::mem::take(&mut self.open);
            self.sealed.push(Arc::new(Segment {
                base_lsn: self.open_base,
                records,
            }));
            self.open_base = self.next_lsn;
        }
    }

    /// Visits every retained record with its LSN, in LSN order.
    fn for_each(&self, mut f: impl FnMut(u64, &LogRecord)) {
        for seg in &self.sealed {
            for (i, r) in seg.records.iter().enumerate() {
                let lsn = seg.base_lsn + i as u64;
                if lsn >= self.base_lsn {
                    f(lsn, r);
                }
            }
        }
        for (i, r) in self.open.iter().enumerate() {
            let lsn = self.open_base + i as u64;
            if lsn >= self.base_lsn {
                f(lsn, r);
            }
        }
    }
}

/// State shared between the log handle, its flusher threads, and any
/// outstanding [`CommitTicket`]s.
struct WalShared {
    core: Mutex<WalCore>,
    /// Per-shard: signaled when that shard's queue gains a batch or
    /// shutdown is requested. All condvars wait on `core`.
    shard_work: Vec<Condvar>,
    /// The commit barrier: signaled when `durable_lsn` or any per-shard
    /// frontier advances.
    durable: Condvar,
    /// The merged durable horizon: all records with LSN below this are on
    /// disk (in whichever shard file owns them). Every acknowledgement —
    /// every [`CommitTicket`] wait — parks on this, not on the
    /// acknowledging shard's own frontier: with locks released at
    /// enqueue time a commit may depend on an earlier-LSN batch staged on
    /// a *different* shard, and an ack must cover that dependency too.
    durable_lsn: AtomicU64,
    /// Bumped by rotation so an in-flight flush of pre-rotation bytes is
    /// discarded instead of being appended to the new files.
    file_epoch: AtomicU64,
    /// Set when a flush failed; waiters panic rather than hang.
    poisoned: AtomicBool,
    /// Per-shard append handles (file-backed logs only). A flusher never
    /// holds its file lock while waiting for `core`; rotation takes every
    /// file lock (index order) and then `core`.
    files: Vec<Mutex<Option<std::fs::File>>>,
    path: Option<PathBuf>,
    file_backed: bool,
    group_window: Duration,
    /// Registered retain horizons, by consumer id: a tailing log reader
    /// (e.g. a replication sender) records the first LSN it still needs,
    /// and [`Wal::truncate_to`] never cuts past the minimum of these.
    /// Lock order: `retain` before any file lock, before `core`.
    retain: Mutex<HashMap<u64, u64>>,
    /// Next consumer id to hand out.
    retain_next: AtomicU64,
    /// Commit-timestamp oracle: timestamps are drawn while `core` is
    /// held, which is exactly what keeps timestamp order and LSN order
    /// identical (the oracle's own lock nests inside `core` and is never
    /// taken the other way around).
    oracle: Arc<TsOracle>,
    /// Synchronous-replication gate: acked commit paths compose this on
    /// top of the merged durable horizon (local durability first, then
    /// the replica quorum). A no-op until `SET SYNC_REPLICAS` arms it.
    sync: Arc<SyncGate>,
    /// The log's handles into its registry, registered at construction.
    obs: WalObs,
}

/// The WAL's slice of the metrics registry. Histograms, all in
/// microseconds: `wal.append_us` (staging under the log mutex),
/// `wal.flush_us` (one combined write+fsync) and `wal.commit_wait_us`
/// (a committer blocked on the merged durable horizon — the
/// group-commit wait). Counters: the flush totals, log-wide and per
/// shard, and the checkpoint truncations.
struct WalObs {
    reg: Arc<Registry>,
    append: Arc<Histogram>,
    flush: Arc<Histogram>,
    commit_wait: Arc<Histogram>,
    total: FlushCounters,
    shards: Vec<FlushCounters>,
    checkpoints: Arc<Counter>,
    truncated_records: Arc<Counter>,
}

impl WalObs {
    fn register(reg: Arc<Registry>, nshards: usize) -> Self {
        WalObs {
            append: reg.histogram("wal.append_us"),
            flush: reg.histogram("wal.flush_us"),
            commit_wait: reg.histogram("wal.commit_wait_us"),
            total: FlushCounters::register(&reg, "wal"),
            shards: (0..nshards)
                .map(|i| FlushCounters::register(&reg, &format!("wal.shard{i}")))
                .collect(),
            checkpoints: reg.counter("wal.checkpoints"),
            truncated_records: reg.counter("wal.truncated_records"),
            reg,
        }
    }
}

/// Recomputes the merged durable horizon from the per-shard frontiers and
/// publishes it. Must be called with the `core` lock held — LSN
/// assignment and staging are atomic under it, so the computed minimum
/// can never miss a batch that exists but is not yet visible.
fn advance_durable(core: &WalCore, shared: &WalShared) {
    let mut horizon = core.next_lsn;
    for sp in &core.shards {
        // This shard's frontier: its oldest unflushed batch, or the log
        // head if it has nothing outstanding. Monotonic because LSNs only
        // grow and staging happens under the same lock.
        horizon = horizon.min(sp.frontier().unwrap_or(core.next_lsn));
    }
    if shared.durable_lsn.load(Ordering::Acquire) < horizon {
        shared.durable_lsn.store(horizon, Ordering::Release);
        shared.durable.notify_all();
    }
}

/// Blocks until the merged horizon covers `lsn`. Free function so
/// [`CommitTicket`]s can wait without borrowing the [`Wal`] handle.
fn wait_durable_shared(shared: &WalShared, lsn: u64) {
    if !shared.file_backed || shared.durable_lsn.load(Ordering::Acquire) >= lsn {
        return;
    }
    // Only the slow path records: the already-durable fast path would
    // flood the histogram with zero-length "waits" that are really just
    // the load above.
    let started = Instant::now();
    let mut core = shared.core.lock();
    while shared.durable_lsn.load(Ordering::Acquire) < lsn {
        if shared.poisoned.load(Ordering::Acquire) {
            panic!("WAL flusher failed; cannot guarantee durability");
        }
        shared.durable.wait(&mut core);
    }
    drop(core);
    shared.obs.commit_wait.record_micros(started.elapsed());
}

/// The acknowledgement handle [`Wal::append`] returns at enqueue time:
/// the batch is in the log and will be flushed by its shard, but may not
/// be durable yet. Detached from the `Wal` handle, so it can outlive it —
/// dropping the `Wal` drains every shard, at which point all tickets are
/// trivially durable.
#[derive(Clone)]
pub struct CommitTicket {
    /// `None` for read-only commits ([`Wal::durable_ticket`]): nothing was
    /// appended, so there is nothing to wait for and no gate to consult.
    shared: Option<Arc<WalShared>>,
    lsn: u64,
    /// The commit timestamp a stamped append drew.
    ts: Option<u64>,
}

impl CommitTicket {
    /// The LSN the merged durable horizon must reach for this commit to
    /// be durable (one past the batch's last record).
    pub fn wait_lsn(&self) -> u64 {
        self.lsn
    }

    /// The commit timestamp drawn for a stamped append (`None` otherwise).
    /// The caller owns finishing it: after installing its versions it
    /// must call [`TsOracle::finish`], or the stable horizon (and every
    /// future snapshot) stalls behind this commit forever — fenced or not,
    /// since the commit is in the log either way.
    pub fn commit_ts(&self) -> Option<u64> {
        self.ts
    }

    /// True once the merged horizon covers the batch (always, for an
    /// in-memory log). Never blocks.
    pub fn is_durable(&self) -> bool {
        match &self.shared {
            None => true,
            Some(s) => !s.file_backed || s.durable_lsn.load(Ordering::Acquire) >= self.lsn,
        }
    }

    /// Blocks until the merged durable horizon covers the batch — i.e.
    /// this commit *and every batch ordered before it on any shard* are
    /// on disk. The cross-shard wait is what makes the acknowledgement
    /// sound: an earlier enqueued commit whose locks were already
    /// released may be this one's dependency, and it must not be lost
    /// while this one survives. Panics if a flusher died of an IO error —
    /// acknowledging a commit without durability would be a lie.
    pub fn wait(&self) {
        if let Some(s) = &self.shared {
            wait_durable_shared(s, self.lsn);
        }
    }

    /// As [`CommitTicket::wait`], then additionally waits on the
    /// [`SyncGate`]: local durability first (merged horizon), replica
    /// quorum second. Returns how the commit may be acknowledged — a
    /// [`AckOutcome::Fenced`] commit is durable locally but must be
    /// reported to the client as a failure, because a promoted peer may
    /// never have seen it. In-memory logs consult the gate too, so a
    /// fenced node refuses their commits alike.
    pub fn wait_acked(&self) -> AckOutcome {
        match &self.shared {
            None => AckOutcome::Synced,
            Some(s) => {
                wait_durable_shared(s, self.lsn);
                s.sync.wait_acked(self.lsn)
            }
        }
    }
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("wait_lsn", &self.lsn)
            .field("durable", &self.is_durable())
            .finish()
    }
}

/// The write-ahead log: an append-only, atomically-batched, segmented
/// record list, optionally made durable across N shard files by
/// per-shard group-commit flusher threads.
pub struct Wal {
    shared: Arc<WalShared>,
    flushers: Vec<std::thread::JoinHandle<()>>,
}

impl Wal {
    /// An in-memory-only log: appends are visible immediately and
    /// durability waits return at once. Every constructor builds a
    /// fresh metrics [`Registry`] the log records into; a database
    /// adopts it as its own (see [`Wal::obs`]).
    pub fn new() -> Self {
        Wal {
            shared: Arc::new(Self::make_shared(None, WalOptions::default(), 0)),
            flushers: Vec::new(),
        }
    }

    /// A log mirrored to shard files rooted at `path` (created or appended
    /// to) with default options. Existing records in the files are **not**
    /// loaded into memory — use [`Wal::load_sharded`] first and replay
    /// them, as recovery does — but the LSN frontier resumes past them, so
    /// new appends never reuse an LSN already on disk.
    pub fn with_file(path: impl AsRef<Path>) -> Result<Self> {
        Self::with_file_opts(path, WalOptions::default())
    }

    /// As [`Wal::with_file`] with explicit [`WalOptions`].
    pub fn with_file_opts(path: impl AsRef<Path>, opts: WalOptions) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let nshards = opts.shards.max(1);
        let mut files = Vec::with_capacity(nshards);
        let mut next_lsn = 0u64;
        for i in 0..nshards {
            let (file, end) = open_shard(&shard_file_path(&path, i), i as u32, nshards as u32)?;
            next_lsn = next_lsn.max(end);
            files.push(file);
        }
        // A previous run may have used more shards; their files still
        // bound the LSN frontier (and recovery still merges them).
        let mut extra = nshards;
        loop {
            let spath = shard_file_path(&path, extra);
            if !spath.exists() {
                break;
            }
            let (base, frames) = load_shard_file(&spath)?;
            let end = frames.last().map(|(l, _)| l + 1).unwrap_or(base);
            next_lsn = next_lsn.max(end);
            extra += 1;
        }
        let shared = Arc::new(Self::make_shared(Some((path, files)), opts, next_lsn));
        let mut flushers = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let shared = Arc::clone(&shared);
            flushers.push(
                std::thread::Builder::new()
                    .name(format!("bullfrog-wal-flush-{i}"))
                    .spawn(move || flusher_loop(&shared, i))
                    .map_err(|e| Error::Wal(format!("spawn wal flusher: {e}")))?,
            );
        }
        Ok(Wal { shared, flushers })
    }

    fn make_shared(
        file: Option<(PathBuf, Vec<std::fs::File>)>,
        opts: WalOptions,
        start_lsn: u64,
    ) -> WalShared {
        let nshards = opts.shards.max(1);
        let (path, files) = match file {
            Some((p, fs)) => (
                Some(p),
                fs.into_iter().map(|f| Mutex::new(Some(f))).collect(),
            ),
            None => (None, Vec::new()),
        };
        let file_backed = path.is_some();
        WalShared {
            core: Mutex::new(WalCore {
                sealed: Vec::new(),
                open: Vec::new(),
                open_base: start_lsn,
                base_lsn: start_lsn,
                next_lsn: start_lsn,
                shards: (0..nshards).map(|_| ShardPending::default()).collect(),
                shutdown: false,
            }),
            shard_work: (0..nshards).map(|_| Condvar::new()).collect(),
            durable: Condvar::new(),
            durable_lsn: AtomicU64::new(start_lsn),
            file_epoch: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            files,
            path,
            file_backed,
            group_window: opts.group_window,
            retain: Mutex::new(HashMap::new()),
            retain_next: AtomicU64::new(0),
            oracle: Arc::new(TsOracle::new()),
            sync: Arc::new(SyncGate::default()),
            obs: WalObs::register(Arc::new(Registry::new()), nshards),
        }
    }

    /// Reads every shard file rooted at `path` — `path` itself plus each
    /// existing `<path>.s<i>` — and merges them into one LSN-ordered
    /// stream. Torn tail frames are tolerated. Duplicated LSNs (possible
    /// only from a crash between per-shard rotations) keep one copy; the
    /// copies are byte-identical because rotation rewrites the same
    /// records at the same LSNs.
    pub fn load_sharded(path: impl AsRef<Path>) -> Result<Vec<(u64, LogRecord)>> {
        let path = path.as_ref();
        let mut merged: BTreeMap<u64, LogRecord> = BTreeMap::new();
        for (lsn, r) in load_shard_file(path)?.1 {
            merged.insert(lsn, r);
        }
        let mut i = 1usize;
        loop {
            let spath = shard_file_path(path, i);
            if !spath.exists() {
                break;
            }
            for (lsn, r) in load_shard_file(&spath)?.1 {
                merged.insert(lsn, r);
            }
            i += 1;
        }
        Ok(merged.into_iter().collect())
    }

    /// Appends a batch atomically and returns its [`CommitTicket`] at
    /// enqueue time, without waiting for durability. A committing
    /// transaction appends its redo records and its commit record in one
    /// call, so no reader can observe a commit without its payload.
    ///
    /// With `stamp: Some(txn)` a [`LogRecord::CommitTs`] for `txn` closes
    /// the batch, its timestamp drawn **under the core mutex** so that two
    /// commits' timestamps compare exactly like their LSNs; the ticket
    /// carries it ([`CommitTicket::commit_ts`]). An empty unstamped batch
    /// stages nothing.
    ///
    /// The body is encoded outside the lock, so appenders pay
    /// serialization in parallel and the critical section is push + queue
    /// staging; only the fixed-size `CommitTs` is encoded inside it,
    /// because its timestamp does not exist until drawn.
    ///
    /// Acknowledge with [`CommitTicket::wait`] or
    /// [`CommitTicket::wait_acked`]. Both park on the merged horizon, not
    /// just the batch's own shard — required for correctness: asynchronous
    /// commits release locks at enqueue time, so this transaction may have
    /// read rows whose redo is still in flight on a neighbour shard at a
    /// lower LSN, and acknowledging it while that dependency can still be
    /// lost would let a crash recover a durable commit whose inputs never
    /// existed.
    pub fn append(
        &self,
        batch: impl IntoIterator<Item = LogRecord>,
        stamp: Option<TxnId>,
    ) -> CommitTicket {
        let started = Instant::now();
        let shared = &self.shared;
        let records: Vec<LogRecord> = batch.into_iter().collect();
        let owner = records.first().map(LogRecord::txn).or(stamp);
        let mut staged = match owner {
            Some(owner) if shared.file_backed => {
                let mut buf = BytesMut::new();
                for r in &records {
                    codec::put_record(&mut buf, r);
                }
                Some((buf, shard_of(owner, shared.shard_work.len())))
            }
            _ => None,
        };
        let mut core = shared.core.lock();
        let first = core.next_lsn;
        for r in records {
            core.push(r);
        }
        let ts = stamp.map(|txn| {
            let ts = shared.oracle.draw();
            let commit = LogRecord::CommitTs { txn, ts };
            if let Some((buf, _)) = &mut staged {
                codec::put_record(buf, &commit);
            }
            core.push(commit);
            ts
        });
        let end = core.next_lsn;
        if let Some((buf, shard)) = staged {
            let sp = &mut core.shards[shard];
            if sp.queue.is_empty() {
                sp.pending_since = Some(Instant::now());
            }
            sp.queue.push((first, buf.freeze()));
            sp.queued_batches += 1;
            shared.shard_work[shard].notify_one();
        }
        drop(core);
        shared.obs.append.record_micros(started.elapsed());
        CommitTicket {
            shared: Some(Arc::clone(shared)),
            lsn: end,
            ts,
        }
    }

    /// The commit-timestamp oracle stamped appends draw from (snapshot
    /// engines also read it for begin-snapshot and GC horizons).
    pub fn oracle(&self) -> Arc<TsOracle> {
        Arc::clone(&self.shared.oracle)
    }

    /// The synchronous-replication gate shared with every ticket minted
    /// from this log. Replication senders feed it acks; HA loops feed it
    /// lease/fence state; sessions configure it via `SET SYNC_REPLICAS`.
    pub fn sync_gate(&self) -> Arc<SyncGate> {
        Arc::clone(&self.shared.sync)
    }

    /// The metrics registry this log records into: the `wal.*` flush,
    /// checkpoint and latency metrics, registered when the log was
    /// built. A database keeps it as its one registry, so every layer
    /// above records beside the log.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.shared.obs.reg
    }

    /// A ticket for a commit that appended nothing (read-only
    /// transactions): carries the current horizon, never blocks, and
    /// acknowledges without consulting the gate.
    pub fn durable_ticket(&self) -> CommitTicket {
        CommitTicket {
            shared: None,
            lsn: self.durable_lsn(),
            ts: None,
        }
    }

    /// Forces everything appended so far to disk and waits for it.
    pub fn sync(&self) {
        let lsn = self.shared.core.lock().next_lsn;
        for cv in &self.shared.shard_work {
            cv.notify_one();
        }
        wait_durable_shared(&self.shared, lsn);
    }

    /// The merged durability horizon: every record below this LSN is on
    /// disk. Always 0 for in-memory logs that never reopened a file.
    pub fn durable_lsn(&self) -> u64 {
        self.shared.durable_lsn.load(Ordering::Acquire)
    }

    /// Total records ever appended — the end of the LSN space. Not
    /// reduced by checkpoint truncation; resumes past on-disk records
    /// when a log is reopened.
    pub fn len(&self) -> usize {
        self.shared.core.lock().next_lsn as usize
    }

    /// True when no records were ever written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First retained LSN (0 until a checkpoint truncates the log).
    pub fn base_lsn(&self) -> u64 {
        self.shared.core.lock().base_lsn
    }

    /// Records currently resident in memory (tail + partially-covered
    /// segments). Bounded after checkpoints, unlike `len()`.
    pub fn resident_records(&self) -> usize {
        let core = self.shared.core.lock();
        core.sealed.iter().map(|s| s.records.len()).sum::<usize>() + core.open.len()
    }

    /// Number of durability shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shard_work.len()
    }

    /// The log-wide durability counters, read off the registry.
    pub fn stats(&self) -> WalStatsSnapshot {
        let o = &self.shared.obs;
        WalStatsSnapshot {
            flushes: o.total.flushes.get(),
            flushed_batches: o.total.batches.get(),
            flushed_bytes: o.total.bytes.get(),
            checkpoints: o.checkpoints.get(),
            truncated_records: o.truncated_records.get(),
        }
    }

    /// Snapshot of the retained log (recovery input).
    pub fn snapshot(&self) -> Vec<LogRecord> {
        let core = self.shared.core.lock();
        self.collect_range(&core, core.base_lsn, core.next_lsn)
    }

    /// Clones the retained records with LSN in `[lo, hi)` (checkpoint
    /// input). Walks the segments; does not copy the rest of the log.
    pub fn records_in(&self, lo: u64, hi: u64) -> Vec<LogRecord> {
        let core = self.shared.core.lock();
        self.collect_range(&core, lo.max(core.base_lsn), hi.min(core.next_lsn))
    }

    fn collect_range(&self, core: &WalCore, lo: u64, hi: u64) -> Vec<LogRecord> {
        let mut out = Vec::new();
        core.for_each(|lsn, r| {
            if lsn >= lo && lsn < hi {
                out.push(r.clone());
            }
        });
        out
    }

    /// The end of the LSN space (the next LSN to be assigned). Unlike
    /// [`Wal::durable_lsn`] this moves at append time, so it is the right
    /// sample point for "everything logged after this instant".
    pub fn frontier(&self) -> u64 {
        self.shared.core.lock().next_lsn
    }

    /// As [`Wal::records_in`], but tagged with each record's LSN — the
    /// form a log shipper needs, since a reopened log's retained range
    /// does not start at 0 and recovery holes make the stream non-dense.
    pub fn records_with_lsns(&self, lo: u64, hi: u64) -> Vec<(u64, LogRecord)> {
        let core = self.shared.core.lock();
        let (lo, hi) = (lo.max(core.base_lsn), hi.min(core.next_lsn));
        let mut out = Vec::new();
        core.for_each(|lsn, r| {
            if lsn >= lo && lsn < hi {
                out.push((lsn, r.clone()));
            }
        });
        out
    }

    /// Durable-tail iteration for replication: up to `max` retained
    /// records with LSN in `[from, durable_lsn)`, plus the merged durable
    /// horizon itself. Only records below the horizon are ever returned,
    /// so a consumer can never observe a commit the log would refuse to
    /// acknowledge (an unflushed batch on some shard below it).
    pub fn durable_records_from(&self, from: u64, max: usize) -> (Vec<(u64, LogRecord)>, u64) {
        let core = self.shared.core.lock();
        let durable = self.shared.durable_lsn.load(Ordering::Acquire);
        let lo = from.max(core.base_lsn);
        let mut out = Vec::new();
        core.for_each(|lsn, r| {
            if lsn >= lo && lsn < durable && out.len() < max {
                out.push((lsn, r.clone()));
            }
        });
        (out, durable)
    }

    /// Blocks until the merged horizon reaches `lsn` or `timeout`
    /// elapses; returns the horizon either way. The tailing-reader
    /// variant of [`CommitTicket::wait`] — a sender with nothing to ship
    /// parks here instead of spinning.
    pub fn wait_durable_timeout(&self, lsn: u64, timeout: Duration) -> u64 {
        if !self.shared.file_backed {
            return self.shared.durable_lsn.load(Ordering::Acquire);
        }
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.core.lock();
        loop {
            let durable = self.shared.durable_lsn.load(Ordering::Acquire);
            if durable >= lsn || self.shared.poisoned.load(Ordering::Acquire) {
                return durable;
            }
            let now = Instant::now();
            if now >= deadline {
                return durable;
            }
            self.shared.durable.wait_for(&mut core, deadline - now);
        }
    }

    // --- Retain horizons ---------------------------------------------------

    /// Registers a log consumer that still needs every record at or above
    /// `at`: [`Wal::truncate_to`] will not cut past it. Returns the
    /// consumer id and the granted horizon — `at` clamped up to the
    /// current base LSN. A caller that asked for less than the base must
    /// treat the gap as already gone (for replication: fetch a snapshot).
    pub fn register_retain(&self, at: u64) -> (u64, u64) {
        let mut retain = self.shared.retain.lock();
        let base = self.shared.core.lock().base_lsn;
        let granted = at.max(base);
        let id = self.shared.retain_next.fetch_add(1, Ordering::Relaxed);
        retain.insert(id, granted);
        (id, granted)
    }

    /// Moves consumer `id`'s horizon forward to `lsn` (never backward).
    pub fn advance_retain(&self, id: u64, lsn: u64) {
        let mut retain = self.shared.retain.lock();
        if let Some(h) = retain.get_mut(&id) {
            *h = (*h).max(lsn);
        }
    }

    /// Drops consumer `id`'s horizon; the log may truncate past it again.
    pub fn release_retain(&self, id: u64) {
        self.shared.retain.lock().remove(&id);
    }

    /// The lowest registered retain horizon, if any consumer is live.
    pub fn retain_floor(&self) -> Option<u64> {
        self.shared.retain.lock().values().min().copied()
    }

    /// Serializes the retained log to its binary image. Sealed segments
    /// are shared out of the lock; only the open segment is cloned.
    pub fn encode_all(&self) -> Bytes {
        let (sealed, open, base) = {
            let core = self.shared.core.lock();
            (core.sealed.clone(), core.open.clone(), core.base_lsn)
        };
        let mut buf = BytesMut::new();
        for seg in &sealed {
            for (i, r) in seg.records.iter().enumerate() {
                if seg.base_lsn + i as u64 >= base {
                    codec::put_record(&mut buf, r);
                }
            }
        }
        for r in &open {
            codec::put_record(&mut buf, r);
        }
        buf.freeze()
    }

    /// Parses a binary image produced by [`Wal::encode_all`].
    pub fn decode_all(mut bytes: Bytes) -> Result<Vec<LogRecord>> {
        let mut out = Vec::new();
        while bytes.has_remaining() {
            out.push(codec::get_record(&mut bytes)?);
        }
        Ok(out)
    }

    /// The largest transaction-interval-safe cut: no transaction has
    /// records both below and at-or-above the returned LSN (transactions
    /// without a `Commit`/`Abort` yet may still append, so they pin the
    /// cut below their first record). Found by a decreasing fixpoint from
    /// the log end; never below the current base LSN.
    pub fn safe_cut(&self) -> u64 {
        let core = self.shared.core.lock();
        // (first record LSN, last record LSN, resolved?) per txn.
        let mut spans: HashMap<TxnId, (u64, u64, bool)> = HashMap::new();
        core.for_each(|lsn, r| {
            let e = spans.entry(r.txn()).or_insert((lsn, lsn, false));
            e.1 = lsn;
            e.2 |= r.resolves();
        });
        let mut cut = core.next_lsn;
        loop {
            let mut moved = false;
            for (first, last, resolved) in spans.values() {
                let hi = if *resolved { *last } else { u64::MAX };
                if *first < cut && cut <= hi {
                    cut = *first;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        cut.max(core.base_lsn)
    }

    /// Truncates the log at `cut` (clamped to a valid range): sealed
    /// segments wholly below `cut` and the covered prefix of the open
    /// segment are dropped from memory, and every shard file of a
    /// file-backed log is rotated to a fresh file holding only that
    /// shard's records at or above `cut`. The rotation images are built
    /// from the in-memory record store — a superset of anything staged or
    /// in flight — and the rotation itself fsyncs, so the whole tail
    /// becomes durable and no staged-but-unflushed batch can be lost to a
    /// racing checkpoint. Returns the records dropped.
    ///
    /// The caller is responsible for having persisted a checkpoint image
    /// covering everything below `cut` first, and for picking a
    /// transaction-safe `cut` (see [`Wal::safe_cut`]).
    pub fn truncate_to(&self, cut: u64) -> Result<u64> {
        let shared = &self.shared;
        // Lock order: retain registry, then every shard file (index
        // order), then core — the flushers take core and file locks in
        // sequence but never hold a file lock while waiting for core, so
        // this cannot deadlock. Holding `retain` across the whole
        // truncation means a consumer registering concurrently either
        // sees the pre-cut base (and is granted its horizon) or the
        // post-cut base (and is clamped up to it) — never a base that
        // moves out from under a granted horizon.
        let retain = shared.retain.lock();
        let mut file_guards: Vec<_> = shared.files.iter().map(|m| m.lock()).collect();
        let mut core = shared.core.lock();
        let mut cut = cut.clamp(core.base_lsn, core.next_lsn);
        // A registered consumer (a replication sender's slowest replica)
        // pins the cut: frames must not disappear under a tailing reader.
        if let Some(floor) = retain.values().min() {
            cut = cut.min((*floor).max(core.base_lsn));
        }
        if shared.file_backed {
            let n = core.shards.len();
            let mut images: Vec<BytesMut> = (0..n)
                .map(|i| {
                    let mut b = BytesMut::new();
                    b.put_slice(&encode_header(cut, i as u32, n as u32));
                    b
                })
                .collect();
            // Coalesce each shard's records into frames of contiguous
            // LSN runs (a shard sees gaps where other shards' records
            // interleave).
            struct Run {
                first: u64,
                count: u64,
                payload: BytesMut,
            }
            let mut runs: Vec<Option<Run>> = (0..n).map(|_| None).collect();
            core.for_each(|lsn, r| {
                if lsn < cut {
                    return;
                }
                let s = shard_of(r.txn(), n);
                if let Some(run) = &runs[s] {
                    if run.first + run.count != lsn {
                        let run = runs[s].take().expect("checked above");
                        put_frame(&mut images[s], run.first, &run.payload);
                    }
                }
                match &mut runs[s] {
                    Some(run) => {
                        codec::put_record(&mut run.payload, r);
                        run.count += 1;
                        if run.payload.len() >= MAX_ROTATION_FRAME {
                            let run = runs[s].take().expect("just matched");
                            put_frame(&mut images[s], run.first, &run.payload);
                        }
                    }
                    None => {
                        let mut payload = BytesMut::new();
                        codec::put_record(&mut payload, r);
                        runs[s] = Some(Run {
                            first: lsn,
                            count: 1,
                            payload,
                        });
                    }
                }
            });
            for (s, run) in runs.into_iter().enumerate() {
                if let Some(run) = run {
                    put_frame(&mut images[s], run.first, &run.payload);
                }
            }
            let path = shared.path.as_ref().expect("file-backed wal has a path");
            for (s, guard) in file_guards.iter_mut().enumerate() {
                let spath = shard_file_path(path, s);
                let tmp = rotate_tmp_path(&spath);
                let image = &images[s];
                let rotated = (|| -> std::io::Result<std::fs::File> {
                    let mut f = std::fs::File::create(&tmp)?;
                    f.write_all(image)?;
                    f.sync_all()?;
                    std::fs::rename(&tmp, &spath)?;
                    std::fs::OpenOptions::new().append(true).open(&spath)
                })()
                .map_err(|e| Error::Wal(format!("rotate wal file: {e}")))?;
                **guard = Some(rotated);
            }
            // A previous run may have used more shards. Those trailing
            // `.s<i>` files hold only records below the LSN this log
            // opened at (the frontier resumed past them), hence below
            // `cut` and covered by the caller's checkpoint image — so
            // delete them here instead of letting fully-checkpointed
            // records accumulate and be re-read (then discarded) by
            // every future recovery.
            let mut extra = n;
            loop {
                let spath = shard_file_path(path, extra);
                if !spath.exists() {
                    break;
                }
                std::fs::remove_file(&spath)
                    .map_err(|e| Error::Wal(format!("remove stale wal shard file: {e}")))?;
                extra += 1;
            }
            shared.file_epoch.fetch_add(1, Ordering::AcqRel);
            // Everything the rotation wrote is durable (it covered every
            // staged and in-flight batch); any in-flight flusher buffer
            // is discarded via the epoch check.
            for sp in &mut core.shards {
                sp.reset();
            }
            advance_durable(&core, shared);
        }
        let mut dropped = 0u64;
        core.sealed.retain(|seg| {
            if seg.end_lsn() <= cut {
                dropped += seg.records.len() as u64;
                false
            } else {
                true
            }
        });
        if cut > core.open_base {
            let covered = (cut - core.open_base) as usize;
            core.open.drain(..covered);
            core.open_base = cut;
            dropped += covered as u64;
        }
        core.base_lsn = cut;
        shared.obs.truncated_records.add(dropped);
        shared.obs.checkpoints.inc();
        Ok(dropped)
    }

    /// Test hook: `(durable_lsn, per-shard frontier minimum, next_lsn)`
    /// captured atomically under the core lock, for asserting the merged
    /// horizon invariant `durable <= floor <= next`.
    #[cfg(test)]
    pub(crate) fn horizon_parts(&self) -> (u64, u64, u64) {
        let core = self.shared.core.lock();
        let mut floor = core.next_lsn;
        for sp in &core.shards {
            if let Some(f) = sp.frontier() {
                floor = floor.min(f);
            }
        }
        (
            self.shared.durable_lsn.load(Ordering::Acquire),
            floor,
            core.next_lsn,
        )
    }
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.flushers.is_empty() {
            return;
        }
        {
            let mut core = self.shared.core.lock();
            core.shutdown = true;
        }
        for cv in &self.shared.shard_work {
            cv.notify_all();
        }
        let mut failed = false;
        for handle in self.flushers.drain(..) {
            failed |= handle.join().is_err();
        }
        if failed && !std::thread::panicking() {
            panic!("WAL flusher thread panicked");
        }
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.len())
            .field("base_lsn", &self.base_lsn())
            .field("durable_lsn", &self.durable_lsn())
            .field("shards", &self.shard_count())
            .finish()
    }
}

/// One shard's group-commit flusher: drains its staging queue with one
/// combined write+fsync per wakeup (one frame per batch), then advances
/// the merged horizon and wakes every committer it covered. Exits when
/// the log shuts down and the queue is drained.
fn flusher_loop(shared: &WalShared, shard: usize) {
    loop {
        let (frames, batches, epoch) = {
            let mut core = shared.core.lock();
            loop {
                if core.shards[shard].queue.is_empty() {
                    if core.shutdown {
                        return;
                    }
                    shared.shard_work[shard].wait(&mut core);
                    continue;
                }
                if !core.shutdown && !shared.group_window.is_zero() {
                    let deadline = core.shards[shard]
                        .pending_since
                        .expect("staged batch implies since")
                        + shared.group_window;
                    if Instant::now() < deadline {
                        shared.shard_work[shard].wait_until(&mut core, deadline);
                        continue;
                    }
                }
                break;
            }
            let sp = &mut core.shards[shard];
            let frames = std::mem::take(&mut sp.queue);
            let batches = std::mem::replace(&mut sp.queued_batches, 0);
            sp.pending_since = None;
            sp.inflight_first = Some(frames[0].0);
            (frames, batches, shared.file_epoch.load(Ordering::Acquire))
        };
        let mut buf = BytesMut::new();
        for (first, payload) in &frames {
            put_frame(&mut buf, *first, payload);
        }
        let started = Instant::now();
        let mut rotated_away = false;
        {
            let mut file = shared.files[shard].lock();
            if shared.file_epoch.load(Ordering::Acquire) != epoch {
                // A checkpoint rotated the files between our queue swap
                // and this write; the rotation already persisted (or
                // dropped) these records. Writing them would duplicate.
                rotated_away = true;
            } else if let Some(f) = file.as_mut() {
                if let Err(e) = f.write_all(&buf).and_then(|()| f.sync_data()) {
                    shared.poisoned.store(true, Ordering::Release);
                    drop(file);
                    let _core = shared.core.lock();
                    shared.durable.notify_all();
                    panic!("WAL flush failed; cannot guarantee durability: {e}");
                }
            }
        }
        if !rotated_away {
            let o = &shared.obs;
            o.flush.record_micros(started.elapsed());
            o.total.record(batches, buf.len() as u64);
            o.shards[shard].record(batches, buf.len() as u64);
        }
        {
            let mut core = shared.core.lock();
            core.shards[shard].inflight_first = None;
            advance_durable(&core, shared);
        }
    }
}

// --- shard file helpers --------------------------------------------------

/// Current-format (`BFWAL4`) header bytes for one shard file.
fn encode_header(base_lsn: u64, shard: u32, shards: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..FILE_MAGIC.len()].copy_from_slice(&FILE_MAGIC);
    h[6..14].copy_from_slice(&base_lsn.to_be_bytes());
    h[14..18].copy_from_slice(&shard.to_be_bytes());
    h[18..22].copy_from_slice(&shards.to_be_bytes());
    h
}

/// Reads a shard file's header: `Some(base_lsn)` for a `BFWAL4` file,
/// `None` for a file shorter than a header whose bytes are a prefix of
/// one (a crash tore the header write, so the log is empty), and an
/// error for anything else.
fn parse_file_header(bytes: &[u8]) -> Result<Option<u64>> {
    let magic = bytes.len().min(FILE_MAGIC.len());
    if bytes[..magic] != FILE_MAGIC[..magic] {
        return Err(Error::Wal("not a BFWAL4 log file".into()));
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut base = [0u8; 8];
    base.copy_from_slice(&bytes[6..14]);
    Ok(Some(u64::from_be_bytes(base)))
}

/// Appends one frame: `first_lsn:u64 nbytes:u32 payload`. The length
/// field is a u32; a payload past that would silently truncate `nbytes`
/// and tear the frame stream at decode, so oversized payloads are a hard
/// error here (rotation splits long runs well below this; a single
/// transaction batch this large is unsupported).
fn put_frame(buf: &mut BytesMut, first_lsn: u64, payload: &[u8]) {
    assert!(
        payload.len() <= u32::MAX as usize,
        "WAL frame payload of {} bytes overflows the u32 length field",
        payload.len()
    );
    buf.put_u64(first_lsn);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
}

/// Decodes frames from `bytes[start..]`, returning LSN-tagged records and
/// the byte offset of the end of the last complete frame (a torn tail —
/// short frame header, short payload, or a payload whose records do not
/// decode cleanly — stops the scan there).
fn decode_frames(bytes: &[u8], start: usize) -> (Vec<(u64, LogRecord)>, usize) {
    let mut out = Vec::new();
    let mut pos = start;
    loop {
        if bytes.len().saturating_sub(pos) < FRAME_HEADER_LEN {
            break;
        }
        let mut first = [0u8; 8];
        first.copy_from_slice(&bytes[pos..pos + 8]);
        let first = u64::from_be_bytes(first);
        let mut nbytes = [0u8; 4];
        nbytes.copy_from_slice(&bytes[pos + 8..pos + 12]);
        let n = u32::from_be_bytes(nbytes) as usize;
        if bytes.len().saturating_sub(pos + FRAME_HEADER_LEN) < n {
            break;
        }
        let payload =
            Bytes::copy_from_slice(&bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + n]);
        let (records, consumed) = decode_prefix(payload);
        if consumed != n {
            break;
        }
        for (i, r) in records.into_iter().enumerate() {
            out.push((first + i as u64, r));
        }
        pos += FRAME_HEADER_LEN + n;
    }
    (out, pos)
}

/// Decodes records until the bytes run out or a record is torn;
/// returns the records and how many bytes were consumed cleanly.
fn decode_prefix(mut buf: Bytes) -> (Vec<LogRecord>, usize) {
    let mut out = Vec::new();
    let mut consumed = 0usize;
    while buf.has_remaining() {
        let before = buf.remaining();
        match codec::get_record(&mut buf) {
            Ok(r) => {
                out.push(r);
                consumed += before - buf.remaining();
            }
            Err(_) => break,
        }
    }
    (out, consumed)
}

/// Opens one shard file for appending, returning the append handle and
/// one past the highest LSN the file holds. A fresh file, or one whose
/// header write a crash tore, gets a fresh `BFWAL4` header; torn tail
/// frames are truncated away so the next flush appends cleanly. A file
/// in any other format is refused and left as it is.
fn open_shard(spath: &Path, shard: u32, shards: u32) -> Result<(std::fs::File, u64)> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(spath)
        .map_err(|e| Error::Wal(format!("open wal file: {e}")))?;
    let bytes = std::fs::read(spath).map_err(|e| Error::Wal(format!("read wal file: {e}")))?;
    let Some(base) = parse_file_header(&bytes)? else {
        file.set_len(0)
            .map_err(|e| Error::Wal(format!("reset torn wal header: {e}")))?;
        file.write_all(&encode_header(0, shard, shards))
            .and_then(|()| file.sync_data())
            .map_err(|e| Error::Wal(format!("write wal header: {e}")))?;
        return Ok((file, 0));
    };
    let (frames, clean) = decode_frames(&bytes, HEADER_LEN);
    if clean < bytes.len() {
        // Torn tail from a crash mid-flush: drop it so appended frames
        // stay scannable.
        file.set_len(clean as u64)
            .map_err(|e| Error::Wal(format!("truncate torn wal tail: {e}")))?;
    }
    let end = frames.last().map(|(l, _)| l + 1).unwrap_or(base).max(base);
    Ok((file, end))
}

/// Reads one shard file into its base LSN and LSN-tagged records.
fn load_shard_file(spath: &Path) -> Result<(u64, Vec<(u64, LogRecord)>)> {
    let bytes = std::fs::read(spath).map_err(|e| Error::Wal(format!("read wal file: {e}")))?;
    Ok(match parse_file_header(&bytes)? {
        Some(base) => (base, decode_frames(&bytes, HEADER_LEN).0),
        None => (0, Vec::new()),
    })
}

// --- binary format -------------------------------------------------------
//
// file    := header frame*
// header  := "BFWAL4" base_lsn:u64 shard:u32 shards:u32
// frame   := first_lsn:u64 nbytes:u32 record*
// record  := tag:u8 body
// value   := vtag:u8 payload
// row     := count:u32 value*
// string  := len:u32 utf8-bytes

/// The record codec: the log's on-disk record encoding, shared with the
/// checkpoint image in `bullfrog-engine`, the BFNET1 wire protocol, and
/// replication `FRAMES` (same value/row/granule encoding everywhere).
pub mod codec {
    use bullfrog_common::{Error, Result, Row, RowId, TableId, TxnId, Value};
    use bytes::{Buf, BufMut, Bytes};

    use super::{GranuleKey, LogRecord};

    const TAG_BEGIN: u8 = 1;
    const TAG_INSERT: u8 = 2;
    const TAG_UPDATE: u8 = 3;
    const TAG_DELETE: u8 = 4;
    const TAG_GRANULE: u8 = 5;
    const TAG_COMMIT: u8 = 6;
    const TAG_ABORT: u8 = 7;
    /// Commit with an explicit commit timestamp.
    const TAG_COMMIT_TS: u8 = 8;
    /// Fencing-epoch raise.
    const TAG_EPOCH: u8 = 9;

    /// Encodes a full log record (the WAL's on-disk record format; also
    /// the payload format of replication `FRAMES`).
    pub fn put_record(buf: &mut impl BufMut, r: &LogRecord) {
        match r {
            LogRecord::Begin(t) => {
                buf.put_u8(TAG_BEGIN);
                buf.put_u64(t.0);
            }
            LogRecord::Insert {
                txn,
                table,
                rid,
                row,
            } => {
                buf.put_u8(TAG_INSERT);
                buf.put_u64(txn.0);
                buf.put_u32(table.0);
                put_rid(buf, *rid);
                put_row(buf, row);
            }
            LogRecord::Update {
                txn,
                table,
                rid,
                after,
            } => {
                buf.put_u8(TAG_UPDATE);
                buf.put_u64(txn.0);
                buf.put_u32(table.0);
                put_rid(buf, *rid);
                put_row(buf, after);
            }
            LogRecord::Delete { txn, table, rid } => {
                buf.put_u8(TAG_DELETE);
                buf.put_u64(txn.0);
                buf.put_u32(table.0);
                put_rid(buf, *rid);
            }
            LogRecord::MigrationGranule {
                txn,
                migration,
                granule,
            } => {
                buf.put_u8(TAG_GRANULE);
                buf.put_u64(txn.0);
                buf.put_u32(*migration);
                put_granule(buf, granule);
            }
            LogRecord::Commit(t) => {
                buf.put_u8(TAG_COMMIT);
                buf.put_u64(t.0);
            }
            LogRecord::CommitTs { txn, ts } => {
                buf.put_u8(TAG_COMMIT_TS);
                buf.put_u64(txn.0);
                buf.put_u64(*ts);
            }
            LogRecord::Abort(t) => {
                buf.put_u8(TAG_ABORT);
                buf.put_u64(t.0);
            }
            LogRecord::Epoch { txn, epoch } => {
                buf.put_u8(TAG_EPOCH);
                buf.put_u64(txn.0);
                buf.put_u64(*epoch);
            }
        }
    }

    /// Decodes a log record written by [`put_record`].
    pub fn get_record(buf: &mut Bytes) -> Result<LogRecord> {
        if buf.remaining() < 1 {
            return Err(Error::Wal("truncated record tag".into()));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_BEGIN => Ok(LogRecord::Begin(TxnId(get_u64(buf)?))),
            TAG_INSERT => Ok(LogRecord::Insert {
                txn: TxnId(get_u64(buf)?),
                table: TableId(get_u32(buf)?),
                rid: get_rid(buf)?,
                row: get_row(buf)?,
            }),
            TAG_UPDATE => Ok(LogRecord::Update {
                txn: TxnId(get_u64(buf)?),
                table: TableId(get_u32(buf)?),
                rid: get_rid(buf)?,
                after: get_row(buf)?,
            }),
            TAG_DELETE => Ok(LogRecord::Delete {
                txn: TxnId(get_u64(buf)?),
                table: TableId(get_u32(buf)?),
                rid: get_rid(buf)?,
            }),
            TAG_GRANULE => {
                let txn = TxnId(get_u64(buf)?);
                let migration = get_u32(buf)?;
                let granule = get_granule(buf)?;
                Ok(LogRecord::MigrationGranule {
                    txn,
                    migration,
                    granule,
                })
            }
            TAG_COMMIT => Ok(LogRecord::Commit(TxnId(get_u64(buf)?))),
            TAG_ABORT => Ok(LogRecord::Abort(TxnId(get_u64(buf)?))),
            TAG_COMMIT_TS => Ok(LogRecord::CommitTs {
                txn: TxnId(get_u64(buf)?),
                ts: get_u64(buf)?,
            }),
            TAG_EPOCH => Ok(LogRecord::Epoch {
                txn: TxnId(get_u64(buf)?),
                epoch: get_u64(buf)?,
            }),
            t => Err(Error::Wal(format!("bad record tag {t}"))),
        }
    }

    /// Encodes a granule key.
    pub fn put_granule(buf: &mut impl BufMut, granule: &GranuleKey) {
        match granule {
            GranuleKey::Ordinal(o) => {
                buf.put_u8(0);
                buf.put_u64(*o);
            }
            GranuleKey::Group(vals) => {
                buf.put_u8(1);
                buf.put_u32(vals.len() as u32);
                for v in vals {
                    put_value(buf, v);
                }
            }
        }
    }

    /// Decodes a granule key.
    pub fn get_granule(buf: &mut Bytes) -> Result<GranuleKey> {
        match get_u8(buf)? {
            0 => Ok(GranuleKey::Ordinal(get_u64(buf)?)),
            1 => {
                let n = get_u32(buf)? as usize;
                let mut vals = Vec::with_capacity(n);
                for _ in 0..n {
                    vals.push(get_value(buf)?);
                }
                Ok(GranuleKey::Group(vals))
            }
            k => Err(Error::Wal(format!("bad granule kind {k}"))),
        }
    }

    /// Encodes a row id.
    pub fn put_rid(buf: &mut impl BufMut, rid: RowId) {
        buf.put_u32(rid.page());
        buf.put_u16(rid.slot());
    }

    /// Decodes a row id.
    pub fn get_rid(buf: &mut Bytes) -> Result<RowId> {
        Ok(RowId::new(get_u32(buf)?, get_u16(buf)?))
    }

    /// Encodes a row.
    pub fn put_row(buf: &mut impl BufMut, row: &Row) {
        buf.put_u32(row.arity() as u32);
        for v in row.iter() {
            put_value(buf, v);
        }
    }

    /// Decodes a row.
    pub fn get_row(buf: &mut Bytes) -> Result<Row> {
        let n = get_u32(buf)? as usize;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(get_value(buf)?);
        }
        Ok(Row(vals))
    }

    fn put_value(buf: &mut impl BufMut, v: &Value) {
        match v {
            Value::Null => buf.put_u8(0),
            Value::Bool(b) => {
                buf.put_u8(1);
                buf.put_u8(*b as u8);
            }
            Value::Int(i) => {
                buf.put_u8(2);
                buf.put_i64(*i);
            }
            Value::Float(f) => {
                buf.put_u8(3);
                buf.put_f64(*f);
            }
            Value::Decimal(d) => {
                buf.put_u8(4);
                buf.put_i64(*d);
            }
            Value::Text(s) => {
                buf.put_u8(5);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Date(d) => {
                buf.put_u8(6);
                buf.put_i32(*d);
            }
            Value::Timestamp(t) => {
                buf.put_u8(7);
                buf.put_i64(*t);
            }
        }
    }

    fn get_value(buf: &mut Bytes) -> Result<Value> {
        match get_u8(buf)? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(get_u8(buf)? != 0)),
            2 => Ok(Value::Int(get_i64(buf)?)),
            3 => {
                if buf.remaining() < 8 {
                    return Err(Error::Wal("truncated float".into()));
                }
                Ok(Value::Float(buf.get_f64()))
            }
            4 => Ok(Value::Decimal(get_i64(buf)?)),
            5 => {
                let n = get_u32(buf)? as usize;
                if buf.remaining() < n {
                    return Err(Error::Wal("truncated string".into()));
                }
                let bytes = buf.copy_to_bytes(n);
                String::from_utf8(bytes.to_vec())
                    .map(Value::Text)
                    .map_err(|_| Error::Wal("invalid utf8 in string".into()))
            }
            6 => {
                if buf.remaining() < 4 {
                    return Err(Error::Wal("truncated date".into()));
                }
                Ok(Value::Date(buf.get_i32()))
            }
            7 => Ok(Value::Timestamp(get_i64(buf)?)),
            t => Err(Error::Wal(format!("bad value tag {t}"))),
        }
    }

    fn get_u8(buf: &mut Bytes) -> Result<u8> {
        if buf.remaining() < 1 {
            return Err(Error::Wal("truncated u8".into()));
        }
        Ok(buf.get_u8())
    }

    fn get_u16(buf: &mut Bytes) -> Result<u16> {
        if buf.remaining() < 2 {
            return Err(Error::Wal("truncated u16".into()));
        }
        Ok(buf.get_u16())
    }

    /// Decodes a u32 with truncation checking.
    pub fn get_u32(buf: &mut Bytes) -> Result<u32> {
        if buf.remaining() < 4 {
            return Err(Error::Wal("truncated u32".into()));
        }
        Ok(buf.get_u32())
    }

    /// Decodes a u64 with truncation checking.
    pub fn get_u64(buf: &mut Bytes) -> Result<u64> {
        if buf.remaining() < 8 {
            return Err(Error::Wal("truncated u64".into()));
        }
        Ok(buf.get_u64())
    }

    fn get_i64(buf: &mut Bytes) -> Result<i64> {
        if buf.remaining() < 8 {
            return Err(Error::Wal("truncated i64".into()));
        }
        Ok(buf.get_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::row;
    use proptest::prelude::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin(TxnId(1)),
            LogRecord::Insert {
                txn: TxnId(1),
                table: TableId(2),
                rid: RowId::new(0, 3),
                row: row![42, "hello", 2.5],
            },
            LogRecord::Update {
                txn: TxnId(1),
                table: TableId(2),
                rid: RowId::new(0, 3),
                after: Row(vec![Value::Null, Value::Bool(true), Value::Decimal(199)]),
            },
            LogRecord::Delete {
                txn: TxnId(1),
                table: TableId(2),
                rid: RowId::new(1, 0),
            },
            LogRecord::MigrationGranule {
                txn: TxnId(1),
                migration: 7,
                granule: GranuleKey::Ordinal(12345),
            },
            LogRecord::MigrationGranule {
                txn: TxnId(1),
                migration: 7,
                granule: GranuleKey::Group(vec![Value::Int(1), Value::text("grp")]),
            },
            LogRecord::Commit(TxnId(1)),
            LogRecord::Abort(TxnId(2)),
        ]
    }

    /// Removes a WAL's shard 0 file and every `.sN` sibling (leftover
    /// shard files from another run would otherwise pollute the LSN
    /// frontier of the next test using the same tag).
    fn remove_sharded(path: &Path) {
        let _ = std::fs::remove_file(path);
        let mut i = 1usize;
        while std::fs::remove_file(shard_file_path(path, i)).is_ok() {
            i += 1;
        }
    }

    /// A per-test temp file path (tests run in one process, so the pid
    /// alone is not unique).
    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bullfrog-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.wal"));
        remove_sharded(&path);
        path
    }

    fn one_shard(group_window: Duration) -> WalOptions {
        WalOptions {
            group_window,
            shards: 1,
        }
    }

    /// Every shard file's records, merged in LSN order, without LSNs.
    fn load(path: &Path) -> Vec<LogRecord> {
        let merged = Wal::load_sharded(path).unwrap();
        merged.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn binary_round_trip() {
        let wal = Wal::new();
        wal.append(sample_records(), None);
        let bytes = wal.encode_all();
        let decoded = Wal::decode_all(bytes).unwrap();
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn commit_ts_round_trips_and_resolves() {
        let rec = LogRecord::CommitTs {
            txn: TxnId(7),
            ts: 41,
        };
        let mut buf = BytesMut::new();
        codec::put_record(&mut buf, &rec);
        let mut bytes = buf.freeze();
        assert_eq!(codec::get_record(&mut bytes).unwrap(), rec);
        assert_eq!(rec.txn(), TxnId(7));
        assert_eq!(rec.commit_ts(), Some(41));
        assert!(rec.is_commit());
        assert_eq!(LogRecord::Commit(TxnId(7)).commit_ts(), None);
    }

    #[test]
    fn stamped_append_draws_ts_in_lsn_order() {
        let wal = Arc::new(Wal::new());
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let txn = TxnId(t * 1000 + i);
                    let batch = vec![
                        LogRecord::Begin(txn),
                        LogRecord::Delete {
                            txn,
                            table: TableId(1),
                            rid: RowId::new(0, 0),
                        },
                    ];
                    let ts = wal.append(batch, Some(txn)).commit_ts().unwrap();
                    wal.oracle().finish(ts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Commit timestamps must appear in strictly increasing LSN order.
        let mut last_ts = 0;
        for r in wal.snapshot() {
            if let Some(ts) = r.commit_ts() {
                assert!(ts > last_ts, "ts {ts} out of LSN order (prev {last_ts})");
                last_ts = ts;
            }
        }
        assert_eq!(last_ts, 400);
        assert_eq!(wal.oracle().stable(), 400);
    }

    #[test]
    fn foreign_header_is_refused_and_left_untouched() {
        let path = temp_wal("foreign");
        let mut records = BytesMut::new();
        for r in &sample_records() {
            codec::put_record(&mut records, r);
        }
        let mut bfwal1 = b"BFWAL1".to_vec();
        bfwal1.extend_from_slice(&5u64.to_be_bytes());
        bfwal1.extend_from_slice(&records);
        let mut bfwal2 = BytesMut::new();
        bfwal2.put_slice(b"BFWAL2");
        bfwal2.put_slice(&encode_header(0, 0, 1)[FILE_MAGIC.len()..]);
        put_frame(&mut bfwal2, 0, &records);
        let cases: [&[u8]; 4] = [b"not a log\n", &records, &bfwal1, &bfwal2];
        for bytes in cases {
            std::fs::write(&path, bytes).unwrap();
            assert!(Wal::with_file_opts(&path, one_shard(Duration::ZERO)).is_err());
            assert!(Wal::load_sharded(&path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file was modified");
        }
        remove_sharded(&path);
    }

    #[test]
    fn torn_magic_prefix_resets_to_empty() {
        let path = temp_wal("torn-header");
        for n in 1..FILE_MAGIC.len() {
            std::fs::write(&path, &FILE_MAGIC[..n]).unwrap();
            assert!(load(&path).is_empty());
            let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
            assert_eq!(wal.len(), 0);
            wal.append([LogRecord::Begin(TxnId(1))], None).wait();
            drop(wal);
            assert_eq!(load(&path), vec![LogRecord::Begin(TxnId(1))]);
        }
        remove_sharded(&path);
    }

    #[test]
    fn decode_rejects_truncation() {
        let wal = Wal::new();
        wal.append(sample_records(), None);
        let bytes = wal.encode_all();
        for cut in [1usize, 5, bytes.len() - 1] {
            let truncated = bytes.slice(..cut);
            assert!(
                Wal::decode_all(truncated).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let bytes = Bytes::from_static(&[0xFF]);
        assert!(matches!(Wal::decode_all(bytes), Err(Error::Wal(_))));
    }

    #[test]
    fn lsn_is_record_offset() {
        let wal = Wal::new();
        let ticket = wal.append([LogRecord::Begin(TxnId(1))], None);
        assert_eq!(ticket.wait_lsn(), 1);
        let batch = [LogRecord::Commit(TxnId(1)), LogRecord::Begin(TxnId(2))];
        assert_eq!(wal.append(batch, None).wait_lsn(), 3);
        // An empty batch stages nothing and ends where the log does.
        assert_eq!(wal.append([], None).wait_lsn(), 3);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn append_is_atomic_under_concurrency() {
        let wal = Arc::new(Wal::new());
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let txn = TxnId(t * 1000 + i);
                    wal.append(
                        [
                            LogRecord::Begin(txn),
                            LogRecord::Delete {
                                txn,
                                table: TableId(1),
                                rid: RowId::new(0, 0),
                            },
                            LogRecord::Commit(txn),
                        ],
                        None,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every txn's three records must be contiguous.
        let records = wal.snapshot();
        assert_eq!(records.len(), 2400);
        for chunk in records.chunks(3) {
            let t = chunk[0].txn();
            assert!(matches!(chunk[0], LogRecord::Begin(_)));
            assert!(matches!(chunk[2], LogRecord::Commit(_)));
            assert_eq!(chunk[1].txn(), t);
            assert_eq!(chunk[2].txn(), t);
        }
    }

    #[test]
    fn file_mirror_round_trips() {
        let path = temp_wal("mirror");
        {
            let wal = Wal::with_file(&path).unwrap();
            wal.append(sample_records(), None);
        }
        let loaded = load(&path);
        assert_eq!(loaded, sample_records());
        // Reopening an existing sharded log keeps prior records and
        // resumes the LSN frontier past them.
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), sample_records().len());
            wal.append([LogRecord::Begin(TxnId(9))], None);
        }
        let loaded = Wal::load_sharded(&path).unwrap();
        assert_eq!(loaded.len(), sample_records().len() + 1);
        assert_eq!(
            loaded.last().unwrap(),
            &(sample_records().len() as u64, LogRecord::Begin(TxnId(9)))
        );
        remove_sharded(&path);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("torn");
        {
            let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
            // One frame per record, so chopping the tail kills exactly
            // the last frame.
            for r in sample_records() {
                wal.append([r], None).wait();
            }
        }
        // Chop a few bytes off the end — a crash mid-append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len() - 1);
        assert_eq!(loaded[..], sample_records()[..loaded.len()]);
        // Reopening truncates the torn frame and appends cleanly after it.
        {
            let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
            assert_eq!(wal.len(), sample_records().len() - 1);
            wal.append([LogRecord::Begin(TxnId(50))], None).wait();
        }
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len());
        assert_eq!(loaded.last().unwrap(), &LogRecord::Begin(TxnId(50)));
        remove_sharded(&path);
    }

    #[test]
    fn decode_prefix_reports_consumed_bytes() {
        let wal = Wal::new();
        wal.append(sample_records(), None);
        let bytes = wal.encode_all();
        let full = bytes.len();
        let (records, consumed) = decode_prefix(bytes.clone());
        assert_eq!(records.len(), sample_records().len());
        assert_eq!(consumed, full);
        let (records, consumed) = decode_prefix(bytes.slice(..full - 1));
        assert!(consumed < full - 1 || records.len() == sample_records().len() - 1);
    }

    #[test]
    fn txn_accessor() {
        for r in sample_records() {
            let t = r.txn();
            assert!(t == TxnId(1) || t == TxnId(2));
        }
    }

    #[test]
    fn durable_append_is_on_disk_when_it_returns() {
        let path = temp_wal("durable");
        let wal = Wal::with_file(&path).unwrap();
        wal.append(sample_records(), None).wait();
        // No drop, no join: the shard files must already hold every record.
        let loaded = load(&path);
        assert_eq!(loaded, sample_records());
        assert_eq!(wal.durable_lsn(), sample_records().len() as u64);
        drop(wal);
        remove_sharded(&path);
    }

    #[test]
    fn commit_ticket_acknowledges_durability() {
        let path = temp_wal("ticket");
        let wal = Wal::with_file(&path).unwrap();
        let ticket = wal.append(sample_records(), None);
        assert_eq!(ticket.wait_lsn(), sample_records().len() as u64);
        ticket.wait();
        assert!(ticket.is_durable());
        assert!(wal.durable_lsn() >= ticket.wait_lsn());
        // A ticket outlives the handle: dropping the log drains every
        // shard first, so the ticket resolves durable.
        let late = wal.append([LogRecord::Begin(TxnId(42))], None);
        drop(wal);
        late.wait();
        assert!(late.is_durable());
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len() + 1);
        remove_sharded(&path);
        // In-memory logs hand out trivially-durable tickets; a stamped
        // append's ticket carries the timestamp it drew.
        let mem = Wal::new();
        let t = mem.append(sample_records(), None);
        assert!(t.is_durable());
        t.wait();
        assert_eq!(t.commit_ts(), None);
        let stamped = mem.append([LogRecord::Begin(TxnId(3))], Some(TxnId(3)));
        assert_eq!(stamped.commit_ts(), Some(1));
        assert_eq!(stamped.wait_acked(), AckOutcome::Synced);
        mem.oracle().finish(1);
        assert_eq!(mem.durable_ticket().wait_lsn(), 0);
    }

    #[test]
    fn sharded_concurrent_appends_merge_on_load() {
        use std::sync::Barrier;
        let path = temp_wal("sharded-merge");
        const THREADS: u64 = 8;
        const TXNS: u64 = 50;
        let wal = Arc::new(Wal::with_file(&path).unwrap());
        assert_eq!(wal.shard_count(), DEFAULT_WAL_SHARDS);
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let wal = Arc::clone(&wal);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..TXNS {
                    let txn = TxnId(t * 1000 + i);
                    wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                        .wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = (THREADS * TXNS * 2) as usize;
        assert_eq!(wal.len(), total);
        assert_eq!(wal.durable_lsn(), total as u64);
        let snapshot = wal.snapshot();
        // Work spread across more than one fsync pipeline.
        let counters = wal.obs().snapshot();
        let busy = (0..wal.shard_count())
            .filter(|i| counters.counter(&format!("wal.shard{i}.flushes")) > Some(0))
            .count();
        assert!(busy >= 2, "expected multiple shards flushing, got {busy}");
        drop(wal);
        // The merged stream is dense in LSN and matches the in-memory log.
        let loaded = Wal::load_sharded(&path).unwrap();
        assert_eq!(loaded.len(), total);
        for (i, (lsn, r)) in loaded.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(r, &snapshot[i]);
        }
        remove_sharded(&path);
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        use std::sync::Barrier;
        let path = temp_wal("group");
        const THREADS: u64 = 8;
        let wal =
            Arc::new(Wal::with_file_opts(&path, one_shard(Duration::from_millis(30))).unwrap());
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let wal = Arc::clone(&wal);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let txn = TxnId(t + 1);
                wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                    .wait();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.flushed_batches, THREADS);
        // The whole point of group commit: fewer fsyncs than commits.
        assert!(
            stats.flushes < THREADS,
            "expected coalescing, got {} flushes for {THREADS} commits",
            stats.flushes
        );
        drop(wal);
        remove_sharded(&path);
    }

    #[test]
    fn durable_ack_covers_earlier_enqueues_on_every_shard() {
        // Regression for the cross-shard dependency hole: async commits
        // release locks at enqueue time, so a later synchronous commit
        // may depend on any earlier enqueued batch regardless of shard.
        // Its acknowledgement must therefore imply *all* earlier batches
        // are durable, not just those on its own shard.
        let path = temp_wal("cross-shard-ack");
        let wal = Wal::with_file(&path).unwrap();
        let n = wal.shard_count();
        let mut tickets = Vec::new();
        let mut covered = vec![false; n];
        let mut t = 1u64;
        while covered.iter().any(|c| !c) {
            let s = shard_of(TxnId(t), n);
            if !covered[s] {
                covered[s] = true;
                tickets.push(wal.append(
                    [LogRecord::Begin(TxnId(t)), LogRecord::Commit(TxnId(t))],
                    None,
                ));
            }
            t += 1;
        }
        wal.append(
            [LogRecord::Begin(TxnId(t)), LogRecord::Commit(TxnId(t))],
            None,
        )
        .wait();
        for ticket in &tickets {
            assert!(
                ticket.is_durable(),
                "a sync ack returned while an earlier enqueue was still in flight"
            );
        }
        drop(wal);
        remove_sharded(&path);
    }

    #[test]
    fn truncation_removes_stale_extra_shard_files() {
        // A run with fewer shards than its predecessor leaves trailing
        // `.s<i>` files behind; their records are all below the reopened
        // log's base, so the first checkpoint truncation deletes them.
        let path = temp_wal("shrink-shards");
        {
            let wal = Wal::with_file_opts(
                &path,
                WalOptions {
                    group_window: Duration::ZERO,
                    shards: 4,
                },
            )
            .unwrap();
            for t in 0..16u64 {
                let txn = TxnId(t);
                wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                    .wait();
            }
        }
        assert!(shard_file_path(&path, 2).exists());
        assert!(shard_file_path(&path, 3).exists());
        let wal = Wal::with_file_opts(
            &path,
            WalOptions {
                group_window: Duration::ZERO,
                shards: 2,
            },
        )
        .unwrap();
        assert_eq!(wal.len(), 32, "stale files still bound the LSN frontier");
        let txn = TxnId(100);
        wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
            .wait();
        let cut = wal.safe_cut();
        assert_eq!(cut, 34);
        wal.truncate_to(cut).unwrap();
        assert!(
            !shard_file_path(&path, 2).exists() && !shard_file_path(&path, 3).exists(),
            "stale shard files must be deleted by truncation"
        );
        // The shrunk log keeps working and holds only the new tail.
        let txn = TxnId(101);
        wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
            .wait();
        drop(wal);
        let loaded = Wal::load_sharded(&path).unwrap();
        assert_eq!(
            loaded,
            vec![
                (34, LogRecord::Begin(TxnId(101))),
                (35, LogRecord::Commit(TxnId(101))),
            ]
        );
        remove_sharded(&path);
    }

    #[test]
    fn safe_cut_respects_unresolved_transactions() {
        let wal = Wal::new();
        let t1 = TxnId(1);
        wal.append([LogRecord::Begin(t1), LogRecord::Commit(t1)], None);
        assert_eq!(wal.safe_cut(), 2);
        // An unresolved transaction pins the cut below its first record.
        let t2 = TxnId(2);
        wal.append([LogRecord::Begin(t2)], None);
        let t3 = TxnId(3);
        wal.append([LogRecord::Begin(t3), LogRecord::Commit(t3)], None);
        assert_eq!(wal.safe_cut(), 2);
        wal.append([LogRecord::Commit(t2)], None);
        assert_eq!(wal.safe_cut(), wal.len() as u64);
    }

    #[test]
    fn truncation_respects_retain_horizons() {
        // Regression: a tailing log consumer (replication sender) registers
        // the first LSN it still needs; truncation must never cut past it,
        // or frames disappear under the reader mid-stream.
        let wal = Wal::new();
        for t in 0..100u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None);
        }
        let (id, granted) = wal.register_retain(40);
        assert_eq!(granted, 40);
        let cut = wal.safe_cut();
        assert_eq!(cut, 200);
        wal.truncate_to(cut).unwrap();
        // The cut was clamped to the retain horizon, not the checkpoint LSN.
        assert_eq!(wal.base_lsn(), 40);
        let kept = wal.records_with_lsns(40, 200);
        assert_eq!(kept.len(), 160);
        assert_eq!(kept.first().unwrap().0, 40);
        // The consumer advances; truncation follows it.
        wal.advance_retain(id, 150);
        wal.truncate_to(wal.safe_cut()).unwrap();
        assert_eq!(wal.base_lsn(), 150);
        // Releasing the horizon lets truncation cut the full prefix again.
        wal.release_retain(id);
        assert_eq!(wal.retain_floor(), None);
        wal.truncate_to(wal.safe_cut()).unwrap();
        assert_eq!(wal.base_lsn(), 200);
    }

    #[test]
    fn register_retain_clamps_to_base() {
        // Registering below the already-truncated base grants the base:
        // those records are gone, and the consumer must be told where the
        // guarantee actually starts (it will re-bootstrap from a snapshot).
        let wal = Wal::new();
        for t in 0..10u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None);
        }
        wal.truncate_to(wal.safe_cut()).unwrap();
        assert_eq!(wal.base_lsn(), 20);
        let (_, granted) = wal.register_retain(5);
        assert_eq!(granted, 20);
    }

    #[test]
    fn durable_records_from_stops_at_durable_horizon() {
        let path = temp_wal("durable-from");
        let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
        let t1 = TxnId(1);
        wal.append([LogRecord::Begin(t1), LogRecord::Commit(t1)], None)
            .wait();
        let (recs, durable) = wal.durable_records_from(0, usize::MAX);
        assert_eq!(durable, 2);
        assert_eq!(
            recs,
            vec![(0, LogRecord::Begin(t1)), (1, LogRecord::Commit(t1)),]
        );
        // `max` bounds the batch; the durable horizon is still reported.
        let (recs, durable) = wal.durable_records_from(0, 1);
        assert_eq!(durable, 2);
        assert_eq!(recs.len(), 1);
        drop(wal);
        remove_sharded(&path);
    }

    #[test]
    fn truncation_bounds_resident_memory() {
        let wal = Wal::new();
        for t in 0..3000u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None);
        }
        let before = wal.resident_records();
        assert_eq!(before, 6000);
        let cut = wal.safe_cut();
        assert_eq!(cut, 6000);
        let dropped = wal.truncate_to(cut).unwrap();
        // Whole sealed segments and the covered open prefix are gone;
        // what remains is bounded by one segment.
        assert_eq!(dropped as usize, before - wal.resident_records());
        assert!(wal.resident_records() <= SEGMENT_RECORDS);
        assert_eq!(wal.base_lsn(), cut);
        assert_eq!(wal.len(), 6000, "LSN space is not rewound");
        assert!(wal.snapshot().is_empty());
        let stats = wal.stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.truncated_records, dropped);
        // The log keeps working after truncation.
        let txn = TxnId(9000);
        let ticket = wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None);
        assert_eq!(ticket.wait_lsn(), 6002);
        assert_eq!(wal.snapshot().len(), 2);
    }

    #[test]
    fn rotation_keeps_only_tail_with_base_header() {
        let path = temp_wal("rotate");
        let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
        for t in 0..50u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                .wait();
        }
        let cut = wal.safe_cut();
        assert_eq!(cut, 100);
        wal.truncate_to(cut).unwrap();
        // Post-truncation appends land in the rotated file.
        let txn = TxnId(77);
        wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
            .wait();
        drop(wal);
        let (base, records) = load_shard_file(&path).unwrap();
        assert_eq!(base, 100);
        assert_eq!(
            records,
            vec![
                (100, LogRecord::Begin(TxnId(77))),
                (101, LogRecord::Commit(TxnId(77)))
            ]
        );
        // Reopening appends after the rotated tail.
        {
            let wal = Wal::with_file_opts(&path, one_shard(Duration::ZERO)).unwrap();
            assert_eq!(wal.len(), 102);
            wal.append([LogRecord::Begin(TxnId(78))], None);
        }
        let (base, records) = load_shard_file(&path).unwrap();
        assert_eq!(base, 100);
        assert_eq!(records.len(), 3);
        remove_sharded(&path);
    }

    #[test]
    fn rotation_preserves_staged_unflushed_batches() {
        // Regression: a checkpoint racing an in-flight durable append
        // used to clear the pending buffer and strand the staged bytes
        // past the cut. Rotation now rebuilds the tail from the record
        // store, which is a superset of anything staged.
        let path = temp_wal("rotate-staged");
        let wal = Wal::with_file_opts(&path, one_shard(Duration::from_secs(5))).unwrap();
        let (t1, t2) = (TxnId(1), TxnId(2));
        // Both batches are staged but unflushed: the 5s group window
        // keeps the flusher parked.
        wal.append([LogRecord::Begin(t1), LogRecord::Commit(t1)], None);
        wal.append([LogRecord::Begin(t2), LogRecord::Commit(t2)], None);
        assert_eq!(wal.durable_lsn(), 0);
        // Checkpoint cuts between the batches while both sit staged.
        wal.truncate_to(2).unwrap();
        // The rotation itself made the whole tail durable — nothing for
        // the second committer to lose.
        assert_eq!(wal.durable_lsn(), 4);
        drop(wal);
        let loaded = Wal::load_sharded(&path).unwrap();
        assert_eq!(
            loaded,
            vec![(2, LogRecord::Begin(t2)), (3, LogRecord::Commit(t2)),]
        );
        remove_sharded(&path);
    }

    #[test]
    fn rotation_redistributes_tail_across_shards() {
        let path = temp_wal("rotate-shards");
        let wal = Wal::with_file(&path).unwrap();
        for t in 0..50u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                .wait();
        }
        // An unresolved transaction pins the cut at its first record, so
        // the rotated tail spans many transactions (and shards).
        wal.append([LogRecord::Begin(TxnId(500))], None).wait();
        for t in 600..610u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                .wait();
        }
        let cut = wal.safe_cut();
        assert_eq!(cut, 100);
        wal.truncate_to(cut).unwrap();
        let snapshot = wal.snapshot();
        drop(wal);
        let loaded = Wal::load_sharded(&path).unwrap();
        assert_eq!(loaded.first().unwrap().0, 100);
        assert_eq!(loaded.len(), snapshot.len());
        let records: Vec<LogRecord> = loaded.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, snapshot);
        remove_sharded(&path);
    }

    #[test]
    fn records_in_walks_segment_ranges() {
        let wal = Wal::new();
        for t in 0..2000u64 {
            wal.append([LogRecord::Begin(TxnId(t))], None);
        }
        let mid = wal.records_in(1500, 1503);
        assert_eq!(
            mid,
            vec![
                LogRecord::Begin(TxnId(1500)),
                LogRecord::Begin(TxnId(1501)),
                LogRecord::Begin(TxnId(1502)),
            ]
        );
        assert_eq!(wal.records_in(1999, 5000).len(), 1);
        assert_eq!(wal.records_in(5000, 6000).len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The merged horizon never runs ahead of the slowest shard's
        /// frontier under randomized concurrent interleavings, and the
        /// sharded files replay to exactly the in-memory stream.
        #[test]
        fn merged_horizon_is_per_shard_minimum(
            shards in 1usize..=4,
            batches in proptest::collection::vec((1u64..64, 1usize..4), 1..24),
        ) {
            let path = temp_wal(&format!("horizon-{shards}"));
            let wal = Arc::new(
                Wal::with_file_opts(
                    &path,
                    WalOptions {
                        group_window: Duration::ZERO,
                        shards,
                    },
                )
                .unwrap(),
            );
            let stop = Arc::new(AtomicBool::new(false));
            let sampler = {
                let wal = Arc::clone(&wal);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let (durable, floor, next) = wal.horizon_parts();
                        assert!(
                            durable <= floor && floor <= next,
                            "horizon invariant violated: durable={durable} floor={floor} next={next}"
                        );
                        std::thread::yield_now();
                    }
                })
            };
            let mut appenders = Vec::new();
            for chunk in 0..3usize {
                let wal = Arc::clone(&wal);
                let mine: Vec<(u64, usize)> = batches
                    .iter()
                    .skip(chunk)
                    .step_by(3)
                    .copied()
                    .collect();
                appenders.push(std::thread::spawn(move || {
                    for (txn, count) in mine {
                        let txn = TxnId(txn);
                        let mut batch = vec![LogRecord::Begin(txn)];
                        batch.extend((1..count).map(|_| LogRecord::Commit(txn)));
                        wal.append(batch, None).wait();
                    }
                }));
            }
            for h in appenders {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            sampler.join().unwrap();
            wal.sync();
            let (durable, floor, next) = wal.horizon_parts();
            prop_assert_eq!(durable, next);
            prop_assert_eq!(floor, next);
            let total: usize = batches.iter().map(|(_, c)| *c).sum();
            prop_assert_eq!(next as usize, total);
            let snapshot = wal.snapshot();
            drop(wal);
            let loaded = Wal::load_sharded(&path).unwrap();
            prop_assert_eq!(loaded.len(), total);
            for (i, (lsn, r)) in loaded.iter().enumerate() {
                prop_assert_eq!(*lsn, i as u64);
                prop_assert_eq!(r, &snapshot[i]);
            }
            remove_sharded(&path);
        }
    }
}
