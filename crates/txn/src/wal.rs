//! Redo write-ahead log with group commit, async commit tickets, and
//! checkpoint truncation.
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
//! The log keeps its records **encoded**, in the record codec's bytes
//! ([`codec`]), never decoded. They live in **segments** of about 64 KiB:
//! an open segment receives each batch's bytes under a short mutex, and a
//! full segment is sealed into an immutable `Arc<Segment>` by a move.
//! Readers share the segments under the mutex (copying at most the open
//! one) and decode after releasing it. LSNs are record offsets from the
//! birth of the log and are assigned under the same mutex, so batches stay
//! contiguous and totally ordered.
//!
//! # Group commit
//!
//! Durability is decoupled from appending: a file-backed log has one
//! backing file, one staging queue and one flusher thread, as PostgreSQL
//! has one WAL stream and one group-commit writer. A committing batch is
//! encoded once, *outside* the lock, assigned contiguous LSNs under it,
//! and its bytes are both kept in the open segment and staged on the
//! queue. The flusher takes everything staged, writes it as one frame per
//! batch with one write and one `fdatasync`, and wakes every committer
//! the flush covered.
//!
//! The commit barrier is the **durable horizon**: `durable_lsn` is the
//! first LSN still staged or in flight (`next_lsn` when the queue is
//! drained). It is recomputed under the log mutex whenever a flush
//! completes; every record below it is on disk. Because the file is
//! written in LSN order, a crash can only lose a suffix of the log, never
//! an earlier batch while keeping a later one.
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
//! # File format
//!
//! The file starts with a `BFWAL7` header (the base LSN) and holds
//! **frames**: `first_lsn:u64 nbytes:u32 crc32c:u32 payload`, where the
//! payload is one or more contiguous records starting at `first_lsn`, in
//! the varint record codec (see the grammar above [`codec`]), and the
//! CRC-32C covers `first_lsn`, `nbytes` and the payload. Each frame starts
//! where the previous one ended (the first at the header's base LSN).
//! `BFWAL7` is the only format: a file with any other header —
//! `BFWAL6`'s sharded files, `BFWAL5`'s unchecksummed frames and
//! `BFWAL4`'s fixed-width records included — is refused with an
//! [`Error::Wal`] naming the header found, and left untouched.
//!
//! The file is written in place, not appended to: it is kept zero-filled
//! ahead of its last frame (a 64 KiB extent at first, then extents as
//! long as the file, capped at 1 MiB), so a flush overwrites zeros and
//! its `fdatasync` commits no file-size change. The scan reads
//! `nbytes == 0` as the end of the frames, and stops at a frame whose
//! checksum fails (a torn write in a zero-filled file leaves zeros inside
//! a frame, and zeros decode as valid records) or whose `first_lsn` is
//! not the previous frame's end (in one file written in LSN order, that
//! can only be damage). Opening a file cuts it at its last clean frame,
//! so nothing past a torn or damaged frame ever follows new frames; a
//! clean close (dropping the [`Wal`]) trims the zero tail, so a file at
//! rest ends at its last frame. A file shorter than a header whose bytes
//! are a prefix of one (a crash tore the header write) is reset to an
//! empty log. Rotation replaces the file through
//! [`bullfrog_common::fs::durable_rename`], so a power loss cannot bring
//! the pre-rotation file back.
//!
//! [`Wal::truncate_to`] supports checkpointing: once a caller has
//! persisted a snapshot of the committed prefix (see
//! `bullfrog-engine::checkpoint`), the prefix is dropped from memory at
//! segment granularity and the file is rotated to a fresh log holding
//! only the tail. Rotation copies the in-memory segments' bytes — a
//! superset of anything staged or in flight — so a checkpoint racing a
//! commit can never drop staged-but-unflushed bytes past the cut.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::fs::{durable_rename, parent_dir, sync_dir};
use bullfrog_common::hash::{crc32c, crc32c_extend};
use bullfrog_common::{Error, Result, Row, RowId, TableId, TxnId, Value};
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
}

/// Target bytes per segment. The open segment reserves this much and is
/// sealed when the next batch would not fit, so a sealed segment wastes
/// at most one batch's worth of capacity, and a reader copying the open
/// segment copies at most about this much.
const SEGMENT_BYTES: usize = 64 << 10;

/// Magic prefix of the WAL file, the only on-disk log format.
const FILE_MAGIC: [u8; 6] = *b"BFWAL7";
/// File header: magic + base_lsn:u64.
const HEADER_LEN: usize = FILE_MAGIC.len() + 8;
/// Frame header: first_lsn:u64 + nbytes:u32 + crc32c:u32.
const FRAME_HEADER_LEN: usize = 8 + 4 + 4;
/// The file is zero-filled ahead of its last frame in extents of at most
/// this many bytes, so a flush that lands inside the zeroed region
/// changes no file size and its `fdatasync` writes data only.
const ZERO_STEP: usize = 1 << 20;
/// The first extent of a fresh or rotated file; each later one is as
/// long as the file already is, up to [`ZERO_STEP`], so a short-lived
/// log never pays for a MiB of zeros.
const ZERO_FIRST: usize = 64 << 10;
/// The zeros every extension writes from. A static, not a fresh buffer:
/// an allocation per extension would hold allocator memory for nothing.
static ZEROS: [u8; ZERO_STEP] = [0; ZERO_STEP];

thread_local! {
    /// Each appending thread's encode buffer, kept between appends so
    /// encoding a batch grows no fresh allocation. One a bulk batch grew
    /// past `SEGMENT_BYTES` is released after that append.
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Rotation scratch file for the WAL file.
fn rotate_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".rotate");
    PathBuf::from(os)
}

/// The backing file, opened read/write (not `O_APPEND`): frames are
/// written at `pos`, and the file is kept zero-filled ahead of it to
/// `zeroed`. A flush inside the zeroed region overwrites zeros in place,
/// so its `fdatasync` commits no file-size change to the filesystem
/// journal; only the flush that crosses `zeroed` extends the file, once
/// per extent. Zero bytes after the last frame read as `nbytes == 0`,
/// which ends a frame scan.
struct LogFile {
    file: std::fs::File,
    /// End of the last frame: where the next one is written.
    pos: u64,
    /// End of the file; `[pos, zeroed)` holds zeros.
    zeroed: u64,
}

impl LogFile {
    /// A file whose frames end at its current length, `len`.
    fn at_end(file: std::fs::File, len: u64) -> Self {
        LogFile {
            file,
            pos: len,
            zeroed: len,
        }
    }

    /// Writes `frames` at `pos` and syncs them. When they would pass the
    /// zeroed region the same sync also extends the file with one extent
    /// of zeros past them. Returns the zero bytes written.
    fn append(&mut self, frames: &[u8]) -> std::io::Result<u64> {
        use std::os::unix::fs::FileExt;
        let end = self.pos + frames.len() as u64;
        self.file.write_all_at(frames, self.pos)?;
        let mut filled = 0;
        if end > self.zeroed {
            let step = (self.zeroed as usize).clamp(ZERO_FIRST, ZERO_STEP);
            self.file.write_all_at(&ZEROS[..step], end)?;
            self.zeroed = end + step as u64;
            filled = step as u64;
        }
        self.file.sync_data()?;
        self.pos = end;
        Ok(filled)
    }

    /// Cuts the zero tail off and syncs, so a file at rest ends at its
    /// last frame (a clean close).
    fn trim(&mut self) -> std::io::Result<()> {
        if self.zeroed > self.pos {
            self.file.set_len(self.pos)?;
            self.file.sync_all()?;
            self.zeroed = self.pos;
        }
        Ok(())
    }
}

/// A run of encoded records starting at a fixed LSN: the bytes
/// [`Wal::append`] encoded, back to back, and how many records they hold.
/// The open segment grows under the log mutex; sealed segments are
/// immutable and shared out under `Arc`, so readers decode them without
/// holding the lock.
#[derive(Debug, Clone)]
struct Segment {
    base_lsn: u64,
    count: u64,
    bytes: Vec<u8>,
}

impl Segment {
    fn empty(base_lsn: u64) -> Self {
        Segment {
            base_lsn,
            count: 0,
            bytes: Vec::new(),
        }
    }

    /// One past the LSN of the last record.
    fn end_lsn(&self) -> u64 {
        self.base_lsn + self.count
    }

    /// Parses the records with LSN in `[lo, hi)` with `parse` — a full
    /// decode ([`codec::get_record`]) or a skim that builds nothing
    /// ([`codec::skim_record`]) — handing each result to `f` with its LSN
    /// and its encoded bytes.
    fn walk<T>(
        &self,
        lo: u64,
        hi: u64,
        parse: impl Fn(&mut &[u8]) -> Result<T>,
        mut f: impl FnMut(u64, T, &[u8]),
    ) {
        let mut rest: &[u8] = &self.bytes;
        for lsn in self.base_lsn..self.end_lsn().min(hi) {
            let before = rest;
            let r = parse(&mut rest).expect("a log segment parses what append encoded");
            if lsn >= lo {
                f(lsn, r, &before[..before.len() - rest.len()]);
            }
        }
    }

    /// The bytes of the records with LSN at or above `lsn`: all of them
    /// when the segment starts there, else what follows the records below
    /// `lsn`, which are skimmed to find where they end.
    fn bytes_from(&self, lsn: u64) -> &[u8] {
        let mut skipped = 0;
        self.walk(
            self.base_lsn,
            lsn,
            |b| codec::skim_record(b),
            |_, _, raw| skipped += raw.len(),
        );
        &self.bytes[skipped..]
    }
}

/// [`Segment::walk`] over every segment of `segments`, in order.
fn walk_range<T>(
    segments: &[Arc<Segment>],
    lo: u64,
    hi: u64,
    parse: impl Fn(&mut &[u8]) -> Result<T> + Copy,
    mut f: impl FnMut(u64, T, &[u8]),
) {
    for seg in segments {
        seg.walk(lo, hi, parse, &mut f);
    }
}

/// Tuning knobs for a file-backed log.
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// How long the flusher waits after the first staged batch before
    /// issuing the combined write+fsync, to let concurrent committers
    /// pile into the same group. Zero (the default) flushes as soon as
    /// the flusher is free — grouping then happens naturally while a
    /// previous fsync is in flight.
    pub group_window: Duration,
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

/// One appended batch awaiting its flush, which writes it as one frame:
/// the body bytes the open segment holds too and, for a stamped batch,
/// the `CommitTs` record drawn under the log mutex.
struct StagedBatch {
    first_lsn: u64,
    body: Bytes,
    commit: Option<Bytes>,
}

/// The flusher's staging state (under the log mutex).
#[derive(Default)]
struct Pending {
    /// Encoded-but-unflushed batches, in LSN order.
    queue: Vec<StagedBatch>,
    /// When the oldest staged batch arrived (drives the group window).
    since: Option<Instant>,
    /// First LSN of the batch group currently being written+fsynced, if
    /// any. Pins the durable horizon until the flush completes.
    inflight_first: Option<u64>,
}

impl Pending {
    /// The first LSN not yet durable: the in-flight group's first, else
    /// the oldest staged batch's, else `None` (everything is on disk).
    fn frontier(&self) -> Option<u64> {
        self.inflight_first
            .or_else(|| self.queue.first().map(|b| b.first_lsn))
    }
}

/// Log state under the (short) log mutex. Appenders copy their
/// pre-encoded batch into the open segment and stage a copy of it for
/// the flusher; nothing here does IO or decodes.
struct WalCore {
    /// Sealed, immutable segments in LSN order, all below `open.base_lsn`.
    sealed: Vec<Arc<Segment>>,
    /// The segment appends extend.
    open: Segment,
    /// First retained LSN — records below it were checkpointed away.
    base_lsn: u64,
    /// Next LSN to assign (== `open.end_lsn()`).
    next_lsn: u64,
    /// The flusher's queue (file-backed logs only stage into it).
    pending: Pending,
    /// Set by `Drop`; the flusher drains and exits.
    shutdown: bool,
}

impl WalCore {
    /// Adds `records` encoded records to the open segment, sealing it
    /// first when they would not fit its reserved capacity. Sealing moves
    /// the segment behind an `Arc`; it copies nothing.
    fn push(&mut self, bytes: &[u8], records: u64) {
        let open = &mut self.open;
        if open.count > 0 && open.bytes.len() + bytes.len() > open.bytes.capacity() {
            let full = std::mem::replace(open, Segment::empty(self.next_lsn));
            self.sealed.push(Arc::new(full));
        }
        let open = &mut self.open;
        if open.bytes.capacity() == 0 {
            open.bytes.reserve_exact(SEGMENT_BYTES.max(bytes.len()));
        }
        open.bytes.extend_from_slice(bytes);
        open.count += records;
        self.next_lsn += records;
    }

    /// The segments holding the records with LSN in `[lo, hi)`: sealed
    /// ones shared, the open one copied (at most one segment's bytes).
    /// Taken under the log mutex and decoded after it is released.
    fn segments(&self, lo: u64, hi: u64) -> Vec<Arc<Segment>> {
        let first = self.sealed.partition_point(|s| s.end_lsn() <= lo);
        let mut out: Vec<Arc<Segment>> = self.sealed[first..]
            .iter()
            .take_while(|s| s.base_lsn < hi)
            .cloned()
            .collect();
        if self.open.count > 0 && self.open.base_lsn < hi && self.open.end_lsn() > lo {
            out.push(Arc::new(self.open.clone()));
        }
        out
    }

    fn resident(&self) -> impl Iterator<Item = &Segment> {
        self.sealed.iter().map(|s| &**s).chain([&self.open])
    }
}

/// State shared between the log handle, its flusher thread, and any
/// outstanding [`CommitTicket`]s.
struct WalShared {
    core: Mutex<WalCore>,
    /// Signaled when the queue gains a batch or shutdown is requested.
    /// Waits on `core`.
    work: Condvar,
    /// The commit barrier: signaled when `durable_lsn` advances.
    durable: Condvar,
    /// The durable horizon: all records with LSN below this are on disk.
    /// Every acknowledgement — every [`CommitTicket`] wait — parks on it.
    durable_lsn: AtomicU64,
    /// Every record below this LSN is in the file the last checkpoint
    /// rotation wrote: a flush skips staged batches below it instead of
    /// appending them to the new file a second time.
    rotated_below: AtomicU64,
    /// Set when a flush failed; waiters panic rather than hang.
    poisoned: AtomicBool,
    /// The backing file and its path (file-backed logs only). The flusher
    /// never holds the file lock while waiting for `core`; rotation takes
    /// the file lock and then `core`.
    file: Option<(PathBuf, Mutex<LogFile>)>,
    group_window: Duration,
    /// Registered retain horizons, by consumer id: a tailing log reader
    /// (e.g. a replication sender) records the first LSN it still needs,
    /// and [`Wal::truncate_to`] never cuts past the minimum of these.
    /// Lock order: `retain` before the file lock, before `core`.
    retain: Mutex<HashMap<u64, u64>>,
    /// Next consumer id to hand out.
    retain_next: AtomicU64,
    /// Commit-timestamp oracle: timestamps are drawn while `core` is
    /// held, which is exactly what keeps timestamp order and LSN order
    /// identical (the oracle's own lock nests inside `core` and is never
    /// taken the other way around).
    oracle: Arc<TsOracle>,
    /// Synchronous-replication gate: acked commit paths compose this on
    /// top of the durable horizon (local durability first, then the
    /// replica quorum). A no-op until `SET SYNC_REPLICAS` arms it.
    sync: Arc<SyncGate>,
    /// The log's handles into its registry, registered at construction.
    obs: WalObs,
}

impl WalShared {
    fn file_backed(&self) -> bool {
        self.file.is_some()
    }
}

/// The WAL's slice of the metrics registry. Histograms, all in
/// microseconds: `wal.append_us` (staging under the log mutex),
/// `wal.flush_us` (one combined write+fsync) and `wal.commit_wait_us`
/// (a committer blocked on the durable horizon — the group-commit wait).
/// Counters: the flush totals (`wal.flushes`, `wal.flushed_batches`,
/// `wal.flushed_bytes`), the zeros written ahead of the frames
/// (`wal.zero_fill_bytes`) and the checkpoint truncations.
struct WalObs {
    reg: Arc<Registry>,
    append: Arc<Histogram>,
    flush: Arc<Histogram>,
    commit_wait: Arc<Histogram>,
    flushes: Arc<Counter>,
    flushed_batches: Arc<Counter>,
    flushed_bytes: Arc<Counter>,
    zero_fill_bytes: Arc<Counter>,
    checkpoints: Arc<Counter>,
    truncated_records: Arc<Counter>,
}

impl WalObs {
    fn register(reg: Arc<Registry>) -> Self {
        WalObs {
            append: reg.histogram("wal.append_us"),
            flush: reg.histogram("wal.flush_us"),
            commit_wait: reg.histogram("wal.commit_wait_us"),
            flushes: reg.counter("wal.flushes"),
            flushed_batches: reg.counter("wal.flushed_batches"),
            flushed_bytes: reg.counter("wal.flushed_bytes"),
            zero_fill_bytes: reg.counter("wal.zero_fill_bytes"),
            checkpoints: reg.counter("wal.checkpoints"),
            truncated_records: reg.counter("wal.truncated_records"),
            reg,
        }
    }
}

/// Recomputes the durable horizon from the queue's frontier and
/// publishes it. Must be called with the `core` lock held — LSN
/// assignment and staging are atomic under it, so the frontier can never
/// miss a batch that exists but is not yet visible.
fn advance_durable(core: &WalCore, shared: &WalShared) {
    let horizon = core.pending.frontier().unwrap_or(core.next_lsn);
    if shared.durable_lsn.load(Ordering::Acquire) < horizon {
        shared.durable_lsn.store(horizon, Ordering::Release);
        shared.durable.notify_all();
    }
}

/// Blocks until the durable horizon covers `lsn`. Free function so
/// [`CommitTicket`]s can wait without borrowing the [`Wal`] handle.
fn wait_durable_shared(shared: &WalShared, lsn: u64) {
    if !shared.file_backed() || shared.durable_lsn.load(Ordering::Acquire) >= lsn {
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
/// the batch is in the log and will be flushed, but may not be durable
/// yet. Detached from the `Wal` handle, so it can outlive it — dropping
/// the `Wal` drains the queue, at which point all tickets are trivially
/// durable.
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
    /// The LSN the durable horizon must reach for this commit to
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

    /// True once the durable horizon covers the batch (always, for an
    /// in-memory log). Never blocks.
    pub fn is_durable(&self) -> bool {
        match &self.shared {
            None => true,
            Some(s) => !s.file_backed() || s.durable_lsn.load(Ordering::Acquire) >= self.lsn,
        }
    }

    /// Blocks until the durable horizon covers the batch — i.e. this
    /// commit *and every batch ordered before it* are on disk, so an
    /// earlier enqueued commit whose locks were already released (a
    /// possible dependency of this one) is durable too. Panics if the
    /// flusher died of an IO error — acknowledging a commit without
    /// durability would be a lie.
    pub fn wait(&self) {
        if let Some(s) = &self.shared {
            wait_durable_shared(s, self.lsn);
        }
    }

    /// As [`CommitTicket::wait`], then additionally waits on the
    /// [`SyncGate`]: local durability first (durable horizon), replica
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
/// record list, optionally made durable in one file by a group-commit
/// flusher thread.
pub struct Wal {
    shared: Arc<WalShared>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl Wal {
    /// An in-memory-only log: appends are visible immediately and
    /// durability waits return at once. Every constructor builds a
    /// fresh metrics [`Registry`] the log records into; a database
    /// adopts it as its own (see [`Wal::obs`]).
    pub fn new() -> Self {
        Wal {
            shared: Arc::new(Self::make_shared(None, WalOptions::default(), 0)),
            flusher: None,
        }
    }

    /// A log mirrored to the file at `path` (created or appended to) with
    /// default options. Existing records in the file are **not** loaded
    /// into memory — use [`Wal::load`] first and replay them, as recovery
    /// does — but the LSN frontier resumes past them, so new appends never
    /// reuse an LSN already on disk.
    pub fn with_file(path: impl AsRef<Path>) -> Result<Self> {
        Self::with_file_opts(path, WalOptions::default())
    }

    /// As [`Wal::with_file`] with explicit [`WalOptions`].
    pub fn with_file_opts(path: impl AsRef<Path>, opts: WalOptions) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let created = !path.exists();
        let (file, next_lsn) = open_log(&path)?;
        if created {
            // A new file is an entry in its directory; a power loss must
            // not take it (and the frames later synced into it) away.
            sync_dir(parent_dir(&path))
                .map_err(|e| Error::Wal(format!("sync wal directory: {e}")))?;
        }
        let shared = Arc::new(Self::make_shared(Some((path, file)), opts, next_lsn));
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bullfrog-wal-flush".into())
                .spawn(move || flusher_loop(&shared))
                .map_err(|e| Error::Wal(format!("spawn wal flusher: {e}")))?
        };
        Ok(Wal {
            shared,
            flusher: Some(flusher),
        })
    }

    fn make_shared(
        file: Option<(PathBuf, LogFile)>,
        opts: WalOptions,
        start_lsn: u64,
    ) -> WalShared {
        WalShared {
            core: Mutex::new(WalCore {
                sealed: Vec::new(),
                open: Segment::empty(start_lsn),
                base_lsn: start_lsn,
                next_lsn: start_lsn,
                pending: Pending::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            durable: Condvar::new(),
            durable_lsn: AtomicU64::new(start_lsn),
            rotated_below: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            file: file.map(|(path, f)| (path, Mutex::new(f))),
            group_window: opts.group_window,
            retain: Mutex::new(HashMap::new()),
            retain_next: AtomicU64::new(0),
            oracle: Arc::new(TsOracle::new()),
            sync: Arc::new(SyncGate::default()),
            obs: WalObs::register(Arc::new(Registry::new())),
        }
    }

    /// Reads the WAL file at `path` into its LSN-tagged records, in LSN
    /// order. The scan stops at a torn or damaged frame (see the module
    /// docs), so a crash's torn tail is tolerated.
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<(u64, LogRecord)>> {
        let bytes =
            std::fs::read(path.as_ref()).map_err(|e| Error::Wal(format!("read wal file: {e}")))?;
        Ok(match parse_file_header(&bytes)? {
            Some(base) => decode_frames(&bytes, base).0,
            None => Vec::new(),
        })
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
    /// The batch is encoded once, outside the lock, into the appending
    /// thread's reusable buffer, so appenders pay serialization in
    /// parallel and allocate nothing for it; the critical section copies
    /// those bytes into the open segment and, for a file-backed log,
    /// stages a shared copy of them (`Bytes`) for the flusher. Only the
    /// small `CommitTs` is encoded inside it, because its timestamp does
    /// not exist until drawn.
    ///
    /// Acknowledge with [`CommitTicket::wait`] or
    /// [`CommitTicket::wait_acked`]. Both park on the durable horizon,
    /// which covers every batch below this one too.
    pub fn append(
        &self,
        batch: impl IntoIterator<Item = LogRecord>,
        stamp: Option<TxnId>,
    ) -> CommitTicket {
        let started = Instant::now();
        let shared = &self.shared;
        let (end, ts) = ENCODE_BUF.with_borrow_mut(|body| {
            body.clear();
            let mut count = 0u64;
            for r in batch {
                codec::put_record(body, &r);
                count += 1;
            }
            // A file-backed log stages a copy of the bytes for its flusher;
            // an empty unstamped batch stages nothing.
            let staged = (shared.file_backed() && (count > 0 || stamp.is_some()))
                .then(|| Bytes::copy_from_slice(body));
            let span = self.enqueue(body, count, stamp, staged);
            if body.capacity() > SEGMENT_BYTES {
                *body = Vec::new();
            }
            span
        });
        shared.obs.append.record_micros(started.elapsed());
        CommitTicket {
            shared: Some(Arc::clone(shared)),
            lsn: end,
            ts,
        }
    }

    /// The critical section of [`Wal::append`]: assigns the batch its
    /// LSNs, copies its bytes into the open segment, draws and appends the
    /// `CommitTs` of a stamped batch, and stages the batch for the
    /// flusher. Returns the batch's end LSN and the drawn timestamp.
    fn enqueue(
        &self,
        body: &[u8],
        count: u64,
        stamp: Option<TxnId>,
        staged: Option<Bytes>,
    ) -> (u64, Option<u64>) {
        let shared = &self.shared;
        let mut core = shared.core.lock();
        let first = core.next_lsn;
        if count > 0 {
            core.push(body, count);
        }
        let (ts, commit) = match stamp {
            Some(txn) => {
                let ts = shared.oracle.draw();
                let mut rec = BytesMut::new();
                codec::put_record(&mut rec, &LogRecord::CommitTs { txn, ts });
                core.push(&rec, 1);
                (Some(ts), Some(rec))
            }
            None => (None, None),
        };
        let end = core.next_lsn;
        if let Some(body) = staged {
            let pending = &mut core.pending;
            if pending.queue.is_empty() {
                pending.since = Some(Instant::now());
            }
            pending.queue.push(StagedBatch {
                first_lsn: first,
                body,
                commit: commit.map(BytesMut::freeze),
            });
            shared.work.notify_one();
        }
        (end, ts)
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
        self.shared.work.notify_one();
        wait_durable_shared(&self.shared, lsn);
    }

    /// The durability horizon: every record below this LSN is on disk. Always 0 for in-memory logs that never reopened a file.
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
        core.resident().map(|s| s.count as usize).sum()
    }

    /// Encoded bytes of the records resident in memory — what the
    /// records counted by [`Wal::resident_records`] occupy.
    pub fn resident_bytes(&self) -> usize {
        let core = self.shared.core.lock();
        core.resident().map(|s| s.bytes.len()).sum()
    }

    /// The log-wide durability counters, read off the registry.
    pub fn stats(&self) -> WalStatsSnapshot {
        let o = &self.shared.obs;
        WalStatsSnapshot {
            flushes: o.flushes.get(),
            flushed_batches: o.flushed_batches.get(),
            flushed_bytes: o.flushed_bytes.get(),
            checkpoints: o.checkpoints.get(),
            truncated_records: o.truncated_records.get(),
        }
    }

    /// Snapshot of the retained log (recovery input).
    pub fn snapshot(&self) -> Vec<LogRecord> {
        let mut out = Vec::new();
        self.scan(0, u64::MAX, |_, r| out.push(r));
        out
    }

    /// Streams the retained records with LSN in `[lo, hi)` to `f` in LSN
    /// order, each with its LSN, straight off the segment bytes: a record
    /// is decoded when `f` gets it and is `f`'s to keep, so a caller that
    /// folds the range (a checkpoint) never holds it as records. Returns
    /// how many records `f` got.
    pub fn scan(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, LogRecord)) -> usize {
        let (segments, lo, hi) = self.view(lo, hi);
        let mut n = 0;
        walk_range(
            &segments,
            lo,
            hi,
            |b| codec::get_record(b),
            |lsn, r, _| {
                n += 1;
                f(lsn, r)
            },
        );
        n
    }

    /// The segments holding the retained records with LSN in `[lo, hi)`,
    /// and that range clamped to what is retained. The log mutex is held
    /// only to share the segments; callers decode after it is released.
    fn view(&self, lo: u64, hi: u64) -> (Vec<Arc<Segment>>, u64, u64) {
        let core = self.shared.core.lock();
        let (lo, hi) = (lo.max(core.base_lsn), hi.min(core.next_lsn));
        (core.segments(lo, hi), lo, hi)
    }

    /// The end of the LSN space (the next LSN to be assigned). Unlike
    /// [`Wal::durable_lsn`] this moves at append time, so it is the right
    /// sample point for "everything logged after this instant".
    pub fn frontier(&self) -> u64 {
        self.shared.core.lock().next_lsn
    }

    /// The retained records with LSN in `[lo, hi)`, tagged with their
    /// LSNs — the form a log shipper needs, since a reopened log's
    /// retained range does not start at 0 and recovery holes make the
    /// stream non-dense.
    pub fn records_with_lsns(&self, lo: u64, hi: u64) -> Vec<(u64, LogRecord)> {
        let mut out = Vec::new();
        self.scan(lo, hi, |lsn, r| out.push((lsn, r)));
        out
    }

    /// Durable-tail iteration for replication: up to `max` retained
    /// records with LSN in `[from, durable_lsn)`, plus the durable
    /// horizon itself. Only records below the horizon are ever returned,
    /// so a consumer can never observe a commit the log would refuse to
    /// acknowledge.
    pub fn durable_records_from(&self, from: u64, max: usize) -> (Vec<(u64, LogRecord)>, u64) {
        let durable = self.shared.durable_lsn.load(Ordering::Acquire);
        let (segments, lo, hi) = {
            let core = self.shared.core.lock();
            let lo = from.max(core.base_lsn);
            // Resident LSNs are dense: `max` records end at `lo + max`.
            let hi = durable.min(lo.saturating_add(max as u64));
            (core.segments(lo, hi), lo, hi)
        };
        let mut out = Vec::new();
        walk_range(
            &segments,
            lo,
            hi,
            |b| codec::get_record(b),
            |lsn, r, _| out.push((lsn, r)),
        );
        (out, durable)
    }

    /// Blocks until the durable horizon reaches `lsn` or `timeout`
    /// elapses; returns the horizon either way. The tailing-reader
    /// variant of [`CommitTicket::wait`] — a sender with nothing to ship
    /// parks here instead of spinning.
    pub fn wait_durable_timeout(&self, lsn: u64, timeout: Duration) -> u64 {
        if !self.shared.file_backed() {
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

    /// Serializes the retained log to its binary image: the segments'
    /// bytes from the base LSN on.
    pub fn encode_all(&self) -> Bytes {
        let (segments, lo, _) = self.view(0, u64::MAX);
        let mut buf = BytesMut::new();
        for seg in &segments {
            buf.put_slice(seg.bytes_from(lo));
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
    /// cut below their first record). Never below the current base LSN.
    ///
    /// One skim over the retained records finds it. The walk keeps only
    /// the transactions it has seen a record of but no `Commit`, `Abort`
    /// or `CommitTs` yet, and remembers the last record boundary at which
    /// that set was empty. This rests on one invariant of the log: **no
    /// record of a transaction follows its resolving record.** Every
    /// append is a whole transaction ending in its resolution, or a lone
    /// `Abort` (`bullfrog-engine`'s commit and abort paths, and a
    /// replica's applier), so a resolved transaction is never reopened.
    pub fn safe_cut(&self) -> u64 {
        let (segments, base, next) = self.view(0, u64::MAX);
        let mut open: HashSet<TxnId> = HashSet::new();
        let mut cut = base;
        walk_range(
            &segments,
            base,
            next,
            |b| codec::skim_record(b),
            |lsn, (txn, resolves), _| {
                if resolves {
                    open.remove(&txn);
                } else {
                    open.insert(txn);
                }
                if open.is_empty() {
                    cut = lsn + 1;
                }
            },
        );
        cut
    }

    /// Truncates the log at `cut` (clamped to a valid range): sealed
    /// segments wholly below `cut` are dropped from memory (the open one
    /// too when `cut` covers all of it), and the file of a file-backed
    /// log is rotated to a fresh one holding only the records at or above
    /// `cut`. The rotation image is copied from the in-memory segments —
    /// a superset of anything staged or in flight — and the rotation
    /// itself fsyncs, so the whole tail becomes durable and no
    /// staged-but-unflushed batch can be lost to a racing checkpoint.
    /// Returns the records dropped.
    ///
    /// The log mutex is held only to share the segments and, at the end,
    /// to drop them and unstage what the rotation wrote; the image is
    /// built and written while appends go on. A batch appended in between
    /// stays staged and reaches the new file through the flusher, which
    /// skips every batch below `rotated_below`.
    ///
    /// The caller is responsible for having persisted a checkpoint image
    /// covering everything below `cut` first, and for picking a
    /// transaction-safe `cut` (see [`Wal::safe_cut`]).
    pub fn truncate_to(&self, cut: u64) -> Result<u64> {
        let shared = &self.shared;
        // Lock order: retain registry, then the file, then core — the
        // flusher takes core and the file lock in sequence but never holds
        // the file lock while waiting for core, so this cannot deadlock.
        // Holding `retain` across the whole truncation means a consumer
        // registering concurrently either sees the pre-cut base (and is
        // granted its horizon) or the post-cut base (and is clamped up to
        // it) — never a base that moves out from under a granted horizon.
        // Holding the file lock keeps every flush out of the file until it
        // is rotated.
        let retain = shared.retain.lock();
        let file = shared.file.as_ref().map(|(path, f)| (path, f.lock()));
        let (cut, end, segments) = {
            let core = shared.core.lock();
            let mut cut = cut.clamp(core.base_lsn, core.next_lsn);
            // A registered consumer (a replication sender's slowest
            // replica) pins the cut: frames must not disappear under a
            // tailing reader.
            if let Some(floor) = retain.values().min() {
                cut = cut.min((*floor).max(core.base_lsn));
            }
            let segments = if file.is_some() {
                core.segments(cut, core.next_lsn)
            } else {
                Vec::new()
            };
            (cut, core.next_lsn, segments)
        };
        if let Some((path, mut guard)) = file {
            let image = rotation_image(&segments, cut);
            let tmp = rotate_tmp_path(path);
            (|| -> std::io::Result<()> {
                std::fs::write(&tmp, &image)?;
                durable_rename(&tmp, path)?;
                let file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(path)?;
                *guard = LogFile::at_end(file, image.len() as u64);
                Ok(())
            })()
            .map_err(|e| Error::Wal(format!("rotate wal file: {e}")))?;
            shared.rotated_below.fetch_max(end, Ordering::AcqRel);
        }
        let mut core = shared.core.lock();
        if shared.file_backed() {
            // Everything below `end` is durable in the rotated file;
            // batches appended since stay staged for the flusher.
            let pending = &mut core.pending;
            pending.queue.retain(|b| b.first_lsn >= end);
            if pending.queue.is_empty() {
                pending.since = None;
            }
            advance_durable(&core, shared);
        }
        let mut dropped = 0u64;
        core.sealed.retain(|seg| {
            let keep = seg.end_lsn() > cut;
            if !keep {
                dropped += seg.count;
            }
            keep
        });
        if core.open.count > 0 && core.open.end_lsn() <= cut {
            dropped += core.open.count;
            let open = &mut core.open;
            open.base_lsn = open.end_lsn();
            open.count = 0;
            open.bytes.clear();
        }
        core.base_lsn = cut;
        shared.obs.truncated_records.add(dropped);
        shared.obs.checkpoints.inc();
        Ok(dropped)
    }

    /// Test hook: `(durable_lsn, queue frontier, next_lsn)` captured
    /// atomically under the core lock, for asserting the horizon
    /// invariant `durable <= frontier <= next` (the frontier being
    /// `next_lsn` when nothing is staged or in flight).
    #[cfg(test)]
    pub(crate) fn horizon_parts(&self) -> (u64, u64, u64) {
        let core = self.shared.core.lock();
        (
            self.shared.durable_lsn.load(Ordering::Acquire),
            core.pending.frontier().unwrap_or(core.next_lsn),
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
        let Some(flusher) = self.flusher.take() else {
            return;
        };
        self.shared.core.lock().shutdown = true;
        self.shared.work.notify_all();
        let failed = flusher.join().is_err();
        // A clean close: the flusher drained, so the file gains no other
        // frame; a file at rest carries no zero tail. A failed trim leaves
        // zeros after the last frame, which a scan reads as its end.
        if let Some((_, file)) = &self.shared.file {
            let _ = file.lock().trim();
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
            .finish()
    }
}

/// The group-commit flusher: drains the staging queue with one combined
/// write+fsync per wakeup (one frame per batch), then advances the
/// durable horizon and wakes every committer it covered. Exits when the
/// log shuts down and the queue is drained.
fn flusher_loop(shared: &WalShared) {
    let (_, file) = shared
        .file
        .as_ref()
        .expect("only a file-backed log flushes");
    loop {
        let batches = {
            let mut core = shared.core.lock();
            loop {
                if core.pending.queue.is_empty() {
                    if core.shutdown {
                        return;
                    }
                    shared.work.wait(&mut core);
                    continue;
                }
                if !core.shutdown && !shared.group_window.is_zero() {
                    let deadline = core.pending.since.expect("staged batch implies since")
                        + shared.group_window;
                    if Instant::now() < deadline {
                        shared.work.wait_until(&mut core, deadline);
                        continue;
                    }
                }
                break;
            }
            let pending = &mut core.pending;
            let batches = std::mem::take(&mut pending.queue);
            pending.since = None;
            pending.inflight_first = Some(batches[0].first_lsn);
            batches
        };
        let started = Instant::now();
        let mut buf = BytesMut::new();
        let mut written = 0u64;
        {
            let mut file = file.lock();
            // A checkpoint may have rotated the file while this flush
            // waited for the lock; the rotation already wrote every batch
            // below `rotated_below`, so writing those again would
            // duplicate them.
            let rotated = shared.rotated_below.load(Ordering::Acquire);
            for b in batches.iter().filter(|b| b.first_lsn >= rotated) {
                let commit = b.commit.as_deref().unwrap_or_default();
                put_frame(&mut buf, b.first_lsn, &[&b.body, commit]);
                written += 1;
            }
            if !buf.is_empty() {
                match file.append(&buf) {
                    Ok(zeros) => shared.obs.zero_fill_bytes.add(zeros),
                    Err(e) => {
                        shared.poisoned.store(true, Ordering::Release);
                        drop(file);
                        let _core = shared.core.lock();
                        shared.durable.notify_all();
                        panic!("WAL flush failed; cannot guarantee durability: {e}");
                    }
                }
            }
        }
        if written > 0 {
            let o = &shared.obs;
            o.flush.record_micros(started.elapsed());
            o.flushes.inc();
            o.flushed_batches.add(written);
            o.flushed_bytes.add(buf.len() as u64);
        }
        {
            let mut core = shared.core.lock();
            core.pending.inflight_first = None;
            advance_durable(&core, shared);
        }
    }
}

// --- file helpers ----------------------------------------------------------

/// `BFWAL7` header bytes for a file whose log starts at `base_lsn`.
fn encode_header(base_lsn: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..FILE_MAGIC.len()].copy_from_slice(&FILE_MAGIC);
    h[FILE_MAGIC.len()..].copy_from_slice(&base_lsn.to_be_bytes());
    h
}

/// Reads a WAL file's header: `Some(base_lsn)` for a `BFWAL7` file,
/// `None` for a file shorter than a header whose bytes are a prefix of
/// one (a crash tore the header write, so the log is empty), and an
/// error for anything else.
fn parse_file_header(bytes: &[u8]) -> Result<Option<u64>> {
    let magic = bytes.len().min(FILE_MAGIC.len());
    if bytes[..magic] != FILE_MAGIC[..magic] {
        return Err(Error::Wal(format!(
            "not a BFWAL7 log file: its header starts {:?}",
            String::from_utf8_lossy(&bytes[..magic])
        )));
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut base = [0u8; 8];
    base.copy_from_slice(&bytes[FILE_MAGIC.len()..HEADER_LEN]);
    Ok(Some(u64::from_be_bytes(base)))
}

/// Appends one frame: `first_lsn:u64 nbytes:u32 crc32c:u32 payload`, the
/// payload being `parts` back to back and the checksum covering
/// `first_lsn`, `nbytes` and the payload. The length field is a u32; a
/// payload past that would silently truncate `nbytes` and tear the frame
/// stream at decode, so oversized payloads are a hard error here
/// (rotation writes one frame per segment, well below this; a single
/// transaction batch this large is unsupported). A payload is never
/// empty, so `nbytes == 0` can mark the end of the frames.
fn put_frame(buf: &mut BytesMut, first_lsn: u64, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    assert!(
        len <= u32::MAX as usize,
        "WAL frame payload of {len} bytes overflows the u32 length field"
    );
    assert!(
        len > 0,
        "an empty WAL frame would read as the end of the log"
    );
    let mut head = [0u8; 12];
    head[..8].copy_from_slice(&first_lsn.to_be_bytes());
    head[8..].copy_from_slice(&(len as u32).to_be_bytes());
    let crc = parts
        .iter()
        .fold(crc32c(&head), |crc, part| crc32c_extend(crc, part));
    buf.put_slice(&head);
    buf.put_u32(crc);
    for part in parts {
        buf.put_slice(part);
    }
}

/// The rotated file: a header at `cut`, then the records in `[cut, end)`
/// as one frame per segment, their bytes copied from the segments, not
/// encoded again.
fn rotation_image(segments: &[Arc<Segment>], cut: u64) -> BytesMut {
    let mut image = BytesMut::new();
    image.put_slice(&encode_header(cut));
    for seg in segments {
        let bytes = seg.bytes_from(cut);
        if !bytes.is_empty() {
            put_frame(&mut image, seg.base_lsn.max(cut), &[bytes]);
        }
    }
    image
}

/// Decodes the frames after the header of a file whose log starts at
/// `base`, returning LSN-tagged records and the byte offset of the end of
/// the last clean frame. The scan stops at the zero tail of a file still
/// open (`nbytes == 0`) and at a torn or damaged frame: a short header or
/// payload, a checksum mismatch (a torn write inside the zero-filled
/// region leaves zeros, not a short file), a payload whose records do not
/// decode cleanly, or a frame that does not start where the previous one
/// ended (the first at `base`).
fn decode_frames(bytes: &[u8], base: u64) -> (Vec<(u64, LogRecord)>, usize) {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    let mut expect = base;
    loop {
        if bytes.len().saturating_sub(pos) < FRAME_HEADER_LEN {
            break;
        }
        let head = &bytes[pos..pos + 12];
        let first = u64::from_be_bytes(head[..8].try_into().expect("8 bytes"));
        let n = u32::from_be_bytes(head[8..].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
        if n == 0 || first != expect || bytes.len().saturating_sub(pos + FRAME_HEADER_LEN) < n {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + n];
        if crc32c_extend(crc32c(head), payload) != crc {
            break;
        }
        let (records, consumed) = decode_prefix(payload);
        if consumed != n {
            break;
        }
        expect = first + records.len() as u64;
        out.extend((first..).zip(records));
        pos += FRAME_HEADER_LEN + n;
    }
    (out, pos)
}

/// Decodes records until the bytes run out or a record is torn;
/// returns the records and how many bytes were consumed cleanly.
fn decode_prefix(mut buf: &[u8]) -> (Vec<LogRecord>, usize) {
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

/// Opens the WAL file for writing at the end of its last clean frame,
/// returning it and one past the highest LSN the file holds. A fresh
/// file, or one whose header write a crash tore, gets a fresh `BFWAL7`
/// header. Whatever follows the last clean frame — a zero tail left by a
/// crash, a torn or damaged frame, and every frame after it — is cut off,
/// so no stale byte can ever follow a new frame. A file in any other
/// format is refused and left as it is.
fn open_log(path: &Path) -> Result<(LogFile, u64)> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| Error::Wal(format!("open wal file: {e}")))?;
    let bytes = std::fs::read(path).map_err(|e| Error::Wal(format!("read wal file: {e}")))?;
    let Some(base) = parse_file_header(&bytes)? else {
        let header = encode_header(0);
        file.set_len(0)
            .map_err(|e| Error::Wal(format!("reset torn wal header: {e}")))?;
        file.write_all(&header)
            .and_then(|()| file.sync_data())
            .map_err(|e| Error::Wal(format!("write wal header: {e}")))?;
        return Ok((LogFile::at_end(file, header.len() as u64), 0));
    };
    let (frames, clean) = decode_frames(&bytes, base);
    if clean < bytes.len() {
        file.set_len(clean as u64)
            .map_err(|e| Error::Wal(format!("truncate torn wal tail: {e}")))?;
    }
    let end = frames.last().map_or(base, |(l, _)| l + 1);
    Ok((LogFile::at_end(file, clean as u64), end))
}

// --- binary format -------------------------------------------------------
//
// file    := header frame* zero*
// header  := "BFWAL7" base_lsn:u64
// frame   := first_lsn:u64 nbytes:u32 crc32c:u32 record*
//
// `nbytes` counts the records' bytes and is never 0; `crc32c` covers
// `first_lsn`, `nbytes` and the records. The first frame starts at
// `base_lsn` and each later one where the previous one ended. The zeros
// are an open file's zero-filled extent (a clean close trims them); a
// scan reads their `nbytes == 0` as the end.
// record  := tag:u8 txn:varint body
// rid     := page:varint slot:varint
// row     := count:varint value*
//
// Rows, values and varints are `bullfrog_common::codec`'s encoding, the
// one the heap stores its tuples in.

/// The record codec: the log's record encoding, shared with the
/// checkpoint image in `bullfrog-engine`, the BFNET1 wire protocol, and
/// replication `FRAMES` (same value/row/granule encoding everywhere).
/// Values and rows are [`bullfrog_common::codec`]'s.
///
/// Decoders read any [`Buf`] — a `Bytes` payload or a borrowed `&[u8]`
/// — and never trust a count: a preallocation is bounded by the bytes
/// left, since every element takes at least one.
pub mod codec {
    use bullfrog_common::codec::{self as value_codec, Sink};
    use bullfrog_common::{Error, Result, Row, RowId, TableId, TxnId, Value};
    use bytes::{Buf, BufMut};

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

    /// Encodes a full log record (the WAL's record format; also the
    /// payload format of replication `FRAMES`).
    pub fn put_record(buf: &mut impl BufMut, r: &LogRecord) {
        match r {
            LogRecord::Begin(t) => put_tag_varint(buf, TAG_BEGIN, t.0),
            LogRecord::Insert {
                txn,
                table,
                rid,
                row,
            } => {
                put_tag_varint(buf, TAG_INSERT, txn.0);
                put_varint(buf, table.0.into());
                put_rid(buf, *rid);
                put_row(buf, row);
            }
            LogRecord::Update {
                txn,
                table,
                rid,
                after,
            } => {
                put_tag_varint(buf, TAG_UPDATE, txn.0);
                put_varint(buf, table.0.into());
                put_rid(buf, *rid);
                put_row(buf, after);
            }
            LogRecord::Delete { txn, table, rid } => {
                put_tag_varint(buf, TAG_DELETE, txn.0);
                put_varint(buf, table.0.into());
                put_rid(buf, *rid);
            }
            LogRecord::MigrationGranule {
                txn,
                migration,
                granule,
            } => {
                put_tag_varint(buf, TAG_GRANULE, txn.0);
                put_varint(buf, (*migration).into());
                put_granule(buf, granule);
            }
            LogRecord::Commit(t) => put_tag_varint(buf, TAG_COMMIT, t.0),
            LogRecord::CommitTs { txn, ts } => {
                put_tag_varint(buf, TAG_COMMIT_TS, txn.0);
                put_varint(buf, *ts);
            }
            LogRecord::Abort(t) => put_tag_varint(buf, TAG_ABORT, t.0),
            LogRecord::Epoch { txn, epoch } => {
                put_tag_varint(buf, TAG_EPOCH, txn.0);
                put_varint(buf, *epoch);
            }
        }
    }

    /// Decodes a log record written by [`put_record`].
    pub fn get_record(buf: &mut impl Buf) -> Result<LogRecord> {
        let tag = get_u8(buf)?;
        if !(TAG_BEGIN..=TAG_EPOCH).contains(&tag) {
            return Err(Error::Wal(format!("bad record tag {tag}")));
        }
        let txn = TxnId(get_varint(buf)?);
        Ok(match tag {
            TAG_BEGIN => LogRecord::Begin(txn),
            TAG_INSERT => LogRecord::Insert {
                txn,
                table: TableId(get_varint_u32(buf)?),
                rid: get_rid(buf)?,
                row: get_row(buf)?,
            },
            TAG_UPDATE => LogRecord::Update {
                txn,
                table: TableId(get_varint_u32(buf)?),
                rid: get_rid(buf)?,
                after: get_row(buf)?,
            },
            TAG_DELETE => LogRecord::Delete {
                txn,
                table: TableId(get_varint_u32(buf)?),
                rid: get_rid(buf)?,
            },
            TAG_GRANULE => LogRecord::MigrationGranule {
                txn,
                migration: get_varint_u32(buf)?,
                granule: get_granule(buf)?,
            },
            TAG_COMMIT => LogRecord::Commit(txn),
            TAG_ABORT => LogRecord::Abort(txn),
            TAG_COMMIT_TS => LogRecord::CommitTs {
                txn,
                ts: get_varint(buf)?,
            },
            _ => LogRecord::Epoch {
                txn,
                epoch: get_varint(buf)?,
            },
        })
    }

    /// Steps over one record written by [`put_record`] without building
    /// it, returning its transaction and whether the record resolves it
    /// (a commit or an abort). Scans that need only those — the safe
    /// checkpoint cut and rotation — skip a decode's allocations.
    pub fn skim_record(buf: &mut impl Buf) -> Result<(TxnId, bool)> {
        let tag = get_u8(buf)?;
        if !(TAG_BEGIN..=TAG_EPOCH).contains(&tag) {
            return Err(Error::Wal(format!("bad record tag {tag}")));
        }
        let txn = TxnId(get_varint(buf)?);
        match tag {
            TAG_INSERT | TAG_UPDATE => {
                get_varint(buf)?;
                get_rid(buf)?;
                skim_values(buf)?;
            }
            TAG_DELETE => {
                get_varint(buf)?;
                get_rid(buf)?;
            }
            TAG_GRANULE => {
                get_varint(buf)?;
                match get_u8(buf)? {
                    0 => {
                        get_varint(buf)?;
                    }
                    1 => skim_values(buf)?,
                    k => return Err(Error::Wal(format!("bad granule kind {k}"))),
                }
            }
            TAG_COMMIT_TS | TAG_EPOCH => {
                get_varint(buf)?;
            }
            _ => {}
        }
        Ok((txn, matches!(tag, TAG_COMMIT | TAG_ABORT | TAG_COMMIT_TS)))
    }

    /// Encodes a granule key.
    pub fn put_granule(buf: &mut impl BufMut, granule: &GranuleKey) {
        match granule {
            GranuleKey::Ordinal(o) => {
                buf.put_u8(0);
                put_varint(buf, *o);
            }
            GranuleKey::Group(vals) => {
                buf.put_u8(1);
                put_values(buf, vals);
            }
        }
    }

    /// Decodes a granule key.
    pub fn get_granule(buf: &mut impl Buf) -> Result<GranuleKey> {
        match get_u8(buf)? {
            0 => Ok(GranuleKey::Ordinal(get_varint(buf)?)),
            1 => Ok(GranuleKey::Group(get_values(buf)?)),
            k => Err(Error::Wal(format!("bad granule kind {k}"))),
        }
    }

    /// Encodes a row id.
    pub fn put_rid(buf: &mut impl BufMut, rid: RowId) {
        put_varint(buf, rid.page().into());
        put_varint(buf, rid.slot().into());
    }

    /// Decodes a row id.
    pub fn get_rid(buf: &mut impl Buf) -> Result<RowId> {
        let page = get_varint_u32(buf)?;
        let slot = u16::try_from(get_varint(buf)?)
            .map_err(|_| Error::Wal("row slot out of range".into()))?;
        Ok(RowId::new(page, slot))
    }

    /// Encodes a row ([`value_codec::put_values`]).
    pub fn put_row(buf: &mut impl BufMut, row: &Row) {
        put_values(buf, &row.0);
    }

    /// Decodes a row.
    pub fn get_row(buf: &mut impl Buf) -> Result<Row> {
        get_values(buf).map(Row)
    }

    fn put_values(buf: &mut impl BufMut, vals: &[Value]) {
        value_codec::put_values(&mut Out(buf), vals);
    }

    fn get_values(buf: &mut impl Buf) -> Result<Vec<Value>> {
        via_slice(buf, value_codec::get_values)
    }

    fn skim_values(buf: &mut impl Buf) -> Result<()> {
        via_slice(buf, value_codec::skim_values)
    }

    /// Appends `v` as an unsigned LEB128 varint
    /// ([`value_codec::put_varint`]).
    pub fn put_varint(buf: &mut impl BufMut, v: u64) {
        value_codec::put_varint(&mut Out(buf), v);
    }

    fn put_tag_varint(buf: &mut impl BufMut, tag: u8, v: u64) {
        buf.put_u8(tag);
        put_varint(buf, v);
    }

    /// Reads a varint written by [`put_varint`]
    /// ([`value_codec::get_varint`]).
    pub fn get_varint(buf: &mut impl Buf) -> Result<u64> {
        via_slice(buf, value_codec::get_varint)
    }

    fn get_varint_u32(buf: &mut impl Buf) -> Result<u32> {
        u32::try_from(get_varint(buf)?).map_err(|_| Error::Wal("varint overflows u32".into()))
    }

    fn get_u8(buf: &mut impl Buf) -> Result<u8> {
        if buf.remaining() < 1 {
            return Err(Error::Wal("truncated u8".into()));
        }
        Ok(buf.get_u8())
    }

    /// Lets the shared value codec append to any [`BufMut`].
    struct Out<'a, B>(&'a mut B);

    impl<B: BufMut> Sink for Out<'_, B> {
        #[inline]
        fn put_slice(&mut self, bytes: &[u8]) {
            self.0.put_slice(bytes);
        }

        #[inline]
        fn put_u8(&mut self, b: u8) {
            self.0.put_u8(b);
        }
    }

    /// Runs a decoder of the shared value codec over `buf`'s bytes and
    /// advances `buf` past what it read. Every [`Buf`] the log, the
    /// checkpoint and the wire decode (`Bytes`, `&[u8]`) is one
    /// contiguous chunk.
    #[inline]
    fn via_slice<T>(buf: &mut impl Buf, decode: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
        debug_assert_eq!(buf.chunk().len(), buf.remaining(), "a contiguous buffer");
        let mut rd = buf.chunk();
        let len = rd.len();
        let out = decode(&mut rd);
        let used = len - rd.len();
        buf.advance(used);
        out
    }

    /// Decodes a big-endian u32 with truncation checking.
    pub fn get_u32(buf: &mut impl Buf) -> Result<u32> {
        if buf.remaining() < 4 {
            return Err(Error::Wal("truncated u32".into()));
        }
        Ok(buf.get_u32())
    }

    /// Decodes a big-endian u64 with truncation checking.
    pub fn get_u64(buf: &mut impl Buf) -> Result<u64> {
        if buf.remaining() < 8 {
            return Err(Error::Wal("truncated u64".into()));
        }
        Ok(buf.get_u64())
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

    /// A per-test temp file path (tests run in one process, so the pid
    /// alone is not unique), with any file a previous run left there
    /// removed.
    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bullfrog-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.wal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The file's records in LSN order, without LSNs.
    fn load(path: &Path) -> Vec<LogRecord> {
        let records = Wal::load(path).unwrap();
        records.into_iter().map(|(_, r)| r).collect()
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
        // The sharded layout: base_lsn:u64 shard:u32 shards:u32, then frames.
        let framed = |magic: &[u8; 6]| {
            let mut b = BytesMut::new();
            b.put_slice(magic);
            b.put_u64(0);
            b.put_u32(0);
            b.put_u32(1);
            put_frame(&mut b, 0, &[&records]);
            b
        };
        let [bfwal2, bfwal4, bfwal5, bfwal6] =
            [b"BFWAL2", b"BFWAL4", b"BFWAL5", b"BFWAL6"].map(framed);
        let cases: [&[u8]; 7] = [
            b"not a log\n",
            &records,
            &bfwal1,
            &bfwal2,
            &bfwal4,
            &bfwal5,
            &bfwal6,
        ];
        for bytes in cases {
            std::fs::write(&path, bytes).unwrap();
            assert!(Wal::with_file(&path).is_err());
            assert!(Wal::load(&path).is_err());
            // Neither extended, zero-filled nor trimmed.
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file was modified");
        }
        // The fixed-width, the unchecksummed and the sharded predecessors
        // are refused by name, by the opener and the loader alike.
        for (bytes, name) in [
            (&bfwal4, "BFWAL4"),
            (&bfwal5, "BFWAL5"),
            (&bfwal6, "BFWAL6"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = Wal::load(&path).unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
            let err = Wal::with_file(&path).unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_magic_prefix_resets_to_empty() {
        let path = temp_wal("torn-header");
        for n in 1..FILE_MAGIC.len() {
            std::fs::write(&path, &FILE_MAGIC[..n]).unwrap();
            assert!(load(&path).is_empty());
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), 0);
            wal.append([LogRecord::Begin(TxnId(1))], None).wait();
            drop(wal);
            assert_eq!(load(&path), vec![LogRecord::Begin(TxnId(1))]);
        }
        std::fs::remove_file(&path).unwrap();
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
        // Reopening an existing log keeps prior records and
        // resumes the LSN frontier past them.
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), sample_records().len());
            wal.append([LogRecord::Begin(TxnId(9))], None);
        }
        let loaded = Wal::load(&path).unwrap();
        assert_eq!(loaded.len(), sample_records().len() + 1);
        assert_eq!(
            loaded.last().unwrap(),
            &(sample_records().len() as u64, LogRecord::Begin(TxnId(9)))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("torn");
        {
            let wal = Wal::with_file(&path).unwrap();
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
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), sample_records().len() - 1);
            wal.append([LogRecord::Begin(TxnId(50))], None).wait();
        }
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len());
        assert_eq!(loaded.last().unwrap(), &LogRecord::Begin(TxnId(50)));
        std::fs::remove_file(&path).unwrap();
    }

    /// A log holding `sample_records()` one frame per record,
    /// still open. Returns it with the byte offset where each frame
    /// starts, and the end of the last frame.
    fn open_log_of_one_record_frames(tag: &str) -> (PathBuf, Wal, Vec<usize>, usize) {
        let path = temp_wal(tag);
        let wal = Wal::with_file(&path).unwrap();
        let mut starts = Vec::new();
        let mut end = HEADER_LEN;
        for r in sample_records() {
            let mut payload = BytesMut::new();
            codec::put_record(&mut payload, &r);
            starts.push(end);
            end += FRAME_HEADER_LEN + payload.len();
            wal.append([r], None).wait();
        }
        (path, wal, starts, end)
    }

    #[test]
    fn a_copy_of_an_open_log_has_a_zero_tail_and_every_acked_record() {
        let (path, wal, starts, end) = open_log_of_one_record_frames("zero-tail");
        let copy = path.with_extension("copy");
        std::fs::copy(&path, &copy).unwrap();
        let bytes = std::fs::read(&copy).unwrap();
        assert!(bytes.len() > end, "{} bytes", bytes.len());
        assert!(
            bytes[end..].iter().all(|&b| b == 0),
            "zeros after the frames"
        );
        assert_eq!(load(&copy), sample_records());
        // A torn last frame, zeroed in place (a torn write inside the
        // zero-filled extent) or cut off: either way that frame alone is
        // dropped. Its last byte zeroed still decodes (`Abort(TxnId(0))`)
        // — only the checksum tells.
        let last = *starts.last().unwrap();
        for k in [1, 2, 5, end - last] {
            let mut zeroed = bytes.clone();
            zeroed[end - k..end].fill(0);
            let mut cut = bytes[..end].to_vec();
            cut.truncate(end - k);
            for torn in [zeroed, cut] {
                std::fs::write(&copy, &torn).unwrap();
                let loaded = load(&copy);
                assert_eq!(loaded[..], sample_records()[..starts.len() - 1], "k = {k}");
            }
        }
        // Opening the copy cuts the zero tail before appending after it.
        std::fs::write(&copy, &bytes).unwrap();
        {
            let reopened = Wal::with_file(&copy).unwrap();
            assert_eq!(reopened.len(), sample_records().len());
            reopened.append([LogRecord::Begin(TxnId(50))], None).wait();
        }
        let mut expect = sample_records();
        expect.push(LogRecord::Begin(TxnId(50)));
        assert_eq!(load(&copy), expect);
        drop(wal);
        std::fs::remove_file(&copy).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_damaged_middle_frame_ends_the_log_for_good() {
        let (path, wal, starts, _) = open_log_of_one_record_frames("flip");
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the fourth frame: its records may
        // still decode, but its checksum no longer matches.
        bytes[starts[3] + FRAME_HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path)[..], sample_records()[..3]);
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), 3, "the log resumes at the damaged frame");
            wal.append([LogRecord::Begin(TxnId(50))], None).wait();
        }
        // Reopened again: the frames past the damage never come back.
        let wal = Wal::with_file(&path).unwrap();
        assert_eq!(wal.len(), 4);
        drop(wal);
        let mut expect = sample_records()[..3].to_vec();
        expect.push(LogRecord::Begin(TxnId(50)));
        assert_eq!(load(&path), expect);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_frame_that_skips_or_repeats_lsns_ends_the_log() {
        let path = temp_wal("noncontiguous");
        let records = sample_records();
        let frame = |b: &mut BytesMut, lsn: u64, r: &LogRecord| {
            let mut payload = BytesMut::new();
            codec::put_record(&mut payload, r);
            put_frame(b, lsn, &[&payload]);
        };
        // Frames at LSNs 0 and 1, then a third whose checksum is valid but
        // whose `first_lsn` skips ahead or repeats LSN 1, then a fourth
        // that would continue it.
        for third in [7u64, 1] {
            let mut b = BytesMut::new();
            b.put_slice(&encode_header(0));
            frame(&mut b, 0, &records[0]);
            frame(&mut b, 1, &records[1]);
            frame(&mut b, third, &records[2]);
            frame(&mut b, third + 1, &records[3]);
            std::fs::write(&path, &b).unwrap();
            assert_eq!(load(&path)[..], records[..2], "third frame at {third}");
            // Reopening cuts the stray frames off before appending.
            {
                let wal = Wal::with_file(&path).unwrap();
                assert_eq!(wal.len(), 2);
                wal.append([LogRecord::Begin(TxnId(50))], None).wait();
            }
            let loaded = Wal::load(&path).unwrap();
            assert_eq!(
                loaded,
                vec![
                    (0, records[0].clone()),
                    (1, records[1].clone()),
                    (2, LogRecord::Begin(TxnId(50))),
                ]
            );
        }
        // A first frame that does not start at the header's base LSN is
        // stray too.
        let mut b = BytesMut::new();
        b.put_slice(&encode_header(10));
        frame(&mut b, 11, &records[0]);
        std::fs::write(&path, &b).unwrap();
        assert!(load(&path).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commits_inside_the_zeroed_extent_change_no_file_size() {
        let path = temp_wal("extent");
        let wal = Wal::with_file(&path).unwrap();
        let commit = |t: u64| {
            wal.append(
                [LogRecord::Begin(TxnId(t)), LogRecord::Commit(TxnId(t))],
                None,
            )
            .wait()
        };
        commit(0);
        let len = std::fs::metadata(&path).unwrap().len();
        let zeros = wal.obs().counter("wal.zero_fill_bytes");
        assert_eq!(zeros.get(), ZERO_FIRST as u64, "one extent so far");
        for t in 1..=100 {
            commit(t);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "commit {t}");
        }
        assert_eq!(zeros.get(), ZERO_FIRST as u64);
        drop(wal);
        assert_eq!(load(&path).len(), 202);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_clean_close_leaves_header_and_frames_only() {
        let (path, wal, _, end) = open_log_of_one_record_frames("trim");
        assert!(std::fs::metadata(&path).unwrap().len() > end as u64);
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_prefix_reports_consumed_bytes() {
        let wal = Wal::new();
        wal.append(sample_records(), None);
        let bytes = wal.encode_all();
        let full = bytes.len();
        let (records, consumed) = decode_prefix(&bytes);
        assert_eq!(records.len(), sample_records().len());
        assert_eq!(consumed, full);
        let (records, consumed) = decode_prefix(&bytes[..full - 1]);
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
        // No drop, no join: the file must already hold every record.
        let loaded = load(&path);
        assert_eq!(loaded, sample_records());
        assert_eq!(wal.durable_lsn(), sample_records().len() as u64);
        drop(wal);
        std::fs::remove_file(&path).unwrap();
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
        // A ticket outlives the handle: dropping the log drains the queue
        // first, so the ticket resolves durable.
        let late = wal.append([LogRecord::Begin(TxnId(42))], None);
        drop(wal);
        late.wait();
        assert!(late.is_durable());
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len() + 1);
        std::fs::remove_file(&path).unwrap();
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
    fn group_commit_coalesces_fsyncs() {
        use std::sync::Barrier;
        let path = temp_wal("group");
        const THREADS: u64 = 8;
        let wal = Arc::new(
            Wal::with_file_opts(
                &path,
                WalOptions {
                    group_window: Duration::from_millis(30),
                },
            )
            .unwrap(),
        );
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
        std::fs::remove_file(&path).unwrap();
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
        let wal = Wal::with_file(&path).unwrap();
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_records_from_below_the_base_starts_at_the_base() {
        let path = temp_wal("durable-from-base");
        let wal = Wal::with_file(&path).unwrap();
        for t in 1..=3u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                .wait();
        }
        wal.truncate_to(2).unwrap();
        let (recs, durable) = wal.durable_records_from(0, 2);
        assert_eq!(durable, 6);
        assert_eq!(
            recs,
            vec![
                (2, LogRecord::Begin(TxnId(2))),
                (3, LogRecord::Commit(TxnId(2)))
            ]
        );
        drop(wal);
        std::fs::remove_file(&path).unwrap();
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
        // The cut covers every record, so every segment is gone, the
        // open one included.
        assert_eq!(dropped as usize, before);
        assert_eq!(wal.resident_records(), 0);
        assert_eq!(wal.resident_bytes(), 0);
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
        let wal = Wal::with_file(&path).unwrap();
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
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_file_header(&bytes).unwrap(), Some(100));
        let records = Wal::load(&path).unwrap();
        assert_eq!(
            records,
            vec![
                (100, LogRecord::Begin(TxnId(77))),
                (101, LogRecord::Commit(TxnId(77)))
            ]
        );
        // Reopening appends after the rotated tail.
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), 102);
            wal.append([LogRecord::Begin(TxnId(78))], None);
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_file_header(&bytes).unwrap(), Some(100));
        assert_eq!(Wal::load(&path).unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_preserves_staged_unflushed_batches() {
        // Regression: a checkpoint racing an in-flight durable append
        // used to clear the pending buffer and strand the staged bytes
        // past the cut. Rotation now rebuilds the tail from the record
        // store, which is a superset of anything staged.
        let path = temp_wal("rotate-staged");
        let wal = Wal::with_file_opts(
            &path,
            WalOptions {
                group_window: Duration::from_secs(5),
            },
        )
        .unwrap();
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
        let loaded = Wal::load(&path).unwrap();
        assert_eq!(
            loaded,
            vec![(2, LogRecord::Begin(t2)), (3, LogRecord::Commit(t2)),]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_keeps_the_tail_behind_an_unresolved_transaction() {
        let path = temp_wal("rotate-unresolved");
        let wal = Wal::with_file(&path).unwrap();
        for t in 0..50u64 {
            let txn = TxnId(t);
            wal.append([LogRecord::Begin(txn), LogRecord::Commit(txn)], None)
                .wait();
        }
        // An unresolved transaction pins the cut at its first record, so
        // the rotated tail spans many transactions.
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
        let loaded = Wal::load(&path).unwrap();
        assert_eq!(loaded.first().unwrap().0, 100);
        assert_eq!(loaded.len(), snapshot.len());
        let records: Vec<LogRecord> = loaded.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, snapshot);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_walks_segment_ranges() {
        let wal = Wal::new();
        for t in 0..2000u64 {
            wal.append([LogRecord::Begin(TxnId(t))], None);
        }
        let mut mid = Vec::new();
        assert_eq!(wal.scan(1500, 1503, |lsn, r| mid.push((lsn, r))), 3);
        assert_eq!(
            mid,
            vec![
                (1500, LogRecord::Begin(TxnId(1500))),
                (1501, LogRecord::Begin(TxnId(1501))),
                (1502, LogRecord::Begin(TxnId(1502))),
            ]
        );
        assert_eq!(wal.records_with_lsns(1500, 1503), mid);
        assert_eq!(wal.scan(1999, 5000, |_, _| {}), 1);
        assert_eq!(wal.scan(5000, 6000, |_, _| {}), 0);
    }

    #[test]
    fn resident_log_is_sealed_bytes() {
        let wal = Wal::new();
        let batch = |t: u64| {
            let txn = TxnId(t);
            [
                LogRecord::Begin(txn),
                LogRecord::Insert {
                    txn,
                    table: TableId(3),
                    rid: RowId::new(t as u32, 7),
                    row: row![t as i64, "some text", 2.5],
                },
                LogRecord::Commit(txn),
            ]
        };
        for t in 0..8000u64 {
            wal.append(batch(t), None);
        }
        let core = wal.shared.core.lock();
        assert!(core.sealed.len() > 2, "appends sealed segments");
        for seg in &core.sealed {
            // Sealed at the reserved size: at most one batch of slack.
            assert!(seg.bytes.len() <= SEGMENT_BYTES);
            assert!(seg.bytes.len() > SEGMENT_BYTES - 100);
            assert_eq!(seg.bytes.capacity(), SEGMENT_BYTES);
        }
        let bytes: usize = core.resident().map(|s| s.bytes.len()).sum();
        drop(core);
        assert_eq!(wal.resident_bytes(), bytes);
        assert_eq!(wal.encode_all().len(), bytes);
        assert_eq!(wal.resident_records(), 24_000);
        let all = wal.records_with_lsns(0, u64::MAX);
        assert_eq!(all.len(), 24_000);
        for (i, (lsn, r)) in all.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(r, &batch(i as u64 / 3)[i % 3]);
        }
        // A range reader decodes across a segment boundary.
        let first = wal.shared.core.lock().sealed[0].end_lsn();
        let across = wal.records_with_lsns(first - 1, first + 1);
        assert_eq!(across, all[first as usize - 1..first as usize + 1]);
        let (tail, durable) = wal.durable_records_from(23_990, 4);
        assert_eq!(durable, 0, "an in-memory log reports no durable horizon");
        assert!(tail.is_empty());
    }

    #[test]
    fn over_long_varints_are_refused() {
        // Eleven continuation bytes: refused, never shifted past bit 63.
        let eleven = [0xFFu8; 11];
        assert!(codec::get_varint(&mut &eleven[..]).is_err());
        // A tenth byte may carry only bit 63.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(codec::get_varint(&mut &max[..]).unwrap(), u64::MAX);
        let mut encoded = Vec::new();
        codec::put_varint(&mut encoded, u64::MAX);
        assert_eq!(encoded, max);
        max[9] = 0x02;
        assert!(codec::get_varint(&mut &max[..]).is_err());
        // A record or row whose varint never ends is an error too.
        for bytes in [&[2u8, 0x80, 0x80][..], &[0xFFu8; 22][..]] {
            assert!(codec::get_record(&mut &bytes[..]).is_err());
            assert!(codec::get_row(&mut &bytes[..]).is_err());
        }
    }

    #[test]
    fn hostile_counts_allocate_nothing() {
        // A row claiming u32::MAX values with three bytes behind it.
        let mut bytes = Vec::new();
        codec::put_varint(&mut bytes, u64::from(u32::MAX));
        bytes.extend([2, 2, 2]);
        assert!(codec::get_row(&mut &bytes[..]).is_err());
        let mut granule = vec![1u8];
        granule.extend_from_slice(&bytes);
        assert!(codec::get_granule(&mut &granule[..]).is_err());
        // A string claiming more bytes than follow.
        let mut text = vec![5u8];
        codec::put_varint(&mut text, 1 << 40);
        let mut row = vec![1u8];
        row.extend_from_slice(&text);
        assert!(codec::get_row(&mut &row[..]).is_err());
    }

    #[test]
    fn orderline_stock_insert_encodes_small() {
        // An `orderline_stock` row at the top of TPC-C's ranges: twelve
        // small integers. The fixed-width codec spent 131 bytes on it.
        let ints = |v: &[i64]| v.iter().map(|i| Value::Int(*i)).collect::<Vec<_>>();
        let mut row = ints(&[10, 10, 3000, 15, 100_000, 0, 10]);
        row.push(Value::Decimal(999_999));
        row.extend(ints(&[10, 100]));
        row.push(Value::Decimal(100_000));
        row.extend(ints(&[100]));
        let rec = LogRecord::Insert {
            txn: TxnId((1 << 21) - 1),
            table: TableId(40),
            rid: RowId::new(20_000, 40),
            row: Row(row),
        };
        let mut buf = Vec::new();
        codec::put_record(&mut buf, &rec);
        assert!(buf.len() <= 52, "{} bytes", buf.len());
        assert_eq!(codec::get_record(&mut &buf[..]).unwrap(), rec);
    }

    /// Integers at the encodings' edges: zero, the 7-bit group
    /// boundaries, the sign flip, and the extremes.
    fn edge_i64() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0i64),
            Just(-1i64),
            Just(-64i64),
            Just(64i64),
            any::<i64>(),
        ]
    }

    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(u64::MAX),
            Just(0u64),
            Just(127u64),
            Just(128u64),
            Just(1u64 << 63),
            any::<u64>(),
        ]
    }

    fn edge_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            edge_i64().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            edge_i64().prop_map(Value::Decimal),
            "[a-zé]{0,300}".prop_map(Value::Text),
            prop_oneof![Just(i32::MIN), Just(i32::MAX), any::<i32>()].prop_map(Value::Date),
            edge_i64().prop_map(Value::Timestamp),
        ]
    }

    /// Every record variant, its integers at their edges.
    fn edge_record() -> impl Strategy<Value = LogRecord> {
        let txn = || edge_u64().prop_map(TxnId);
        let table = || prop_oneof![Just(u32::MAX), Just(0u32), any::<u32>()].prop_map(TableId);
        let rid = || {
            (
                prop_oneof![Just(u32::MAX), any::<u32>()],
                prop_oneof![Just(u16::MAX), any::<u16>()],
            )
                .prop_map(|(page, slot)| RowId::new(page, slot))
        };
        let row = || proptest::collection::vec(edge_value(), 0..14).prop_map(Row);
        prop_oneof![
            txn().prop_map(LogRecord::Begin),
            (txn(), table(), rid(), row()).prop_map(|(txn, table, rid, row)| LogRecord::Insert {
                txn,
                table,
                rid,
                row
            }),
            (txn(), table(), rid(), row()).prop_map(|(txn, table, rid, after)| {
                LogRecord::Update {
                    txn,
                    table,
                    rid,
                    after,
                }
            }),
            (txn(), table(), rid()).prop_map(|(txn, table, rid)| LogRecord::Delete {
                txn,
                table,
                rid
            }),
            (txn(), any::<u32>(), edge_u64()).prop_map(|(txn, migration, o)| {
                LogRecord::MigrationGranule {
                    txn,
                    migration,
                    granule: GranuleKey::Ordinal(o),
                }
            }),
            (
                txn(),
                any::<u32>(),
                proptest::collection::vec(edge_value(), 0..4)
            )
                .prop_map(|(txn, migration, vals)| LogRecord::MigrationGranule {
                    txn,
                    migration,
                    granule: GranuleKey::Group(vals),
                }),
            txn().prop_map(LogRecord::Commit),
            (txn(), edge_u64()).prop_map(|(txn, ts)| LogRecord::CommitTs { txn, ts }),
            txn().prop_map(LogRecord::Abort),
            (txn(), edge_u64()).prop_map(|(txn, epoch)| LogRecord::Epoch { txn, epoch }),
        ]
    }

    /// A row holding every value variant encodes to the same bytes as
    /// before the value codec moved to `bullfrog-common`, so `BFWAL7`
    /// files, sidecars and wire frames are unchanged, and the log writes
    /// exactly the bytes the heap stores.
    #[test]
    fn put_row_bytes_are_pinned() {
        let row = Row(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-2),
            Value::Float(1.5),
            Value::Decimal(300),
            Value::Text("hé".into()),
            Value::Date(-1),
            Value::Timestamp(64),
        ]);
        let golden: &[u8] = &[
            8, 0, 1, 1, 2, 3, 3, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0, 4, 0xD8, 0x04, 5, 3, b'h', 0xC3,
            0xA9, 6, 1, 7, 0x80, 0x01,
        ];
        let mut buf = BytesMut::new();
        codec::put_row(&mut buf, &row);
        assert_eq!(&buf[..], golden);
        assert_eq!(&*bullfrog_common::codec::encode_values(&row.0), golden);
        let mut rd = Bytes::from(golden.to_vec());
        assert_eq!(codec::get_row(&mut rd).unwrap(), row);
        assert!(rd.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every record variant round-trips at its boundary values, the
        /// skim agrees with the decode, and every proper prefix of the
        /// encoding is an error to both, never a shorter record.
        #[test]
        fn codec_round_trips_at_the_boundaries(r in edge_record()) {
            let mut buf = Vec::new();
            codec::put_record(&mut buf, &r);
            let mut whole: &[u8] = &buf;
            prop_assert_eq!(codec::get_record(&mut whole).unwrap(), r.clone());
            prop_assert!(whole.is_empty());
            // The skim steps over exactly the same bytes.
            let mut skimmed: &[u8] = &buf;
            let (txn, resolves) = codec::skim_record(&mut skimmed).unwrap();
            prop_assert!(skimmed.is_empty());
            prop_assert_eq!(txn, r.txn());
            prop_assert_eq!(resolves, r.is_commit() || matches!(r, LogRecord::Abort(_)));
            for cut in 0..buf.len() {
                prop_assert!(
                    codec::get_record(&mut &buf[..cut]).is_err(),
                    "a {}-byte prefix of {} decoded",
                    cut,
                    buf.len()
                );
                prop_assert!(codec::skim_record(&mut &buf[..cut]).is_err());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The durable horizon never runs ahead of the queue's first
        /// staged or in-flight LSN, which never runs ahead of the log end,
        /// under randomized concurrent interleavings; and the file
        /// replays to exactly the in-memory stream.
        #[test]
        fn durable_horizon_trails_the_first_staged_lsn(
            batches in proptest::collection::vec((1u64..64, 1usize..4, any::<bool>()), 1..24),
        ) {
            let path = temp_wal("horizon");
            let wal = Arc::new(Wal::with_file(&path).unwrap());
            let stop = Arc::new(AtomicBool::new(false));
            let sampler = {
                let wal = Arc::clone(&wal);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let (durable, first, next) = wal.horizon_parts();
                        assert!(
                            durable <= first && first <= next,
                            "horizon invariant violated: durable={durable} first={first} next={next}"
                        );
                        std::thread::yield_now();
                    }
                })
            };
            let mut appenders = Vec::new();
            for chunk in 0..3usize {
                let wal = Arc::clone(&wal);
                let mine: Vec<(u64, usize, bool)> = batches
                    .iter()
                    .skip(chunk)
                    .step_by(3)
                    .copied()
                    .collect();
                appenders.push(std::thread::spawn(move || {
                    for (txn, count, wait) in mine {
                        let txn = TxnId(txn);
                        let mut batch = vec![LogRecord::Begin(txn)];
                        batch.extend((1..count).map(|_| LogRecord::Commit(txn)));
                        let ticket = wal.append(batch, None);
                        if wait {
                            ticket.wait();
                        }
                    }
                }));
            }
            for h in appenders {
                h.join().unwrap();
            }
            wal.sync();
            stop.store(true, Ordering::Release);
            sampler.join().unwrap();
            let (durable, first, next) = wal.horizon_parts();
            prop_assert_eq!(durable, next);
            prop_assert_eq!(first, next);
            let total: usize = batches.iter().map(|(_, c, _)| *c).sum();
            prop_assert_eq!(next as usize, total);
            let snapshot = wal.snapshot();
            drop(wal);
            let loaded = Wal::load(&path).unwrap();
            prop_assert_eq!(loaded.len(), total);
            for (i, (lsn, r)) in loaded.iter().enumerate() {
                prop_assert_eq!(*lsn, i as u64);
                prop_assert_eq!(r, &snapshot[i]);
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// The fixpoint `Wal::safe_cut` replaced, kept as the reference the
    /// one-pass walk is checked against: per transaction the first and
    /// last retained record and whether it is resolved, then the cut
    /// lowered to the first record of any transaction straddling it
    /// until none does.
    fn fixpoint_cut(wal: &Wal) -> u64 {
        let (segments, base, next) = wal.view(0, u64::MAX);
        let mut spans: HashMap<TxnId, (u64, u64, bool)> = HashMap::new();
        walk_range(
            &segments,
            base,
            next,
            |b| codec::skim_record(b),
            |lsn, (txn, resolves), _| {
                let e = spans.entry(txn).or_insert((lsn, lsn, false));
                e.1 = lsn;
                e.2 |= resolves;
            },
        );
        let mut cut = next;
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
        cut.max(base)
    }

    /// One step of a generated log that keeps the invariant `safe_cut`
    /// rests on: no record of a transaction follows its resolution.
    #[derive(Debug, Clone)]
    enum Step {
        /// A whole transaction in one batch: `Begin`, data, and its
        /// resolution (0 `Commit`, 1 `CommitTs`, 2 `Abort`).
        Whole(usize, u8),
        /// A lone `Abort` of a transaction that logged nothing else.
        LoneAbort,
        /// `Begin` and data of a transaction left open.
        Open(usize),
        /// More data for the `k`-th open transaction (modulo how many).
        More(usize, usize),
        /// Data and the resolution of the `k`-th open transaction.
        Resolve(usize, usize, u8),
        /// A checkpoint truncation at this share (per mille) of the log.
        Truncate(u16),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..4, 0u8..3).prop_map(|(n, how)| Step::Whole(n, how)),
            Just(Step::LoneAbort),
            (0usize..4).prop_map(Step::Open),
            (any::<usize>(), 1usize..4).prop_map(|(k, n)| Step::More(k, n)),
            (any::<usize>(), 0usize..3, 0u8..3).prop_map(|(k, n, how)| Step::Resolve(k, n, how)),
            (0u16..=1000).prop_map(Step::Truncate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The one-pass cut equals the reference fixpoint on logs with
        /// unresolved tails, lone aborts, interleaved batches and
        /// truncations, after every step.
        #[test]
        fn one_pass_cut_equals_the_fixpoint(steps in proptest::collection::vec(step(), 0..40)) {
            let wal = Wal::new();
            let mut next_txn = 1u64;
            let mut open: Vec<TxnId> = Vec::new();
            let data = |txn: TxnId, n: usize| {
                (0..n).map(move |i| LogRecord::Delete {
                    txn,
                    table: TableId(1),
                    rid: RowId::new(0, i as u16),
                })
            };
            let resolve = |txn: TxnId, how: u8| match how {
                0 => LogRecord::Commit(txn),
                1 => LogRecord::CommitTs { txn, ts: txn.0 },
                _ => LogRecord::Abort(txn),
            };
            for s in steps {
                let mut fresh = || {
                    next_txn += 1;
                    TxnId(next_txn)
                };
                match s {
                    Step::Whole(n, how) => {
                        let txn = fresh();
                        let mut batch = vec![LogRecord::Begin(txn)];
                        batch.extend(data(txn, n));
                        batch.push(resolve(txn, how));
                        wal.append(batch, None);
                    }
                    Step::LoneAbort => {
                        wal.append([LogRecord::Abort(fresh())], None);
                    }
                    Step::Open(n) => {
                        let txn = fresh();
                        let mut batch = vec![LogRecord::Begin(txn)];
                        batch.extend(data(txn, n));
                        wal.append(batch, None);
                        open.push(txn);
                    }
                    Step::More(k, n) if !open.is_empty() => {
                        let txn = open[k % open.len()];
                        wal.append(data(txn, n), None);
                    }
                    Step::Resolve(k, n, how) if !open.is_empty() => {
                        let txn = open.remove(k % open.len());
                        let mut batch: Vec<LogRecord> = data(txn, n).collect();
                        batch.push(resolve(txn, how));
                        wal.append(batch, None);
                    }
                    Step::Truncate(share) => {
                        let (base, next) = (wal.base_lsn(), wal.len() as u64);
                        wal.truncate_to(base + (next - base) * u64::from(share) / 1000)
                            .unwrap();
                    }
                    Step::More(..) | Step::Resolve(..) => {}
                }
                prop_assert_eq!(wal.safe_cut(), fixpoint_cut(&wal));
            }
        }
    }
}
