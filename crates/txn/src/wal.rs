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
//! # A frame is one committed transaction
//!
//! The log holds only committed work. A transaction's redo stays in its
//! own buffer until it commits, and its commit appends all of it as one
//! **frame**: the transaction's records at consecutive LSNs and its
//! commit timestamp (0 under 2PL). An abort appends nothing, and a
//! record names no transaction: the frame it sits in is the transaction.
//! The frame is the unit everywhere — in memory, in the file and in
//! replication `FRAMES` — so every reader takes whole frames, and every
//! frame boundary is a safe place to cut the log.
//!
//! # Structure
//!
//! The log keeps its frames **encoded**, in the record codec's bytes
//! ([`codec`]), never decoded. They live in **segments** of about 64 KiB:
//! an open segment receives each frame's bytes under a short mutex, and a
//! full segment is sealed into an immutable `Arc<Segment>` by a move; a
//! frame never spans two segments. Readers share the segments under the
//! mutex (copying at most the open one) and decode after releasing it.
//! LSNs are record offsets from the birth of the log and are assigned
//! under the same mutex, so frames stay contiguous and totally ordered.
//!
//! # Group commit
//!
//! Durability is decoupled from appending: a file-backed log has one
//! backing file, one staging queue and one flusher thread, as PostgreSQL
//! has one WAL stream and one group-commit writer. A committing frame's
//! records are encoded once, *outside* the lock, assigned contiguous LSNs
//! under it, and its bytes are both kept in the open segment and staged
//! on the queue. The flusher takes everything staged, writes it as one
//! file frame per transaction with one write and one `fdatasync`, and
//! wakes every committer the flush covered.
//!
//! The commit barrier is the **durable horizon**: `durable_lsn` is the
//! first LSN still staged or in flight (`next_lsn` when the queue is
//! drained). It is recomputed under the log mutex whenever a flush
//! completes; every record below it is on disk. Because the file is
//! written in LSN order, a crash can only lose a suffix of the log, never
//! an earlier frame while keeping a later one.
//!
//! # One append path
//!
//! [`Wal::append`] is the only way into the log. It stages a frame and
//! returns a [`CommitTicket`] at enqueue time; the caller picks the wait:
//! [`CommitTicket::wait`] parks on the barrier (local durability),
//! [`CommitTicket::wait_acked`] additionally consults the [`SyncGate`]
//! (replica quorum, fencing), and an asynchronous committer may simply
//! keep the ticket and wait (or poll) later. A stamped append is a
//! snapshot-mode commit: its frame carries a commit timestamp drawn under
//! the log mutex, so timestamp order equals LSN order. No fsync ever
//! happens under the log lock, and no checksum is computed at append: the
//! flusher and rotation compute the file's.
//!
//! # File format
//!
//! The file starts with a `BFWAL8` header (the base LSN) and holds one
//! **file frame** per transaction: `first_lsn:u64 nbytes:u32 crc32c:u32
//! body`, where the body is the record count, the commit timestamp and
//! the records (see the grammar above [`codec`]), and the CRC-32C covers
//! `first_lsn`, `nbytes` and the body. Each frame starts where the
//! previous one ended (the first at the header's base LSN). `BFWAL8` is
//! the only format: a file with any other header — `BFWAL7`'s frames of
//! records that each named their transaction, `BFWAL6`'s sharded files,
//! `BFWAL5`'s unchecksummed frames and `BFWAL4`'s fixed-width records
//! included — is refused with an [`Error::Wal`] naming the header found,
//! and left untouched.
//!
//! The file is written in place, not appended to: it is kept zero-filled
//! ahead of its last frame (a 64 KiB extent at first, then extents as
//! long as the file, capped at 1 MiB), so a flush overwrites zeros and
//! its `fdatasync` commits no file-size change. The scan reads
//! `nbytes == 0` as the end of the frames, and stops at a frame whose
//! checksum fails (a torn write in a zero-filled file leaves zeros inside
//! a frame) or whose `first_lsn` is not the previous frame's end (in one
//! file written in LSN order, that can only be damage). Opening a file
//! cuts it at its last clean frame, so nothing past a torn or damaged
//! frame ever follows new frames; a clean close (dropping the [`Wal`])
//! trims the zero tail, so a file at rest ends at its last frame. A file
//! shorter than a header whose bytes are a prefix of one (a crash tore
//! the header write) is reset to an empty log. Rotation replaces the file
//! through [`bullfrog_common::fs::durable_rename`], so a power loss
//! cannot bring the pre-rotation file back.
//!
//! [`Wal::truncate_to`] supports checkpointing: once a caller has
//! persisted a snapshot of the log below a frame boundary (see
//! `bullfrog-engine::checkpoint`), the prefix is dropped from memory at
//! segment granularity and the file is rotated to a fresh log holding
//! only the tail. Rotation copies the in-memory segments' bytes — a
//! superset of anything staged or in flight — so a checkpoint racing a
//! commit can never drop staged-but-unflushed bytes past the cut.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::codec::{get_count, put_varint, Sink};
use bullfrog_common::fs::{durable_rename, parent_dir, sync_dir};
use bullfrog_common::hash::{crc32c, crc32c_extend};
use bullfrog_common::{Error, Result, Row, RowId, TableId, Value};
use bullfrog_obs::{Counter, Histogram, Registry};
use bytes::{BufMut, Bytes, BytesMut};
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

/// One WAL record: one change a committed transaction made. The
/// transaction is the [`Frame`] the record sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Row inserted.
    Insert {
        /// Table mutated.
        table: TableId,
        /// Row id assigned.
        rid: RowId,
        /// Inserted row (after-image).
        row: Row,
    },
    /// Row updated.
    Update {
        /// Table mutated.
        table: TableId,
        /// Row id updated.
        rid: RowId,
        /// After-image.
        after: Row,
    },
    /// Row deleted.
    Delete {
        /// Table mutated.
        table: TableId,
        /// Row id deleted.
        rid: RowId,
    },
    /// A migration granule was physically migrated by the transaction;
    /// replay marks it migrated.
    MigrationGranule {
        /// Which migration statement (assigned by `bullfrog-core`).
        migration: u32,
        /// The granule.
        granule: GranuleKey,
    },
    /// The fencing epoch was raised to `epoch` (promotion, or adoption of
    /// a higher epoch observed from a peer). Appended as a one-record
    /// frame, so it rides the normal replay and replication machinery;
    /// recovery takes the max over all `Epoch` records and the sidecar
    /// (see `epoch::EpochStore`), so the fence survives even a lost
    /// sidecar file.
    Epoch {
        /// The epoch in force from this point of the log onward.
        epoch: u64,
    },
}

/// One committed transaction as the log holds it: its records, at the
/// consecutive LSNs from `first_lsn`, and its commit timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// LSN of the first record; record `i` sits at `first_lsn + i`.
    pub first_lsn: u64,
    /// The snapshot-mode commit timestamp, drawn under the log mutex so
    /// that timestamp order is LSN order; 0 for a 2PL commit.
    pub commit_ts: u64,
    /// The transaction's records, in the order it made them.
    pub records: Vec<LogRecord>,
}

impl Frame {
    /// One past the LSN of the last record. Saturates: `first_lsn`
    /// may come from a file or a peer.
    pub fn end_lsn(&self) -> u64 {
        self.first_lsn.saturating_add(self.records.len() as u64)
    }
}

/// Target bytes per segment. The open segment reserves this much and is
/// sealed when the next frame would not fit, so a sealed segment wastes
/// at most one frame's worth of capacity, and a reader copying the open
/// segment copies at most about this much.
const SEGMENT_BYTES: usize = 64 << 10;

/// Magic prefix of the WAL file, the only on-disk log format.
const FILE_MAGIC: [u8; 6] = *b"BFWAL8";
/// File header: magic + base_lsn:u64.
const HEADER_LEN: usize = FILE_MAGIC.len() + 8;
/// File frame header: first_lsn:u64 + nbytes:u32 + crc32c:u32.
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
    /// encoding a frame grows no fresh allocation. One a bulk frame grew
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

/// A few varints encoded on the stack: the length, count and timestamp
/// in front of a frame's records.
struct Head {
    buf: [u8; 30],
    len: usize,
}

impl Head {
    /// The varints of `values`, in order.
    fn of(values: &[u64]) -> Self {
        let mut head = Head {
            buf: [0; 30],
            len: 0,
        };
        for v in values {
            put_varint(&mut head, *v);
        }
        head
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl Sink for Head {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// A frame inside a segment, not yet decoded: its first LSN, its record
/// count and its body (`count commit_ts record*`, what a file frame
/// carries after its header).
struct RawFrame<'a> {
    first_lsn: u64,
    count: u64,
    body: &'a [u8],
}

impl RawFrame<'_> {
    fn end_lsn(&self) -> u64 {
        self.first_lsn + self.count
    }

    /// Decodes the frame; the log decodes only what it encoded.
    fn decode(&self) -> Frame {
        codec::get_frame(&mut &self.body[..], self.first_lsn)
            .expect("a log segment decodes what append encoded")
    }
}

/// A run of encoded frames starting at a fixed LSN, each `len:varint
/// body`, and how many records they hold. The open segment grows under
/// the log mutex; sealed segments are immutable and shared out under
/// `Arc`, so readers decode them without holding the lock.
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

    /// The segment's frames, in LSN order.
    fn frames(&self) -> impl Iterator<Item = RawFrame<'_>> {
        let mut rest: &[u8] = &self.bytes;
        let mut lsn = self.base_lsn;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let len = get_count(&mut rest).expect("a segment frame length");
            let (body, tail) = rest.split_at(len);
            rest = tail;
            let count = get_count(&mut &body[..]).expect("a segment frame count") as u64;
            let frame = RawFrame {
                first_lsn: lsn,
                count,
                body,
            };
            lsn += count;
            Some(frame)
        })
    }
}

/// The frames of `segments` that start in `[lo, hi)`, in LSN order.
fn frames_in(segments: &[Arc<Segment>], lo: u64, hi: u64) -> impl Iterator<Item = RawFrame<'_>> {
    segments
        .iter()
        .flat_map(|s| s.frames())
        .skip_while(move |f| f.first_lsn < lo)
        .take_while(move |f| f.first_lsn < hi)
}

/// Tuning knobs for a file-backed log.
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// How long the flusher waits after the first staged frame before
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
    /// Committed frames covered by those flushes (`wal.flushed_batches`).
    pub flushed_batches: u64,
    /// Bytes written (`wal.flushed_bytes`).
    pub flushed_bytes: u64,
    /// Checkpoint truncations performed (`wal.checkpoints`).
    pub checkpoints: u64,
    /// Records dropped from memory by truncation (`wal.truncated_records`).
    pub truncated_records: u64,
}

/// One appended frame awaiting its flush: the record bytes the open
/// segment holds too, with the count and timestamp the file frame puts
/// in front of them.
struct StagedFrame {
    first_lsn: u64,
    count: u64,
    commit_ts: u64,
    records: Bytes,
}

/// The flusher's staging state (under the log mutex).
#[derive(Default)]
struct Pending {
    /// Encoded-but-unflushed frames, in LSN order.
    queue: Vec<StagedFrame>,
    /// When the oldest staged frame arrived (drives the group window).
    since: Option<Instant>,
    /// First LSN of the frame group currently being written+fsynced, if
    /// any. Pins the durable horizon until the flush completes.
    inflight_first: Option<u64>,
}

impl Pending {
    /// The first LSN not yet durable: the in-flight group's first, else
    /// the oldest staged frame's, else `None` (everything is on disk).
    fn frontier(&self) -> Option<u64> {
        self.inflight_first
            .or_else(|| self.queue.first().map(|b| b.first_lsn))
    }
}

/// Log state under the (short) log mutex. Appenders copy their
/// pre-encoded records into the open segment and stage a copy of them
/// for the flusher; nothing here does IO or decodes.
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
    /// Adds one frame of `count` encoded records to the open segment,
    /// sealing it first when the frame would not fit its reserved
    /// capacity. Sealing moves the segment behind an `Arc`; it copies
    /// nothing.
    fn push(&mut self, records: &[u8], count: u64, commit_ts: u64) {
        let body_head = Head::of(&[count, commit_ts]);
        let head = Head::of(&[(body_head.len + records.len()) as u64]);
        let len = head.len + body_head.len + records.len();
        let open = &mut self.open;
        if open.count > 0 && open.bytes.len() + len > open.bytes.capacity() {
            let full = std::mem::replace(open, Segment::empty(self.next_lsn));
            self.sealed.push(Arc::new(full));
        }
        let open = &mut self.open;
        if open.bytes.capacity() == 0 {
            open.bytes.reserve_exact(SEGMENT_BYTES.max(len));
        }
        open.bytes.extend_from_slice(head.bytes());
        open.bytes.extend_from_slice(body_head.bytes());
        open.bytes.extend_from_slice(records);
        open.count += count;
        self.next_lsn += count;
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

    /// The first LSN of the frame holding `lsn` (`lsn` itself when a
    /// frame starts there or it is the end of the log).
    fn frame_start(&self, lsn: u64) -> u64 {
        self.resident()
            .find(|s| s.end_lsn() > lsn)
            .and_then(|s| s.frames().find(|f| f.end_lsn() > lsn))
            .map_or(lsn, |f| f.first_lsn)
    }

    fn resident(&self) -> impl Iterator<Item = &Segment> {
        self.sealed.iter().map(|s| &**s).chain([&self.open])
    }
}

/// State shared between the log handle, its flusher thread, and any
/// outstanding [`CommitTicket`]s.
struct WalShared {
    core: Mutex<WalCore>,
    /// Signaled when the queue gains a frame or shutdown is requested.
    /// Waits on `core`.
    work: Condvar,
    /// The commit barrier: signaled when `durable_lsn` advances.
    durable: Condvar,
    /// The durable horizon: all records with LSN below this are on disk.
    /// Every acknowledgement — every [`CommitTicket`] wait — parks on it.
    durable_lsn: AtomicU64,
    /// Every record below this LSN is in the file the last checkpoint
    /// rotation wrote: a flush skips staged frames below it instead of
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
/// miss a frame that exists but is not yet visible.
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
/// the frame is in the log and will be flushed, but may not be durable
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
    /// be durable (one past the frame's last record).
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

    /// True once the durable horizon covers the frame (always, for an
    /// in-memory log). Never blocks.
    pub fn is_durable(&self) -> bool {
        match &self.shared {
            None => true,
            Some(s) => !s.file_backed() || s.durable_lsn.load(Ordering::Acquire) >= self.lsn,
        }
    }

    /// Blocks until the durable horizon covers the frame — i.e. this
    /// commit *and every frame ordered before it* are on disk, so an
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

/// The write-ahead log: an append-only sequence of committed frames in
/// segments, optionally made durable in one file by a group-commit
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
    /// default options. Existing frames in the file are **not** loaded
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

    /// Reads the WAL file at `path` into its committed frames, in LSN
    /// order. The scan stops at a torn or damaged frame (see the module
    /// docs), so a crash's torn tail is tolerated.
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<Frame>> {
        let bytes =
            std::fs::read(path.as_ref()).map_err(|e| Error::Wal(format!("read wal file: {e}")))?;
        Ok(match parse_file_header(&bytes)? {
            Some(base) => decode_frames(&bytes, base).0,
            None => Vec::new(),
        })
    }

    /// Appends one committed transaction's records as a frame and returns
    /// its [`CommitTicket`] at enqueue time, without waiting for
    /// durability. An empty batch appends nothing.
    ///
    /// A `stamp`ed append is a snapshot-mode commit: its commit
    /// timestamp is drawn **under the core mutex** so that two commits'
    /// timestamps compare exactly like their LSNs, and the frame and the
    /// ticket carry it ([`CommitTicket::commit_ts`]).
    ///
    /// The records are encoded once, outside the lock, into the appending
    /// thread's reusable buffer, so appenders pay serialization in
    /// parallel and allocate nothing for it; the critical section copies
    /// those bytes into the open segment behind a few bytes of frame head
    /// and, for a file-backed log, stages a shared copy of them (`Bytes`)
    /// for the flusher.
    ///
    /// Acknowledge with [`CommitTicket::wait`] or
    /// [`CommitTicket::wait_acked`]. Both park on the durable horizon,
    /// which covers every frame below this one too.
    pub fn append(&self, batch: impl IntoIterator<Item = LogRecord>, stamp: bool) -> CommitTicket {
        let started = Instant::now();
        let shared = &self.shared;
        let (end, ts) = ENCODE_BUF.with_borrow_mut(|records| {
            records.clear();
            let mut count = 0u64;
            for r in batch {
                codec::put_record(records, &r);
                count += 1;
            }
            let staged =
                (shared.file_backed() && count > 0).then(|| Bytes::copy_from_slice(records));
            let span = self.enqueue(records, count, stamp, staged);
            if records.capacity() > SEGMENT_BYTES {
                *records = Vec::new();
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

    /// The critical section of [`Wal::append`]: assigns the frame its
    /// LSNs, draws the commit timestamp of a stamped frame, copies the
    /// frame into the open segment and stages it for the flusher. Returns
    /// the frame's end LSN and the drawn timestamp.
    fn enqueue(
        &self,
        records: &[u8],
        count: u64,
        stamp: bool,
        staged: Option<Bytes>,
    ) -> (u64, Option<u64>) {
        let shared = &self.shared;
        let mut core = shared.core.lock();
        let first_lsn = core.next_lsn;
        if count == 0 {
            return (first_lsn, None);
        }
        let ts = stamp.then(|| shared.oracle.draw());
        let commit_ts = ts.unwrap_or(0);
        core.push(records, count, commit_ts);
        if let Some(records) = staged {
            let pending = &mut core.pending;
            if pending.queue.is_empty() {
                pending.since = Some(Instant::now());
            }
            pending.queue.push(StagedFrame {
                first_lsn,
                count,
                commit_ts,
                records,
            });
            shared.work.notify_one();
        }
        (core.next_lsn, ts)
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

    /// Encoded bytes of the frames resident in memory — what the
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

    /// Every retained frame (recovery input).
    pub fn snapshot(&self) -> Vec<Frame> {
        let mut out = Vec::new();
        self.scan(0, u64::MAX, |f| out.push(f));
        out
    }

    /// Streams the retained frames that start in `[lo, hi)` to `f` in LSN
    /// order, straight off the segment bytes: a frame is decoded when `f`
    /// gets it and is `f`'s to keep, so a caller that folds the range (a
    /// checkpoint) never holds it as frames. Bounds are frame boundaries
    /// for every caller. Returns how many records `f` got.
    pub fn scan(&self, lo: u64, hi: u64, mut f: impl FnMut(Frame)) -> usize {
        let (segments, lo, hi) = self.view(lo, hi);
        let mut n = 0;
        for raw in frames_in(&segments, lo, hi) {
            n += raw.count as usize;
            f(raw.decode());
        }
        n
    }

    /// Encoded bytes of the retained frames that start in `[lo, hi)`,
    /// counted off the segments without decoding a record.
    pub fn encoded_bytes(&self, lo: u64, hi: u64) -> usize {
        let (segments, lo, hi) = self.view(lo, hi);
        frames_in(&segments, lo, hi).map(|f| f.body.len()).sum()
    }

    /// The segments holding the retained records with LSN in `[lo, hi)`,
    /// and that range clamped to what is retained. The log mutex is held
    /// only to share the segments; callers decode after it is released.
    fn view(&self, lo: u64, hi: u64) -> (Vec<Arc<Segment>>, u64, u64) {
        let core = self.shared.core.lock();
        let (lo, hi) = (lo.max(core.base_lsn), hi.min(core.next_lsn));
        (core.segments(lo, hi), lo, hi)
    }

    /// The end of the LSN space (the next LSN to be assigned), always a
    /// frame boundary. Unlike [`Wal::durable_lsn`] this moves at append
    /// time, so it is the right sample point for "everything logged after
    /// this instant".
    pub fn frontier(&self) -> u64 {
        self.shared.core.lock().next_lsn
    }

    /// Durable-tail iteration for replication: the retained frames that
    /// start in `[from, durable_lsn)`, whole, up to `max` records — but
    /// at least one frame, however large — plus the durable horizon
    /// itself. Only frames below the horizon are ever returned, so a
    /// consumer can never observe a commit the log would refuse to
    /// acknowledge.
    pub fn durable_frames_from(&self, from: u64, max: usize) -> (Vec<Frame>, u64) {
        let durable = self.shared.durable_lsn.load(Ordering::Acquire);
        let (segments, lo) = {
            let core = self.shared.core.lock();
            let lo = from.max(core.base_lsn);
            // Resident LSNs are dense: the frames that start below
            // `lo + max` lie in the segments up to there.
            let hi = durable.min(lo.saturating_add(max as u64));
            (core.segments(lo, hi), lo)
        };
        let mut out = Vec::new();
        let mut taken = 0u64;
        for raw in frames_in(&segments, lo, durable) {
            if taken > 0 && taken + raw.count > max as u64 {
                break;
            }
            taken += raw.count;
            out.push(raw.decode());
        }
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

    /// Truncates the log at `cut`: clamped to the retained range, then
    /// to the lowest retain horizon, then down to the start of the frame
    /// holding it, so the cut is always a frame boundary. Sealed segments
    /// wholly below the cut are dropped from memory (the open one too
    /// when the cut covers all of it), and the file of a file-backed log
    /// is rotated to a fresh one holding only the frames at or above the
    /// cut. The rotation image is copied from the in-memory segments — a
    /// superset of anything staged or in flight — and the rotation itself
    /// fsyncs, so the whole tail becomes durable and no
    /// staged-but-unflushed frame can be lost to a racing checkpoint.
    /// Returns the records dropped.
    ///
    /// The log mutex is held only to share the segments and, at the end,
    /// to drop them and unstage what the rotation wrote; the image is
    /// built and written while appends go on. A frame appended in between
    /// stays staged and reaches the new file through the flusher, which
    /// skips every frame below `rotated_below`.
    ///
    /// The caller is responsible for having persisted a checkpoint image
    /// covering everything below `cut` first.
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
            let cut = core.frame_start(cut);
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
            // frames appended since stay staged for the flusher.
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
/// write+fsync per wakeup (one file frame per transaction), then advances
/// the durable horizon and wakes every committer it covered. Exits when
/// the log shuts down and the queue is drained.
fn flusher_loop(shared: &WalShared) {
    let (_, file) = shared
        .file
        .as_ref()
        .expect("only a file-backed log flushes");
    loop {
        let frames = {
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
                    let deadline = core.pending.since.expect("staged frame implies since")
                        + shared.group_window;
                    if Instant::now() < deadline {
                        shared.work.wait_until(&mut core, deadline);
                        continue;
                    }
                }
                break;
            }
            let pending = &mut core.pending;
            let frames = std::mem::take(&mut pending.queue);
            pending.since = None;
            pending.inflight_first = Some(frames[0].first_lsn);
            frames
        };
        let started = Instant::now();
        let mut buf = BytesMut::new();
        let mut written = 0u64;
        {
            let mut file = file.lock();
            // A checkpoint may have rotated the file while this flush
            // waited for the lock; the rotation already wrote every frame
            // below `rotated_below`, so writing those again would
            // duplicate them.
            let rotated = shared.rotated_below.load(Ordering::Acquire);
            for f in frames.iter().filter(|f| f.first_lsn >= rotated) {
                let head = Head::of(&[f.count, f.commit_ts]);
                put_file_frame(&mut buf, f.first_lsn, &[head.bytes(), &f.records]);
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

/// `BFWAL8` header bytes for a file whose log starts at `base_lsn`.
fn encode_header(base_lsn: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..FILE_MAGIC.len()].copy_from_slice(&FILE_MAGIC);
    h[FILE_MAGIC.len()..].copy_from_slice(&base_lsn.to_be_bytes());
    h
}

/// Reads a WAL file's header: `Some(base_lsn)` for a `BFWAL8` file,
/// `None` for a file shorter than a header whose bytes are a prefix of
/// one (a crash tore the header write, so the log is empty), and an
/// error for anything else.
fn parse_file_header(bytes: &[u8]) -> Result<Option<u64>> {
    let magic = bytes.len().min(FILE_MAGIC.len());
    if bytes[..magic] != FILE_MAGIC[..magic] {
        return Err(Error::Wal(format!(
            "not a BFWAL8 log file: its header starts {:?}",
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

/// Appends one file frame: `first_lsn:u64 nbytes:u32 crc32c:u32 body`,
/// the body being `parts` back to back and the checksum covering
/// `first_lsn`, `nbytes` and the body. The length field is a u32; a body
/// past that would silently truncate `nbytes` and tear the frame stream
/// at decode, so an oversized body is a hard error here (a single
/// transaction this large is unsupported). A body is never empty, so
/// `nbytes == 0` can mark the end of the frames.
fn put_file_frame(buf: &mut BytesMut, first_lsn: u64, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    assert!(
        len <= u32::MAX as usize,
        "WAL frame body of {len} bytes overflows the u32 length field"
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

/// The rotated file: a header at `cut`, then one file frame per resident
/// transaction at or above it, their bodies copied from the segments,
/// not encoded again.
fn rotation_image(segments: &[Arc<Segment>], cut: u64) -> BytesMut {
    let mut image = BytesMut::new();
    image.put_slice(&encode_header(cut));
    for f in frames_in(segments, cut, u64::MAX) {
        put_file_frame(&mut image, f.first_lsn, &[f.body]);
    }
    image
}

/// Decodes the file frames after the header of a file whose log starts
/// at `base`, returning them and the byte offset of the end of the last
/// clean one. The scan stops at the zero tail of a file still open
/// (`nbytes == 0`) and at a torn or damaged frame: a short header or
/// body, a checksum mismatch (a torn write inside the zero-filled region
/// leaves zeros, not a short file), a body that does not decode to
/// exactly its bytes, or a frame that does not start where the previous
/// one ended (the first at `base`).
fn decode_frames(bytes: &[u8], base: u64) -> (Vec<Frame>, usize) {
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
        let mut body = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + n];
        if crc32c_extend(crc32c(head), body) != crc {
            break;
        }
        match codec::get_frame(&mut body, first) {
            Ok(frame) if body.is_empty() => {
                expect = frame.end_lsn();
                out.push(frame);
            }
            _ => break,
        }
        pos += FRAME_HEADER_LEN + n;
    }
    (out, pos)
}

/// Opens the WAL file for writing at the end of its last clean frame,
/// returning it and one past the highest LSN the file holds. A fresh
/// file, or one whose header write a crash tore, gets a fresh `BFWAL8`
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
    let end = frames.last().map_or(base, Frame::end_lsn);
    Ok((LogFile::at_end(file, clean as u64), end))
}

// --- binary format -------------------------------------------------------
//
// file    := header frame* zero*
// header  := "BFWAL8" base_lsn:u64
// frame   := first_lsn:u64 nbytes:u32 crc32c:u32 body
// body    := count:varint commit_ts:varint record{count}
//
// A frame is one committed transaction. `nbytes` counts the body's bytes
// and is never 0; `crc32c` covers `first_lsn`, `nbytes` and the body.
// `commit_ts` is the snapshot-mode commit timestamp, 0 under 2PL. The
// first frame starts at `base_lsn` and each later one where the previous
// one ended (`first_lsn + count`). The zeros are an open file's
// zero-filled extent (a clean close trims them); a scan reads their
// `nbytes == 0` as the end. In memory a segment holds `len:varint body`
// per frame, and replication `FRAMES` carry `first_lsn:u64 body`.
//
// record  := 1 table:varint rid row      (insert)
//          | 2 table:varint rid row      (update: the after-image)
//          | 3 table:varint rid          (delete)
//          | 4 migration:varint granule  (migration granule)
//          | 5 epoch:varint              (fencing epoch)
// rid     := page:varint slot:varint
// granule := 0 ordinal:varint | 1 row
// row     := count:varint value*
//
// Rows, values and varints are `bullfrog_common::codec`'s encoding, the
// one the heap stores its tuples in.

/// The record codec: the log's frame and record encoding, shared with the
/// checkpoint image in `bullfrog-engine`, the BFNET1 wire protocol, and
/// replication `FRAMES` (same value/row/granule encoding everywhere).
/// Values and rows are [`bullfrog_common::codec`]'s.
///
/// Decoders read a `&mut &[u8]`, advance it past what they read, and
/// hand every value straight to the shared value codec; a caller holding
/// `Bytes` passes its slice and advances by what was read. They never
/// trust a count: a preallocation is bounded by the bytes left, since
/// every element takes at least one.
pub mod codec {
    use bullfrog_common::codec::{self as value_codec, get_varint, Sink};
    use bullfrog_common::{Error, Result, Row, RowId, TableId};
    use bytes::{Buf, BufMut};

    use super::{Frame, GranuleKey, LogRecord};

    const TAG_INSERT: u8 = 1;
    const TAG_UPDATE: u8 = 2;
    const TAG_DELETE: u8 = 3;
    const TAG_GRANULE: u8 = 4;
    const TAG_EPOCH: u8 = 5;

    /// Encodes a frame's body: its record count, its commit timestamp
    /// and its records (the body of a file frame, and of a frame in
    /// replication `FRAMES`).
    pub fn put_frame(buf: &mut impl BufMut, frame: &Frame) {
        put_varint(buf, frame.records.len() as u64);
        put_varint(buf, frame.commit_ts);
        for r in &frame.records {
            put_record(buf, r);
        }
    }

    /// Decodes a frame body written by [`put_frame`] as the frame at
    /// `first_lsn`. A record count past the bytes left is an error, not
    /// an allocation.
    pub fn get_frame(buf: &mut &[u8], first_lsn: u64) -> Result<Frame> {
        let count = value_codec::get_count(buf)?;
        let commit_ts = get_varint(buf)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(get_record(buf)?);
        }
        Ok(Frame {
            first_lsn,
            commit_ts,
            records,
        })
    }

    /// Encodes one log record.
    pub fn put_record(buf: &mut impl BufMut, r: &LogRecord) {
        match r {
            LogRecord::Insert { table, rid, row } => {
                put_table_rid(buf, TAG_INSERT, *table, *rid);
                put_row(buf, row);
            }
            LogRecord::Update { table, rid, after } => {
                put_table_rid(buf, TAG_UPDATE, *table, *rid);
                put_row(buf, after);
            }
            LogRecord::Delete { table, rid } => put_table_rid(buf, TAG_DELETE, *table, *rid),
            LogRecord::MigrationGranule { migration, granule } => {
                buf.put_u8(TAG_GRANULE);
                put_varint(buf, (*migration).into());
                put_granule(buf, granule);
            }
            LogRecord::Epoch { epoch } => {
                buf.put_u8(TAG_EPOCH);
                put_varint(buf, *epoch);
            }
        }
    }

    /// Decodes a log record written by [`put_record`].
    pub fn get_record(buf: &mut &[u8]) -> Result<LogRecord> {
        Ok(match get_u8(buf)? {
            TAG_INSERT => LogRecord::Insert {
                table: get_table(buf)?,
                rid: get_rid(buf)?,
                row: get_row(buf)?,
            },
            TAG_UPDATE => LogRecord::Update {
                table: get_table(buf)?,
                rid: get_rid(buf)?,
                after: get_row(buf)?,
            },
            TAG_DELETE => LogRecord::Delete {
                table: get_table(buf)?,
                rid: get_rid(buf)?,
            },
            TAG_GRANULE => LogRecord::MigrationGranule {
                migration: get_varint_u32(buf)?,
                granule: get_granule(buf)?,
            },
            TAG_EPOCH => LogRecord::Epoch {
                epoch: get_varint(buf)?,
            },
            tag => return Err(Error::Wal(format!("bad record tag {tag}"))),
        })
    }

    fn put_table_rid(buf: &mut impl BufMut, tag: u8, table: TableId, rid: RowId) {
        buf.put_u8(tag);
        put_varint(buf, table.0.into());
        put_rid(buf, rid);
    }

    fn get_table(buf: &mut &[u8]) -> Result<TableId> {
        get_varint_u32(buf).map(TableId)
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
                value_codec::put_values(&mut Out(buf), vals);
            }
        }
    }

    /// Decodes a granule key.
    pub fn get_granule(buf: &mut &[u8]) -> Result<GranuleKey> {
        match get_u8(buf)? {
            0 => Ok(GranuleKey::Ordinal(get_varint(buf)?)),
            1 => Ok(GranuleKey::Group(value_codec::get_values(buf)?)),
            k => Err(Error::Wal(format!("bad granule kind {k}"))),
        }
    }

    /// Encodes a row id.
    pub fn put_rid(buf: &mut impl BufMut, rid: RowId) {
        put_varint(buf, rid.page().into());
        put_varint(buf, rid.slot().into());
    }

    /// Decodes a row id.
    pub fn get_rid(buf: &mut &[u8]) -> Result<RowId> {
        let page = get_varint_u32(buf)?;
        let slot = u16::try_from(get_varint(buf)?)
            .map_err(|_| Error::Wal("row slot out of range".into()))?;
        Ok(RowId::new(page, slot))
    }

    /// Encodes a row ([`value_codec::put_values`]).
    pub fn put_row(buf: &mut impl BufMut, row: &Row) {
        value_codec::put_values(&mut Out(buf), &row.0);
    }

    /// Decodes a row.
    pub fn get_row(buf: &mut &[u8]) -> Result<Row> {
        value_codec::get_values(buf).map(Row)
    }

    /// Appends `v` as an unsigned LEB128 varint
    /// ([`value_codec::put_varint`]).
    pub fn put_varint(buf: &mut impl BufMut, v: u64) {
        value_codec::put_varint(&mut Out(buf), v);
    }

    fn get_varint_u32(buf: &mut &[u8]) -> Result<u32> {
        u32::try_from(get_varint(buf)?).map_err(|_| Error::Wal("varint overflows u32".into()))
    }

    fn get_u8(buf: &mut &[u8]) -> Result<u8> {
        let (&b, rest) = buf
            .split_first()
            .ok_or_else(|| Error::Wal("truncated u8".into()))?;
        *buf = rest;
        Ok(b)
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
            LogRecord::Insert {
                table: TableId(2),
                rid: RowId::new(0, 3),
                row: row![42, "hello", 2.5],
            },
            LogRecord::Update {
                table: TableId(2),
                rid: RowId::new(0, 3),
                after: Row(vec![Value::Null, Value::Bool(true), Value::Decimal(199)]),
            },
            LogRecord::Delete {
                table: TableId(2),
                rid: RowId::new(1, 0),
            },
            LogRecord::MigrationGranule {
                migration: 7,
                granule: GranuleKey::Ordinal(12345),
            },
            LogRecord::MigrationGranule {
                migration: 7,
                granule: GranuleKey::Group(vec![Value::Int(1), Value::text("grp")]),
            },
            LogRecord::Epoch { epoch: 7 },
        ]
    }

    /// A delete naming `(table, slot)`: a small record that says which
    /// appender wrote it.
    fn delete(table: u32, slot: u64) -> LogRecord {
        LogRecord::Delete {
            table: TableId(table),
            rid: RowId::new(0, slot as u16),
        }
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

    /// The file's records in LSN order, frames flattened.
    fn load(path: &Path) -> Vec<LogRecord> {
        let frames = Wal::load(path).unwrap();
        frames.into_iter().flat_map(|f| f.records).collect()
    }

    /// A frame body's bytes.
    fn body(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_frame(&mut buf, frame);
        buf
    }

    /// The frame of the 2PL commit of `records` at `first_lsn`.
    fn frame(first_lsn: u64, records: Vec<LogRecord>) -> Frame {
        Frame {
            first_lsn,
            commit_ts: 0,
            records,
        }
    }

    #[test]
    fn binary_round_trip() {
        let wal = Wal::new();
        wal.append(sample_records(), false);
        let expect = frame(0, sample_records());
        assert_eq!(wal.snapshot(), vec![expect.clone()]);
        let bytes = body(&expect);
        let mut rd: &[u8] = &bytes;
        assert_eq!(codec::get_frame(&mut rd, 0).unwrap(), expect);
        assert!(rd.is_empty());
    }

    #[test]
    fn commit_ts_round_trips_and_resolves() {
        // A stamped commit's frame carries its timestamp, in memory, in
        // the file and through the codec.
        let path = temp_wal("commit-ts");
        let wal = Wal::with_file(&path).unwrap();
        wal.append([delete(1, 0)], false).wait();
        let ticket = wal.append([delete(1, 1), delete(1, 2)], true);
        assert_eq!(ticket.commit_ts(), Some(1));
        ticket.wait();
        wal.oracle().finish(1);
        let expect = vec![
            frame(0, vec![delete(1, 0)]),
            Frame {
                first_lsn: 1,
                commit_ts: 1,
                records: vec![delete(1, 1), delete(1, 2)],
            },
        ];
        assert_eq!(wal.snapshot(), expect);
        drop(wal);
        assert_eq!(Wal::load(&path).unwrap(), expect);
        let bytes = body(&expect[1]);
        assert_eq!(codec::get_frame(&mut &bytes[..], 1).unwrap(), expect[1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stamped_append_draws_ts_in_lsn_order() {
        let wal = Arc::new(Wal::new());
        let mut handles = Vec::new();
        for t in 1..=8u32 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let ts = wal.append([delete(t, i)], true).commit_ts().unwrap();
                    wal.oracle().finish(ts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Commit timestamps must appear in strictly increasing LSN order.
        let mut last_ts = 0;
        for f in wal.snapshot() {
            assert!(
                f.commit_ts > last_ts,
                "ts {} out of LSN order (prev {last_ts})",
                f.commit_ts
            );
            last_ts = f.commit_ts;
        }
        assert_eq!(last_ts, 400);
        assert_eq!(wal.oracle().stable(), 400);
    }

    #[test]
    fn foreign_header_is_refused_and_left_untouched() {
        let path = temp_wal("foreign");
        let records = body(&frame(0, sample_records()));
        let mut bfwal1 = b"BFWAL1".to_vec();
        bfwal1.extend_from_slice(&5u64.to_be_bytes());
        bfwal1.extend_from_slice(&records);
        // The sharded layout: base_lsn:u64 shard:u32 shards:u32, then frames.
        let sharded = |magic: &[u8; 6]| {
            let mut b = BytesMut::new();
            b.put_slice(magic);
            b.put_u64(0);
            b.put_u32(0);
            b.put_u32(1);
            put_file_frame(&mut b, 0, &[&records]);
            b
        };
        let [bfwal2, bfwal4, bfwal5, bfwal6] =
            [b"BFWAL2", b"BFWAL4", b"BFWAL5", b"BFWAL6"].map(sharded);
        // The one-file layout with per-record transactions: a header and
        // a checksummed frame, exactly like this format's but for the tag.
        let mut bfwal7 = BytesMut::new();
        bfwal7.put_slice(b"BFWAL7");
        bfwal7.put_u64(0);
        put_file_frame(&mut bfwal7, 0, &[&records]);
        let cases: [&[u8]; 8] = [
            b"not a log\n",
            &records,
            &bfwal1,
            &bfwal2,
            &bfwal4,
            &bfwal5,
            &bfwal6,
            &bfwal7,
        ];
        for bytes in cases {
            std::fs::write(&path, bytes).unwrap();
            assert!(Wal::with_file(&path).is_err());
            assert!(Wal::load(&path).is_err());
            // Neither extended, zero-filled nor trimmed.
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file was modified");
        }
        // The fixed-width, the unchecksummed, the sharded and the
        // per-record-transaction predecessors are refused by name, by the
        // opener and the loader alike.
        for (bytes, name) in [
            (&bfwal4, "BFWAL4"),
            (&bfwal5, "BFWAL5"),
            (&bfwal6, "BFWAL6"),
            (&bfwal7, "BFWAL7"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = Wal::load(&path).unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
            let err = Wal::with_file(&path).unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &bytes[..],
                "file was modified"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_frame_is_pinned() {
        // One 2PL commit of one delete, then one stamped commit of an
        // epoch, as the file holds them: any change here is a format
        // change.
        let path = temp_wal("pinned");
        let wal = Wal::with_file(&path).unwrap();
        wal.append([delete(3, 4)], false).wait();
        let ticket = wal.append([LogRecord::Epoch { epoch: 300 }], true);
        ticket.wait();
        wal.oracle().finish(ticket.commit_ts().unwrap());
        drop(wal);
        let frame = |lsn: u8, body: &[u8]| {
            let mut head = vec![0, 0, 0, 0, 0, 0, 0, lsn, 0, 0, 0, body.len() as u8];
            let crc = crc32c_extend(crc32c(&head), body);
            head.extend_from_slice(&crc.to_be_bytes());
            head.extend_from_slice(body);
            head
        };
        let mut golden = b"BFWAL8".to_vec();
        golden.extend_from_slice(&0u64.to_be_bytes());
        // count 1, commit_ts 0, delete: tag 3, table 3, page 0, slot 4.
        golden.extend(frame(0, &[1, 0, 3, 3, 0, 4]));
        // count 1, commit_ts 1, epoch: tag 5, 300 as a varint.
        golden.extend(frame(1, &[1, 1, 5, 0xAC, 0x02]));
        assert_eq!(std::fs::read(&path).unwrap(), golden);
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
            wal.append([delete(1, 1)], false).wait();
            drop(wal);
            assert_eq!(load(&path), vec![delete(1, 1)]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = body(&frame(0, sample_records()));
        for cut in 0..bytes.len() {
            assert!(
                codec::get_frame(&mut &bytes[..cut], 0).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        for tag in [0u8, 6, 0xFF] {
            assert!(matches!(
                codec::get_record(&mut &[tag][..]),
                Err(Error::Wal(_))
            ));
            // A frame of one record with that tag.
            assert!(codec::get_frame(&mut &[1, 0, tag][..], 0).is_err());
        }
    }

    #[test]
    fn lsn_is_record_offset() {
        let wal = Wal::new();
        let ticket = wal.append([delete(1, 0)], false);
        assert_eq!(ticket.wait_lsn(), 1);
        assert_eq!(
            wal.append([delete(1, 1), delete(1, 2)], false).wait_lsn(),
            3
        );
        // An empty batch appends nothing and ends where the log does.
        let empty = wal.append([], true);
        assert_eq!((empty.wait_lsn(), empty.commit_ts()), (3, None));
        assert_eq!(wal.len(), 3);
        let firsts: Vec<u64> = wal.snapshot().iter().map(|f| f.first_lsn).collect();
        assert_eq!(firsts, vec![0, 1]);
    }

    #[test]
    fn append_is_atomic_under_concurrency() {
        let wal = Arc::new(Wal::new());
        let mut handles = Vec::new();
        for t in 1..=8u32 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    wal.append([delete(t, i), delete(t, i), delete(t, i)], false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every append is one frame of its three records, at
        // consecutive LSNs.
        let frames = wal.snapshot();
        assert_eq!(frames.len(), 800);
        let mut lsn = 0;
        for f in frames {
            assert_eq!(f.first_lsn, lsn);
            assert_eq!(f.records.len(), 3);
            assert!(f.records.iter().all(|r| *r == f.records[0]));
            lsn = f.end_lsn();
        }
        assert_eq!(lsn, 2400);
    }

    #[test]
    fn file_mirror_round_trips() {
        let path = temp_wal("mirror");
        {
            let wal = Wal::with_file(&path).unwrap();
            wal.append(sample_records(), false);
        }
        let loaded = load(&path);
        assert_eq!(loaded, sample_records());
        // Reopening an existing log keeps prior frames and resumes the
        // LSN frontier past them.
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), sample_records().len());
            wal.append([delete(9, 9)], false);
        }
        let n = sample_records().len() as u64;
        assert_eq!(
            Wal::load(&path).unwrap(),
            vec![frame(0, sample_records()), frame(n, vec![delete(9, 9)])]
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
                wal.append([r], false).wait();
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
            wal.append([delete(5, 0)], false).wait();
        }
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len());
        assert_eq!(loaded.last().unwrap(), &delete(5, 0));
        std::fs::remove_file(&path).unwrap();
    }

    /// A log holding `sample_records()` one frame per record, still
    /// open. Returns it with the byte offset where each frame starts,
    /// and the end of the last frame.
    fn open_log_of_one_record_frames(tag: &str) -> (PathBuf, Wal, Vec<usize>, usize) {
        let path = temp_wal(tag);
        let wal = Wal::with_file(&path).unwrap();
        let mut starts = Vec::new();
        let mut end = HEADER_LEN;
        for r in sample_records() {
            starts.push(end);
            end += FRAME_HEADER_LEN + body(&frame(0, vec![r.clone()])).len();
            wal.append([r], false).wait();
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
        // dropped. Its last byte zeroed still decodes (`Epoch { epoch: 0 }`)
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
            reopened.append([delete(5, 0)], false).wait();
        }
        let mut expect = sample_records();
        expect.push(delete(5, 0));
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
        // Flip one body byte of the fourth frame: its records may still
        // decode, but its checksum no longer matches.
        bytes[starts[3] + FRAME_HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path)[..], sample_records()[..3]);
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), 3, "the log resumes at the damaged frame");
            wal.append([delete(5, 0)], false).wait();
        }
        // Reopened again: the frames past the damage never come back.
        let wal = Wal::with_file(&path).unwrap();
        assert_eq!(wal.len(), 4);
        drop(wal);
        let mut expect = sample_records()[..3].to_vec();
        expect.push(delete(5, 0));
        assert_eq!(load(&path), expect);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_frame_that_skips_or_repeats_lsns_ends_the_log() {
        let path = temp_wal("noncontiguous");
        let records = sample_records();
        let put = |b: &mut BytesMut, lsn: u64, r: &LogRecord| {
            put_file_frame(b, lsn, &[&body(&frame(lsn, vec![r.clone()]))]);
        };
        // Frames at LSNs 0 and 1, then a third whose checksum is valid but
        // whose `first_lsn` skips ahead or repeats LSN 1, then a fourth
        // that would continue it.
        for third in [7u64, 1] {
            let mut b = BytesMut::new();
            b.put_slice(&encode_header(0));
            put(&mut b, 0, &records[0]);
            put(&mut b, 1, &records[1]);
            put(&mut b, third, &records[2]);
            put(&mut b, third + 1, &records[3]);
            std::fs::write(&path, &b).unwrap();
            assert_eq!(load(&path)[..], records[..2], "third frame at {third}");
            // Reopening cuts the stray frames off before appending.
            {
                let wal = Wal::with_file(&path).unwrap();
                assert_eq!(wal.len(), 2);
                wal.append([delete(5, 0)], false).wait();
            }
            assert_eq!(
                Wal::load(&path).unwrap(),
                vec![
                    frame(0, vec![records[0].clone()]),
                    frame(1, vec![records[1].clone()]),
                    frame(2, vec![delete(5, 0)]),
                ]
            );
        }
        // A first frame that does not start at the header's base LSN is
        // stray too.
        let mut b = BytesMut::new();
        b.put_slice(&encode_header(10));
        put(&mut b, 11, &records[0]);
        std::fs::write(&path, &b).unwrap();
        assert!(load(&path).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commits_inside_the_zeroed_extent_change_no_file_size() {
        let path = temp_wal("extent");
        let wal = Wal::with_file(&path).unwrap();
        let commit = |t: u64| wal.append([delete(1, t)], false).wait();
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
        assert_eq!(Wal::load(&path).unwrap().len(), 101);
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
    fn durable_append_is_on_disk_when_it_returns() {
        let path = temp_wal("durable");
        let wal = Wal::with_file(&path).unwrap();
        wal.append(sample_records(), false).wait();
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
        let ticket = wal.append(sample_records(), false);
        assert_eq!(ticket.wait_lsn(), sample_records().len() as u64);
        ticket.wait();
        assert!(ticket.is_durable());
        assert!(wal.durable_lsn() >= ticket.wait_lsn());
        // A ticket outlives the handle: dropping the log drains the queue
        // first, so the ticket resolves durable.
        let late = wal.append([delete(4, 2)], false);
        drop(wal);
        late.wait();
        assert!(late.is_durable());
        let loaded = load(&path);
        assert_eq!(loaded.len(), sample_records().len() + 1);
        std::fs::remove_file(&path).unwrap();
        // In-memory logs hand out trivially-durable tickets; a stamped
        // append's ticket carries the timestamp it drew.
        let mem = Wal::new();
        let t = mem.append(sample_records(), false);
        assert!(t.is_durable());
        t.wait();
        assert_eq!(t.commit_ts(), None);
        let stamped = mem.append([delete(3, 0)], true);
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
                wal.append([delete(1, t)], false).wait();
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

    /// A log of `n` two-record frames.
    fn log_of_pairs(wal: &Wal, n: u64) {
        for t in 0..n {
            wal.append([delete(1, t), delete(2, t)], false);
        }
    }

    #[test]
    fn truncation_respects_retain_horizons() {
        // Regression: a tailing log consumer (replication sender) registers
        // the first LSN it still needs; truncation must never cut past it,
        // or frames disappear under the reader mid-stream.
        let wal = Wal::new();
        log_of_pairs(&wal, 100);
        let (id, granted) = wal.register_retain(40);
        assert_eq!(granted, 40);
        wal.truncate_to(wal.frontier()).unwrap();
        // The cut was clamped to the retain horizon, not the frontier.
        assert_eq!(wal.base_lsn(), 40);
        let mut kept = 0;
        assert_eq!(wal.scan(40, 200, |_| kept += 1), 160);
        assert_eq!(kept, 80);
        assert_eq!(wal.snapshot()[0].first_lsn, 40);
        // The consumer advances; truncation follows it.
        wal.advance_retain(id, 150);
        wal.truncate_to(wal.frontier()).unwrap();
        assert_eq!(wal.base_lsn(), 150);
        // Releasing the horizon lets truncation cut the full prefix again.
        wal.release_retain(id);
        assert_eq!(wal.retain_floor(), None);
        wal.truncate_to(wal.frontier()).unwrap();
        assert_eq!(wal.base_lsn(), 200);
    }

    #[test]
    fn register_retain_clamps_to_base() {
        // Registering below the already-truncated base grants the base:
        // those records are gone, and the consumer must be told where the
        // guarantee actually starts (it will re-bootstrap from a snapshot).
        let wal = Wal::new();
        log_of_pairs(&wal, 10);
        wal.truncate_to(wal.frontier()).unwrap();
        assert_eq!(wal.base_lsn(), 20);
        let (_, granted) = wal.register_retain(5);
        assert_eq!(granted, 20);
    }

    #[test]
    fn durable_records_from_stops_at_durable_horizon() {
        let path = temp_wal("durable-from");
        let wal = Wal::with_file(&path).unwrap();
        wal.append([delete(1, 0), delete(1, 1)], false).wait();
        wal.append([delete(2, 0)], false).wait();
        let (frames, durable) = wal.durable_frames_from(0, usize::MAX);
        assert_eq!(durable, 3);
        assert_eq!(
            frames,
            vec![
                frame(0, vec![delete(1, 0), delete(1, 1)]),
                frame(2, vec![delete(2, 0)])
            ]
        );
        // `max` bounds the records, but never splits a frame: the first
        // frame ships whole however large it is.
        let (frames, durable) = wal.durable_frames_from(0, 1);
        assert_eq!(durable, 3);
        assert_eq!(frames, vec![frame(0, vec![delete(1, 0), delete(1, 1)])]);
        let (frames, _) = wal.durable_frames_from(2, 1);
        assert_eq!(frames, vec![frame(2, vec![delete(2, 0)])]);
        // Nothing past the horizon: a frame staged behind a long group
        // window is not durable yet.
        drop(wal);
        let wal = Wal::with_file_opts(
            &path,
            WalOptions {
                group_window: Duration::from_secs(5),
            },
        )
        .unwrap();
        wal.append([delete(3, 0)], false);
        assert_eq!(wal.durable_frames_from(3, 10), (Vec::new(), 3));
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_records_from_below_the_base_starts_at_the_base() {
        let path = temp_wal("durable-from-base");
        let wal = Wal::with_file(&path).unwrap();
        for t in 1..=3u64 {
            wal.append([delete(1, t), delete(2, t)], false).wait();
        }
        wal.truncate_to(2).unwrap();
        let (frames, durable) = wal.durable_frames_from(0, 2);
        assert_eq!(durable, 6);
        assert_eq!(frames, vec![frame(2, vec![delete(1, 2), delete(2, 2)])]);
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_bounds_resident_memory() {
        let wal = Wal::new();
        log_of_pairs(&wal, 3000);
        let before = wal.resident_records();
        assert_eq!(before, 6000);
        let cut = wal.frontier();
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
        let ticket = wal.append([delete(9, 0), delete(9, 1)], false);
        assert_eq!(ticket.wait_lsn(), 6002);
        assert_eq!(wal.snapshot().len(), 1);
    }

    #[test]
    fn rotation_keeps_only_tail_with_base_header() {
        let path = temp_wal("rotate");
        let wal = Wal::with_file(&path).unwrap();
        for t in 0..50u64 {
            wal.append([delete(1, t), delete(2, t)], false).wait();
        }
        wal.truncate_to(wal.frontier()).unwrap();
        // Post-truncation appends land in the rotated file.
        wal.append([delete(7, 7), delete(7, 8)], false).wait();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_file_header(&bytes).unwrap(), Some(100));
        assert_eq!(
            Wal::load(&path).unwrap(),
            vec![frame(100, vec![delete(7, 7), delete(7, 8)])]
        );
        // Reopening appends after the rotated tail.
        {
            let wal = Wal::with_file(&path).unwrap();
            assert_eq!(wal.len(), 102);
            wal.append([delete(7, 9)], false);
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_file_header(&bytes).unwrap(), Some(100));
        assert_eq!(load(&path).len(), 3);
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
        // Both frames are staged but unflushed: the 5s group window
        // keeps the flusher parked.
        wal.append([delete(1, 0), delete(1, 1)], false);
        wal.append([delete(2, 0), delete(2, 1)], false);
        assert_eq!(wal.durable_lsn(), 0);
        // Checkpoint cuts between the frames while both sit staged.
        wal.truncate_to(2).unwrap();
        // The rotation itself made the whole tail durable — nothing for
        // the second committer to lose.
        assert_eq!(wal.durable_lsn(), 4);
        drop(wal);
        assert_eq!(
            Wal::load(&path).unwrap(),
            vec![frame(2, vec![delete(2, 0), delete(2, 1)])]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_writes_one_file_frame_per_transaction() {
        let path = temp_wal("rotate-frames");
        let wal = Wal::with_file(&path).unwrap();
        let mut lsn = 0;
        for t in 0..60u64 {
            let n = 1 + t % 4;
            let ticket = wal.append((0..n).map(|i| delete(t as u32, i)), t % 3 == 0);
            if let Some(ts) = ticket.commit_ts() {
                wal.oracle().finish(ts);
            }
            lsn += n;
        }
        assert_eq!(wal.frontier(), lsn);
        // A cut inside a frame lands on the frame's start: frame 10 holds
        // LSNs 23..26, so a cut at 24 keeps all of it.
        let tenth = wal.snapshot()[10].clone();
        assert_eq!((tenth.first_lsn, tenth.end_lsn()), (23, 26));
        wal.truncate_to(24).unwrap();
        assert_eq!(wal.base_lsn(), 23);
        let snapshot = wal.snapshot();
        assert_eq!(snapshot[0], tenth);
        drop(wal);
        // The rotated file holds exactly the resident frames, each a
        // file frame of its own, stamps included.
        assert_eq!(Wal::load(&path).unwrap(), snapshot);
        let bytes = std::fs::read(&path).unwrap();
        let framed: usize = snapshot
            .iter()
            .map(|f| FRAME_HEADER_LEN + body(f).len())
            .sum();
        assert_eq!(bytes.len(), HEADER_LEN + framed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_walks_segment_ranges() {
        let wal = Wal::new();
        for t in 0..2000u64 {
            wal.append([delete(1, t)], false);
        }
        let mut mid = Vec::new();
        assert_eq!(wal.scan(1500, 1503, |f| mid.push(f)), 3);
        assert_eq!(
            mid,
            vec![
                frame(1500, vec![delete(1, 1500)]),
                frame(1501, vec![delete(1, 1501)]),
                frame(1502, vec![delete(1, 1502)]),
            ]
        );
        assert_eq!(wal.scan(1999, 5000, |_| {}), 1);
        assert_eq!(wal.scan(5000, 6000, |_| {}), 0);
        // Four bytes a frame: count, commit_ts, tag, table; then page and
        // slot (1500 as a varint is two bytes).
        assert_eq!(wal.encoded_bytes(1500, 1503), 3 * 7);
    }

    #[test]
    fn resident_log_is_sealed_bytes() {
        let wal = Wal::new();
        let batch = |t: u64| {
            [
                LogRecord::Insert {
                    table: TableId(3),
                    rid: RowId::new(t as u32, 7),
                    row: row![t as i64, "some text", 2.5],
                },
                delete(3, t),
                LogRecord::Epoch { epoch: t },
            ]
        };
        for t in 0..8000u64 {
            wal.append(batch(t), false);
        }
        let core = wal.shared.core.lock();
        assert!(core.sealed.len() > 2, "appends sealed segments");
        for seg in &core.sealed {
            // Sealed at the reserved size: at most one frame of slack.
            assert!(seg.bytes.len() <= SEGMENT_BYTES);
            assert!(seg.bytes.len() > SEGMENT_BYTES - 100);
            assert_eq!(seg.bytes.capacity(), SEGMENT_BYTES);
        }
        let bytes: usize = core.resident().map(|s| s.bytes.len()).sum();
        drop(core);
        assert_eq!(wal.resident_bytes(), bytes);
        assert_eq!(wal.resident_records(), 24_000);
        let all = wal.snapshot();
        assert_eq!(all.len(), 8000);
        // Each frame costs its body and one length byte.
        let bodies: usize = all.iter().map(|f| body(f).len()).sum();
        assert_eq!(bytes, bodies + all.len());
        assert_eq!(wal.encoded_bytes(0, u64::MAX), bodies);
        for (i, f) in all.iter().enumerate() {
            assert_eq!(*f, frame(3 * i as u64, batch(i as u64).to_vec()));
        }
        // A range reader decodes across a segment boundary.
        let first = wal.shared.core.lock().sealed[0].end_lsn();
        let mut across = Vec::new();
        wal.scan(first - 3, first + 3, |f| across.push(f));
        assert_eq!(across, all[first as usize / 3 - 1..first as usize / 3 + 1]);
        let (tail, durable) = wal.durable_frames_from(23_990, 4);
        assert_eq!(durable, 0, "an in-memory log reports no durable horizon");
        assert!(tail.is_empty());
    }

    #[test]
    fn over_long_varints_are_refused() {
        use bullfrog_common::codec::get_varint;
        // Eleven continuation bytes: refused, never shifted past bit 63.
        let eleven = [0xFFu8; 11];
        assert!(get_varint(&mut &eleven[..]).is_err());
        // A tenth byte may carry only bit 63.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(get_varint(&mut &max[..]).unwrap(), u64::MAX);
        let mut encoded = Vec::new();
        codec::put_varint(&mut encoded, u64::MAX);
        assert_eq!(encoded, max);
        max[9] = 0x02;
        assert!(get_varint(&mut &max[..]).is_err());
        // A record, row or frame whose varint never ends is an error too.
        for bytes in [&[1u8, 0x80, 0x80][..], &[0xFFu8; 22][..]] {
            assert!(codec::get_record(&mut &bytes[..]).is_err());
            assert!(codec::get_row(&mut &bytes[..]).is_err());
            assert!(codec::get_frame(&mut &bytes[..], 0).is_err());
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
        // A frame claiming u32::MAX records with one record behind it.
        let mut hostile = Vec::new();
        codec::put_varint(&mut hostile, u64::from(u32::MAX));
        hostile.push(0);
        codec::put_record(&mut hostile, &delete(1, 1));
        let err = codec::get_frame(&mut &hostile[..], 0).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // In a file, behind a valid checksum, the same frame ends the log
        // after the frames before it.
        let path = temp_wal("hostile-count");
        let mut file = BytesMut::new();
        file.put_slice(&encode_header(0));
        put_file_frame(&mut file, 0, &[&body(&frame(0, vec![delete(1, 0)]))]);
        put_file_frame(&mut file, 1, &[&hostile]);
        std::fs::write(&path, &file).unwrap();
        assert_eq!(load(&path), vec![delete(1, 0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn orderline_stock_insert_encodes_small() {
        // An `orderline_stock` row at the top of TPC-C's ranges: twelve
        // small integers. The fixed-width codec spent 131 bytes on it,
        // the records that each named their transaction 52.
        let ints = |v: &[i64]| v.iter().map(|i| Value::Int(*i)).collect::<Vec<_>>();
        let mut row = ints(&[10, 10, 3000, 15, 100_000, 0, 10]);
        row.push(Value::Decimal(999_999));
        row.extend(ints(&[10, 100]));
        row.push(Value::Decimal(100_000));
        row.extend(ints(&[100]));
        let rec = LogRecord::Insert {
            table: TableId(40),
            rid: RowId::new(20_000, 40),
            row: Row(row),
        };
        let mut buf = Vec::new();
        codec::put_record(&mut buf, &rec);
        assert!(buf.len() <= 49, "{} bytes", buf.len());
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
            (table(), rid(), row()).prop_map(|(table, rid, row)| LogRecord::Insert {
                table,
                rid,
                row
            }),
            (table(), rid(), row()).prop_map(|(table, rid, after)| LogRecord::Update {
                table,
                rid,
                after
            }),
            (table(), rid()).prop_map(|(table, rid)| LogRecord::Delete { table, rid }),
            (any::<u32>(), edge_u64()).prop_map(|(migration, o)| {
                LogRecord::MigrationGranule {
                    migration,
                    granule: GranuleKey::Ordinal(o),
                }
            }),
            (any::<u32>(), proptest::collection::vec(edge_value(), 0..4)).prop_map(
                |(migration, vals)| LogRecord::MigrationGranule {
                    migration,
                    granule: GranuleKey::Group(vals),
                }
            ),
            edge_u64().prop_map(|epoch| LogRecord::Epoch { epoch }),
        ]
    }

    /// A row holding every value variant encodes to the same bytes as
    /// before the value codec moved to `bullfrog-common`, so `BFWAL8`
    /// files, sidecars and wire frames carry them unchanged, and the log
    /// writes exactly the bytes the heap stores.
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
        let mut rd = golden;
        assert_eq!(codec::get_row(&mut rd).unwrap(), row);
        assert!(rd.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every record variant round-trips at its boundary values, alone
        /// and in a frame, and every proper prefix of either encoding is
        /// an error, never a shorter record or frame.
        #[test]
        fn codec_round_trips_at_the_boundaries(
            records in proptest::collection::vec(edge_record(), 1..4),
            commit_ts in edge_u64(),
        ) {
            let r = &records[0];
            let mut buf = Vec::new();
            codec::put_record(&mut buf, r);
            let mut whole: &[u8] = &buf;
            prop_assert_eq!(&codec::get_record(&mut whole).unwrap(), r);
            prop_assert!(whole.is_empty());
            for cut in 0..buf.len() {
                prop_assert!(
                    codec::get_record(&mut &buf[..cut]).is_err(),
                    "a {}-byte prefix of {} decoded",
                    cut,
                    buf.len()
                );
            }
            let f = Frame { first_lsn: 9, commit_ts, records };
            let bytes = body(&f);
            let mut whole: &[u8] = &bytes;
            prop_assert_eq!(codec::get_frame(&mut whole, 9).unwrap(), f);
            prop_assert!(whole.is_empty());
            for cut in 0..bytes.len() {
                prop_assert!(codec::get_frame(&mut &bytes[..cut], 9).is_err());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The durable horizon never runs ahead of the queue's first
        /// staged or in-flight LSN, which never runs ahead of the log end,
        /// under randomized concurrent interleavings; and the file
        /// replays to exactly the in-memory frames.
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
                    for (t, count, wait) in mine {
                        let ticket = wal.append((0..count as u64).map(|i| delete(t as u32, i)), false);
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
            prop_assert_eq!(snapshot.len(), batches.len());
            drop(wal);
            prop_assert_eq!(Wal::load(&path).unwrap(), snapshot);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
