//! Replica-side replication: bootstrap, tail apply, read-only serving.
//!
//! [`Replica::start`] spawns the apply thread: connect to the primary,
//! `SUBSCRIBE` from the local applied LSN, and apply every streamed
//! frame — one committed transaction, whole: one over the wire frame cap
//! arrives in pieces that [`wire::read_response`] joins first — through
//! [`apply_frame`] under the apply gate's write lock,
//! so concurrent read sessions (which hold the read half per statement)
//! never observe a half-applied transaction. Journaled DDL applies at
//! its recorded `apply_at_lsn`, interleaved with the frame stream, so the
//! replica's catalog evolves exactly when the primary's did; mid-flight lazy
//! migrations mirror their bitmap/hashmap tracker state from the
//! shipped `MigrationGranule` records
//! ([`rebuild_trackers`](bullfrog_core::recovery::rebuild_trackers)).
//!
//! When the primary answers `SNAPSHOT_REQUIRED` — the replica's resume
//! point fell below the primary's retained log base while it was away —
//! the replica re-bootstraps: fetch a snapshot (checkpoint image + DDL
//! journal), clear local rows, rebuild catalog and heap from it, and
//! resubscribe from the image's base. Disconnects retry with bounded
//! exponential backoff; the replica keeps serving (stale) reads
//! throughout.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bullfrog_common::{Error, Result};
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::recovery::apply_frame;
use bullfrog_net::{err_code, wire, ReadOnly, Request, Response, WireDdl};
use bullfrog_txn::wal::Frame;
use bullfrog_txn::{EpochStore, LogRecord};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apply::{apply_ddl_event, clear_all_rows, mark_granules};
use crate::journal::{decode_event, decode_snapshot, JournalEntry};

/// Reconnect backoff bounds.
const BACKOFF_MIN: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// After this much continuous downtime the backoff stops growing, the
/// replica flips `repl.stalled`, and retries settle at [`BACKOFF_MAX`] —
/// the signal an HA follower loop watches before considering promotion.
const BACKOFF_MAX_ELAPSED: Duration = Duration::from_secs(30);

/// Replica progress counters, shared with `STATUS` reporting.
#[derive(Debug, Default)]
pub struct ReplicaStats {
    /// Exclusive upper bound of the applied log prefix.
    pub applied_lsn: AtomicU64,
    /// The primary's durable horizon as of the last frame (heartbeats
    /// included), for lag reporting.
    pub primary_durable: AtomicU64,
    /// Data records applied to local heaps.
    pub records_applied: AtomicU64,
    /// Transactions committed locally.
    pub txns_applied: AtomicU64,
    /// Journaled DDL events applied.
    pub ddl_applied: AtomicU64,
    /// Migration granules mirrored into trackers.
    pub granules_mirrored: AtomicU64,
    /// Snapshot bootstraps performed.
    pub snapshots: AtomicU64,
    /// Connection attempts after the first.
    pub reconnects: AtomicU64,
    /// 1 while the primary has been unreachable longer than the
    /// reconnect cap (`BACKOFF_MAX_ELAPSED`).
    pub stalled: AtomicU64,
    /// `FRAMES` batches received (heartbeats included) — liveness proof
    /// for the backoff schedule.
    pub frames_seen: AtomicU64,
    /// This node's fencing epoch (mirrors the [`EpochStore`]).
    pub epoch: AtomicU64,
    /// 1 once this replica has promoted itself to primary.
    pub promoted: AtomicU64,
}

impl ReplicaStats {
    /// Replication lag in LSNs, as of the last heartbeat.
    pub fn lag_lsns(&self) -> u64 {
        self.primary_durable
            .load(Ordering::Acquire)
            .saturating_sub(self.applied_lsn.load(Ordering::Acquire))
    }

    fn pairs(&self) -> Vec<(String, i64)> {
        vec![
            ("repl.role_replica".into(), 1),
            (
                "repl.applied_lsn".into(),
                self.applied_lsn.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.primary_durable".into(),
                self.primary_durable.load(Ordering::Acquire) as i64,
            ),
            ("repl.lag_lsns".into(), self.lag_lsns() as i64),
            (
                "repl.records_applied".into(),
                self.records_applied.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.txns_applied".into(),
                self.txns_applied.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.ddl_applied".into(),
                self.ddl_applied.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.granules_mirrored".into(),
                self.granules_mirrored.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.snapshots".into(),
                self.snapshots.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.reconnects".into(),
                self.reconnects.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.stalled".into(),
                self.stalled.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.epoch".into(),
                self.epoch.load(Ordering::Acquire) as i64,
            ),
            (
                "repl.promoted".into(),
                self.promoted.load(Ordering::Acquire) as i64,
            ),
        ]
    }
}

/// Mutable apply-loop state (one owner: the apply thread).
struct ApplyState {
    bf: Arc<Bullfrog>,
    gate: Arc<RwLock<()>>,
    stats: Arc<ReplicaStats>,
    /// Fencing epoch: sent on `SUBSCRIBE`/`REPL_ACK`, checked against
    /// every `FRAMES` batch, raised (and persisted) when the stream
    /// carries a higher one.
    epoch: Arc<EpochStore>,
    /// Next LSN to request (exclusive bound of the applied prefix).
    applied: u64,
    /// Next journal sequence to request from the primary.
    recv_seq: u64,
    /// Next journal sequence to apply locally (≤ everything in
    /// `pending`; entries below it in a snapshot's journal are already
    /// in the local catalog).
    apply_seq: u64,
    /// Received, not yet applied (waiting for their apply point), in
    /// sequence order.
    pending: Vec<JournalEntry>,
}

impl ApplyState {
    /// Applies pending DDL whose apply point has been reached.
    fn apply_ready_ddl(&mut self, up_to_lsn: u64) -> Result<()> {
        while let Some(front) = self.pending.first() {
            if front.apply_at_lsn > up_to_lsn {
                break;
            }
            let entry = self.pending.remove(0);
            debug_assert_eq!(entry.seq, self.apply_seq);
            apply_ddl_event(&self.bf, &entry.event)?;
            self.apply_seq = entry.seq + 1;
            self.stats.ddl_applied.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }

    /// Applies one `FRAMES` batch under the apply gate.
    fn apply_frames(
        &mut self,
        durable_lsn: u64,
        ddl: Vec<WireDdl>,
        frames: Vec<Frame>,
    ) -> Result<()> {
        for d in ddl {
            if d.seq < self.recv_seq {
                continue; // duplicate after a resubscribe race
            }
            self.pending.push(JournalEntry {
                seq: d.seq,
                apply_at_lsn: d.apply_at_lsn,
                event: decode_event(d.payload)?,
            });
            self.recv_seq = d.seq + 1;
        }
        {
            let gate = Arc::clone(&self.gate);
            let _exclusive = gate.write();
            let idle = frames.is_empty();
            for frame in frames {
                // Catalog changes interleave with the frame stream at
                // their recorded apply points, which are frame
                // boundaries (the log's frontier when the DDL ran).
                self.apply_ready_ddl(frame.first_lsn)?;
                let end = frame.end_lsn();
                let out = apply_frame(self.bf.db(), frame)?;
                self.stats
                    .records_applied
                    .fetch_add(out.applied as u64, Ordering::Release);
                self.stats
                    .txns_applied
                    .fetch_add(out.committed_txns as u64, Ordering::Release);
                let marked = mark_granules(&self.bf, &out.migrated_granules);
                self.stats
                    .granules_mirrored
                    .fetch_add(marked as u64, Ordering::Release);
                self.applied = end;
            }
            // An empty batch proves the retained log holds nothing in
            // [applied, durable): everything below the horizon has been
            // shipped, so the cursor may jump to it — which also
            // releases DDL whose apply point sits beyond the last frame
            // (quiet log right after a migration submit). A *non*-empty
            // batch proves nothing (it may have been capped), so the
            // cursor stays at the end of the last frame.
            if idle {
                self.applied = self.applied.max(durable_lsn);
            }
            self.apply_ready_ddl(self.applied)?;
        }
        self.stats
            .applied_lsn
            .store(self.applied, Ordering::Release);
        self.stats
            .primary_durable
            .store(durable_lsn, Ordering::Release);
        Ok(())
    }

    /// Rebuilds local state from a snapshot payload.
    fn bootstrap(&mut self, payload: bytes::Bytes) -> Result<()> {
        let (image, entries) = decode_snapshot(payload)?;
        let gate = Arc::clone(&self.gate);
        let _exclusive = gate.write();
        clear_all_rows(self.bf.db())?;
        self.pending.clear();
        for entry in entries {
            if entry.seq < self.apply_seq {
                continue; // already in the local catalog
            }
            if entry.apply_at_lsn <= image.base_lsn {
                debug_assert_eq!(entry.seq, self.apply_seq);
                apply_ddl_event(&self.bf, &entry.event)?;
                self.apply_seq = entry.seq + 1;
                self.stats.ddl_applied.fetch_add(1, Ordering::Release);
            } else {
                self.recv_seq = self.recv_seq.max(entry.seq + 1);
                self.pending.push(entry);
            }
        }
        self.recv_seq = self.recv_seq.max(self.apply_seq);
        let placed = image.apply_to(self.bf.db())?;
        self.stats
            .records_applied
            .fetch_add(placed.applied as u64, Ordering::Release);
        let marked = mark_granules(&self.bf, &placed.migrated_granules);
        self.stats
            .granules_mirrored
            .fetch_add(marked as u64, Ordering::Release);
        self.applied = image.base_lsn;
        self.stats
            .applied_lsn
            .store(self.applied, Ordering::Release);
        self.stats.snapshots.fetch_add(1, Ordering::Release);
        Ok(())
    }
}

/// A live replica: the apply thread plus its shared state.
pub struct Replica {
    bf: Arc<Bullfrog>,
    gate: Arc<RwLock<()>>,
    stats: Arc<ReplicaStats>,
    epoch: Arc<EpochStore>,
    /// Flipped by [`Replica::promote`]; shared with every [`ReadOnly`]
    /// session so promotion takes effect without reconnects.
    writable: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    primary: Arc<Mutex<String>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Replica {
    /// Starts replicating `bf` (which should be a fresh, empty
    /// controller — the whole catalog and heap arrive from the primary)
    /// from the primary at `primary_addr`. The fencing epoch is held in
    /// memory only; use [`Replica::start_with_epoch`] to survive
    /// restarts.
    pub fn start(primary_addr: impl Into<String>, bf: Arc<Bullfrog>) -> Replica {
        Replica::start_with_epoch(primary_addr, bf, EpochStore::volatile())
    }

    /// [`Replica::start`] with a persistent [`EpochStore`], so a
    /// promoted-then-restarted node keeps its bumped epoch.
    pub fn start_with_epoch(
        primary_addr: impl Into<String>,
        bf: Arc<Bullfrog>,
        epoch: Arc<EpochStore>,
    ) -> Replica {
        let gate = Arc::new(RwLock::new(()));
        let stats = Arc::new(ReplicaStats::default());
        stats.epoch.store(epoch.epoch(), Ordering::Release);
        let stop = Arc::new(AtomicBool::new(false));
        let primary = Arc::new(Mutex::new(primary_addr.into()));
        let state = ApplyState {
            bf: Arc::clone(&bf),
            gate: Arc::clone(&gate),
            stats: Arc::clone(&stats),
            epoch: Arc::clone(&epoch),
            applied: 0,
            recv_seq: 0,
            apply_seq: 0,
            pending: Vec::new(),
        };
        let thread = {
            let stop = Arc::clone(&stop);
            let primary = Arc::clone(&primary);
            std::thread::Builder::new()
                .name("bf-repl-apply".into())
                .spawn(move || apply_loop(state, &stop, &primary))
                .expect("spawn replica apply thread")
        };
        Replica {
            bf,
            gate,
            stats,
            epoch,
            writable: Arc::new(AtomicBool::new(false)),
            stop,
            primary,
            thread: Some(thread),
        }
    }

    /// The [`ReadOnly`] config that serves this replica over TCP:
    /// sessions share the apply gate and report `repl.*` counters.
    pub fn read_only(&self) -> ReadOnly {
        let stats = Arc::clone(&self.stats);
        ReadOnly {
            primary: self.primary.lock().clone(),
            gate: Arc::clone(&self.gate),
            status: Some(Arc::new(move || stats.pairs())),
            writable: Arc::clone(&self.writable),
        }
    }

    /// This node's fencing epoch store.
    pub fn epoch_store(&self) -> &Arc<EpochStore> {
        &self.epoch
    }

    /// Promotes this replica to primary: stops the apply loop, bumps
    /// the fencing epoch (persisted to the sidecar *and* logged as a
    /// durable one-record WAL frame, so the bump survives restore by
    /// either path), respawns background migration sweepers for any mid-flight
    /// migration mirrored from the old primary, and flips the served
    /// sessions to writable. Returns the new epoch.
    ///
    /// The caller (the HA follower loop, or an operator via
    /// `repld promote`) is responsible for only doing this once the old
    /// primary's lease has verifiably lapsed and a majority granted the
    /// epoch bump — promotion itself is mechanical.
    pub fn promote(&mut self) -> Result<u64> {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let new_epoch = self.epoch.bump()?;
        self.stats.epoch.store(new_epoch, Ordering::Release);
        // A frame of its own carrying the epoch: replay and restore both
        // pick it up even if the sidecar file is lost.
        let epoch = LogRecord::Epoch { epoch: new_epoch };
        self.bf.db().wal().append([epoch], false).wait();
        // Mid-flight lazy migrations mirrored from the old primary now
        // belong to this node: restart their background sweepers.
        self.bf.respawn_background();
        self.writable.store(true, Ordering::Release);
        self.stats.promoted.store(1, Ordering::Release);
        Ok(new_epoch)
    }

    /// True once [`Replica::promote`] has run.
    pub fn is_promoted(&self) -> bool {
        self.writable.load(Ordering::Acquire)
    }

    /// Progress counters.
    pub fn stats(&self) -> &Arc<ReplicaStats> {
        &self.stats
    }

    /// The apply gate (write-held around each applied transaction).
    pub fn gate(&self) -> &Arc<RwLock<()>> {
        &self.gate
    }

    /// Repoints the replica at a different (restarted/moved) primary;
    /// takes effect on the next connection attempt.
    pub fn set_primary(&self, addr: impl Into<String>) {
        *self.primary.lock() = addr.into();
    }

    /// Blocks until the applied LSN reaches `target` or `timeout`
    /// elapses; true on success.
    pub fn wait_caught_up(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.stats.applied_lsn.load(Ordering::Acquire) < target {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Stops the apply thread and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("primary", &*self.primary.lock())
            .field(
                "applied_lsn",
                &self.stats.applied_lsn.load(Ordering::Acquire),
            )
            .finish()
    }
}

fn connect(addr: &str) -> Result<TcpStream> {
    let stream =
        TcpStream::connect(addr).map_err(|e| Error::Eval(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut stream = stream;
    wire::write_preamble(&mut stream).map_err(|e| Error::Eval(format!("preamble: {e}")))?;
    Ok(stream)
}

fn request(stream: &mut TcpStream, req: &Request) -> Result<Response> {
    wire::write_frame(stream, &req.encode()).map_err(|e| Error::Eval(format!("send: {e}")))?;
    let payload = wire::read_frame(stream)?
        .ok_or_else(|| Error::Eval("primary closed the connection".into()))?;
    Response::decode(payload)
}

/// One subscription attempt's outcome.
enum Attempt {
    /// Stream ended (disconnect or shutdown): reconnect after backoff.
    Reconnect,
    /// The primary demands a snapshot bootstrap first.
    SnapshotRequired,
}

fn apply_loop(mut state: ApplyState, stop: &AtomicBool, primary: &Arc<Mutex<String>>) {
    let mut backoff = BACKOFF_MIN;
    let mut first = true;
    // Jitter source; seeding from the clock is fine — it only has to
    // decorrelate replicas that lost the same primary at the same time.
    let seed = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Start of the current disconnected stretch.
    let mut down_since = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if !first {
            state.stats.reconnects.fetch_add(1, Ordering::Release);
        }
        first = false;
        let addr = primary.lock().clone();
        // Heartbeats arrive every ~250ms while subscribed, so any frame
        // received proves the attempt actually streamed.
        let frames_before = state.stats.frames_seen.load(Ordering::Acquire);
        if let Ok(Attempt::SnapshotRequired) = subscribe_once(&mut state, &addr, stop) {
            if bootstrap_once(&mut state, &addr).is_ok() {
                backoff = BACKOFF_MIN;
                down_since = Instant::now();
                state.stats.stalled.store(0, Ordering::Release);
                continue; // resubscribe immediately from the new base
            }
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        if state.stats.frames_seen.load(Ordering::Acquire) != frames_before {
            // The attempt streamed before dying: restart the outage
            // clock and the backoff schedule.
            down_since = Instant::now();
            backoff = BACKOFF_MIN;
            state.stats.stalled.store(0, Ordering::Release);
        } else if down_since.elapsed() >= BACKOFF_MAX_ELAPSED {
            // Max-elapsed cap: stop growing, flag the stall, and settle
            // into slow polling (an HA follower loop watches this gauge
            // when deciding whether the primary is really gone).
            state.stats.stalled.store(1, Ordering::Release);
            backoff = BACKOFF_MAX;
        }
        // Full jitter over [backoff/2, backoff): herds of replicas that
        // lost the same primary spread their reconnect attempts.
        let half = backoff.as_millis().max(2) as u64 / 2;
        std::thread::sleep(Duration::from_millis(half + rng.gen_range(0..half.max(1))));
        backoff = (backoff * 2).min(BACKOFF_MAX);
    }
}

fn subscribe_once(state: &mut ApplyState, addr: &str, stop: &AtomicBool) -> Result<Attempt> {
    let mut stream = connect(addr)?;
    // Heartbeats arrive every ~250ms; a silence this long means the
    // primary is gone (or the stream desynced), and a timed-out
    // `read_exact` may have consumed a partial frame either way — the
    // only safe continuation is a fresh connection.
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
    let reply = request(
        &mut stream,
        &Request::Subscribe {
            from_lsn: state.applied,
            ddl_seq: state.recv_seq,
            epoch: state.epoch.epoch(),
        },
    )?;
    match reply {
        Response::Ok { .. } => {}
        Response::Err { code, message, .. } if code == err_code::SNAPSHOT_REQUIRED => {
            let _ = message;
            return Ok(Attempt::SnapshotRequired);
        }
        Response::Err { message, .. } => {
            return Err(Error::Eval(format!("subscribe rejected: {message}")));
        }
        other => {
            return Err(Error::Eval(format!("unexpected subscribe reply {other:?}")));
        }
    }
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(Attempt::Reconnect);
        }
        let reply = match wire::read_response(&mut stream) {
            Ok(Some(reply)) => reply,
            Ok(None) | Err(_) => return Ok(Attempt::Reconnect),
        };
        match reply {
            Response::Frames {
                durable_lsn,
                ddl,
                frames,
                epoch,
                ..
            } => {
                let own = state.epoch.epoch();
                if epoch < own {
                    // Fencing: a sender behind our epoch is a zombie
                    // ex-primary — never apply its frames.
                    return Err(Error::Eval(format!(
                        "rejecting frames from stale-epoch sender ({epoch} < {own})"
                    )));
                }
                if epoch > own {
                    // Adopt (and persist) the HA group's higher epoch.
                    state.epoch.observe(epoch)?;
                    state.stats.epoch.store(epoch, Ordering::Release);
                }
                state.stats.frames_seen.fetch_add(1, Ordering::Release);
                state.apply_frames(durable_lsn, ddl, frames)?;
                let ack = Request::ReplAck {
                    lsn: state.applied,
                    epoch: state.epoch.epoch(),
                };
                if wire::write_frame(&mut stream, &ack.encode()).is_err() {
                    return Ok(Attempt::Reconnect);
                }
            }
            Response::Err { code, .. } if code == err_code::SNAPSHOT_REQUIRED => {
                return Ok(Attempt::SnapshotRequired);
            }
            other => {
                return Err(Error::Eval(format!("unexpected stream frame {other:?}")));
            }
        }
    }
}

fn bootstrap_once(state: &mut ApplyState, addr: &str) -> Result<()> {
    let mut stream = connect(addr)?;
    match request(&mut stream, &Request::Snapshot)? {
        Response::Snapshot { payload } => state.bootstrap(payload),
        Response::Err { message, .. } => Err(Error::Eval(format!("snapshot refused: {message}"))),
        other => Err(Error::Eval(format!("unexpected snapshot reply {other:?}"))),
    }
}
