//! Primary-side replication: the WAL shipper.
//!
//! [`ReplicationSender`] implements
//! [`ReplicationHooks`](bullfrog_net::ReplicationHooks), so plugging it
//! into a [`ServerConfig`](bullfrog_net::ServerConfig) turns a plain
//! server into a primary: `SUBSCRIBE` connections become frame streams,
//! `SNAPSHOT` serves bootstrap images, and every DDL statement the
//! server executes is journaled with its apply point.
//!
//! Two invariants carry the whole design:
//!
//! 1. **Only durable frames ship, whole.** A subscription reads the log
//!    through [`Wal::durable_frames_from`](bullfrog_txn::Wal), which stops
//!    at the durable horizon (the first LSN the WAL flusher has not yet
//!    made durable) and hands out whole committed transactions. A
//!    replica therefore never applies a commit the primary could still
//!    lose — the replica's state is always a recoverable prefix of the
//!    primary's log, and a primary crash can only leave replicas
//!    *behind*, never diverged.
//! 2. **Retain horizons fence truncation.** Each subscription registers
//!    its resume LSN as a retain horizon before reading anything;
//!    checkpoint truncation clamps to the minimum registered horizon, so
//!    the tail a connected (even stalled) replica still needs stays on
//!    disk. A replica whose resume point has already been truncated —
//!    it was down across a checkpoint — is told
//!    [`err_code::SNAPSHOT_REQUIRED`](bullfrog_net::err_code) and
//!    re-bootstraps from a fresh snapshot instead.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_net::{err_code, Request, Response, WireDdl};
use bullfrog_txn::EpochStore;
use parking_lot::Mutex;

use crate::journal::{encode_event, encode_snapshot, DdlJournal};

/// Records per `FRAMES` batch — bounds the reply's size and the time a
/// batch holds the WAL core lock. A batch never splits a transaction: a
/// transaction larger than this ships alone, whole, and one over the wire
/// frame cap leaves in pieces that the replica's `read_response` joins.
const MAX_BATCH: usize = 1024;

/// Heartbeat cadence: an idle subscription still sends an empty frame
/// this often, carrying the current durable horizon for lag reporting.
const HEARTBEAT: Duration = Duration::from_millis(250);

#[derive(Debug)]
struct Peer {
    acked_lsn: u64,
    sent_records: u64,
    sent_bytes: u64,
}

/// RAII handle on a WAL retain horizon. Registration hands out the
/// guard; release happens in `Drop`, so **every** exit from a
/// subscription — clean return, transport error, or a panic unwinding
/// the sender thread — unpins checkpoint truncation. Before this guard,
/// a subscription thread that died between `register_retain` and the
/// manual `release_retain` pinned the WAL tail forever: checkpoints
/// kept clamping to the dead subscriber's horizon and the log never
/// truncated again.
struct RetainGuard<'a> {
    wal: &'a bullfrog_txn::Wal,
    id: u64,
}

impl<'a> RetainGuard<'a> {
    /// Registers `at` as a retain horizon; returns the guard and the
    /// granted base (above `at` when the tail is already truncated).
    fn register(wal: &'a bullfrog_txn::Wal, at: u64) -> (RetainGuard<'a>, u64) {
        let (id, granted) = wal.register_retain(at);
        (RetainGuard { wal, id }, granted)
    }

    /// Moves the horizon forward as the replica acknowledges.
    fn advance(&self, lsn: u64) {
        self.wal.advance_retain(self.id, lsn);
    }
}

impl Drop for RetainGuard<'_> {
    fn drop(&mut self) {
        self.wal.release_retain(self.id);
    }
}

/// RAII registration of one subscription in the peer table and the
/// synchronous-replication gate; `Drop` removes both, for the same
/// reason as [`RetainGuard`] — a dead subscriber must not count toward
/// `SYNC_REPLICAS` quorums or lag reporting.
struct PeerGuard<'a> {
    sender: &'a ReplicationSender,
    gate: Arc<bullfrog_txn::SyncGate>,
    peer_id: u64,
    gate_peer: u64,
}

impl<'a> PeerGuard<'a> {
    fn register(sender: &'a ReplicationSender, from_lsn: u64) -> PeerGuard<'a> {
        let peer_id = sender.next_peer.fetch_add(1, Ordering::Relaxed);
        sender.peers.lock().insert(
            peer_id,
            Peer {
                acked_lsn: from_lsn,
                sent_records: 0,
                sent_bytes: 0,
            },
        );
        let gate = sender.bf.db().wal().sync_gate();
        let gate_peer = gate.register_peer();
        PeerGuard {
            sender,
            gate,
            peer_id,
            gate_peer,
        }
    }
}

impl Drop for PeerGuard<'_> {
    fn drop(&mut self) {
        self.gate.remove_peer(self.gate_peer);
        self.sender.peers.lock().remove(&self.peer_id);
    }
}

/// The primary's replication state: the DDL journal, the DDL
/// serialization lock, and per-replica progress.
pub struct ReplicationSender {
    bf: Arc<Bullfrog>,
    journal: Arc<DdlJournal>,
    /// This primary's fencing epoch: stamped on every `FRAMES` batch
    /// and checked against every `SUBSCRIBE`/`REPL_ACK`. A peer ahead
    /// of us proves a promotion happened elsewhere — we fence.
    epoch: Arc<EpochStore>,
    ddl_lock: Mutex<()>,
    peers: Mutex<HashMap<u64, Peer>>,
    next_peer: AtomicU64,
}

impl ReplicationSender {
    /// Wraps a controller and journal as a primary. The fencing epoch
    /// is held in memory only; use [`ReplicationSender::with_epoch`] to
    /// survive restarts.
    pub fn new(bf: Arc<Bullfrog>, journal: Arc<DdlJournal>) -> Arc<ReplicationSender> {
        ReplicationSender::with_epoch(bf, journal, EpochStore::volatile())
    }

    /// [`ReplicationSender::new`] with a persistent [`EpochStore`].
    pub fn with_epoch(
        bf: Arc<Bullfrog>,
        journal: Arc<DdlJournal>,
        epoch: Arc<EpochStore>,
    ) -> Arc<ReplicationSender> {
        Arc::new(ReplicationSender {
            bf,
            journal,
            epoch,
            ddl_lock: Mutex::new(()),
            peers: Mutex::new(HashMap::new()),
            next_peer: AtomicU64::new(0),
        })
    }

    /// This node's fencing epoch store.
    pub fn epoch_store(&self) -> &Arc<EpochStore> {
        &self.epoch
    }

    /// The journal (shared with [`crate::restore()`] on restart).
    pub fn journal(&self) -> &Arc<DdlJournal> {
        &self.journal
    }

    /// Connected subscription count.
    pub fn replica_count(&self) -> usize {
        self.peers.lock().len()
    }

    fn run_subscription(
        &self,
        mut stream: TcpStream,
        from_lsn: u64,
        ddl_seq: u64,
        sub_epoch: u64,
        stop: &dyn Fn() -> bool,
    ) -> std::io::Result<()> {
        let wal = self.bf.db().wal();
        if sub_epoch > self.epoch.epoch() {
            // The subscriber has seen a promotion we haven't: we are
            // the zombie. Adopt the epoch, fence local commits, and
            // refuse to ship anything.
            let _ = self.epoch.observe(sub_epoch);
            wal.sync_gate().fence(None);
            let resp = Response::Err {
                retryable: false,
                code: err_code::STALE_EPOCH,
                message: format!(
                    "stale epoch: this node is at epoch {} but the subscriber has seen {}",
                    self.epoch.epoch(),
                    sub_epoch
                ),
            };
            return bullfrog_net::wire::write_frame(&mut stream, &resp.encode());
        }
        if wal.sync_gate().is_fenced() {
            let resp = Response::Err {
                retryable: false,
                code: err_code::STALE_EPOCH,
                message: "this node is fenced: a newer primary exists".into(),
            };
            return bullfrog_net::wire::write_frame(&mut stream, &resp.encode());
        }
        // Scope-tied registrations: the retain horizon, peer-table
        // entry, and sync-gate slot all release on *any* exit from this
        // function — including a panic unwinding the subscription
        // thread, which previously left the horizon pinned and blocked
        // checkpoint truncation forever.
        let (retain, granted) = RetainGuard::register(wal, from_lsn);
        if granted > from_lsn {
            // The tail below `granted` is gone — truncated by a
            // checkpoint while this replica was away.
            let resp = Response::Err {
                retryable: true,
                code: err_code::SNAPSHOT_REQUIRED,
                message: format!(
                    "log truncated: resume point {from_lsn} is below the retained base \
                     {granted}; bootstrap from a snapshot"
                ),
            };
            return bullfrog_net::wire::write_frame(&mut stream, &resp.encode());
        }
        // Register with the synchronous-replication gate: commits
        // waiting under `SYNC_REPLICAS n` count this subscription's
        // acks toward their quorum.
        let peer = PeerGuard::register(self, from_lsn);
        self.stream_frames(&mut stream, from_lsn, ddl_seq, &peer, &retain, stop)
    }

    fn stream_frames(
        &self,
        stream: &mut TcpStream,
        from_lsn: u64,
        ddl_seq: u64,
        peer: &PeerGuard<'_>,
        retain: &RetainGuard<'_>,
        stop: &dyn Fn() -> bool,
    ) -> std::io::Result<()> {
        let wal = self.bf.db().wal();
        let gate = wal.sync_gate();
        let obs = Arc::clone(self.bf.db().obs());
        let ship_hist = obs.histogram("repl.ship_us");
        let ack_hist = obs.histogram("repl.ack_rtt_us");
        let ship_records = obs.counter("repl.ship_records");
        let ship_bytes = obs.counter("repl.ship_bytes");
        // Frames in flight awaiting acknowledgement: (frontier after the
        // batch, send time). The replica acks its applied *frontier*, so
        // a batch is confirmed once `acked >= frontier` — the delta is
        // the ship→apply→ack round trip.
        let mut in_flight: std::collections::VecDeque<(u64, u64)> =
            std::collections::VecDeque::new();
        bullfrog_net::wire::write_frame(stream, &Response::Ok { affected: 0 }.encode())?;

        // ACK reader: a dedicated thread owning the read half, so the
        // send loop never blocks on a quiet replica. It dies when the
        // stream closes (either side), flipping `alive`. An ack carrying
        // a higher epoch than ours proves a promotion happened behind
        // our back: fence immediately, so no commit waiting on the gate
        // is acknowledged and no further frames ship.
        let acked = Arc::new(AtomicU64::new(from_lsn));
        let alive = Arc::new(AtomicBool::new(true));
        let reader = {
            let mut read_half = stream.try_clone()?;
            let acked = Arc::clone(&acked);
            let alive = Arc::clone(&alive);
            let epoch = Arc::clone(&self.epoch);
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .name("bf-repl-ack".into())
                .spawn(move || {
                    while let Ok(Some(payload)) = bullfrog_net::wire::read_frame(&mut read_half) {
                        match Request::decode(payload) {
                            Ok(Request::ReplAck {
                                lsn,
                                epoch: ack_epoch,
                            }) => {
                                if ack_epoch > epoch.epoch() {
                                    let _ = epoch.observe(ack_epoch);
                                    gate.fence(None);
                                    break;
                                }
                                acked.fetch_max(lsn, Ordering::AcqRel);
                            }
                            _ => break,
                        }
                    }
                    alive.store(false, Ordering::Release);
                })?
        };

        let mut next_lsn = from_lsn;
        let mut next_ddl = ddl_seq;
        let send_result: std::io::Result<()> = loop {
            if stop() || !alive.load(Ordering::Acquire) || gate.is_fenced() {
                break Ok(());
            }
            // Propagate acks into lag accounting, the retain horizon
            // (never past what we have actually sent), and the
            // synchronous-commit gate.
            let acked_lsn = acked.load(Ordering::Acquire).min(next_lsn);
            retain.advance(acked_lsn);
            gate.advance_peer(peer.gate_peer, acked_lsn);
            if let Some(p) = self.peers.lock().get_mut(&peer.peer_id) {
                p.acked_lsn = acked_lsn;
            }
            while in_flight
                .front()
                .is_some_and(|&(frontier, _)| frontier <= acked_lsn)
            {
                let (_, sent_us) = in_flight.pop_front().expect("front checked");
                ack_hist.record(obs.now_us().saturating_sub(sent_us));
            }

            // Durable log tail first, then the DDL journal tail: a
            // journal entry's apply point can only reference LSNs the
            // replica will have seen by the time it applies it.
            let (frames, durable_lsn) = wal.durable_frames_from(next_lsn, MAX_BATCH);
            let ddl: Vec<WireDdl> = self
                .journal
                .entries_from(next_ddl)
                .into_iter()
                .map(|e| WireDdl {
                    seq: e.seq,
                    apply_at_lsn: e.apply_at_lsn,
                    payload: encode_event(&e.event),
                })
                .collect();
            let idle = frames.is_empty() && ddl.is_empty();
            if let Some(last) = frames.last() {
                next_lsn = last.end_lsn();
            }
            next_ddl += ddl.len() as u64;
            let nrecords: u64 = frames.iter().map(|f| f.records.len() as u64).sum();
            let batch = Response::Frames {
                more: false,
                durable_lsn,
                ddl,
                frames,
                epoch: self.epoch.epoch(),
            };
            let mut frame_bytes = 0u64;
            let ship_started = std::time::Instant::now();
            let mut out = Vec::new();
            let sent = bullfrog_net::wire::append_response(&mut out, &batch, |piece| {
                frame_bytes += piece.len() as u64;
                stream.write_all(piece)?;
                piece.clear();
                Ok(())
            })
            .and_then(|()| {
                frame_bytes += out.len() as u64;
                stream.write_all(&out)
            });
            if let Err(e) = sent {
                break Err(e);
            }
            if !idle {
                ship_hist.record_micros(ship_started.elapsed());
                ship_records.add(nrecords);
                ship_bytes.add(frame_bytes);
                if nrecords > 0 {
                    // Bound the queue against a replica that never acks;
                    // dropped entries just lose their RTT sample.
                    if in_flight.len() >= 4096 {
                        in_flight.pop_front();
                    }
                    in_flight.push_back((next_lsn, obs.now_us()));
                }
            }
            if let Some(p) = self.peers.lock().get_mut(&peer.peer_id) {
                p.sent_records += nrecords;
                p.sent_bytes += frame_bytes;
            }
            if idle {
                // Park until the horizon moves or a heartbeat is due.
                // (In-memory logs return immediately; the floor sleep
                // keeps this from spinning.)
                let before = durable_lsn;
                let after = wal.wait_durable_timeout(before + 1, HEARTBEAT);
                if after == before {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        // Closing our half unblocks the reader's blocking read.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        let _ = reader.join();
        send_result
    }

    /// Encoded size of the durable frames a replica at `acked` has not
    /// yet confirmed — the byte form of replication lag.
    fn lag_bytes(&self, acked: u64, durable: u64) -> u64 {
        self.bf.db().wal().encoded_bytes(acked, durable) as u64
    }
}

impl bullfrog_net::ReplicationHooks for ReplicationSender {
    fn journaled_ddl(
        &self,
        exec: &mut dyn FnMut() -> bullfrog_common::Result<bullfrog_net::DdlEvent>,
    ) -> bullfrog_common::Result<()> {
        // The lock serializes DDL end to end: frontier sample, catalog
        // mutation, journal append. Serial DDL means journal order is
        // catalog-creation order, so TableIds match on every mirror.
        let _serial = self.ddl_lock.lock();
        let apply_at_lsn = self.bf.db().wal().frontier();
        let event = exec()?;
        self.journal.append(apply_at_lsn, event)?;
        Ok(())
    }

    fn snapshot(&self) -> bullfrog_common::Result<bytes::Bytes> {
        // Image before journal: a journal newer than the image is
        // harmless (events defer by apply_at_lsn); an image newer than
        // the journal could hold rows of tables the replica never
        // learns to create.
        let image = self.bf.db().checkpointer().image_snapshot();
        let entries = self.journal.entries();
        Ok(encode_snapshot(&image, &entries))
    }

    fn subscribe(
        &self,
        stream: TcpStream,
        from_lsn: u64,
        ddl_seq: u64,
        epoch: u64,
        stop: &dyn Fn() -> bool,
    ) -> std::io::Result<()> {
        self.run_subscription(stream, from_lsn, ddl_seq, epoch, stop)
    }

    fn status(&self) -> Vec<(String, i64)> {
        let durable = self.bf.db().wal().durable_lsn();
        let peers = self.peers.lock();
        let min_acked = peers.values().map(|p| p.acked_lsn).min();
        let mut out = vec![
            ("repl.role_primary".into(), 1),
            ("repl.replicas".into(), peers.len() as i64),
            ("repl.durable_lsn".into(), durable as i64),
            ("repl.epoch".into(), self.epoch.epoch() as i64),
            (
                "repl.ddl_journal_entries".into(),
                self.journal.next_seq() as i64,
            ),
        ];
        let (lag_lsns, lag_bytes) = match min_acked {
            Some(acked) => (
                durable.saturating_sub(acked),
                self.lag_bytes(acked, durable),
            ),
            None => (0, 0),
        };
        out.push(("repl.lag_lsns".into(), lag_lsns as i64));
        out.push(("repl.lag_bytes".into(), lag_bytes as i64));
        let mut ids: Vec<&u64> = peers.keys().collect();
        ids.sort();
        for id in ids {
            let p = &peers[id];
            out.push((format!("repl.peer.{id}.acked_lsn"), p.acked_lsn as i64));
            out.push((
                format!("repl.peer.{id}.sent_records"),
                p.sent_records as i64,
            ));
        }
        out
    }
}

impl std::fmt::Debug for ReplicationSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationSender")
            .field("replicas", &self.replica_count())
            .field("journal", &self.journal)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_engine::{Database, DbConfig, EngineMode};

    /// The leak this guards against: a subscription thread that dies
    /// (panic, killed replica mid-handshake) between registering its
    /// retain horizon and the old manual release left the horizon
    /// registered forever, so checkpoint truncation stayed clamped to a
    /// dead subscriber's resume point. The RAII guard releases on
    /// unwind.
    #[test]
    fn killed_subscriber_does_not_pin_checkpoint_truncation() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Arc::new(Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            }));
            assert_eq!(db.config().mode, mode);
            let wal = db.wal();
            assert_eq!(wal.retain_floor(), None);

            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (retain, granted) = RetainGuard::register(wal, 3);
                assert_eq!(granted, 3);
                assert_eq!(wal.retain_floor(), Some(3), "horizon registered");
                retain.advance(7);
                assert_eq!(wal.retain_floor(), Some(7));
                panic!("subscriber thread dies mid-stream");
            }));
            assert!(result.is_err(), "the closure must have panicked");
            assert_eq!(
                wal.retain_floor(),
                None,
                "a dead subscriber must release its retain horizon"
            );
        }
    }

    /// Same scope-tied cleanup for the peer table and sync gate: a dead
    /// subscriber must stop counting toward SYNC_REPLICAS quorums.
    #[test]
    fn killed_subscriber_leaves_peer_table_and_gate() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let bf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            }))));
            assert_eq!(bf.db().config().mode, mode);
            let journal = Arc::new(DdlJournal::in_memory());
            let sender = ReplicationSender::new(Arc::clone(&bf), journal);
            let gate = bf.db().wal().sync_gate();

            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _peer = PeerGuard::register(&sender, 0);
                assert_eq!(sender.replica_count(), 1);
                assert_eq!(gate.peer_count(), 1);
                panic!("subscriber thread dies mid-stream");
            }));
            assert!(result.is_err(), "the closure must have panicked");
            assert_eq!(sender.replica_count(), 0, "peer entry must be removed");
            assert_eq!(gate.peer_count(), 0, "gate slot must be removed");
        }
    }
}
