//! The BFNET1 wire protocol: length-prefixed binary frames over TCP.
//!
//! A connection opens with an 8-byte preamble — the ASCII magic
//! `BFNET1`, a protocol version byte, and a reserved zero byte — so a
//! server can reject a stale or foreign client before any statement is
//! read. After the preamble both directions speak frames:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 BE length  | payload (length bytes)    |
//! +----------------+---------------------------+
//! payload = u8 opcode, opcode-specific body
//! ```
//!
//! Row and value encoding reuses the WAL's codec
//! ([`bullfrog_txn::wal::codec`]) so the wire and the log agree on what
//! a row looks like. Frames are capped at [`MAX_FRAME_BYTES`]; a peer
//! announcing a larger frame is a protocol error, not an allocation.
//!
//! The version byte is 3. Version 2 made the codec's integers, lengths
//! and row arities varints, so a version-1 peer would misread every row;
//! version 3 made a `FRAMES` reply carry whole committed transactions
//! (`first_lsn`, count, commit timestamp, records naming no transaction)
//! behind a continuation flag, so a version-2 replica would misread every
//! batch. A server closes a connection whose preamble carries any other
//! version, and [`read_preamble`] refuses it naming both versions.
//!
//! ## Wire-compatible revisions within a version
//!
//! `ERR` payloads grew a trailing error-code byte (see [`err_code`])
//! after the first release of the protocol. The byte sits at the *end*
//! of the payload and decoders treat its absence as
//! [`err_code::GENERAL`], so old clients ignore it and new clients
//! interoperate with old servers — no version bump needed. The
//! replication opcodes (`SUBSCRIBE`/`SNAPSHOT`/`REPL_ACK` requests,
//! `FRAMES`/`SNAPSHOT` responses) are new opcodes, which old peers
//! reject as unknown; they never appear unless a client asks.

use bullfrog_common::{Error, Result, Row};
use bullfrog_txn::wal::{codec, Frame};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};

/// Connection preamble: magic, version, reserved byte.
pub const PREAMBLE: [u8; 8] = *b"BFNET1\x03\x00";

/// Hard cap on a single frame's payload.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Request opcodes (client → server).
mod req {
    pub const QUERY: u8 = 0x01;
    pub const CHECKPOINT: u8 = 0x02;
    pub const STATUS: u8 = 0x03;
    pub const SHUTDOWN: u8 = 0x04;
    pub const SUBSCRIBE: u8 = 0x05;
    pub const SNAPSHOT: u8 = 0x06;
    pub const REPL_ACK: u8 = 0x07;
    // 0x08 (the retired CLUSTER control opcode) is never reused.
    pub const HA: u8 = 0x09;
    pub const PREPARE: u8 = 0x0A;
    pub const EXECUTE: u8 = 0x0B;
    pub const CLOSE_STMT: u8 = 0x0C;
    pub const METRICS: u8 = 0x0D;
}

/// Response opcodes (server → client).
mod resp {
    pub const ROWS: u8 = 0x81;
    pub const OK: u8 = 0x82;
    pub const ERR: u8 = 0x83;
    pub const STATS: u8 = 0x84;
    pub const FRAMES: u8 = 0x85;
    pub const SNAPSHOT: u8 = 0x86;
    // 0x87 and 0x88 (retired cluster replies) are never reused.
    pub const HA_STATE: u8 = 0x89;
    pub const ROWS_CHUNK: u8 = 0x8A;
    pub const METRICS: u8 = 0x8B;
}

/// Machine-readable `ERR` classification, carried as a trailing payload
/// byte so clients can pick a retry policy without parsing messages.
pub mod err_code {
    /// Anything without a more specific class (also what decoders assume
    /// when an old peer omits the byte).
    pub const GENERAL: u8 = 0;
    /// The server is at its connection cap; retry against the same node.
    pub const BUSY: u8 = 1;
    /// A write or DDL hit a read-only replica; retry against the primary
    /// named in the message.
    pub const READ_ONLY: u8 = 2;
    /// A `SUBSCRIBE` asked for log the primary has truncated; the replica
    /// must re-bootstrap from a fresh `SNAPSHOT`.
    pub const SNAPSHOT_REQUIRED: u8 = 3;
    /// A transient transaction failure (lock timeout, abort); retrying
    /// the statement may succeed.
    pub const TXN_RETRY: u8 = 4;
    // 5 and 6 are retired (they classified cluster refusals) and never reused.
    /// A replication or HA peer presented a fencing epoch older than
    /// ours (a deposed primary, or a subscriber that outran its sender).
    /// Never retryable against the same pairing: the lower-epoch side
    /// must fence or re-resolve the current primary.
    pub const STALE_EPOCH: u8 = 7;
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one SQL statement (DML, DDL, migration DDL, or
    /// transaction control).
    Query(String),
    /// Run a checkpoint cycle now.
    Checkpoint,
    /// Report server, migration, durability, and session counters.
    Status,
    /// Gracefully shut the server down (drain sessions, sync the WAL).
    Shutdown,
    /// Replica → primary: turn this connection into a replication stream
    /// starting at `from_lsn`. `ddl_seq` is the next DDL-journal sequence
    /// the replica expects, so the primary can resend missed DDL events.
    Subscribe {
        /// First LSN the replica has not yet applied.
        from_lsn: u64,
        /// Next DDL-journal sequence number the replica expects.
        ddl_seq: u64,
        /// The subscriber's fencing epoch. A primary refuses (with
        /// [`err_code::STALE_EPOCH`]) and fences itself when the
        /// subscriber is *ahead* of it — the subscriber has seen a
        /// promotion this node missed. Trailing field; decodes as 0 from
        /// pre-HA peers.
        epoch: u64,
    },
    /// Replica → primary: send a bootstrap snapshot (checkpoint image +
    /// DDL journal).
    Snapshot,
    /// Replica → primary, on a subscribed connection: everything below
    /// `lsn` is applied on the replica (drives lag accounting and the
    /// primary's retain horizon).
    ReplAck {
        /// Exclusive upper bound of the replica's applied log prefix.
        lsn: u64,
        /// The replica's fencing epoch at ack time (trailing; 0 from
        /// pre-HA peers). A sender that sees a higher epoch than its own
        /// fences itself instead of counting the ack.
        epoch: u64,
    },
    /// High-availability control: lease renewals, election votes, and
    /// state probes between the members of an HA group (see
    /// `bullfrog-ha`). Answered with [`Response::HaState`].
    Ha(HaReq),
    /// Parse `sql` (which may contain `?` placeholders) once and cache it
    /// in the session's statement cache under `id`. Answered with
    /// [`Response::Ok`] whose `affected` carries the placeholder count.
    /// Re-preparing an existing `id` replaces it.
    Prepare {
        /// Client-chosen statement id (scoped to this session).
        id: u64,
        /// Statement text, `?` placeholders allowed in DML expressions.
        sql: String,
    },
    /// Execute the cached statement `id`, binding `params` to its `?`
    /// placeholders left to right. Arity must match the prepared count.
    Execute {
        /// Statement id from an earlier [`Request::Prepare`].
        id: u64,
        /// Parameter values, one per placeholder.
        params: Row,
    },
    /// Evict statement `id` from the session's cache. Answered with
    /// [`Response::Ok`]; closing an unknown id is an error.
    CloseStmt {
        /// Statement id to evict.
        id: u64,
    },
    /// Report the server's full metric registry — histogram buckets,
    /// quantiles, and migration spans, not just the scalar counters
    /// `STATUS` carries. Answered with [`Response::Metrics`].
    Metrics,
}

/// An HA sub-operation (body of [`Request::Ha`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaReq {
    /// Leader → member: extend my lease at `epoch` for `ttl_ms`.
    /// Granted unless the member has adopted a higher epoch.
    Renew {
        /// The leader's fencing epoch.
        epoch: u64,
        /// The leader's advertised client address.
        leader: String,
        /// Lease duration from receipt, in milliseconds.
        ttl_ms: u64,
    },
    /// Candidate → member: grant me the epoch bump to `epoch`. Granted
    /// iff `epoch` is above the member's, the member's view of the
    /// current lease has lapsed, and it has not voted for a different
    /// candidate at that epoch (the ballot is persisted).
    Vote {
        /// The epoch the candidate wants to lead at.
        epoch: u64,
        /// The candidate's advertised client address.
        candidate: String,
        /// Operator-forced election (planned switchover): the granter
        /// skips the live-lease refusal, though the persisted one-vote-
        /// per-epoch ballot still applies. Absent on frames from older
        /// peers (decodes `false`).
        forced: bool,
    },
    /// Operator → member: start an election now instead of waiting out
    /// the lease (planned failover). Majority voting still applies.
    Promote,
    /// Read the member's HA state (role, epoch, leader, lease).
    State,
}

/// One DDL-journal event in a [`Response::Frames`] batch, opaque to the
/// wire layer (`bullfrog-repl` owns the payload encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDdl {
    /// Journal sequence number (dense, starting at 0).
    pub seq: u64,
    /// Apply the event once the replica's applied LSN reaches this.
    pub apply_at_lsn: u64,
    /// Encoded event.
    pub payload: Bytes,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result set: column names plus rows.
    Rows {
        /// Output column names.
        names: Vec<String>,
        /// Output rows.
        rows: Vec<Row>,
    },
    /// One slice of a result set too large for a single frame. The server
    /// splits oversized row sets into a sequence of these (each carrying
    /// the column names, so any chunk is self-describing); `more = false`
    /// marks the last chunk. [`read_response`] reassembles the sequence
    /// into one [`Response::Rows`] — client code never sees this variant
    /// unless it reads raw frames.
    RowsChunk {
        /// Whether further chunks of the same result set follow.
        more: bool,
        /// Output column names (repeated on every chunk).
        names: Vec<String>,
        /// This chunk's rows.
        rows: Vec<Row>,
    },
    /// Statement succeeded; `affected` rows were written (0 for DDL and
    /// transaction control).
    Ok {
        /// Rows written.
        affected: u64,
    },
    /// Statement failed. The connection stays usable.
    Err {
        /// Whether retrying the statement may succeed (lock timeouts).
        retryable: bool,
        /// Machine-readable classification (see [`err_code`]).
        code: u8,
        /// Human-readable cause.
        message: String,
    },
    /// Counter report: ordered `name → value` pairs.
    Stats(Vec<(String, i64)>),
    /// Full metric snapshot: counters, gauges, latency histograms
    /// (sparse buckets plus precomputed p50/p90/p99/p999 for consumers
    /// that do not carry the bucket layout), and retained migration
    /// spans. The quantiles are derivable from the buckets, so decoding
    /// discards them and the snapshot round-trips exactly.
    Metrics(bullfrog_obs::MetricsSnapshot),
    /// Primary → replica: a batch of replication state. `frames` are
    /// durable committed transactions in LSN order; `ddl` are journal
    /// events the replica is missing; `durable_lsn` is the primary's
    /// durable horizon (for lag reporting, also sent with empty
    /// batches as a heartbeat).
    Frames {
        /// Whether the last frame continues in the next reply. Set only
        /// on the pieces [`append_response`] cuts a batch over the frame
        /// cap into; [`read_response`] joins them back, so a reader of
        /// whole responses always sees `false`.
        more: bool,
        /// The primary's durable horizon at send time.
        durable_lsn: u64,
        /// DDL-journal events at or above the subscriber's `ddl_seq`.
        ddl: Vec<WireDdl>,
        /// Committed transactions, whole, each starting where the one
        /// before ended: on the wire `first_lsn:u64` and the frame body
        /// ([`codec::put_frame`]).
        frames: Vec<Frame>,
        /// The sender's fencing epoch (trailing; 0 from pre-HA peers).
        /// A replica that has adopted a higher epoch drops the
        /// connection instead of applying — frames from a deposed
        /// primary must never land.
        epoch: u64,
    },
    /// Bootstrap snapshot; payload encoding is owned by `bullfrog-repl`.
    Snapshot {
        /// Encoded snapshot (checkpoint image + DDL journal).
        payload: Bytes,
    },
    /// Reply to any [`Request::Ha`] operation: the member's HA state,
    /// plus whether the specific operation (renew/vote/promote) was
    /// granted.
    HaState {
        /// Whether the renew/vote/promote was granted (`true` for pure
        /// `State` probes).
        granted: bool,
        /// The member's fencing epoch after handling the request.
        epoch: u64,
        /// The member's role: `leader`, `follower`, `candidate`, or
        /// `witness`.
        role: String,
        /// The leader this member currently recognises (may be empty).
        leader: String,
        /// Milliseconds left on the member's view of the current lease
        /// (0 = lapsed or none).
        lease_ms: u64,
    },
}

impl Request {
    /// Encodes the request as one frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::new();
        self.put(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the request to `out` as one complete frame: the length
    /// prefix, then exactly the bytes [`encode`](Self::encode) returns,
    /// written in place with the length patched in afterwards.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, |out| self.put(out));
    }

    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query(sql) => {
                buf.put_u8(req::QUERY);
                put_str(buf, sql);
            }
            Request::Checkpoint => buf.put_u8(req::CHECKPOINT),
            Request::Status => buf.put_u8(req::STATUS),
            Request::Shutdown => buf.put_u8(req::SHUTDOWN),
            Request::Subscribe {
                from_lsn,
                ddl_seq,
                epoch,
            } => {
                buf.put_u8(req::SUBSCRIBE);
                buf.put_u64(*from_lsn);
                buf.put_u64(*ddl_seq);
                // Trailing so a pre-HA decoder sees a valid payload.
                buf.put_u64(*epoch);
            }
            Request::Snapshot => buf.put_u8(req::SNAPSHOT),
            Request::ReplAck { lsn, epoch } => {
                buf.put_u8(req::REPL_ACK);
                buf.put_u64(*lsn);
                buf.put_u64(*epoch);
            }
            Request::Ha(op) => {
                buf.put_u8(req::HA);
                match op {
                    HaReq::Renew {
                        epoch,
                        leader,
                        ttl_ms,
                    } => {
                        buf.put_u8(1);
                        buf.put_u64(*epoch);
                        put_str(buf, leader);
                        buf.put_u64(*ttl_ms);
                    }
                    HaReq::Vote {
                        epoch,
                        candidate,
                        forced,
                    } => {
                        buf.put_u8(2);
                        buf.put_u64(*epoch);
                        put_str(buf, candidate);
                        buf.put_u8(u8::from(*forced));
                    }
                    HaReq::Promote => buf.put_u8(3),
                    HaReq::State => buf.put_u8(4),
                }
            }
            Request::Prepare { id, sql } => {
                buf.put_u8(req::PREPARE);
                buf.put_u64(*id);
                put_str(buf, sql);
            }
            Request::Execute { id, params } => {
                buf.put_u8(req::EXECUTE);
                buf.put_u64(*id);
                codec::put_row(buf, params);
            }
            Request::CloseStmt { id } => {
                buf.put_u8(req::CLOSE_STMT);
                buf.put_u64(*id);
            }
            Request::Metrics => buf.put_u8(req::METRICS),
        }
    }

    /// Decodes a frame payload as a request.
    pub fn decode(mut payload: Bytes) -> Result<Request> {
        match get_u8(&mut payload)? {
            req::QUERY => Ok(Request::Query(get_str(&mut payload)?)),
            req::CHECKPOINT => Ok(Request::Checkpoint),
            req::STATUS => Ok(Request::Status),
            req::SHUTDOWN => Ok(Request::Shutdown),
            req::SUBSCRIBE => Ok(Request::Subscribe {
                from_lsn: codec::get_u64(&mut payload)?,
                ddl_seq: codec::get_u64(&mut payload)?,
                epoch: get_trailing_u64(&mut payload)?,
            }),
            req::SNAPSHOT => Ok(Request::Snapshot),
            req::REPL_ACK => Ok(Request::ReplAck {
                lsn: codec::get_u64(&mut payload)?,
                epoch: get_trailing_u64(&mut payload)?,
            }),
            req::HA => {
                let op = match get_u8(&mut payload)? {
                    1 => HaReq::Renew {
                        epoch: codec::get_u64(&mut payload)?,
                        leader: get_str(&mut payload)?,
                        ttl_ms: codec::get_u64(&mut payload)?,
                    },
                    2 => HaReq::Vote {
                        epoch: codec::get_u64(&mut payload)?,
                        candidate: get_str(&mut payload)?,
                        // Trailing byte; absent on frames from older
                        // peers (an unforced, ordinary ballot).
                        forced: !payload.is_empty() && get_u8(&mut payload)? != 0,
                    },
                    3 => HaReq::Promote,
                    4 => HaReq::State,
                    other => {
                        return Err(Error::Eval(format!("unknown HA sub-op {other}")));
                    }
                };
                Ok(Request::Ha(op))
            }
            req::PREPARE => Ok(Request::Prepare {
                id: codec::get_u64(&mut payload)?,
                sql: get_str(&mut payload)?,
            }),
            req::EXECUTE => Ok(Request::Execute {
                id: codec::get_u64(&mut payload)?,
                params: decode_slice(&mut payload, codec::get_row)?,
            }),
            req::CLOSE_STMT => Ok(Request::CloseStmt {
                id: codec::get_u64(&mut payload)?,
            }),
            req::METRICS => Ok(Request::Metrics),
            other => Err(Error::Eval(format!("unknown request opcode {other:#04x}"))),
        }
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::new();
        self.put(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the response to `out` as one complete frame: the length
    /// prefix, then exactly the bytes [`encode`](Self::encode) returns.
    /// Never chunks — [`append_response`] is the form that splits an
    /// oversized row set.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, |out| self.put(out));
    }

    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Rows { names, rows } => {
                buf.put_u8(resp::ROWS);
                put_names(buf, names);
                buf.put_u32(rows.len() as u32);
                for r in rows {
                    codec::put_row(buf, r);
                }
            }
            Response::RowsChunk { more, names, rows } => {
                buf.put_u8(resp::ROWS_CHUNK);
                buf.put_u8(u8::from(*more));
                put_names(buf, names);
                buf.put_u32(rows.len() as u32);
                for r in rows {
                    codec::put_row(buf, r);
                }
            }
            Response::Ok { affected } => {
                buf.put_u8(resp::OK);
                buf.put_u64(*affected);
            }
            Response::Err {
                retryable,
                code,
                message,
            } => {
                buf.put_u8(resp::ERR);
                buf.put_u8(u8::from(*retryable));
                put_str(buf, message);
                // Trailing so a pre-code decoder sees a valid payload.
                buf.put_u8(*code);
            }
            Response::Stats(pairs) => {
                put_stats(buf, pairs.iter().map(|(k, v)| (k.as_str(), *v)));
            }
            Response::Metrics(snap) => {
                buf.put_u8(resp::METRICS);
                put_metrics(buf, snap);
            }
            Response::Frames {
                more,
                durable_lsn,
                ddl,
                frames,
                epoch,
            } => {
                buf.put_u8(resp::FRAMES);
                buf.put_u8(u8::from(*more));
                buf.put_u64(*durable_lsn);
                buf.put_u32(ddl.len() as u32);
                for d in ddl {
                    buf.put_u64(d.seq);
                    buf.put_u64(d.apply_at_lsn);
                    buf.put_u32(d.payload.len() as u32);
                    buf.extend_from_slice(&d.payload);
                }
                buf.put_u32(frames.len() as u32);
                for f in frames {
                    buf.put_u64(f.first_lsn);
                    codec::put_frame(buf, f);
                }
                // Trailing so a pre-HA decoder sees a valid payload.
                buf.put_u64(*epoch);
            }
            Response::Snapshot { payload } => {
                buf.put_u8(resp::SNAPSHOT);
                buf.put_u32(payload.len() as u32);
                buf.extend_from_slice(payload);
            }
            Response::HaState {
                granted,
                epoch,
                role,
                leader,
                lease_ms,
            } => {
                buf.put_u8(resp::HA_STATE);
                buf.put_u8(u8::from(*granted));
                buf.put_u64(*epoch);
                put_str(buf, role);
                put_str(buf, leader);
                buf.put_u64(*lease_ms);
            }
        }
    }

    /// Decodes a frame payload as a response.
    pub fn decode(mut payload: Bytes) -> Result<Response> {
        match get_u8(&mut payload)? {
            resp::ROWS => {
                let n = codec::get_u32(&mut payload)? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(get_str(&mut payload)?);
                }
                let n = codec::get_u32(&mut payload)? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(decode_slice(&mut payload, codec::get_row)?);
                }
                Ok(Response::Rows { names, rows })
            }
            resp::ROWS_CHUNK => {
                let more = get_u8(&mut payload)? != 0;
                let n = codec::get_u32(&mut payload)? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(get_str(&mut payload)?);
                }
                let n = codec::get_u32(&mut payload)? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(decode_slice(&mut payload, codec::get_row)?);
                }
                Ok(Response::RowsChunk { more, names, rows })
            }
            resp::OK => Ok(Response::Ok {
                affected: codec::get_u64(&mut payload)?,
            }),
            resp::ERR => {
                let retryable = get_u8(&mut payload)? != 0;
                let message = get_str(&mut payload)?;
                // Absent on frames from pre-code peers.
                let code = get_u8(&mut payload).unwrap_or(err_code::GENERAL);
                Ok(Response::Err {
                    retryable,
                    code,
                    message,
                })
            }
            resp::STATS => {
                let n = codec::get_u32(&mut payload)? as usize;
                let mut pairs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let k = get_str(&mut payload)?;
                    let v = codec::get_u64(&mut payload)? as i64;
                    pairs.push((k, v));
                }
                Ok(Response::Stats(pairs))
            }
            resp::METRICS => Ok(Response::Metrics(get_metrics(&mut payload)?)),
            resp::FRAMES => {
                let more = get_u8(&mut payload)? != 0;
                let durable_lsn = codec::get_u64(&mut payload)?;
                let n = codec::get_u32(&mut payload)? as usize;
                let mut ddl = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let seq = codec::get_u64(&mut payload)?;
                    let apply_at_lsn = codec::get_u64(&mut payload)?;
                    ddl.push(WireDdl {
                        seq,
                        apply_at_lsn,
                        payload: get_bytes(&mut payload)?,
                    });
                }
                let n = codec::get_u32(&mut payload)? as usize;
                let mut frames = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let first_lsn = codec::get_u64(&mut payload)?;
                    frames.push(decode_slice(&mut payload, |b| {
                        codec::get_frame(b, first_lsn)
                    })?);
                }
                Ok(Response::Frames {
                    more,
                    durable_lsn,
                    ddl,
                    frames,
                    epoch: get_trailing_u64(&mut payload)?,
                })
            }
            resp::SNAPSHOT => Ok(Response::Snapshot {
                payload: get_bytes(&mut payload)?,
            }),
            resp::HA_STATE => Ok(Response::HaState {
                granted: get_u8(&mut payload)? != 0,
                epoch: codec::get_u64(&mut payload)?,
                role: get_str(&mut payload)?,
                leader: get_str(&mut payload)?,
                lease_ms: codec::get_u64(&mut payload)?,
            }),
            other => Err(Error::Eval(format!("unknown response opcode {other:#04x}"))),
        }
    }

    /// Builds the error response for `e`, carrying its retryability.
    pub fn from_error(e: &Error) -> Response {
        // A fenced ex-primary reports READ_ONLY so clients re-resolve the
        // leader from the message hint, exactly like a replica rejection.
        if let Error::Fenced { .. } = e {
            return Response::Err {
                retryable: false,
                code: err_code::READ_ONLY,
                message: e.to_string(),
            };
        }
        Response::Err {
            retryable: e.is_retryable(),
            code: if e.is_retryable() {
                err_code::TXN_RETRY
            } else {
                err_code::GENERAL
            },
            message: e.to_string(),
        }
    }
}

/// Writes the connection preamble.
pub fn write_preamble(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(&PREAMBLE)
}

/// Reads and validates the connection preamble.
pub fn read_preamble(r: &mut impl Read) -> Result<()> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)
        .map_err(|e| Error::Eval(format!("preamble read failed: {e}")))?;
    if got[..6] != PREAMBLE[..6] {
        return Err(Error::Eval("bad protocol magic (want BFNET1)".into()));
    }
    if got[6] != PREAMBLE[6] {
        return Err(Error::Eval(format!(
            "unsupported protocol version {} (want {})",
            got[6], PREAMBLE[6]
        )));
    }
    Ok(())
}

/// Payload bytes that ride in the same `write` as the frame header. A
/// frame at or under this size leaves in exactly one `write`; a larger
/// one follows its first `write` with the rest straight from the
/// payload, so big payloads are never copied whole.
const FRAME_HEAD_BYTES: usize = 16 << 10;

/// Writes one frame (length prefix + payload). Header and payload go
/// out together: on a `TCP_NODELAY` socket a header-only `write` is its
/// own segment, and the peer is woken once for four bytes it cannot act
/// on and again for the payload.
pub fn write_frame(w: &mut impl Write, payload: &Bytes) -> std::io::Result<()> {
    let head = payload.len().min(FRAME_HEAD_BYTES);
    let mut first = Vec::with_capacity(4 + head);
    first.put_u32(payload.len() as u32);
    first.extend_from_slice(&payload[..head]);
    w.write_all(&first)?;
    w.write_all(&payload[head..])?;
    w.flush()
}

/// Reads one frame payload. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Bytes>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(Error::Eval(format!("frame read failed: {e}"))),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::Eval(format!(
            "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    let mut payload = BytesMut::zeroed(len);
    r.read_exact(&mut payload)
        .map_err(|e| Error::Eval(format!("frame body read failed: {e}")))?;
    Ok(Some(payload.freeze()))
}

/// Appends one frame to `out`: a length placeholder, whatever `payload`
/// appends, then the real length patched over the placeholder.
fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let frame = out.len();
    out.put_u32(0);
    payload(out);
    patch_frame_len(out, frame);
}

/// Closes the frame opened at `frame` (where its length placeholder
/// sits): everything after the placeholder is its payload.
fn patch_frame_len(out: &mut [u8], frame: usize) {
    patch_u32(out, frame, (out.len() - frame - 4) as u32);
}

fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

/// Soft target for one chunk of a split row set — comfortably under
/// [`MAX_FRAME_BYTES`] so names + framing never push a chunk over the cap.
const CHUNK_TARGET_BYTES: usize = 4 << 20;

/// Writes one logical response as one or more frames (see
/// [`append_response`] for how oversized row sets split). A response
/// that fits one frame leaves in one `write`; a chunked one, one `write`
/// per chunk.
pub fn write_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut out = Vec::new();
    append_response(&mut out, response, |out| {
        w.write_all(out)?;
        out.clear();
        Ok(())
    })?;
    w.write_all(&out)?;
    w.flush()
}

/// Appends one logical response to `out` as one or more complete frames,
/// each row encoded once, in place. [`Response::Rows`] payloads that
/// would exceed the frame cap are split into a `ROWS_CHUNK` sequence
/// (continuation flag set on all but the last); results that fit stay a
/// single plain `ROWS` frame, so old clients only ever see the new
/// opcode on results they could not have received at all before. A
/// single row too large for any frame errors that one statement instead
/// of killing the session — even when earlier chunks of the same result
/// already went out: an `ERR` frame is a legal terminator of a chunk
/// sequence (see [`read_response`]), so the stream stays in frame sync
/// and the statement alone fails.
///
/// A [`Response::Frames`] batch over the cap is cut the same way (see
/// [`append_frames`]).
///
/// `flush` runs each time a chunk closes, with `out` ending on a frame
/// boundary: a caller that ships `out` and clears it there holds one
/// chunk of a huge result at a time instead of all of it. Only chunked
/// results ever call it; what is left in `out` on return is the
/// caller's to send.
pub fn append_response(
    out: &mut Vec<u8>,
    response: &Response,
    mut flush: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let (names, rows) = match response {
        Response::Rows { names, rows } => (names, rows),
        Response::Frames { .. } => return append_frames(out, response, flush),
        other => {
            other.encode_into(out);
            return Ok(());
        }
    };
    // The frame opens as plain ROWS in the hope that everything fits.
    let (mut frame, mut rows_at) = open_rows_frame(out, false, names);
    // opcode + continuation flag + names + row count.
    let header = rows_at - frame - 4 + 1;
    let budget = CHUNK_TARGET_BYTES.max(header + 1);
    let mut chunked = false;
    let mut n_rows: u32 = 0;
    for row in rows {
        let row_at = out.len();
        codec::put_row(out, row);
        let row_len = out.len() - row_at;
        if header + row_len > MAX_FRAME_BYTES {
            // Chunks already closed stay (their flag says more follows);
            // the open one is dropped and ERR ends the sequence.
            out.truncate(frame);
            Response::Err {
                retryable: false,
                code: err_code::GENERAL,
                message: format!(
                    "result row of {row_len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap"
                ),
            }
            .encode_into(out);
            return Ok(());
        }
        if n_rows > 0 && header + (row_at - rows_at) + row_len > budget {
            // This row starts the next chunk; set it aside while the
            // open frame closes with its continuation flag set.
            let tail = out.split_off(row_at);
            if chunked {
                out[frame + 5] = 1;
            } else {
                // The first frame turns out not to be the only one:
                // retag it and make room for the flag byte.
                out[frame + 4] = resp::ROWS_CHUNK;
                out.insert(frame + 5, 1);
                rows_at += 1;
                chunked = true;
            }
            patch_u32(out, rows_at - 4, n_rows);
            patch_frame_len(out, frame);
            flush(out)?;
            (frame, rows_at) = open_rows_frame(out, true, names);
            out.extend_from_slice(&tail);
            n_rows = 0;
        }
        n_rows += 1;
    }
    patch_u32(out, rows_at - 4, n_rows);
    patch_frame_len(out, frame);
    Ok(())
}

/// Appends a `FRAMES` batch: one frame when it fits the cap, else
/// pieces of about [`CHUNK_TARGET_BYTES`] of records each, `flush`ed as
/// they close. A piece cut inside a transaction sets `more`, and the next
/// piece opens with the rest of that transaction from the LSN where the
/// cut fell; [`read_response`] joins them, so a replica still applies
/// the transaction whole. A piece cut between transactions is an
/// ordinary batch. The DDL rides in the first piece. A single record
/// over the cap still makes an oversized piece, which the reader refuses.
fn append_frames(
    out: &mut Vec<u8>,
    response: &Response,
    mut flush: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let at = out.len();
    response.encode_into(out);
    let Response::Frames {
        durable_lsn,
        ddl,
        frames,
        epoch,
        ..
    } = response
    else {
        unreachable!("append_frames takes a FRAMES batch");
    };
    if out.len() - at - 4 <= MAX_FRAME_BYTES {
        return Ok(());
    }
    out.truncate(at);
    let piece = |ddl: &[WireDdl], frames: Vec<Frame>, more: bool| Response::Frames {
        more,
        durable_lsn: *durable_lsn,
        ddl: ddl.to_vec(),
        frames,
        epoch: *epoch,
    };
    let mut ddl = ddl.as_slice();
    let mut closed: Vec<Frame> = Vec::new();
    let mut bytes = 0;
    let mut record = Vec::new();
    for f in frames {
        let mut open = Frame {
            first_lsn: f.first_lsn,
            commit_ts: f.commit_ts,
            records: Vec::new(),
        };
        for r in &f.records {
            record.clear();
            codec::put_record(&mut record, r);
            if bytes > 0 && bytes + record.len() > CHUNK_TARGET_BYTES {
                let more = !open.records.is_empty();
                if more {
                    let rest = Frame {
                        first_lsn: open.end_lsn(),
                        commit_ts: open.commit_ts,
                        records: Vec::new(),
                    };
                    closed.push(std::mem::replace(&mut open, rest));
                }
                piece(ddl, std::mem::take(&mut closed), more).encode_into(out);
                ddl = &[];
                flush(out)?;
                bytes = 0;
            }
            bytes += record.len();
            open.records.push(r.clone());
        }
        closed.push(open);
    }
    piece(ddl, closed, false).encode_into(out);
    Ok(())
}

/// Opens a `ROWS` frame, or a `ROWS_CHUNK` frame with its continuation
/// flag clear, at the end of `out`: length placeholder, opcode, flag,
/// names, row-count placeholder. Returns where the frame and its first
/// row start.
fn open_rows_frame(out: &mut Vec<u8>, chunk: bool, names: &[String]) -> (usize, usize) {
    let frame = out.len();
    out.put_u32(0);
    if chunk {
        out.put_u8(resp::ROWS_CHUNK);
        out.put_u8(0);
    } else {
        out.put_u8(resp::ROWS);
    }
    put_names(out, names);
    out.put_u32(0);
    (frame, out.len())
}

/// Reads one logical response, reassembling a `ROWS_CHUNK` sequence into
/// a single [`Response::Rows`] and the pieces of a split `FRAMES` batch
/// into one whole batch. `Ok(None)` on clean EOF at a frame boundary.
///
/// An `ERR` frame is a legal terminator of a chunk sequence: the writer
/// hit a row it could not encode (over the frame cap) after earlier
/// chunks had already flushed. The partial rows are discarded and the
/// `ERR` becomes the statement's response, keeping the stream in frame
/// sync — the next frame belongs to the next statement.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let (mut more, names, mut all_rows) = match Response::decode(payload)? {
        Response::RowsChunk { more, names, rows } => (more, names, rows),
        batch @ Response::Frames { more: true, .. } => return join_frames(r, batch).map(Some),
        other => return Ok(Some(other)),
    };
    while more {
        let Some(payload) = read_frame(r)? else {
            return Err(Error::Eval(
                "connection closed mid row-chunk sequence".into(),
            ));
        };
        match Response::decode(payload)? {
            Response::RowsChunk { more: m, rows, .. } => {
                all_rows.extend(rows);
                more = m;
            }
            err @ Response::Err { .. } => return Ok(Some(err)),
            other => {
                return Err(Error::Eval(format!(
                    "expected a row chunk continuation, got {other:?}"
                )))
            }
        }
    }
    Ok(Some(Response::Rows {
        names,
        rows: all_rows,
    }))
}

/// Reads the pieces that follow `batch`, a `FRAMES` piece with `more`
/// set, and joins them into it: each piece's first frame must carry on
/// the transaction the piece before left open, from the LSN where it
/// stopped.
fn join_frames(r: &mut impl Read, mut batch: Response) -> Result<Response> {
    let Response::Frames {
        more,
        durable_lsn,
        ddl,
        frames,
        epoch,
    } = &mut batch
    else {
        unreachable!("join_frames takes a FRAMES piece");
    };
    while *more {
        let Some(payload) = read_frame(r)? else {
            return Err(Error::Eval("connection closed mid FRAMES batch".into()));
        };
        let Response::Frames {
            more: next_more,
            durable_lsn: next_durable,
            ddl: next_ddl,
            frames: next_frames,
            epoch: next_epoch,
        } = Response::decode(payload)?
        else {
            return Err(Error::Eval("expected a FRAMES piece".into()));
        };
        let mut next_frames = next_frames.into_iter();
        match (frames.last_mut(), next_frames.next()) {
            (Some(open), Some(rest))
                if rest.first_lsn == open.end_lsn() && rest.commit_ts == open.commit_ts =>
            {
                open.records.extend(rest.records);
            }
            _ => {
                return Err(Error::Eval(
                    "a FRAMES piece does not carry on the transaction left open".into(),
                ))
            }
        }
        frames.extend(next_frames);
        ddl.extend(next_ddl);
        (*more, *durable_lsn, *epoch) = (next_more, next_durable, next_epoch);
    }
    Ok(batch)
}

/// Appends a `STATS` frame built from borrowed keys — the server's
/// `STATUS` fast path. Decodes as [`Response::Stats`]; byte-identical
/// to `Response::Stats(pairs.to_owned()).encode_into(out)` without
/// cloning a key string per pair.
pub fn append_stats(out: &mut Vec<u8>, pairs: &[(&str, i64)]) {
    put_frame(out, |out| put_stats(out, pairs.iter().copied()));
}

fn put_stats<'a>(buf: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = (&'a str, i64)>) {
    buf.put_u8(resp::STATS);
    buf.put_u32(pairs.len() as u32);
    for (k, v) in pairs {
        put_str(buf, k);
        buf.put_u64(v as u64);
    }
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_names(buf: &mut Vec<u8>, names: &[String]) {
    buf.put_u32(names.len() as u32);
    for n in names {
        put_str(buf, n);
    }
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = codec::get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(Error::Eval(format!(
            "truncated string: want {len} bytes, have {}",
            buf.len()
        )));
    }
    let s = String::from_utf8(buf.slice(..len).to_vec())
        .map_err(|_| Error::Eval("string field is not UTF-8".into()))?;
    *buf = buf.slice(len..);
    Ok(s)
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.is_empty() {
        return Err(Error::Eval("truncated frame: missing byte".into()));
    }
    Ok(buf.get_u8())
}

/// Reads a u64 appended after the pre-HA payload; absent on frames from
/// older peers, in which case it defaults to 0 (epoch zero = unfenced).
fn get_trailing_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.is_empty() {
        return Ok(0);
    }
    codec::get_u64(buf)
}

/// Encodes a [`bullfrog_obs::MetricsSnapshot`] as the `METRICS` body.
/// Histograms go out sparse (non-empty buckets only) with four
/// precomputed quantiles in front, so a consumer without the bucket
/// layout can still read p50/p99 straight off the wire.
fn put_metrics(buf: &mut Vec<u8>, snap: &bullfrog_obs::MetricsSnapshot) {
    buf.put_u64(snap.uptime_us);
    buf.put_u32(snap.counters.len() as u32);
    for (k, v) in &snap.counters {
        put_str(buf, k);
        buf.put_u64(*v);
    }
    buf.put_u32(snap.gauges.len() as u32);
    for (k, v) in &snap.gauges {
        put_str(buf, k);
        buf.put_u64(*v as u64);
    }
    buf.put_u32(snap.histograms.len() as u32);
    for (k, h) in &snap.histograms {
        put_str(buf, k);
        buf.put_u64(h.sum);
        for q in [0.50, 0.90, 0.99, 0.999] {
            buf.put_u64(h.quantile(q));
        }
        let sparse = h.sparse();
        buf.put_u32(sparse.len() as u32);
        for (i, c) in sparse {
            buf.put_u32(i);
            buf.put_u64(c);
        }
    }
    buf.put_u32(snap.spans.len() as u32);
    for s in &snap.spans {
        put_str(buf, &s.name);
        buf.put_u64(s.detail);
        buf.put_u64(s.start_us);
        buf.put_u64(s.end_us);
    }
    buf.put_u64(snap.spans_dropped);
}

/// Decodes a `METRICS` body. The wire quantiles are read and discarded:
/// they are derivable from the buckets, and dropping them is what makes
/// encode→decode an exact round trip of the snapshot.
fn get_metrics(buf: &mut Bytes) -> Result<bullfrog_obs::MetricsSnapshot> {
    let uptime_us = codec::get_u64(buf)?;
    let n = codec::get_u32(buf)? as usize;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = get_str(buf)?;
        counters.push((k, codec::get_u64(buf)?));
    }
    let n = codec::get_u32(buf)? as usize;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = get_str(buf)?;
        gauges.push((k, codec::get_u64(buf)? as i64));
    }
    let n = codec::get_u32(buf)? as usize;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = get_str(buf)?;
        let sum = codec::get_u64(buf)?;
        for _ in 0..4 {
            codec::get_u64(buf)?; // p50/p90/p99/p999 — recomputable
        }
        let np = codec::get_u32(buf)? as usize;
        let mut pairs = Vec::with_capacity(np.min(bullfrog_obs::NUM_BUCKETS));
        for _ in 0..np {
            let i = codec::get_u32(buf)?;
            pairs.push((i, codec::get_u64(buf)?));
        }
        histograms.push((k, bullfrog_obs::HistogramSnapshot::from_sparse(sum, &pairs)));
    }
    let n = codec::get_u32(buf)? as usize;
    let mut spans = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = get_str(buf)?;
        spans.push(bullfrog_obs::SpanSnapshot {
            name,
            detail: codec::get_u64(buf)?,
            start_us: codec::get_u64(buf)?,
            end_us: codec::get_u64(buf)?,
        });
    }
    let spans_dropped = codec::get_u64(buf)?;
    Ok(bullfrog_obs::MetricsSnapshot {
        uptime_us,
        counters,
        gauges,
        histograms,
        spans,
        spans_dropped,
    })
}

/// Runs a record-codec decoder over `buf`'s bytes and advances `buf`
/// past what it read: the codec reads slices, a payload is `Bytes`.
fn decode_slice<T>(buf: &mut Bytes, decode: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
    let mut rest: &[u8] = buf;
    let out = decode(&mut rest)?;
    buf.advance(buf.len() - rest.len());
    Ok(out)
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    let len = codec::get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(Error::Eval(format!(
            "truncated bytes field: want {len}, have {}",
            buf.len()
        )));
    }
    let out = buf.slice(..len);
    *buf = buf.slice(len..);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::row;

    /// One of every request variant (and sub-operation).
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Query("SELECT a FROM t WHERE café = 'naïve'".into()),
            Request::Checkpoint,
            Request::Status,
            Request::Shutdown,
            Request::Subscribe {
                from_lsn: 12345,
                ddl_seq: 3,
                epoch: 4,
            },
            Request::Snapshot,
            Request::ReplAck {
                lsn: u64::MAX,
                epoch: 7,
            },
            Request::Ha(HaReq::Renew {
                epoch: 3,
                leader: "127.0.0.1:7001".into(),
                ttl_ms: 1500,
            }),
            Request::Ha(HaReq::Vote {
                epoch: 4,
                candidate: "127.0.0.1:7002".into(),
                forced: false,
            }),
            Request::Ha(HaReq::Vote {
                epoch: 5,
                candidate: "127.0.0.1:7002".into(),
                forced: true,
            }),
            Request::Ha(HaReq::Promote),
            Request::Ha(HaReq::State),
            Request::Prepare {
                id: 42,
                sql: "SELECT a FROM t WHERE id = ?".into(),
            },
            Request::Execute {
                id: 42,
                params: row![7, "naïve"],
            },
            Request::Execute {
                id: 1,
                params: Row(vec![]),
            },
            Request::CloseStmt { id: u64::MAX },
            Request::Metrics,
        ]
    }

    /// One of every response variant.
    fn sample_responses() -> Vec<Response> {
        use bullfrog_common::{RowId, TableId};
        use bullfrog_txn::LogRecord;
        let reg = bullfrog_obs::Registry::new();
        reg.counter("sessions.statements").add(3);
        reg.histogram("net.query_us").record(40);
        vec![
            Response::Rows {
                names: vec!["id".into(), "owner".into()],
                rows: vec![row![1, "alice"], row![2, "✈"]],
            },
            Response::RowsChunk {
                more: true,
                names: vec!["id".into()],
                rows: vec![row![1], row![2]],
            },
            Response::Metrics(reg.snapshot()),
            Response::Ok { affected: 7 },
            Response::Err {
                retryable: true,
                code: err_code::TXN_RETRY,
                message: "lock timeout".into(),
            },
            Response::Stats(vec![("wal.flushes".into(), 12), ("neg".into(), -3)]),
            Response::Frames {
                more: true,
                durable_lsn: 99,
                ddl: vec![WireDdl {
                    seq: 0,
                    apply_at_lsn: 42,
                    payload: Bytes::from_static(b"create table t"),
                }],
                frames: vec![
                    Frame {
                        first_lsn: 97,
                        commit_ts: 0,
                        records: vec![LogRecord::Epoch { epoch: 5 }],
                    },
                    Frame {
                        first_lsn: 98,
                        commit_ts: 4,
                        records: vec![
                            LogRecord::Delete {
                                table: TableId(3),
                                rid: RowId::new(0, 1),
                            },
                            LogRecord::Epoch { epoch: 6 },
                        ],
                    },
                ],
                epoch: 2,
            },
            Response::Snapshot {
                payload: Bytes::from_static(b"\x00\x01\x02"),
            },
            Response::HaState {
                granted: true,
                epoch: 5,
                role: "leader".into(),
                leader: "127.0.0.1:7001".into(),
                lease_ms: 900,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for r in sample_requests() {
            assert_eq!(Request::decode(r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        for r in sample_responses() {
            assert_eq!(Response::decode(r.encode()).unwrap(), r);
        }
    }

    /// What `write_frame` puts on the wire for `payload`.
    fn framed(payload: &Bytes) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn encode_into_appends_exactly_the_frame_of_encode() {
        // Appended after bytes already there, and nothing but appended.
        let before = [0xAAu8, 0xBB];
        for r in sample_requests() {
            let mut out = before.to_vec();
            r.encode_into(&mut out);
            assert_eq!(out[..2], before, "{r:?}");
            assert_eq!(out[2..], framed(&r.encode()), "{r:?}");
        }
        for r in sample_responses() {
            let mut out = before.to_vec();
            r.encode_into(&mut out);
            assert_eq!(out[..2], before, "{r:?}");
            assert_eq!(out[2..], framed(&r.encode()), "{r:?}");
            // Nothing here needs chunking, so the chunk-aware form is
            // the same bytes and never asks for a flush.
            let mut appended = before.to_vec();
            append_response(&mut appended, &r, |_| {
                panic!("flush on an unchunked response")
            })
            .unwrap();
            assert_eq!(appended, out, "{r:?}");
        }
        let pairs = [("wal.flushes", 12i64), ("neg", -3)];
        let owned = Response::Stats(pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect());
        let mut out = Vec::new();
        append_stats(&mut out, &pairs);
        assert_eq!(out, framed(&owned.encode()));
    }

    /// A sink that takes whatever it is offered and counts the calls.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        for r in sample_requests() {
            let mut w = CountingWrite::default();
            write_frame(&mut w, &r.encode()).unwrap();
            assert_eq!(w.writes, 1, "{r:?}");
            assert_eq!(w.bytes, framed(&r.encode()), "{r:?}");
        }
        for r in sample_responses() {
            let mut w = CountingWrite::default();
            write_response(&mut w, &r).unwrap();
            assert_eq!(w.writes, 1, "{r:?}");
            assert_eq!(w.bytes, framed(&r.encode()), "{r:?}");
        }
        // Past the size that rides with the header, the rest follows
        // from the payload itself: two writes, the same bytes.
        let big = Response::Snapshot {
            payload: Bytes::from(vec![7u8; 4 * FRAME_HEAD_BYTES]),
        }
        .encode();
        let mut w = CountingWrite::default();
        write_frame(&mut w, &big).unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, framed(&big));
    }

    #[test]
    fn metrics_round_trip_and_truncations_error() {
        use bullfrog_obs::{MetricsSnapshot, Registry};
        let reg = Registry::new();
        reg.counter("sessions.statements").add(42);
        reg.counter("wal.flushes").inc();
        let h = reg.histogram("engine.commit_us");
        for v in [3u64, 90, 1500, 250_000] {
            h.record(v);
        }
        reg.tracer().record("migrate.flip", 2, 10, 250);
        reg.tracer().record("migrate.granule", 128, 300, 9000);
        // Gauges are computed by the server per request, never stored.
        let snap = MetricsSnapshot {
            gauges: vec![("repl.lag_lsns".into(), -7)],
            ..reg.snapshot()
        };
        let resp = Response::Metrics(snap.clone());
        let encoded = resp.encode();
        match Response::decode(encoded.clone()).unwrap() {
            Response::Metrics(got) => assert_eq!(got, snap),
            other => panic!("{other:?}"),
        }
        // The empty snapshot and every truncation behave too.
        let empty = Response::Metrics(Default::default());
        assert_eq!(Response::decode(empty.encode()).unwrap(), empty);
        for cut in 0..encoded.len() {
            assert!(Response::decode(encoded.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn metrics_wire_quantiles_precede_sparse_buckets() {
        // A consumer without the bucket layout reads p50/p90/p99/p999
        // straight off the wire: name, sum, then the four quantiles.
        let reg = bullfrog_obs::Registry::new();
        let h = reg.histogram("h");
        for _ in 0..100 {
            h.record(1000);
        }
        let snap = reg.snapshot();
        let mut payload = Response::Metrics(snap.clone()).encode();
        assert_eq!(get_u8(&mut payload).unwrap(), resp::METRICS);
        codec::get_u64(&mut payload).unwrap(); // uptime
        assert_eq!(codec::get_u32(&mut payload).unwrap(), 0); // counters
        assert_eq!(codec::get_u32(&mut payload).unwrap(), 0); // gauges
        assert_eq!(codec::get_u32(&mut payload).unwrap(), 1); // histograms
        assert_eq!(get_str(&mut payload).unwrap(), "h");
        assert_eq!(codec::get_u64(&mut payload).unwrap(), 100_000); // sum
        let hist = snap.histogram("h").unwrap();
        for q in [0.50, 0.90, 0.99, 0.999] {
            assert_eq!(codec::get_u64(&mut payload).unwrap(), hist.quantile(q));
        }
    }

    #[test]
    fn epoch_fields_are_wire_compatible() {
        // Payloads from a pre-HA peer carry no trailing epoch; they
        // must decode with epoch 0 rather than erroring out.
        let old_subscribe = {
            let mut buf = BytesMut::new();
            buf.put_u8(req::SUBSCRIBE);
            buf.put_u64(42);
            buf.put_u64(7);
            buf.freeze()
        };
        assert_eq!(
            Request::decode(old_subscribe).unwrap(),
            Request::Subscribe {
                from_lsn: 42,
                ddl_seq: 7,
                epoch: 0,
            }
        );
        let old_ack = {
            let mut buf = BytesMut::new();
            buf.put_u8(req::REPL_ACK);
            buf.put_u64(99);
            buf.freeze()
        };
        assert_eq!(
            Request::decode(old_ack).unwrap(),
            Request::ReplAck { lsn: 99, epoch: 0 }
        );
        let old_frames = {
            let mut buf = BytesMut::new();
            buf.put_u8(resp::FRAMES);
            buf.put_u8(0); // whole
            buf.put_u64(5); // durable_lsn
            buf.put_u32(0); // no ddl
            buf.put_u32(0); // no frames
            buf.freeze()
        };
        assert_eq!(
            Response::decode(old_frames).unwrap(),
            Response::Frames {
                more: false,
                durable_lsn: 5,
                ddl: vec![],
                frames: vec![],
                epoch: 0,
            }
        );
    }

    #[test]
    fn fenced_error_maps_to_read_only_with_leader_hint() {
        let resp = Response::from_error(&Error::Fenced {
            leader: Some("127.0.0.1:7002".into()),
        });
        match resp {
            Response::Err {
                retryable,
                code,
                message,
            } => {
                assert!(!retryable);
                assert_eq!(code, err_code::READ_ONLY);
                assert!(message.contains("primary at 127.0.0.1:7002"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn err_code_is_wire_compatible() {
        // A payload from a pre-code peer (no trailing byte) decodes with
        // code GENERAL; new payloads carry the byte at the end.
        let old = {
            let mut buf = BytesMut::new();
            buf.put_u8(0x83);
            buf.put_u8(1);
            put_str(&mut buf, "server busy");
            buf.freeze()
        };
        match Response::decode(old).unwrap() {
            Response::Err {
                retryable, code, ..
            } => {
                assert!(retryable);
                assert_eq!(code, err_code::GENERAL);
            }
            other => panic!("{other:?}"),
        }
        let new = Response::Err {
            retryable: true,
            code: err_code::READ_ONLY,
            message: "read only".into(),
        };
        assert_eq!(Response::decode(new.encode()).unwrap(), new);
    }

    #[test]
    fn truncated_payloads_are_errors() {
        let full = Response::Rows {
            names: vec!["id".into()],
            rows: vec![row![1]],
        }
        .encode();
        for cut in 0..full.len() {
            // Every truncation decodes to Err, never panics.
            assert!(Response::decode(full.slice(..cut)).is_err(), "cut={cut}");
        }
        // The same for a FRAMES batch, at every offset of its frames —
        // except where the pre-HA payload ended, since the trailing epoch
        // is optional.
        let frames = sample_responses()
            .into_iter()
            .find(|r| matches!(r, Response::Frames { .. }))
            .unwrap()
            .encode();
        for cut in (0..frames.len()).filter(|&cut| cut != frames.len() - 8) {
            assert!(Response::decode(frames.slice(..cut)).is_err(), "cut={cut}");
        }
        // A frame claiming more records than bytes follow is an error,
        // not an allocation.
        let mut hostile = BytesMut::new();
        hostile.put_u8(resp::FRAMES);
        hostile.put_u8(0); // whole
        hostile.put_u64(5); // durable_lsn
        hostile.put_u32(0); // no ddl
        hostile.put_u32(1); // one frame
        hostile.put_u64(4); // first_lsn
        codec::put_varint(&mut hostile, u64::from(u32::MAX)); // count
        hostile.put_u8(0); // commit_ts
        codec::put_record(&mut hostile, &bullfrog_txn::LogRecord::Epoch { epoch: 1 });
        let err = Response::decode(hostile.freeze()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(Request::decode(Bytes::new()).is_err());
        assert!(Request::decode(Bytes::from_static(&[0x7f])).is_err());
    }

    #[test]
    fn retired_cluster_opcodes_stay_unknown() {
        // 0x08 carried cluster control; 0x87/0x88 its replies. A frame
        // with any of them is a stranger's, not a cluster operation.
        let e = Request::decode(Bytes::from_static(&[0x08, 0x01])).unwrap_err();
        assert!(e.to_string().contains("unknown request opcode 0x08"), "{e}");
        for op in [0x87u8, 0x88] {
            let e = Response::decode(Bytes::copy_from_slice(&[op, 0, 0, 0, 0])).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("unknown response opcode {op:#04x}")),
                "{e}"
            );
        }
    }

    #[test]
    fn frames_round_trip_and_cap() {
        let mut buf = Vec::new();
        let payload = Request::Query("SELECT 1".into()).encode();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(oversized)).is_err());
    }

    #[test]
    fn rows_chunk_round_trips() {
        let r = Response::RowsChunk {
            more: true,
            names: vec!["id".into()],
            rows: vec![row![1], row![2]],
        };
        assert_eq!(Response::decode(r.encode()).unwrap(), r);
        let last = Response::RowsChunk {
            more: false,
            names: vec!["id".into()],
            rows: vec![],
        };
        assert_eq!(Response::decode(last.encode()).unwrap(), last);
    }

    #[test]
    fn small_results_stay_a_single_plain_rows_frame() {
        let resp = Response::Rows {
            names: vec!["id".into(), "name".into()],
            rows: vec![row![1, "a"], row![2, "b"]],
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let mut r = std::io::Cursor::new(&buf);
        let payload = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(payload[0], resp::ROWS, "must be plain ROWS, not a chunk");
        assert_eq!(Response::decode(payload).unwrap(), resp);
        assert!(read_frame(&mut r).unwrap().is_none(), "exactly one frame");
    }

    #[test]
    fn oversized_results_chunk_and_reassemble() {
        // ~24 MiB of rows: forced across multiple frames.
        let big = "x".repeat(1 << 20);
        let rows: Vec<Row> = (0..24i64).map(|i| row![i, big.clone()]).collect();
        let resp = Response::Rows {
            names: vec!["id".into(), "blob".into()],
            rows: rows.clone(),
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();

        // Raw view: several ROWS_CHUNK frames, all under the cap, last
        // one with the continuation flag clear.
        let mut r = std::io::Cursor::new(&buf);
        let mut n_chunks = 0;
        let mut last_more = true;
        while let Some(payload) = read_frame(&mut r).unwrap() {
            assert!(payload.len() <= MAX_FRAME_BYTES);
            assert_eq!(payload[0], resp::ROWS_CHUNK);
            n_chunks += 1;
            match Response::decode(payload).unwrap() {
                Response::RowsChunk { more, .. } => last_more = more,
                other => panic!("{other:?}"),
            }
        }
        assert!(n_chunks > 1, "expected multiple chunks, got {n_chunks}");
        assert!(!last_more, "final chunk must clear the continuation flag");

        // One write per chunk, each a whole frame: the writer never
        // holds more than one chunk of the result.
        let mut w = CountingWrite::default();
        write_response(&mut w, &resp).unwrap();
        assert_eq!(w.writes, n_chunks);
        assert_eq!(w.bytes, buf);

        // Logical view: read_response reassembles the original rows.
        let mut r = std::io::Cursor::new(&buf);
        let got = read_response(&mut r).unwrap().unwrap();
        assert_eq!(got, resp);
        assert!(read_response(&mut r).unwrap().is_none());
    }

    /// A `FRAMES` batch over the frame cap leaves as pieces under it, cut
    /// inside a transaction and between transactions, and reads back as
    /// the batch it was.
    #[test]
    fn an_oversized_frames_batch_ships_in_pieces() {
        use bullfrog_common::{RowId, TableId};
        use bullfrog_txn::LogRecord;
        let big = "x".repeat(1 << 20);
        let inserts = |first: u64, n: u64| Frame {
            first_lsn: first,
            commit_ts: first,
            records: (0..n)
                .map(|i| LogRecord::Insert {
                    table: TableId(1),
                    rid: RowId::new(0, (first + i) as u16),
                    row: row![big.clone()],
                })
                .collect(),
        };
        let batch = Response::Frames {
            more: false,
            durable_lsn: 40,
            ddl: vec![WireDdl {
                seq: 3,
                apply_at_lsn: 2,
                payload: Bytes::from_static(b"create table t"),
            }],
            frames: vec![inserts(2, 3), inserts(5, 20), inserts(25, 3)],
            epoch: 4,
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &batch).unwrap();

        let mut r = std::io::Cursor::new(&buf);
        let mut pieces = Vec::new();
        while let Some(payload) = read_frame(&mut r).unwrap() {
            assert!(payload.len() <= MAX_FRAME_BYTES);
            match Response::decode(payload).unwrap() {
                Response::Frames { more, frames, .. } => pieces.push((more, frames.len())),
                other => panic!("{other:?}"),
            }
        }
        assert!(pieces.len() > 2, "{pieces:?}");
        assert!(pieces.iter().any(|&(more, _)| more), "{pieces:?}");
        assert!(!pieces.last().unwrap().0, "{pieces:?}");

        let mut r = std::io::Cursor::new(&buf);
        let mut joined = Vec::new();
        while let Some(got) = read_response(&mut r).unwrap() {
            joined.push(got);
        }
        let Response::Frames { frames, ddl, .. } = &batch else {
            unreachable!()
        };
        let got_frames: Vec<Frame> = joined
            .iter()
            .flat_map(|b| match b {
                Response::Frames { more, frames, .. } => {
                    assert!(!more);
                    frames.clone()
                }
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(&got_frames, frames, "every transaction reads back whole");
        match &joined[0] {
            Response::Frames { ddl: got, .. } => assert_eq!(got, ddl),
            other => panic!("{other:?}"),
        }

        // A piece that does not carry on the open transaction, or a
        // stream that ends inside one, is an error.
        let piece = |first_lsn: u64, more: bool| {
            Response::Frames {
                more,
                durable_lsn: 40,
                ddl: vec![],
                frames: vec![Frame {
                    first_lsn,
                    commit_ts: 0,
                    records: vec![LogRecord::Epoch { epoch: 1 }],
                }],
                epoch: 4,
            }
            .encode()
        };
        let mut gap = Vec::new();
        write_frame(&mut gap, &piece(2, true)).unwrap();
        write_frame(&mut gap, &piece(4, false)).unwrap();
        let err = read_response(&mut std::io::Cursor::new(&gap)).unwrap_err();
        assert!(err.to_string().contains("left open"), "{err}");
        let mut cut = Vec::new();
        write_frame(&mut cut, &piece(2, true)).unwrap();
        let err = read_response(&mut std::io::Cursor::new(&cut)).unwrap_err();
        assert!(err.to_string().contains("mid FRAMES"), "{err}");
    }

    #[test]
    fn unsplittable_row_errors_the_statement_not_the_session() {
        let resp = Response::Rows {
            names: vec!["blob".into()],
            rows: vec![row!["y".repeat(MAX_FRAME_BYTES + 16)]],
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let mut r = std::io::Cursor::new(&buf);
        match read_response(&mut r).unwrap().unwrap() {
            Response::Err {
                retryable, message, ..
            } => {
                assert!(!retryable);
                assert!(message.contains("frame cap"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preamble_rejects_strangers() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert!(read_preamble(&mut std::io::Cursor::new(&buf)).is_ok());
        assert!(read_preamble(&mut std::io::Cursor::new(b"HTTP/1.1".to_vec())).is_err());
        // Version 1 (fixed-width codec), version 2 (records naming their
        // transaction) and unknown versions are refused by name.
        let mut wrong_ver = PREAMBLE;
        for version in [1u8, 2, 9] {
            wrong_ver[6] = version;
            let err = read_preamble(&mut std::io::Cursor::new(wrong_ver.to_vec())).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
    }
}
