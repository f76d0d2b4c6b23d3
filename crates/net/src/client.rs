//! Blocking BFNET1 client.
//!
//! [`Client`] wraps one TCP connection, sends the preamble on connect,
//! and reuses the connection for every subsequent call — the daemons'
//! admin subcommands and the tests never pay a reconnect per statement. Simple calls
//! are request/response, one `write` out and (through a read buffer)
//! one `read` back; [`Client::pipeline`] and
//! [`Client::pipeline_execute`] write a batch of request frames
//! back-to-back and then read the batch's responses, which the server
//! guarantees to return **in request order** (a failed statement yields
//! an error in its slot, never a desynchronized stream).
//!
//! Prepared statements ([`Client::prepare`] / [`Client::execute_prepared`]
//! / [`Client::close_stmt`]) cache a parsed template server-side under a
//! client-chosen id; `EXECUTE` ships only the id and a row of parameter
//! values, skipping SQL text transfer and parsing per call.
//!
//! Errors split three ways: [`ClientError::Io`] (the transport broke),
//! [`ClientError::Protocol`] (the peer spoke something that is not
//! BFNET1), and [`ClientError::Server`] (the statement failed; the
//! connection is still usable, and `retryable` says whether resubmitting
//! may succeed).

use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bullfrog_common::Row;

use crate::wire::{self, HaReq, Request, Response};

/// The value `key` has in a `STATUS` reply ([`Client::status`]), if the
/// server reported it.
pub fn stat(status: &[(String, i64)], key: &str) -> Option<i64> {
    status.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Extracts the primary address a read-only/fenced rejection names, if
/// any — the re-route target for a client that talked to the wrong
/// node. Both the replica's `READ_ONLY` message and the fenced
/// ex-primary's error end with `... the primary at <addr>`.
pub fn primary_hint(message: &str) -> Option<String> {
    let rest = message.split("primary at ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    if addr.is_empty() || addr == "unknown" {
        return None;
    }
    Some(addr.to_string())
}

/// A decoded `HA_STATE` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaStateReply {
    /// Whether the request (renew/vote) was granted; `true` for probes.
    pub granted: bool,
    /// The responder's fencing epoch.
    pub epoch: u64,
    /// The responder's role (`leader`/`follower`/`candidate`/`witness`).
    pub role: String,
    /// Who the responder believes is leader (may be empty).
    pub leader: String,
    /// Milliseconds left on the lease the responder has granted.
    pub lease_ms: u64,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure; the connection is dead.
    Io(std::io::Error),
    /// Framing/decoding failure; the connection is not trustworthy.
    Protocol(String),
    /// The server executed the request and reported an error; the
    /// connection remains usable.
    Server {
        /// Whether a retry may succeed (lock timeouts, server busy).
        retryable: bool,
        /// Machine-readable classification
        /// ([`err_code`](crate::wire::err_code)) — e.g. distinguishing
        /// "server busy" from "read-only replica", which are both
        /// retryable but want different retry targets.
        code: u8,
        /// Server-reported cause.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server {
                retryable,
                code,
                message,
            } => {
                write!(
                    f,
                    "server: {message} (retryable: {retryable}, code: {code})"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A query's successful outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// A result set.
    Rows {
        /// Output column names.
        names: Vec<String>,
        /// Output rows.
        rows: Vec<Row>,
    },
    /// A write/DDL acknowledgement.
    Ok {
        /// Rows written.
        affected: u64,
    },
}

/// One BFNET1 connection.
pub struct Client {
    /// The socket behind the client's read side; requests are written
    /// to it directly.
    reader: BufReader<TcpStream>,
    /// The request frame being sent, kept to reuse its allocation.
    frame: Vec<u8>,
}

/// Wraps a response source in the client's read side: a buffer, so a
/// frame's header and payload — and, on a pipelined batch, the frames
/// behind it — arrive in one `read` instead of two per frame. Payloads
/// larger than the buffer are read straight into their own allocation.
pub(crate) fn read_side<R: Read>(source: R) -> BufReader<R> {
    BufReader::with_capacity(16 << 10, source)
}

impl Client {
    fn handshake(mut stream: TcpStream) -> ClientResult<Client> {
        stream.set_nodelay(true).ok();
        wire::write_preamble(&mut stream)?;
        Ok(Client {
            reader: read_side(stream),
            frame: Vec::new(),
        })
    }

    /// Connects and sends the preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Self::handshake(TcpStream::connect(addr)?)
    }

    /// As [`Client::connect`] with a connect timeout per resolved
    /// address.
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> ClientResult<Client> {
        Self::handshake(TcpStream::connect_timeout(addr, timeout)?)
    }

    /// Writes one request frame, in one `write`, without reading a
    /// response; pair with [`Client::recv`] for pipelined batches.
    fn send(&mut self, request: &Request) -> ClientResult<()> {
        self.frame.clear();
        request.encode_into(&mut self.frame);
        self.reader.get_mut().write_all(&self.frame)?;
        Ok(())
    }

    /// Reads one response, reassembling chunked `ROWS` results that the
    /// server split across frames.
    fn recv(&mut self) -> ClientResult<Response> {
        wire::read_response(&mut self.reader)
            .map_err(|e| ClientError::Protocol(e.to_string()))?
            .ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            })
    }

    fn round_trip(&mut self, request: &Request) -> ClientResult<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Maps a query-shaped response to its reply (or per-statement
    /// server error).
    fn reply_of(response: Response) -> ClientResult<QueryReply> {
        match response {
            Response::Rows { names, rows } => Ok(QueryReply::Rows { names, rows }),
            Response::Ok { affected } => Ok(QueryReply::Ok { affected }),
            Response::Err {
                retryable,
                code,
                message,
            } => Err(ClientError::Server {
                retryable,
                code,
                message,
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to a query: {other:?}"
            ))),
        }
    }

    fn expect_reply(&mut self, request: &Request) -> ClientResult<QueryReply> {
        let response = self.round_trip(request)?;
        Self::reply_of(response)
    }

    /// Executes one SQL statement.
    pub fn query(&mut self, sql: &str) -> ClientResult<QueryReply> {
        self.expect_reply(&Request::Query(sql.to_string()))
    }

    /// Caches `sql` (with `?` parameter placeholders) server-side under
    /// `id`, replacing any previous statement with that id. Returns the
    /// template's parameter count.
    pub fn prepare(&mut self, id: u64, sql: &str) -> ClientResult<u64> {
        match self.expect_reply(&Request::Prepare {
            id,
            sql: sql.to_string(),
        })? {
            QueryReply::Ok { affected } => Ok(affected),
            QueryReply::Rows { .. } => Err(ClientError::Protocol(
                "unexpected result set in reply to PREPARE".into(),
            )),
        }
    }

    /// Executes the prepared statement `id`, binding `params` to its
    /// placeholders in order. The reply is identical to running the
    /// statement with the parameters inlined as literals.
    pub fn execute_prepared(&mut self, id: u64, params: Row) -> ClientResult<QueryReply> {
        self.expect_reply(&Request::Execute { id, params })
    }

    /// Drops the prepared statement `id` from the server-side cache.
    pub fn close_stmt(&mut self, id: u64) -> ClientResult<()> {
        match self.expect_reply(&Request::CloseStmt { id })? {
            QueryReply::Ok { .. } => Ok(()),
            QueryReply::Rows { .. } => Err(ClientError::Protocol(
                "unexpected result set in reply to CLOSE_STMT".into(),
            )),
        }
    }

    /// Pipelines a batch of statements: request frames are written
    /// back-to-back (without waiting for responses) and the responses
    /// collected in request order. The outer `Err` is a dead
    /// connection; per-statement failures land in their slot of the
    /// returned vector. Batches of any size are safe: once the encoded
    /// requests outgrow what kernel socket buffers are sure to absorb,
    /// the write moves to a helper thread and responses are drained
    /// concurrently, so the two directions can never deadlock.
    pub fn pipeline(&mut self, sqls: &[String]) -> ClientResult<Vec<ClientResult<QueryReply>>> {
        let requests: Vec<Request> = sqls.iter().map(|sql| Request::Query(sql.clone())).collect();
        self.pipeline_requests(&requests)
    }

    /// Pipelines `EXECUTE`s of one prepared statement, one per
    /// parameter row — the cheapest way to push many statements through
    /// a connection (no SQL text, no parse, one round trip).
    pub fn pipeline_execute(
        &mut self,
        id: u64,
        batches: &[Row],
    ) -> ClientResult<Vec<ClientResult<QueryReply>>> {
        let requests: Vec<Request> = batches
            .iter()
            .map(|params| Request::Execute {
                id,
                params: params.clone(),
            })
            .collect();
        self.pipeline_requests(&requests)
    }

    /// Encoded batches at or under this size are written in one burst
    /// before any response is read: they fit comfortably in the kernel
    /// socket buffers, so the server can never be stuck writing
    /// responses while we are stuck writing requests. Larger batches
    /// write from a helper thread while this thread reads.
    const PIPELINE_BURST_MAX: usize = 64 << 10;

    fn pipeline_requests(
        &mut self,
        requests: &[Request],
    ) -> ClientResult<Vec<ClientResult<QueryReply>>> {
        let mut frames: Vec<u8> = Vec::new();
        for request in requests {
            request.encode_into(&mut frames);
        }
        if frames.len() <= Self::PIPELINE_BURST_MAX {
            self.reader.get_mut().write_all(&frames)?;
            let mut replies = Vec::with_capacity(requests.len());
            for _ in requests {
                replies.push(Self::reply_of(self.recv()?));
            }
            return Ok(replies);
        }

        // The batch is too big to park in socket buffers: writing it
        // all before reading could fill both directions (we block
        // writing requests, the server blocks writing responses) and
        // trip the server's write timeout. A helper thread streams the
        // requests while this thread drains responses as they arrive.
        let mut writer = self.reader.get_ref().try_clone()?;
        let sender = std::thread::Builder::new()
            .name("bf-client-pipeline".into())
            .spawn(move || writer.write_all(&frames))
            .map_err(ClientError::Io)?;
        let mut replies = Vec::with_capacity(requests.len());
        let mut read_err: Option<ClientError> = None;
        for _ in requests {
            match self.recv() {
                Ok(response) => replies.push(Self::reply_of(response)),
                // A dead connection also unblocks the writer, so the
                // join below cannot hang on it.
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        let wrote = sender
            .join()
            .map_err(|_| ClientError::Protocol("pipeline writer thread panicked".into()))?;
        if let Some(e) = read_err {
            return Err(e);
        }
        wrote?;
        Ok(replies)
    }

    /// Executes a statement and returns its affected-row count; a
    /// result set is a protocol error.
    pub fn execute(&mut self, sql: &str) -> ClientResult<u64> {
        match self.query(sql)? {
            QueryReply::Ok { affected } => Ok(affected),
            QueryReply::Rows { .. } => Err(ClientError::Protocol(
                "expected an OK reply, got a result set".into(),
            )),
        }
    }

    /// Executes a statement, retrying (bounded) while the server reports
    /// a retryable error — remote lock timeouts under contention.
    pub fn execute_retry(&mut self, sql: &str, max_attempts: usize) -> ClientResult<u64> {
        let mut last: Option<ClientError> = None;
        for _ in 0..max_attempts {
            match self.execute(sql) {
                Ok(n) => return Ok(n),
                Err(ClientError::Server {
                    retryable: true,
                    code,
                    message,
                }) => {
                    last = Some(ClientError::Server {
                        retryable: true,
                        code,
                        message,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("retry limit of zero".into())))
    }

    /// Executes a SELECT and returns `(names, rows)`; an OK reply is a
    /// protocol error.
    pub fn query_rows(&mut self, sql: &str) -> ClientResult<(Vec<String>, Vec<Row>)> {
        match self.query(sql)? {
            QueryReply::Rows { names, rows } => Ok((names, rows)),
            QueryReply::Ok { .. } => Err(ClientError::Protocol(
                "expected a result set, got an OK reply".into(),
            )),
        }
    }

    /// Asks the server to run a checkpoint cycle; returns the records
    /// absorbed.
    pub fn checkpoint(&mut self) -> ClientResult<u64> {
        match self.round_trip(&Request::Checkpoint)? {
            Response::Ok { affected } => Ok(affected),
            Response::Err {
                retryable,
                code,
                message,
            } => Err(ClientError::Server {
                retryable,
                code,
                message,
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected checkpoint reply {other:?}"
            ))),
        }
    }

    /// Fetches the server's `STATUS` counters.
    pub fn status(&mut self) -> ClientResult<Vec<(String, i64)>> {
        match self.round_trip(&Request::Status)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(ClientError::Protocol(format!(
                "unexpected status reply {other:?}"
            ))),
        }
    }

    /// Fetches the server's full metrics snapshot: counters, gauges,
    /// latency histograms, and recent migration-lifecycle spans.
    pub fn metrics(&mut self) -> ClientResult<bullfrog_obs::MetricsSnapshot> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(ClientError::Protocol(format!(
                "unexpected metrics reply {other:?}"
            ))),
        }
    }

    /// Requests a graceful server shutdown. The server acknowledges,
    /// then drains every session and syncs its WAL.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected shutdown reply {other:?}"
            ))),
        }
    }

    /// Sends one HA protocol request and decodes the `HA_STATE` reply.
    pub fn ha(&mut self, req: HaReq) -> ClientResult<HaStateReply> {
        match self.round_trip(&Request::Ha(req))? {
            Response::HaState {
                granted,
                epoch,
                role,
                leader,
                lease_ms,
            } => Ok(HaStateReply {
                granted,
                epoch,
                role,
                leader,
                lease_ms,
            }),
            Response::Err {
                retryable,
                code,
                message,
            } => Err(ClientError::Server {
                retryable,
                code,
                message,
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected HA reply {other:?}"
            ))),
        }
    }

    /// Probes the peer's HA state (role, epoch, leader, lease).
    pub fn ha_state(&mut self) -> ClientResult<HaStateReply> {
        self.ha(HaReq::State)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::row;

    /// A source that hands over everything it has per call, like a
    /// socket with the bytes already arrived, and counts the calls.
    struct CountingRead {
        reads: usize,
        bytes: std::io::Cursor<Vec<u8>>,
    }

    impl Read for CountingRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn the_read_side_takes_one_read_for_what_has_arrived() {
        let first = Response::Rows {
            names: vec!["id".into(), "owner".into()],
            rows: vec![row![1, "alice"], row![2, "bob"]],
        };
        let second = Response::Ok { affected: 7 };
        let mut arrived = Vec::new();
        first.encode_into(&mut arrived);
        second.encode_into(&mut arrived);

        let mut reader = read_side(CountingRead {
            reads: 0,
            bytes: std::io::Cursor::new(arrived.clone()),
        });
        // Header and payload of the first response: one read. The
        // second came with it, as a pipelined reply does: no read at all.
        assert_eq!(wire::read_response(&mut reader).unwrap(), Some(first));
        assert_eq!(reader.get_ref().reads, 1);
        assert_eq!(wire::read_response(&mut reader).unwrap(), Some(second));
        assert_eq!(reader.get_ref().reads, 1);

        // Unbuffered, the same bytes cost a read for every header and
        // one for every payload.
        let mut raw = CountingRead {
            reads: 0,
            bytes: std::io::Cursor::new(arrived),
        };
        wire::read_response(&mut raw).unwrap();
        wire::read_response(&mut raw).unwrap();
        assert_eq!(raw.reads, 4);
    }
}
