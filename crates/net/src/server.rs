//! The BullFrog TCP server.
//!
//! [`Server::bind`] takes an [`Arc<Bullfrog>`] and a [`ServerConfig`],
//! binds a listener, and serves BFNET1 connections with a
//! **readiness-driven poller**: parked connections are registered with
//! a single poll thread (epoll via the vendored `polling` shim) and
//! consume no CPU while idle. A connection only claims a worker thread
//! from a bounded dynamic pool while it has bytes to process, so ten
//! thousand mostly-idle connections cost ten thousand sockets, not ten
//! thousand spinning peek loops.
//!
//! Each readiness event drains the socket into a per-connection buffer
//! and executes **every complete frame in order** before re-arming the
//! poller. That gives pipelining for free: a client may write N request
//! frames back-to-back and read N responses afterwards, and responses
//! always come back in request order — an error response occupies its
//! slot in the sequence rather than desynchronizing the stream. A
//! round trip of one statement costs the worker one `read`, one `write`
//! and the re-arm: a read that comes back short has emptied the socket,
//! and responses go out nonblocking, waiting for writability only when
//! the peer's window is full. The
//! engine's locking model still drives each
//! [`Transaction`](bullfrog_txn::Transaction) from a single thread at a
//! time: a connection is processed by at most one worker at once (its
//! state sits behind a mutex), and oneshot poller interest means the
//! poll thread never queues a connection that a worker still owns.
//!
//! `max_connections` is enforced as backpressure at accept time: a
//! connection over the cap is told `server busy` (retryable) and
//! closed — never silently dropped. Accept errors back off
//! exponentially (1ms doubling to 1s) and a persistent run of them
//! stops the server instead of spinning forever; the count is reported
//! as `server.accept_errors` under `STATUS`.
//!
//! Shutdown — via [`Server::shutdown`], dropping the server, or a
//! client's `SHUTDOWN` opcode — is graceful: the listener stops
//! accepting, every session finishes the statement it is executing,
//! open transactions are aborted, worker threads drain, and the WAL is
//! synced. Committed writes are durable when `shutdown` returns;
//! uncommitted ones are gone, which is what a transaction means.
//!
//! If the database was configured with a
//! [`CheckpointPolicy`](bullfrog_engine::CheckpointPolicy), the server
//! also runs the background [`CheckpointScheduler`] for its lifetime
//! and reports its counters under `STATUS`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bullfrog_common::Result;
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::CheckpointScheduler;
use bytes::Bytes;
use polling::{Event, Events, Poller};

use crate::session::{Session, SessionCounters};
use crate::wire::{self, err_code, Request, Response};

/// Granularity of the stop-flag poll in [`Server::wait_shutdown`] (one
/// sleep per server process, not per connection).
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Upper bound on one poller wait; the poll thread also runs the idle
/// sweep at this cadence, so it shrinks under small idle timeouts.
const POLL_WAIT_CAP: Duration = Duration::from_millis(500);

/// A connection's receive buffer starts this small — ten thousand
/// parked connections each hold one — and doubles while reads fill it.
const RECV_MIN: usize = 4 * 1024;

/// The most receive buffer an idle connection keeps between passes; one
/// grown past it by a burst is released once empty.
const RECV_KEEP: usize = 64 * 1024;

/// Per-connection receive buffer high-water mark: one maximum frame plus
/// header and [`RECV_KEEP`] bytes of pipelined follow-on frames. Reaching
/// it is backpressure, not a violation — the worker stops draining, executes
/// the complete frames already buffered (freeing their bytes), then
/// resumes draining, so a fast pipeliner may legally stream any amount
/// in one burst. Sized so a buffer at the mark always holds at least
/// one complete legal frame, which is what guarantees each
/// drain/execute round makes progress.
const MAX_BUFFERED: usize = wire::MAX_FRAME_BYTES + 4 + RECV_KEEP;

/// How long an above-resident worker lingers idle before exiting.
const WORKER_LINGER: Duration = Duration::from_secs(2);

/// Extra workers beyond `max_connections` so pool bookkeeping never
/// deadlocks the last runnable connection behind parked ones.
const WORKER_SLACK: usize = 4;

/// Accept-error backoff bounds and the consecutive-failure budget after
/// which the server stops instead of spinning on a dead listener.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);
const ACCEPT_MAX_CONSECUTIVE: u32 = 32;

/// A DDL action a primary records for its replicas. DDL is not
/// WAL-logged (recovery re-creates the catalog from the caller's
/// schema), so replication carries it out-of-band in a journal; the
/// payloads here are what the journal stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdlEvent {
    /// `CREATE TABLE ...` — the statement text, re-parsed on the replica.
    Create {
        /// Original statement text.
        sql: String,
    },
    /// Migration DDL (`CREATE TABLE ... AS SELECT ...`). `caps` are the
    /// primary's per-statement bitmap tracker dimensions
    /// (`(row_capacity, granule_size)`; `(0, 0)` for hash tracking): the
    /// replica must allocate identically-shaped trackers or the granule
    /// ordinals shipped in the log would not line up.
    Migrate {
        /// Original statement text.
        sql: String,
        /// Primary's tracker dimensions, per plan statement.
        caps: Vec<(u64, u64)>,
    },
    /// `FINALIZE MIGRATION [DROP OLD]` — the statement text.
    Finalize {
        /// Original statement text.
        sql: String,
    },
}

/// Primary-side replication callbacks. Implemented by
/// `bullfrog-repl`'s `ReplicationSender`; kept as a trait here so `net`
/// (which `repl` depends on) never depends back on `repl`.
pub trait ReplicationHooks: Send + Sync {
    /// Runs one DDL statement under the replication DDL-journal lock:
    /// `exec` performs the catalog change and returns the event to
    /// journal; the implementation samples the WAL frontier *before*
    /// calling it (the event's apply point) and appends the event only
    /// if `exec` succeeds. The lock serializes DDL, so journal order
    /// equals catalog-creation order and
    /// [`TableId`](bullfrog_common::TableId)s match on every replica.
    fn journaled_ddl(&self, exec: &mut dyn FnMut() -> Result<DdlEvent>) -> Result<()>;

    /// Encodes a bootstrap snapshot (checkpoint image + DDL journal).
    fn snapshot(&self) -> Result<Bytes>;

    /// Takes over `stream` as a replication subscription: validates
    /// `from_lsn`/`ddl_seq`, answers `OK` or `ERR SNAPSHOT_REQUIRED`
    /// itself, then streams `FRAMES` until the replica disconnects or
    /// `stop()` turns true.
    fn subscribe(
        &self,
        stream: TcpStream,
        from_lsn: u64,
        ddl_seq: u64,
        epoch: u64,
        stop: &dyn Fn() -> bool,
    ) -> std::io::Result<()>;

    /// `repl.*` counters for `STATUS`.
    fn status(&self) -> Vec<(String, i64)>;
}

/// High-availability callbacks. Implemented by `bullfrog-ha`'s member
/// state machine; kept as a trait here so `net` never depends on `ha`.
pub trait HaHooks: Send + Sync {
    /// Answers one `HA` protocol request (lease renew, vote request,
    /// operator promote, state probe) with an `HA_STATE` response.
    fn handle(&self, req: &wire::HaReq) -> Response;

    /// When `Some`, this node must not accept writes or DDL (it is a
    /// fenced ex-leader or a non-leader member); the string names the
    /// current leader for the client's redirect hint.
    fn write_block(&self) -> Option<String>;

    /// `ha.*` counters for `STATUS`.
    fn status(&self) -> Vec<(String, i64)>;
}

/// Marks a server as a read-only replica: sessions accept `SELECT`
/// (and `STATUS`/`CHECKPOINT` plumbing) but reject writes and DDL with
/// a retryable [`err_code::READ_ONLY`] error naming the primary.
#[derive(Clone)]
pub struct ReadOnly {
    /// Primary address, quoted in rejection messages so clients can
    /// redirect.
    pub primary: String,
    /// The replica's apply gate: the log applier holds the write half
    /// around each transaction batch, read sessions hold the read half
    /// per statement — readers never observe a half-applied transaction.
    pub gate: Arc<parking_lot::RwLock<()>>,
    /// Replica-side `repl.*` counters for `STATUS`.
    pub status: Option<StatusFn>,
    /// Flipped to `true` by `Replica::promote()`: existing and new
    /// sessions start accepting writes without a server restart.
    pub writable: Arc<AtomicBool>,
}

/// A pluggable `STATUS` counter source (replica-side `repl.*` pairs).
pub type StatusFn = Arc<dyn Fn() -> Vec<(String, i64)> + Send + Sync>;

impl std::fmt::Debug for ReadOnly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadOnly")
            .field("primary", &self.primary)
            .finish_non_exhaustive()
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Concurrent session cap; further connections get a retryable
    /// `server busy` error. Also bounds the worker pool: at most
    /// `max_connections + 4` threads exist even if every connection is
    /// runnable at once.
    pub max_connections: usize,
    /// Close a connection after this long with no complete request.
    pub idle_timeout: Duration,
    /// Abort (never commit) a statement that ran longer than this.
    pub statement_timeout: Duration,
    /// Worker threads kept alive while idle; the pool grows on demand
    /// above this and shrinks back after a couple of idle seconds.
    pub resident_workers: usize,
    /// Primary-side replication: serve `SUBSCRIBE`/`SNAPSHOT` and
    /// journal DDL through these hooks.
    pub replication: Option<Arc<dyn ReplicationHooks>>,
    /// Replica-side read-only mode.
    pub read_only: Option<ReadOnly>,
    /// High-availability membership: serve the `HA` opcode and gate
    /// writes on leadership.
    pub ha: Option<Arc<dyn HaHooks>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            statement_timeout: Duration::from_secs(10),
            resident_workers: 4,
            replication: None,
            read_only: None,
            ha: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_connections", &self.max_connections)
            .field("idle_timeout", &self.idle_timeout)
            .field("statement_timeout", &self.statement_timeout)
            .field("resident_workers", &self.resident_workers)
            .field("replication", &self.replication.is_some())
            .field("read_only", &self.read_only)
            .field("ha", &self.ha.is_some())
            .finish()
    }
}

/// One parked connection: the socket, its session, and the bytes read
/// so far. At most one worker processes a connection at a time (the
/// state mutex); the poll thread and the idle sweep only touch the
/// atomics.
struct Conn {
    id: usize,
    stream: TcpStream,
    state: Mutex<ConnState>,
    /// Registry-clock µs of the last readiness event or finished pass.
    /// The idle sweep reads it, and a worker picking the connection up
    /// reads the poll thread's stamp to time the hand-off. A statistic:
    /// `Relaxed` throughout, it publishes nothing.
    last_activity: AtomicU64,
    /// Set exactly once by whoever closes the connection; guards the
    /// active-slot release against double decrements.
    closed: AtomicBool,
}

struct ConnState {
    session: Session,
    recv: RecvBuf,
    preamble_ok: bool,
}

/// A connection's receive buffer: `data[head..tail]` is received and
/// not yet consumed, `data[tail..]` is room for the next read. `data`
/// is initialized to its full length once, when it grows, so a read
/// lands in it directly; consuming a frame moves `head`, and the
/// unconsumed remainder moves to the front at most once per pass.
#[derive(Default)]
struct RecvBuf {
    data: Vec<u8>,
    head: usize,
    tail: usize,
}

/// What one [`RecvBuf::fill`] learned about the socket.
enum Fill {
    /// The peer shut down its write side.
    Eof,
    /// The read came back short: the socket is empty for now.
    Drained,
    /// The read filled all the room there was; more may be waiting.
    Filled,
}

impl RecvBuf {
    fn len(&self) -> usize {
        self.tail - self.head
    }

    fn pending(&self) -> &[u8] {
        &self.data[self.head..self.tail]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
    }

    /// One `read` into the free room, doubling the buffer first if it
    /// has none. Callers stop once [`MAX_BUFFERED`] bytes are pending,
    /// so there is always room to make.
    fn fill(&mut self, mut stream: &TcpStream) -> io::Result<Fill> {
        if self.tail == self.data.len() {
            let grown = (self.data.len() * 2).clamp(RECV_MIN, MAX_BUFFERED);
            self.data.resize(grown, 0);
        }
        let room = self.data.len() - self.tail;
        assert!(room > 0, "fill on a full receive buffer would read as EOF");
        let n = stream.read(&mut self.data[self.tail..])?;
        self.tail += n;
        Ok(match n {
            0 => Fill::Eof,
            n if n < room => Fill::Drained,
            _ => Fill::Filled,
        })
    }

    /// Extracts the next complete frame, or `None` if more bytes are
    /// needed. `Err` means the peer announced a frame over the cap — a
    /// protocol violation that closes the connection.
    fn take_frame(&mut self) -> std::result::Result<Option<Bytes>, ()> {
        let pending = self.pending();
        let Some((header, body)) = pending.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > wire::MAX_FRAME_BYTES {
            return Err(());
        }
        let Some(payload) = body.get(..len) else {
            return Ok(None);
        };
        let payload = Bytes::copy_from_slice(payload);
        self.consume(4 + len);
        Ok(Some(payload))
    }

    /// Moves what is left unconsumed to the front so the room behind it
    /// is whole again: once per drain/execute round, however many
    /// frames the round consumed. Usually nothing is left and this only
    /// resets the cursors.
    fn compact(&mut self) {
        if self.head > 0 {
            self.data.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }

    /// Gives back a buffer a burst grew, once it is empty; what a parked
    /// connection holds stays bounded by [`RECV_KEEP`].
    fn release_if_idle(&mut self) {
        if self.len() == 0 && self.data.len() > RECV_KEEP {
            *self = RecvBuf::default();
        }
    }
}

/// Dynamic worker pool bookkeeping: the ready queue plus idle/total
/// thread counts. Workers above `resident_workers` exit after
/// [`WORKER_LINGER`] without work.
#[derive(Default)]
struct PoolState {
    queue: VecDeque<Arc<Conn>>,
    idle: usize,
    total: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// State shared between the accept thread, poll thread, workers, and
/// handles. Counters and histograms are handles into the database's
/// [`bullfrog_obs::Registry`], resolved once at bind time so the per
/// frame hot path never takes the registry lock.
struct Shared {
    bf: Arc<Bullfrog>,
    obs: Arc<bullfrog_obs::Registry>,
    config: ServerConfig,
    local_addr: SocketAddr,
    stop: AtomicBool,
    active: AtomicUsize,
    accepted: Arc<bullfrog_obs::Counter>,
    rejected: Arc<bullfrog_obs::Counter>,
    accept_errors: Arc<bullfrog_obs::Counter>,
    counters: Arc<SessionCounters>,
    /// Statement latency by opcode: the first frame of a processing
    /// pass records into `QUERY`/`EXECUTE`/admin; follow-on frames of
    /// the same pass (a pipelined burst) record into `pipelined` —
    /// their wall clock includes queueing behind earlier frames, which
    /// would poison the per-opcode distributions. Counts still sum to
    /// `sessions.statements`.
    hist_query: Arc<bullfrog_obs::Histogram>,
    hist_execute: Arc<bullfrog_obs::Histogram>,
    hist_pipelined: Arc<bullfrog_obs::Histogram>,
    hist_admin: Arc<bullfrog_obs::Histogram>,
    /// Readiness event → a worker starts on the connection: what the
    /// poller → queue → condvar hand-off costs a statement.
    hist_queue_wait: Arc<bullfrog_obs::Histogram>,
    /// Frames executed per worker pass. 1 is a plain round trip, more a
    /// pipelined burst, 0 a wake-up that found no complete frame.
    hist_frames_per_pass: Arc<bullfrog_obs::Histogram>,
    scheduler: Mutex<Option<CheckpointScheduler>>,
    poller: Poller,
    conns: Mutex<HashMap<usize, Arc<Conn>>>,
    pool: Pool,
    next_conn_id: AtomicUsize,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Requests shutdown and wakes every sleeping thread: the poll
    /// thread via the poller notifier, workers via the condvar, and the
    /// blocking accept thread via a throwaway self-connection.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.poller.notify();
        self.pool.cv.notify_all();
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
    }
}

/// A running server. Dropping it shuts it down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    poll_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `bf`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        bf: Arc<Bullfrog>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let scheduler = CheckpointScheduler::from_config(bf.db());
        let obs = Arc::clone(bf.db().obs());
        let shared = Arc::new(Shared {
            bf,
            config,
            local_addr,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: obs.counter("server.accepted"),
            rejected: obs.counter("server.rejected"),
            accept_errors: obs.counter("server.accept_errors"),
            counters: Arc::new(SessionCounters::new(&obs)),
            hist_query: obs.histogram("net.query_us"),
            hist_execute: obs.histogram("net.execute_us"),
            hist_pipelined: obs.histogram("net.pipelined_us"),
            hist_admin: obs.histogram("net.admin_us"),
            hist_queue_wait: obs.histogram("net.queue_wait_us"),
            hist_frames_per_pass: obs.histogram("net.frames_per_pass"),
            obs,
            scheduler: Mutex::new(scheduler),
            poller: Poller::new()?,
            conns: Mutex::new(HashMap::new()),
            pool: Pool {
                state: Mutex::new(PoolState::default()),
                cv: Condvar::new(),
            },
            next_conn_id: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("bf-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        let poll_shared = Arc::clone(&shared);
        let poll_thread = std::thread::Builder::new()
            .name("bf-net-poll".into())
            .spawn(move || poll_loop(poll_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            poll_thread: Some(poll_thread),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// True once shutdown has been requested (locally or via the
    /// `SHUTDOWN` opcode).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Blocks until shutdown is requested (e.g. by a remote `SHUTDOWN`),
    /// then drains. For server main loops.
    pub fn wait_shutdown(&mut self) {
        while !self.is_stopping() {
            std::thread::sleep(POLL_SLICE);
        }
        self.shutdown();
    }

    /// Gracefully shuts down: stop accepting, drain in-flight work,
    /// close parked connections (aborting their open transactions),
    /// stop the checkpoint scheduler, and sync the WAL so every
    /// committed write is on disk. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.poll_thread.take() {
            let _ = t.join();
        }
        // Close every parked connection. Taking the state lock waits
        // for any worker mid-statement on that connection, so sessions
        // finish the statement they are executing before the abort.
        let parked: Vec<Arc<Conn>> = self
            .shared
            .conns
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect();
        for conn in parked {
            let mut st = conn.state.lock().unwrap();
            close_conn(&conn, &mut st, &self.shared);
        }
        // Drain the worker pool; stopped workers decrement `total`.
        loop {
            if self.shared.pool.state.lock().unwrap().total == 0 {
                break;
            }
            self.shared.pool.cv.notify_all();
            std::thread::sleep(Duration::from_millis(2));
        }
        // Replication subscriptions hold active slots outside the
        // registry; their stop() closures read the flag and exit.
        while self.shared.active.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(mut s) = self.shared.scheduler.lock().unwrap().take() {
            s.stop();
        }
        self.shared.bf.db().wal().sync();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// True for accept errors that say nothing about the listener's health:
/// the peer gave up or the kernel hiccuped, and the very next accept
/// can succeed. These neither count toward the failure budget nor
/// back off.
fn transient_accept_error(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::TimedOut
    )
}

/// Blocking accept loop. Serious errors (EMFILE, ENOMEM, a dead
/// listener) back off exponentially instead of retrying at a fixed
/// beat, and a long unbroken run of them stops the server: better a
/// clean shutdown operators can see than a silent accept-nothing spin.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = ACCEPT_BACKOFF_START;
    let mut consecutive = 0u32;
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_START;
                consecutive = 0;
                if shared.stopping() {
                    // The shutdown wake-up connection (or a client that
                    // raced it); either way we are no longer serving.
                    return;
                }
                shared.accepted.inc();
                admit(stream, &shared);
            }
            Err(e) if transient_accept_error(e.kind()) => continue,
            Err(_) => {
                shared.accept_errors.inc();
                consecutive += 1;
                if consecutive >= ACCEPT_MAX_CONSECUTIVE {
                    shared.request_stop();
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
            }
        }
    }
}

/// Admits one accepted connection: claim an active slot (or answer
/// `server busy`), build its session, and park it with the poller.
fn admit(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Claim a slot before registering so the cap is enforced at accept
    // time, not after poller state already exists.
    let prev = shared.active.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.config.max_connections {
        shared.active.fetch_sub(1, Ordering::AcqRel);
        shared.rejected.inc();
        let busy = Response::Err {
            retryable: true,
            code: err_code::BUSY,
            message: format!(
                "server busy: {} connections (max {})",
                prev, shared.config.max_connections
            ),
        };
        let _ = wire::write_frame(&mut stream, &busy.encode());
        return;
    }
    stream.set_nodelay(true).ok();
    if stream.set_nonblocking(true).is_err() {
        shared.active.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let mut session = Session::new(
        Arc::clone(&shared.bf),
        Arc::clone(&shared.counters),
        shared.config.statement_timeout,
    );
    if let Some(hooks) = &shared.config.replication {
        session = session.with_ddl_hooks(Arc::clone(hooks));
    }
    if let Some(ro) = &shared.config.read_only {
        session = session.with_read_only(ro.clone());
    }
    if let Some(ha) = &shared.config.ha {
        session = session.with_ha(Arc::clone(ha));
    }
    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(Conn {
        id,
        stream,
        state: Mutex::new(ConnState {
            session,
            recv: RecvBuf::default(),
            preamble_ok: false,
        }),
        last_activity: AtomicU64::new(shared.obs.now_us()),
        closed: AtomicBool::new(false),
    });
    shared.conns.lock().unwrap().insert(id, Arc::clone(&conn));
    if shared
        .poller
        .add(&conn.stream, Event::readable(id))
        .is_err()
    {
        shared.conns.lock().unwrap().remove(&id);
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The poll thread: waits for readiness, hands ready connections to the
/// worker pool, and sweeps idle connections. Oneshot poller interest
/// guarantees a connection is never queued twice concurrently.
fn poll_loop(shared: Arc<Shared>) {
    let wait = (shared.config.idle_timeout / 4)
        .max(Duration::from_millis(10))
        .min(POLL_WAIT_CAP);
    let mut events = Events::new();
    let mut last_sweep = Instant::now();
    while !shared.stopping() {
        events.clear();
        if shared.poller.wait(&mut events, Some(wait)).is_err() {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        let now = shared.obs.now_us();
        for ev in events.iter() {
            let conn = shared.conns.lock().unwrap().get(&ev.key).cloned();
            if let Some(conn) = conn {
                conn.last_activity.store(now, Ordering::Relaxed);
                enqueue(&shared, conn);
            }
        }
        // Sweeping walks the whole registry, so a busy poll loop over a
        // large parked herd must not pay that O(connections) on every
        // wakeup; `wait` is the sweep's precision anyway.
        if last_sweep.elapsed() >= wait {
            sweep_idle(&shared);
            last_sweep = Instant::now();
        }
    }
}

/// Closes connections that have gone `idle_timeout` without activity.
/// `try_lock` skips connections a worker currently owns — those are by
/// definition not idle.
fn sweep_idle(shared: &Arc<Shared>) {
    let now = shared.obs.now_us();
    let parked: Vec<Arc<Conn>> = shared.conns.lock().unwrap().values().cloned().collect();
    for conn in parked {
        let idle = now.saturating_sub(conn.last_activity.load(Ordering::Relaxed));
        if Duration::from_micros(idle) < shared.config.idle_timeout {
            continue;
        }
        if let Ok(mut st) = conn.state.try_lock() {
            close_conn(&conn, &mut st, shared);
        }
    }
}

/// Queues a ready connection for a worker, growing the pool when every
/// worker is busy and the cap (`max_connections + slack`) allows. The
/// growth matters for liveness, not just latency: under 2PL a parked
/// session can hold locks a runnable one needs, so the pool must be
/// able to run every admitted connection at once in the worst case.
fn enqueue(shared: &Arc<Shared>, conn: Arc<Conn>) {
    let cap = shared.config.max_connections + WORKER_SLACK;
    let mut pool = shared.pool.state.lock().unwrap();
    pool.queue.push_back(conn);
    if pool.idle == 0 && pool.total < cap {
        pool.total += 1;
        drop(pool);
        let worker_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("bf-net-worker".into())
            .spawn(move || worker_loop(worker_shared));
        if spawned.is_err() {
            shared.pool.state.lock().unwrap().total -= 1;
        }
    } else {
        // Unlock before waking: the woken worker's first act is to take
        // this lock, and it may run before this thread's next line.
        drop(pool);
        shared.pool.cv.notify_one();
    }
}

/// One pool worker: pop a ready connection, process it, repeat. Workers
/// above the resident count exit after lingering idle; resident ones
/// stay for the server's lifetime.
fn worker_loop(shared: Arc<Shared>) {
    let mut tx = Outbox::default();
    let mut pool = shared.pool.state.lock().unwrap();
    loop {
        if let Some(conn) = pool.queue.pop_front() {
            drop(pool);
            process_conn(&conn, &shared, &mut tx);
            tx.reset();
            pool = shared.pool.state.lock().unwrap();
            continue;
        }
        if shared.stopping() {
            pool.total -= 1;
            return;
        }
        pool.idle += 1;
        let (guard, timeout) = shared.pool.cv.wait_timeout(pool, WORKER_LINGER).unwrap();
        pool = guard;
        pool.idle -= 1;
        if timeout.timed_out()
            && pool.queue.is_empty()
            && pool.total > shared.config.resident_workers
        {
            pool.total -= 1;
            return;
        }
    }
}

/// Closes a connection exactly once: abort its open transaction, drop
/// the poller registration, remove it from the registry, and release
/// the active slot. Callers hold the state lock, which serializes the
/// close against any worker mid-statement.
fn close_conn(conn: &Conn, st: &mut MutexGuard<'_, ConnState>, shared: &Shared) {
    if conn.closed.swap(true, Ordering::AcqRel) {
        return;
    }
    st.session.abort_open();
    let _ = shared.poller.delete(&conn.stream);
    shared.conns.lock().unwrap().remove(&conn.id);
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    shared.active.fetch_sub(1, Ordering::AcqRel);
}

/// Re-arms oneshot poller interest after a processing pass. Interest is
/// level-triggered, so bytes that arrived while the worker held the
/// connection surface as an immediate new event.
fn rearm(conn: &Conn, st: &mut MutexGuard<'_, ConnState>, shared: &Shared) {
    if shared
        .poller
        .modify(&conn.stream, Event::readable(conn.id))
        .is_err()
    {
        close_conn(conn, st, shared);
    }
}

/// Responses coalesced past this size flush mid-batch, bounding the
/// worker's buffer while a long pipeline drains.
const RESPOND_COALESCE_MAX: usize = 256 << 10;

/// How long a response write may make no progress — the peer's receive
/// window stays full — before the connection is closed, so a client
/// that stops reading cannot pin a worker forever.
const WRITE_STALL_BOUND: Duration = Duration::from_secs(5);

/// A worker's send side, kept across passes: the buffer responses are
/// encoded into, and what it takes to wait on a full socket.
#[derive(Default)]
struct Outbox {
    /// Encoded response frames not yet written. Empty between passes.
    out: Vec<u8>,
    /// A poller of the worker's own for writability waits, made the
    /// first time a peer falls behind (most workers never need one).
    wait: Option<(Poller, Events)>,
}

impl Outbox {
    /// Writes out every buffered response frame; `out` is empty after,
    /// whatever the outcome.
    fn flush(&mut self, stream: &TcpStream) -> io::Result<()> {
        send_all(stream, &mut self.out, &mut self.wait)
    }

    /// Readies the outbox for the next connection: nothing one
    /// connection left unsent may reach another, and a buffer a large
    /// result grew is given back.
    fn reset(&mut self) {
        self.out.clear();
        if self.out.capacity() > 2 * RESPOND_COALESCE_MAX {
            self.out = Vec::new();
        }
    }
}

/// Writes all of `out` to the nonblocking `stream` and clears it. The
/// common case is one `write` that takes everything; only when the
/// socket's send buffer is full does the worker wait for writability,
/// at most [`WRITE_STALL_BOUND`] per stall.
fn send_all(
    mut stream: &TcpStream,
    out: &mut Vec<u8>,
    wait: &mut Option<(Poller, Events)>,
) -> io::Result<()> {
    let mut sent = 0;
    let result = loop {
        if sent == out.len() {
            break Ok(());
        }
        match stream.write(&out[sent..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Err(e) = wait_writable(stream, wait) {
                    break Err(e);
                }
            }
            Err(e) => break Err(e),
        }
    };
    out.clear();
    result
}

/// Blocks until `stream` accepts bytes again, or fails with `TimedOut`
/// after [`WRITE_STALL_BOUND`]. The connection's registration with the
/// server's poller is disarmed while a worker owns it, so the wait uses
/// the worker's own poller; a hung-up peer reports writable and the
/// next `write` returns its error.
fn wait_writable(stream: &TcpStream, wait: &mut Option<(Poller, Events)>) -> io::Result<()> {
    let (poller, events) = match wait {
        Some(w) => w,
        None => wait.insert((Poller::new()?, Events::new())),
    };
    poller.add(stream, Event::writable(0))?;
    events.clear();
    let waited = poller.wait(events, Some(WRITE_STALL_BOUND));
    let _ = poller.delete(stream);
    match waited? {
        0 => Err(io::ErrorKind::TimedOut.into()),
        _ => Ok(()),
    }
}

/// One processing pass over a ready connection: drain the socket,
/// validate the preamble, then execute every complete frame **in
/// order**, emitting responses in that same order (coalesced into
/// batched writes). That ordering is the pipelining contract: N
/// requests written back-to-back produce N responses in the same
/// order, and a failed statement produces an `ERR` in its slot without
/// desynchronizing the stream.
///
/// The syscalls of a pass that finds one small request: one `read`
/// (it comes back short, which on a stream socket means the socket is
/// empty — no second `read` to be told `EAGAIN`), one `write`, and the
/// poller re-arm. Interest is level-triggered, so bytes that land after
/// the short read raise a new event the moment the pass re-arms.
///
/// Draining and executing alternate: once the receive buffer reaches
/// [`MAX_BUFFERED`], buffered frames are executed (freeing their
/// bytes) before draining resumes, so a burst of any size is absorbed
/// with bounded memory. The only framing offense that closes the
/// connection is a single frame announcing more than
/// [`wire::MAX_FRAME_BYTES`]. EOF means "no more requests", not abort:
/// frames already buffered still execute and their responses still
/// flush before the connection closes.
fn process_conn(conn: &Arc<Conn>, shared: &Arc<Shared>, tx: &mut Outbox) {
    if conn.closed.load(Ordering::Acquire) {
        return;
    }
    let mut st = conn.state.lock().unwrap();
    if conn.closed.load(Ordering::Acquire) {
        return;
    }
    let ready_at = conn.last_activity.load(Ordering::Relaxed);
    shared
        .hist_queue_wait
        .record(shared.obs.now_us().saturating_sub(ready_at));

    let mut frames = 0u64;
    let mut eof = false;
    loop {
        // Drain phase: pull bytes until the socket is dry, the peer is
        // done writing, or the buffer holds a full burst's worth;
        // nonblocking reads never stall the worker.
        let mut dry = false;
        while st.recv.len() < MAX_BUFFERED {
            match st.recv.fill(&conn.stream) {
                Ok(Fill::Eof) => eof = true,
                Ok(Fill::Drained) => dry = true,
                Ok(Fill::Filled) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => dry = true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let _ = tx.flush(&conn.stream);
                    return close_conn(conn, &mut st, shared);
                }
            }
            break;
        }

        // Preamble first: reject strangers before touching the database.
        if !st.preamble_ok {
            let got = st.recv.pending();
            if got.len() < wire::PREAMBLE.len() {
                if eof {
                    return close_conn(conn, &mut st, shared);
                }
                return rearm(conn, &mut st, shared);
            }
            if got[..wire::PREAMBLE.len()] != wire::PREAMBLE {
                return close_conn(conn, &mut st, shared);
            }
            st.recv.consume(wire::PREAMBLE.len());
            st.preamble_ok = true;
        }

        if !execute_buffered(conn, shared, &mut st, tx, &mut frames) {
            return;
        }
        st.recv.compact();
        if eof || dry {
            break;
        }
        // Neither dry nor EOF: the buffer hit its high-water mark with
        // the socket still readable. Executing just freed at least one
        // frame's bytes, so the next drain round makes progress.
    }
    shared.hist_frames_per_pass.record(frames);
    // After EOF the peer sends no more requests, but every response
    // already owed goes out before the connection closes.
    if tx.flush(&conn.stream).is_err() || eof {
        return close_conn(conn, &mut st, shared);
    }
    st.recv.release_if_idle();
    conn.last_activity
        .store(shared.obs.now_us(), Ordering::Relaxed);
    rearm(conn, &mut st, shared);
}

/// Execute phase of [`process_conn`]: runs every complete buffered
/// frame in order, coalescing responses into the outbox. Returns
/// `false` if the connection was closed or handed off (the caller must
/// return without touching it again), `true` if the round completed and
/// the connection is still owned by the caller. `frames` counts the
/// pass's frames across rounds.
fn execute_buffered(
    conn: &Arc<Conn>,
    shared: &Arc<Shared>,
    st: &mut MutexGuard<'_, ConnState>,
    tx: &mut Outbox,
    frames: &mut u64,
) -> bool {
    loop {
        // A shutdown requested elsewhere stops this connection between
        // frames; the statement that was already running has finished.
        if shared.stopping() {
            let _ = tx.flush(&conn.stream);
            close_conn(conn, st, shared);
            return false;
        }
        let payload = match st.recv.take_frame() {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(()) => {
                let _ = tx.flush(&conn.stream);
                close_conn(conn, st, shared);
                return false;
            }
        };
        // Frames executed after the first in this pass arrived
        // pipelined; their latency goes to `net.pipelined_us` (see
        // `Shared`).
        *frames += 1;
        let nth_frame = *frames;
        let frame_started = Instant::now();
        let response = match Request::decode(payload) {
            Err(e) => Response::from_error(&e),
            Ok(Request::Query(sql)) => {
                let r = st.session.execute(&sql);
                record_stmt(shared, &shared.hist_query, nth_frame, frame_started);
                r
            }
            Ok(Request::Prepare { id, sql }) => {
                let r = st.session.prepare(id, &sql);
                record_stmt(shared, &shared.hist_admin, nth_frame, frame_started);
                r
            }
            Ok(Request::Execute { id, params }) => {
                let r = st.session.execute_prepared(id, &params);
                record_stmt(shared, &shared.hist_execute, nth_frame, frame_started);
                r
            }
            Ok(Request::CloseStmt { id }) => {
                let r = st.session.close_stmt(id);
                record_stmt(shared, &shared.hist_admin, nth_frame, frame_started);
                r
            }
            Ok(Request::Checkpoint) => match shared.bf.db().checkpoint() {
                Ok(stats) => Response::Ok {
                    affected: stats.absorbed_records as u64,
                },
                Err(e) => Response::from_error(&e),
            },
            Ok(Request::Status) => {
                // STATUS encodes straight into the output buffer from
                // interned keys — the common poll opcode allocates no
                // key strings and builds no `Response`.
                wire::append_stats(&mut tx.out, &status_pairs(shared));
                if tx.out.len() >= RESPOND_COALESCE_MAX && tx.flush(&conn.stream).is_err() {
                    close_conn(conn, st, shared);
                    return false;
                }
                continue;
            }
            Ok(Request::Metrics) => Response::Metrics(metrics_snapshot(shared)),
            Ok(Request::Shutdown) => {
                Response::Ok { affected: 0 }.encode_into(&mut tx.out);
                let _ = tx.flush(&conn.stream);
                close_conn(conn, st, shared);
                shared.request_stop();
                return false;
            }
            Ok(Request::Subscribe {
                from_lsn,
                ddl_seq,
                epoch,
            }) => match &shared.config.replication {
                Some(hooks) => {
                    // Hand the socket to the replication sender; it owns
                    // framing from here until the replica disconnects or
                    // the server stops. The active slot stays claimed,
                    // so shutdown drains subscriptions like any session.
                    // Responses owed for earlier pipelined frames go out
                    // first, before the sender takes over framing.
                    if tx.flush(&conn.stream).is_err() {
                        close_conn(conn, st, shared);
                        return false;
                    }
                    subscribe_handoff(conn, st, shared, hooks, from_lsn, ddl_seq, epoch);
                    return false;
                }
                None => Response::Err {
                    retryable: false,
                    code: err_code::GENERAL,
                    message: "replication is not enabled on this server".into(),
                },
            },
            Ok(Request::Snapshot) => match &shared.config.replication {
                Some(hooks) => match hooks.snapshot() {
                    Ok(payload) => Response::Snapshot { payload },
                    Err(e) => Response::from_error(&e),
                },
                None => Response::Err {
                    retryable: false,
                    code: err_code::GENERAL,
                    message: "replication is not enabled on this server".into(),
                },
            },
            Ok(Request::ReplAck { .. }) => Response::Err {
                retryable: false,
                code: err_code::GENERAL,
                message: "REPL_ACK is only valid on a subscribed connection".into(),
            },
            Ok(Request::Ha(req)) => match &shared.config.ha {
                Some(hooks) => hooks.handle(&req),
                None => Response::Err {
                    retryable: false,
                    code: err_code::GENERAL,
                    message: "high availability is not enabled on this server".into(),
                },
            },
        };
        // The response is encoded once, straight into the outbox, which
        // goes to the socket once it passes the coalescing cap or the
        // pass ends. A result set over the frame cap is shipped chunk by
        // chunk as it is encoded (a row over the cap becomes an ERR
        // response), so the outbox never holds more than one chunk.
        let Outbox { out, wait } = &mut *tx;
        let mut wrote =
            wire::append_response(out, &response, |out| send_all(&conn.stream, out, wait));
        if wrote.is_ok() && tx.out.len() >= RESPOND_COALESCE_MAX {
            wrote = tx.flush(&conn.stream);
        }
        if wrote.is_err() {
            close_conn(conn, st, shared);
            return false;
        }
    }
    true
}

/// Records one statement frame's service latency: the first frame of a
/// pass into its opcode histogram, pipelined followers into
/// `net.pipelined_us` — their wall clock includes queueing behind the
/// frames ahead of them, which must not skew the opcode distributions.
fn record_stmt(shared: &Shared, hist: &bullfrog_obs::Histogram, nth: u64, started: Instant) {
    let h = if nth > 1 {
        &*shared.hist_pipelined
    } else {
        hist
    };
    h.record_micros(started.elapsed());
}

/// The `METRICS` payload: the registry's counters, histograms and spans,
/// with [`gauges`] as its gauge section.
fn metrics_snapshot(shared: &Shared) -> bullfrog_obs::MetricsSnapshot {
    let mut snap = shared.obs.snapshot();
    snap.gauges = gauges(shared)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    snap.gauges.sort();
    snap
}

/// Converts a parked connection into a replication subscription: the
/// poller and registry forget it, a dedicated thread runs the sender's
/// blocking stream loop, and the active slot is released only when that
/// loop ends — shutdown drains subscriptions like any session.
fn subscribe_handoff(
    conn: &Arc<Conn>,
    st: &mut MutexGuard<'_, ConnState>,
    shared: &Arc<Shared>,
    hooks: &Arc<dyn ReplicationHooks>,
    from_lsn: u64,
    ddl_seq: u64,
    epoch: u64,
) {
    st.session.abort_open();
    if conn.closed.swap(true, Ordering::AcqRel) {
        return;
    }
    let _ = shared.poller.delete(&conn.stream);
    shared.conns.lock().unwrap().remove(&conn.id);
    // The sender writes in blocking mode; bound its writes like a
    // worker's, so a replica that stops reading cannot pin it.
    let stream = conn.stream.try_clone().and_then(|s| {
        s.set_nonblocking(false)?;
        s.set_write_timeout(Some(WRITE_STALL_BOUND))?;
        Ok(s)
    });
    let stream = match stream {
        Ok(s) => s,
        Err(_) => {
            shared.active.fetch_sub(1, Ordering::AcqRel);
            return;
        }
    };
    let hooks = Arc::clone(hooks);
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("bf-net-subscribe".into())
        .spawn(move || {
            let stop = || thread_shared.stopping();
            let _ = hooks.subscribe(stream, from_lsn, ddl_seq, epoch, &stop);
            thread_shared.active.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The `STATUS` report: every registry counter, then [`gauges`] — the
/// same numbers `METRICS` serves, without the histograms and spans.
fn status_pairs(shared: &Shared) -> Vec<(&'static str, i64)> {
    let counters = shared.obs.counters().into_iter();
    let mut out: Vec<(&'static str, i64)> = counters.map(|(k, v)| (k, v as i64)).collect();
    out.extend(gauges(shared));
    out
}

/// Every point-in-time value this server reports, computed now: server
/// and pool, engine mode and MVCC, migration progress, WAL shape, the
/// checkpoint scheduler, the hooks' `status()` pairs and the sync gate.
/// Event counters are not here — they live in the registry. Keys are
/// `&'static` (literals, or interned once on the registry), so serving
/// `STATUS` allocates no key strings.
fn gauges(shared: &Shared) -> Vec<(&'static str, i64)> {
    let mut out: Vec<(&'static str, i64)> = Vec::with_capacity(64);
    let mut push = |k: &'static str, v: i64| out.push((k, v));

    push(
        "server.active_sessions",
        shared.active.load(Ordering::Acquire) as i64,
    );
    push(
        "server.parked_connections",
        shared.conns.lock().unwrap().len() as i64,
    );
    {
        let pool = shared.pool.state.lock().unwrap();
        push("server.pool_workers", pool.total as i64);
        push("server.pool_idle", pool.idle as i64);
    }

    // Engine mode and MVCC health. `engine.mode` is 0 under 2PL and 1
    // under snapshot isolation; the mvcc.* gauges are always reported
    // (all zero under 2PL) so pollers need not branch on the mode.
    let db = shared.bf.db();
    push("engine.mode", i64::from(db.config().mode.is_snapshot()));
    push("mvcc.versions", db.version_count() as i64);
    push("mvcc.gc_horizon", db.wal().oracle().gc_horizon() as i64);
    push("mvcc.gc_reclaimed", db.gc_reclaimed() as i64);
    // Resident memory by layer: the heaps' encoded tuples.
    let heap = db.heap_held();
    push("mem.heap_rows", heap.tuples as i64);
    push("mem.heap_bytes", heap.bytes as i64);

    match shared.bf.progress() {
        Some(p) => {
            push("migration.active", 1);
            push("migration.complete", i64::from(p.complete));
            push("migration.statements", p.statements as i64);
            push(
                "migration.statements_complete",
                p.statements_complete as i64,
            );
            push(
                "migration.granules_migrated",
                p.stats.granules_migrated as i64,
            );
            push("migration.rows_migrated", p.stats.rows_migrated as i64);
            push("migration.txns", p.stats.migration_txns as i64);
            push("migration.aborts", p.stats.migration_aborts as i64);
            push("migration.skips", p.stats.skips as i64);
            push("migration.waits", p.stats.waits as i64);
            push("migration.rows_dropped", p.stats.rows_dropped as i64);
            push("migration.conflict_skips", p.stats.conflict_skips as i64);
            push(
                "migration.background_granules",
                p.stats.background_granules as i64,
            );
            push("migration.granules_done", p.granules_done as i64);
            push("migration.granules_total", p.granules_total as i64);
        }
        None => push("migration.active", 0),
    }

    let wal = db.wal();
    push("wal.log_len", wal.len() as i64);
    push("wal.resident_records", wal.resident_records() as i64);
    push("wal.resident_bytes", wal.resident_bytes() as i64);
    push("wal.durable_lsn", wal.durable_lsn() as i64);

    if let Some(s) = shared.scheduler.lock().unwrap().as_ref() {
        let st = s.status();
        push("scheduler.enabled", 1);
        push("scheduler.checkpoints", st.checkpoints as i64);
        push("scheduler.errors", st.errors as i64);
        push("scheduler.last_cut_lsn", st.last_cut_lsn as i64);
        push("scheduler.last_absorbed", st.last_absorbed as i64);
    } else {
        push("scheduler.enabled", 0);
    }

    // Replication: the primary's sender hooks or the replica's local
    // counters, whichever side this server is. Hook keys are interned —
    // a lookup per key on repeat requests, an allocation only the first
    // time a name appears.
    let mut extend = |pairs: Vec<(String, i64)>| {
        out.extend(pairs.into_iter().map(|(k, v)| (shared.obs.intern(&k), v)));
    };
    if let Some(hooks) = &shared.config.replication {
        extend(hooks.status());
    }
    if let Some(f) = shared
        .config
        .read_only
        .as_ref()
        .and_then(|ro| ro.status.as_ref())
    {
        extend(f());
    }
    if let Some(ha) = &shared.config.ha {
        extend(ha.status());
    }

    // Synchronous-replication gate gauges; all zero when SYNC_REPLICAS
    // is off, so pollers need not branch on the HA configuration.
    let gate = wal.sync_gate();
    out.extend([
        ("repl.sync_replicas", gate.required() as i64),
        ("repl.sync_peers", gate.peer_count() as i64),
        ("repl.sync_replicated_lsn", gate.replicated_lsn() as i64),
        ("repl.sync_degraded", gate.degraded_commits() as i64),
        ("repl.sync_fenced", gate.fenced_commits() as i64),
        ("repl.fenced", i64::from(gate.is_fenced())),
    ]);
    out
}
