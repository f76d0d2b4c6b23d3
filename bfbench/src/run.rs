//! One benchmark run: set-up, the load generator, the mid-run flip or
//! checkpoints, tear-down. Everything measured lands in [`RunData`];
//! `report` turns that into metrics.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{ColumnDef, DataType, Row, TableSchema, Value};
use bullfrog_core::{Bullfrog, MigrationStatsSnapshot};
use bullfrog_engine::Database;
use bullfrog_net::wire::{Request, Response};
use bullfrog_net::{Client, Server};
use bullfrog_obs::MetricsSnapshot;
use bullfrog_tpcc::{Scenario, TpccRng, TpccScale, TxnKind};
use bullfrog_txn::{WalOptions, WalStatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::conn::{Conn, StmtError, StmtResult};
use crate::pinned::{self, Phases};
use crate::record::{ClientLog, TxnSample};
use crate::tpcc_wire::{self, kind_index, Tpcc};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpccSteady,
    TpccSplitFlip,
    TpccJoinFlip,
    TransferDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpccSteady,
        Workload::TpccSplitFlip,
        Workload::TpccJoinFlip,
        Workload::TransferDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccSteady => "tpcc_steady",
            Workload::TpccSplitFlip => "tpcc_split_flip",
            Workload::TpccJoinFlip => "tpcc_join_flip",
            Workload::TransferDurable => "transfer_durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The evolution submitted mid-run.
    pub fn scenario(self) -> Option<Scenario> {
        match self {
            Workload::TpccSplitFlip => Some(Scenario::CustomerSplit),
            Workload::TpccJoinFlip => Some(Scenario::JoinDenorm),
            _ => None,
        }
    }

    pub fn is_tpcc(self) -> bool {
        self != Workload::TransferDurable
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: TpccScale,
}

/// A loaded database behind a listening server, with the generator's
/// connections prepared.
pub struct Env {
    pub db: Arc<Database>,
    pub bf: Arc<Bullfrog>,
    pub server: Server,
    pub conns: Vec<Conn>,
    pub admin: Client,
    /// WAL file of `transfer_durable`.
    pub wal_path: Option<PathBuf>,
}

impl Env {
    /// Closes the connections, drains the server and joins the
    /// background migration threads, so nothing of this run outlives it.
    pub fn stop(self) -> Arc<Database> {
        let Env {
            db,
            bf,
            mut server,
            conns,
            admin,
            ..
        } = self;
        drop(conns);
        drop(admin);
        server.shutdown();
        bf.shutdown_background();
        db
    }
}

pub fn accounts_schema() -> TableSchema {
    TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("balance", DataType::Int),
        ],
    )
    .with_primary_key(&["id"])
}

/// Prepared-statement id of `transfer_durable`'s one statement.
const TRANSFER_STMT: u64 = 1;
const TRANSFER_SQL: &str = "UPDATE accounts SET balance = balance + ? WHERE id = ?";

fn setup(opts: &Options, phases: &Phases, scratch: &Path, nth: usize) -> Result<Env, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (db, wal_path) = if opts.workload.is_tpcc() {
        let db = Database::with_config(pinned::db_config());
        bullfrog_tpcc::load(&db, &opts.scale).map_err(|e| err(&e))?;
        (db, None)
    } else {
        let path = scratch.join(format!("transfer-{nth}.wal"));
        let db = Database::with_wal_file_opts(pinned::db_config(), &path, WalOptions::default())
            .map_err(|e| err(&e))?;
        db.create_table(accounts_schema()).map_err(|e| err(&e))?;
        // Logged inserts: recovery must be able to rebuild the table
        // from the files alone.
        db.with_txn(|txn| {
            for id in 0..pinned::ACCOUNTS {
                let row = Row(vec![Value::Int(id), Value::Int(pinned::OPENING_BALANCE)]);
                db.insert(txn, "accounts", row)?;
            }
            Ok(())
        })
        .map_err(|e| err(&e))?;
        (db, Some(path))
    };
    let db = Arc::new(db);
    let bf = Arc::new(Bullfrog::with_config(
        Arc::clone(&db),
        pinned::bullfrog_config(phases),
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&bf), pinned::server_config())
        .map_err(|e| err(&e))?;
    let addr: SocketAddr = server.local_addr();
    let mut conns = Vec::new();
    for _ in 0..pinned::CLIENTS {
        // Readiness is the connect succeeding; the listener is bound
        // before `bind` returns.
        let mut conn = Conn::connect(addr).map_err(|e| err(&e))?;
        if opts.workload.is_tpcc() {
            tpcc_wire::prepare_all(&mut conn).map_err(|e| err(&e))?;
        } else {
            conn.prepare(TRANSFER_STMT, TRANSFER_SQL)
                .map_err(|e| err(&e))?;
        }
        conns.push(conn);
    }
    let admin = Client::connect(addr).map_err(|e| err(&e))?;
    Ok(Env {
        db,
        bf,
        server,
        conns,
        admin,
        wal_path,
    })
}

/// How one drawn transaction ended, after its retries.
pub struct Attempt {
    pub kind: u8,
    pub retries: u8,
    pub ok: bool,
}

/// Failure messages kept for the record; the count is in the samples.
const KEPT_FAILURES: usize = 5;

struct TpccLoad {
    tpcc: Arc<Tpcc>,
    rng: TpccRng,
    flipped: Arc<AtomicBool>,
    denorm_rows: u64,
    failures: Vec<String>,
}

impl TpccLoad {
    fn next(&mut self, conn: &mut Conn, log: &mut ClientLog, seq: u64) -> StmtResult<Attempt> {
        let kind = TxnKind::pick(&mut self.rng);
        let params = self.tpcc.params(&mut self.rng, kind, seq as i64);
        let mut attempt = Attempt {
            kind: kind_index(kind),
            retries: 0,
            ok: true,
        };
        loop {
            let variant = self.tpcc.variant(self.flipped.load(Ordering::Acquire));
            let (retryable, message) = match self.tpcc.run(conn, log, variant, &params) {
                Ok(done) => {
                    self.denorm_rows += done.denorm_rows;
                    return Ok(attempt);
                }
                Err(StmtError::Dead(m)) => return Err(StmtError::Dead(m)),
                Err(StmtError::Server { retryable, message }) => (retryable, message),
            };
            // A transaction caught by the flip ran against tables that
            // were retired under it: re-run it in the new form once the
            // flip is announced.
            let flip_raced = message.contains("retired") || message.contains("frozen");
            if flip_raced {
                let deadline = Instant::now() + Duration::from_secs(2);
                while !self.flipped.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            if !(retryable || flip_raced) || attempt.retries == pinned::MAX_RETRIES {
                if self.failures.len() < KEPT_FAILURES {
                    self.failures.push(format!("{kind:?}: {message}"));
                }
                attempt.ok = false;
                return Ok(attempt);
            }
            attempt.retries += 1;
        }
    }
}

/// `transfer_durable`'s client: moves 1 to 10 units between two
/// distinct uniform accounts, as one `BEGIN / UPDATE / UPDATE / COMMIT`
/// burst, and keeps the ledger of what the server acknowledged.
struct TransferLoad {
    rng: StdRng,
    /// Net acknowledged change per account.
    ledger: Vec<i64>,
    failures: Vec<String>,
}

impl TransferLoad {
    fn next(&mut self, conn: &mut Conn, log: &mut ClientLog, _seq: u64) -> StmtResult<Attempt> {
        let a = self.rng.gen_range(0..pinned::ACCOUNTS);
        let mut b = self.rng.gen_range(0..pinned::ACCOUNTS - 1);
        if b >= a {
            b += 1;
        }
        let amount = self.rng.gen_range(1..=10i64);
        // Lower id first: transfers then lock in one global order and
        // cannot deadlock each other.
        let moves = if a < b {
            [(a, -amount), (b, amount)]
        } else {
            [(b, amount), (a, -amount)]
        };
        let update = |(id, delta): (i64, i64)| Request::Execute {
            id: TRANSFER_STMT,
            params: Row(vec![Value::Int(delta), Value::Int(id)]),
        };
        let burst = [
            Request::Query("BEGIN".into()),
            update(moves[0]),
            update(moves[1]),
            Request::Query("COMMIT".into()),
        ];
        let mut attempt = Attempt {
            kind: 0,
            retries: 0,
            ok: true,
        };
        loop {
            let replies = log.stmt(0, || conn.burst(&burst))?;
            if self.apply(&moves, &replies) {
                return Ok(attempt);
            }
            if attempt.retries == pinned::MAX_RETRIES {
                attempt.ok = false;
                return Ok(attempt);
            }
            attempt.retries += 1;
        }
    }
}

impl TransferLoad {
    /// Books what the server acknowledged, following its session rules:
    /// a failed statement aborts the open transaction, and a statement
    /// outside one commits by itself. Returns whether the burst
    /// committed as a whole.
    fn apply(&mut self, moves: &[(i64, i64); 2], replies: &[Response]) -> bool {
        let ok = |r: &Response| !matches!(r, Response::Err { .. });
        let mut in_txn = ok(&replies[0]);
        let mut pending: Vec<(i64, i64)> = Vec::new();
        for (mv, reply) in moves.iter().zip(&replies[1..3]) {
            match reply {
                Response::Ok { affected: 1 } if in_txn => pending.push(*mv),
                Response::Ok { affected: 1 } => self.ledger[mv.0 as usize] += mv.1,
                _ => {
                    in_txn = false;
                    pending.clear();
                }
            }
        }
        let committed = in_txn && ok(&replies[3]);
        if committed {
            for (id, delta) in pending {
                self.ledger[id as usize] += delta;
            }
        } else if self.failures.len() < KEPT_FAILURES {
            self.failures
                .push(format!("transfer burst broke: {replies:?}"));
        }
        committed
    }
}

/// Everything one run measured.
pub struct RunData {
    pub setup_s: Vec<f64>,
    pub logs: Vec<ClientLog>,
    /// Start and end of the measured window, µs since the epoch.
    pub warm_us: u64,
    pub end_us: u64,
    /// `submit_migration` return and `migration_complete()`, flip runs.
    pub submit_us: Option<u64>,
    pub complete_us: Option<u64>,
    /// `CHECKPOINT` calls as (start, end).
    pub checkpoints: Vec<(u64, u64)>,
    pub obs_before: MetricsSnapshot,
    pub obs_after: MetricsSnapshot,
    pub wal_before: WalStatsSnapshot,
    pub wal_after: WalStatsSnapshot,
    /// Read when the window closes: the gate and the probes that follow
    /// allocate for themselves.
    pub peak_rss_mb: f64,
    pub migration: Option<MigrationStatsSnapshot>,
    /// `orderline_stock` rows committed by post-flip NewOrders.
    pub denorm_rows: u64,
    /// Net acknowledged change per account (`transfer_durable`).
    pub ledger: Vec<i64>,
    pub failures: Vec<String>,
}

fn sleep_until(epoch: Instant, at_us: u64) {
    let target = epoch + Duration::from_micros(at_us);
    if let Some(d) = target.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// A client's transaction source: draws the next transaction from its
/// seeded stream and runs it to the end.
enum Load {
    Tpcc(TpccLoad),
    Transfer(TransferLoad),
}

impl Load {
    fn next(&mut self, conn: &mut Conn, log: &mut ClientLog, seq: u64) -> StmtResult<Attempt> {
        match self {
            Load::Tpcc(l) => l.next(conn, log, seq),
            Load::Transfer(l) => l.next(conn, log, seq),
        }
    }
}

/// One client thread, a closed loop: the next transaction starts when
/// the previous one ends, until the measured window is over.
fn client_loop(
    load: &mut Load,
    conn: &mut Conn,
    log: &mut ClientLog,
    end_us: u64,
    trace: bool,
) -> StmtResult<()> {
    for seq in 0u64.. {
        let start_us = log.now_us();
        if start_us >= end_us {
            break;
        }
        // Tracing alternates by second so one run yields traced and
        // untraced transactions under the same conditions.
        log.tracing = trace && (start_us / 1_000_000) % 2 == 1;
        let attempt = load.next(conn, log, seq)?;
        let end = log.now_us();
        log.samples.push(TxnSample {
            kind: attempt.kind,
            start_us,
            end_us: end,
            retries: attempt.retries,
            ok: attempt.ok,
            traced: log.tracing,
        });
    }
    Ok(())
}

/// Sets up [`pinned::SETUPS`] times (timing each, keeping the last),
/// then drives the workload. Returns the data and the still-running
/// environment for the correctness gate and the probes.
pub fn run(opts: &Options, scratch: &Path) -> Result<(RunData, Env), String> {
    let phases = pinned::phases(opts.seconds);
    let mut setup_s = Vec::new();
    let mut env = None;
    for nth in 0..pinned::SETUPS {
        if let Some(old) = env.take() {
            Env::stop(old);
        }
        let started = Instant::now();
        env = Some(setup(opts, &phases, scratch, nth)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("SETUPS is at least 1");

    let flipped = Arc::new(AtomicBool::new(false));
    let tpcc = Arc::new(Tpcc {
        scale: opts.scale.clone(),
        scenario: opts.workload.scenario(),
    });
    let warm_us = phases.warm.as_micros() as u64;
    let end_us = warm_us + phases.measure.as_micros() as u64;

    let mut conns = std::mem::take(&mut env.conns);
    let epoch = Instant::now();
    let mut submit_us = None;
    let mut complete_us = None;
    let mut checkpoints = Vec::new();
    let mut obs_before = MetricsSnapshot::default();
    let mut wal_before = WalStatsSnapshot::default();
    let now_us = || epoch.elapsed().as_micros() as u64;

    let finished: Vec<Result<(ClientLog, Load), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                // Each client draws from its own stream of the run's seed.
                let seed = opts.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
                let mut load = if opts.workload.is_tpcc() {
                    Load::Tpcc(TpccLoad {
                        tpcc: Arc::clone(&tpcc),
                        rng: TpccRng::new(seed),
                        flipped: Arc::clone(&flipped),
                        denorm_rows: 0,
                        failures: Vec::new(),
                    })
                } else {
                    Load::Transfer(TransferLoad {
                        rng: StdRng::seed_from_u64(seed),
                        ledger: vec![0; pinned::ACCOUNTS as usize],
                        failures: Vec::new(),
                    })
                };
                s.spawn(move || {
                    let mut log = ClientLog::new(epoch);
                    client_loop(&mut load, conn, &mut log, end_us, opts.trace)
                        .map(|()| (log, load))
                        .map_err(|e| e.to_string())
                })
            })
            .collect();

        // The main thread keeps the run's schedule while the clients work.
        sleep_until(epoch, warm_us);
        obs_before = env.admin.metrics().unwrap_or_default();
        wal_before = env.db.wal().stats();
        if let Some(scenario) = opts.workload.scenario() {
            sleep_until(epoch, warm_us + phases.submit_at.as_micros() as u64);
            match env.bf.submit_migration(scenario.plan()) {
                Ok(_) => {
                    submit_us = Some(now_us());
                    scenario
                        .create_output_indexes(&env.db)
                        .expect("output tables exist after the flip");
                    flipped.store(true, Ordering::Release);
                    while now_us() < end_us {
                        if env.bf.migration_complete() {
                            complete_us = Some(now_us());
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                Err(e) => eprintln!("bfbench: submit_migration failed: {e}"),
            }
        } else if !opts.workload.is_tpcc() {
            let every = phases.checkpoint_every.as_micros() as u64;
            let mut at = warm_us + every;
            while at < end_us {
                sleep_until(epoch, at);
                let started = now_us();
                if let Err(e) = env.admin.checkpoint() {
                    eprintln!("bfbench: CHECKPOINT failed: {e}");
                }
                checkpoints.push((started, now_us()));
                at += every;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    env.conns = conns;
    let obs_after = env.admin.metrics().unwrap_or_default();
    let wal_after = env.db.wal().stats();
    let peak_rss_mb = crate::host::peak_rss_mb();

    // A migration still running is given time to finish so the
    // exactly-once checks can run; its flip metrics are then missing and
    // the run is reported as incorrect.
    if submit_us.is_some() && complete_us.is_none() {
        env.bf.wait_migration_complete(pinned::MIGRATION_GRACE);
    }

    let mut data = RunData {
        setup_s,
        logs: Vec::new(),
        warm_us,
        end_us,
        submit_us,
        complete_us,
        checkpoints,
        obs_before,
        obs_after,
        wal_before,
        wal_after,
        peak_rss_mb,
        migration: env.bf.progress().map(|p| p.stats),
        denorm_rows: 0,
        ledger: vec![0; pinned::ACCOUNTS as usize],
        failures: Vec::new(),
    };
    for client in finished {
        let (log, load) = client?;
        data.logs.push(log);
        match load {
            Load::Tpcc(l) => {
                data.denorm_rows += l.denorm_rows;
                data.failures.extend(l.failures);
            }
            Load::Transfer(l) => {
                for (total, delta) in data.ledger.iter_mut().zip(l.ledger) {
                    *total += delta;
                }
                data.failures.extend(l.failures);
            }
        }
    }
    Ok((data, env))
}
