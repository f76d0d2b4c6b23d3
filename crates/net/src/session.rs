//! Per-connection session: statement execution and transaction
//! lifecycle.
//!
//! A [`Session`] owns at most one open [`Transaction`]. Statements
//! outside an explicit `BEGIN`/`COMMIT` bracket run in autocommit: the
//! session begins a transaction, executes, and commits (or aborts on
//! error) before replying. Dropping a session — which is what happens
//! when the client disconnects or the server drains — aborts any open
//! transaction, so a half-finished remote transaction can never leave
//! locks or uncommitted rows behind.
//!
//! All DML flows through [`ClientAccess`], so when the session's access
//! is a [`Bullfrog`] controller every remote
//! read and write gets the lazy-migration interposition: touching a
//! not-yet-migrated slice of an output table migrates it, exactly once,
//! before the statement proceeds.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Error, Result, Row};
use bullfrog_core::{Bullfrog, ClientAccess, Passthrough};
use bullfrog_engine::exec::{bind_to_table, ExecOptions};
use bullfrog_engine::LockPolicy;
use bullfrog_sql::{
    parse_statement, parse_template, reorder_insert_rows, PreparedTemplate, Statement,
};
use bullfrog_txn::{AckOutcome, CommitTicket, SyncPolicy, Transaction};

use crate::server::{DdlEvent, HaHooks, ReadOnly, ReplicationHooks};
use crate::wire::{err_code, Response};

/// Counters shared by every session of a server. The handles live on
/// the database's [`bullfrog_obs::Registry`] under `sessions.*`, so
/// `STATUS` and `METRICS` read the same storage — the two reports can
/// never disagree on a total.
pub struct SessionCounters {
    /// Statements executed (including failed ones).
    pub statements: Arc<bullfrog_obs::Counter>,
    /// Statements that returned an error.
    pub errors: Arc<bullfrog_obs::Counter>,
    /// Rows returned to clients.
    pub rows_returned: Arc<bullfrog_obs::Counter>,
    /// Rows written (insert/update/delete) by committed statements.
    pub rows_written: Arc<bullfrog_obs::Counter>,
    /// Transactions committed (autocommit and explicit).
    pub commits: Arc<bullfrog_obs::Counter>,
    /// Transactions aborted (errors, rollbacks, disconnects).
    pub aborts: Arc<bullfrog_obs::Counter>,
}

impl SessionCounters {
    /// Counters registered on `reg` under the `sessions.*` names.
    pub fn new(reg: &bullfrog_obs::Registry) -> Self {
        SessionCounters {
            statements: reg.counter("sessions.statements"),
            errors: reg.counter("sessions.errors"),
            rows_returned: reg.counter("sessions.rows_returned"),
            rows_written: reg.counter("sessions.rows_written"),
            commits: reg.counter("sessions.commits"),
            aborts: reg.counter("sessions.aborts"),
        }
    }

    fn bump(c: &bullfrog_obs::Counter, n: u64) {
        c.add(n);
    }
}

impl Default for SessionCounters {
    /// Unregistered counters, for sessions built without a server (the
    /// normal path is [`SessionCounters::new`] on the database's
    /// registry).
    fn default() -> Self {
        SessionCounters {
            statements: Arc::new(bullfrog_obs::Counter::new()),
            errors: Arc::new(bullfrog_obs::Counter::new()),
            rows_returned: Arc::new(bullfrog_obs::Counter::new()),
            rows_written: Arc::new(bullfrog_obs::Counter::new()),
            commits: Arc::new(bullfrog_obs::Counter::new()),
            aborts: Arc::new(bullfrog_obs::Counter::new()),
        }
    }
}

/// How long a session waits in `FINALIZE MIGRATION` for stragglers.
const FINALIZE_WAIT: Duration = Duration::from_secs(5);

/// Per-session prepared-statement cache cap; a `PREPARE` with a fresh
/// id past this is refused rather than silently evicting.
const MAX_PREPARED: usize = 256;

/// One client session.
pub struct Session {
    bf: Arc<Bullfrog>,
    counters: Arc<SessionCounters>,
    statement_timeout: Duration,
    txn: Option<Transaction>,
    /// `SET COMMIT_MODE NOWAIT(n)`: the bounded window of un-durable
    /// commit tickets (`None` = synchronous commits).
    commit_window: Option<CommitWindow>,
    /// Primary-side replication: DDL runs through the journal.
    hooks: Option<Arc<dyn ReplicationHooks>>,
    /// Replica-side read-only mode.
    read_only: Option<ReadOnly>,
    /// HA-member enforcement: writes and DDL are refused while this
    /// node is not the leaseholder.
    ha: Option<Arc<dyn HaHooks>>,
    /// `PREPARE`d statement templates, keyed by the client-chosen id.
    prepared: HashMap<u64, PreparedTemplate>,
    /// Rows written by statements of the *open* explicit transaction.
    /// `sessions.rows_written` counts committed writes only, so these
    /// stay pending until `COMMIT` and vanish on rollback or abort.
    pending_rows_written: u64,
}

/// The `NOWAIT(max_unacked)` session state: every commit is
/// acknowledged at WAL-enqueue time, and the session blocks on the
/// oldest outstanding ticket once more than `max_unacked` commits are
/// still un-durable.
struct CommitWindow {
    max_unacked: u64,
    outstanding: VecDeque<CommitTicket>,
}

impl CommitWindow {
    /// Admits a fresh ticket: prune tickets the durable horizon already
    /// covers, then block on the oldest while the window is over
    /// capacity. The wait is on the *merged* horizon (see
    /// `CommitTicket::wait`) composed with the synchronous-replication
    /// gate, so a drained window implies every earlier commit of this
    /// session is durable and (under `SYNC_REPLICAS`) replicated.
    fn push(&mut self, ticket: CommitTicket) -> AckOutcome {
        self.outstanding.push_back(ticket);
        while self.outstanding.front().is_some_and(|t| t.is_durable()) {
            self.outstanding.pop_front();
        }
        let mut worst = AckOutcome::Synced;
        while self.outstanding.len() as u64 > self.max_unacked {
            let t = self.outstanding.pop_front().expect("len > 0");
            worst = worse(worst, t.wait_acked());
        }
        worst
    }

    fn drain(&mut self) -> AckOutcome {
        let mut worst = AckOutcome::Synced;
        for t in self.outstanding.drain(..) {
            worst = worse(worst, t.wait_acked());
        }
        worst
    }
}

/// Combines two gate outcomes, keeping the more severe one.
fn worse(a: AckOutcome, b: AckOutcome) -> AckOutcome {
    use AckOutcome::{Degraded, Fenced, Synced};
    match (a, b) {
        (Fenced, _) | (_, Fenced) => Fenced,
        (Degraded, _) | (_, Degraded) => Degraded,
        _ => Synced,
    }
}

/// True for statements that mutate data or the catalog — the set the
/// HA leadership gate refuses on a non-leader.
fn statement_writes(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }
            | Statement::CreateTable(_)
            | Statement::CreateTableAs { .. }
            | Statement::FinalizeMigration { .. }
    )
}

impl Session {
    /// Creates a session over `bf`, reporting into `counters`.
    pub fn new(
        bf: Arc<Bullfrog>,
        counters: Arc<SessionCounters>,
        statement_timeout: Duration,
    ) -> Self {
        Session {
            bf,
            counters,
            statement_timeout,
            txn: None,
            commit_window: None,
            hooks: None,
            read_only: None,
            ha: None,
            prepared: HashMap::new(),
            pending_rows_written: 0,
        }
    }

    /// Routes this session's DDL through the primary's replication
    /// journal.
    pub fn with_ddl_hooks(mut self, hooks: Arc<dyn ReplicationHooks>) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Makes this a read-only replica session.
    pub fn with_read_only(mut self, ro: ReadOnly) -> Self {
        self.read_only = Some(ro);
        self
    }

    /// Enables HA-member enforcement on this session.
    pub fn with_ha(mut self, ha: Arc<dyn HaHooks>) -> Self {
        self.ha = Some(ha);
        self
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Parses and executes one statement, returning the wire response.
    /// Errors abort the statement's transaction (and a surrounding
    /// explicit transaction too — its locks are gone, so pretending it
    /// is still open would be a lie) but never poison the session.
    pub fn execute(&mut self, sql: &str) -> Response {
        SessionCounters::bump(&self.counters.statements, 1);
        let started = Instant::now();
        let stmt = match parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(e) => return self.fail(&e),
        };
        self.gate_and_run(stmt, sql, started)
    }

    /// Parses `sql` as a parameterized template and caches it under the
    /// client-chosen `id` (re-preparing an id replaces its statement).
    /// Only DML templates are accepted — transaction control, DDL, and
    /// admin statements have no parameters to bind and gain nothing
    /// from caching. Replies `OK` with the parameter count.
    pub fn prepare(&mut self, id: u64, sql: &str) -> Response {
        SessionCounters::bump(&self.counters.statements, 1);
        let template = match parse_template(sql) {
            Ok(t) => t,
            Err(e) => return self.fail(&e),
        };
        match template.statement() {
            Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::InsertExprs { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => {}
            _ => {
                return self.fail(&Error::Eval(
                    "PREPARE supports only SELECT, INSERT, UPDATE, and DELETE".into(),
                ))
            }
        }
        if self.prepared.len() >= MAX_PREPARED && !self.prepared.contains_key(&id) {
            return self.fail(&Error::Eval(format!(
                "prepared-statement cache full ({MAX_PREPARED} statements); CLOSE one first"
            )));
        }
        let n_params = template.n_params();
        self.prepared.insert(id, template);
        Response::Ok {
            affected: u64::from(n_params),
        }
    }

    /// Binds `params` into the cached template `id` and executes the
    /// resulting statement through exactly the gates and run path a
    /// `QUERY` takes — responses are byte-identical to executing the
    /// statement with the parameters folded in as literals.
    pub fn execute_prepared(&mut self, id: u64, params: &Row) -> Response {
        SessionCounters::bump(&self.counters.statements, 1);
        let started = Instant::now();
        let Some(template) = self.prepared.get(&id) else {
            return self.fail(&Error::Eval(format!("unknown prepared statement {id}")));
        };
        let stmt = match template.bind(&params.0) {
            Ok(stmt) => stmt,
            Err(e) => return self.fail(&e),
        };
        // The statement text only ever reaches the DDL journal, and
        // `prepare` admits DML alone: there is no text to carry.
        self.gate_and_run(stmt, "", started)
    }

    /// Drops the cached template `id`, freeing its cache slot.
    pub fn close_stmt(&mut self, id: u64) -> Response {
        SessionCounters::bump(&self.counters.statements, 1);
        match self.prepared.remove(&id) {
            Some(_) => Response::Ok { affected: 0 },
            None => self.fail(&Error::Eval(format!("unknown prepared statement {id}"))),
        }
    }

    /// The post-parse execution path shared by `QUERY` and `EXECUTE`:
    /// read-only routing and the HA leadership gate, then the statement
    /// runner.
    fn gate_and_run(&mut self, stmt: Statement, sql: &str, started: Instant) -> Response {
        // A promoted replica flips `writable` and its sessions leave
        // read-only routing without reconnecting.
        if let Some(ro) = &self.read_only {
            if !ro.writable.load(Ordering::Acquire) {
                return self.run_read_only(stmt);
            }
        }
        // HA leadership gate: a member that does not hold the lease
        // refuses writes and DDL up front, naming the leader so clients
        // re-route. Reads and session-local settings still run.
        if statement_writes(&stmt) {
            if let Some(leader) = self.ha.as_ref().and_then(|ha| ha.write_block()) {
                SessionCounters::bump(&self.counters.errors, 1);
                return Response::Err {
                    retryable: false,
                    code: err_code::READ_ONLY,
                    message: format!(
                        "not the HA leader: writes and DDL must go to the primary at {leader}"
                    ),
                };
            }
        }
        match self.run(stmt, sql, started) {
            Ok(resp) => resp,
            Err(e) => self.fail(&e),
        }
    }

    /// Error path shared by every statement: count it, abort any open
    /// transaction, and build the wire error.
    fn fail(&mut self, e: &Error) -> Response {
        SessionCounters::bump(&self.counters.errors, 1);
        // A failed statement cannot leave a broken transaction open
        // behind the client's back.
        if let Some(mut txn) = self.txn.take() {
            self.bf.db().abort(&mut txn);
            self.pending_rows_written = 0;
            SessionCounters::bump(&self.counters.aborts, 1);
        }
        Response::from_error(e)
    }

    /// Aborts any open transaction (disconnect / drain path) and drains
    /// the async-commit window so an orderly close acknowledges nothing
    /// it cannot keep.
    pub fn abort_open(&mut self) {
        if let Some(mut txn) = self.txn.take() {
            self.bf.db().abort(&mut txn);
            self.pending_rows_written = 0;
            SessionCounters::bump(&self.counters.aborts, 1);
        }
        if let Some(w) = &mut self.commit_window {
            w.drain();
        }
    }

    /// Replica statement surface: `SELECT` runs against the local heaps
    /// under the apply gate; everything else is redirected to the
    /// primary with a retryable [`err_code::READ_ONLY`] error.
    fn run_read_only(&mut self, stmt: Statement) -> Response {
        let ro = self.read_only.clone().expect("read_only checked");
        match stmt {
            Statement::Select(spec) => {
                // Hold the apply gate's read half for the whole
                // statement: the log applier takes the write half per
                // transaction batch, so this read sees only whole
                // transactions. Reads bypass the migration controller
                // (`Passthrough`) — interposition would try to *write*
                // migrated rows, and this node's granule state comes
                // from the primary's log, never from local work.
                let _gate = ro.gate.read();
                let pass = Passthrough::new(Arc::clone(self.bf.db()));
                let result = (|| {
                    let spec = bullfrog_sql::qualify_spec(self.bf.db(), &spec)?;
                    let mut txn = self.bf.db().begin();
                    let out = pass.execute_spec(
                        &mut txn,
                        &spec,
                        &ExecOptions {
                            lock: LockPolicy::Shared,
                            ..ExecOptions::default()
                        },
                    );
                    self.bf.db().abort(&mut txn); // read-only; release locks
                    out
                })();
                match result {
                    Ok(out) => {
                        SessionCounters::bump(&self.counters.rows_returned, out.rows.len() as u64);
                        Response::Rows {
                            names: out.names,
                            rows: out.rows,
                        }
                    }
                    Err(e) => {
                        SessionCounters::bump(&self.counters.errors, 1);
                        Response::from_error(&e)
                    }
                }
            }
            _ => {
                SessionCounters::bump(&self.counters.errors, 1);
                Response::Err {
                    retryable: true,
                    code: err_code::READ_ONLY,
                    message: format!(
                        "read-only replica: writes and DDL must go to the primary at {}",
                        ro.primary
                    ),
                }
            }
        }
    }

    fn run(&mut self, stmt: Statement, sql: &str, started: Instant) -> Result<Response> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::Eval("transaction already open".into()));
                }
                self.txn = Some(self.bf.db().begin());
                Ok(Response::Ok { affected: 0 })
            }
            Statement::Commit => {
                let mut txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Eval("COMMIT outside a transaction".into()))?;
                let acked_lsn = self.commit_txn(&mut txn)?;
                Ok(Response::Ok {
                    affected: acked_lsn,
                })
            }
            Statement::CommitNowait => {
                let mut txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Eval("COMMIT outside a transaction".into()))?;
                // Acknowledge at enqueue time; the WAL flusher makes the
                // batch durable in the background. The server's shutdown
                // drain syncs the WAL, so an orderly stop loses nothing.
                // `affected` carries the ticket's wait-LSN so clients can
                // correlate with `wal.durable_lsn` in STATUS.
                let ticket = self.bf.db().commit_nowait(&mut txn)?;
                SessionCounters::bump(&self.counters.commits, 1);
                SessionCounters::bump(&self.counters.rows_written, self.pending_rows_written);
                self.pending_rows_written = 0;
                Ok(Response::Ok {
                    affected: ticket.wait_lsn(),
                })
            }
            Statement::Rollback => {
                let mut txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Eval("ROLLBACK outside a transaction".into()))?;
                self.bf.db().abort(&mut txn);
                self.pending_rows_written = 0;
                SessionCounters::bump(&self.counters.aborts, 1);
                Ok(Response::Ok { affected: 0 })
            }
            Statement::SetCommitMode { max_unacked } => {
                // Leaving NOWAIT (or shrinking the window) drains first:
                // the mode switch must not silently strand acknowledged
                // commits outside any window bound.
                if let Some(w) = &mut self.commit_window {
                    if matches!(w.drain(), AckOutcome::Fenced) {
                        return Err(self.fenced_error());
                    }
                }
                self.commit_window = max_unacked.map(|max_unacked| CommitWindow {
                    max_unacked,
                    outstanding: VecDeque::new(),
                });
                Ok(Response::Ok { affected: 0 })
            }
            Statement::SetSyncReplicas { count } => {
                self.bf.db().wal().sync_gate().set_required(count as usize);
                Ok(Response::Ok { affected: 0 })
            }
            Statement::SetSyncPolicy { degrade_ms } => {
                self.bf.db().wal().sync_gate().set_policy(match degrade_ms {
                    None => SyncPolicy::Block,
                    Some(ms) => SyncPolicy::Degrade(Duration::from_millis(ms)),
                });
                Ok(Response::Ok { affected: 0 })
            }
            Statement::CreateTable(schema) => {
                if let Some(hooks) = self.hooks.clone() {
                    let db = Arc::clone(self.bf.db());
                    hooks.journaled_ddl(&mut || {
                        db.create_table(schema.clone())?;
                        Ok(DdlEvent::Create {
                            sql: sql.to_string(),
                        })
                    })?;
                } else {
                    self.bf.db().create_table(schema)?;
                }
                Ok(Response::Ok { affected: 0 })
            }
            Statement::CreateTableAs {
                name,
                select,
                primary_key,
            } => self.submit_migration(name, select, primary_key, sql),
            Statement::Checkpoint => {
                let stats = self.bf.db().checkpoint()?;
                Ok(Response::Ok {
                    affected: stats.absorbed_records as u64,
                })
            }
            Statement::FinalizeMigration { drop_old } => {
                // Give lazy stragglers and background threads a bounded
                // chance to finish before the authoritative check.
                self.bf.wait_migration_complete(FINALIZE_WAIT);
                if let Some(hooks) = self.hooks.clone() {
                    let bf = Arc::clone(&self.bf);
                    hooks.journaled_ddl(&mut || {
                        bf.finalize_migration(drop_old)?;
                        Ok(DdlEvent::Finalize {
                            sql: sql.to_string(),
                        })
                    })?;
                } else {
                    self.bf.finalize_migration(drop_old)?;
                }
                Ok(Response::Ok { affected: 0 })
            }
            dml => self.run_dml(dml, started),
        }
    }

    /// Commits per the session's commit mode: synchronous by default;
    /// in `NOWAIT(n)` the acknowledgement happens at enqueue time and
    /// the ticket joins the bounded window. Returns the value for the
    /// response's `affected` field (the ticket's wait-LSN in NOWAIT
    /// mode, 0 for a synchronous commit, matching `COMMIT`'s historic
    /// reply).
    fn commit_txn(&mut self, txn: &mut Transaction) -> Result<u64> {
        let acked = match &mut self.commit_window {
            None => {
                self.bf.db().commit(txn)?;
                0
            }
            Some(window) => {
                let ticket = self.bf.db().commit_nowait(txn)?;
                let lsn = ticket.wait_lsn();
                if matches!(window.push(ticket), AckOutcome::Fenced) {
                    return Err(self.fenced_error());
                }
                lsn
            }
        };
        SessionCounters::bump(&self.counters.commits, 1);
        // The transaction's writes are now committed (or durably
        // enqueued); only here do they count as written rows.
        SessionCounters::bump(&self.counters.rows_written, self.pending_rows_written);
        self.pending_rows_written = 0;
        Ok(acked)
    }

    /// Builds the error a fenced gate outcome surfaces to the client:
    /// the commit was not acknowledged here, and the message names the
    /// new leader (when known) for the redirect.
    fn fenced_error(&self) -> Error {
        Error::Fenced {
            leader: self.bf.db().wal().sync_gate().leader_hint(),
        }
    }

    /// Runs a DML statement inside the session's transaction (or an
    /// autocommit one), enforcing the statement timeout before commit:
    /// a statement that overran is aborted, not committed, so the
    /// client's timeout error is truthful.
    fn run_dml(&mut self, stmt: Statement, started: Instant) -> Result<Response> {
        let autocommit = self.txn.is_none();
        if autocommit {
            self.txn = Some(self.bf.db().begin());
        }
        let mut txn = self.txn.take().expect("transaction set above");
        let result = self.apply_dml(&mut txn, stmt).and_then(|resp| {
            if started.elapsed() > self.statement_timeout {
                Err(Error::Eval(format!(
                    "statement timeout ({:?}) exceeded",
                    self.statement_timeout
                )))
            } else {
                Ok(resp)
            }
        });
        match result {
            Ok(resp) => {
                if autocommit {
                    self.commit_txn(&mut txn)?;
                } else {
                    self.txn = Some(txn);
                }
                if let Response::Ok { affected } = &resp {
                    // Written rows count only once committed: right here
                    // for autocommit (the commit above succeeded),
                    // deferred to COMMIT inside an explicit transaction —
                    // a rollback must not leave them in the counter.
                    if autocommit {
                        SessionCounters::bump(&self.counters.rows_written, *affected);
                    } else {
                        self.pending_rows_written += *affected;
                    }
                }
                if let Response::Rows { rows, .. } = &resp {
                    SessionCounters::bump(&self.counters.rows_returned, rows.len() as u64);
                }
                Ok(resp)
            }
            Err(e) => {
                self.bf.db().abort(&mut txn);
                self.pending_rows_written = 0;
                SessionCounters::bump(&self.counters.aborts, 1);
                Err(e)
            }
        }
    }

    fn apply_dml(&self, txn: &mut Transaction, stmt: Statement) -> Result<Response> {
        match stmt {
            Statement::Select(spec) => {
                let spec = bullfrog_sql::qualify_spec(self.bf.db(), &spec)?;
                let opts = ExecOptions {
                    lock: LockPolicy::Shared,
                    ..ExecOptions::default()
                };
                let out = self.bf.execute_spec(txn, &spec, &opts)?;
                Ok(Response::Rows {
                    names: out.names,
                    rows: out.rows,
                })
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let schema = self.bf.db().table(&table)?.schema().clone();
                let rows = reorder_insert_rows(&schema, &columns, &rows)?;
                let n = rows.len() as u64;
                for row in rows {
                    self.bf.insert(txn, &table, row)?;
                }
                Ok(Response::Ok { affected: n })
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let t = self.bf.db().table(&table)?;
                let mut set_idx = Vec::with_capacity(sets.len());
                for (col, e) in &sets {
                    set_idx.push((t.schema().col_index(col)?, bind_to_table(&t, e)?));
                }
                let matched =
                    self.bf
                        .select(txn, &table, predicate.as_ref(), LockPolicy::Exclusive)?;
                let n = matched.len() as u64;
                for (rid, row) in matched {
                    let mut new_row = row.clone();
                    for (pos, e) in &set_idx {
                        new_row.0[*pos] = e.eval(&row)?;
                    }
                    self.bf.update(txn, &table, rid, new_row)?;
                }
                Ok(Response::Ok { affected: n })
            }
            Statement::Delete { table, predicate } => {
                let matched =
                    self.bf
                        .select(txn, &table, predicate.as_ref(), LockPolicy::Exclusive)?;
                let n = matched.len() as u64;
                for (rid, _) in matched {
                    self.bf.delete(txn, &table, rid)?;
                }
                Ok(Response::Ok { affected: n })
            }
            other => Err(Error::Internal(format!(
                "non-DML statement {other:?} reached run_dml"
            ))),
        }
    }

    /// Turns migration DDL into a [`MigrationPlan`]
    /// (bullfrog_core::MigrationPlan) and submits it: schema inference
    /// against the live catalog, then the O(statements) logical flip.
    fn submit_migration(
        &mut self,
        name: String,
        select: bullfrog_query::SelectSpec,
        primary_key: Vec<String>,
        sql: &str,
    ) -> Result<Response> {
        if self.txn.is_some() {
            return Err(Error::Eval(
                "migration DDL cannot run inside an explicit transaction".into(),
            ));
        }
        let plan = build_migration_plan(&self.bf, name, &select, primary_key)?;
        if let Some(hooks) = self.hooks.clone() {
            let bf = Arc::clone(&self.bf);
            hooks.journaled_ddl(&mut || {
                let (_migration, caps) = bf
                    .submit_migration_with(plan.clone(), bullfrog_core::SubmitOptions::default())?;
                Ok(DdlEvent::Migrate {
                    sql: sql.to_string(),
                    caps,
                })
            })?;
        } else {
            self.bf.submit_migration(plan)?;
        }
        Ok(Response::Ok { affected: 0 })
    }
}

/// Migration DDL → [`MigrationPlan`](bullfrog_core::MigrationPlan):
/// schema inference against the live catalog, plus the optional
/// re-declared primary key. Shared with `bullfrog-repl`, which replays
/// journaled migration DDL through exactly this path so the replica's
/// plan resolution matches the primary's.
pub fn build_migration_plan(
    bf: &Bullfrog,
    name: String,
    select: &bullfrog_query::SelectSpec,
    primary_key: Vec<String>,
) -> Result<bullfrog_core::MigrationPlan> {
    let db = bf.db();
    let spec = bullfrog_sql::qualify_spec(db, select)?;
    let mut schema = bullfrog_sql::infer_output_schema(db, &name, &spec, &[])?;
    if !primary_key.is_empty() {
        schema.primary_key = primary_key;
        for c in &mut schema.columns {
            if schema.primary_key.contains(&c.name) {
                c.nullable = false;
            }
        }
    }
    Ok(bullfrog_core::MigrationPlan::new(name)
        .with_statement(bullfrog_core::MigrationStatement::new(schema, spec)))
}

impl Drop for Session {
    fn drop(&mut self) {
        self.abort_open();
    }
}
