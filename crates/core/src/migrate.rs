//! The per-transaction migration loop (paper §3.2, Algorithm 1).
//!
//! A client request over the new schema precipitates migration work that
//! runs in a **series of transactions separate from, and completed prior
//! to, the client request transaction** ("Dividing work into multiple
//! transactions simplifies abort handling and avoids deadlock").
//!
//! Each loop iteration:
//!
//! 1. starts a fresh migration transaction;
//! 2. walks the candidate granules, calling the tracker (Algorithm 2 or 3)
//!    for each — claimed granules go to the worker-local **WIP** list and
//!    are migrated inside the transaction, contended ones go to **SKIP**;
//! 3. commits, then flips the WIP granules' statuses to *migrated*
//!    (Algorithm 1 line 9) — or, on abort, resets them so another worker
//!    can take over (§3.5);
//! 4. repeats with the SKIP list until it drains (line 10), blocking
//!    briefly on in-progress granules rather than spinning.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_engine::exec::{execute_spec, strip_aliases, ExecOptions};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{transpose, Expr};
use bullfrog_txn::wal::GranuleKey;
use bullfrog_txn::{LogRecord, Transaction};

use crate::granule::{Granule, GranuleState, Tracker, WorkList};
use crate::plan::{MigrationStatement, Tracking};
use crate::stats::MigrationStats;

/// Duplicate-migration detection mode (paper §3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMode {
    /// BullFrog's native trackers: claim before migrating (Algorithms 2/3).
    Tracker,
    /// `INSERT ... ON CONFLICT DO NOTHING`: migrate optimistically and let
    /// the output table's unique index reject duplicates at insert time.
    OnConflict,
}

/// A resolved statement plus its live tracker — everything the migration
/// loop needs.
pub struct StatementRuntime {
    /// Statement index within the plan (identifies WAL granule records).
    pub id: u32,
    /// The resolved statement.
    pub stmt: MigrationStatement,
    /// Its tracker (bitmap or hashmap per the resolved category).
    pub tracker: Arc<dyn Tracker>,
    /// Shared overhead counters.
    pub stats: Arc<MigrationStats>,
    /// Migration transactions currently in flight for this statement.
    /// Completion requires this gauge at zero as well as every granule
    /// migrated: in ON-CONFLICT mode several workers may copy the same
    /// granule, and a redundant worker can still hold uncommitted
    /// duplicate inserts (pending heap slots) after another worker marked
    /// the granule migrated. Declaring completion before that straggler
    /// commits or rolls back would let post-migration observers see its
    /// transient rows.
    pub in_flight: AtomicU64,
}

/// RAII in-flight marker: one per migration transaction, covering it from
/// before its first row copy until its commit/abort has fully applied.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(rt: &'a StatementRuntime) -> Self {
        rt.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlight(&rt.in_flight)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl StatementRuntime {
    /// The driving/key alias whose table enumerates candidates.
    pub fn driving_alias(&self) -> &str {
        match self.stmt.tracking() {
            Tracking::Bitmap { driving_alias, .. } => driving_alias,
            Tracking::Hash { key_alias, .. } => key_alias,
            Tracking::PairHash { left_alias, .. } => left_alias,
        }
    }

    /// The catalog name of the driving/key table.
    pub fn driving_table(&self) -> &str {
        let alias = self.driving_alias();
        &self
            .stmt
            .spec
            .input(alias)
            .expect("resolved statement has valid aliases")
            .table
    }

    /// Bitmap granule size in rows (1 for hash statements).
    pub fn granule_rows(&self) -> u64 {
        match self.stmt.tracking() {
            Tracking::Bitmap { granule_rows, .. } => *granule_rows,
            Tracking::Hash { .. } | Tracking::PairHash { .. } => 1,
        }
    }
}

/// Computes the candidate granules a client predicate makes *potentially
/// relevant* (paper §2.1). `None` = the whole table.
pub fn candidates_for(
    db: &Database,
    rt: &StatementRuntime,
    client_pred: Option<&Expr>,
) -> Result<Vec<Granule>> {
    let transposed = transpose(&rt.stmt.spec, client_pred);
    let driving_alias = rt.driving_alias();
    let driving_table = rt.driving_table();

    match rt.stmt.tracking() {
        Tracking::Bitmap { granule_rows, .. } => {
            let filter = transposed.filter_for(driving_alias).map(strip_aliases);
            let table = db.table(driving_table)?;
            let slots = table.heap().slots_per_page();
            let rows = db.select_unlocked(driving_table, filter.as_ref())?;
            let mut granules: Vec<u64> = rows
                .iter()
                .map(|(rid, _)| rid.ordinal(slots) / granule_rows)
                .collect();
            granules.sort_unstable();
            granules.dedup();
            Ok(granules.into_iter().map(Granule::Ordinal).collect())
        }
        Tracking::Hash {
            key_alias,
            key_exprs,
        } => {
            let filter = transposed.filter_for(key_alias).map(strip_aliases);
            let table = db.table(driving_table)?;
            let scope = bullfrog_engine::db::table_scope(&table);
            let stripped_keys: Vec<Expr> = key_exprs.iter().map(strip_aliases).collect();
            let rows = db.select_unlocked(driving_table, filter.as_ref())?;
            let mut keys: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
            for (_, row) in &rows {
                let key: Vec<Value> = stripped_keys
                    .iter()
                    .map(|e| e.eval(&scope, row))
                    .collect::<Result<_>>()?;
                keys.push(key);
            }
            keys.sort();
            keys.dedup();
            Ok(keys.into_iter().map(Granule::Group).collect())
        }
        Tracking::PairHash {
            left_alias,
            right_alias,
        } => pair_candidates(db, rt, &transposed, left_alias, right_alias),
    }
}

/// §3.6 option 3: enumerates the joining `(left row, right row)` pairs the
/// transposed filters make potentially relevant. Each pair is its own
/// granule, keyed by the two row ordinals.
fn pair_candidates(
    db: &Database,
    rt: &StatementRuntime,
    transposed: &bullfrog_query::TransposedPredicates,
    left_alias: &str,
    right_alias: &str,
) -> Result<Vec<Granule>> {
    let spec = &rt.stmt.spec;
    let left_table = db.table(&spec.input(left_alias).expect("resolved").table)?;
    let right_table = db.table(&spec.input(right_alias).expect("resolved").table)?;

    // Join column positions on each side.
    let mut left_cols: Vec<usize> = Vec::new();
    let mut right_cols: Vec<usize> = Vec::new();
    for (a, b) in &spec.join_conds {
        let (l, r) = if a.table.as_deref() == Some(left_alias) {
            (a, b)
        } else {
            (b, a)
        };
        left_cols.push(left_table.schema().col_index(&l.column)?);
        right_cols.push(right_table.schema().col_index(&r.column)?);
    }

    let left_filter = transposed.filter_for(left_alias).map(strip_aliases);
    let right_filter = transposed.filter_for(right_alias).map(strip_aliases);
    let left_rows = db.select_unlocked(left_table.name(), left_filter.as_ref())?;
    let right_rows = db.select_unlocked(right_table.name(), right_filter.as_ref())?;

    // Hash the right side by join key, then probe with the left.
    let right_slots = right_table.heap().slots_per_page();
    let left_slots = left_table.heap().slots_per_page();
    let mut by_key: std::collections::HashMap<Vec<Value>, Vec<u64>> =
        std::collections::HashMap::new();
    for (rid, row) in &right_rows {
        let key = row.key(&right_cols);
        if key.iter().any(Value::is_null) {
            continue;
        }
        by_key
            .entry(key)
            .or_default()
            .push(rid.ordinal(right_slots));
    }
    let mut out = Vec::new();
    for (rid, row) in &left_rows {
        let key = row.key(&left_cols);
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(rights) = by_key.get(&key) {
            let l = rid.ordinal(left_slots);
            for r in rights {
                out.push(Granule::Group(vec![
                    Value::Int(l as i64),
                    Value::Int(*r as i64),
                ]));
            }
        }
    }
    Ok(out)
}

/// Options for one migration-loop run.
#[derive(Clone)]
pub struct MigrateOptions {
    /// Dedup mode (§3.7).
    pub dedup: DedupMode,
    /// How long to block on an in-progress granule before rechecking.
    pub wait_timeout: Duration,
    /// Abort-injection hook for tests: called once per migration
    /// transaction just before commit; returning `true` aborts it.
    pub failpoint: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Marks granules migrated by a background worker in the stats.
    pub background: bool,
    /// Maximum granules claimed per migration transaction. Algorithm 1
    /// already splits migration work from the client transaction; this
    /// additionally bounds each migration transaction's lock footprint and
    /// abort-retry cost when a request's scope is huge (the
    /// untransposable-predicate worst case migrates a whole table).
    pub txn_granule_cap: usize,
    /// Sibling statement runtimes of the same plan: when an output row
    /// carries a foreign key into another *migrating* output table, the
    /// referenced slice is migrated first through the peer's runtime
    /// (paper §4.5 — constraints widen the migrated unit of data).
    pub peers: Vec<Arc<StatementRuntime>>,
    /// Recursion guard for FK chains between outputs.
    pub fk_depth: u32,
    /// The client transaction that triggered this lazy migration, when
    /// there is one. The migration transaction declares it an ally so the
    /// client's own X locks on input rows (co-maintained plans with
    /// unfrozen inputs write both schemas in one transaction) don't
    /// deadlock the shared thread; locks held by *other* transactions
    /// still block the migration's S reads.
    pub parent: Option<bullfrog_common::TxnId>,
    /// Cooperative cancellation: when set, the migration loop stops with
    /// an error between transactions (background workers pass the
    /// controller's shutdown flag so `Drop` can never hang on a granule
    /// that another worker wedged).
    pub cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for MigrateOptions {
    fn default() -> Self {
        MigrateOptions {
            dedup: DedupMode::Tracker,
            wait_timeout: Duration::from_millis(10),
            failpoint: None,
            background: false,
            txn_granule_cap: 1024,
            peers: Vec::new(),
            fk_depth: 0,
            parent: None,
            cancel: None,
        }
    }
}

/// Maximum FK-chain depth between migrating outputs before we give up
/// (cyclic foreign keys between new tables are a schema bug).
const MAX_FK_DEPTH: u32 = 4;

/// Migrates whatever peer-output slices the given rows' foreign keys
/// reference, so the FK checks on the upcoming inserts can pass.
fn ensure_fk_targets(
    db: &Database,
    rt: &StatementRuntime,
    rows: &[Row],
    opts: &MigrateOptions,
) -> Result<()> {
    let schema = &rt.stmt.output;
    if schema.foreign_keys.is_empty() || rows.is_empty() {
        return Ok(());
    }
    for fk in &schema.foreign_keys {
        let Some(peer) = opts
            .peers
            .iter()
            .find(|p| p.stmt.output.name == fk.ref_table)
        else {
            continue; // target is not a migrating output
        };
        if opts.fk_depth >= MAX_FK_DEPTH {
            return Err(Error::InvalidMigration(format!(
                "foreign-key chain between migrating outputs deeper than {MAX_FK_DEPTH} \
                 (cycle through {})",
                fk.ref_table
            )));
        }
        let cols = schema.col_indices(&fk.columns)?;
        let mut keys: Vec<Vec<Value>> = rows.iter().map(|r| r.key(&cols)).collect();
        keys.sort();
        keys.dedup();
        let mut sub_opts = opts.clone();
        sub_opts.fk_depth += 1;
        sub_opts.failpoint = None; // failure injection targets the top level
        for key in keys {
            if key.iter().any(Value::is_null) {
                continue;
            }
            let pred = fk
                .ref_columns
                .iter()
                .zip(key)
                .map(|(c, v)| Expr::column(c.clone()).eq(Expr::Lit(v)))
                .reduce(Expr::and);
            let candidates = candidates_for(db, peer, pred.as_ref())?;
            migrate_candidates(db, peer, candidates, &sub_opts)?;
        }
    }
    Ok(())
}

/// Runs Algorithm 1 to completion for the given candidates: when this
/// returns `Ok`, every candidate granule is *migrated* (by this worker or
/// another) and the client request may proceed on the new schema.
pub fn migrate_candidates(
    db: &Database,
    rt: &StatementRuntime,
    mut candidates: Vec<Granule>,
    opts: &MigrateOptions,
) -> Result<()> {
    match opts.dedup {
        DedupMode::OnConflict => migrate_on_conflict(db, rt, candidates, opts),
        DedupMode::Tracker => {
            let cap = opts.txn_granule_cap.max(1);
            loop {
                if candidates.is_empty() {
                    return Ok(());
                }
                if let Some(cancel) = &opts.cancel {
                    if cancel.load(std::sync::atomic::Ordering::Acquire) {
                        return Err(Error::Internal("migration cancelled".into()));
                    }
                }
                let chunk: Vec<Granule> = candidates[..candidates.len().min(cap)].to_vec();
                match migrate_once(db, rt, &chunk, opts) {
                    Ok(skip) => {
                        let mut rest: Vec<Granule> = candidates.split_off(chunk.len());
                        if skip.is_empty() && rest.is_empty() {
                            return Ok(());
                        }
                        if !skip.is_empty() {
                            // Line 10: block on the first contended granule
                            // until its owner finishes or aborts, then
                            // recheck it (appended after the fresh work).
                            MigrationStats::add(&rt.stats.waits, 1);
                            rt.tracker.wait_not_in_progress(&skip[0], opts.wait_timeout);
                            rest.extend(skip);
                        }
                        candidates = rest;
                    }
                    Err(e) if e.is_retryable() => {
                        // The migration transaction aborted (lock timeout /
                        // injected): its WIP was reset; retry everything.
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// One iteration of Algorithm 1's do-loop: a single migration transaction.
/// Returns the SKIP list. On abort the WIP statuses are reset and the
/// retryable error is returned.
fn migrate_once(
    db: &Database,
    rt: &StatementRuntime,
    candidates: &[Granule],
    opts: &MigrateOptions,
) -> Result<Vec<Granule>> {
    let _in_flight = InFlight::enter(rt);
    let mut wip = WorkList::new();
    let mut skip = WorkList::new();
    let mut txn = db.begin();
    if let Some(parent) = opts.parent {
        txn.set_ally(parent);
    }

    let mut counts = RowCounts::default();
    let mut failure: Option<Error> = None;
    for g in candidates {
        if rt.tracker.try_claim(g, &mut wip, &mut skip) {
            match migrate_granule(db, &mut txn, rt, g, DedupMode::Tracker, opts) {
                Ok(c) => counts.merge(c),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
    }
    MigrationStats::add(&rt.stats.skips, skip.len() as u64);

    let inject_abort = opts.failpoint.as_ref().map(|f| f()).unwrap_or(false);

    if let Some(e) = failure {
        db.abort(&mut txn);
        rt.tracker.reset_aborted(wip.items());
        MigrationStats::add(&rt.stats.migration_aborts, 1);
        return Err(e);
    }
    if inject_abort {
        db.abort(&mut txn);
        rt.tracker.reset_aborted(wip.items());
        MigrationStats::add(&rt.stats.migration_aborts, 1);
        return Err(Error::TxnAborted(txn.id()));
    }
    // Background migrations pipeline past the group-commit barrier:
    // their batch is ordered in the WAL at enqueue time, and every
    // durability acknowledgement waits on the *merged* (all-shard)
    // horizon, so a client that later reads migrated rows and commits
    // at a higher LSN transitively covers this batch regardless of
    // which shards the two transactions hash to. Recovery replays only
    // the gap-free durable prefix, so granule marks and rows stay
    // atomic, and a crash can only lose this batch together with
    // everything that depended on it — the granule then simply shows
    // unmigrated and is copied again. Foreground (lazy, on the client's
    // query path) keeps synchronous semantics — the client is about to
    // read what it migrated.
    let committed = if opts.background {
        db.commit_nowait(&mut txn).map(drop)
    } else {
        db.commit(&mut txn)
    };
    match committed {
        Ok(()) => {
            rt.tracker.mark_migrated(wip.items());
            counts.apply(&rt.stats);
            MigrationStats::add(&rt.stats.migration_txns, 1);
            MigrationStats::add(&rt.stats.granules_migrated, wip.len() as u64);
            if opts.background {
                MigrationStats::add(&rt.stats.background_granules, wip.len() as u64);
            }
            Ok(skip.into_items())
        }
        Err(e) => {
            db.abort(&mut txn);
            rt.tracker.reset_aborted(wip.items());
            MigrationStats::add(&rt.stats.migration_aborts, 1);
            Err(e)
        }
    }
}

/// §3.7 mode: no claims; every candidate is migrated optimistically with
/// `ON CONFLICT DO NOTHING` inserts, then recorded as migrated (so
/// completion is still observable).
fn migrate_on_conflict(
    db: &Database,
    rt: &StatementRuntime,
    candidates: Vec<Granule>,
    opts: &MigrateOptions,
) -> Result<()> {
    let _in_flight = InFlight::enter(rt);
    let mut txn = db.begin();
    if let Some(parent) = opts.parent {
        txn.set_ally(parent);
    }
    let mut counts = RowCounts::default();
    for g in &candidates {
        if rt.tracker.state(g) == GranuleState::Migrated {
            // Skips row copies for already-migrated granules. Also load-
            // bearing for quiescence: once every granule is migrated and
            // `in_flight` has drained, any later transaction skips all its
            // candidates here, so no new duplicate rows appear after
            // completion was observable.
            continue;
        }
        match migrate_granule(db, &mut txn, rt, g, DedupMode::OnConflict, opts) {
            Ok(c) => counts.merge(c),
            Err(e) => {
                db.abort(&mut txn);
                return Err(e);
            }
        }
    }
    let inject_abort = opts.failpoint.as_ref().map(|f| f()).unwrap_or(false);
    if inject_abort {
        db.abort(&mut txn);
        MigrationStats::add(&rt.stats.migration_aborts, 1);
        return Err(Error::TxnAborted(txn.id()));
    }
    // Same async-commit rule as `migrate_once`: background transactions
    // enqueue and move on, foreground ones wait for durability.
    let committed = if opts.background {
        db.commit_nowait(&mut txn).map(drop)
    } else {
        db.commit(&mut txn)
    };
    match committed {
        Ok(()) => {
            counts.apply(&rt.stats);
            MigrationStats::add(&rt.stats.migration_txns, 1);
            let mut newly = 0;
            for g in &candidates {
                if rt.tracker.mark_migrated_direct(g) {
                    newly += 1;
                }
            }
            MigrationStats::add(&rt.stats.granules_migrated, newly);
            if opts.background {
                MigrationStats::add(&rt.stats.background_granules, newly);
            }
            Ok(())
        }
        Err(e) => {
            db.abort(&mut txn);
            MigrationStats::add(&rt.stats.migration_aborts, 1);
            Err(e)
        }
    }
}

/// Row-level outcome counters of one granule migration, applied to the
/// shared stats only after the surrounding transaction commits (aborted
/// attempts must not inflate the counters).
#[derive(Debug, Default, Clone, Copy)]
struct RowCounts {
    migrated: u64,
    dropped: u64,
    conflicts: u64,
}

impl RowCounts {
    fn merge(&mut self, other: RowCounts) {
        self.migrated += other.migrated;
        self.dropped += other.dropped;
        self.conflicts += other.conflicts;
    }

    fn apply(&self, stats: &MigrationStats) {
        MigrationStats::add(&stats.rows_migrated, self.migrated);
        MigrationStats::add(&stats.rows_dropped, self.dropped);
        MigrationStats::add(&stats.conflict_skips, self.conflicts);
    }
}

/// Physically migrates one granule inside `txn`: evaluates the migration
/// statement restricted to the granule and inserts the outputs into the
/// new table.
fn migrate_granule(
    db: &Database,
    txn: &mut Transaction,
    rt: &StatementRuntime,
    g: &Granule,
    dedup: DedupMode,
    opts: &MigrateOptions,
) -> Result<RowCounts> {
    let obs = db.obs();
    let started = std::time::Instant::now();
    let t0 = obs.now_us();
    let mut counts = RowCounts::default();
    let output = execute_granule_spec(db, txn, rt, g)?;
    ensure_fk_targets(db, rt, &output, opts)?;
    let out_table = &rt.stmt.output.name;
    for row in output {
        match dedup {
            DedupMode::Tracker => match db.insert_with(txn, out_table, row, false) {
                Ok(_) => counts.migrated += 1,
                Err(Error::UniqueViolation { .. }) => {
                    // §2.4: a constraint added by the migration drops this
                    // record; warn (count) and continue lazily.
                    counts.dropped += 1;
                }
                Err(e) => return Err(e),
            },
            DedupMode::OnConflict => {
                if db
                    .insert_or_ignore_with(txn, out_table, row, false)?
                    .is_some()
                {
                    counts.migrated += 1;
                } else {
                    counts.conflicts += 1;
                }
            }
        }
    }
    // Granule record for tracker recovery (§3.5).
    txn.push_redo(LogRecord::MigrationGranule {
        txn: txn.id(),
        migration: rt.id,
        granule: match g {
            Granule::Ordinal(o) => GranuleKey::Ordinal(*o),
            Granule::Group(k) => GranuleKey::Group(k.clone()),
        },
    });
    // Only completed granules record: an aborted attempt retries and
    // would otherwise double-count its copy window.
    obs.tracer()
        .record("migrate.granule", counts.migrated, t0, obs.now_us());
    obs.histogram("migrate.granule_us")
        .record_micros(started.elapsed());
    Ok(counts)
}

/// Evaluates the statement spec restricted to one granule.
///
/// Under 2PL, old-schema reads take SHARED locks in the migration
/// transaction: the logical flip freezes the input tables against *new*
/// writers, but a client transaction that updated an input row *before*
/// the flip may still be in flight, holding X locks over dirty in-place
/// heap values. An unlocked read in that window can capture an
/// uncommitted update that later aborts (or see half of one that
/// commits) and freeze the wrong value into the output table. The S lock
/// blocks until the straggler resolves, so the copied value is always a
/// committed one; the freeze guarantees the wait is bounded by the
/// in-flight transactions alone.
///
/// Under snapshot isolation there are no S locks to take: the migration
/// transaction reads the version chains at its own snapshot, which is a
/// committed prefix by construction. The flip quiesces pre-flip writers
/// before migrations start (see the controller), so the value visible at
/// any post-flip snapshot is the input row's final committed value — the
/// same value the 2PL S lock would have waited for. Either way the reads
/// are `LockPolicy::Shared` reads through the engine, which also lets the
/// migration see its ally's (the suspended client's) uncommitted writes.
fn execute_granule_spec(
    db: &Database,
    txn: &mut Transaction,
    rt: &StatementRuntime,
    g: &Granule,
) -> Result<Vec<Row>> {
    let driving_alias = rt.driving_alias().to_owned();
    let driving_table = db.table(rt.driving_table())?;
    let mut opts = ExecOptions {
        lock: LockPolicy::Shared,
        ..Default::default()
    };
    match (rt.stmt.tracking(), g) {
        (Tracking::Bitmap { granule_rows, .. }, Granule::Ordinal(go)) => {
            // The granule covers `granule_rows` consecutive row ordinals;
            // ALL its live rows migrate together (page granularity migrates
            // the page, §4.4.3).
            let slots = driving_table.heap().slots_per_page();
            let start = go * granule_rows;
            let mut rows: Vec<(RowId, Row)> = Vec::new();
            for ordinal in start..start + granule_rows {
                let rid = RowId::from_ordinal(ordinal, slots);
                if let Some(row) = db.read_row(txn, &driving_table, rid, LockPolicy::Shared)? {
                    rows.push((rid, row));
                }
            }
            opts.driving = vec![(driving_alias, rows)];
        }
        (
            Tracking::Hash {
                key_alias,
                key_exprs,
            },
            Granule::Group(key),
        ) => {
            // Restrict the spec to the group: key_exprs = key values.
            let mut filter: Option<Expr> = None;
            for (e, v) in key_exprs.iter().zip(key.iter()) {
                let conj = e.clone().eq(Expr::Lit(v.clone()));
                filter = Some(match filter {
                    None => conj,
                    Some(f) => f.and(conj),
                });
            }
            if let Some(f) = filter {
                opts.extra_filters.insert(key_alias.clone(), f);
            }
        }
        (
            Tracking::PairHash {
                left_alias,
                right_alias,
            },
            Granule::Group(key),
        ) => {
            // key = [left ordinal, right ordinal]; pin one row per side.
            let (l, r) = match key.as_slice() {
                [Value::Int(l), Value::Int(r)] => (*l as u64, *r as u64),
                other => {
                    return Err(Error::Internal(format!(
                        "pair granule key must be two ordinals, got {other:?}"
                    )))
                }
            };
            let spec = &rt.stmt.spec;
            let right_table = db.table(&spec.input(right_alias).expect("resolved").table)?;
            let left_rid = RowId::from_ordinal(l, driving_table.heap().slots_per_page());
            let right_rid = RowId::from_ordinal(r, right_table.heap().slots_per_page());
            let left_rows = db
                .read_row(txn, &driving_table, left_rid, LockPolicy::Shared)?
                .map(|row| vec![(left_rid, row)])
                .unwrap_or_default();
            let right_rows = db
                .read_row(txn, &right_table, right_rid, LockPolicy::Shared)?
                .map(|row| vec![(right_rid, row)])
                .unwrap_or_default();
            opts.driving = vec![
                (left_alias.clone(), left_rows),
                (right_alias.clone(), right_rows),
            ];
        }
        (t, g) => {
            return Err(Error::Internal(format!(
                "granule kind {g:?} does not match tracking {t:?}"
            )))
        }
    }
    let out = execute_spec(db, txn, &rt.stmt.spec, &opts)?;
    Ok(out.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::BitmapTracker;
    use crate::hashmap::HashTracker;
    use crate::plan::MigrationStatement;
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
    use bullfrog_engine::{DbConfig, EngineMode};
    use bullfrog_query::{AggFunc, SelectSpec};
    use std::sync::atomic::Ordering;

    fn orders_db(mode: EngineMode) -> Arc<Database> {
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        db.create_table(
            TableSchema::new(
                "order_line",
                vec![
                    ColumnDef::new("ol_o_id", DataType::Int),
                    ColumnDef::new("ol_number", DataType::Int),
                    ColumnDef::new("ol_amount", DataType::Decimal),
                ],
            )
            .with_primary_key(&["ol_o_id", "ol_number"]),
        )
        .unwrap();
        db.with_txn(|txn| {
            for o in 0..20i64 {
                for n in 0..5i64 {
                    db.insert(txn, "order_line", row![o, n, o * 100 + n])?;
                }
            }
            Ok(())
        })
        .unwrap();
        db
    }

    /// 1:1 statement: copy order_line adding a derived column.
    fn copy_runtime(db: &Database) -> StatementRuntime {
        let spec = SelectSpec::new()
            .from_table("order_line", "ol")
            .select("ol_o_id", Expr::col("ol", "ol_o_id"))
            .select("ol_number", Expr::col("ol", "ol_number"))
            .select(
                "double_amount",
                Expr::col("ol", "ol_amount").mul(Expr::lit(2)),
            );
        let out = TableSchema::new(
            "order_line2",
            vec![
                ColumnDef::new("ol_o_id", DataType::Int),
                ColumnDef::new("ol_number", DataType::Int),
                ColumnDef::new("double_amount", DataType::Decimal),
            ],
        )
        .with_primary_key(&["ol_o_id", "ol_number"]);
        db.create_table(out.clone()).unwrap();
        let mut stmt = MigrationStatement::new(out, spec);
        stmt.resolve(db).unwrap();
        let cap = db.table("order_line").unwrap().heap().ordinal_bound();
        StatementRuntime {
            id: 0,
            stmt,
            tracker: Arc::new(BitmapTracker::new(cap, 1)),
            stats: Arc::new(MigrationStats::new()),
            in_flight: AtomicU64::new(0),
        }
    }

    /// n:1 statement: per-order totals.
    fn agg_runtime(db: &Database) -> StatementRuntime {
        let spec = SelectSpec::new()
            .from_table("order_line", "ol")
            .select("o_id", Expr::col("ol", "ol_o_id"))
            .select_agg("total", AggFunc::Sum, Expr::col("ol", "ol_amount"));
        let out = TableSchema::new(
            "order_totals",
            vec![
                ColumnDef::new("o_id", DataType::Int),
                ColumnDef::new("total", DataType::Decimal),
            ],
        )
        .with_primary_key(&["o_id"]);
        db.create_table(out.clone()).unwrap();
        let mut stmt = MigrationStatement::new(out, spec);
        stmt.resolve(db).unwrap();
        StatementRuntime {
            id: 1,
            stmt,
            tracker: Arc::new(HashTracker::new()),
            stats: Arc::new(MigrationStats::new()),
            in_flight: AtomicU64::new(0),
        }
    }

    #[test]
    fn candidates_follow_the_predicate() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = copy_runtime(&db);
            let pred = Expr::column("ol_o_id").eq(Expr::lit(3));
            let c = candidates_for(&db, &rt, Some(&pred)).unwrap();
            assert_eq!(c.len(), 5, "five lines for order 3");
            let all = candidates_for(&db, &rt, None).unwrap();
            assert_eq!(all.len(), 100);
        }
    }

    #[test]
    fn hash_candidates_are_group_keys() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = agg_runtime(&db);
            let pred = Expr::column("o_id").eq(Expr::lit(3));
            let c = candidates_for(&db, &rt, Some(&pred)).unwrap();
            assert_eq!(c, vec![Granule::Group(vec![Value::Int(3)])]);
            let all = candidates_for(&db, &rt, None).unwrap();
            assert_eq!(all.len(), 20, "one group per order");
        }
    }

    #[test]
    fn migrate_selected_candidates_and_query() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = copy_runtime(&db);
            let pred = Expr::column("ol_o_id").eq(Expr::lit(3));
            let c = candidates_for(&db, &rt, Some(&pred)).unwrap();
            migrate_candidates(&db, &rt, c, &MigrateOptions::default()).unwrap();
            let rows = db.select_unlocked("order_line2", Some(&pred)).unwrap();
            assert_eq!(rows.len(), 5);
            // Derived column is computed.
            assert!(rows.iter().any(|(_, r)| r[2] == Value::Decimal(2 * 302)));
            assert_eq!(MigrationStats::get(&rt.stats.rows_migrated), 5);
            assert_eq!(MigrationStats::get(&rt.stats.granules_migrated), 5);
            // Re-running is a no-op: already migrated.
            let c = candidates_for(&db, &rt, Some(&pred)).unwrap();
            migrate_candidates(&db, &rt, c, &MigrateOptions::default()).unwrap();
            assert_eq!(MigrationStats::get(&rt.stats.rows_migrated), 5);
        }
    }

    #[test]
    fn aggregate_group_migrates_whole_group() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = agg_runtime(&db);
            let c = vec![Granule::Group(vec![Value::Int(7)])];
            migrate_candidates(&db, &rt, c, &MigrateOptions::default()).unwrap();
            let rows = db.select_unlocked("order_totals", None).unwrap();
            assert_eq!(rows.len(), 1);
            let expected: i64 = (0..5).map(|n| 700 + n).sum();
            assert_eq!(
                rows[0].1,
                Row(vec![Value::Int(7), Value::Decimal(expected)])
            );
        }
    }

    #[test]
    fn injected_abort_resets_and_retry_succeeds() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = copy_runtime(&db);
            let c = candidates_for(&db, &rt, None).unwrap();
            // Fail the first 3 migration transactions, then succeed.
            let countdown = Arc::new(std::sync::atomic::AtomicU64::new(3));
            let cd = Arc::clone(&countdown);
            let opts = MigrateOptions {
                failpoint: Some(Arc::new(move || {
                    cd.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                })),
                ..Default::default()
            };
            migrate_candidates(&db, &rt, c, &opts).unwrap();
            assert_eq!(MigrationStats::get(&rt.stats.migration_aborts), 3);
            // All rows present exactly once despite the aborts.
            let rows = db.select_unlocked("order_line2", None).unwrap();
            assert_eq!(rows.len(), 100);
            assert_eq!(MigrationStats::get(&rt.stats.rows_migrated), 100);
        }
    }

    #[test]
    fn on_conflict_mode_is_idempotent() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = copy_runtime(&db);
            let opts = MigrateOptions {
                dedup: DedupMode::OnConflict,
                ..Default::default()
            };
            let pred = Expr::column("ol_o_id").eq(Expr::lit(3));
            let c = candidates_for(&db, &rt, Some(&pred)).unwrap();
            migrate_candidates(&db, &rt, c.clone(), &opts).unwrap();
            assert_eq!(MigrationStats::get(&rt.stats.rows_migrated), 5);
            // Force a re-migration with a cleared tracker state view: simulate
            // a second worker that never saw the first's tracker.
            let rt2 = StatementRuntime {
                id: 0,
                stmt: rt.stmt.clone(),
                tracker: Arc::new(BitmapTracker::new(
                    db.table("order_line").unwrap().heap().ordinal_bound(),
                    1,
                )),
                stats: Arc::new(MigrationStats::new()),
                in_flight: AtomicU64::new(0),
            };
            migrate_candidates(&db, &rt2, c, &opts).unwrap();
            assert_eq!(
                MigrationStats::get(&rt2.stats.conflict_skips),
                5,
                "duplicates rejected at insert"
            );
            assert_eq!(db.table("order_line2").unwrap().live_count(), 5);
        }
    }

    #[test]
    fn concurrent_workers_migrate_exactly_once() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = Arc::new(copy_runtime(&db));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let db = Arc::clone(&db);
                let rt = Arc::clone(&rt);
                handles.push(std::thread::spawn(move || {
                    let c = candidates_for(&db, &rt, None).unwrap();
                    migrate_candidates(&db, &rt, c, &MigrateOptions::default()).unwrap();
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(db.table("order_line2").unwrap().live_count(), 100);
            assert_eq!(MigrationStats::get(&rt.stats.rows_migrated), 100);
            assert_eq!(MigrationStats::get(&rt.stats.granules_migrated), 100);
        }
    }

    #[test]
    fn concurrent_workers_with_aborts_still_exactly_once() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = orders_db(mode);
            assert_eq!(db.config().mode, mode);
            let rt = Arc::new(agg_runtime(&db));
            let mut handles = Vec::new();
            for w in 0..8u64 {
                let db = Arc::clone(&db);
                let rt = Arc::clone(&rt);
                handles.push(std::thread::spawn(move || {
                    // Every worker aborts its first two migration txns.
                    let countdown = Arc::new(std::sync::atomic::AtomicU64::new(2));
                    let cd = Arc::clone(&countdown);
                    let opts = MigrateOptions {
                        failpoint: Some(Arc::new(move || {
                            cd.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                                v.checked_sub(1)
                            })
                            .is_ok()
                        })),
                        ..Default::default()
                    };
                    let _ = w;
                    let c = candidates_for(&db, &rt, None).unwrap();
                    migrate_candidates(&db, &rt, c, &opts).unwrap();
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let rows = db.select_unlocked("order_totals", None).unwrap();
            assert_eq!(rows.len(), 20, "each order total exactly once");
            assert_eq!(MigrationStats::get(&rt.stats.granules_migrated), 20);
            assert!(MigrationStats::get(&rt.stats.migration_aborts) >= 1);
        }
    }
}
