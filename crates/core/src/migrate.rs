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
//! 3. stops claiming once [`TXN_BOX`] has passed since its first claim,
//!    so every migration transaction is short and a waiter on one of its
//!    granules waits for few others;
//! 4. commits, then flips the WIP granules' statuses to *migrated*
//!    (Algorithm 1 line 9) — or, on abort, resets them so another worker
//!    can take over (§3.5);
//! 5. repeats with the unvisited candidates, then with the SKIP list until
//!    it drains (line 10), blocking briefly on an in-progress granule only
//!    once no unclaimed fresh candidate remains.
//!
//! Each statement's spec is bound once, when its [`StatementRuntime`] is
//! built, and run per granule with the granule's rows or group key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_engine::exec::{bind_to_table, strip_aliases, BoundSpec, Restriction};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{transpose, BoundExpr, Expr};
use bullfrog_storage::Table;
use bullfrog_txn::wal::GranuleKey;
use bullfrog_txn::{CommitTicket, LogRecord, Transaction};

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
    /// The statement's spec, bound once for per-granule runs.
    plan: GranulePlan,
}

/// A statement's spec bound for granule runs, with the tables whose rows
/// a granule pins: the driving table of a bitmap statement, both sides of
/// a pair-hash one, none for a hash statement (its run is keyed by the
/// group key instead).
struct GranulePlan {
    spec: BoundSpec,
    pinned: Vec<Arc<Table>>,
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
    /// A runtime for resolved statement `stmt` (plan position `id`),
    /// binding its spec against `db`'s input tables.
    pub fn new(
        db: &Database,
        id: u32,
        stmt: MigrationStatement,
        tracker: Arc<dyn Tracker>,
        stats: Arc<MigrationStats>,
    ) -> Result<Self> {
        let (pinned, keyed): (Vec<&str>, _) = match stmt.tracking() {
            Tracking::Bitmap { driving_alias, .. } => (vec![driving_alias.as_str()], None),
            Tracking::Hash {
                key_alias,
                key_exprs,
            } => (Vec::new(), Some((key_alias.as_str(), key_exprs.as_slice()))),
            Tracking::PairHash {
                left_alias,
                right_alias,
            } => (vec![left_alias.as_str(), right_alias.as_str()], None),
        };
        let spec = BoundSpec::bind(
            db,
            &stmt.spec,
            Restriction {
                extra_filters: None,
                pinned: &pinned,
                keyed,
            },
        )?;
        let pinned = pinned
            .iter()
            .map(|alias| db.table(&stmt.spec.input(alias).expect("resolved").table))
            .collect::<Result<_>>()?;
        Ok(StatementRuntime {
            id,
            stmt,
            tracker,
            stats,
            in_flight: AtomicU64::new(0),
            plan: GranulePlan { spec, pinned },
        })
    }

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
            let bound_keys: Vec<BoundExpr> = key_exprs
                .iter()
                .map(|e| bind_to_table(&table, &strip_aliases(e)))
                .collect::<Result<_>>()?;
            let rows = db.select_unlocked(driving_table, filter.as_ref())?;
            let mut keys: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
            for (_, row) in &rows {
                let key: Vec<Value> = bound_keys
                    .iter()
                    .map(|e| e.eval(row))
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
    /// Marks granules migrated by a background worker in the stats; a
    /// background call also returns without waiting for durability.
    pub background: bool,
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

/// How long one migration transaction keeps claiming granules, counted
/// from its first claim. After the box it commits what it holds, and its
/// unvisited candidates go to the next transaction: a claim is held for
/// about one box plus one granule copy, and a waiter on it waits that
/// long, not for a whole request's scope.
pub const TXN_BOX: Duration = Duration::from_millis(1);

/// Runs Algorithm 1 to completion for the given candidates: when this
/// returns `Ok`, every candidate granule is *migrated* (by this worker or
/// another) and the client request may proceed on the new schema.
///
/// Every migration transaction commits without waiting for durability.
/// A foreground call (`!opts.background`) then waits once, on the last
/// commit's ticket, for the outcome [`Database::commit`] would have
/// given: the durable horizon covers every earlier commit of the
/// call, so one wait acknowledges them all.
pub fn migrate_candidates(
    db: &Database,
    rt: &StatementRuntime,
    candidates: Vec<Granule>,
    opts: &MigrateOptions,
) -> Result<()> {
    match opts.dedup {
        DedupMode::OnConflict => migrate_on_conflict(db, rt, candidates, opts),
        DedupMode::Tracker => {
            let last = migrate_boxes(db, rt, candidates, opts)?;
            match last {
                Some(ticket) if !opts.background => db.wait_acked(&ticket),
                _ => Ok(()),
            }
        }
    }
}

/// The migration-transaction loop of [`migrate_candidates`]. Returns the
/// ticket of the last commit that wrote, if any.
fn migrate_boxes(
    db: &Database,
    rt: &StatementRuntime,
    mut fresh: Vec<Granule>,
    opts: &MigrateOptions,
) -> Result<Option<CommitTicket>> {
    let mut last = None;
    let mut pos = 0;
    let mut skipped: Vec<Granule> = Vec::new();
    loop {
        if pos == fresh.len() {
            let Some(first) = skipped.first() else {
                return Ok(last);
            };
            // Line 10: no fresh work is left, so block on the first
            // contended granule until its owner finishes or aborts, then
            // recheck the contended ones.
            MigrationStats::add(&rt.stats.waits, 1);
            let started = Instant::now();
            rt.tracker.wait_not_in_progress(first, opts.wait_timeout);
            db.obs()
                .histogram("migrate.claim_wait_us")
                .record_micros(started.elapsed());
            fresh = std::mem::take(&mut skipped);
            pos = 0;
        }
        if let Some(cancel) = &opts.cancel {
            if cancel.load(std::sync::atomic::Ordering::Acquire) {
                return Err(Error::Internal("migration cancelled".into()));
            }
        }
        match migrate_once(db, rt, &fresh[pos..], opts) {
            Ok(boxed) => {
                pos += boxed.visited;
                skipped.extend(boxed.skip);
                if boxed.ticket.is_some() {
                    last = boxed.ticket;
                }
            }
            // The migration transaction aborted (lock timeout / injected):
            // its WIP was reset; retry from the same candidate.
            Err(e) if e.is_retryable() => continue,
            Err(e) => return Err(e),
        }
    }
}

/// What one migration transaction did with its candidates.
struct Boxed {
    /// Candidates visited (claimed, skipped or found migrated), a prefix.
    visited: usize,
    /// The SKIP list: visited candidates another worker had in progress.
    skip: Vec<Granule>,
    /// The commit's ticket, when the transaction claimed any granule.
    ticket: Option<CommitTicket>,
}

/// One iteration of Algorithm 1's do-loop: a single migration transaction
/// over a prefix of `candidates`, closed [`TXN_BOX`] after its first
/// claim. On abort the WIP statuses are reset and the retryable error is
/// returned.
fn migrate_once(
    db: &Database,
    rt: &StatementRuntime,
    candidates: &[Granule],
    opts: &MigrateOptions,
) -> Result<Boxed> {
    let _in_flight = InFlight::enter(rt);
    let mut wip = WorkList::new();
    let mut skip = WorkList::new();
    let mut txn = db.begin();
    if let Some(parent) = opts.parent {
        txn.set_ally(parent);
    }

    let mut counts = RowCounts::default();
    let mut failure: Option<Error> = None;
    let mut first_claim: Option<Instant> = None;
    let mut visited = 0;
    for g in candidates {
        if first_claim.is_some_and(|t| t.elapsed() >= TXN_BOX) {
            break;
        }
        visited += 1;
        if rt.tracker.try_claim(g, &mut wip, &mut skip) {
            first_claim.get_or_insert_with(Instant::now);
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
    // Migration transactions pipeline past the group-commit barrier:
    // their batch is ordered in the WAL at enqueue time, and every
    // durability acknowledgement waits on the *merged* (all-shard)
    // horizon, so a client that later reads migrated rows and commits
    // at a higher LSN transitively covers this batch regardless of
    // which shards the two transactions hash to. Recovery replays only
    // the gap-free durable prefix, so granule marks and rows stay
    // atomic, and a crash can only lose this batch together with
    // everything that depended on it — the granule then simply shows
    // unmigrated and is copied again. A foreground caller waits on the
    // ticket before the client proceeds (`migrate_candidates`).
    match db.commit_nowait(&mut txn) {
        Ok(ticket) => {
            rt.tracker.mark_migrated(wip.items());
            counts.apply(&rt.stats);
            MigrationStats::add(&rt.stats.migration_txns, 1);
            MigrationStats::add(&rt.stats.granules_migrated, wip.len() as u64);
            if opts.background {
                MigrationStats::add(&rt.stats.background_granules, wip.len() as u64);
            }
            db.obs()
                .histogram("migrate.txn_granules")
                .record(wip.len() as u64);
            Ok(Boxed {
                visited,
                ticket: (!wip.is_empty()).then_some(ticket),
                skip: skip.into_items(),
            })
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
    let output = run_granule(db, txn, rt, g)?;
    ensure_fk_targets(db, rt, &output, opts)?;
    let (inserted, rejected) = db.insert_rows(txn, &rt.stmt.output.name, output, false)?;
    counts.migrated += inserted;
    match dedup {
        // §2.4: a constraint added by the migration drops this record;
        // warn (count) and continue lazily.
        DedupMode::Tracker => counts.dropped += rejected,
        // §3.7: another worker's copy of the row is already there.
        DedupMode::OnConflict => counts.conflicts += rejected,
    }
    // Granule record for tracker recovery (§3.5).
    txn.push_redo(LogRecord::MigrationGranule {
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

/// Runs the statement's bound spec restricted to one granule.
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
fn run_granule(
    db: &Database,
    txn: &mut Transaction,
    rt: &StatementRuntime,
    g: &Granule,
) -> Result<Vec<Row>> {
    let plan = &rt.plan;
    let lock = LockPolicy::Shared;
    match (rt.stmt.tracking(), g) {
        (Tracking::Bitmap { granule_rows, .. }, Granule::Ordinal(go)) => {
            // The granule covers `granule_rows` consecutive row ordinals;
            // ALL its live rows migrate together (page granularity migrates
            // the page, §4.4.3).
            let driving = &plan.pinned[0];
            let slots = driving.heap().slots_per_page();
            let start = go * granule_rows;
            let mut rows = Vec::new();
            for ordinal in start..start + granule_rows {
                let rid = RowId::from_ordinal(ordinal, slots);
                if let Some(row) = db.read_row(txn, driving, rid, lock)? {
                    rows.push(row);
                }
            }
            plan.spec.run(db, txn, vec![rows], &[], lock)
        }
        // The run restricts the key alias to the group: key_exprs = key.
        (Tracking::Hash { .. }, Granule::Group(key)) => {
            plan.spec.run(db, txn, Vec::new(), key, lock)
        }
        (Tracking::PairHash { .. }, Granule::Group(key)) => {
            // key = [left ordinal, right ordinal]; pin one row per side.
            let ordinals = match key.as_slice() {
                [Value::Int(l), Value::Int(r)] => [*l as u64, *r as u64],
                other => {
                    return Err(Error::Internal(format!(
                        "pair granule key must be two ordinals, got {other:?}"
                    )))
                }
            };
            let mut pinned = Vec::with_capacity(2);
            for (t, ordinal) in plan.pinned.iter().zip(ordinals) {
                let rid = RowId::from_ordinal(ordinal, t.heap().slots_per_page());
                pinned.push(db.read_row(txn, t, rid, lock)?.into_iter().collect());
            }
            plan.spec.run(db, txn, pinned, &[], lock)
        }
        (t, g) => Err(Error::Internal(format!(
            "granule kind {g:?} does not match tracking {t:?}"
        ))),
    }
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
        StatementRuntime::new(
            db,
            0,
            stmt,
            Arc::new(BitmapTracker::new(cap, 1)),
            Arc::new(MigrationStats::new()),
        )
        .unwrap()
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
        StatementRuntime::new(
            db,
            1,
            stmt,
            Arc::new(HashTracker::new()),
            Arc::new(MigrationStats::new()),
        )
        .unwrap()
    }

    /// Three groups of 2,000 rows and their per-group totals: every
    /// group's copy outlasts [`TXN_BOX`].
    fn big_groups_runtime(mode: EngineMode) -> (Arc<Database>, StatementRuntime) {
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        db.create_table(
            TableSchema::new(
                "big",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                    ColumnDef::new("amount", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.with_txn(|txn| {
            for id in 0..6_000i64 {
                db.insert(txn, "big", row![id, id % 3, 1])?;
            }
            Ok(())
        })
        .unwrap();
        let spec = SelectSpec::new()
            .from_table("big", "b")
            .select("grp", Expr::col("b", "grp"))
            .select_agg("total", AggFunc::Sum, Expr::col("b", "amount"));
        let out = TableSchema::new(
            "big_totals",
            vec![
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("total", DataType::Int),
            ],
        )
        .with_primary_key(&["grp"]);
        db.create_table(out.clone()).unwrap();
        let mut stmt = MigrationStatement::new(out, spec);
        stmt.resolve(&db).unwrap();
        let rt = StatementRuntime::new(
            &db,
            0,
            stmt,
            Arc::new(HashTracker::new()),
            Arc::new(MigrationStats::new()),
        )
        .unwrap();
        (db, rt)
    }

    #[test]
    fn a_granule_that_outlasts_the_box_commits_alone_and_exactly_once() {
        for mode in EngineMode::ALL {
            for aborts in [0u64, 2] {
                eprintln!("engine mode: {mode:?}, injected aborts: {aborts}");
                let (db, rt) = big_groups_runtime(mode);
                assert_eq!(db.config().mode, mode);
                let countdown = Arc::new(AtomicU64::new(aborts));
                let opts = MigrateOptions {
                    failpoint: Some(Arc::new(move || {
                        countdown
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                            .is_ok()
                    })),
                    ..Default::default()
                };
                let c = candidates_for(&db, &rt, None).unwrap();
                assert_eq!(c.len(), 3);
                migrate_candidates(&db, &rt, c, &opts).unwrap();

                let mut rows: Vec<Row> = db
                    .select_unlocked("big_totals", None)
                    .unwrap()
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect();
                rows.sort();
                let want: Vec<Row> = (0..3i64).map(|g| row![g, 2_000i64]).collect();
                assert_eq!(rows, want, "each group copied exactly once");
                assert_eq!(MigrationStats::get(&rt.stats.migration_aborts), aborts);
                assert_eq!(MigrationStats::get(&rt.stats.migration_txns), 3);
                assert_eq!(MigrationStats::get(&rt.stats.granules_migrated), 3);
                let snap = db.obs().snapshot();
                let per_txn = snap.histogram("migrate.txn_granules").unwrap();
                assert_eq!(per_txn.count(), 3, "one record per committed transaction");
                assert_eq!(per_txn.sum, 3, "one granule per transaction");
            }
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
            let rt2 = StatementRuntime::new(
                &db,
                0,
                rt.stmt.clone(),
                Arc::new(BitmapTracker::new(
                    db.table("order_line").unwrap().heap().ordinal_bound(),
                    1,
                )),
                Arc::new(MigrationStats::new()),
            )
            .unwrap();
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
