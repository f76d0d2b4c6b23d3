//! The migration baselines the paper evaluates BullFrog against (§4):
//! **eager** (single-step, blocking) and **multi-step** (background copy
//! with dual writes). Both implement [`ClientAccess`] so the same workload
//! driver runs against every strategy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_engine::exec::{bind_to_table, execute_spec, strip_aliases, ExecOptions, QueryOutput};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{BoundExpr, Expr, SelectSpec};
use bullfrog_txn::{LockKey, LockMode, Transaction};
use parking_lot::Mutex;

use crate::access::{ClientAccess, SchemaVersion};
use crate::plan::{MigrationPlan, MigrationStatement, Tracking};

// ---------------------------------------------------------------------------
// Eager migration
// ---------------------------------------------------------------------------

/// Eager single-step migration: on [`EagerMigrator::migrate`], every input
/// and output table is locked exclusively, all data is transformed and
/// copied, and only then do client requests proceed. Requests that touch
/// the affected tables during the window block on the table locks (the
/// paper's request queue); unrelated requests (e.g. TPC-C StockLevel
/// during the customer split) keep running.
pub struct EagerMigrator {
    db: Arc<Database>,
    flipped: AtomicBool,
}

impl EagerMigrator {
    /// Wraps a database.
    pub fn new(db: Arc<Database>) -> Self {
        EagerMigrator {
            db,
            flipped: AtomicBool::new(false),
        }
    }

    /// Runs the whole migration synchronously; returns when the new schema
    /// is fully populated. The logical flip happens once every affected
    /// table is X-locked: clients seeing [`SchemaVersion::New`] block on
    /// the table locks until the copy finishes, and none can read the
    /// still-empty output before the locks are held.
    pub fn migrate(&self, mut plan: MigrationPlan) -> Result<()> {
        plan.resolve(&self.db)?;
        for s in &plan.statements {
            self.db.create_table(s.output.clone())?;
        }

        let mut txn = self.db.begin();
        let result = (|| -> Result<()> {
            // X-lock every affected table for the duration (clients queue).
            for name in plan.input_tables().into_iter().chain(plan.output_tables()) {
                let t = self.db.table(&name)?;
                // Eager migration may hold these locks for a long time;
                // wait well beyond the normal client deadline.
                self.db
                    .lock_manager()
                    .acquire_deadline(
                        txn.id(),
                        LockKey::Table(t.id()),
                        LockMode::X,
                        Duration::from_secs(3600),
                    )
                    .map(|newly| {
                        if newly {
                            txn.record_lock(LockKey::Table(t.id()));
                        }
                    })?;
            }
            self.flipped.store(true, Ordering::Release);
            for s in &plan.statements {
                let out = execute_spec(&self.db, &mut txn, &s.spec, &ExecOptions::default())?;
                for row in out.rows {
                    self.db.insert_with(&mut txn, &s.output.name, row, false)?;
                }
            }
            Ok(())
        })();
        match result {
            Ok(()) => self.db.commit(&mut txn),
            Err(e) => {
                self.db.abort(&mut txn);
                self.flipped.store(false, Ordering::Release);
                Err(e)
            }
        }
    }
}

impl ClientAccess for EagerMigrator {
    fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn version(&self) -> SchemaVersion {
        if self.flipped.load(Ordering::Acquire) {
            SchemaVersion::New
        } else {
            SchemaVersion::Old
        }
    }

    fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        self.db.select(txn, table, predicate, policy)
    }

    fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>> {
        // Block on the table lock first so eager migration actually queues
        // point reads too (the pk index itself is not lock-mediated).
        let t = self.db.table(table)?;
        self.db.lock(
            txn,
            LockKey::Table(t.id()),
            match policy {
                LockPolicy::None | LockPolicy::Shared => LockMode::IS,
                LockPolicy::Exclusive => LockMode::IX,
            },
        )?;
        self.db.get_by_pk(txn, table, key, policy)
    }

    fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId> {
        self.db.insert(txn, table, row)
    }

    fn update(&self, txn: &mut Transaction, table: &str, rid: RowId, row: Row) -> Result<()> {
        self.db.update(txn, table, rid, row)
    }

    fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row> {
        self.db.delete(txn, table, rid)
    }

    fn execute_spec(
        &self,
        txn: &mut Transaction,
        spec: &SelectSpec,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        execute_spec(&self.db, txn, spec, opts)
    }
}

// ---------------------------------------------------------------------------
// Multi-step migration
// ---------------------------------------------------------------------------

/// Per-statement mirroring metadata: how a write to an input table maps to
/// the output slice it invalidates.
struct MirrorRule {
    /// Statement index.
    stmt: usize,
    /// Input table name this rule fires on.
    input_table: String,
    /// Key column positions in the *input* row identifying the slice.
    input_key_cols: Vec<usize>,
    /// The alias the recompute filter applies to.
    filter_alias: String,
    /// Column names within `filter_alias`'s table matching the key.
    filter_cols: Vec<String>,
    /// Output column positions carrying the key (for the delete).
    output_key_cols: Vec<usize>,
}

/// Multi-step ("shadow table") migration, the state of the art the paper
/// compares against (§1, §4): the migration is registered ahead of time, a
/// background process copies data into the new schema, **reads are served
/// from the old schema while writes go to both schemas**, and only once
/// the copy has caught up does the system switch clients to the new
/// schema.
pub struct MultiStepMigrator {
    db: Arc<Database>,
    plan: Mutex<Option<MigrationPlan>>,
    rules: Mutex<Vec<MirrorRule>>,
    caught_up: Arc<AtomicBool>,
    copier: Mutex<Option<std::thread::JoinHandle<Result<()>>>>,
    /// Granules per copier transaction.
    pub copy_batch: usize,
    /// Pause between copier batches.
    pub copy_pause: Duration,
}

impl MultiStepMigrator {
    /// Wraps a database.
    pub fn new(db: Arc<Database>) -> Self {
        MultiStepMigrator {
            db,
            plan: Mutex::new(None),
            rules: Mutex::new(Vec::new()),
            caught_up: Arc::new(AtomicBool::new(false)),
            copier: Mutex::new(None),
            copy_batch: 256,
            copy_pause: Duration::from_millis(1),
        }
    }

    /// Registers the migration: creates the output tables, derives the
    /// dual-write mirror rules, and starts the background copier.
    pub fn register(&self, mut plan: MigrationPlan) -> Result<()> {
        plan.resolve(&self.db)?;
        for s in &plan.statements {
            self.db.create_table(s.output.clone())?;
        }
        let mut rules = Vec::new();
        for (i, s) in plan.statements.iter().enumerate() {
            rules.extend(derive_mirror_rules(&self.db, i, s)?);
        }
        *self.rules.lock() = rules;

        // Background copier.
        let db = Arc::clone(&self.db);
        let statements = plan.statements.clone();
        let caught_up = Arc::clone(&self.caught_up);
        let batch = self.copy_batch;
        let pause = self.copy_pause;
        let handle = std::thread::spawn(move || -> Result<()> {
            for s in &statements {
                copy_statement(&db, s, batch, pause)?;
            }
            caught_up.store(true, Ordering::Release);
            Ok(())
        });
        *self.copier.lock() = Some(handle);
        *self.plan.lock() = Some(plan);
        Ok(())
    }

    /// True once the background copy finished and clients may switch.
    pub fn is_caught_up(&self) -> bool {
        self.caught_up.load(Ordering::Acquire)
    }

    /// Blocks until the copier finishes (tests/benches).
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.is_caught_up() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.is_caught_up()
    }

    /// Applies the dual-write mirror for a write to `table` in `txn`:
    /// recomputes the output slices keyed by the written row(s).
    fn mirror(&self, txn: &mut Transaction, table: &str, rows: &[&Row]) -> Result<()> {
        let plan_guard = self.plan.lock();
        let Some(plan) = plan_guard.as_ref() else {
            return Ok(());
        };
        let rules = self.rules.lock();
        for rule in rules.iter().filter(|r| r.input_table == table) {
            let s = &plan.statements[rule.stmt];
            let mut keys: Vec<Vec<Value>> =
                rows.iter().map(|r| r.key(&rule.input_key_cols)).collect();
            keys.sort();
            keys.dedup();
            for key in keys {
                rewrite_slice(&self.db, txn, s, rule, &key)?;
            }
        }
        Ok(())
    }

    /// Delta mirror for a fresh insert: when the written table is the
    /// statement's driving/key table and the statement does not aggregate,
    /// only the new row's join products need inserting — the trigger-based
    /// tools the paper cites propagate exactly this delta. Statements where
    /// the delta shortcut does not apply fall back to the slice rewrite.
    fn mirror_insert(&self, txn: &mut Transaction, table: &str, row: &Row) -> Result<()> {
        let plan_guard = self.plan.lock();
        let Some(plan) = plan_guard.as_ref() else {
            return Ok(());
        };
        let rules = self.rules.lock();
        for rule in rules.iter().filter(|r| r.input_table == table) {
            let s = &plan.statements[rule.stmt];
            let driving_alias = match s.tracking() {
                Tracking::Bitmap { driving_alias, .. } => driving_alias,
                Tracking::Hash { key_alias, .. } => key_alias,
                Tracking::PairHash { left_alias, .. } => left_alias,
            };
            let driving_table = &s.spec.input(driving_alias).expect("resolved").table;
            if !s.spec.is_aggregate() && driving_table == table {
                // RowId is irrelevant for pinned rows; use a placeholder.
                let opts = ExecOptions {
                    driving: vec![(
                        driving_alias.clone(),
                        vec![(bullfrog_common::RowId::new(0, 0), row.clone())],
                    )],
                    lock: LockPolicy::None,
                    ..Default::default()
                };
                let out = execute_spec(&self.db, txn, &s.spec, &opts)?;
                for out_row in out.rows {
                    self.db
                        .insert_or_ignore_with(txn, &s.output.name, out_row, false)?;
                }
            } else {
                let key = row.key(&rule.input_key_cols);
                rewrite_slice(&self.db, txn, s, rule, &key)?;
            }
        }
        Ok(())
    }
}

impl MultiStepMigrator {
    /// Delta mirror for an update: when the slice key did not change and
    /// the statement does not aggregate, recompute only the updated row's
    /// join products (pinning its alias) and upsert them by the output
    /// primary key — the per-row propagation a trigger would do. Key
    /// changes and aggregates fall back to slice rewrites of both keys.
    fn mirror_update(
        &self,
        txn: &mut Transaction,
        table: &str,
        old: &Row,
        new: &Row,
    ) -> Result<()> {
        let plan_guard = self.plan.lock();
        let Some(plan) = plan_guard.as_ref() else {
            return Ok(());
        };
        let rules = self.rules.lock();
        for rule in rules.iter().filter(|r| r.input_table == table) {
            let s = &plan.statements[rule.stmt];
            let old_key = old.key(&rule.input_key_cols);
            let new_key = new.key(&rule.input_key_cols);
            let pk_upsertable =
                !s.spec.is_aggregate() && !s.output.primary_key.is_empty() && old_key == new_key;
            if !pk_upsertable {
                rewrite_slice(&self.db, txn, s, rule, &old_key)?;
                if new_key != old_key {
                    rewrite_slice(&self.db, txn, s, rule, &new_key)?;
                }
                continue;
            }
            // Pin the written table's alias to the new row image.
            let Some(alias) = s
                .spec
                .inputs
                .iter()
                .find(|i| i.table == table)
                .map(|i| i.alias.clone())
            else {
                continue;
            };
            let opts = ExecOptions {
                driving: vec![(
                    alias,
                    vec![(bullfrog_common::RowId::new(0, 0), new.clone())],
                )],
                lock: LockPolicy::None,
                ..Default::default()
            };
            let out = execute_spec(&self.db, txn, &s.spec, &opts)?;
            let pk = s.output.pk_indices()?;
            for out_row in out.rows {
                let key = out_row.key(&pk);
                if let Some((rid, _)) =
                    self.db
                        .get_by_pk(txn, &s.output.name, &key, LockPolicy::Exclusive)?
                {
                    self.db.update(txn, &s.output.name, rid, out_row)?;
                } else {
                    self.db
                        .insert_or_ignore_with(txn, &s.output.name, out_row, false)?;
                }
            }
        }
        Ok(())
    }
}

/// Recomputes one keyed slice of a statement's output inside `txn`:
/// deletes the existing output rows for the key, re-evaluates the spec
/// restricted to the key, and inserts the fresh rows.
fn rewrite_slice(
    db: &Database,
    txn: &mut Transaction,
    s: &MigrationStatement,
    rule: &MirrorRule,
    key: &[Value],
) -> Result<()> {
    // Delete existing slice (matched on the projected key columns).
    let out_schema = &s.output;
    let mut pred: Option<Expr> = None;
    for (pos, v) in rule.output_key_cols.iter().zip(key) {
        let c = Expr::column(out_schema.columns[*pos].name.clone()).eq(Expr::Lit(v.clone()));
        pred = Some(match pred {
            None => c,
            Some(p) => p.and(c),
        });
    }
    let existing = db.select(txn, &out_schema.name, pred.as_ref(), LockPolicy::Exclusive)?;
    for (rid, _) in existing {
        db.delete(txn, &out_schema.name, rid)?;
    }
    // Recompute.
    let mut filter: Option<Expr> = None;
    for (col, v) in rule.filter_cols.iter().zip(key) {
        let c = Expr::col(rule.filter_alias.clone(), col.clone()).eq(Expr::Lit(v.clone()));
        filter = Some(match filter {
            None => c,
            Some(f) => f.and(c),
        });
    }
    let mut opts = ExecOptions {
        lock: LockPolicy::None,
        ..Default::default()
    };
    if let Some(f) = filter {
        opts.extra_filters.insert(rule.filter_alias.clone(), f);
    }
    let out = execute_spec(db, txn, &s.spec, &opts)?;
    for row in out.rows {
        db.insert_with(txn, &out_schema.name, row, false)?;
    }
    Ok(())
}

/// Derives the mirror rules of a statement: for each input alias, the
/// slice key is the tracking key (hash statements) or the driving table's
/// primary key (bitmap statements), translated to each alias through the
/// join-equivalence classes; the key must also be projected into the
/// output so stale slices can be deleted.
fn derive_mirror_rules(
    db: &Database,
    stmt_idx: usize,
    s: &MigrationStatement,
) -> Result<Vec<MirrorRule>> {
    // The canonical key: expressions over the driving/key alias.
    let (key_alias, key_exprs): (String, Vec<Expr>) = match s.tracking() {
        Tracking::PairHash { .. } => {
            return Err(Error::InvalidMigration(
                "multi-step migration does not support pairwise tracking \
                 (a BullFrog-only option)"
                    .into(),
            ))
        }
        Tracking::Hash {
            key_alias,
            key_exprs,
        } => (key_alias.clone(), key_exprs.clone()),
        Tracking::Bitmap { driving_alias, .. } => {
            let table = db.table(&s.spec.input(driving_alias).expect("resolved").table)?;
            let pk = table.schema().primary_key.clone();
            if pk.is_empty() {
                return Err(Error::InvalidMigration(format!(
                    "multi-step mirroring needs a primary key on {}",
                    table.name()
                )));
            }
            (
                driving_alias.clone(),
                pk.into_iter()
                    .map(|c| Expr::col(driving_alias.clone(), c))
                    .collect(),
            )
        }
    };

    // The key must be projected in the output (to delete stale slices).
    let mut output_key_cols = Vec::with_capacity(key_exprs.len());
    for e in &key_exprs {
        let pos = s.spec.columns.iter().position(|c| match c {
            bullfrog_query::OutputColumn::Scalar { expr, .. } => expr == e,
            _ => false,
        });
        match pos {
            Some(p) => output_key_cols.push(p),
            None => {
                return Err(Error::InvalidMigration(format!(
                    "multi-step mirroring requires the slice key {e} to be \
                     projected into {}",
                    s.output.name
                )))
            }
        }
    }

    // Canonical key as bare column names on the key alias (mirroring only
    // supports plain column keys, which covers the evaluated migrations).
    let mut key_cols: Vec<bullfrog_query::ColRef> = Vec::new();
    for e in &key_exprs {
        match e {
            Expr::Col(c) => key_cols.push(c.clone()),
            other => {
                return Err(Error::InvalidMigration(format!(
                    "multi-step mirroring supports column keys only, got {other}"
                )))
            }
        }
    }

    // Equivalence classes from the join conditions let us express the key
    // on every input alias.
    let mut rules = Vec::new();
    for input in &s.spec.inputs {
        let table = db.table(&input.table)?;
        let mut input_cols: Vec<String> = Vec::with_capacity(key_cols.len());
        let mut ok = true;
        for kc in &key_cols {
            if kc.table.as_deref() == Some(input.alias.as_str()) {
                input_cols.push(kc.column.clone());
                continue;
            }
            // Find an equivalent column on this alias via join conditions.
            let mut found = None;
            for (a, b) in &s.spec.join_conds {
                if a == kc && b.table.as_deref() == Some(input.alias.as_str()) {
                    found = Some(b.column.clone());
                } else if b == kc && a.table.as_deref() == Some(input.alias.as_str()) {
                    found = Some(a.column.clone());
                }
            }
            match found {
                Some(c) => input_cols.push(c),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            // Writes to this input can't be mirrored precisely; reject at
            // registration rather than silently diverging.
            return Err(Error::InvalidMigration(format!(
                "multi-step mirroring cannot key writes to {} for output {}",
                input.table, s.output.name
            )));
        }
        let input_key_cols = table.schema().col_indices(&input_cols)?;
        rules.push(MirrorRule {
            stmt: stmt_idx,
            input_table: input.table.clone(),
            input_key_cols,
            filter_alias: key_alias.clone(),
            filter_cols: key_cols.iter().map(|c| c.column.clone()).collect(),
            output_key_cols: output_key_cols.clone(),
        });
    }
    Ok(rules)
}

/// The initial background copy of one statement: batches of slice keys,
/// copied with `INSERT ... ON CONFLICT DO NOTHING` so slices already
/// refreshed by dual writes are never clobbered with stale data.
fn copy_statement(
    db: &Database,
    s: &MigrationStatement,
    batch: usize,
    pause: Duration,
) -> Result<()> {
    match s.tracking() {
        Tracking::PairHash { .. } => {
            return Err(Error::InvalidMigration(
                "multi-step migration does not support pairwise tracking".into(),
            ))
        }
        Tracking::Bitmap { driving_alias, .. } => {
            let input = &s.spec.input(driving_alias).expect("resolved").table;
            // Snapshot only the row ids; the rows themselves are re-read
            // under shared locks inside each copy transaction, so the
            // copier never propagates a stale image past a concurrent
            // dual-written update or delete.
            let rids: Vec<bullfrog_common::RowId> = db
                .select_unlocked(input, None)?
                .into_iter()
                .map(|(rid, _)| rid)
                .collect();
            // A snapshot read can predate a concurrent dual-written
            // update or delete, and the copier would resurrect the stale
            // image: re-read the latest committed state.
            let reread = db.latest_read_policy();
            for chunk in rids.chunks(batch.max(1)) {
                db.with_txn_retry(20, |txn| {
                    let mut fresh = Vec::with_capacity(chunk.len());
                    for rid in chunk {
                        if let Some(row) = db.get(txn, input, *rid, reread)? {
                            fresh.push((*rid, row));
                        }
                    }
                    let opts = ExecOptions {
                        driving: vec![(driving_alias.clone(), fresh)],
                        lock: LockPolicy::None,
                        ..Default::default()
                    };
                    let out = execute_spec(db, txn, &s.spec, &opts)?;
                    for row in out.rows {
                        db.insert_or_ignore_with(txn, &s.output.name, row, false)?;
                    }
                    Ok(())
                })?;
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
        Tracking::Hash {
            key_alias,
            key_exprs,
        } => {
            let input = &s.spec.input(key_alias).expect("resolved").table;
            let table = db.table(input)?;
            let bound: Vec<BoundExpr> = key_exprs
                .iter()
                .map(|e| bind_to_table(&table, &strip_aliases(e)))
                .collect::<Result<_>>()?;
            let rows = db.select_unlocked(input, None)?;
            let mut keys: Vec<Vec<Value>> = Vec::new();
            for (_, row) in &rows {
                keys.push(bound.iter().map(|e| e.eval(row)).collect::<Result<_>>()?);
            }
            keys.sort();
            keys.dedup();
            for chunk in keys.chunks(batch.max(1)) {
                db.with_txn_retry(20, |txn| {
                    for key in chunk {
                        let mut filter: Option<Expr> = None;
                        for (e, v) in key_exprs.iter().zip(key.iter()) {
                            let c = e.clone().eq(Expr::Lit(v.clone()));
                            filter = Some(match filter {
                                None => c,
                                Some(f) => f.and(c),
                            });
                        }
                        // Group contents must be committed, stable, and
                        // *current* for the copied aggregate; a snapshot
                        // read can trail dual writes.
                        let mut opts = ExecOptions {
                            lock: db.latest_read_policy(),
                            ..Default::default()
                        };
                        if let Some(f) = filter {
                            opts.extra_filters.insert(key_alias.clone(), f);
                        }
                        let out = execute_spec(db, txn, &s.spec, &opts)?;
                        for row in out.rows {
                            db.insert_or_ignore_with(txn, &s.output.name, row, false)?;
                        }
                    }
                    Ok(())
                })?;
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
    }
    Ok(())
}

impl ClientAccess for MultiStepMigrator {
    fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn version(&self) -> SchemaVersion {
        if self.is_caught_up() {
            SchemaVersion::New
        } else {
            SchemaVersion::Old
        }
    }

    fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        self.db.select(txn, table, predicate, policy)
    }

    fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>> {
        self.db.get_by_pk(txn, table, key, policy)
    }

    fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId> {
        let rid = self.db.insert(txn, table, row.clone())?;
        if !self.is_caught_up() {
            self.mirror_insert(txn, table, &row)?;
        }
        Ok(rid)
    }

    fn update(&self, txn: &mut Transaction, table: &str, rid: RowId, row: Row) -> Result<()> {
        let old = self
            .db
            .get(txn, table, rid, LockPolicy::Exclusive)?
            .ok_or(Error::RowNotFound)?;
        self.db.update(txn, table, rid, row.clone())?;
        if !self.is_caught_up() {
            self.mirror_update(txn, table, &old, &row)?;
        }
        Ok(())
    }

    fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row> {
        let old = self.db.delete(txn, table, rid)?;
        if !self.is_caught_up() {
            self.mirror(txn, table, &[&old])?;
        }
        Ok(old)
    }

    fn execute_spec(
        &self,
        txn: &mut Transaction,
        spec: &SelectSpec,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        execute_spec(&self.db, txn, spec, opts)
    }
}

impl Drop for MultiStepMigrator {
    fn drop(&mut self) {
        if let Some(h) = self.copier.lock().take() {
            let _ = h.join();
        }
    }
}
