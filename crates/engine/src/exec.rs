//! Execution of [`SelectSpec`]s: filters, inner equi-joins, aggregation.
//!
//! The executor serves two masters:
//!
//! - **client read queries** (e.g. TPC-C StockLevel's join + COUNT
//!   DISTINCT), run with shared locks;
//! - **the migration engine** in `bullfrog-core`, which evaluates a
//!   migration statement restricted to a small scope: per-alias extra
//!   filters (the transposed client predicate), a pinned set of *driving
//!   rows* (the exact granules being migrated), or a keyed alias whose
//!   group-key values each run supplies.
//!
//! Execution has two phases. [`BoundSpec::bind`] resolves, once, the
//! table handles, the join order, each join's build and probe positions
//! and index, and every column reference in filters, join keys,
//! projections, group keys and aggregate arguments. [`BoundSpec::run`]
//! then executes against those positions with no name lookups. A client
//! query binds and runs once ([`execute_spec`]); a migration statement
//! binds once and runs per granule.
//!
//! Join strategy: the driving table's rows are joined to each remaining
//! input in turn, via **index nested-loop** when the next table has an
//! index on its join columns and **hash join** otherwise. Single-alias
//! filter conjuncts are pushed down to the scans.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_query::{
    conjoin, conjuncts, AggFunc, BoundExpr, ColRef, Expr, OutputColumn, SelectSpec,
};
use bullfrog_storage::{BTreeIndex, Table};
use bullfrog_txn::Transaction;

use crate::db::{index_candidates, Database, LockPolicy};

/// Result of executing a spec: output column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names (spec order).
    pub names: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

/// Per-call restrictions and locking for [`execute_spec`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Additional per-alias filters (e.g. the transposed client predicate).
    pub extra_filters: BTreeMap<String, Expr>,
    /// Pin aliases to explicit row sets instead of scanning them (the
    /// migration engine pins the granule being migrated; pairwise n:n
    /// tracking pins both join sides).
    pub driving: Vec<(String, Vec<(RowId, Row)>)>,
    /// Row-lock policy for the scans.
    pub lock: LockPolicy,
}

/// What every run of a [`BoundSpec`] restricts, fixed at bind time.
#[derive(Debug)]
pub struct Restriction<'a> {
    /// Additional per-alias filters, conjoined with the spec's own.
    pub extra_filters: Option<&'a BTreeMap<String, Expr>>,
    /// Aliases whose rows each run supplies, in the order of
    /// [`BoundSpec::run`]'s `pinned` argument. They join first.
    pub pinned: &'a [&'a str],
    /// An alias restricted to the rows whose key expressions equal the
    /// run's `key` values (a hash-tracked migration's group). It joins
    /// first, after the pinned aliases.
    pub keyed: Option<(&'a str, &'a [Expr])>,
}

/// Binds `e` to the rows of the single table `t` through [`locate`]: a
/// reference is bare or qualified by the table's catalog name.
pub fn bind_to_table(t: &Arc<Table>, e: &Expr) -> Result<BoundExpr> {
    e.bind(&mut |c| Ok(locate(&[t.name()], std::slice::from_ref(t), c)?.1))
}

/// Rewrites every column reference to a bare (unqualified) reference, for
/// evaluation against a single table.
pub fn strip_aliases(e: &Expr) -> Expr {
    e.map_columns(&|c: &ColRef| Some(Expr::Col(ColRef::bare(c.column.clone()))))
}

/// Executes `spec` under the given options: binds it, then runs it once.
pub fn execute_spec(
    db: &Database,
    txn: &mut Transaction,
    spec: &SelectSpec,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    let aliases: Vec<&str> = opts.driving.iter().map(|(a, _)| a.as_str()).collect();
    let bound = BoundSpec::bind(
        db,
        spec,
        Restriction {
            extra_filters: Some(&opts.extra_filters),
            pinned: &aliases,
            keyed: None,
        },
    )?;
    let pinned = opts
        .driving
        .iter()
        .map(|(_, rows)| rows.iter().map(|(_, r)| r.clone()).collect())
        .collect();
    let rows = bound.run(db, txn, pinned, &[], opts.lock)?;
    Ok(QueryOutput {
        names: bound.names,
        rows,
    })
}

/// A [`SelectSpec`] resolved against the catalog under one
/// [`Restriction`]; see the module docs.
pub struct BoundSpec {
    names: Vec<String>,
    /// One step per input, in join order.
    steps: Vec<Step>,
    /// Cross-alias filter conjuncts, over the joined row.
    residual: Option<BoundExpr>,
    output: Output,
}

/// One input of the join order.
struct Step {
    table: Arc<Table>,
    /// The pushed-down filter over bare column names: it picks the index
    /// of a scan.
    filter: Option<Expr>,
    /// The same filter bound to the table's rows.
    bound_filter: Option<BoundExpr>,
    source: Source,
    /// How the step joins the rows before it (`None`: it is the first
    /// step, or a cartesian product).
    join: Option<JoinKeys>,
    /// The table columns the joined row keeps, when not all: the rest
    /// are read only by the step's filter and key expressions.
    kept: Option<Vec<usize>>,
}

/// Where a step's rows come from.
enum Source {
    /// A scan, through an index when the filter selects one.
    Scan,
    /// Position of the alias in the run's `pinned` rows.
    Pinned(usize),
    /// The rows whose `exprs` equal the run's key. `index` probes the
    /// leading key columns (`(index, key positions)`) when every key
    /// expression is a bare column and an index starts with them.
    Keyed {
        exprs: Vec<BoundExpr>,
        index: Option<(Arc<BTreeIndex>, Vec<usize>)>,
    },
}

/// An equi-join step: `build` positions in the step's kept row equal
/// `probe` positions in the joined row so far.
struct JoinKeys {
    build: Vec<usize>,
    probe: Vec<usize>,
    /// An index keyed exactly on the build columns (never for a pinned
    /// step).
    index: Option<Arc<BTreeIndex>>,
}

/// The output stage.
enum Output {
    /// Each output column is a distinct bare column of the joined row:
    /// its value moves out.
    Move(Vec<usize>),
    /// One expression per output column.
    Project(Vec<BoundExpr>),
    /// Grouped aggregation; the group key is the scalar outputs in order,
    /// and `is_agg` says which output columns are aggregates.
    Aggregate {
        keys: Vec<BoundExpr>,
        aggs: Vec<(AggFunc, BoundExpr)>,
        is_agg: Vec<bool>,
    },
}

impl BoundSpec {
    /// Binds `spec` under `restriction`.
    pub fn bind(db: &Database, spec: &SelectSpec, restriction: Restriction<'_>) -> Result<Self> {
        if spec.inputs.is_empty() {
            return Err(Error::InvalidMigration("spec has no inputs".into()));
        }

        // Split the residual filter into single-alias pushdowns and the rest.
        let mut pushdown: BTreeMap<&str, Vec<Expr>> = BTreeMap::new();
        let mut residual: Vec<Expr> = Vec::new();
        if let Some(f) = &spec.filter {
            for c in conjuncts(f) {
                let mut cols = Vec::new();
                c.columns(&mut cols);
                let mut aliases: Vec<String> = cols
                    .iter()
                    .map(|cr| cr.table.clone().unwrap_or_default())
                    .collect();
                aliases.sort();
                aliases.dedup();
                match aliases.as_slice() {
                    [one] if spec.input(one).is_some() => {
                        let alias = &spec.input(one).expect("checked").alias;
                        pushdown.entry(alias).or_default().push(c)
                    }
                    _ => residual.push(c),
                }
            }
        }
        for (alias, f) in restriction.extra_filters.into_iter().flatten() {
            pushdown.entry(alias).or_default().push(f.clone());
        }

        // Join order: pinned aliases first, then the keyed one, then the
        // spec order.
        let mut order: Vec<&str> = Vec::new();
        for &alias in restriction.pinned {
            if spec.input(alias).is_none() {
                return Err(Error::InvalidMigration(format!(
                    "driving alias {alias} is not an input"
                )));
            }
            if !order.contains(&alias) {
                order.push(alias);
            }
        }
        if let Some((alias, _)) = restriction.keyed {
            if spec.input(alias).is_none() {
                return Err(Error::InvalidMigration(format!(
                    "key alias {alias} is not an input"
                )));
            }
            if !order.contains(&alias) {
                order.push(alias);
            }
        }
        for t in &spec.inputs {
            if !order.contains(&t.alias.as_str()) {
                order.push(&t.alias);
            }
        }

        let tables: Vec<Arc<Table>> = order
            .iter()
            .map(|alias| db.table(&spec.input(alias).expect("alias validated").table))
            .collect::<Result<_>>()?;
        let locate = |c: &ColRef| locate(&order, &tables, c);

        // A join materializes its rows, so each joined row keeps only the
        // columns a later stage reads: the residual, the outputs and the
        // join conditions. Filters and key expressions read whole table
        // rows. A single input keeps its rows whole.
        let mut kept: Vec<Option<Vec<usize>>> = vec![None; order.len()];
        if order.len() > 1 {
            let mut needed: Vec<Vec<bool>> = tables
                .iter()
                .map(|t| vec![false; t.schema().columns.len()])
                .collect();
            let mut mark = |c: &ColRef| {
                let (s, i) = locate(c)?;
                needed[s][i] = true;
                Ok(0)
            };
            for c in &residual {
                c.bind(&mut mark)?;
            }
            for c in &spec.columns {
                match c {
                    OutputColumn::Scalar { expr, .. } => expr.bind(&mut mark)?,
                    OutputColumn::Agg { arg, .. } => arg.bind(&mut mark)?,
                };
            }
            for (a, b) in &spec.join_conds {
                for c in [a, b] {
                    let _ = mark(c);
                }
            }
            for (k, needed) in kept.iter_mut().zip(needed) {
                if needed.contains(&false) {
                    *k = Some((0..needed.len()).filter(|&i| needed[i]).collect());
                }
            }
        }
        // Where each step's kept row starts in the joined row, and each
        // table column's position in its kept row (`None`: pruned).
        let mut layout = Layout::default();
        for (t, k) in tables.iter().zip(&kept) {
            let n = t.schema().columns.len();
            let mut slot = vec![None; n];
            match k {
                None => (0..n).for_each(|i| slot[i] = Some(i)),
                Some(k) => k.iter().enumerate().for_each(|(j, &i)| slot[i] = Some(j)),
            }
            let start = layout.width;
            layout.width += k.as_ref().map_or(n, Vec::len);
            layout.steps.push((start, slot));
        }
        let mut joined = |c: &ColRef| {
            let (s, i) = locate(c)?;
            layout
                .position(s, i)
                .ok_or_else(|| Error::Internal(format!("column {c} was pruned")))
        };

        let mut steps = Vec::with_capacity(order.len());
        for (s, (&alias, table)) in order.iter().zip(&tables).enumerate() {
            // Step filters and key expressions read the table's own row,
            // by bare column name.
            let mut own = |c: &ColRef| table.schema().col_index(&c.column);
            let filter = conjoin(
                pushdown
                    .get(alias)
                    .map_or_else(Vec::new, |fs| fs.iter().map(strip_aliases).collect()),
            );
            let bound_filter = filter.as_ref().map(|f| f.bind(&mut own)).transpose()?;
            let source = match restriction.pinned.iter().position(|&a| a == alias) {
                Some(i) => Source::Pinned(i),
                None => match restriction.keyed {
                    Some((keyed, exprs)) if keyed == alias => {
                        let exprs: Vec<BoundExpr> = exprs
                            .iter()
                            .map(|e| e.bind(&mut own))
                            .collect::<Result<_>>()?;
                        let index = key_index(table, &exprs);
                        Source::Keyed { exprs, index }
                    }
                    _ => Source::Scan,
                },
            };
            let join = if s == 0 {
                None
            } else {
                join_keys(spec, s, &order, &tables, &layout, &source)?
            };
            steps.push(Step {
                table: Arc::clone(table),
                filter,
                bound_filter,
                source,
                join,
                kept: kept[s].take(),
            });
        }

        let residual = conjoin(residual).map(|f| f.bind(&mut joined)).transpose()?;
        let output = if spec.is_aggregate() {
            let mut keys = Vec::new();
            let mut aggs = Vec::new();
            let mut is_agg = Vec::with_capacity(spec.columns.len());
            for c in &spec.columns {
                match c {
                    OutputColumn::Scalar { expr, .. } => keys.push(expr.bind(&mut joined)?),
                    OutputColumn::Agg { func, arg, .. } => {
                        aggs.push((*func, arg.bind(&mut joined)?))
                    }
                }
                is_agg.push(matches!(c, OutputColumn::Agg { .. }));
            }
            Output::Aggregate { keys, aggs, is_agg }
        } else {
            let exprs: Vec<BoundExpr> = spec
                .columns
                .iter()
                .map(|c| match c {
                    OutputColumn::Scalar { expr, .. } => expr.bind(&mut joined),
                    OutputColumn::Agg { .. } => unreachable!("is_aggregate() was false"),
                })
                .collect::<Result<_>>()?;
            let cols: Option<Vec<usize>> = exprs.iter().map(BoundExpr::as_col).collect();
            match cols {
                Some(cols) if (1..cols.len()).all(|i| !cols[..i].contains(&cols[i])) => {
                    Output::Move(cols)
                }
                _ => Output::Project(exprs),
            }
        };
        Ok(BoundSpec {
            names: spec.output_names(),
            steps,
            residual,
            output,
        })
    }

    /// Runs the bound spec: `pinned` holds the rows of each
    /// [`Restriction::pinned`] alias, in that order, and `key` the values
    /// of a [`Restriction::keyed`] alias's key expressions.
    pub fn run(
        &self,
        db: &Database,
        txn: &mut Transaction,
        mut pinned: Vec<Vec<Row>>,
        key: &[Value],
        lock: LockPolicy,
    ) -> Result<Vec<Row>> {
        let mut combined: Vec<Row> = Vec::new();
        for (n, step) in self.steps.iter().enumerate() {
            if n == 0 {
                combined = step.rows(db, txn, &mut pinned, key, lock)?;
                continue;
            }
            let mut joined = Vec::new();
            match &step.join {
                None => {
                    // No connecting condition: cartesian product (rare;
                    // supported for completeness).
                    let rows = step.rows(db, txn, &mut pinned, key, lock)?;
                    for left in &combined {
                        for right in &rows {
                            joined.push(left.concat(right));
                        }
                    }
                }
                Some(j) => {
                    let probed = match &j.index {
                        Some(idx) => {
                            step.index_join(db, txn, j, idx, &combined, lock, &mut joined)?
                        }
                        None => false,
                    };
                    if !probed {
                        joined.clear();
                        let rows = step.rows(db, txn, &mut pinned, key, lock)?;
                        hash_join(j, &combined, &rows, &mut joined);
                    }
                }
            }
            combined = joined;
        }

        if let Some(f) = &self.residual {
            let mut kept = Vec::with_capacity(combined.len());
            for r in combined {
                if f.matches(&r)? {
                    kept.push(r);
                }
            }
            combined = kept;
        }

        match &self.output {
            Output::Move(cols) => Ok(combined
                .into_iter()
                .map(|r| take_columns(r, cols))
                .collect()),
            Output::Project(exprs) => combined
                .iter()
                .map(|r| {
                    Ok(Row(exprs
                        .iter()
                        .map(|e| e.eval(r))
                        .collect::<Result<_>>()?))
                })
                .collect(),
            Output::Aggregate { keys, aggs, is_agg } => aggregate(keys, aggs, is_agg, &combined),
        }
    }
}

impl Step {
    /// The step's rows, filtered: the pinned rows, the keyed group, or a
    /// (pushdown-filtered) scan.
    fn rows(
        &self,
        db: &Database,
        txn: &mut Transaction,
        pinned: &mut [Vec<Row>],
        key: &[Value],
        lock: LockPolicy,
    ) -> Result<Vec<Row>> {
        let keep = |row: &Row| {
            self.bound_filter
                .as_ref()
                .map_or(Ok(true), |f| f.matches(row))
        };
        let t = &self.table;
        let rows = match &self.source {
            Source::Pinned(i) => {
                let rows = pinned
                    .get_mut(*i)
                    .map(std::mem::take)
                    .ok_or_else(|| Error::Internal(format!("no rows pinned at {i}")))?;
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    if keep(&r)? {
                        out.push(self.prune(r));
                    }
                }
                return Ok(out);
            }
            Source::Scan => db.select_with(
                txn,
                t,
                || index_candidates(t, self.filter.as_ref()),
                keep,
                lock,
            )?,
            Source::Keyed { exprs, index } => {
                if exprs.len() != key.len() {
                    return Err(Error::Internal(format!(
                        "{} key values for {} key expressions",
                        key.len(),
                        exprs.len()
                    )));
                }
                let probe = || match index {
                    Some((idx, positions)) => Some(
                        idx.get_prefix(
                            &positions
                                .iter()
                                .map(|&i| key[i].clone())
                                .collect::<Vec<_>>(),
                        ),
                    ),
                    None => index_candidates(t, self.filter.as_ref()),
                };
                let in_group = |row: &Row| -> Result<bool> {
                    for (e, v) in exprs.iter().zip(key) {
                        if e.eval(row)?.sql_cmp(v) != Some(std::cmp::Ordering::Equal) {
                            return Ok(false);
                        }
                    }
                    keep(row)
                };
                db.select_with(txn, t, probe, in_group, lock)?
            }
        };
        Ok(rows.into_iter().map(|(_, r)| self.prune(r)).collect())
    }

    /// The columns of a table row the joined row keeps.
    fn prune(&self, row: Row) -> Row {
        match &self.kept {
            None => row,
            Some(kept) => take_columns(row, kept),
        }
    }

    /// Index nested-loop join of `combined` with this step through `idx`.
    /// Each distinct probe key's rows are read once per run. Returns
    /// `false`, with `joined` to be discarded, when the index is not
    /// exact for the read (before the walk, or after it: a writer raced
    /// it), so the caller hash-joins instead.
    #[allow(clippy::too_many_arguments)]
    fn index_join(
        &self,
        db: &Database,
        txn: &mut Transaction,
        j: &JoinKeys,
        idx: &BTreeIndex,
        combined: &[Row],
        lock: LockPolicy,
        joined: &mut Vec<Row>,
    ) -> Result<bool> {
        let t = &self.table;
        if !db.index_exact(txn, t, lock) {
            return Ok(false);
        }
        let mut by_key: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        for left in combined {
            let key = left.key(&j.probe);
            if key.iter().any(Value::is_null) {
                continue;
            }
            let rights = match by_key.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let mut rows = Vec::new();
                    for rid in idx.get(e.key()) {
                        let Some(right) = db.read_row(txn, t, rid, lock)? else {
                            continue;
                        };
                        if let Some(f) = &self.bound_filter {
                            if !f.matches(&right)? {
                                continue;
                            }
                        }
                        let right = self.prune(right);
                        // The entry was read before the row lock: a writer
                        // that moved the key and then aborted may have
                        // restored the row under another key.
                        if right.key(&j.build) != *e.key() {
                            continue;
                        }
                        rows.push(right);
                    }
                    e.insert(rows)
                }
            };
            for right in rights.iter() {
                joined.push(left.concat(right));
            }
        }
        Ok(db.index_exact(txn, t, lock))
    }
}

/// The values at distinct positions `cols` of `row`, moved out.
fn take_columns(row: Row, cols: &[usize]) -> Row {
    let mut vals = row.0;
    Row(cols
        .iter()
        .map(|&i| std::mem::replace(&mut vals[i], Value::Null))
        .collect())
}

/// Hash join of `combined` with `rows`, built on `rows`.
fn hash_join(j: &JoinKeys, combined: &[Row], rows: &[Row], joined: &mut Vec<Row>) {
    let mut ht: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for r in rows {
        let key = r.key(&j.build);
        if key.iter().any(Value::is_null) {
            continue;
        }
        ht.entry(key).or_default().push(r);
    }
    for left in combined {
        let key = left.key(&j.probe);
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = ht.get(&key) {
            for right in matches {
                joined.push(left.concat(right));
            }
        }
    }
}

/// The step and column of `c` among the inputs `order` (tables
/// `tables`): a qualified reference names its alias, a bare one must
/// match exactly one input's column. The one rule that turns a column
/// reference into a row position.
pub fn locate(order: &[&str], tables: &[Arc<Table>], c: &ColRef) -> Result<(usize, usize)> {
    let not_found = || Error::ColumnNotFound(c.to_string());
    match &c.table {
        Some(alias) => {
            let s = order
                .iter()
                .position(|a| a == alias)
                .ok_or_else(not_found)?;
            let i = tables[s]
                .schema()
                .col_index(&c.column)
                .map_err(|_| not_found())?;
            Ok((s, i))
        }
        None => {
            let mut found = None;
            for (s, t) in tables.iter().enumerate() {
                if let Ok(i) = t.schema().col_index(&c.column) {
                    if found.is_some() {
                        return Err(Error::Eval(format!("ambiguous column {}", c.column)));
                    }
                    found = Some((s, i));
                }
            }
            found.ok_or_else(not_found)
        }
    }
}

/// Where the steps' kept rows sit in the joined row.
#[derive(Default)]
struct Layout {
    /// Per step: where its kept row starts, and each table column's
    /// position in the kept row (`None`: pruned).
    steps: Vec<(usize, Vec<Option<usize>>)>,
    width: usize,
}

impl Layout {
    /// Position of step `s`'s column `i` in the joined row.
    fn position(&self, s: usize, i: usize) -> Option<usize> {
        let (start, slot) = &self.steps[s];
        Some(start + slot[i]?)
    }
}

/// The join conditions connecting step `s` to the steps before it, and
/// the index the join probes.
fn join_keys(
    spec: &SelectSpec,
    s: usize,
    order: &[&str],
    tables: &[Arc<Table>],
    layout: &Layout,
    source: &Source,
) -> Result<Option<JoinKeys>> {
    let mut columns = Vec::new();
    let mut build = Vec::new();
    let mut probe = Vec::new();
    for (a, b) in &spec.join_conds {
        let (mine, theirs) = if a.table.as_deref() == Some(order[s]) {
            (a, b)
        } else if b.table.as_deref() == Some(order[s]) {
            (b, a)
        } else {
            continue;
        };
        let Ok((t, j)) = locate(&order[..s], &tables[..s], theirs) else {
            continue;
        };
        let i = tables[s].schema().col_index(&mine.column)?;
        columns.push(i);
        build.push(layout.steps[s].1[i].expect("join columns are kept"));
        probe.push(layout.position(t, j).expect("join columns are kept"));
    }
    if columns.is_empty() {
        return Ok(None);
    }
    let index = match source {
        Source::Pinned(_) => None,
        Source::Scan | Source::Keyed { .. } => tables[s]
            .index_for_columns(&columns)
            .filter(|idx| idx.def().key_columns == columns),
    };
    Ok(Some(JoinKeys {
        build,
        probe,
        index,
    }))
}

/// The index a keyed step probes: when every key expression is a bare
/// column, the index [`Table::index_for_columns`] picks for them, with
/// the positions (into the key) of its leading key columns.
fn key_index(table: &Table, exprs: &[BoundExpr]) -> Option<(Arc<BTreeIndex>, Vec<usize>)> {
    let cols: Vec<usize> = exprs.iter().map(BoundExpr::as_col).collect::<Option<_>>()?;
    let idx = table.index_for_columns(&cols)?;
    let positions: Vec<usize> = idx
        .def()
        .key_columns
        .iter()
        .map_while(|kc| cols.iter().position(|c| c == kc))
        .collect();
    (!positions.is_empty()).then_some((idx, positions))
}

/// Grouped aggregation: group key = the scalar outputs, in order.
fn aggregate(
    keys: &[BoundExpr],
    aggs: &[(AggFunc, BoundExpr)],
    is_agg: &[bool],
    rows: &[Row],
) -> Result<Vec<Row>> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    let fresh = || {
        aggs.iter()
            .map(|(f, _)| AggState::new(*f))
            .collect::<Vec<_>>()
    };
    if keys.is_empty() {
        // A global aggregate has exactly one group, even over zero rows.
        groups.insert(Vec::new(), fresh());
    }
    for r in rows {
        let key: Vec<Value> = keys.iter().map(|e| e.eval(r)).collect::<Result<_>>()?;
        let states = groups.entry(key).or_insert_with(fresh);
        for (state, (_, arg)) in states.iter_mut().zip(aggs) {
            state.update(arg.eval(r)?)?;
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut key_iter = key.into_iter();
        let mut state_iter = states.into_iter();
        let mut vals = Vec::with_capacity(is_agg.len());
        for &agg in is_agg {
            vals.push(if agg {
                state_iter
                    .next()
                    .ok_or_else(|| Error::Internal("agg arity".into()))?
                    .finish()
            } else {
                key_iter
                    .next()
                    .ok_or_else(|| Error::Internal("group key arity".into()))?
            });
        }
        out.push(Row(vals));
    }
    Ok(out)
}

/// Incremental aggregate state.
enum AggState {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    CountDistinct(HashSet<Value>),
}

impl AggState {
    fn new(f: AggFunc) -> Self {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
        }
    }

    fn update(&mut self, v: Value) -> Result<()> {
        if v.is_null() {
            return Ok(()); // SQL aggregates skip NULLs
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => {
                *acc = Some(match acc.take() {
                    None => v,
                    Some(a) => a
                        .add(&v)
                        .ok_or_else(|| Error::Eval(format!("SUM overflow/type on {v}")))?,
                });
            }
            AggState::Min(acc) => {
                let replace = match acc {
                    None => true,
                    Some(cur) => v < *cur,
                };
                if replace {
                    *acc = Some(v);
                }
            }
            AggState::Max(acc) => {
                let replace = match acc {
                    None => true,
                    Some(cur) => v > *cur,
                };
                if replace {
                    *acc = Some(v);
                }
            }
            AggState::CountDistinct(set) => {
                set.insert(v);
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(v) | AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, EngineMode};
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
    use bullfrog_txn::LockKey;

    /// Builds the §2.1 flights/flewon database.
    fn flights_db(mode: EngineMode) -> Database {
        let db = Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "flights",
                vec![
                    ColumnDef::new("flightid", DataType::Text),
                    ColumnDef::new("source", DataType::Text),
                    ColumnDef::new("dest", DataType::Text),
                    ColumnDef::new("capacity", DataType::Int),
                ],
            )
            .with_primary_key(&["flightid"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "flewon",
                vec![
                    ColumnDef::new("flightid", DataType::Text),
                    ColumnDef::new("flightdate", DataType::Date),
                    ColumnDef::nullable("passenger_count", DataType::Int),
                ],
            )
            .with_primary_key(&["flightid", "flightdate"]),
        )
        .unwrap();
        db.with_txn(|txn| {
            db.insert(txn, "flights", row!["AA101", "JFK", "SFO", 180])?;
            db.insert(txn, "flights", row!["UA007", "LAX", "ORD", 120])?;
            for day in 1..=3 {
                db.insert(
                    txn,
                    "flewon",
                    Row(vec![
                        Value::text("AA101"),
                        Value::Date(day),
                        Value::Int(100 + day as i64),
                    ]),
                )?;
                db.insert(
                    txn,
                    "flewon",
                    Row(vec![
                        Value::text("UA007"),
                        Value::Date(day),
                        Value::Int(50 + day as i64),
                    ]),
                )?;
            }
            Ok(())
        })
        .unwrap();
        db
    }

    fn flewoninfo_spec() -> SelectSpec {
        SelectSpec::new()
            .from_table("flights", "f")
            .from_table("flewon", "fi")
            .join_on(ColRef::new("f", "flightid"), ColRef::new("fi", "flightid"))
            .select("fid", Expr::col("f", "flightid"))
            .select("flightdate", Expr::col("fi", "flightdate"))
            .select("passenger_count", Expr::col("fi", "passenger_count"))
            .select(
                "empty_seats",
                Expr::col("f", "capacity").sub(Expr::col("fi", "passenger_count")),
            )
    }

    #[test]
    fn join_projects_derived_columns() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut txn = db.begin();
            let out =
                execute_spec(&db, &mut txn, &flewoninfo_spec(), &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(
                out.names,
                vec!["fid", "flightdate", "passenger_count", "empty_seats"]
            );
            assert_eq!(out.rows.len(), 6);
            let aa_day1 = out
                .rows
                .iter()
                .find(|r| r[0] == Value::text("AA101") && r[1] == Value::Date(1))
                .unwrap();
            assert_eq!(aa_day1[3], Value::Int(180 - 101));
        }
    }

    #[test]
    fn extra_filters_restrict_scope() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut txn = db.begin();
            let mut opts = ExecOptions::default();
            opts.extra_filters.insert(
                "fi".into(),
                Expr::col("fi", "flightid").eq(Expr::lit("AA101")),
            );
            let out = execute_spec(&db, &mut txn, &flewoninfo_spec(), &opts).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 3);
            assert!(out.rows.iter().all(|r| r[0] == Value::text("AA101")));
        }
    }

    #[test]
    fn driving_rows_pin_the_scan() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let fi_rows = db
                .select_unlocked(
                    "flewon",
                    Some(&Expr::column("flightdate").eq(Expr::lit(Value::Date(2)))),
                )
                .unwrap();
            assert_eq!(fi_rows.len(), 2);
            let mut txn = db.begin();
            let opts = ExecOptions {
                driving: vec![("fi".into(), fi_rows)],
                ..Default::default()
            };
            let out = execute_spec(&db, &mut txn, &flewoninfo_spec(), &opts).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 2);
            assert!(out.rows.iter().all(|r| r[1] == Value::Date(2)));
        }
    }

    #[test]
    fn spec_filter_pushdown_and_residual() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            // Single-alias conjunct (pushdown) + cross-alias conjunct (residual).
            let spec = flewoninfo_spec().filter(
                Expr::col("f", "capacity")
                    .gt(Expr::lit(150))
                    .and(Expr::col("f", "capacity").gt(Expr::col("fi", "passenger_count"))),
            );
            let mut txn = db.begin();
            let out = execute_spec(&db, &mut txn, &spec, &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 3); // only AA101 rows (capacity 180)
        }
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("flewon", "fi")
                .filter(Expr::col("fi", "flightid").eq(Expr::lit("NOPE")))
                .select_agg("total", AggFunc::Sum, Expr::col("fi", "passenger_count"))
                .select_agg("n", AggFunc::Count, Expr::lit(1));
            let mut txn = db.begin();
            let out = execute_spec(&db, &mut txn, &spec, &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 1);
            assert_eq!(out.rows[0], Row(vec![Value::Null, Value::Int(0)]));
        }
    }

    #[test]
    fn group_by_aggregation() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("flewon", "fi")
                .select("flightid", Expr::col("fi", "flightid"))
                .select_agg("total", AggFunc::Sum, Expr::col("fi", "passenger_count"))
                .select_agg("days", AggFunc::Count, Expr::col("fi", "flightdate"))
                .select_agg("best", AggFunc::Max, Expr::col("fi", "passenger_count"));
            let mut txn = db.begin();
            let out = execute_spec(&db, &mut txn, &spec, &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 2);
            let aa = out
                .rows
                .iter()
                .find(|r| r[0] == Value::text("AA101"))
                .unwrap();
            assert_eq!(aa[1], Value::Int(101 + 102 + 103));
            assert_eq!(aa[2], Value::Int(3));
            assert_eq!(aa[3], Value::Int(103));
        }
    }

    #[test]
    fn count_distinct() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new().from_table("flewon", "fi").select_agg(
                "n_flights",
                AggFunc::CountDistinct,
                Expr::col("fi", "flightid"),
            );
            let mut txn = db.begin();
            let out = execute_spec(&db, &mut txn, &spec, &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows[0][0], Value::Int(2));
        }
    }

    #[test]
    fn aggregates_skip_nulls() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| {
                db.insert(
                    txn,
                    "flewon",
                    Row(vec![Value::text("AA101"), Value::Date(9), Value::Null]),
                )
            })
            .unwrap();
            let spec = SelectSpec::new()
                .from_table("flewon", "fi")
                .filter(Expr::col("fi", "flightid").eq(Expr::lit("AA101")))
                .select_agg("total", AggFunc::Sum, Expr::col("fi", "passenger_count"))
                .select_agg("n", AggFunc::Count, Expr::col("fi", "passenger_count"))
                .select_agg("lo", AggFunc::Min, Expr::col("fi", "passenger_count"));
            let mut txn = db.begin();
            let out = execute_spec(&db, &mut txn, &spec, &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows[0][0], Value::Int(306));
            assert_eq!(out.rows[0][1], Value::Int(3), "NULL not counted");
            assert_eq!(out.rows[0][2], Value::Int(101));
        }
    }

    #[test]
    fn index_nested_loop_used_for_pk_join() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            // flights joined from flewon driving rows goes through the flights
            // pkey; verify correctness (the path is exercised by driving).
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let fi_rows = db.select_unlocked("flewon", None).unwrap();
            let mut txn = db.begin();
            let opts = ExecOptions {
                driving: vec![("fi".into(), fi_rows)],
                ..Default::default()
            };
            let out = execute_spec(&db, &mut txn, &flewoninfo_spec(), &opts).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(out.rows.len(), 6);
        }
    }

    #[test]
    fn join_skips_null_keys() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| {
                // A flewon row with NULL passenger_count still joins; what must
                // NOT join is a NULL join key — emulate by a flights row the
                // flewon side never references.
                db.insert(txn, "flights", row!["ZZ999", "AAA", "BBB", 10])
            })
            .unwrap();
            let mut txn = db.begin();
            let out =
                execute_spec(&db, &mut txn, &flewoninfo_spec(), &ExecOptions::default()).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(
                out.rows.len(),
                6,
                "unmatched flights row contributes nothing"
            );
        }
    }

    #[test]
    fn unknown_driving_alias_rejected() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut txn = db.begin();
            let opts = ExecOptions {
                driving: vec![("nope".into(), vec![])],
                ..Default::default()
            };
            assert!(execute_spec(&db, &mut txn, &flewoninfo_spec(), &opts).is_err());
            db.abort(&mut txn);
        }
    }

    /// `flewoninfo_spec` driven from `flewon`, so `flights` joins through
    /// its pk index (index nested-loop).
    fn flewon_first_spec() -> SelectSpec {
        SelectSpec::new()
            .from_table("flewon", "fi")
            .from_table("flights", "f")
            .join_on(ColRef::new("fi", "flightid"), ColRef::new("f", "flightid"))
            .select("fid", Expr::col("f", "flightid"))
            .select("flightdate", Expr::col("fi", "flightdate"))
    }

    #[test]
    fn index_join_reads_the_snapshot_under_si_and_the_latest_under_2pl() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut reader = db.begin();
            // After the reader's snapshot, UA007 leaves the flights pk index.
            db.with_txn(|txn| {
                let (rid, _) = db
                    .get_by_pk(
                        txn,
                        "flights",
                        &[Value::text("UA007")],
                        LockPolicy::Exclusive,
                    )?
                    .expect("seeded");
                db.delete(txn, "flights", rid).map(|_| ())
            })
            .unwrap();
            let opts = ExecOptions {
                lock: LockPolicy::Shared,
                ..Default::default()
            };
            let out = execute_spec(&db, &mut reader, &flewon_first_spec(), &opts).unwrap();
            db.commit(&mut reader).unwrap();
            let expected = if mode.is_snapshot() { 6 } else { 3 };
            assert_eq!(out.rows.len(), expected, "{:?}", out.rows);
        }
    }

    /// A reader's index nested-loop join probes the key an uncommitted
    /// update moved a row to, then parks on the row's lock; the writer
    /// aborts and the row is back under its old key. The reader must
    /// re-check the key it read under the lock and not join the row.
    #[test]
    fn index_join_rechecks_the_key_after_the_row_lock() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Database::with_config(DbConfig {
                mode,
                lock_timeout: std::time::Duration::from_secs(10),
                ..DbConfig::default()
            });
            assert_eq!(db.config().mode, mode);
            for name in ["l", "r"] {
                db.create_table(
                    TableSchema::new(
                        name,
                        vec![
                            ColumnDef::new("id", DataType::Int),
                            ColumnDef::new("k", DataType::Int),
                        ],
                    )
                    .with_primary_key(&["id"]),
                )
                .unwrap();
            }
            db.create_index("r", "r_k", &["k"], false).unwrap();
            db.with_txn(|txn| {
                db.insert(txn, "l", row![1, 2])?;
                db.insert(txn, "r", row![1, 1])
            })
            .unwrap();
            let spec = SelectSpec::new()
                .from_table("l", "l")
                .from_table("r", "r")
                .join_on(ColRef::new("l", "k"), ColRef::new("r", "k"))
                .select("lk", Expr::col("l", "k"))
                .select("rk", Expr::col("r", "k"));

            let mut writer = db.begin();
            let (rid, _) = db
                .get_by_pk(&mut writer, "r", &[Value::Int(1)], LockPolicy::Exclusive)
                .unwrap()
                .expect("seeded");
            db.update(&mut writer, "r", rid, row![1, 2]).unwrap();
            let r_row = LockKey::Row(db.table("r").unwrap().id(), rid);
            let rows = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut txn = db.begin();
                    let opts = ExecOptions {
                        lock: LockPolicy::Shared,
                        ..Default::default()
                    };
                    let out = execute_spec(&db, &mut txn, &spec, &opts).unwrap();
                    db.commit(&mut txn).unwrap();
                    out.rows
                });
                if mode.is_snapshot() {
                    // Snapshot readers never park: the reader sees the
                    // committed row, under its old key, and finishes.
                    while !reader.is_finished() {
                        std::thread::yield_now();
                    }
                } else {
                    while db.lock_manager().queued(r_row) == 0 {
                        assert!(!reader.is_finished(), "the reader never parked");
                        std::thread::yield_now();
                    }
                }
                db.abort(&mut writer);
                reader.join().unwrap()
            });
            assert_eq!(rows, Vec::<Row>::new(), "l.k = 2 joined r.k = 1");
        }
    }

    #[test]
    fn an_ally_reads_its_parents_uncommitted_insert() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = flights_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut parent = db.begin();
            let flight = row!["DL9", "BOS", "SEA", 90];
            let rid = db.insert(&mut parent, "flights", flight.clone()).unwrap();
            db.insert(
                &mut parent,
                "flewon",
                Row(vec![Value::text("DL9"), Value::Date(9), Value::Int(80)]),
            )
            .unwrap();

            // Under 2PL the ally passes through the parent's X locks; under
            // SI it reads as the parent.
            let mut ally = db.begin();
            ally.set_ally(parent.id());
            let by_id = Expr::column("flightid").eq(Expr::lit("DL9"));
            assert_eq!(
                db.select(&mut ally, "flights", Some(&by_id), LockPolicy::Shared)
                    .unwrap(),
                vec![(rid, flight.clone())]
            );
            assert_eq!(
                db.get(&mut ally, "flights", rid, LockPolicy::Shared)
                    .unwrap(),
                Some(flight)
            );
            let mut opts = ExecOptions {
                lock: LockPolicy::Shared,
                ..Default::default()
            };
            opts.extra_filters.insert(
                "fi".into(),
                Expr::col("fi", "flightid").eq(Expr::lit("DL9")),
            );
            let out = execute_spec(&db, &mut ally, &flewon_first_spec(), &opts).unwrap();
            assert_eq!(out.rows, vec![row!["DL9", Value::Date(9)]]);
            db.commit(&mut ally).unwrap();
            db.abort(&mut parent);
        }
    }
}
