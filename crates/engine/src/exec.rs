//! Execution of [`SelectSpec`]s: filters, inner equi-joins, aggregation.
//!
//! The executor serves two masters:
//!
//! - **client read queries** (e.g. TPC-C StockLevel's join + COUNT
//!   DISTINCT), run with shared locks;
//! - **the migration engine** in `bullfrog-core`, which evaluates a
//!   migration statement restricted to a small scope: per-alias extra
//!   filters (the transposed client predicate) and/or a pinned set of
//!   *driving rows* (the exact granules being migrated).
//!
//! Join strategy: the driving table's rows are joined to each remaining
//! input in turn, via **index nested-loop** when the next table has an
//! index on its join columns and **hash join** otherwise. Single-alias
//! filter conjuncts are pushed down to the scans.

use std::collections::{BTreeMap, HashMap, HashSet};

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_query::{conjoin, conjuncts, AggFunc, ColRef, Expr, OutputColumn, Scope, SelectSpec};
use bullfrog_txn::Transaction;

use crate::db::{Database, LockPolicy};

/// Result of executing a spec: output column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names (spec order).
    pub names: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

/// Scope restrictions for spec execution.
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

/// Rewrites every column reference to a bare (unqualified) reference, for
/// evaluation against a single table's scope.
pub fn strip_aliases(e: &Expr) -> Expr {
    e.map_columns(&|c: &ColRef| Some(Expr::Col(ColRef::bare(c.column.clone()))))
}

/// Executes `spec` under the given options.
pub fn execute_spec(
    db: &Database,
    txn: &mut Transaction,
    spec: &SelectSpec,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    if spec.inputs.is_empty() {
        return Err(Error::InvalidMigration("spec has no inputs".into()));
    }

    // Split the residual filter into single-alias pushdowns and the rest.
    let mut pushdown: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
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
                    pushdown.entry(one.clone()).or_default().push(c)
                }
                _ => residual.push(c),
            }
        }
    }
    for (alias, f) in &opts.extra_filters {
        pushdown.entry(alias.clone()).or_default().push(f.clone());
    }

    // Join order: driving aliases first, then the spec order.
    let mut order: Vec<&str> = Vec::new();
    for (alias, _) in &opts.driving {
        if spec.input(alias).is_none() {
            return Err(Error::InvalidMigration(format!(
                "driving alias {alias} is not an input"
            )));
        }
        if !order.contains(&alias.as_str()) {
            order.push(alias);
        }
    }
    for t in &spec.inputs {
        if !order.contains(&t.alias.as_str()) {
            order.push(&t.alias);
        }
    }

    // Seed with the first table's rows.
    let first_alias = order[0];
    let mut combined_scope = alias_scope(db, spec, first_alias)?;
    let mut combined: Vec<Row> = rows_for_alias(db, txn, spec, opts, &pushdown, first_alias)?
        .into_iter()
        .map(|(_, r)| r)
        .collect();

    // Fold in the remaining inputs.
    for &alias in &order[1..] {
        let next_scope = alias_scope(db, spec, alias)?;
        // Join conditions connecting `alias` to what we have so far.
        let mut probe_cols: Vec<ColRef> = Vec::new(); // over combined
        let mut build_cols: Vec<ColRef> = Vec::new(); // over next table
        for (a, b) in &spec.join_conds {
            let (a_alias, b_alias) = (
                a.table.as_deref().unwrap_or_default(),
                b.table.as_deref().unwrap_or_default(),
            );
            if a_alias == alias && combined_scope.resolve(b).is_ok() {
                build_cols.push(a.clone());
                probe_cols.push(b.clone());
            } else if b_alias == alias && combined_scope.resolve(a).is_ok() {
                build_cols.push(b.clone());
                probe_cols.push(a.clone());
            }
        }

        let table_name = &spec.input(alias).expect("alias validated").table;
        let table = db.table(table_name)?;
        let next_filter = conjoin(
            pushdown
                .get(alias)
                .cloned()
                .unwrap_or_default()
                .iter()
                .map(strip_aliases)
                .collect(),
        );

        let mut new_combined = Vec::new();
        if build_cols.is_empty() {
            // No connecting condition: cartesian product (rare; supported
            // for completeness).
            let rows = rows_for_alias(db, txn, spec, opts, &pushdown, alias)?;
            for left in &combined {
                for (_, right) in &rows {
                    new_combined.push(left.concat(right));
                }
            }
        } else {
            let build_positions: Vec<usize> = build_cols
                .iter()
                .map(|c| table.schema().col_index(&c.column))
                .collect::<Result<_>>()?;
            let probe_positions: Vec<usize> = probe_cols
                .iter()
                .map(|c| combined_scope.resolve(c))
                .collect::<Result<_>>()?;
            let pinned = opts.driving.iter().any(|(a, _)| a == alias);
            let index = if pinned {
                None
            } else {
                table
                    .index_for_columns(&build_positions)
                    .filter(|idx| idx.def().key_columns == build_positions)
            };
            let next_table_scope = crate::db::table_scope(&table);

            if let Some(idx) = index {
                // Index nested-loop join.
                for left in &combined {
                    let key: Vec<Value> =
                        probe_positions.iter().map(|&i| left[i].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    for rid in idx.get(&key) {
                        // `read_row` takes the policy's locks under 2PL
                        // and reads the version chain at the transaction's
                        // snapshot (lock-free) in Snapshot mode.
                        let right = if opts.lock == LockPolicy::None {
                            table.heap().get(rid)
                        } else {
                            db.read_row(txn, &table, rid, opts.lock)?
                        };
                        let Some(right) = right else {
                            continue;
                        };
                        if let Some(f) = &next_filter {
                            if !f.matches(&next_table_scope, &right)? {
                                continue;
                            }
                        }
                        new_combined.push(left.concat(&right));
                    }
                }
            } else {
                // Hash join: build on the next table's (filtered) rows.
                let rows = rows_for_alias(db, txn, spec, opts, &pushdown, alias)?;
                let mut ht: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
                for (_, r) in &rows {
                    let key: Vec<Value> = build_positions.iter().map(|&i| r[i].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    ht.entry(key).or_default().push(r);
                }
                for left in &combined {
                    let key: Vec<Value> =
                        probe_positions.iter().map(|&i| left[i].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    if let Some(matches) = ht.get(&key) {
                        for right in matches {
                            new_combined.push(left.concat(right));
                        }
                    }
                }
            }
        }
        combined = new_combined;
        combined_scope = combined_scope.concat(&next_scope);
    }

    // Residual filter.
    if let Some(f) = conjoin(residual) {
        let mut kept = Vec::with_capacity(combined.len());
        for r in combined {
            if f.matches(&combined_scope, &r)? {
                kept.push(r);
            }
        }
        combined = kept;
    }

    // Projection / aggregation.
    let names = spec.output_names();
    let rows = if spec.is_aggregate() {
        aggregate(spec, &combined_scope, &combined)?
    } else {
        let mut out = Vec::with_capacity(combined.len());
        for r in &combined {
            let mut vals = Vec::with_capacity(spec.columns.len());
            for c in &spec.columns {
                match c {
                    OutputColumn::Scalar { expr, .. } => vals.push(expr.eval(&combined_scope, r)?),
                    OutputColumn::Agg { .. } => unreachable!("is_aggregate() was false"),
                }
            }
            out.push(Row(vals));
        }
        out
    };
    Ok(QueryOutput { names, rows })
}

/// Scope of one input alias.
fn alias_scope(db: &Database, spec: &SelectSpec, alias: &str) -> Result<Scope> {
    let tref = spec
        .input(alias)
        .ok_or_else(|| Error::InvalidMigration(format!("unknown alias {alias}")))?;
    let table = db.table(&tref.table)?;
    let cols: Vec<String> = table
        .schema()
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    Ok(Scope::table(alias, &cols))
}

/// Rows of one alias: pinned driving rows, or a (pushdown-filtered) scan.
fn rows_for_alias(
    db: &Database,
    txn: &mut Transaction,
    spec: &SelectSpec,
    opts: &ExecOptions,
    pushdown: &BTreeMap<String, Vec<Expr>>,
    alias: &str,
) -> Result<Vec<(RowId, Row)>> {
    if let Some((_, rows)) = opts.driving.iter().find(|(drv, _)| drv == alias) {
        // Apply pushdown filters to the pinned rows too.
        let filter = conjoin(
            pushdown
                .get(alias)
                .cloned()
                .unwrap_or_default()
                .iter()
                .map(strip_aliases)
                .collect(),
        );
        let tref = spec.input(alias).expect("validated");
        let table = db.table(&tref.table)?;
        let scope = crate::db::table_scope(&table);
        let mut out = Vec::with_capacity(rows.len());
        for (rid, r) in rows {
            let keep = match &filter {
                Some(f) => f.matches(&scope, r)?,
                None => true,
            };
            if keep {
                out.push((*rid, r.clone()));
            }
        }
        return Ok(out);
    }
    let tref = spec
        .input(alias)
        .ok_or_else(|| Error::InvalidMigration(format!("unknown alias {alias}")))?;
    let filter = conjoin(
        pushdown
            .get(alias)
            .cloned()
            .unwrap_or_default()
            .iter()
            .map(strip_aliases)
            .collect(),
    );
    match opts.lock {
        LockPolicy::None => db.select_unlocked(&tref.table, filter.as_ref()),
        policy => db.select(txn, &tref.table, filter.as_ref(), policy),
    }
}

/// Grouped aggregation: group key = the scalar outputs, in order.
fn aggregate(spec: &SelectSpec, scope: &Scope, rows: &[Row]) -> Result<Vec<Row>> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    let aggs: Vec<(&AggFunc, &Expr)> = spec
        .columns
        .iter()
        .filter_map(|c| match c {
            OutputColumn::Agg { func, arg, .. } => Some((func, arg)),
            _ => None,
        })
        .collect();
    let key_exprs = spec.group_key_exprs();
    let global = key_exprs.is_empty();

    if global {
        // A global aggregate has exactly one group, even over zero rows.
        groups.insert(
            Vec::new(),
            aggs.iter().map(|(f, _)| AggState::new(**f)).collect(),
        );
    }
    for r in rows {
        let key: Vec<Value> = key_exprs
            .iter()
            .map(|e| e.eval(scope, r))
            .collect::<Result<_>>()?;
        let states = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|(f, _)| AggState::new(**f)).collect());
        for (state, (_, arg)) in states.iter_mut().zip(&aggs) {
            state.update(arg.eval(scope, r)?)?;
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut key_iter = key.into_iter();
        let mut state_iter = states.into_iter();
        let mut vals = Vec::with_capacity(spec.columns.len());
        for c in &spec.columns {
            match c {
                OutputColumn::Scalar { .. } => vals.push(
                    key_iter
                        .next()
                        .ok_or_else(|| Error::Internal("group key arity".into()))?,
                ),
                OutputColumn::Agg { .. } => vals.push(
                    state_iter
                        .next()
                        .ok_or_else(|| Error::Internal("agg arity".into()))?
                        .finish(),
                ),
            }
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
}
