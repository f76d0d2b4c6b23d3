//! Oracle property test of the bind/run executor: on small random tables,
//! `execute_spec` returns exactly what a naive evaluator written here
//! returns — the cross product of every input, filtered by the join
//! conditions, the spec filter and the extra filters, then projected or
//! grouped. Covers joins with and without an index on the join column,
//! pushdown and cross-alias filters, computed columns, and aggregates.

use std::collections::{BTreeMap, HashSet};

use bullfrog_common::{ColumnDef, DataType, Row, TableSchema, Value};
use bullfrog_engine::exec::{execute_spec, ExecOptions};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_query::{AggFunc, ColRef, Expr, OutputColumn, Scope, SelectSpec};
use proptest::prelude::*;

/// `a(id, g, v)` with a nullable `v`, and `b(g, w)`, non-unique on `g`,
/// with an index on `b.g` when `indexed`.
fn build(mode: EngineMode, a: &[(i64, Option<i64>)], b: &[(i64, i64)], indexed: bool) -> Database {
    let db = Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    });
    db.create_table(
        TableSchema::new(
            "a",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("g", DataType::Int),
                ColumnDef::nullable("v", DataType::Int),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    db.create_table(TableSchema::new(
        "b",
        vec![
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("w", DataType::Int),
        ],
    ))
    .unwrap();
    if indexed {
        db.create_index("b", "b_g", &["g"], false).unwrap();
    }
    db.with_txn(|txn| {
        for (id, (g, v)) in a.iter().enumerate() {
            let v = v.map_or(Value::Null, Value::Int);
            db.insert(
                txn,
                "a",
                Row(vec![Value::Int(id as i64), Value::Int(*g), v]),
            )?;
        }
        for (g, w) in b {
            db.insert(txn, "b", Row(vec![Value::Int(*g), Value::Int(*w)]))?;
        }
        Ok(())
    })
    .unwrap();
    db
}

/// The spec under test, by shape, with the constant `c`.
fn spec(shape: u8, c: i64) -> SelectSpec {
    let join = || {
        SelectSpec::new()
            .from_table("a", "a")
            .from_table("b", "b")
            .join_on(ColRef::new("a", "g"), ColRef::new("b", "g"))
    };
    match shape {
        // One table: pushdown filter and computed columns.
        0 => SelectSpec::new()
            .from_table("a", "a")
            .filter(Expr::col("a", "v").gt(Expr::lit(c)))
            .select("id", Expr::col("a", "id"))
            .select("twice", Expr::col("a", "v").mul(Expr::lit(2)))
            .select("shift", Expr::col("a", "g").add(Expr::lit(c))),
        // Join with a pushdown on each side and a cross-alias residual.
        1 => join()
            .filter(
                Expr::col("b", "w")
                    .ge(Expr::lit(c))
                    .and(Expr::col("a", "v").lt(Expr::col("b", "w")))
                    .and(Expr::col("a", "id").ne(Expr::lit(c))),
            )
            .select("id", Expr::col("a", "id"))
            .select("w", Expr::col("b", "w"))
            .select("gap", Expr::col("b", "w").sub(Expr::col("a", "v"))),
        // Join, bare columns only (the projection that moves values).
        2 => join()
            .select("w", Expr::col("b", "w"))
            .select("id", Expr::col("a", "id"))
            .select("g", Expr::col("b", "g")),
        // Grouped aggregates over the join.
        3 => join()
            .filter(Expr::col("b", "w").lt(Expr::lit(c + 5)))
            .select("g", Expr::col("a", "g"))
            .select_agg("total", AggFunc::Sum, Expr::col("a", "v"))
            .select_agg("n", AggFunc::Count, Expr::col("a", "v"))
            .select_agg("kinds", AggFunc::CountDistinct, Expr::col("b", "w"))
            .select_agg("lo", AggFunc::Min, Expr::col("b", "w"))
            .select_agg(
                "hi",
                AggFunc::Max,
                Expr::col("a", "v").add(Expr::col("b", "w")),
            ),
        // A global aggregate, possibly over no rows.
        _ => SelectSpec::new()
            .from_table("a", "a")
            .filter(Expr::col("a", "g").eq(Expr::lit(c)))
            .select_agg("n", AggFunc::Count, Expr::lit(1))
            .select_agg("total", AggFunc::Sum, Expr::col("a", "v")),
    }
}

/// The naive evaluator: every combination of input rows, kept when every
/// join condition is a definite equality and every filter definitely
/// holds, then projected or grouped.
fn oracle(db: &Database, spec: &SelectSpec, extra: &BTreeMap<String, Expr>) -> Vec<Row> {
    let mut scope = Scope::new();
    let mut combos: Vec<Row> = vec![Row(Vec::new())];
    for input in &spec.inputs {
        let t = db.table(&input.table).unwrap();
        for c in &t.schema().columns {
            scope.push(Some(input.alias.clone()), c.name.clone());
        }
        let rows = db.select_unlocked(&input.table, None).unwrap();
        combos = combos
            .iter()
            .flat_map(|left| rows.iter().map(move |(_, r)| left.concat(r)))
            .collect();
    }
    let holds = |e: &Expr, r: &Row| e.matches(&scope, r).unwrap();
    let kept: Vec<Row> = combos
        .into_iter()
        .filter(|r| {
            spec.join_conds.iter().all(|(x, y)| {
                let (vx, vy) = (
                    Expr::Col(x.clone()).eval(&scope, r).unwrap(),
                    Expr::Col(y.clone()).eval(&scope, r).unwrap(),
                );
                vx.sql_cmp(&vy) == Some(std::cmp::Ordering::Equal)
            })
        })
        .filter(|r| spec.filter.as_ref().is_none_or(|f| holds(f, r)))
        .filter(|r| extra.values().all(|f| holds(f, r)))
        .collect();

    if !spec.is_aggregate() {
        return kept
            .iter()
            .map(|r| {
                Row(spec
                    .columns
                    .iter()
                    .map(|c| match c {
                        OutputColumn::Scalar { expr, .. } => expr.eval(&scope, r).unwrap(),
                        OutputColumn::Agg { .. } => unreachable!(),
                    })
                    .collect())
            })
            .collect();
    }
    let keys = spec.group_key_exprs();
    let mut groups: BTreeMap<Vec<Value>, Vec<&Row>> = BTreeMap::new();
    if keys.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    for r in &kept {
        let key = keys.iter().map(|e| e.eval(&scope, r).unwrap()).collect();
        groups.entry(key).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(key, members)| {
            let mut key = key.into_iter();
            Row(spec
                .columns
                .iter()
                .map(|c| match c {
                    OutputColumn::Scalar { .. } => key.next().unwrap(),
                    OutputColumn::Agg { func, arg, .. } => {
                        let vals: Vec<Value> = members
                            .iter()
                            .map(|r| arg.eval(&scope, r).unwrap())
                            .filter(|v| !v.is_null())
                            .collect();
                        match func {
                            AggFunc::Count => Value::Int(vals.len() as i64),
                            AggFunc::CountDistinct => {
                                Value::Int(vals.iter().collect::<HashSet<_>>().len() as i64)
                            }
                            AggFunc::Sum => vals
                                .iter()
                                .cloned()
                                .reduce(|x, y| x.add(&y).unwrap())
                                .unwrap_or(Value::Null),
                            AggFunc::Min => vals.into_iter().min().unwrap_or(Value::Null),
                            AggFunc::Max => vals.into_iter().max().unwrap_or(Value::Null),
                        }
                    }
                })
                .collect())
        })
        .collect()
}

/// `Some` of a value from `values`, or `None` one time in four.
fn maybe(values: std::ops::Range<i64>) -> impl Strategy<Value = Option<i64>> {
    (0u8..4, values).prop_map(|(roll, v)| (roll != 0).then_some(v))
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn execute_spec_equals_the_naive_evaluator(
        a in proptest::collection::vec((0i64..5, maybe(-3i64..6)), 0..14),
        b in proptest::collection::vec((0i64..6, -2i64..8), 0..12),
        shape in 0u8..5,
        c in -2i64..5,
        indexed in any::<bool>(),
        extra_bound in maybe(0i64..14),
    ) {
        let spec = spec(shape, c);
        let mut extra = BTreeMap::new();
        if let Some(k) = extra_bound {
            extra.insert("a".to_string(), Expr::col("a", "id").lt(Expr::lit(k)));
        }
        for mode in EngineMode::ALL {
            let db = build(mode, &a, &b, indexed);
            prop_assert_eq!(db.config().mode, mode);
            let want = sorted(oracle(&db, &spec, &extra));
            let mut txn = db.begin();
            let opts = ExecOptions {
                extra_filters: extra.clone(),
                lock: LockPolicy::Shared,
                ..Default::default()
            };
            let got = execute_spec(&db, &mut txn, &spec, &opts).unwrap();
            db.commit(&mut txn).unwrap();
            prop_assert_eq!(got.names, spec.output_names());
            prop_assert_eq!(sorted(got.rows), want, "mode {:?}", mode);
        }
    }
}
