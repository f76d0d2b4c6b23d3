//! Output-schema inference for `CREATE TABLE ... AS SELECT` (the types a
//! real engine derives during CTAS planning).

use bullfrog_common::{ColumnDef, DataType, Error, Result, TableSchema};
use bullfrog_engine::exec::locate;
use bullfrog_engine::Database;
use bullfrog_query::{AggFunc, ColRef, Expr, Func, OutputColumn, SelectSpec};

/// Inferred type + nullability of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inferred {
    dtype: DataType,
    nullable: bool,
}

/// Qualifies every bare column reference in the spec (projections,
/// filters, join conditions) with the alias of the unique input table
/// holding that column. Migration specs need this: predicate transposition
/// attaches filters per alias, so an unqualified `FLIGHTDATE` would
/// otherwise not reach its table's scan.
pub fn qualify_spec(db: &Database, spec: &SelectSpec) -> Result<SelectSpec> {
    let resolve = |c: &ColRef| -> Result<Option<ColRef>> {
        if c.table.is_some() {
            return Ok(None);
        }
        let (s, _) = infer_col(db, spec, c)?;
        Ok(Some(ColRef::new(
            spec.inputs[s].alias.clone(),
            c.column.clone(),
        )))
    };

    // map_columns is infallible; collect errors on the side.
    let failure: std::cell::RefCell<Option<Error>> = std::cell::RefCell::new(None);
    let qualify_expr = |e: &Expr| -> Expr {
        e.map_columns(&|c: &ColRef| match resolve(c) {
            Ok(Some(q)) => Some(Expr::Col(q)),
            Ok(None) => None,
            Err(err) => {
                *failure.borrow_mut() = Some(err);
                None
            }
        })
    };

    let mut out = SelectSpec::new();
    for input in &spec.inputs {
        out = out.from_table(input.table.clone(), input.alias.clone());
    }
    for (a, b) in &spec.join_conds {
        let qa = resolve(a)?.unwrap_or_else(|| a.clone());
        let qb = resolve(b)?.unwrap_or_else(|| b.clone());
        out = out.join_on(qa, qb);
    }
    if let Some(f) = &spec.filter {
        out = out.filter(qualify_expr(f));
    }
    for c in &spec.columns {
        match c {
            OutputColumn::Scalar { name, expr } => {
                out = out.select(name.clone(), qualify_expr(expr));
            }
            OutputColumn::Agg { name, func, arg } => {
                out = out.select_agg(name.clone(), *func, qualify_expr(arg));
            }
        }
    }
    match failure.into_inner() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Infers the output table's schema from the spec and the catalog.
/// Columns defined as a literal `NULL` carry no type of their own; list
/// them in `null_types` (name → type), otherwise they infer as nullable
/// `Text`.
pub fn infer_output_schema(
    db: &Database,
    name: &str,
    spec: &SelectSpec,
    null_types: &[(&str, DataType)],
) -> Result<TableSchema> {
    let mut columns = Vec::with_capacity(spec.columns.len());
    for c in &spec.columns {
        let (col_name, inferred) = match c {
            OutputColumn::Scalar { name, expr } => {
                if matches!(expr, Expr::Lit(bullfrog_common::Value::Null)) {
                    let dtype = null_types
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, t)| *t)
                        .unwrap_or(DataType::Text);
                    (
                        name.clone(),
                        Inferred {
                            dtype,
                            nullable: true,
                        },
                    )
                } else {
                    (name.clone(), infer_expr(db, spec, expr)?)
                }
            }
            OutputColumn::Agg { name, func, arg } => {
                let base = infer_expr(db, spec, arg)?;
                let inferred = match func {
                    AggFunc::Count | AggFunc::CountDistinct => Inferred {
                        dtype: DataType::Int,
                        nullable: false,
                    },
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => Inferred {
                        dtype: base.dtype,
                        nullable: true, // empty groups yield NULL
                    },
                };
                (name.clone(), inferred)
            }
        };
        columns.push(ColumnDef {
            name: col_name,
            dtype: inferred.dtype,
            nullable: inferred.nullable,
        });
    }
    Ok(TableSchema::new(name, columns))
}

fn infer_expr(db: &Database, spec: &SelectSpec, e: &Expr) -> Result<Inferred> {
    match e {
        Expr::Col(c) => Ok(infer_col(db, spec, c)?.1),
        Expr::Lit(v) => Ok(Inferred {
            dtype: v.data_type().unwrap_or(DataType::Text),
            nullable: v.is_null(),
        }),
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_) | Expr::IsNull(_) => {
            Ok(Inferred {
                dtype: DataType::Bool,
                nullable: true,
            })
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            let (ia, ib) = (infer_expr(db, spec, a)?, infer_expr(db, spec, b)?);
            let dtype = match (ia.dtype, ib.dtype) {
                (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                (DataType::Decimal, _) | (_, DataType::Decimal) => DataType::Decimal,
                _ => DataType::Int,
            };
            Ok(Inferred {
                dtype,
                nullable: ia.nullable || ib.nullable,
            })
        }
        Expr::Call(Func::ExtractDay, arg) => {
            let a = infer_expr(db, spec, arg)?;
            Ok(Inferred {
                dtype: DataType::Int,
                nullable: a.nullable,
            })
        }
        Expr::Call(Func::Abs | Func::Neg, arg) => infer_expr(db, spec, arg),
        Expr::Param(i) => Err(Error::Eval(format!(
            "parameter ?{} not allowed here: output schema inference needs concrete types",
            i + 1
        ))),
    }
}

/// Which input `c` names, by [`locate`]'s rule, and the column's type.
fn infer_col(db: &Database, spec: &SelectSpec, c: &ColRef) -> Result<(usize, Inferred)> {
    let order: Vec<&str> = spec.inputs.iter().map(|i| i.alias.as_str()).collect();
    let tables = spec
        .inputs
        .iter()
        .map(|i| db.table(&i.table))
        .collect::<Result<Vec<_>>>()?;
    let (s, i) = locate(&order, &tables, c)?;
    let col = &tables[s].schema().columns[i];
    Ok((
        s,
        Inferred {
            dtype: col.dtype,
            nullable: col.nullable,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            TableSchema::new(
                "flights",
                vec![
                    ColumnDef::new("flightid", DataType::Text),
                    ColumnDef::new("capacity", DataType::Int),
                    ColumnDef::new("departure_time", DataType::Timestamp),
                ],
            )
            .with_primary_key(&["flightid"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "flewon",
            vec![
                ColumnDef::new("flightid", DataType::Text),
                ColumnDef::new("flightdate", DataType::Date),
                ColumnDef::nullable("passenger_count", DataType::Int),
            ],
        ))
        .unwrap();
        db
    }

    #[test]
    fn ctas_types_follow_sources() {
        let db = db();
        let spec = parse_select(
            "SELECT f.flightid AS fid, flightdate, passenger_count, \
             capacity - passenger_count AS empty_seats, \
             departure_time AS expected, NULL AS actual \
             FROM flights f, flewon fi WHERE f.flightid = fi.flightid",
        )
        .unwrap();
        let s = infer_output_schema(&db, "out", &spec, &[("actual", DataType::Timestamp)]).unwrap();
        let types: Vec<(String, DataType, bool)> = s
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.dtype, c.nullable))
            .collect();
        assert_eq!(types[0], ("fid".into(), DataType::Text, false));
        assert_eq!(types[1], ("flightdate".into(), DataType::Date, false));
        assert_eq!(types[2], ("passenger_count".into(), DataType::Int, true));
        // Arithmetic with a nullable operand is nullable.
        assert_eq!(types[3], ("empty_seats".into(), DataType::Int, true));
        assert_eq!(types[4], ("expected".into(), DataType::Timestamp, false));
        assert_eq!(types[5], ("actual".into(), DataType::Timestamp, true));
    }

    #[test]
    fn aggregates_infer_correctly() {
        let db = db();
        let spec = parse_select(
            "SELECT flightid, COUNT(*) AS n, SUM(passenger_count) AS total \
             FROM flewon GROUP BY flightid",
        )
        .unwrap();
        let s = infer_output_schema(&db, "out", &spec, &[]).unwrap();
        assert_eq!(s.columns[1].dtype, DataType::Int);
        assert!(!s.columns[1].nullable, "COUNT is never NULL");
        assert_eq!(s.columns[2].dtype, DataType::Int);
        assert!(s.columns[2].nullable, "SUM of empty group is NULL");
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let db = db();
        let spec = parse_select(
            "SELECT flightid FROM flights f, flewon fi WHERE f.flightid = fi.flightid",
        )
        .unwrap();
        assert!(infer_output_schema(&db, "out", &spec, &[]).is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        let db = db();
        let spec = parse_select("SELECT nope FROM flights").unwrap();
        assert!(matches!(
            infer_output_schema(&db, "out", &spec, &[]),
            Err(Error::ColumnNotFound(_))
        ));
    }
}
