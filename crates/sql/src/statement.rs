//! Statement-level entry point: the full command surface a network
//! session accepts.
//!
//! [`parse_statement`] turns one statement of text into a [`Statement`] —
//! the union of everything a remote client may submit: reads
//! (`SELECT`), writes (`INSERT`/`UPDATE`/`DELETE`), transaction control
//! (`BEGIN`/`COMMIT`/`ROLLBACK`), plain DDL (`CREATE TABLE`), migration
//! DDL (`CREATE TABLE ... AS SELECT ...`, optionally followed by
//! `PRIMARY KEY (...)` re-declaring the new table's key, as the paper's
//! DDL does), and the BullFrog maintenance verbs `CHECKPOINT` and
//! `FINALIZE MIGRATION [DROP OLD]`.
//!
//! Parsing is catalog-independent: migration DDL carries its defining
//! [`SelectSpec`] unresolved, and the executor (the server session)
//! performs schema inference against its own catalog. `INSERT` values
//! are constant-folded at parse time — they may be arithmetic over
//! literals, but any column reference is a parse error.

use bullfrog_common::{Error, Result, Row, TableSchema, Value};
use bullfrog_query::{BoundExpr, Expr, SelectSpec};

use crate::parser::Parser;

/// One parsed client statement.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `SELECT ...` — a read (possibly joining/aggregating).
    Select(SelectSpec),
    /// `INSERT INTO t [(cols)] VALUES (...), (...)`.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list (empty = schema order).
        columns: Vec<String>,
        /// Constant-folded value tuples.
        rows: Vec<Row>,
    },
    /// `INSERT INTO t [(cols)] VALUES (...)` inside a prepared template
    /// whose value expressions contain `?` placeholders: folding is
    /// deferred to [`PreparedTemplate::bind`], which turns this back into
    /// [`Statement::Insert`]. Never produced by [`parse_statement`].
    InsertExprs {
        /// Target table.
        table: String,
        /// Explicit column list (empty = schema order).
        columns: Vec<String>,
        /// Unfolded value tuples (literals, arithmetic, placeholders).
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET col = expr, ... [WHERE pred]`; set expressions may
    /// reference the row's own columns (`balance = balance + 1`).
    Update {
        /// Target table.
        table: String,
        /// `(column, new value expression)` pairs.
        sets: Vec<(String, Expr)>,
        /// Row filter (`None` = all rows).
        predicate: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE pred]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter (`None` = all rows).
        predicate: Option<Expr>,
    },
    /// `CREATE TABLE t (col type ..., constraints...)`.
    CreateTable(TableSchema),
    /// Migration DDL: `CREATE TABLE t AS (SELECT ...) [PRIMARY KEY (...)]`.
    CreateTableAs {
        /// New table name.
        name: String,
        /// Defining query over the old schema (unresolved).
        select: SelectSpec,
        /// Re-declared primary key of the new table (may be empty).
        primary_key: Vec<String>,
    },
    /// `BEGIN` — open an explicit transaction.
    Begin,
    /// `COMMIT` — commit the session's open transaction.
    Commit,
    /// `COMMIT NOWAIT` — commit asynchronously: the server acknowledges
    /// at WAL-enqueue time instead of waiting for the group-commit fsync.
    CommitNowait,
    /// `ROLLBACK` (or `ABORT`) — abort the session's open transaction.
    Rollback,
    /// `CHECKPOINT` — run one checkpoint cycle.
    Checkpoint,
    /// `FINALIZE MIGRATION [DROP OLD]` — clear a completed migration.
    FinalizeMigration {
        /// Also drop the old input tables.
        drop_old: bool,
    },
    /// `SET COMMIT_MODE NOWAIT(n) | SYNC` — switch the session's commit
    /// acknowledgement mode: `NOWAIT(n)` makes every commit asynchronous
    /// with at most `n` un-durable commits outstanding (the session blocks
    /// on the oldest when the window fills); `SYNC` drains the window and
    /// restores synchronous commits.
    SetCommitMode {
        /// `Some(max_unacked)` for `NOWAIT(n)`, `None` for `SYNC`.
        max_unacked: Option<u64>,
    },
    /// `SET SYNC_REPLICAS n` — gate every commit acknowledgement on `n`
    /// replicas confirming the commit applied (composed with the merged
    /// WAL durable horizon). `0` turns synchronous replication off.
    /// Node-global, not per-session.
    SetSyncReplicas {
        /// Replica acks required per commit.
        count: u64,
    },
    /// `SET SYNC_POLICY BLOCK | DEGRADE <ms>` — what a sync-replicated
    /// commit does when the replicas fall away: `BLOCK` waits
    /// indefinitely; `DEGRADE ms` acks on local durability after the
    /// window, provided the node still verifiably leads.
    SetSyncPolicy {
        /// `Some(window_ms)` for `DEGRADE <ms>`, `None` for `BLOCK`.
        degrade_ms: Option<u64>,
    },
}

/// Parses one statement. Never panics: malformed input, oversized
/// literals, and absurd nesting all return `Err`. `?` placeholders are
/// rejected — prepared templates go through [`parse_template`].
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = statement(&mut p)?;
    p.expect_end()?;
    Ok(stmt)
}

/// A parsed prepared-statement template: a [`Statement`] that may contain
/// `?` placeholders ([`bullfrog_query::Expr::Param`]), plus the number of
/// placeholders. [`PreparedTemplate::bind`] substitutes actual values and
/// yields an executable [`Statement`].
#[derive(Debug, Clone)]
pub struct PreparedTemplate {
    stmt: Statement,
    n_params: u32,
}

/// Parses one statement as a prepared template, allowing `?` placeholders
/// inside DML expressions (assigned positions left to right). Placeholders
/// are only legal in `SELECT`/`INSERT`/`UPDATE`/`DELETE`: DDL and control
/// statements need concrete values at parse time.
pub fn parse_template(sql: &str) -> Result<PreparedTemplate> {
    let mut p = Parser::new_template(sql)?;
    let stmt = statement(&mut p)?;
    p.expect_end()?;
    let n_params = p.param_count();
    if n_params > 0
        && !matches!(
            stmt,
            Statement::Select(_)
                | Statement::Insert { .. }
                | Statement::InsertExprs { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
        )
    {
        return Err(Error::Eval(
            "parameter placeholders are only allowed in SELECT/INSERT/UPDATE/DELETE".into(),
        ));
    }
    Ok(PreparedTemplate { stmt, n_params })
}

impl PreparedTemplate {
    /// The underlying (possibly placeholder-carrying) statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Number of `?` placeholders the template expects.
    pub fn n_params(&self) -> u32 {
        self.n_params
    }

    /// Substitutes `params` for the placeholders and returns an executable
    /// statement. Arity must match exactly.
    pub fn bind(&self, params: &[Value]) -> Result<Statement> {
        if params.len() != self.n_params as usize {
            return Err(Error::Eval(format!(
                "prepared statement expects {} parameters, got {}",
                self.n_params,
                params.len()
            )));
        }
        Ok(match &self.stmt {
            Statement::Select(spec) => Statement::Select(bind_spec(spec, params)?),
            Statement::InsertExprs {
                table,
                columns,
                rows,
            } => {
                let mut out = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let vals = exprs.iter().map(|e| fold(&e.bind_params(params)?));
                    out.push(Row(vals.collect::<Result<_>>()?));
                }
                Statement::Insert {
                    table: table.clone(),
                    columns: columns.clone(),
                    rows: out,
                }
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => Statement::Update {
                table: table.clone(),
                sets: sets
                    .iter()
                    .map(|(c, e)| Ok((c.clone(), e.bind_params(params)?)))
                    .collect::<Result<Vec<_>>>()?,
                predicate: predicate
                    .as_ref()
                    .map(|e| e.bind_params(params))
                    .transpose()?,
            },
            Statement::Delete { table, predicate } => Statement::Delete {
                table: table.clone(),
                predicate: predicate
                    .as_ref()
                    .map(|e| e.bind_params(params))
                    .transpose()?,
            },
            // Zero-parameter templates of any other kind execute as-is.
            other => other.clone(),
        })
    }
}

fn bind_spec(spec: &SelectSpec, params: &[Value]) -> Result<SelectSpec> {
    use bullfrog_query::OutputColumn;
    Ok(SelectSpec {
        inputs: spec.inputs.clone(),
        join_conds: spec.join_conds.clone(),
        filter: spec
            .filter
            .as_ref()
            .map(|e| e.bind_params(params))
            .transpose()?,
        columns: spec
            .columns
            .iter()
            .map(|c| {
                Ok(match c {
                    OutputColumn::Scalar { name, expr } => OutputColumn::Scalar {
                        name: name.clone(),
                        expr: expr.bind_params(params)?,
                    },
                    OutputColumn::Agg { name, func, arg } => OutputColumn::Agg {
                        name: name.clone(),
                        func: *func,
                        arg: arg.bind_params(params)?,
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?,
    })
}

fn statement(p: &mut Parser) -> Result<Statement> {
    use crate::lexer::Token;
    match p.peek().and_then(Token::word) {
        Some("select") => return Ok(Statement::Select(p.select()?)),
        Some("create") => return create(p),
        _ => {}
    }
    if p.eat_word("insert") {
        return insert(p);
    }
    if p.eat_word("update") {
        return update(p);
    }
    if p.eat_word("delete") {
        p.keyword("from")?;
        let table = p.ident()?;
        let predicate = where_clause(p)?;
        return Ok(Statement::Delete { table, predicate });
    }
    if p.eat_word("begin") {
        let _ = p.eat_word("transaction");
        return Ok(Statement::Begin);
    }
    if p.eat_word("commit") {
        if p.eat_word("nowait") {
            return Ok(Statement::CommitNowait);
        }
        return Ok(Statement::Commit);
    }
    if p.eat_word("rollback") || p.eat_word("abort") {
        return Ok(Statement::Rollback);
    }
    if p.eat_word("checkpoint") {
        return Ok(Statement::Checkpoint);
    }
    if p.eat_word("set") {
        if p.eat_word("sync_replicas") {
            let n = p.int_literal()?;
            if n < 0 {
                return Err(Error::Eval(format!(
                    "SYNC_REPLICAS must be non-negative, got {n}"
                )));
            }
            return Ok(Statement::SetSyncReplicas { count: n as u64 });
        }
        if p.eat_word("sync_policy") {
            if p.eat_word("block") {
                return Ok(Statement::SetSyncPolicy { degrade_ms: None });
            }
            p.keyword("degrade")?;
            let ms = p.int_literal()?;
            if ms < 0 {
                return Err(Error::Eval(format!(
                    "SYNC_POLICY DEGRADE window must be non-negative, got {ms}"
                )));
            }
            return Ok(Statement::SetSyncPolicy {
                degrade_ms: Some(ms as u64),
            });
        }
        p.keyword("commit_mode")?;
        if p.eat_word("sync") {
            return Ok(Statement::SetCommitMode { max_unacked: None });
        }
        p.keyword("nowait")?;
        p.sym("(")?;
        let n = p.int_literal()?;
        p.sym(")")?;
        if n < 0 {
            return Err(Error::Eval(format!(
                "COMMIT_MODE NOWAIT window must be non-negative, got {n}"
            )));
        }
        return Ok(Statement::SetCommitMode {
            max_unacked: Some(n as u64),
        });
    }
    if p.eat_word("finalize") {
        p.keyword("migration")?;
        let drop_old = if p.eat_word("drop") {
            p.keyword("old")?;
            true
        } else {
            false
        };
        return Ok(Statement::FinalizeMigration { drop_old });
    }
    Err(Error::Eval(format!(
        "expected a statement keyword, found {:?}",
        p.peek()
    )))
}

fn create(p: &mut Parser) -> Result<Statement> {
    // Look ahead past `CREATE TABLE <name>` to distinguish plain DDL
    // from migration DDL, then rewind for the plain-DDL path (whose
    // parser consumes the whole prefix itself).
    let start = p.mark();
    p.keyword("create")?;
    p.keyword("table")?;
    let name = p.ident()?;
    if p.eat_word("as") {
        let parenthesized = p.eat_sym("(");
        let select = p.select()?;
        if parenthesized {
            p.sym(")")?;
        }
        let mut primary_key = Vec::new();
        if p.eat_word("primary") {
            p.keyword("key")?;
            primary_key = p.paren_ident_list()?;
        }
        return Ok(Statement::CreateTableAs {
            name,
            select,
            primary_key,
        });
    }
    p.rewind(start);
    Ok(Statement::CreateTable(p.create_table()?))
}

fn insert(p: &mut Parser) -> Result<Statement> {
    p.keyword("into")?;
    let table = p.ident()?;
    let mut columns = Vec::new();
    // A '(' here is ambiguous only with VALUES, which must follow anyway.
    if matches!(p.peek(), Some(crate::lexer::Token::Sym("("))) {
        columns = p.paren_ident_list()?;
    }
    p.keyword("values")?;
    let params_before = p.param_count();
    let mut exprs = Vec::new();
    loop {
        p.sym("(")?;
        let mut vals = Vec::new();
        loop {
            vals.push(p.additive()?);
            if !p.eat_sym(",") {
                break;
            }
        }
        p.sym(")")?;
        exprs.push(vals);
        if !p.eat_sym(",") {
            break;
        }
    }
    if p.param_count() > params_before {
        // Placeholders present: folding waits for bind(), but column
        // references are still a parse error (same contract as below).
        for e in exprs.iter().flatten() {
            bind_constant(e)?;
        }
        return Ok(Statement::InsertExprs {
            table,
            columns,
            rows: exprs,
        });
    }
    let mut rows = Vec::with_capacity(exprs.len());
    for vals in exprs {
        rows.push(Row(vals.iter().map(fold).collect::<Result<_>>()?));
    }
    Ok(Statement::Insert {
        table,
        columns,
        rows,
    })
}

/// Binds an INSERT value with no column in scope: any column reference
/// makes it non-constant.
fn bind_constant(e: &Expr) -> Result<BoundExpr> {
    e.bind(&mut |_| Err(not_constant(e)))
}

/// Constant-folds an INSERT value: binds it with no column in scope,
/// then evaluates it against the empty row.
fn fold(e: &Expr) -> Result<Value> {
    bind_constant(e)?
        .eval(&Row(Vec::new()))
        .map_err(|_| not_constant(e))
}

fn not_constant(e: &Expr) -> Error {
    Error::Eval(format!("INSERT value {e} is not a constant expression"))
}

fn update(p: &mut Parser) -> Result<Statement> {
    let table = p.ident()?;
    p.keyword("set")?;
    let mut sets = Vec::new();
    loop {
        let col = p.ident()?;
        p.sym("=")?;
        sets.push((col, p.additive()?));
        if !p.eat_sym(",") {
            break;
        }
    }
    let predicate = where_clause(p)?;
    Ok(Statement::Update {
        table,
        sets,
        predicate,
    })
}

fn where_clause(p: &mut Parser) -> Result<Option<Expr>> {
    if p.eat_word("where") {
        Ok(Some(p.or_expr()?))
    } else {
        Ok(None)
    }
}

/// Convenience: the value tuples of an INSERT reordered to `schema`'s
/// column order (resolving an explicit column list, `NULL`-filling
/// omitted nullable columns). Errors on unknown columns or arity
/// mismatches — never panics.
pub fn reorder_insert_rows(
    schema: &TableSchema,
    columns: &[String],
    rows: &[Row],
) -> Result<Vec<Row>> {
    if columns.is_empty() {
        for r in rows {
            if r.0.len() != schema.columns.len() {
                return Err(Error::SchemaMismatch(format!(
                    "INSERT into {} supplies {} values for {} columns",
                    schema.name,
                    r.0.len(),
                    schema.columns.len()
                )));
            }
        }
        return Ok(rows.to_vec());
    }
    let mut positions = Vec::with_capacity(columns.len());
    for c in columns {
        positions.push(schema.col_index(c)?);
    }
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if r.0.len() != positions.len() {
            return Err(Error::SchemaMismatch(format!(
                "INSERT into {} supplies {} values for {} named columns",
                schema.name,
                r.0.len(),
                positions.len()
            )));
        }
        let mut full = vec![Value::Null; schema.columns.len()];
        for (v, &pos) in r.0.iter().zip(&positions) {
            full[pos] = v.clone();
        }
        out.push(Row(full));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_statement_kind() {
        assert!(matches!(
            parse_statement("SELECT a FROM t").unwrap(),
            Statement::Select(_)
        ));
        assert!(matches!(
            parse_statement("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { ref rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET a = a + 1 WHERE id = 3").unwrap(),
            Statement::Update { ref sets, .. } if sets.len() == 1
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE id = 3").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("CREATE TABLE t (a INT, PRIMARY KEY (a))").unwrap(),
            Statement::CreateTable(_)
        ));
        assert!(matches!(
            parse_statement("BEGIN").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("COMMIT;").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("COMMIT NOWAIT").unwrap(),
            Statement::CommitNowait
        ));
        assert!(matches!(
            parse_statement("ROLLBACK").unwrap(),
            Statement::Rollback
        ));
        assert!(matches!(
            parse_statement("CHECKPOINT").unwrap(),
            Statement::Checkpoint
        ));
        assert!(matches!(
            parse_statement("FINALIZE MIGRATION DROP OLD").unwrap(),
            Statement::FinalizeMigration { drop_old: true }
        ));
        assert!(matches!(
            parse_statement("SET COMMIT_MODE NOWAIT(8)").unwrap(),
            Statement::SetCommitMode {
                max_unacked: Some(8)
            }
        ));
        assert!(matches!(
            parse_statement("SET COMMIT_MODE SYNC").unwrap(),
            Statement::SetCommitMode { max_unacked: None }
        ));
    }

    #[test]
    fn commit_mode_rejects_malformed_windows() {
        assert!(parse_statement("SET COMMIT_MODE NOWAIT(-1)").is_err());
        assert!(parse_statement("SET COMMIT_MODE NOWAIT").is_err());
        assert!(parse_statement("SET COMMIT_MODE").is_err());
        assert!(parse_statement("SET LOCK_MODE SYNC").is_err());
    }

    #[test]
    fn sync_replication_settings_parse() {
        assert!(matches!(
            parse_statement("SET SYNC_REPLICAS 2").unwrap(),
            Statement::SetSyncReplicas { count: 2 }
        ));
        assert!(matches!(
            parse_statement("set sync_replicas 0").unwrap(),
            Statement::SetSyncReplicas { count: 0 }
        ));
        assert!(matches!(
            parse_statement("SET SYNC_POLICY BLOCK").unwrap(),
            Statement::SetSyncPolicy { degrade_ms: None }
        ));
        assert!(matches!(
            parse_statement("SET SYNC_POLICY DEGRADE 750").unwrap(),
            Statement::SetSyncPolicy {
                degrade_ms: Some(750)
            }
        ));
        assert!(parse_statement("SET SYNC_REPLICAS -1").is_err());
        assert!(parse_statement("SET SYNC_REPLICAS").is_err());
        assert!(parse_statement("SET SYNC_POLICY DEGRADE -5").is_err());
        assert!(parse_statement("SET SYNC_POLICY RETREAT").is_err());
    }

    #[test]
    fn migration_ddl_with_primary_key() {
        let s = parse_statement(
            "CREATE TABLE flewoninfo AS (SELECT f.flightid AS fid, fi.flightdate \
             FROM flights f, flewon fi WHERE f.flightid = fi.flightid) \
             PRIMARY KEY (fid, flightdate)",
        )
        .unwrap();
        match s {
            Statement::CreateTableAs {
                name,
                select,
                primary_key,
            } => {
                assert_eq!(name, "flewoninfo");
                assert_eq!(select.inputs.len(), 2);
                assert_eq!(primary_key, vec!["fid", "flightdate"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_values_are_constant_folded() {
        match parse_statement("INSERT INTO t VALUES (1 + 2, -3, 'x')").unwrap() {
            Statement::Insert { rows, .. } => {
                assert_eq!(
                    rows[0],
                    Row(vec![Value::Int(3), Value::Int(-3), Value::text("x")])
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("INSERT INTO t VALUES (a)").is_err());
    }

    #[test]
    fn plain_parse_rejects_placeholders() {
        assert!(parse_statement("SELECT a FROM t WHERE id = ?").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (?)").is_err());
    }

    #[test]
    fn template_select_binds_to_same_statement_as_literal() {
        let t = parse_template("SELECT a FROM t WHERE id = ? AND b < ?").unwrap();
        assert_eq!(t.n_params(), 2);
        let bound = t.bind(&[Value::Int(7), Value::text("z")]).unwrap();
        let literal = parse_statement("SELECT a FROM t WHERE id = 7 AND b < 'z'").unwrap();
        match (bound, literal) {
            (Statement::Select(a), Statement::Select(b)) => {
                assert_eq!(a.filter, b.filter);
                assert_eq!(a.columns, b.columns);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn template_insert_defers_folding() {
        let t = parse_template("INSERT INTO t (a, b) VALUES (?, ? + 1)").unwrap();
        assert_eq!(t.n_params(), 2);
        assert!(matches!(t.statement(), Statement::InsertExprs { .. }));
        match t.bind(&[Value::Int(3), Value::Int(9)]).unwrap() {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0], Row(vec![Value::Int(3), Value::Int(10)]));
            }
            other => panic!("{other:?}"),
        }
        // Column references are still rejected at parse time.
        assert!(parse_template("INSERT INTO t VALUES (?, some_col)").is_err());
    }

    #[test]
    fn template_update_delete_bind() {
        let t = parse_template("UPDATE t SET a = a + ? WHERE id = ?").unwrap();
        match t.bind(&[Value::Int(5), Value::Int(1)]).unwrap() {
            Statement::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets[0].1.to_string(), "(a + 5)");
                assert_eq!(predicate.unwrap().to_string(), "(id = 1)");
            }
            other => panic!("{other:?}"),
        }
        let t = parse_template("DELETE FROM t WHERE id = ?").unwrap();
        assert!(matches!(
            t.bind(&[Value::Int(2)]).unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn template_arity_and_kind_checks() {
        let t = parse_template("SELECT a FROM t WHERE id = ?").unwrap();
        assert!(t.bind(&[]).is_err());
        assert!(t.bind(&[Value::Int(1), Value::Int(2)]).is_err());
        // Placeholders outside DML are rejected.
        assert!(parse_template("CREATE TABLE x AS (SELECT a FROM t WHERE id = ?)").is_err());
        // Zero-param templates of any kind still parse.
        assert_eq!(parse_template("BEGIN").unwrap().n_params(), 0);
    }

    #[test]
    fn reorder_fills_missing_with_null() {
        let schema = TableSchema::new(
            "t",
            vec![
                bullfrog_common::ColumnDef::new("a", bullfrog_common::DataType::Int),
                bullfrog_common::ColumnDef::nullable("b", bullfrog_common::DataType::Text),
            ],
        );
        let rows =
            reorder_insert_rows(&schema, &["a".into()], &[Row(vec![Value::Int(7)])]).unwrap();
        assert_eq!(rows[0], Row(vec![Value::Int(7), Value::Null]));
        assert!(reorder_insert_rows(&schema, &["zz".into()], &[Row(vec![Value::Int(7)])]).is_err());
        assert!(reorder_insert_rows(&schema, &[], &[Row(vec![Value::Int(7)])]).is_err());
    }
}
