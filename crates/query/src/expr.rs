//! Expression AST, and its bound form, the one evaluator.

use std::cmp::Ordering;
use std::fmt;

use bullfrog_common::{Error, Result, Row, Value};

/// A column reference, optionally qualified by a table alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// Table alias; `None` means "resolve by unique column name".
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Qualified reference `alias.column`.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColRef {
            table: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does `ord` satisfy the operator?
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Scalar functions.
///
/// `ExtractDay` reproduces the paper's running example
/// (`EXTRACT(DAY FROM FLIGHTDATE) = 9`); the rest cover TPC-C needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Day-of-month (1..=31) of a `Date` (days since epoch, proleptic
    /// Gregorian) or `Timestamp`.
    ExtractDay,
    /// Absolute value of a numeric.
    Abs,
    /// Unary negation of a numeric.
    Neg,
}

/// Aggregate functions (used by [`crate::spec::OutputColumn::Agg`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Count of non-NULL inputs.
    Count,
    /// Sum of non-NULL inputs (NULL when all inputs NULL).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of *distinct* non-NULL inputs (`COUNT(DISTINCT x)`,
    /// as in TPC-C StockLevel).
    CountDistinct,
}

/// The expression AST: syntax only. It evaluates once bound to row
/// positions ([`Expr::bind`] → [`BoundExpr`]), under SQL three-valued
/// logic: any comparison with NULL yields NULL; `And`/`Or` use Kleene
/// logic; a predicate "matches" only when it evaluates to `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Column reference.
    Col(ColRef),
    /// Literal value.
    Lit(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (Kleene).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (Kleene).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// IS NULL.
    IsNull(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Scalar function call.
    Call(Func, Box<Expr>),
    /// Positional parameter placeholder (`?`), 0-based. Only produced by
    /// prepared-statement templates; must be substituted via
    /// [`Expr::bind_params`] before evaluation.
    Param(u32),
}

impl Expr {
    /// `alias.column` reference.
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Self {
        Expr::Col(ColRef::new(table, column))
    }

    /// Unqualified column reference.
    pub fn column(column: impl Into<String>) -> Self {
        Expr::Col(ColRef::bare(column))
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        Expr::Lit(v.into())
    }

    /// NULL literal.
    pub fn null() -> Self {
        Expr::Lit(Value::Null)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Self {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Self {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Self {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Expr::Not(Box::new(self))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Self {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// Evaluates as a predicate against `row` laid out by `scope`:
    /// binds through [`Scope::resolve`], then [`BoundExpr::matches`].
    pub fn matches(&self, scope: &Scope, row: &Row) -> Result<bool> {
        self.bind(&mut |c| scope.resolve(c))?.matches(row)
    }

    /// Resolves every column reference to a row position through
    /// `resolve`, once: the bound form evaluates rows with no name
    /// lookups. The engine resolves against table schemas
    /// (`bullfrog_engine::exec::locate`); tests pass
    /// `&mut |c| scope.resolve(c)`.
    pub fn bind(&self, resolve: &mut impl FnMut(&ColRef) -> Result<usize>) -> Result<BoundExpr> {
        let mut pair = |a: &Expr, b: &Expr| -> Result<(Box<BoundExpr>, Box<BoundExpr>)> {
            Ok((Box::new(a.bind(resolve)?), Box::new(b.bind(resolve)?)))
        };
        Ok(match self {
            Expr::Col(c) => BoundExpr::Col(resolve(c)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::Cmp(*op, a, b)
            }
            Expr::And(a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::And(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::Or(a, b)
            }
            Expr::Add(a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::Arith(ArithOp::Add, a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::Arith(ArithOp::Sub, a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = pair(a, b)?;
                BoundExpr::Arith(ArithOp::Mul, a, b)
            }
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(resolve)?)),
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(e.bind(resolve)?)),
            Expr::Call(f, e) => BoundExpr::Call(*f, Box::new(e.bind(resolve)?)),
            Expr::Param(i) => BoundExpr::Param(*i),
        })
    }

    /// Collects every column reference.
    pub fn columns(&self, out: &mut Vec<ColRef>) {
        match self {
            Expr::Col(c) => out.push(c.clone()),
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b) => {
                a.columns(out);
                b.columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Call(_, e) => e.columns(out),
        }
    }

    /// Rewrites every column reference through `f`; `f` returning `None`
    /// leaves the reference unchanged.
    pub fn map_columns(&self, f: &impl Fn(&ColRef) -> Option<Expr>) -> Expr {
        match self {
            Expr::Col(c) => f(c).unwrap_or_else(|| Expr::Col(c.clone())),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_columns(f))),
            Expr::Add(a, b) => Expr::Add(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Call(func, e) => Expr::Call(*func, Box::new(e.map_columns(f))),
            Expr::Param(i) => Expr::Param(*i),
        }
    }

    /// Substitutes every [`Expr::Param`] with the corresponding literal from
    /// `params`. Errors when a placeholder index is out of range.
    pub fn bind_params(&self, params: &[Value]) -> Result<Expr> {
        Ok(match self {
            Expr::Param(i) => {
                let v = params.get(*i as usize).ok_or_else(|| {
                    Error::Eval(format!(
                        "parameter ?{} out of range ({} bound)",
                        i + 1,
                        params.len()
                    ))
                })?;
                Expr::Lit(v.clone())
            }
            Expr::Col(c) => Expr::Col(c.clone()),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::And(a, b) => Expr::And(
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.bind_params(params)?)),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.bind_params(params)?)),
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(a.bind_params(params)?),
                Box::new(b.bind_params(params)?),
            ),
            Expr::Call(func, e) => Expr::Call(*func, Box::new(e.bind_params(params)?)),
        })
    }
}

/// Arithmetic operators of a [`BoundExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

/// An [`Expr`] whose column references are row positions, made by
/// [`Expr::bind`].
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// The value at a row position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Logical AND (Kleene).
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical OR (Kleene).
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// IS NULL.
    IsNull(Box<BoundExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Scalar function call.
    Call(Func, Box<BoundExpr>),
    /// An unsubstituted placeholder: evaluating it is an error.
    Param(u32),
}

impl BoundExpr {
    /// Evaluates against `row`, laid out as the expression was bound.
    /// Any comparison with NULL yields NULL; `And`/`Or` use Kleene logic.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            BoundExpr::Col(i) => row
                .try_get(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("row too short for column #{i}"))),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                Ok(match va.sql_cmp(&vb) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.holds(ord)),
                })
            }
            BoundExpr::And(a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                Ok(kleene_and(truth(&va)?, truth(&vb)?))
            }
            BoundExpr::Or(a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                Ok(kleene_or(truth(&va)?, truth(&vb)?))
            }
            BoundExpr::Not(e) => Ok(match truth(&e.eval(row)?)? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            BoundExpr::IsNull(e) => Ok(Value::Bool(e.eval(row)?.is_null())),
            BoundExpr::Arith(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                let (result, sym) = match op {
                    ArithOp::Add => (va.add(&vb), "+"),
                    ArithOp::Sub => (va.sub(&vb), "-"),
                    ArithOp::Mul => (va.mul(&vb), "*"),
                };
                result.ok_or_else(|| Error::Eval(format!("cannot compute {va} {sym} {vb}")))
            }
            BoundExpr::Call(f, arg) => eval_func(*f, arg.eval(row)?),
            BoundExpr::Param(i) => Err(Error::Eval(format!("unbound parameter ?{}", i + 1))),
        }
    }

    /// Evaluates as a predicate: `true` only when the expression is
    /// definitely true (SQL WHERE semantics).
    pub fn matches(&self, row: &Row) -> Result<bool> {
        Ok(truth(&self.eval(row)?)? == Some(true))
    }

    /// The row position when the expression is a bare column.
    pub fn as_col(&self) -> Option<usize> {
        match self {
            BoundExpr::Col(i) => Some(*i),
            _ => None,
        }
    }
}

fn eval_func(f: Func, v: Value) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match f {
        Func::ExtractDay => {
            let days = match v {
                Value::Date(d) => d as i64,
                Value::Timestamp(us) => us.div_euclid(86_400_000_000),
                other => return Err(Error::Eval(format!("EXTRACT(DAY) from non-date {other}"))),
            };
            Ok(Value::Int(day_of_month(days)))
        }
        Func::Abs => match v {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Decimal(d) => Ok(Value::Decimal(d.abs())),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(Error::Eval(format!("ABS of non-numeric {other}"))),
        },
        Func::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Decimal(d) => Ok(Value::Decimal(-d)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(Error::Eval(format!("negation of non-numeric {other}"))),
        },
    }
}

/// Day of month (1-based) for a day count since 1970-01-01, proleptic
/// Gregorian calendar (civil-from-days algorithm).
fn day_of_month(days_since_epoch: i64) -> i64 {
    let z = days_since_epoch + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    doy - (153 * mp + 2) / 5 + 1
}

fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(Error::Eval(format!("expected boolean, got {other}"))),
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Call(Func::ExtractDay, e) => write!(f, "EXTRACT(DAY FROM {e})"),
            Expr::Call(Func::Abs, e) => write!(f, "ABS({e})"),
            Expr::Call(Func::Neg, e) => write!(f, "(-{e})"),
            Expr::Param(_) => f.write_str("?"),
        }
    }
}

/// Maps qualified/bare column references to positions in a row, by
/// name: a resolver to bind an [`Expr`] through when no table schema is
/// at hand (tests and benchmark probes). The engine binds through its
/// table schemas instead.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    entries: Vec<(Option<String>, String)>,
}

impl Scope {
    /// Empty scope.
    pub fn new() -> Self {
        Scope::default()
    }

    /// Scope over one table's columns.
    pub fn table(alias: impl Into<String>, columns: &[String]) -> Self {
        let alias = alias.into();
        Scope {
            entries: columns
                .iter()
                .map(|c| (Some(alias.clone()), c.clone()))
                .collect(),
        }
    }

    /// Adds one column.
    pub fn push(&mut self, table: Option<String>, column: impl Into<String>) {
        self.entries.push((table, column.into()));
    }

    /// Resolves a reference to a position. Bare references must match
    /// exactly one column across the scope.
    pub fn resolve(&self, c: &ColRef) -> Result<usize> {
        match &c.table {
            Some(alias) => self
                .entries
                .iter()
                .position(|(t, col)| t.as_deref() == Some(alias) && col == &c.column)
                .ok_or_else(|| Error::ColumnNotFound(c.to_string())),
            None => {
                let mut found = None;
                for (i, (_, col)) in self.entries.iter().enumerate() {
                    if col == &c.column {
                        if found.is_some() {
                            return Err(Error::Eval(format!("ambiguous column {}", c.column)));
                        }
                        found = Some(i);
                    }
                }
                found.ok_or_else(|| Error::ColumnNotFound(c.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::row;

    /// Binds through the scope's names, then evaluates by position.
    fn eval(e: &Expr, s: &Scope, r: &Row) -> Result<Value> {
        e.bind(&mut |c| s.resolve(c))?.eval(r)
    }

    /// [`eval`] as a WHERE predicate.
    fn matches(e: &Expr, s: &Scope, r: &Row) -> Result<bool> {
        e.bind(&mut |c| s.resolve(c))?.matches(r)
    }

    fn scope() -> Scope {
        Scope::table(
            "f",
            &[
                "flightid".into(),
                "flightdate".into(),
                "passenger_count".into(),
            ],
        )
    }

    #[test]
    fn column_resolution_qualified_and_bare() {
        let s = scope();
        let r = row!["AA101", 9, 120];
        assert_eq!(
            eval(&Expr::col("f", "flightid"), &s, &r).unwrap(),
            Value::text("AA101")
        );
        assert_eq!(
            eval(&Expr::column("passenger_count"), &s, &r).unwrap(),
            Value::Int(120)
        );
        assert!(eval(&Expr::col("g", "flightid"), &s, &r).is_err());
        assert!(eval(&Expr::column("nope"), &s, &r).is_err());
    }

    #[test]
    fn ambiguous_bare_reference_rejected() {
        let mut joined = scope();
        joined.push(Some("fi".into()), "flightid");
        let r = row!["AA101", 9, 120, "AA101"];
        assert!(eval(&Expr::column("flightid"), &joined, &r).is_err());
        assert_eq!(
            eval(&Expr::col("fi", "flightid"), &joined, &r).unwrap(),
            Value::text("AA101")
        );
    }

    #[test]
    fn comparisons_and_logic() {
        let s = scope();
        let r = row!["AA101", 9, 120];
        let p = Expr::col("f", "flightid")
            .eq(Expr::lit("AA101"))
            .and(Expr::column("passenger_count").gt(Expr::lit(100)));
        assert!(matches(&p, &s, &r).unwrap());
        let p2 = Expr::column("passenger_count").lt(Expr::lit(100));
        assert!(!matches(&p2, &s, &r).unwrap());
        assert!(matches(&p2.not(), &s, &r).unwrap());
    }

    #[test]
    fn null_comparisons_are_unknown() {
        let s = scope();
        let r = Row(vec![Value::text("AA101"), Value::Date(9), Value::Null]);
        let p = Expr::column("passenger_count").gt(Expr::lit(0));
        assert_eq!(eval(&p, &s, &r).unwrap(), Value::Null);
        assert!(!matches(&p, &s, &r).unwrap());
        // NOT unknown is still unknown → does not match.
        assert!(!matches(&p.not(), &s, &r).unwrap());
        // IS NULL sees it.
        let is_null = Expr::IsNull(Box::new(Expr::column("passenger_count")));
        assert!(matches(&is_null, &s, &r).unwrap());
    }

    #[test]
    fn kleene_truth_tables() {
        let s = Scope::new();
        let r = Row(vec![]);
        let t = Expr::lit(true);
        let fa = Expr::lit(false);
        let u = Expr::null();
        // false AND unknown = false; true AND unknown = unknown.
        assert_eq!(
            eval(&fa.clone().and(u.clone()), &s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&t.clone().and(u.clone()), &s, &r).unwrap(),
            Value::Null
        );
        // true OR unknown = true; false OR unknown = unknown.
        assert_eq!(
            eval(&t.clone().or(u.clone()), &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&fa.clone().or(u.clone()), &s, &r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn arithmetic() {
        let s = scope();
        let r = row!["AA101", 9, 120];
        // capacity(=180 literal) - passenger_count = 60
        let e = Expr::lit(180).sub(Expr::column("passenger_count"));
        assert_eq!(eval(&e, &s, &r).unwrap(), Value::Int(60));
        let e = Expr::column("passenger_count").mul(Expr::lit(2));
        assert_eq!(eval(&e, &s, &r).unwrap(), Value::Int(240));
        // Overflow is an error, not a wrap.
        let e = Expr::lit(i64::MAX).add(Expr::lit(1));
        assert!(eval(&e, &s, &r).is_err());
    }

    #[test]
    fn extract_day_matches_civil_calendar() {
        // 1970-01-01 is day 0 → day-of-month 1.
        assert_eq!(day_of_month(0), 1);
        // 1970-01-31.
        assert_eq!(day_of_month(30), 31);
        // 1970-02-01.
        assert_eq!(day_of_month(31), 1);
        // 2000-02-29 (leap): days = 11016.
        assert_eq!(day_of_month(11016), 29);
        // 1969-12-31 (negative days).
        assert_eq!(day_of_month(-1), 31);
        // Via the Expr API on Date and Timestamp.
        let s = Scope::new();
        let r = Row(vec![]);
        let e = Expr::Call(Func::ExtractDay, Box::new(Expr::Lit(Value::Date(8))));
        assert_eq!(eval(&e, &s, &r).unwrap(), Value::Int(9));
        let us_day8 = 8 * 86_400_000_000i64 + 3_600_000_000;
        let e = Expr::Call(
            Func::ExtractDay,
            Box::new(Expr::Lit(Value::Timestamp(us_day8))),
        );
        assert_eq!(eval(&e, &s, &r).unwrap(), Value::Int(9));
    }

    #[test]
    fn functions_propagate_null() {
        let s = Scope::new();
        let r = Row(vec![]);
        for f in [Func::ExtractDay, Func::Abs, Func::Neg] {
            let e = Expr::Call(f, Box::new(Expr::null()));
            assert_eq!(eval(&e, &s, &r).unwrap(), Value::Null);
        }
    }

    #[test]
    fn columns_collects_all_refs() {
        let p = Expr::col("f", "a")
            .eq(Expr::col("g", "b"))
            .and(Expr::column("c").gt(Expr::lit(1)));
        let mut cols = Vec::new();
        p.columns(&mut cols);
        assert_eq!(
            cols,
            vec![
                ColRef::new("f", "a"),
                ColRef::new("g", "b"),
                ColRef::bare("c")
            ]
        );
    }

    #[test]
    fn map_columns_substitutes() {
        let p = Expr::column("fid").eq(Expr::lit("AA101"));
        let mapped =
            p.map_columns(&|c| (c.column == "fid").then(|| Expr::col("flights", "flightid")));
        assert_eq!(
            mapped,
            Expr::col("flights", "flightid").eq(Expr::lit("AA101"))
        );
    }

    #[test]
    fn display_round_readable() {
        let p = Expr::col("f", "flightid").eq(Expr::lit("AA101"));
        assert_eq!(p.to_string(), "(f.flightid = 'AA101')");
        let e = Expr::Call(Func::ExtractDay, Box::new(Expr::column("flightdate")));
        assert_eq!(e.to_string(), "EXTRACT(DAY FROM flightdate)");
    }
}
