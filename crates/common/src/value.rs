//! Dynamically typed cell values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::DataType;

/// A single cell value in a tuple.
///
/// `Value` has a **total order** (needed for B-tree index keys and sort-based
/// group identifiers) and a **consistent hash** (needed for hash joins and
/// the hashmap migration tracker). `Null` sorts before everything else, and
/// floats are ordered via [`f64::total_cmp`] so NaN does not poison indexes.
///
/// Cross-type comparisons between the numeric types (`Int`, `Float`,
/// `Decimal`) compare numerically, so a predicate `col = 5` matches a
/// `Decimal` column holding `5`. All other cross-type comparisons order by a
/// fixed type rank, which keeps the order total without claiming equality
/// between, say, `Text` and `Int`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Comparisons via `Ord` treat it as the smallest value;
    /// three-valued-logic handling lives in the expression evaluator.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Fixed-point decimal as a scaled integer (TPC-C convention: cents).
    Decimal(i64),
    /// UTF-8 string.
    Text(String),
    /// Days since the Unix epoch.
    Date(i32),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// Text constructor taking anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// The runtime [`DataType`] of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Decimal(_) => Some(DataType::Decimal),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for cross-type numeric comparison and arithmetic.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Decimal(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Integer view (`Int`/`Decimal`/`Date`/`Timestamp`/`Bool`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Decimal(d) => Some(*d),
            Value::Date(d) => Some(*d as i64),
            Value::Timestamp(t) => Some(*t),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Borrowed string view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality: `NULL = anything` is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self == other)
        }
    }

    /// SQL comparison: `None` when either side is NULL (unknown).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp(other))
        }
    }

    /// Checked addition following numeric-widening rules.
    /// `Int + Int = Int`, anything involving `Float` is `Float`, anything
    /// involving `Decimal` (without `Float`) is `Decimal`. NULL propagates.
    pub fn add(&self, other: &Value) -> Option<Value> {
        numeric_binop(self, other, i64::checked_add, |a, b| a + b)
    }

    /// Checked subtraction (same widening rules as [`Value::add`]).
    pub fn sub(&self, other: &Value) -> Option<Value> {
        numeric_binop(self, other, i64::checked_sub, |a, b| a - b)
    }

    /// Checked multiplication (same widening rules as [`Value::add`]).
    pub fn mul(&self, other: &Value) -> Option<Value> {
        numeric_binop(self, other, i64::checked_mul, |a, b| a * b)
    }

    /// A rank used to order values of different (non-numeric-compatible)
    /// types; keeps `Ord` total.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Decimal(_) => 2,
            Value::Text(_) => 3,
            Value::Date(_) => 4,
            Value::Timestamp(_) => 5,
        }
    }
}

/// Compares an integer against a float, exactly when the float is integral
/// and in `i64` range (keeps `Ord` consistent with `Hash` beyond 2^53).
fn cmp_i64_f64(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        // Match total_cmp's order: +NaN above everything, -NaN below.
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
        i.cmp(&(f as i64))
    } else {
        (i as f64).total_cmp(&f)
    }
}

/// Shared implementation for the arithmetic methods.
fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> Option<i64>,
    float_op: fn(f64, f64) -> f64,
) -> Option<Value> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y).map(Value::Int),
        (Value::Decimal(x), Value::Decimal(y))
        | (Value::Decimal(x), Value::Int(y))
        | (Value::Int(x), Value::Decimal(y)) => int_op(*x, *y).map(Value::Decimal),
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(Value::Float(float_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            // Numeric cross-type comparison: exact for Int/Decimal; when a
            // Float is involved, compare exactly against integral floats (so
            // Eq stays consistent with Hash even beyond 2^53) and through
            // f64 otherwise.
            (Int(x), Decimal(y)) | (Decimal(x), Int(y)) => x.cmp(y),
            (Int(x), Float(y)) | (Decimal(x), Float(y)) => cmp_i64_f64(*x, *y),
            (Float(x), Int(y)) | (Float(x), Decimal(y)) => cmp_i64_f64(*y, *x).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Numeric values that compare equal must hash equal: hash all
        // integers through i64 and floats through their integral value when
        // exact, otherwise through bits.
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int(5), Decimal(5), and Float(5.0) all compare equal via the
            // numeric path, so they must hash identically: integral numerics
            // hash through i64, non-integral floats through their bits
            // (those can never equal an Int/Decimal).
            Value::Int(i) | Value::Decimal(i) => {
                state.write_u8(2);
                state.write_u8(0);
                i.hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_u8(0);
                    (*f as i64).hash(state);
                } else {
                    state.write_u8(2);
                    f.to_bits().hash(state);
                }
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Date(d) => {
                state.write_u8(4);
                d.hash(state);
            }
            Value::Timestamp(t) => {
                state.write_u8(5);
                t.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Decimal(d) => write!(f, "{}.{:02}", d / 100, (d % 100).abs()),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "date:{d}"),
            Value::Timestamp(t) => write!(f, "ts:{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::text(""));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(5), Value::Decimal(5));
        assert_eq!(Value::Int(5), Value::Float(5.0));
        assert!(Value::Int(5) < Value::Float(5.5));
        assert!(Value::Decimal(700) > Value::Int(6));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Decimal(5)));
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN above +inf; the point is it's *consistent*.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
    }

    #[test]
    fn sql_tri_valued_comparisons() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn arithmetic_widening() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Decimal(250).add(&Value::Int(50)),
            Some(Value::Decimal(300))
        );
        assert_eq!(
            Value::Float(1.5).mul(&Value::Int(2)),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::Int(1).add(&Value::Null), Some(Value::Null));
        assert_eq!(Value::text("a").add(&Value::Int(1)), None);
    }

    #[test]
    fn arithmetic_overflow_detected() {
        assert_eq!(Value::Int(i64::MAX).add(&Value::Int(1)), None);
        assert_eq!(Value::Decimal(i64::MAX).mul(&Value::Int(2)), None);
    }

    #[test]
    fn display_decimal_as_fixed_point() {
        assert_eq!(Value::Decimal(1234).to_string(), "12.34");
        assert_eq!(Value::Decimal(-105).to_string(), "-1.05");
        assert_eq!(Value::Decimal(7).to_string(), "0.07");
    }

    #[test]
    fn text_ordering_is_lexicographic() {
        assert!(Value::text("AA101") < Value::text("AA102"));
        assert!(Value::text("B") > Value::text("AZ"));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Date(1).data_type(), Some(DataType::Date));
    }
}
