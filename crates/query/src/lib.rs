//! Expressions, predicates, select specifications, and view expansion.
//!
//! BullFrog's lazy migration hinges on moving filters across schemas
//! (paper §2.1): a client predicate over the *new* schema must be converted
//! into predicates over the *old* input tables that select a (small)
//! superset of the tuples the request needs. PostgreSQL does this for the
//! paper via view expansion + the optimizer; here the same capability is
//! provided by:
//!
//! - [`expr::Expr`] — an expression AST with SQL three-valued evaluation;
//! - [`spec::SelectSpec`] — the structured select-project-join-aggregate
//!   form in which migration statements are written (the equivalent of the
//!   paper's `CREATE TABLE ... AS SELECT ...` DDL);
//! - [`rewrite::transpose`] — predicate transposition: substitutes output
//!   columns with their defining input expressions, then propagates
//!   equality constants through join equivalence classes, yielding one
//!   filter per input table. Conjuncts that cannot be transposed are
//!   dropped, which keeps the result a sound *superset* filter.

pub mod expr;
pub mod pred;
pub mod rewrite;
pub mod spec;

pub use expr::{AggFunc, ArithOp, BoundExpr, CmpOp, ColRef, Expr, Func, Scope};
pub use pred::{
    conjoin, conjuncts, referenced_tables, sargable_equalities, sargable_ranges, RangeBound,
};
pub use rewrite::{transpose, TransposedPredicates};
pub use spec::{OutputColumn, SelectSpec, TableRef};
