//! Shared foundation for the BullFrog workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`Value`] / [`DataType`] — the dynamically typed cell values stored in
//!   tuples, with a total order and hash suitable for index keys and
//!   migration group identifiers.
//! - [`Row`] — a tuple of values.
//! - [`codec`] — the byte encoding of values and rows that the heap, the
//!   log, the checkpoint image and the wire share.
//! - [`schema`] — table schemas with primary keys, unique constraints,
//!   foreign keys, and CHECK constraints.
//! - [`ids`] — strongly typed identifiers (`TableId`, `RowId`, `TxnId`, ...).
//! - [`Error`] — the workspace-wide error type.
//! - [`fs`] — the one crash-safe file replacement, [`fs::durable_rename`].

pub mod codec;
pub mod error;
pub mod fs;
pub mod hash;
pub mod ids;
pub mod row;
pub mod schema;
pub mod types;
pub mod value;

pub use error::{Error, Result};
pub use hash::{fnv_hash_one, FnvHasher};
pub use ids::{IndexId, PageNo, RowId, SlotNo, TableId, TxnId};
pub use row::Row;
pub use schema::{
    CheckConstraint, CheckExpr, CheckOp, ColumnDef, ForeignKey, TableSchema, UniqueConstraint,
};
pub use types::DataType;
pub use value::Value;
