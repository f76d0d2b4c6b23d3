//! The workspace-wide error type.

use std::fmt;

use crate::ids::{TableId, TxnId};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the storage, transaction, query, and migration layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Named table does not exist (or was retired by a big-flip migration).
    TableNotFound(String),
    /// Named column does not exist in the referenced table.
    ColumnNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Row id does not address a live row.
    RowNotFound,
    /// The tuple shape or a value type does not match the schema.
    SchemaMismatch(String),
    /// A uniqueness constraint (primary key or UNIQUE) would be violated.
    UniqueViolation {
        /// Table the constraint is declared on.
        table: String,
        /// Constraint description (e.g. index name or column list).
        constraint: String,
    },
    /// A foreign-key constraint would be violated.
    ForeignKeyViolation {
        /// Referencing table.
        table: String,
        /// Referenced table.
        references: String,
    },
    /// A CHECK constraint evaluated to false.
    CheckViolation {
        /// Table the constraint is declared on.
        table: String,
        /// Constraint name.
        constraint: String,
    },
    /// NOT NULL column received a NULL.
    NullViolation {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Lock could not be acquired before the deadline; the transaction
    /// should abort and may retry (deadlock-avoidance policy).
    LockTimeout {
        /// The transaction that timed out.
        txn: TxnId,
        /// The table whose lock was contended.
        table: TableId,
    },
    /// Snapshot-isolation write-write conflict: the row was committed by
    /// another transaction after this transaction's snapshot
    /// (first-updater-wins). Abort and retry with a fresh snapshot.
    WriteConflict {
        /// The transaction that lost the conflict.
        txn: TxnId,
        /// The table holding the contended row.
        table: TableId,
    },
    /// The transaction was aborted (explicitly, by conflict, or by
    /// failpoint injection) and can no longer be used.
    TxnAborted(TxnId),
    /// Operation attempted on a transaction that already committed/aborted.
    TxnNotActive(TxnId),
    /// A request referenced the *old* schema after a non-backwards-compatible
    /// ("big flip") migration made it inactive (paper §2.1).
    SchemaRetired(String),
    /// Expression evaluation failed (type error, overflow, ...).
    Eval(String),
    /// Migration definition is invalid (bad category, unknown column, ...).
    InvalidMigration(String),
    /// WAL corruption or replay failure.
    Wal(String),
    /// This node is fenced: it observed a higher fencing epoch (or
    /// verifiably lost its leadership lease) and must not acknowledge
    /// writes. The commit may be durable locally but was **not** acked;
    /// the client must re-route to `leader` (when known) and retry.
    Fenced {
        /// The current primary's address, when the fenced node knows it.
        leader: Option<String>,
    },
    /// A deployment setting holds a value the program does not accept.
    Config(String),
    /// Generic invariant breakage; carries a description.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TableNotFound(t) => write!(f, "table not found: {t}"),
            Error::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            Error::TableExists(t) => write!(f, "table already exists: {t}"),
            Error::RowNotFound => write!(f, "row not found"),
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::UniqueViolation { table, constraint } => {
                write!(f, "unique violation on {table} ({constraint})")
            }
            Error::ForeignKeyViolation { table, references } => {
                write!(f, "foreign key violation: {table} -> {references}")
            }
            Error::CheckViolation { table, constraint } => {
                write!(f, "check violation on {table} ({constraint})")
            }
            Error::NullViolation { table, column } => {
                write!(f, "null violation on {table}.{column}")
            }
            Error::LockTimeout { txn, table } => {
                write!(f, "{txn} timed out waiting for lock on {table}")
            }
            Error::WriteConflict { txn, table } => {
                write!(f, "{txn} lost a write-write conflict on {table}")
            }
            Error::TxnAborted(t) => write!(f, "{t} aborted"),
            Error::TxnNotActive(t) => write!(f, "{t} is not active"),
            Error::SchemaRetired(t) => {
                write!(f, "table {t} belongs to a retired schema version")
            }
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::InvalidMigration(m) => write!(f, "invalid migration: {m}"),
            Error::Wal(m) => write!(f, "wal error: {m}"),
            Error::Fenced { leader } => write!(
                f,
                "fenced (stale epoch): writes and DDL must go to the primary at {}",
                leader.as_deref().unwrap_or("unknown")
            ),
            Error::Config(m) => write!(f, "invalid setting: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// True for errors that indicate a transient conflict where the caller
    /// should abort the transaction and retry (the TPC-C driver and the
    /// migration loop both use this).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::LockTimeout { .. } | Error::TxnAborted(_) | Error::WriteConflict { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::UniqueViolation {
            table: "customer".into(),
            constraint: "pk".into(),
        };
        assert_eq!(e.to_string(), "unique violation on customer (pk)");
        let e = Error::LockTimeout {
            txn: TxnId(3),
            table: TableId(1),
        };
        assert!(e.to_string().contains("txn3"));
    }

    #[test]
    fn retryable_classification() {
        assert!(Error::TxnAborted(TxnId(1)).is_retryable());
        assert!(Error::LockTimeout {
            txn: TxnId(1),
            table: TableId(0)
        }
        .is_retryable());
        assert!(Error::WriteConflict {
            txn: TxnId(1),
            table: TableId(0)
        }
        .is_retryable());
        assert!(!Error::RowNotFound.is_retryable());
        assert!(!Error::TableNotFound("x".into()).is_retryable());
    }
}
