//! The client-facing access interface shared by BullFrog and the
//! baselines.
//!
//! Workload drivers (TPC-C, the examples, the benches) speak to the
//! database exclusively through [`ClientAccess`]. Each evolution strategy —
//! lazy BullFrog, eager, multi-step, or no migration at all — implements
//! the trait and interposes whatever its approach requires (lazy migration
//! before reads, dual writes, blocking, rejection of retired tables).
//! [`ClientAccess::version`] tells the driver which schema generation its
//! transactions should be written against *right now*: the big flip moves
//! it to `New` instantly for BullFrog and eager, while multi-step keeps it
//! at `Old` until the background copy has caught up.

use bullfrog_common::{Result, Row, RowId, Value};
use bullfrog_engine::exec::{ExecOptions, QueryOutput};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{Expr, SelectSpec};
use bullfrog_txn::Transaction;
use std::sync::Arc;

/// Which schema generation clients should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaVersion {
    /// Pre-migration schema.
    Old,
    /// Post-migration schema.
    New,
}

/// Uniform client DML surface. All methods are transactional: the caller
/// owns the [`Transaction`] and commits/aborts through the underlying
/// [`Database`].
pub trait ClientAccess: Send + Sync {
    /// The underlying database (for `begin`/`commit`/`abort` and DDL).
    fn db(&self) -> &Arc<Database>;

    /// Which schema version clients should currently submit against.
    fn version(&self) -> SchemaVersion;

    /// Predicate select.
    fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>>;

    /// Primary-key point read.
    fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>>;

    /// Insert.
    fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId>;

    /// Update by row id.
    fn update(&self, txn: &mut Transaction, table: &str, rid: RowId, row: Row) -> Result<()>;

    /// Delete by row id.
    fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row>;

    /// Read-only spec execution (joins/aggregates, e.g. StockLevel).
    fn execute_spec(
        &self,
        txn: &mut Transaction,
        spec: &SelectSpec,
        opts: &ExecOptions,
    ) -> Result<QueryOutput>;
}

/// Direct passthrough to the engine — the "no migration" control, also
/// used by workloads before any migration is submitted.
pub struct Passthrough {
    db: Arc<Database>,
    version: SchemaVersion,
}

impl Passthrough {
    /// A passthrough reporting the old schema.
    pub fn new(db: Arc<Database>) -> Self {
        Passthrough {
            db,
            version: SchemaVersion::Old,
        }
    }

    /// A passthrough reporting the new schema (for post-migration runs).
    pub fn new_schema(db: Arc<Database>) -> Self {
        Passthrough {
            db,
            version: SchemaVersion::New,
        }
    }
}

impl ClientAccess for Passthrough {
    fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn version(&self) -> SchemaVersion {
        self.version
    }

    fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        self.db.select(txn, table, predicate, policy)
    }

    fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>> {
        self.db.get_by_pk(txn, table, key, policy)
    }

    fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId> {
        self.db.insert(txn, table, row)
    }

    fn update(&self, txn: &mut Transaction, table: &str, rid: RowId, row: Row) -> Result<()> {
        self.db.update(txn, table, rid, row)
    }

    fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row> {
        self.db.delete(txn, table, rid)
    }

    fn execute_spec(
        &self,
        txn: &mut Transaction,
        spec: &SelectSpec,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        bullfrog_engine::exec::execute_spec(&self.db, txn, spec, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
    use bullfrog_engine::{DbConfig, EngineMode};

    #[test]
    fn passthrough_delegates() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Arc::new(Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            }));
            assert_eq!(db.config().mode, mode);
            db.create_table(
                TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)])
                    .with_primary_key(&["id"]),
            )
            .unwrap();
            let access = Passthrough::new(Arc::clone(&db));
            assert_eq!(access.version(), SchemaVersion::Old);
            let mut txn = db.begin();
            let rid = access.insert(&mut txn, "t", row![1]).unwrap();
            let got = access
                .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Shared)
                .unwrap();
            assert_eq!(got, Some((rid, row![1])));
            access.update(&mut txn, "t", rid, row![2]).unwrap();
            let all = access
                .select(&mut txn, "t", None, LockPolicy::Shared)
                .unwrap();
            assert_eq!(all, vec![(rid, row![2])]);
            access.delete(&mut txn, "t", rid).unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(Passthrough::new_schema(db).version(), SchemaVersion::New);
        }
    }
}
