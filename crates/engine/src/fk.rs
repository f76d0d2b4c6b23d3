//! Foreign-key enforcement.
//!
//! Outgoing checks (insert/update) verify the referenced key exists and
//! take an S lock on the referenced row so it cannot be deleted before this
//! transaction commits. Incoming checks (delete) verify no live row still
//! references the deleted key, using an index on the referencing columns
//! when one exists and a scan otherwise.
//!
//! This module matters to BullFrog beyond plain integrity: when the *new*
//! schema declares foreign keys, an insert into a new table can only be
//! checked after the referenced rows have been migrated — `bullfrog-core`
//! widens migration scope accordingly (paper §4.5), then relies on these
//! checks.

use bullfrog_common::{Error, Result, Row, RowId, Value};
use bullfrog_storage::{BTreeIndex, Table};
use bullfrog_txn::{LockKey, LockMode, Transaction};
use std::sync::Arc;

use crate::db::Database;

/// Finds a unique index of `table` covering exactly the named columns (in
/// order); FK targets must have one.
pub fn referenced_index(table: &Table, ref_columns: &[String]) -> Option<Arc<BTreeIndex>> {
    let positions = table.schema().col_indices(ref_columns).ok()?;
    table
        .indexes()
        .into_iter()
        .find(|idx| idx.def().unique && idx.def().key_columns == positions)
}

/// Checks every outgoing FK of `row` (being written to `table`), locking
/// the referenced rows S. Rows with any NULL in the FK columns pass (SQL
/// `MATCH SIMPLE`).
pub fn check_outgoing(
    db: &Database,
    txn: &mut Transaction,
    table: &Table,
    row: &Row,
) -> Result<()> {
    check_outgoing_with(db, txn, table, row, true)
}

/// As [`check_outgoing`], optionally without taking S locks on the
/// referenced rows (`lock = false`).
///
/// Migration transactions use the lock-free variant: a client transaction
/// may hold locks on the referenced rows *while waiting for this very
/// migration*, so locking here would live-lock (the paper avoids the
/// situation by running migration work in separate transactions; we
/// additionally keep those transactions from blocking on client locks).
/// The relaxation only affects concurrent parent deletion, which the
/// migration workloads never do.
pub fn check_outgoing_with(
    db: &Database,
    txn: &mut Transaction,
    table: &Table,
    row: &Row,
    lock: bool,
) -> Result<()> {
    for fk in &table.schema().foreign_keys {
        let cols = table.schema().col_indices(&fk.columns)?;
        let key: Vec<Value> = row.key(&cols);
        if key.iter().any(Value::is_null) {
            continue;
        }
        let target = db.catalog().get(&fk.ref_table)?;
        let idx = referenced_index(&target, &fk.ref_columns).ok_or_else(|| {
            Error::Internal(format!(
                "fk {} target index missing (validated at DDL)",
                fk.name
            ))
        })?;
        let mut found = false;
        for rid in idx.get(&key) {
            // Lock before trusting: the referenced row may be an
            // uncommitted insert or about to be deleted.
            if lock {
                db.lock(txn, LockKey::Table(target.id()), LockMode::IS)?;
                db.lock(txn, LockKey::Row(target.id(), rid), LockMode::S)?;
            }
            if target.heap().get(rid).is_some() {
                found = true;
                break;
            }
        }
        if !found {
            return Err(Error::ForeignKeyViolation {
                table: table.name().to_owned(),
                references: fk.ref_table.clone(),
            });
        }
    }
    Ok(())
}

/// Checks that deleting `rid` from `table` leaves no dangling references:
/// scans every table whose FKs point at `table` for rows matching the
/// deleted key (index-assisted when the referencing columns are indexed).
pub fn check_incoming(
    db: &Database,
    txn: &mut Transaction,
    table: &Table,
    rid: RowId,
) -> Result<()> {
    let Some(victim) = table.heap().get(rid) else {
        return Ok(()); // nothing to protect
    };
    for name in db.catalog().table_names() {
        let referencing = db.catalog().get(&name)?;
        for fk in &referencing.schema().foreign_keys {
            // Match the FK target by catalog identity, not by the schema's
            // embedded name — the catalog name is authoritative and a
            // renamed table keeps its historical schema name.
            let Ok(target) = db.catalog().get(&fk.ref_table) else {
                continue;
            };
            if target.id() != table.id() {
                continue;
            }
            let ref_positions = table.schema().col_indices(&fk.ref_columns)?;
            let key = victim.key(&ref_positions);
            if key.iter().any(Value::is_null) {
                continue;
            }
            let fk_positions = referencing.schema().col_indices(&fk.columns)?;
            let hit = match referencing.index_for_columns(&fk_positions) {
                Some(idx) if idx.def().key_columns == fk_positions => !idx.get(&key).is_empty(),
                _ => {
                    let mut found = false;
                    referencing.heap().scan(|_, r| {
                        if r.key(&fk_positions) == key {
                            found = true;
                            false
                        } else {
                            true
                        }
                    });
                    found
                }
            };
            if hit {
                // Make sure the hit is real under locking? A referencing
                // row inserted by a concurrent uncommitted txn would block
                // on the S lock we hold... we conservatively reject.
                let _ = txn; // locks on `rid` already held by the caller
                return Err(Error::ForeignKeyViolation {
                    table: referencing.name().to_owned(),
                    references: table.name().to_owned(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, DbConfig, EngineMode, LockPolicy};
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema};

    fn db(mode: EngineMode) -> Database {
        let db = Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "district",
                vec![
                    ColumnDef::new("d_id", DataType::Int),
                    ColumnDef::new("d_name", DataType::Text),
                ],
            )
            .with_primary_key(&["d_id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "customer",
                vec![
                    ColumnDef::new("c_id", DataType::Int),
                    ColumnDef::nullable("c_d_id", DataType::Int),
                ],
            )
            .with_primary_key(&["c_id"])
            .with_foreign_key("customer_d_fk", &["c_d_id"], "district", &["d_id"]),
        )
        .unwrap();
        db.with_txn(|txn| db.insert(txn, "district", row![1, "d1"]))
            .unwrap();
        db
    }

    #[test]
    fn fk_requires_unique_target_at_ddl() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            });
            assert_eq!(db.config().mode, mode);
            db.create_table(TableSchema::new(
                "parent",
                vec![ColumnDef::new("x", DataType::Int)], // no PK/unique on x
            ))
            .unwrap();
            let err = db
                .create_table(
                    TableSchema::new("child", vec![ColumnDef::new("x", DataType::Int)])
                        .with_foreign_key("fk", &["x"], "parent", &["x"]),
                )
                .unwrap_err();
            assert!(matches!(err, Error::SchemaMismatch(_)));
        }
    }

    #[test]
    fn insert_with_valid_fk_passes() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| db.insert(txn, "customer", row![10, 1]))
                .unwrap();
        }
    }

    #[test]
    fn insert_with_dangling_fk_fails() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let err = db
                .with_txn(|txn| db.insert(txn, "customer", row![10, 99]))
                .unwrap_err();
            assert!(matches!(err, Error::ForeignKeyViolation { .. }));
        }
    }

    #[test]
    fn null_fk_passes() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| db.insert(txn, "customer", Row(vec![Value::Int(10), Value::Null])))
                .unwrap();
        }
    }

    #[test]
    fn delete_of_referenced_row_fails() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| db.insert(txn, "customer", row![10, 1]))
                .unwrap();
            let err = db
                .with_txn(|txn| {
                    let (rid, _) = db
                        .get_by_pk(txn, "district", &[Value::Int(1)], LockPolicy::Exclusive)?
                        .unwrap();
                    db.delete(txn, "district", rid)
                })
                .unwrap_err();
            assert!(matches!(err, Error::ForeignKeyViolation { .. }));
        }
    }

    #[test]
    fn delete_of_unreferenced_row_succeeds() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            db.with_txn(|txn| db.insert(txn, "district", row![2, "d2"]))
                .unwrap();
            db.with_txn(|txn| {
                let (rid, _) = db
                    .get_by_pk(txn, "district", &[Value::Int(2)], LockPolicy::Exclusive)?
                    .unwrap();
                db.delete(txn, "district", rid)
            })
            .unwrap();
        }
    }

    #[test]
    fn referenced_row_locked_until_commit() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            use std::sync::Arc;
            use std::time::Duration;
            let db = Arc::new(Database::with_config(DbConfig {
                lock_timeout: Duration::from_millis(30),
                mode,
                ..Default::default()
            }));
            assert_eq!(db.config().mode, mode);
            db.create_table(
                TableSchema::new("p", vec![ColumnDef::new("id", DataType::Int)])
                    .with_primary_key(&["id"]),
            )
            .unwrap();
            db.create_table(
                TableSchema::new("c", vec![ColumnDef::new("pid", DataType::Int)]).with_foreign_key(
                    "c_fk",
                    &["pid"],
                    "p",
                    &["id"],
                ),
            )
            .unwrap();
            let prid = db.with_txn(|txn| db.insert(txn, "p", row![1])).unwrap();

            // txn1 inserts a child (S-locks the parent) and stays open.
            let mut child_txn = db.begin();
            db.insert(&mut child_txn, "c", row![1]).unwrap();
            // txn2 cannot delete the parent while txn1 is open.
            let mut del_txn = db.begin();
            assert!(db.delete(&mut del_txn, "p", prid).is_err());
            db.abort(&mut del_txn);
            db.abort(&mut child_txn);
            // After the child txn aborted, the delete goes through.
            db.with_txn(|txn| db.delete(txn, "p", prid)).unwrap();
        }
    }
}
