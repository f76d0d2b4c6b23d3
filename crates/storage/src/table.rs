//! Tables: a schema, a heap, and its indexes, kept mutually consistent.

use std::sync::Arc;

use bullfrog_common::{Error, Result, Row, RowId, TableId};
use parking_lot::RwLock;

use crate::heap::TableHeap;
use crate::index::{BTreeIndex, IndexDef};
use crate::page::DEFAULT_SLOTS_PER_PAGE;
use bullfrog_common::TableSchema;

/// A table: schema + heap + indexes.
///
/// `Table` keeps the heap and all indexes consistent on every mutation and
/// enforces **uniqueness** (the schema's PK and UNIQUE constraints each get
/// a unique index; additional secondary indexes may be added). Foreign keys
/// and transactional atomicity are enforced a level up, in
/// `bullfrog-engine`, which uses the `undo_*` methods to roll back.
pub struct Table {
    id: TableId,
    schema: TableSchema,
    heap: TableHeap,
    indexes: RwLock<Vec<Arc<BTreeIndex>>>,
    /// Precomputed PK column positions (empty when the table has no PK).
    pk_indices: Vec<usize>,
}

impl Table {
    /// Creates a table, building unique indexes for the primary key and
    /// each UNIQUE constraint.
    pub fn new(id: TableId, schema: TableSchema) -> Result<Self> {
        Self::with_slots_per_page(id, schema, DEFAULT_SLOTS_PER_PAGE)
    }

    /// As [`Table::new`] with an explicit page slot count (benchmarks use
    /// small pages to exercise page-granularity migration).
    pub fn with_slots_per_page(
        id: TableId,
        schema: TableSchema,
        slots_per_page: u16,
    ) -> Result<Self> {
        let mut indexes = Vec::new();
        let pk_indices = schema.pk_indices()?;
        if !pk_indices.is_empty() {
            indexes.push(Arc::new(BTreeIndex::new(IndexDef {
                name: format!("{}_pkey", schema.name),
                key_columns: pk_indices.clone(),
                unique: true,
            })));
        }
        for u in &schema.uniques {
            indexes.push(Arc::new(BTreeIndex::new(IndexDef {
                name: u.name.clone(),
                key_columns: schema.col_indices(&u.columns)?,
                unique: true,
            })));
        }
        Ok(Table {
            id,
            schema,
            heap: TableHeap::new(slots_per_page),
            indexes: RwLock::new(indexes),
            pk_indices,
        })
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// The underlying heap.
    pub fn heap(&self) -> &TableHeap {
        &self.heap
    }

    /// Primary-key column positions.
    pub fn pk_indices(&self) -> &[usize] {
        &self.pk_indices
    }

    /// Adds a secondary index over the named columns and backfills it from
    /// the heap. Fails on duplicate keys when `unique`.
    pub fn create_index(&self, name: &str, columns: &[&str], unique: bool) -> Result<()> {
        let key_columns = self
            .schema
            .col_indices(&columns.iter().map(|s| s.to_string()).collect::<Vec<_>>())?;
        let idx = Arc::new(BTreeIndex::new(IndexDef {
            name: name.to_owned(),
            key_columns: key_columns.clone(),
            unique,
        }));
        // Backfill before publishing so readers never see a partial index.
        let mut failure = None;
        self.heap.scan(
            |rid, row| match idx.insert(self.name(), row.key(&key_columns), rid) {
                Ok(()) => true,
                Err(e) => {
                    failure = Some(e);
                    false
                }
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        self.indexes.write().push(idx);
        Ok(())
    }

    /// All indexes (cloned Arcs).
    pub fn indexes(&self) -> Vec<Arc<BTreeIndex>> {
        self.indexes.read().clone()
    }

    /// Finds an index by name.
    pub fn index(&self, name: &str) -> Option<Arc<BTreeIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.def().name == name)
            .cloned()
    }

    /// Picks an index whose key columns start with `cols` (best effort:
    /// longest usable prefix wins; exact-arity unique indexes preferred).
    pub fn index_for_columns(&self, cols: &[usize]) -> Option<Arc<BTreeIndex>> {
        let indexes = self.indexes.read();
        let mut best: Option<(usize, Arc<BTreeIndex>)> = None;
        for idx in indexes.iter() {
            let key = &idx.def().key_columns;
            // Count the longest prefix of the index key covered by `cols`.
            let covered = key.iter().take_while(|k| cols.contains(k)).count();
            if covered == 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((c, _)) => covered > *c,
            };
            if better {
                best = Some((covered, Arc::clone(idx)));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Inserts a row: validates the schema, appends to the heap, and
    /// maintains every index. On a uniqueness conflict the heap row and any
    /// already-made index entries are rolled back and the error returned.
    pub fn insert(&self, row: Row) -> Result<RowId> {
        self.insert_indexed(&row, None, &self.indexes())
    }

    /// As [`Table::insert`], maintaining `indexes`, the caller's snapshot
    /// of [`Table::indexes`], so a batch of inserts takes the index list
    /// once. `pending: Some(txn)` marks `txn` as the row's pending writer,
    /// so snapshot readers do not see it before its commit timestamp is
    /// installed (Snapshot engine mode); index entries are still made
    /// eagerly, and index probes re-check visibility against the heap.
    pub fn insert_indexed(
        &self,
        row: &Row,
        pending: Option<u64>,
        indexes: &[Arc<BTreeIndex>],
    ) -> Result<RowId> {
        self.schema.validate_row(row)?;
        let rid = match pending {
            Some(txn) => self.heap.insert_versioned(row, txn),
            None => self.heap.insert(row),
        };
        for (n, idx) in indexes.iter().enumerate() {
            if let Err(e) = idx.insert(self.name(), row.key(&idx.def().key_columns), rid) {
                // Roll back: earlier index entries + the heap row.
                self.heap.delete(rid);
                for done in &indexes[..n] {
                    done.remove(&row.key(&done.def().key_columns), rid);
                }
                if let Some(txn) = pending {
                    self.heap.clear_pending(rid, txn);
                }
                return Err(e);
            }
        }
        Ok(rid)
    }

    /// Updates the row at `rid`, returning the previous row. Index entries
    /// whose keys changed are moved; uniqueness conflicts roll everything
    /// back. The caller holds `rid`'s row lock, so the row read here for
    /// the index diff is the row the heap replaces, and it is returned
    /// as is rather than decoded a second time.
    pub fn update(&self, rid: RowId, new_row: &Row) -> Result<Row> {
        self.schema.validate_row(new_row)?;
        let old_row = self.heap.get(rid).ok_or(Error::RowNotFound)?;
        let indexes = self.indexes();
        // Move index entries key-by-key, tracking what we did for rollback.
        let mut moved: Vec<(
            usize,
            Vec<bullfrog_common::Value>,
            Vec<bullfrog_common::Value>,
        )> = Vec::new();
        for (n, idx) in indexes.iter().enumerate() {
            let old_key = old_row.key(&idx.def().key_columns);
            let new_key = new_row.key(&idx.def().key_columns);
            if old_key == new_key {
                continue;
            }
            idx.remove(&old_key, rid);
            if let Err(e) = idx.insert(self.name(), new_key.clone(), rid) {
                // Restore this index and all previously-moved ones.
                idx.insert(self.name(), old_key, rid)
                    .expect("restoring removed key cannot conflict");
                for (m, ok, nk) in moved.into_iter().rev() {
                    indexes[m].remove(&nk, rid);
                    indexes[m]
                        .insert(self.name(), ok, rid)
                        .expect("restoring removed key cannot conflict");
                }
                return Err(e);
            }
            moved.push((n, old_key, new_key));
        }
        if !self.heap.update(rid, new_row) {
            // Heap row vanished between get and update (concurrent
            // delete) — restore index moves.
            for (m, ok, nk) in moved.into_iter().rev() {
                indexes[m].remove(&nk, rid);
                let _ = indexes[m].insert(self.name(), ok, rid);
            }
            return Err(Error::RowNotFound);
        }
        Ok(old_row)
    }

    /// Deletes the row at `rid` (tombstone + index cleanup), returning it.
    pub fn delete(&self, rid: RowId) -> Result<Row> {
        let row = self.heap.delete(rid).ok_or(Error::RowNotFound)?;
        for idx in self.indexes() {
            idx.remove(&row.key(&idx.def().key_columns), rid);
        }
        Ok(row)
    }

    /// Rollback helper: restores a deleted row (tombstone → live) and its
    /// index entries.
    pub fn undo_delete(&self, rid: RowId, row: Row) -> Result<()> {
        if !self.heap.undelete(rid, &row) {
            return Err(Error::Internal(format!(
                "undo_delete: slot {rid} is not a tombstone"
            )));
        }
        for idx in self.indexes() {
            idx.insert(self.name(), row.key(&idx.def().key_columns), rid)?;
        }
        Ok(())
    }

    /// Rollback helper: removes an inserted row entirely.
    pub fn undo_insert(&self, rid: RowId) -> Result<()> {
        self.delete(rid).map(|_| ())
    }

    /// Rollback helper: restores the pre-update image.
    pub fn undo_update(&self, rid: RowId, old_row: Row) -> Result<()> {
        self.update(rid, &old_row).map(|_| ())
    }

    /// Places a row at an exact id (WAL replay), maintaining indexes.
    pub fn place(&self, rid: RowId, row: Row) -> Result<()> {
        self.schema.validate_row(&row)?;
        if !self.heap.place(rid, &row) {
            return Err(Error::Internal(format!(
                "place: slot {rid} occupied or out of range"
            )));
        }
        let indexes = self.indexes();
        for (n, idx) in indexes.iter().enumerate() {
            if let Err(e) = idx.insert(self.name(), row.key(&idx.def().key_columns), rid) {
                for done in &indexes[..n] {
                    done.remove(&row.key(&done.def().key_columns), rid);
                }
                self.heap.delete(rid);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Point lookup through the primary key index.
    pub fn get_by_pk(&self, key: &[bullfrog_common::Value]) -> Option<(RowId, Row)> {
        let indexes = self.indexes.read();
        let pk = indexes.first()?;
        if !pk.def().unique || pk.def().key_columns != self.pk_indices {
            return None;
        }
        let rid = *pk.get(key).first()?;
        drop(indexes);
        self.heap.get(rid).map(|row| (rid, row))
    }

    /// Whether `row` carries the primary key `key`.
    pub fn has_pk(&self, row: &Row, key: &[bullfrog_common::Value]) -> bool {
        self.pk_indices.len() == key.len()
            && self.pk_indices.iter().zip(key).all(|(&i, v)| &row[i] == v)
    }

    /// Number of live rows.
    pub fn live_count(&self) -> usize {
        self.heap.live_count()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.schema.name)
            .field("rows", &self.live_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{row, ColumnDef, DataType, Value};

    fn customers() -> Table {
        let schema = TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("c_id", DataType::Int),
                ColumnDef::new("c_name", DataType::Text),
                ColumnDef::new("c_balance", DataType::Decimal),
            ],
        )
        .with_primary_key(&["c_id"])
        .with_unique("customer_name_key", &["c_name"]);
        Table::new(TableId(1), schema).unwrap()
    }

    #[test]
    fn pk_and_unique_indexes_created() {
        let t = customers();
        let idx = t.indexes();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].def().name, "customer_pkey");
        assert!(idx[0].def().unique);
        assert_eq!(idx[1].def().name, "customer_name_key");
    }

    #[test]
    fn insert_maintains_indexes() {
        let t = customers();
        let rid = t.insert(row![1, "alice", 100]).unwrap();
        assert_eq!(
            t.get_by_pk(&[Value::Int(1)]),
            Some((rid, row![1, "alice", 100]))
        );
        let by_name = t.index("customer_name_key").unwrap();
        assert_eq!(by_name.get(&[Value::text("alice")]), vec![rid]);
    }

    #[test]
    fn duplicate_pk_rolls_back_cleanly() {
        let t = customers();
        t.insert(row![1, "alice", 100]).unwrap();
        let err = t.insert(row![1, "bob", 50]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // The failed insert left no index debris: "bob" is absent.
        let by_name = t.index("customer_name_key").unwrap();
        assert!(by_name.get(&[Value::text("bob")]).is_empty());
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn duplicate_secondary_unique_rolls_back_pk_entry() {
        let t = customers();
        t.insert(row![1, "alice", 100]).unwrap();
        let err = t.insert(row![2, "alice", 50]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // PK index must not contain the rolled-back key 2.
        assert!(t.get_by_pk(&[Value::Int(2)]).is_none());
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn update_moves_index_entries() {
        let t = customers();
        let rid = t.insert(row![1, "alice", 100]).unwrap();
        t.update(rid, &row![1, "alicia", 90]).unwrap();
        let by_name = t.index("customer_name_key").unwrap();
        assert!(by_name.get(&[Value::text("alice")]).is_empty());
        assert_eq!(by_name.get(&[Value::text("alicia")]), vec![rid]);
    }

    #[test]
    fn update_conflict_restores_all_indexes() {
        let t = customers();
        let r1 = t.insert(row![1, "alice", 100]).unwrap();
        t.insert(row![2, "bob", 50]).unwrap();
        // Renaming alice -> bob conflicts on the name key; pk change to 3
        // happens first and must be restored.
        let err = t.update(r1, &row![3, "bob", 100]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert!(t.get_by_pk(&[Value::Int(1)]).is_some(), "pk entry restored");
        assert!(t.get_by_pk(&[Value::Int(3)]).is_none());
        let by_name = t.index("customer_name_key").unwrap();
        assert_eq!(by_name.get(&[Value::text("alice")]), vec![r1]);
    }

    #[test]
    fn delete_and_undo_delete() {
        let t = customers();
        let rid = t.insert(row![1, "alice", 100]).unwrap();
        let row = t.delete(rid).unwrap();
        assert!(t.get_by_pk(&[Value::Int(1)]).is_none());
        t.undo_delete(rid, row).unwrap();
        assert!(t.get_by_pk(&[Value::Int(1)]).is_some());
    }

    #[test]
    fn create_index_backfills() {
        let t = customers();
        for i in 0..10 {
            t.insert(row![i, format!("c{i}"), i * 10]).unwrap();
        }
        t.create_index("customer_balance_idx", &["c_balance"], false)
            .unwrap();
        let idx = t.index("customer_balance_idx").unwrap();
        assert_eq!(idx.get(&[Value::Int(50)]).len(), 1);
        assert_eq!(idx.key_count(), 10);
    }

    #[test]
    fn create_unique_index_fails_on_duplicates() {
        let t = customers();
        t.insert(row![1, "a", 10]).unwrap();
        t.insert(row![2, "b", 10]).unwrap();
        assert!(t
            .create_index("balance_unique", &["c_balance"], true)
            .is_err());
        // Failed index is not published.
        assert!(t.index("balance_unique").is_none());
    }

    #[test]
    fn index_for_columns_picks_best_prefix() {
        let t = customers();
        t.create_index("name_balance", &["c_name", "c_balance"], false)
            .unwrap();
        let got = t.index_for_columns(&[1, 2]).unwrap();
        assert_eq!(got.def().name, "name_balance");
        let got = t.index_for_columns(&[0]).unwrap();
        assert_eq!(got.def().name, "customer_pkey");
        assert!(t.index_for_columns(&[]).is_none());
    }

    #[test]
    fn check_constraint_enforced_on_insert_and_update() {
        let schema = TableSchema::new("t", vec![ColumnDef::new("v", DataType::Int)])
            .with_check("v_positive", bullfrog_common::schema::CheckExpr::gt("v", 0));
        let t = Table::new(TableId(9), schema).unwrap();
        assert!(matches!(
            t.insert(row![0]),
            Err(Error::CheckViolation { .. })
        ));
        let rid = t.insert(row![5]).unwrap();
        assert!(matches!(
            t.update(rid, &row![-1]),
            Err(Error::CheckViolation { .. })
        ));
    }
}
