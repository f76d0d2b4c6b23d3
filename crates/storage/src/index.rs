//! B-tree indexes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use bullfrog_common::{Error, Result, RowId, Value};
use parking_lot::RwLock;

/// Static description of an index: which columns it covers and whether it
/// enforces uniqueness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique within the table; used in error messages).
    pub name: String,
    /// Positions of the key columns in the table schema.
    pub key_columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

/// The row ids under one key. Almost every key maps to one row — every
/// key of a unique index does — so that row id is held inline and only a
/// duplicate key spills to a heap `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Postings {
    One(RowId),
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(rid) => std::slice::from_ref(rid),
            Postings::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, rid]),
            Postings::Many(rids) => rids.push(rid),
        }
    }

    /// Removes `rid`; `None` when it was absent, else whether the key
    /// still has row ids.
    fn remove(&mut self, rid: RowId) -> Option<bool> {
        match self {
            Postings::One(only) => (*only == rid).then_some(false),
            Postings::Many(rids) => {
                let pos = rids.iter().position(|r| *r == rid)?;
                rids.swap_remove(pos);
                if let [last] = rids[..] {
                    *self = Postings::One(last);
                }
                Some(true)
            }
        }
    }
}

/// An ordered secondary index mapping key tuples to row ids.
///
/// The map is guarded by a single `RwLock`; B-tree mutations are short and
/// the engine's 2PL row locks keep logical conflicts out of here. Unique
/// violations are detected atomically inside [`BTreeIndex::insert`], which
/// is what makes "insert, and let the unique index be the arbiter" safe for
/// BullFrog's ON-CONFLICT migration mode (paper §3.7). An entry is a boxed
/// key slice and its postings, so a key with one row costs the key's
/// one allocation and nothing more.
pub struct BTreeIndex {
    def: IndexDef,
    map: RwLock<BTreeMap<Box<[Value]>, Postings>>,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new(def: IndexDef) -> Self {
        BTreeIndex {
            def,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Inserts `(key, rid)`. For unique indexes, fails when the key is
    /// already present **with a different row id** (re-inserting the same
    /// pair is idempotent, which rollback paths rely on).
    pub fn insert(&self, table: &str, key: Vec<Value>, rid: RowId) -> Result<()> {
        let mut map = self.map.write();
        match map.entry(key.into_boxed_slice()) {
            Entry::Vacant(e) => {
                e.insert(Postings::One(rid));
            }
            Entry::Occupied(mut e) => {
                let rids = e.get_mut();
                if rids.as_slice().contains(&rid) {
                    return Ok(());
                }
                if self.def.unique {
                    return Err(Error::UniqueViolation {
                        table: table.to_owned(),
                        constraint: self.def.name.clone(),
                    });
                }
                rids.push(rid);
            }
        }
        Ok(())
    }

    /// Inserts unless the key already exists; returns `true` when inserted.
    /// This is the `ON CONFLICT DO NOTHING` primitive.
    pub fn insert_or_ignore(&self, key: Vec<Value>, rid: RowId) -> bool {
        match self.map.write().entry(key.into_boxed_slice()) {
            Entry::Vacant(e) => {
                e.insert(Postings::One(rid));
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Removes `(key, rid)`; returns whether it was present.
    pub fn remove(&self, key: &[Value], rid: RowId) -> bool {
        let mut map = self.map.write();
        let Some(rids) = map.get_mut(key) else {
            return false;
        };
        match rids.remove(rid) {
            None => false,
            Some(true) => true,
            Some(false) => {
                map.remove(key);
                true
            }
        }
    }

    /// Row ids for an exact key.
    pub fn get(&self, key: &[Value]) -> Vec<RowId> {
        self.map
            .read()
            .get(key)
            .map_or_else(Vec::new, |rids| rids.as_slice().to_vec())
    }

    /// True when the key exists.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.map.read().contains_key(key)
    }

    /// Row ids whose key starts with `prefix` (prefix must be no longer
    /// than the key arity). Used by multi-column indexes queried on a
    /// leading subset, e.g. `(w_id, d_id)` of `(w_id, d_id, o_id)`.
    pub fn get_prefix(&self, prefix: &[Value]) -> Vec<RowId> {
        let map = self.map.read();
        map.range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, rids)| rids.as_slice().iter().copied())
            .collect()
    }

    /// Row ids whose key starts with `prefix` and whose **next** key
    /// component falls within the given bounds (each `(value, inclusive)`;
    /// `None` = unbounded). The scan starts at the lower bound and stops
    /// past the upper, so it touches only the qualifying range. Only a
    /// lower bound needs a key built (the prefix plus its value); the
    /// prefix alone is borrowed.
    pub fn range_scan(
        &self,
        prefix: &[Value],
        lo: Option<&(Value, bool)>,
        hi: Option<&(Value, bool)>,
    ) -> Vec<RowId> {
        let p = prefix.len();
        let start: Option<Vec<Value>> = lo.map(|(v, _)| {
            let mut k = Vec::with_capacity(p + 1);
            k.extend_from_slice(prefix);
            k.push(v.clone());
            k
        });
        let start = start.as_deref().unwrap_or(prefix);
        let map = self.map.read();
        map.range::<[Value], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| {
                if !k.starts_with(prefix) {
                    return false;
                }
                match (hi, k.get(p)) {
                    (Some((v, incl)), Some(next)) => {
                        if *incl {
                            next <= v
                        } else {
                            next < v
                        }
                    }
                    _ => true,
                }
            })
            .filter(|(k, _)| match (lo, k.get(p)) {
                (Some((v, incl)), Some(next)) => {
                    if *incl {
                        next >= v
                    } else {
                        next > v
                    }
                }
                (Some(_), None) => false,
                _ => true,
            })
            .flat_map(|(_, rids)| rids.as_slice().iter().copied())
            .collect()
    }

    /// Row ids for keys in `[low, high]` on the full key tuple.
    pub fn get_range(&self, low: &[Value], high: &[Value]) -> Vec<RowId> {
        let map = self.map.read();
        map.range::<[Value], _>((Bound::Included(low), Bound::Included(high)))
            .flat_map(|(_, rids)| rids.as_slice().iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Removes every entry (used when rebuilding during recovery).
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("def", &self.def)
            .field("keys", &self.key_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(unique: bool) -> BTreeIndex {
        BTreeIndex::new(IndexDef {
            name: "test_idx".into(),
            key_columns: vec![0],
            unique,
        })
    }

    fn key(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let i = idx(true);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        let err = i.insert("t", key(1), RowId::new(0, 1)).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // Idempotent re-insert of the same pair is fine (rollback path).
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        assert_eq!(i.get(&key(1)), vec![RowId::new(0, 0)]);
    }

    #[test]
    fn non_unique_index_accumulates() {
        let i = idx(false);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        i.insert("t", key(1), RowId::new(0, 1)).unwrap();
        assert_eq!(i.get(&key(1)).len(), 2);
    }

    #[test]
    fn insert_or_ignore_semantics() {
        let i = idx(true);
        assert!(i.insert_or_ignore(key(1), RowId::new(0, 0)));
        assert!(!i.insert_or_ignore(key(1), RowId::new(0, 1)));
        assert_eq!(i.get(&key(1)), vec![RowId::new(0, 0)]);
    }

    #[test]
    fn remove_cleans_up_empty_keys() {
        let i = idx(false);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        assert!(i.remove(&key(1), RowId::new(0, 0)));
        assert!(!i.contains_key(&key(1)));
        assert!(!i.remove(&key(1), RowId::new(0, 0)));
        assert_eq!(i.key_count(), 0);
    }

    fn postings(i: &BTreeIndex, k: i64) -> Option<Postings> {
        i.map.read().get(&key(k)[..]).cloned()
    }

    #[test]
    fn postings_spill_for_duplicates_and_collapse_back() {
        let i = idx(false);
        let (a, b, c) = (RowId::new(0, 0), RowId::new(0, 1), RowId::new(0, 2));
        i.insert("t", key(1), a).unwrap();
        assert_eq!(postings(&i, 1), Some(Postings::One(a)));
        i.insert("t", key(1), b).unwrap();
        i.insert("t", key(1), c).unwrap();
        assert_eq!(postings(&i, 1), Some(Postings::Many(vec![a, b, c])));
        // Re-inserting a present pair changes nothing.
        i.insert("t", key(1), b).unwrap();
        assert_eq!(i.get(&key(1)), vec![a, b, c]);
        assert!(i.remove(&key(1), a));
        assert_eq!(postings(&i, 1), Some(Postings::Many(vec![c, b])));
        assert!(i.remove(&key(1), c));
        assert_eq!(postings(&i, 1), Some(Postings::One(b)));
        assert!(!i.remove(&key(1), c));
        assert_eq!(i.key_count(), 1);
        // Removing the last row id drops the key.
        assert!(i.remove(&key(1), b));
        assert_eq!(postings(&i, 1), None);
        assert_eq!(i.key_count(), 0);
        assert!(i.get(&key(1)).is_empty());
    }

    #[test]
    fn unique_postings_stay_inline() {
        let i = idx(true);
        let (a, b) = (RowId::new(3, 0), RowId::new(3, 1));
        i.insert("t", key(7), a).unwrap();
        // The rollback path re-inserts the same pair: still one row id.
        i.insert("t", key(7), a).unwrap();
        assert_eq!(postings(&i, 7), Some(Postings::One(a)));
        let err = i.insert("t", key(7), b).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert_eq!(postings(&i, 7), Some(Postings::One(a)));
        assert!(!i.insert_or_ignore(key(7), b));
        assert!(i.remove(&key(7), a));
        assert_eq!(i.key_count(), 0);
        assert!(i.insert_or_ignore(key(7), b));
        assert_eq!(i.get(&key(7)), vec![b]);
    }

    #[test]
    fn prefix_scan_on_composite_key() {
        let i = BTreeIndex::new(IndexDef {
            name: "composite".into(),
            key_columns: vec![0, 1],
            unique: true,
        });
        for (a, b, rid) in [
            (1, 1, RowId::new(0, 0)),
            (1, 2, RowId::new(0, 1)),
            (2, 1, RowId::new(0, 2)),
        ] {
            i.insert("t", vec![Value::Int(a), Value::Int(b)], rid)
                .unwrap();
        }
        let got = i.get_prefix(&[Value::Int(1)]);
        assert_eq!(got, vec![RowId::new(0, 0), RowId::new(0, 1)]);
        assert!(i.get_prefix(&[Value::Int(3)]).is_empty());
    }

    #[test]
    fn range_scan_prefix_with_bounds() {
        let i = BTreeIndex::new(IndexDef {
            name: "composite".into(),
            key_columns: vec![0, 1, 2],
            unique: true,
        });
        for d in 1..=2i64 {
            for o in 1..=10i64 {
                i.insert(
                    "t",
                    vec![Value::Int(1), Value::Int(d), Value::Int(o)],
                    RowId::new(d as u32, o as u16),
                )
                .unwrap();
            }
        }
        let prefix = [Value::Int(1), Value::Int(1)];
        // o >= 4 AND o < 7 → 4, 5, 6.
        let got = i.range_scan(
            &prefix,
            Some(&(Value::Int(4), true)),
            Some(&(Value::Int(7), false)),
        );
        assert_eq!(
            got,
            vec![RowId::new(1, 4), RowId::new(1, 5), RowId::new(1, 6)]
        );
        // Exclusive lower bound.
        let got = i.range_scan(&prefix, Some(&(Value::Int(8), false)), None);
        assert_eq!(got, vec![RowId::new(1, 9), RowId::new(1, 10)]);
        // Unbounded below, inclusive above.
        let got = i.range_scan(&prefix, None, Some(&(Value::Int(2), true)));
        assert_eq!(got, vec![RowId::new(1, 1), RowId::new(1, 2)]);
        // Stays within the prefix: district 2 rows never leak in.
        let got = i.range_scan(&prefix, Some(&(Value::Int(9), true)), None);
        assert_eq!(got, vec![RowId::new(1, 9), RowId::new(1, 10)]);
    }

    #[test]
    fn range_scan_inclusive() {
        let i = idx(false);
        for v in 1..=5 {
            i.insert("t", key(v), RowId::new(0, v as u16)).unwrap();
        }
        let got = i.get_range(&key(2), &key(4));
        assert_eq!(
            got,
            vec![RowId::new(0, 2), RowId::new(0, 3), RowId::new(0, 4)]
        );
    }
}
