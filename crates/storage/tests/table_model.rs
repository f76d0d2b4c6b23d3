//! Model-based property test: a `Table` (heap + indexes) against a plain
//! `BTreeMap` model, over random operation sequences. Verifies that heap
//! contents, primary-index lookups, and secondary-index postings never
//! diverge — including through failed (unique-violation) operations,
//! which must leave no debris.

use std::collections::BTreeMap;

use bullfrog_common::{ColumnDef, DataType};
use bullfrog_common::{Error, Row, RowId, TableId, TableSchema, Value};
use bullfrog_storage::Table;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, grp: i64 },
    UpdateGrp { id: i64, grp: i64 },
    Delete { id: i64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, 0i64..5).prop_map(|(id, grp)| Op::Insert { id, grp }),
        (0i64..40, 0i64..5).prop_map(|(id, grp)| Op::UpdateGrp { id, grp }),
        (0i64..40).prop_map(|id| Op::Delete { id }),
    ]
}

fn table() -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("grp", DataType::Int),
        ],
    )
    .with_primary_key(&["id"]);
    let t = Table::with_slots_per_page(TableId(1), schema, 4).unwrap();
    t.create_index("t_grp_idx", &["grp"], false).unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let t = table();
        // Model: id -> (rid, grp).
        let mut model: BTreeMap<i64, (RowId, i64)> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { id, grp } => {
                    let result = t.insert(Row(vec![Value::Int(id), Value::Int(grp)]));
                    if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(id)
                    {
                        slot.insert((result.unwrap(), grp));
                    } else {
                        let is_unique_violation =
                            matches!(result, Err(Error::UniqueViolation { .. }));
                        prop_assert!(is_unique_violation);
                    }
                }
                Op::UpdateGrp { id, grp } => {
                    if let Some((rid, _)) = model.get(&id).copied() {
                        t.update(rid, &Row(vec![Value::Int(id), Value::Int(grp)])).unwrap();
                        model.insert(id, (rid, grp));
                    }
                }
                Op::Delete { id } => {
                    if let Some((rid, _)) = model.remove(&id) {
                        t.delete(rid).unwrap();
                    }
                }
            }

            // Invariants after every op.
            prop_assert_eq!(t.live_count(), model.len());
            for (id, (rid, grp)) in &model {
                let found = t.get_by_pk(&[Value::Int(*id)]);
                prop_assert!(found.is_some(), "pk {} missing", id);
                let (got_rid, got_row) = found.unwrap();
                prop_assert_eq!(got_rid, *rid);
                prop_assert_eq!(&got_row[1], &Value::Int(*grp));
            }
            // Secondary index postings match exactly.
            let idx = t.index("t_grp_idx").unwrap();
            for g in 0..5i64 {
                let mut expect: Vec<RowId> = model
                    .values()
                    .filter(|(_, grp)| *grp == g)
                    .map(|(rid, _)| *rid)
                    .collect();
                expect.sort();
                let mut got = idx.get(&[Value::Int(g)]);
                got.sort();
                prop_assert_eq!(got, expect, "group {} postings", g);
            }
        }
    }

    #[test]
    fn place_round_trips_arbitrary_rids(
        slots in 1u16..16,
        positions in proptest::collection::btree_set((0u32..6, 0u16..16), 0..20),
    ) {
        let schema = TableSchema::new(
            "t",
            vec![ColumnDef::new("id", DataType::Int)],
        );
        let t = Table::with_slots_per_page(TableId(1), schema, slots).unwrap();
        let mut placed = Vec::new();
        for (i, (page, slot)) in positions.iter().enumerate() {
            if *slot >= slots {
                continue;
            }
            let rid = RowId::new(*page, *slot);
            t.place(rid, Row(vec![Value::Int(i as i64)])).unwrap();
            placed.push((rid, i as i64));
        }
        prop_assert_eq!(t.live_count(), placed.len());
        for (rid, v) in placed {
            prop_assert_eq!(t.heap().get(rid), Some(Row(vec![Value::Int(v)])));
        }
    }
}
