//! §3.6: the three join-migration options (drive the FK side, drive the
//! PK side, hashmap on the join key) must all produce the same final
//! output — they differ only in what gets locked/tracked and how much
//! data one migration task drags along.

use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, Row, TableSchema, Value};
use bullfrog_core::{
    BackgroundConfig, Bullfrog, BullfrogConfig, ClientAccess, JoinStrategy, MigrationCategory,
    MigrationPlan, MigrationStatement, Tracking,
};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_query::{ColRef, Expr, SelectSpec};

fn seed(mode: EngineMode) -> Arc<Database> {
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    db.create_table(
        TableSchema::new(
            "authors",
            vec![
                ColumnDef::new("a_id", DataType::Int),
                ColumnDef::new("a_name", DataType::Text),
            ],
        )
        .with_primary_key(&["a_id"]),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "books",
            vec![
                ColumnDef::new("b_id", DataType::Int),
                ColumnDef::new("b_author", DataType::Int),
                ColumnDef::new("b_title", DataType::Text),
            ],
        )
        .with_primary_key(&["b_id"]),
    )
    .unwrap();
    db.create_index("books", "books_author_idx", &["b_author"], false)
        .unwrap();
    for a in 0..10 {
        db.insert_unlogged("authors", row![a, format!("author{a}")])
            .unwrap();
    }
    for b in 0..100 {
        db.insert_unlogged("books", row![b, b % 10, format!("title{b}")])
            .unwrap();
    }
    db
}

fn denorm_stmt(strategy: Option<JoinStrategy>) -> MigrationStatement {
    let spec = SelectSpec::new()
        .from_table("books", "b")
        .from_table("authors", "a")
        .join_on(ColRef::new("b", "b_author"), ColRef::new("a", "a_id"))
        .select("b_id", Expr::col("b", "b_id"))
        .select("b_title", Expr::col("b", "b_title"))
        .select("a_name", Expr::col("a", "a_name"));
    let schema = TableSchema::new(
        "books_denorm",
        vec![
            ColumnDef::new("b_id", DataType::Int),
            ColumnDef::new("b_title", DataType::Text),
            ColumnDef::new("a_name", DataType::Text),
        ],
    )
    .with_primary_key(&["b_id"]);
    let mut stmt = MigrationStatement::new(schema, spec);
    if let Some(s) = strategy {
        stmt = stmt.with_join_strategy(s);
    }
    stmt
}

fn run_with(mode: EngineMode, strategy: Option<JoinStrategy>) -> Vec<Row> {
    let db = seed(mode);
    let bf = Bullfrog::with_config(
        Arc::clone(&db),
        BullfrogConfig {
            background: BackgroundConfig {
                enabled: true,
                start_delay: Duration::from_millis(10),
                batch: 16,
                pause: Duration::ZERO,
                threads: 2,
            },
            ..Default::default()
        },
    );
    bf.submit_migration(MigrationPlan::new("denorm").with_statement(denorm_stmt(strategy)))
        .unwrap();
    // Touch a few points through each access path first.
    for b in [3i64, 57, 99] {
        let mut txn = db.begin();
        bf.get_by_pk(
            &mut txn,
            "books_denorm",
            &[Value::Int(b)],
            LockPolicy::Shared,
        )
        .unwrap()
        .unwrap();
        db.commit(&mut txn).unwrap();
    }
    assert!(bf.wait_migration_complete(Duration::from_secs(30)));
    bf.shutdown_background();
    let mut rows: Vec<Row> = db
        .select_unlocked("books_denorm", None)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort();
    rows
}

#[test]
fn default_classification_drives_fk_side() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let mut stmt = denorm_stmt(None);
        stmt.resolve(&db).unwrap();
        assert_eq!(stmt.category(), MigrationCategory::OneToOne);
        assert!(
            matches!(stmt.tracking(), Tracking::Bitmap { driving_alias, .. } if driving_alias == "b")
        );
    }
}

#[test]
fn pk_side_driving_classifies_one_to_many() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let mut stmt = denorm_stmt(Some(JoinStrategy::DrivingSide { alias: "a".into() }));
        stmt.resolve(&db).unwrap();
        assert_eq!(stmt.category(), MigrationCategory::OneToMany);
    }
}

#[test]
fn all_three_options_agree_on_the_final_state() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let fk_side = run_with(mode, None);
        assert_eq!(fk_side.len(), 100);
        let pk_side = run_with(mode, Some(JoinStrategy::DrivingSide { alias: "a".into() }));
        let join_key = run_with(mode, Some(JoinStrategy::JoinKeyGroups));
        assert_eq!(fk_side, pk_side, "FKIT-driven vs PKIT-driven");
        assert_eq!(fk_side, join_key, "FKIT-driven vs join-key groups");
    }
}

#[test]
fn pk_side_granule_drags_the_whole_fan_out() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // Driving the PK side (1:n): migrating one author moves all ten of its
        // books in one task — the §3.6 option-1 trade-off.
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(
            Arc::clone(&db),
            BullfrogConfig {
                background: BackgroundConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        bf.submit_migration(
            MigrationPlan::new("denorm").with_statement(denorm_stmt(Some(
                JoinStrategy::DrivingSide { alias: "a".into() },
            ))),
        )
        .unwrap();
        // A point read of one book's denormalized row cannot be satisfied by a
        // predicate on the driving (author) side, so the transposed filter on
        // authors is empty → but the b-side filter still bounds candidates?
        // No: candidates come from the driving table. A b_id predicate is not
        // transposable to authors, so the whole author table is the candidate
        // set — the coarse behavior the paper warns about for option 1.
        let mut txn = db.begin();
        let got = bf
            .get_by_pk(
                &mut txn,
                "books_denorm",
                &[Value::Int(42)],
                LockPolicy::Shared,
            )
            .unwrap();
        db.commit(&mut txn).unwrap();
        assert!(got.is_some());
        assert_eq!(
            db.table("books_denorm").unwrap().live_count(),
            100,
            "option 1 migrated everything for a single point read"
        );
    }
}

#[test]
fn fk_side_granule_is_fine_grained() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // Driving the FK side (option 2): the same point read migrates exactly
        // one tuple.
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(
            Arc::clone(&db),
            BullfrogConfig {
                background: BackgroundConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        bf.submit_migration(MigrationPlan::new("denorm").with_statement(denorm_stmt(None)))
            .unwrap();
        let mut txn = db.begin();
        bf.get_by_pk(
            &mut txn,
            "books_denorm",
            &[Value::Int(42)],
            LockPolicy::Shared,
        )
        .unwrap()
        .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(db.table("books_denorm").unwrap().live_count(), 1);
    }
}

#[test]
fn tuple_pairs_option_classifies_and_agrees() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // §3.6 option 3: pairwise tracking produces the same final state...
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let mut stmt = denorm_stmt(Some(JoinStrategy::TuplePairs));
        stmt.resolve(&db).unwrap();
        assert_eq!(stmt.category(), MigrationCategory::ManyToMany);
        assert!(matches!(stmt.tracking(), Tracking::PairHash { .. }));

        let pairs = run_with(mode, Some(JoinStrategy::TuplePairs));
        let fk_side = run_with(mode, None);
        assert_eq!(pairs, fk_side, "pairwise vs FKIT-driven final state");
    }
}

#[test]
fn tuple_pairs_point_read_is_maximally_lazy() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // ...and a point read migrates exactly the one joining pair, even
        // though the join is many-to-many w.r.t. the tracked combination.
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(
            Arc::clone(&db),
            BullfrogConfig {
                background: BackgroundConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        bf.submit_migration(
            MigrationPlan::new("denorm")
                .with_statement(denorm_stmt(Some(JoinStrategy::TuplePairs))),
        )
        .unwrap();
        let mut txn = db.begin();
        bf.get_by_pk(
            &mut txn,
            "books_denorm",
            &[Value::Int(42)],
            LockPolicy::Shared,
        )
        .unwrap()
        .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(
            db.table("books_denorm").unwrap().live_count(),
            1,
            "exactly one (book, author) pair migrated"
        );
        // Full sweep completes the rest exactly once.
        bf.ensure_migrated("books_denorm", None).unwrap();
        assert_eq!(db.table("books_denorm").unwrap().live_count(), 100);
    }
}

#[test]
fn tuple_pairs_requires_two_inputs() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed(mode);
        assert_eq!(db.config().mode, mode);
        let spec = SelectSpec::new()
            .from_table("books", "b")
            .select("b_id", Expr::col("b", "b_id"));
        let schema = TableSchema::new("copy", vec![ColumnDef::new("b_id", DataType::Int)])
            .with_primary_key(&["b_id"]);
        let mut stmt =
            MigrationStatement::new(schema, spec).with_join_strategy(JoinStrategy::TuplePairs);
        assert!(stmt.resolve(&db).is_err());
    }
}
