//! Migration plans: what to migrate, and how to track it.
//!
//! A [`MigrationPlan`] is the programmatic form of the paper's migration
//! DDL: one or more [`MigrationStatement`]s, each creating an output table
//! from a [`SelectSpec`] over old ("input") tables. At submission the plan
//! is **classified** (paper §3.1): each statement resolves to a tracking
//! choice —
//!
//! - **bitmap** (1:1 and 1:n): granules are driving-table row positions;
//! - **hashmap** (n:1 and n:n): granules are group keys (GROUP BY values,
//!   or the join attribute of a many-to-many join).
//!
//! For FK-PK joins the paper's §3.6 gives two options: drive from the
//! foreign-key side (its option 2, the default here — the PK side carries
//! no tracking structures at all) or drive from the primary-key side (its
//! option 1). Both are selectable via [`JoinStrategy`].

use bullfrog_common::{Error, Result, TableSchema};
use bullfrog_engine::Database;
use bullfrog_query::{ColRef, Expr, SelectSpec};

/// The four migration categories of paper §3.1, as resolved for a
/// statement's *tracked* input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCategory {
    /// Each input tuple produces at most one output tuple.
    OneToOne,
    /// Each input tuple may produce several output tuples.
    OneToMany,
    /// A group of input tuples produces one output tuple.
    ManyToOne,
    /// Groups on both sides (many-to-many join, or grouped multi-input).
    ManyToMany,
}

/// How to handle a join migration (paper §3.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Drive from the named side: a bitmap tracks that table's tuples; the
    /// other side carries no lock/migration state (§3.6 option 2 when
    /// driving the FK side, option 1 when driving the PK side).
    DrivingSide {
        /// Alias of the driving input.
        alias: String,
    },
    /// Track by join-key value in a hashmap: one granule = all tuples from
    /// both sides sharing a join-attribute value (the n:n approach used
    /// for many-to-many joins, §3.6/§4.3).
    JoinKeyGroups,
    /// §3.6's third option for many-to-many joins: track by the
    /// *combination* of tuples — `(x.tupleID, y.tupleID) → (lock_status,
    /// migrate_status)` — which makes the lazy migration maximally
    /// fine-grained even under join-key skew. Requires exactly two inputs.
    TuplePairs,
}

/// The resolved tracking choice for a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tracking {
    /// Bitmap over the driving alias's row ordinals.
    Bitmap {
        /// Which input table's rows the bitmap covers.
        driving_alias: String,
        /// Rows per granule (1 = tuple granularity; >1 = page granularity,
        /// §4.4.3).
        granule_rows: u64,
    },
    /// Hashmap keyed by the given expressions (evaluated over rows of
    /// `key_alias`).
    Hash {
        /// Alias whose rows the key expressions are evaluated on.
        key_alias: String,
        /// Group key expressions (bare column references within
        /// `key_alias`'s table, stored alias-qualified).
        key_exprs: Vec<Expr>,
    },
    /// Hashmap keyed by `(left row ordinal, right row ordinal)` pairs
    /// (§3.6 option 3).
    PairHash {
        /// First join side.
        left_alias: String,
        /// Second join side.
        right_alias: String,
    },
}

/// One migration statement: `CREATE TABLE <output> AS <spec>`.
#[derive(Debug, Clone)]
pub struct MigrationStatement {
    /// Schema of the output table (its `name` is the new table's name).
    pub output: TableSchema,
    /// The defining query over the old schema.
    pub spec: SelectSpec,
    /// Rows per bitmap granule (ignored for hashmap statements).
    pub granule_rows: u64,
    /// Optional explicit join strategy (otherwise classified).
    pub join_strategy: Option<JoinStrategy>,
    /// Resolved at submission.
    pub category: Option<MigrationCategory>,
    /// Resolved at submission.
    pub tracking: Option<Tracking>,
}

impl MigrationStatement {
    /// A statement with default (auto-classified) tracking.
    pub fn new(output: TableSchema, spec: SelectSpec) -> Self {
        MigrationStatement {
            output,
            spec,
            granule_rows: 1,
            join_strategy: None,
            category: None,
            tracking: None,
        }
    }

    /// Sets the bitmap granule size (page-granularity migration, §4.4.3).
    pub fn with_granule_rows(mut self, rows: u64) -> Self {
        self.granule_rows = rows.max(1);
        self
    }

    /// Overrides the join strategy (§3.6 options).
    pub fn with_join_strategy(mut self, s: JoinStrategy) -> Self {
        self.join_strategy = Some(s);
        self
    }

    /// The resolved category (after [`MigrationStatement::resolve`]).
    pub fn category(&self) -> MigrationCategory {
        self.category.expect("statement resolved at submission")
    }

    /// The resolved tracking (after [`MigrationStatement::resolve`]).
    pub fn tracking(&self) -> &Tracking {
        self.tracking
            .as_ref()
            .expect("statement resolved at submission")
    }

    /// Validates the statement against the catalog and resolves category +
    /// tracking (paper §3.1 classification).
    pub fn resolve(&mut self, db: &Database) -> Result<()> {
        // Structural validation.
        if self.spec.inputs.is_empty() {
            return Err(Error::InvalidMigration(format!(
                "statement for {} has no input tables",
                self.output.name
            )));
        }
        for input in &self.spec.inputs {
            db.table(&input.table)?;
        }
        let out_names = self.spec.output_names();
        let schema_names: Vec<String> =
            self.output.columns.iter().map(|c| c.name.clone()).collect();
        if out_names != schema_names {
            return Err(Error::InvalidMigration(format!(
                "output schema columns {schema_names:?} do not match spec outputs {out_names:?}"
            )));
        }

        let (category, tracking) = self.classify(db)?;
        self.category = Some(category);
        self.tracking = Some(tracking);
        Ok(())
    }

    fn classify(&self, db: &Database) -> Result<(MigrationCategory, Tracking)> {
        // Aggregation ⇒ hashmap keyed by the group key.
        if self.spec.is_aggregate() {
            let keys = self.spec.group_key_exprs();
            if keys.is_empty() {
                // A global aggregate has a single implicit group; model it
                // as one constant key.
                let alias = self.spec.inputs[0].alias.clone();
                return Ok((
                    MigrationCategory::ManyToOne,
                    Tracking::Hash {
                        key_alias: alias,
                        key_exprs: vec![Expr::lit(0)],
                    },
                ));
            }
            // Determine the alias the keys live on; group keys must all be
            // resolvable on one alias for tracking purposes.
            let mut alias: Option<String> = None;
            for k in &keys {
                let mut cols = Vec::new();
                k.columns(&mut cols);
                for c in cols {
                    let a = c
                        .table
                        .clone()
                        .unwrap_or_else(|| self.spec.inputs[0].alias.clone());
                    match &alias {
                        None => alias = Some(a),
                        Some(prev) if *prev == a => {}
                        Some(prev) => {
                            return Err(Error::InvalidMigration(format!(
                                "group key spans aliases {prev} and {a}; key must be \
                                 evaluable on one input"
                            )));
                        }
                    }
                }
            }
            let key_alias = alias.unwrap_or_else(|| self.spec.inputs[0].alias.clone());
            let category = if self.spec.inputs.len() == 1 {
                MigrationCategory::ManyToOne
            } else {
                MigrationCategory::ManyToMany
            };
            return Ok((
                category,
                Tracking::Hash {
                    key_alias,
                    key_exprs: keys.into_iter().cloned().collect(),
                },
            ));
        }

        // Explicit strategies are honored (and validated) even for shapes
        // the classifier would handle differently.
        if let Some(strategy) = &self.join_strategy {
            return self.tracking_for_strategy(db, strategy.clone());
        }

        // No aggregation, single input ⇒ 1:1, bitmap on that input. (A
        // table *split* is several such statements; the paper's multiple
        // bitmaps per input table, §3.1.)
        if self.spec.inputs.len() == 1 {
            return Ok((
                MigrationCategory::OneToOne,
                Tracking::Bitmap {
                    driving_alias: self.spec.inputs[0].alias.clone(),
                    granule_rows: self.granule_rows,
                },
            ));
        }

        // Default classification: find an alias that is on the non-unique
        // side of every join edge it participates in — the FK-side "spine".
        let mut fk_side: Vec<String> = Vec::new();
        let mut any_unique = false;
        for input in &self.spec.inputs {
            let unique = self.join_side_unique(db, &input.alias)?;
            if unique {
                any_unique = true;
            } else {
                fk_side.push(input.alias.clone());
            }
        }
        match (fk_side.len(), any_unique) {
            // Pure FK→PK shape (one non-unique spine): §3.6 option 2 —
            // drive the FK side, PK side untracked.
            (1, true) => self.tracking_for_strategy(
                db,
                JoinStrategy::DrivingSide {
                    alias: fk_side[0].clone(),
                },
            ),
            // All sides unique (PK-PK join): 1:1 either way; drive first.
            (0, true) => self.tracking_for_strategy(
                db,
                JoinStrategy::DrivingSide {
                    alias: self.spec.inputs[0].alias.clone(),
                },
            ),
            // Many-to-many (or mixed): hash on the join key.
            _ => self.tracking_for_strategy(db, JoinStrategy::JoinKeyGroups),
        }
    }

    fn tracking_for_strategy(
        &self,
        db: &Database,
        strategy: JoinStrategy,
    ) -> Result<(MigrationCategory, Tracking)> {
        match strategy {
            JoinStrategy::DrivingSide { alias } => {
                self.spec.input(&alias).ok_or_else(|| {
                    Error::InvalidMigration(format!("driving alias {alias} not an input"))
                })?;
                // Category is relative to the tracked (driving) table: 1:1
                // when each driving tuple joins to at most one output row
                // (its own join side unique on the others is irrelevant —
                // what matters is the *other* side being unique). We report
                // 1:1 when every other side is unique on its join columns,
                // else 1:n.
                let mut one_to_one = true;
                for other in &self.spec.inputs {
                    if other.alias != alias && !self.join_side_unique(db, &other.alias)? {
                        one_to_one = false;
                    }
                }
                Ok((
                    if one_to_one {
                        MigrationCategory::OneToOne
                    } else {
                        MigrationCategory::OneToMany
                    },
                    Tracking::Bitmap {
                        driving_alias: alias,
                        granule_rows: self.granule_rows,
                    },
                ))
            }
            JoinStrategy::TuplePairs => {
                if self.spec.inputs.len() != 2 {
                    return Err(Error::InvalidMigration(
                        "pairwise tracking requires exactly two inputs".into(),
                    ));
                }
                if self.spec.join_conds.is_empty() {
                    return Err(Error::InvalidMigration(
                        "pairwise tracking requires a join condition".into(),
                    ));
                }
                Ok((
                    MigrationCategory::ManyToMany,
                    Tracking::PairHash {
                        left_alias: self.spec.inputs[0].alias.clone(),
                        right_alias: self.spec.inputs[1].alias.clone(),
                    },
                ))
            }
            JoinStrategy::JoinKeyGroups => {
                // Key = the join columns of the first input that appear in
                // join conditions.
                let alias = &self.spec.inputs[0].alias;
                let key_cols = self.join_columns_of(alias);
                if key_cols.is_empty() {
                    return Err(Error::InvalidMigration(
                        "join-key tracking requires join conditions".into(),
                    ));
                }
                Ok((
                    MigrationCategory::ManyToMany,
                    Tracking::Hash {
                        key_alias: alias.clone(),
                        key_exprs: key_cols.into_iter().map(Expr::Col).collect(),
                    },
                ))
            }
        }
    }

    /// The join-condition columns belonging to `alias`.
    fn join_columns_of(&self, alias: &str) -> Vec<ColRef> {
        let mut cols = Vec::new();
        for (a, b) in &self.spec.join_conds {
            for c in [a, b] {
                if c.table.as_deref() == Some(alias) && !cols.contains(c) {
                    cols.push(c.clone());
                }
            }
        }
        cols
    }

    /// True when `alias`'s join columns contain a unique key of its table
    /// (i.e. each value matches at most one row — the "PK side").
    fn join_side_unique(&self, db: &Database, alias: &str) -> Result<bool> {
        let input = self
            .spec
            .input(alias)
            .ok_or_else(|| Error::InvalidMigration(format!("unknown alias {alias}")))?;
        let table = db.table(&input.table)?;
        let cols = self.join_columns_of(alias);
        if cols.is_empty() {
            return Ok(false);
        }
        let positions: Vec<usize> = cols
            .iter()
            .map(|c| table.schema().col_index(&c.column))
            .collect::<Result<_>>()?;
        Ok(table.indexes().iter().any(|idx| {
            idx.def().unique && idx.def().key_columns.iter().all(|k| positions.contains(k))
        }))
    }
}

/// A complete migration: several statements submitted as one unit.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Human-readable name (shows up in stats and logs).
    pub name: String,
    /// The statements.
    pub statements: Vec<MigrationStatement>,
    /// Non-backwards-compatible ("big flip", §2.1): the old schema becomes
    /// inactive and requests against its tables are rejected.
    pub big_flip: bool,
    /// §2.4: run a synchronous validation of the migration query (and its
    /// constraints) before going live, returning an error in advance
    /// instead of lazily discovering doomed records.
    pub validate_eagerly: bool,
    /// Whether the old input tables are frozen for writes while the
    /// migration runs. Big-flip plans retire them outright; backwards-
    /// compatible plans freeze them by default. Set to `false` only when
    /// the application co-maintains the outputs and its writes cannot
    /// change any not-yet-migrated granule's contents (the §4.2
    /// aggregation scenario: new orders create new groups, and existing
    /// groups' sums never change).
    pub freeze_inputs: bool,
}

impl MigrationPlan {
    /// A big-flip plan (the paper's default scenario).
    pub fn new(name: impl Into<String>) -> Self {
        MigrationPlan {
            name: name.into(),
            statements: Vec::new(),
            big_flip: true,
            validate_eagerly: false,
            freeze_inputs: true,
        }
    }

    /// Adds a statement (builder).
    pub fn with_statement(mut self, stmt: MigrationStatement) -> Self {
        self.statements.push(stmt);
        self
    }

    /// Marks the plan backwards-compatible (no big flip; old tables stay
    /// readable).
    pub fn backwards_compatible(mut self) -> Self {
        self.big_flip = false;
        self
    }

    /// Enables synchronous up-front validation (§2.4).
    pub fn with_eager_validation(mut self) -> Self {
        self.validate_eagerly = true;
        self
    }

    /// All old-schema table names this plan reads.
    pub fn input_tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .statements
            .iter()
            .flat_map(|s| s.spec.inputs.iter().map(|t| t.table.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All new-schema table names this plan creates.
    pub fn output_tables(&self) -> Vec<String> {
        self.statements
            .iter()
            .map(|s| s.output.name.clone())
            .collect()
    }

    /// Resolves every statement (validation + classification).
    pub fn resolve(&mut self, db: &Database) -> Result<()> {
        if self.statements.is_empty() {
            return Err(Error::InvalidMigration("plan has no statements".into()));
        }
        let mut outputs = std::collections::HashSet::new();
        for s in &mut self.statements {
            if !outputs.insert(s.output.name.clone()) {
                return Err(Error::InvalidMigration(format!(
                    "duplicate output table {}",
                    s.output.name
                )));
            }
            s.resolve(db)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{ColumnDef, DataType};
    use bullfrog_engine::{DbConfig, EngineMode};
    use bullfrog_query::AggFunc;

    /// Catalog with FK-PK shaped tables: orders(pk o_id) and lines(fk
    /// l_o_id, non-unique), plus tag tables for m:n.
    fn db(mode: EngineMode) -> Database {
        let db = Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("o_id", DataType::Int),
                    ColumnDef::new("o_c_id", DataType::Int),
                ],
            )
            .with_primary_key(&["o_id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "lines",
                vec![
                    ColumnDef::new("l_id", DataType::Int),
                    ColumnDef::new("l_o_id", DataType::Int),
                    ColumnDef::new("l_amount", DataType::Decimal),
                ],
            )
            .with_primary_key(&["l_id"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "stock",
            vec![
                ColumnDef::new("s_i_id", DataType::Int),
                ColumnDef::new("s_qty", DataType::Int),
            ],
        ))
        .unwrap();
        db
    }

    fn out_schema(name: &str, cols: &[(&str, DataType)]) -> TableSchema {
        TableSchema::new(
            name,
            cols.iter()
                .map(|(n, t)| ColumnDef::nullable(*n, *t))
                .collect(),
        )
    }

    #[test]
    fn single_input_classifies_one_to_one_bitmap() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .select("l_id", Expr::col("l", "l_id"));
            let mut s =
                MigrationStatement::new(out_schema("lines2", &[("l_id", DataType::Int)]), spec);
            s.resolve(&db).unwrap();
            assert_eq!(s.category(), MigrationCategory::OneToOne);
            assert!(matches!(
                s.tracking(),
                Tracking::Bitmap { driving_alias, granule_rows: 1 } if driving_alias == "l"
            ));
        }
    }

    #[test]
    fn aggregate_classifies_many_to_one_hash() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .select("o_id", Expr::col("l", "l_o_id"))
                .select_agg("total", AggFunc::Sum, Expr::col("l", "l_amount"));
            let mut s = MigrationStatement::new(
                out_schema(
                    "order_totals",
                    &[("o_id", DataType::Int), ("total", DataType::Decimal)],
                ),
                spec,
            );
            s.resolve(&db).unwrap();
            assert_eq!(s.category(), MigrationCategory::ManyToOne);
            match s.tracking() {
                Tracking::Hash {
                    key_alias,
                    key_exprs,
                } => {
                    assert_eq!(key_alias, "l");
                    assert_eq!(key_exprs.len(), 1);
                }
                other => panic!("expected hash tracking, got {other:?}"),
            }
        }
    }

    #[test]
    fn fk_pk_join_drives_fk_side() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .from_table("orders", "o")
                .join_on(ColRef::new("l", "l_o_id"), ColRef::new("o", "o_id"))
                .select("l_id", Expr::col("l", "l_id"))
                .select("o_c_id", Expr::col("o", "o_c_id"));
            let mut s = MigrationStatement::new(
                out_schema(
                    "lines_denorm",
                    &[("l_id", DataType::Int), ("o_c_id", DataType::Int)],
                ),
                spec,
            );
            s.resolve(&db).unwrap();
            // FK side (lines) drives; PK side unique ⇒ 1:1 for the tracked side.
            assert_eq!(s.category(), MigrationCategory::OneToOne);
            assert!(matches!(
                s.tracking(),
                Tracking::Bitmap { driving_alias, .. } if driving_alias == "l"
            ));
        }
    }

    #[test]
    fn pk_side_driving_is_one_to_many() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .from_table("orders", "o")
                .join_on(ColRef::new("l", "l_o_id"), ColRef::new("o", "o_id"))
                .select("l_id", Expr::col("l", "l_id"));
            let mut s = MigrationStatement::new(out_schema("x", &[("l_id", DataType::Int)]), spec)
                .with_join_strategy(JoinStrategy::DrivingSide { alias: "o".into() });
            s.resolve(&db).unwrap();
            // Driving the PK side: each order joins many lines ⇒ 1:n.
            assert_eq!(s.category(), MigrationCategory::OneToMany);
            assert!(matches!(
                s.tracking(),
                Tracking::Bitmap { driving_alias, .. } if driving_alias == "o"
            ));
        }
    }

    #[test]
    fn many_to_many_join_uses_join_key_hash() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            // lines ⋈ stock on a non-unique attribute on both sides.
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .from_table("stock", "s")
                .join_on(ColRef::new("l", "l_o_id"), ColRef::new("s", "s_i_id"))
                .select("l_id", Expr::col("l", "l_id"))
                .select("s_qty", Expr::col("s", "s_qty"));
            let mut s = MigrationStatement::new(
                out_schema("ls", &[("l_id", DataType::Int), ("s_qty", DataType::Int)]),
                spec,
            );
            s.resolve(&db).unwrap();
            assert_eq!(s.category(), MigrationCategory::ManyToMany);
            assert!(matches!(s.tracking(), Tracking::Hash { key_alias, .. } if key_alias == "l"));
        }
    }

    #[test]
    fn output_schema_mismatch_rejected() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("lines", "l")
                .select("l_id", Expr::col("l", "l_id"));
            let mut s =
                MigrationStatement::new(out_schema("bad", &[("wrong_name", DataType::Int)]), spec);
            assert!(matches!(s.resolve(&db), Err(Error::InvalidMigration(_))));
        }
    }

    #[test]
    fn unknown_input_table_rejected() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new()
                .from_table("nope", "n")
                .select("x", Expr::col("n", "x"));
            let mut s = MigrationStatement::new(out_schema("o", &[("x", DataType::Int)]), spec);
            assert!(matches!(s.resolve(&db), Err(Error::TableNotFound(_))));
        }
    }

    #[test]
    fn plan_collects_inputs_outputs() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let mut plan = MigrationPlan::new("split")
                .with_statement(MigrationStatement::new(
                    out_schema("a", &[("l_id", DataType::Int)]),
                    SelectSpec::new()
                        .from_table("lines", "l")
                        .select("l_id", Expr::col("l", "l_id")),
                ))
                .with_statement(MigrationStatement::new(
                    out_schema("b", &[("l_amount", DataType::Decimal)]),
                    SelectSpec::new()
                        .from_table("lines", "l")
                        .select("l_amount", Expr::col("l", "l_amount")),
                ));
            plan.resolve(&db).unwrap();
            assert_eq!(plan.input_tables(), vec!["lines"]);
            assert_eq!(plan.output_tables(), vec!["a", "b"]);
            assert!(plan.big_flip);
        }
    }

    #[test]
    fn duplicate_outputs_rejected() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let stmt = || {
                MigrationStatement::new(
                    out_schema("a", &[("l_id", DataType::Int)]),
                    SelectSpec::new()
                        .from_table("lines", "l")
                        .select("l_id", Expr::col("l", "l_id")),
                )
            };
            let mut plan = MigrationPlan::new("dup")
                .with_statement(stmt())
                .with_statement(stmt());
            assert!(matches!(plan.resolve(&db), Err(Error::InvalidMigration(_))));
        }
    }

    #[test]
    fn global_aggregate_gets_constant_key() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db(mode);
            assert_eq!(db.config().mode, mode);
            let spec = SelectSpec::new().from_table("lines", "l").select_agg(
                "total",
                AggFunc::Sum,
                Expr::col("l", "l_amount"),
            );
            let mut s = MigrationStatement::new(
                out_schema("grand_total", &[("total", DataType::Decimal)]),
                spec,
            );
            s.resolve(&db).unwrap();
            assert_eq!(s.category(), MigrationCategory::ManyToOne);
            match s.tracking() {
                Tracking::Hash { key_exprs, .. } => assert_eq!(key_exprs.len(), 1),
                other => panic!("{other:?}"),
            }
        }
    }
}
