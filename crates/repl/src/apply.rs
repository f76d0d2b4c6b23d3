//! Shared state-rebuild helpers: applying journaled DDL and mirroring
//! migration granules into trackers.
//!
//! Used by both the live replica (streamed frames) and primary restart
//! ([`crate::restore()`]) — the two paths must produce identical state
//! from identical inputs, so they share the code that does it. Rows come
//! from the engine's own appliers,
//! [`CheckpointImage::apply_to`](bullfrog_engine::CheckpointImage::apply_to)
//! and [`apply_frame`](bullfrog_engine::recovery::apply_frame).

use std::sync::Arc;

use bullfrog_common::{Error, Result};
use bullfrog_core::{Bullfrog, ClientAccess, MigrationStats, SubmitOptions};
use bullfrog_engine::Database;
use bullfrog_net::{build_migration_plan, DdlEvent};
use bullfrog_sql::{parse_statement, Statement};
use bullfrog_txn::wal::GranuleKey;

/// Re-executes one journaled DDL event against a mirror's catalog,
/// through the same code paths the primary's session used.
///
/// Mirrors differ from the primary in two ways: migrations run with
/// background sweeps off and validation skipped (granule state arrives
/// via the log, and the local heap may lag the submit point), and
/// `FINALIZE` skips the completeness gate — the primary already proved
/// completeness before its finalize succeeded and was journaled.
pub fn apply_ddl_event(bf: &Arc<Bullfrog>, event: &DdlEvent) -> Result<()> {
    match event {
        DdlEvent::Create { sql } => match parse_statement(sql)? {
            Statement::CreateTable(schema) => {
                bf.db().create_table(schema)?;
                Ok(())
            }
            other => Err(Error::Eval(format!(
                "journaled Create event holds non-CREATE statement {other:?}"
            ))),
        },
        DdlEvent::Migrate { sql, caps } => match parse_statement(sql)? {
            Statement::CreateTableAs {
                name,
                select,
                primary_key,
            } => {
                let plan = build_migration_plan(bf, name, &select, primary_key)?;
                bf.submit_migration_with(
                    plan,
                    SubmitOptions {
                        background: Some(false),
                        tracker_caps: Some(caps.clone()),
                        skip_validation: true,
                    },
                )?;
                Ok(())
            }
            other => Err(Error::Eval(format!(
                "journaled Migrate event holds non-migration statement {other:?}"
            ))),
        },
        DdlEvent::Finalize { sql } => match parse_statement(sql)? {
            Statement::FinalizeMigration { drop_old } => bf.finalize_migration_force(drop_old),
            other => Err(Error::Eval(format!(
                "journaled Finalize event holds non-FINALIZE statement {other:?}"
            ))),
        },
    }
}

/// Marks committed migration granules in the active migration's
/// trackers (the replica-side half of paper §3.5's tracker rebuild) and
/// mirrors the `granules_migrated` counter. Returns granules newly
/// marked.
pub fn mark_granules(bf: &Bullfrog, granules: &[(u32, GranuleKey)]) -> usize {
    if granules.is_empty() {
        return 0;
    }
    let Some(active) = bf.active() else {
        // Granule records always precede their migration's FINALIZE in
        // the log/journal order, so an active migration should exist;
        // tolerate its absence (the marks are then moot anyway).
        return 0;
    };
    let n = bullfrog_core::recovery::rebuild_trackers(&active.runtimes, granules);
    MigrationStats::add(&active.stats.granules_migrated, n as u64);
    n
}

/// Deletes every live row of every table — the first half of a replica
/// re-bootstrap (the snapshot image then repopulates from scratch).
pub fn clear_all_rows(db: &Database) -> Result<usize> {
    let mut removed = 0;
    for name in db.catalog().table_names() {
        let t = db.catalog().get(&name)?;
        for (rid, _) in t.heap().all_rows() {
            t.delete(rid)?;
            removed += 1;
        }
    }
    Ok(removed)
}
