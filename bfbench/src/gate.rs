//! The correctness gate: what must hold in the database after a run.
//! Any violation makes the run report `"correct": false` and exit
//! non-zero.

use std::path::Path;

use bullfrog_common::Value;
use bullfrog_engine::checkpoint::checkpoint_path_for;
use bullfrog_engine::recovery::recover_from_files;
use bullfrog_engine::Database;
use bullfrog_tpcc::{checks, Scenario};

use crate::pinned;
use crate::run::{accounts_schema, RunData};

pub type Check = (&'static str, Result<(), String>);

fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// TPC-C consistency conditions, plus exactly-once migration after a
/// flip: every input row migrated once, and the output tables hold what
/// the defining query says and nothing twice.
pub fn tpcc(db: &Database, scenario: Option<Scenario>, data: &RunData) -> Vec<Check> {
    let text = |r: bullfrog_common::Result<()>| r.map_err(|e| e.to_string());
    let mut out: Vec<Check> = vec![
        ("warehouse_ytd", text(checks::check_warehouse_ytd(db))),
        (
            "district_order_ids",
            text(checks::check_district_order_ids(db)),
        ),
        (
            "neworder_consistency",
            text(checks::check_neworder_consistency(db)),
        ),
    ];
    let Some(scenario) = scenario else {
        return out;
    };
    let live = |t: &str| db.table(t).map(|t| t.live_count() as u64).unwrap_or(0);
    let migrated = data.migration.map(|m| m.rows_migrated).unwrap_or(0);
    // A primary key's index holds one entry per distinct key.
    let distinct_keys = |t: &str| {
        db.table(t)
            .ok()
            .and_then(|t| t.index_for_columns(t.pk_indices()))
            .map(|i| i.key_count() as u64)
    };
    match scenario {
        Scenario::CustomerSplit => {
            out.push(("split_complete", text(checks::check_split_complete(db))));
            // Two statements, each emitting one row per customer.
            let expect = 2 * live("customer");
            out.push((
                "exactly_once",
                ensure(migrated == expect, || {
                    format!("rows_migrated={migrated}, the split's inputs produce {expect}")
                }),
            ));
            for t in ["customer_pub", "customer_priv"] {
                out.push((
                    "no_duplicate_output_keys",
                    ensure(distinct_keys(t) == Some(live(t)), || {
                        format!(
                            "{t}: {:?} distinct keys for {} rows",
                            distinct_keys(t),
                            live(t)
                        )
                    }),
                ));
            }
        }
        Scenario::JoinDenorm => {
            // order_line is frozen by the flip, so its size now is its
            // size then.
            let old_lines = live("order_line");
            out.push((
                "join_cardinality",
                text(checks::check_join_cardinality(db, old_lines as usize)),
            ));
            // Every item has one stock row per warehouse, so the join
            // emits `warehouses` rows per order line.
            let per_item = live("stock") / live("item").max(1);
            let expect = old_lines * per_item;
            out.push((
                "exactly_once",
                ensure(migrated == expect, || {
                    format!("rows_migrated={migrated}, the join's inputs produce {expect}")
                }),
            ));
            let rows = live("orderline_stock");
            out.push((
                "output_cardinality",
                ensure(rows == expect + data.denorm_rows, || {
                    format!(
                        "orderline_stock has {rows} rows: {expect} migrated + {} inserted expected",
                        data.denorm_rows
                    )
                }),
            ));
            out.push((
                "no_duplicate_output_keys",
                ensure(distinct_keys("orderline_stock") == Some(rows), || {
                    format!(
                        "orderline_stock: {:?} distinct keys for {rows} rows",
                        distinct_keys("orderline_stock")
                    )
                }),
            ));
        }
        Scenario::OrderTotals => {}
    }
    out
}

/// After `transfer_durable` the server is stopped and the WAL and
/// checkpoint files are recovered into a fresh database: every account
/// must hold its opening balance plus what the clients were told had
/// committed, and money must be conserved. The process stop leaves the
/// operating system's cache intact, so this checks the log's content,
/// not its survival of a power loss.
pub fn transfer_recovery(wal_path: &Path, ledger: &[i64]) -> Vec<Check> {
    let recovered = Database::with_config(pinned::db_config());
    let replay = recovered
        .create_table(accounts_schema())
        .and_then(|_| recover_from_files(&recovered, wal_path, checkpoint_path_for(wal_path)))
        .map_err(|e| e.to_string());
    let mut out: Vec<Check> = vec![("recover_from_files", replay.map(|_| ()))];
    let Ok(rows) = recovered.select_unlocked("accounts", None) else {
        out.push(("accounts_readable", Err("accounts table missing".into())));
        return out;
    };
    let mut total = 0i64;
    let mut wrong = Vec::new();
    for (_, row) in &rows {
        let (Value::Int(id), Value::Int(balance)) = (&row[0], &row[1]) else {
            wrong.push(format!("malformed row {row:?}"));
            continue;
        };
        total += balance;
        let expect = pinned::OPENING_BALANCE + ledger.get(*id as usize).copied().unwrap_or(0);
        if *balance != expect {
            wrong.push(format!(
                "account {id}: recovered {balance}, acknowledged {expect}"
            ));
        }
    }
    out.push((
        "every_acked_transfer_recovered",
        ensure(
            wrong.is_empty() && rows.len() as i64 == pinned::ACCOUNTS,
            || {
                format!(
                    "{} rows; first mismatches: {:?}",
                    rows.len(),
                    &wrong[..wrong.len().min(3)]
                )
            },
        ),
    ));
    let expect_total = pinned::ACCOUNTS * pinned::OPENING_BALANCE + ledger.iter().sum::<i64>();
    out.push((
        "balance_conserved",
        ensure(
            total == expect_total && expect_total == pinned::ACCOUNTS * pinned::OPENING_BALANCE,
            || format!("total {total}, expected {expect_total}"),
        ),
    ));
    out
}
