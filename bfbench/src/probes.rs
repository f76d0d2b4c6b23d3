//! Probes: after a traced run, single public functions of each layer
//! are replayed against the run's own loaded database with keys drawn
//! from the run's seed. A probe times batches of [`BATCH`] calls and
//! reports the median batch's time per call, so clock reads stay out of
//! the measurement.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Row, RowId, TxnId, Value};
use bullfrog_core::granule::WorkList;
use bullfrog_core::{
    BackgroundConfig, BitmapTracker, Bullfrog, BullfrogConfig, ClientAccess, Granule, HashTracker,
    Tracker,
};
use bullfrog_engine::db::table_scope;
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_net::wire::{Request, Response};
use bullfrog_net::{Session, SessionCounters};
use bullfrog_query::{transpose, Expr};
use bullfrog_sql::{parse_statement, parse_template};
use bullfrog_tpcc::{Scenario, TpccRng, TpccScale};
use bullfrog_txn::{LockKey, LockMode};

use crate::pinned;
use crate::tpcc_wire::Stmt;

pub const BATCH: usize = 100;
const BATCHES: usize = 100;

/// A probe's result: microseconds per call and the calls made.
pub struct Probed {
    pub name: &'static str,
    pub us: f64,
    pub calls: u64,
}

/// Times `batches` batches; `batch(b)` makes `per_batch` calls and
/// returns how long they took.
fn probe_sized(
    name: &'static str,
    batches: usize,
    per_batch: usize,
    mut batch: impl FnMut(usize) -> Duration,
) -> Probed {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|b| batch(b).as_secs_f64() * 1e6 / per_batch as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    Probed {
        name,
        us: per_call.get(per_call.len() / 2).copied().unwrap_or(0.0),
        calls: (batches * per_batch) as u64,
    }
}

/// [`probe_sized`] with batches of [`BATCH`] calls (the `b`-th hundred of
/// the key sample).
fn probe(name: &'static str, batches: usize, batch: impl FnMut(usize) -> Duration) -> Probed {
    probe_sized(name, batches, BATCH, batch)
}

/// Times [`BATCH`] calls of `f`, the `b`-th hundred of `keys` (cycled).
fn timed<K>(keys: &[K], b: usize, mut f: impl FnMut(&K)) -> Duration {
    let started = Instant::now();
    for i in 0..BATCH {
        f(&keys[(b * BATCH + i) % keys.len()]);
    }
    started.elapsed()
}

fn codec(out: &mut Vec<Probed>, sample_row: &Row) {
    let small = Request::Execute {
        id: 7,
        params: Row(vec![Value::Int(3), Value::Int(9), Value::Int(1201)]),
    };
    let ok = Response::Ok { affected: 1 };
    out.push(probe("net.codec_small_us", BATCHES, |_| {
        timed(&[()], 0, |_| {
            let req = Request::decode(black_box(&small).encode()).expect("own encoding");
            let resp = Response::decode(black_box(&ok).encode()).expect("own encoding");
            black_box((req, resp));
        })
    }));
    let rows200 = Response::Rows {
        names: (0..sample_row.arity()).map(|i| format!("c{i}")).collect(),
        rows: vec![sample_row.clone(); 200],
    };
    out.push(probe("net.codec_rows200_us", BATCHES, |_| {
        timed(&[()], 0, |_| {
            black_box(Response::decode(black_box(&rows200).encode()).expect("own encoding"));
        })
    }));
}

fn lock_probe(out: &mut Vec<Probed>, db: &Database, table: &str, rids: &[RowId]) {
    let lm = db.lock_manager();
    let tid = db.table(table).expect("probed table exists").id();
    // An id no live transaction has: the probe must stay uncontended.
    let txn = TxnId(u64::MAX - 1);
    out.push(probe("txn.lock_us", BATCHES, |b| {
        timed(rids, b, |rid| {
            let key = LockKey::Row(tid, *rid);
            lm.acquire(txn, key, LockMode::X).expect("uncontended lock");
            lm.release_all(txn, [key]);
        })
    }));
}

/// `parse_statement` of `literal_sql`; `PreparedTemplate::bind` of
/// `template_sql` with `params`.
fn sql_probes(out: &mut Vec<Probed>, literal_sql: &str, template_sql: &str, params: &[Value]) {
    out.push(probe("sql.parse_us", BATCHES, |_| {
        timed(&[()], 0, |_| {
            black_box(parse_statement(black_box(literal_sql)).expect("probe SQL parses"));
        })
    }));
    let template = parse_template(template_sql).expect("probe template parses");
    out.push(probe("sql.bind_us", BATCHES, |_| {
        timed(&[()], 0, |_| {
            black_box(
                template
                    .bind(black_box(params))
                    .expect("probe template binds"),
            );
        })
    }));
}

/// `Session::execute_prepared` of a primary-key `SELECT`, no socket.
fn session_probe(out: &mut Vec<Probed>, bf: &Arc<Bullfrog>, sql: &str, keys: &[Vec<Value>]) {
    let mut session = Session::new(
        Arc::clone(bf),
        Arc::new(SessionCounters::default()),
        pinned::server_config().statement_timeout,
    );
    session.prepare(1, sql);
    out.push(probe("net.session_stmt_us", BATCHES, |b| {
        timed(keys, b, |key| {
            black_box(session.execute_prepared(1, &Row(key.clone())));
        })
    }));
}

/// Engine and storage probes on one table by primary key: point read,
/// read-then-update, heap get and key lookup.
fn keyed_probes(
    out: &mut Vec<Probed>,
    db: &Database,
    table: &str,
    keys: &[Vec<Value>],
    bump_col: usize,
) {
    let t = db.table(table).expect("probed table exists");
    out.push(probe("engine.point_read_us", BATCHES, |b| {
        let mut txn = db.begin();
        let d = timed(keys, b, |key| {
            black_box(
                db.get_by_pk(&mut txn, table, key, LockPolicy::Shared)
                    .expect("read"),
            );
        });
        db.abort(&mut txn);
        d
    }));
    out.push(probe("engine.update_us", BATCHES, |b| {
        let mut txn = db.begin();
        let d = timed(keys, b, |key| {
            let (rid, mut row) = db
                .get_by_pk(&mut txn, table, key, LockPolicy::Exclusive)
                .expect("read")
                .expect("sampled key exists");
            let bumped = row[bump_col].add(&Value::Int(1)).expect("numeric column");
            row.set(bump_col, bumped);
            db.update(&mut txn, table, rid, row).expect("update");
        });
        db.abort(&mut txn); // the probe leaves the table as it found it
        d
    }));
    let rids: Vec<RowId> = keys
        .iter()
        .map(|k| t.get_by_pk(k).expect("sampled key exists").0)
        .collect();
    out.push(probe("storage.heap_get_us", BATCHES, |b| {
        timed(&rids, b, |rid| {
            black_box(t.heap().get(*rid));
        })
    }));
    out.push(probe("storage.pk_lookup_us", BATCHES, |b| {
        timed(keys, b, |key| {
            black_box(t.get_by_pk(key));
        })
    }));
    lock_probe(out, db, table, &rids);
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn pk_pred(cols: &[&str], key: &[Value]) -> Expr {
    cols.iter()
        .zip(key)
        .map(|(c, v)| Expr::column(*c).eq(Expr::Lit(v.clone())))
        .reduce(Expr::and)
        .expect("at least one key column")
}

/// Probes for the three TPC-C workloads, on the database the run used.
pub fn tpcc(bf: &Arc<Bullfrog>, scale: &TpccScale, seed: u64) -> Vec<Probed> {
    let db = bf.db();
    let mut rng = TpccRng::new(seed ^ 0x9e37_79b9);
    let n = BATCH * BATCHES;
    let mut out = Vec::new();

    // The keys the workload itself draws: NURand items and customers.
    let stock_keys: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                int(rng.uniform(1, scale.warehouses)),
                int(rng.item_id(scale.items)),
            ]
        })
        .collect();
    let item_keys: Vec<Vec<Value>> = stock_keys.iter().map(|k| vec![k[1].clone()]).collect();
    let cust_keys: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                int(rng.uniform(1, scale.warehouses)),
                int(rng.uniform(1, scale.districts_per_warehouse)),
                int(rng.customer_id(scale.customers_per_district)),
            ]
        })
        .collect();
    let last_keys: Vec<Vec<Value>> = cust_keys
        .iter()
        .map(|k| {
            let bound = (scale.customers_per_district / 3 - 1).clamp(0, 999);
            let name = TpccRng::last_name_for(rng.nurand(255, 0, bound));
            vec![k[0].clone(), k[1].clone(), Value::text(name)]
        })
        .collect();

    let customer = db.table("customer").expect("customer table");
    let (_, sample_customer) = customer.get_by_pk(&cust_keys[0]).expect("sampled customer");
    codec(&mut out, &sample_customer);
    // `item` is in no migration, so the session probe is the same
    // statement before and after either flip.
    session_probe(&mut out, bf, Stmt::IGet.sql(), &item_keys);
    sql_probes(
        &mut out,
        "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = 3 AND d_id = 7",
        Stmt::CPay.sql(),
        &[int(1234), int(1234), int(3), int(7), int(1201)],
    );

    let scope = table_scope(&customer);
    let cust_cols = ["c_w_id", "c_d_id", "c_id"];
    let preds: Vec<Expr> = cust_keys.iter().map(|k| pk_pred(&cust_cols, k)).collect();
    out.push(probe("query.eval_us", BATCHES, |b| {
        timed(&preds, b, |p| {
            black_box(
                p.matches(&scope, black_box(&sample_customer))
                    .expect("eval"),
            );
        })
    }));
    let pub_spec = Scenario::CustomerSplit.plan().statements[0].spec.clone();
    out.push(probe("query.transpose_us", BATCHES, |b| {
        timed(&preds, b, |p| {
            black_box(transpose(&pub_spec, Some(p)));
        })
    }));

    // After the join flip `stock` is frozen but still there; the engine
    // functions are called below the migration controller.
    keyed_probes(&mut out, db, "stock", &stock_keys, 4);
    let last_cols = ["c_w_id", "c_d_id", "c_last"];
    let last_preds: Vec<Expr> = last_keys.iter().map(|k| pk_pred(&last_cols, k)).collect();
    out.push(probe("engine.select_idx_us", BATCHES, |b| {
        let mut txn = db.begin();
        let d = timed(&last_preds, b, |p| {
            black_box(
                db.select(&mut txn, "customer", Some(p), LockPolicy::Shared)
                    .expect("select"),
            );
        });
        db.abort(&mut txn);
        d
    }));
    out.push(probe("engine.insert_us", BATCHES, |b| {
        let mut txn = db.begin();
        let d = timed(&cust_keys, b, |k| {
            let row = Row(vec![
                k[2].clone(),
                k[1].clone(),
                k[0].clone(),
                k[1].clone(),
                k[0].clone(),
                Value::Timestamp(0),
                Value::Decimal(100),
                Value::text("payment"),
            ]);
            db.insert(&mut txn, "history", row).expect("insert");
        });
        db.abort(&mut txn);
        d
    }));
    let last_idx = customer
        .index("customer_last_idx")
        .expect("last-name index");
    out.push(probe("storage.index_range_us", BATCHES, |b| {
        timed(&last_keys, b, |k| {
            black_box(last_idx.get(k));
        })
    }));
    out
}

/// Probes for `transfer_durable`, on its `accounts` table.
pub fn transfer(bf: &Arc<Bullfrog>, seed: u64) -> Vec<Probed> {
    use rand::{Rng, SeedableRng};
    let db = bf.db();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let keys: Vec<Vec<Value>> = (0..BATCH * BATCHES)
        .map(|_| vec![int(rng.gen_range(0..pinned::ACCOUNTS))])
        .collect();
    let mut out = Vec::new();
    codec(&mut out, &Row(vec![int(17), int(pinned::OPENING_BALANCE)]));
    session_probe(
        &mut out,
        bf,
        "SELECT balance FROM accounts WHERE id = ?",
        &keys,
    );
    sql_probes(
        &mut out,
        "UPDATE accounts SET balance = balance + 5 WHERE id = 17",
        "UPDATE accounts SET balance = balance + ? WHERE id = ?",
        &[int(5), int(17)],
    );
    let accounts = db.table("accounts").expect("accounts table");
    let scope = table_scope(&accounts);
    let sample = Row(vec![int(17), int(pinned::OPENING_BALANCE)]);
    let preds: Vec<Expr> = keys.iter().map(|k| pk_pred(&["id"], k)).collect();
    out.push(probe("query.eval_us", BATCHES, |b| {
        timed(&preds, b, |p| {
            black_box(p.matches(&scope, black_box(&sample)).expect("eval"));
        })
    }));
    keyed_probes(&mut out, db, "accounts", &keys, 1);
    out
}

/// Tracker claims, and `Bullfrog::ensure_migrated` on a key not yet
/// migrated (cold) and already migrated (warm). The flip of the run is
/// over by now, so this loads a second database at the run's scale,
/// submits the same plan with background migration off, and walks
/// distinct keys of it.
pub fn core(scenario: Scenario, scale: &TpccScale, seed: u64) -> Result<Vec<Probed>, String> {
    let mut out = Vec::new();
    let n = BATCH * BATCHES;
    let bitmap = BitmapTracker::new(n as u64, 1);
    let ordinals: Vec<Granule> = (0..n as u64).map(Granule::Ordinal).collect();
    let claim = |tracker: &dyn Tracker, granules: &[Granule], b: usize| {
        let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
        timed(granules, b, |g| {
            black_box(tracker.try_claim(g, &mut wip, &mut skip));
        })
    };
    let mut bitmap_claim = probe("core.bitmap_claim_ns", BATCHES, |b| {
        claim(&bitmap, &ordinals, b)
    });
    bitmap_claim.us *= 1e3; // reported in nanoseconds
    out.push(bitmap_claim);
    let hash = HashTracker::new();
    let groups: Vec<Granule> = (0..n as i64)
        .map(|i| Granule::Group(vec![int(i)]))
        .collect();
    let mut hash_claim = probe("core.hash_claim_ns", BATCHES, |b| claim(&hash, &groups, b));
    hash_claim.us *= 1e3;
    out.push(hash_claim);

    let db = Arc::new(Database::with_config(pinned::db_config()));
    bullfrog_tpcc::load(&db, scale).map_err(|e| e.to_string())?;
    let config = BullfrogConfig {
        background: BackgroundConfig {
            enabled: false,
            ..BackgroundConfig::default()
        },
        ..pinned::bullfrog_config(&pinned::phases(1.0))
    };
    let bf = Bullfrog::with_config(Arc::clone(&db), config);
    bf.submit_migration(scenario.plan())
        .map_err(|e| e.to_string())?;
    scenario
        .create_output_indexes(&db)
        .map_err(|e| e.to_string())?;

    // Distinct keys in a seeded order: customers for the split (what
    // Payment touches), items for the join (what NewOrder touches).
    let mut rng = TpccRng::new(seed ^ 0x0051_ed27);
    let (table, mut preds): (&str, Vec<Expr>) = match scenario {
        Scenario::JoinDenorm => (
            "orderline_stock",
            (1..=scale.items)
                .map(|i| {
                    Expr::column("ol_i_id")
                        .eq(Expr::lit(i))
                        .and(Expr::column("s_w_id").eq(Expr::lit(1 + i % scale.warehouses)))
                })
                .collect(),
        ),
        _ => (
            "customer_priv",
            (0..scale.total_customers())
                .map(|i| {
                    let per_w = scale.districts_per_warehouse * scale.customers_per_district;
                    let key = [
                        int(1 + i / per_w),
                        int(1 + (i % per_w) / scale.customers_per_district),
                        int(1 + i % scale.customers_per_district),
                    ];
                    pk_pred(&["c_w_id", "c_d_id", "c_id"], &key)
                })
                .collect(),
        ),
    };
    for i in (1..preds.len()).rev() {
        preds.swap(i, rng.uniform(0, i as i64) as usize);
    }
    preds.truncate(n);
    if preds.is_empty() {
        return Err("no keys to walk".into());
    }
    // Each key once per pass: the first pass is cold, the second warm. A
    // smoke-test scale has fewer keys than one full batch.
    let per_batch = BATCH.min(preds.len());
    let batches = preds.len() / per_batch;
    let ensure = |name| {
        probe_sized(name, batches, per_batch, |b| {
            let started = Instant::now();
            for p in &preds[b * per_batch..(b + 1) * per_batch] {
                bf.ensure_migrated(table, Some(p)).expect("lazy migration");
            }
            started.elapsed()
        })
    };
    out.push(ensure("core.ensure_cold_us"));
    out.push(ensure("core.ensure_warm_us"));
    Ok(out)
}
