//! Every value the benchmark fixes. Nothing here is read from the
//! environment or calibrated at run time; each value is echoed in the
//! run's record so a ledger entry says what it measured.

use std::time::Duration;

use bullfrog_core::{BackgroundConfig, BullfrogConfig, DedupMode};
use bullfrog_engine::{DbConfig, EngineMode};
use bullfrog_net::ServerConfig;
use bullfrog_tpcc::TpccScale;

use crate::json::Json;

/// Client threads, one BFNET1 connection each, in a closed loop: two
/// keep both of the host's cores busy.
pub const CLIENTS: usize = 2;

/// A transaction is given up after this many retries.
pub const MAX_RETRIES: u8 = 10;

/// Rows of `transfer_durable`'s `accounts` table, and each one's opening
/// balance.
pub const ACCOUNTS: i64 = 10_000;
pub const OPENING_BALANCE: i64 = 1_000;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUPS: usize = 5;

/// How long after the window the run waits for a migration that is
/// still going before it gives up on the flip metrics.
pub const MIGRATION_GRACE: Duration = Duration::from_secs(60);

/// TPC-C population shared by the three TPC-C workloads, sized so both
/// flips finish inside the measured window on this commit.
pub fn scale() -> TpccScale {
    TpccScale {
        warehouses: 4,
        districts_per_warehouse: 10,
        customers_per_district: 3_000,
        items: 10_000,
        orders_per_district: 300,
        seed: 0xBE11F406,
    }
}

/// The run's phases, as fixed shares of `--seconds` so a short smoke run
/// keeps the same shape. At the `run_seconds` of `BENCHMARK.json` (25)
/// they are 2.5 s warm-up, flip at 3.75 s, background start 2 s after
/// the flip, post phase from 1 s after completion, checkpoint every 5 s.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warm: Duration,
    pub measure: Duration,
    pub submit_at: Duration,
    pub background_delay: Duration,
    pub post_gap: Duration,
    pub checkpoint_every: Duration,
    pub bucket: Duration,
}

pub fn phases(seconds: f64) -> Phases {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    Phases {
        warm: share(0.10),
        measure: share(1.0),
        submit_at: share(0.15),
        background_delay: share(0.08),
        post_gap: share(0.04),
        checkpoint_every: share(0.20),
        bucket: share(0.04),
    }
}

pub fn db_config() -> DbConfig {
    DbConfig {
        lock_timeout: Duration::from_millis(50),
        enforce_fk_on_delete: false,
        checkpoint_policy: None,
        // Pinned in code: BULLFROG_ENGINE_MODE must not change a ledger.
        mode: EngineMode::TwoPL,
        ..DbConfig::default()
    }
}

pub fn bullfrog_config(p: &Phases) -> BullfrogConfig {
    BullfrogConfig {
        dedup: DedupMode::Tracker,
        background: BackgroundConfig {
            enabled: true,
            start_delay: p.background_delay,
            batch: 256,
            pause: Duration::from_millis(1),
            threads: 1,
        },
        wait_timeout: Duration::from_millis(10),
        failpoint: None,
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_connections: 16,
        resident_workers: 4,
        ..ServerConfig::default()
    }
}

/// The pinned values as they go into the run's record.
pub fn echo(seconds: f64) -> Json {
    let p = phases(seconds);
    let s = scale();
    let db = db_config();
    let bf = bullfrog_config(&p);
    let srv = server_config();
    let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
    Json::obj([
        ("clients", Json::Num(CLIENTS as f64)),
        ("max_retries", Json::Num(f64::from(MAX_RETRIES))),
        ("setups_per_run", Json::Num(SETUPS as f64)),
        (
            "tpcc_scale",
            Json::obj([
                ("warehouses", Json::Num(s.warehouses as f64)),
                ("districts", Json::Num(s.districts_per_warehouse as f64)),
                (
                    "customers_per_district",
                    Json::Num(s.customers_per_district as f64),
                ),
                ("items", Json::Num(s.items as f64)),
                (
                    "orders_per_district",
                    Json::Num(s.orders_per_district as f64),
                ),
            ]),
        ),
        ("accounts", Json::Num(ACCOUNTS as f64)),
        (
            "phases_ms",
            Json::obj([
                ("warm", ms(p.warm)),
                ("measure", ms(p.measure)),
                ("submit_at", ms(p.submit_at)),
                ("post_gap", ms(p.post_gap)),
                ("checkpoint_every", ms(p.checkpoint_every)),
                ("bucket", ms(p.bucket)),
            ]),
        ),
        ("engine_mode", Json::Str(db.mode.as_str().into())),
        ("lock_timeout_ms", ms(db.lock_timeout)),
        ("tracker_dedup", Json::Str(format!("{:?}", bf.dedup))),
        (
            "background",
            Json::obj([
                ("threads", Json::Num(bf.background.threads as f64)),
                ("batch", Json::Num(bf.background.batch as f64)),
                ("pause_ms", ms(bf.background.pause)),
                ("start_delay_ms", ms(bf.background.start_delay)),
            ]),
        ),
        ("migration_wait_timeout_ms", ms(bf.wait_timeout)),
        (
            "server_max_connections",
            Json::Num(srv.max_connections as f64),
        ),
        (
            "server_resident_workers",
            Json::Num(srv.resident_workers as f64),
        ),
        ("statement_timeout_ms", ms(srv.statement_timeout)),
        (
            "wal",
            Json::Str(
                "in memory; transfer_durable: file, WalOptions::default(), sync COMMIT".into(),
            ),
        ),
    ])
}
