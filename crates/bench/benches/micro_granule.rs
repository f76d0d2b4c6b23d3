//! Criterion microbench of one granule copy, so `migrate.granule_us` can
//! be reproduced without `bfbench`: one TPC-C join group (every
//! `order_line ⋈ stock` row of one item, `tpcc_join_flip`'s granule) and
//! one customer-split granule (`tpcc_split_flip`'s), each migrated by its
//! own `migrate_candidates` call at `TpccScale::bench()`. Every iteration
//! copies a granule not copied before; the run ends with the
//! `migrate.granule_us` quantiles the copies recorded.
//!
//! `cargo bench -p bullfrog-bench --bench micro_granule`

use std::sync::Arc;

use bullfrog_core::{
    candidates_for, migrate_candidates, BackgroundConfig, Bullfrog, BullfrogConfig, MigrateOptions,
};
use bullfrog_engine::Database;
use bullfrog_tpcc::{load, Scenario, TpccScale};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// A loaded database with `scenario` submitted and no background workers.
fn submitted(scenario: Scenario) -> (Arc<Database>, Bullfrog) {
    let db = Arc::new(Database::new());
    load(&db, &TpccScale::bench()).expect("load TPC-C");
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
    bf.submit_migration(scenario.plan()).expect("submit");
    scenario.create_output_indexes(&db).expect("output indexes");
    (db, bf)
}

/// Benchmarks copying one granule at a time of `output`'s statement, in
/// `samples` samples: every iteration consumes a granule, so the sample
/// count is sized to the statement's granules and their cost.
fn bench_granules(id: &str, scenario: Scenario, output: &str, samples: usize) {
    let mut c = Criterion::default().sample_size(samples);
    let (db, bf) = submitted(scenario);
    let active = bf.active().expect("migration active");
    let rt = Arc::clone(active.runtime_for(output).expect("statement"));
    let mut granules = candidates_for(&db, &rt, None)
        .expect("candidates")
        .into_iter();
    let opts = MigrateOptions::default();
    c.bench_function(id, |b| {
        b.iter_batched(
            || granules.next().expect("more granules than iterations"),
            |g| migrate_candidates(&db, &rt, vec![g], &opts).expect("migrate"),
            BatchSize::PerIteration,
        )
    });
    let snap = db.obs().snapshot();
    let h = snap
        .histogram("migrate.granule_us")
        .expect("granules recorded");
    println!(
        "{id:<40} migrate.granule_us: p50 {} µs, p99 {} µs over {} granules",
        h.quantile(0.50),
        h.quantile(0.99),
        h.count()
    );
}

fn join_group(_: &mut Criterion) {
    // ~1,000 groups of a few hundred µs: one or two per sample.
    bench_granules(
        "granule/join_group",
        Scenario::JoinDenorm,
        "orderline_stock",
        60,
    );
}

fn split_granule(_: &mut Criterion) {
    // 6,000 granules of a few µs: hundreds per sample.
    bench_granules("granule/split", Scenario::CustomerSplit, "customer_pub", 4);
}

criterion_group!(benches, join_group, split_granule);
criterion_main!(benches);
