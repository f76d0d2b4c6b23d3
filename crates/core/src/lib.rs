//! BullFrog: online schema evolution via lazy evaluation.
//!
//! Reproduction of the SIGMOD 2021 paper's contribution. When a schema
//! migration is submitted, the database **logically** switches to the new
//! schema immediately; tuples are **physically** migrated lazily, as client
//! requests touch them, with background threads guaranteeing eventual
//! completion. Custom concurrency-control structures make the migration
//! **exactly-once** under contention:
//!
//! - [`bitmap::BitmapTracker`] — two bits per migration granule
//!   (`[lock, migrate]`), partitioned latches; Algorithm 2 of the paper.
//!   Used for 1:1 and 1:n migrations.
//! - [`hashmap::HashTracker`] — partitioned hash map from group key to
//!   `InProgress`/`Migrated`/`Aborted`; Algorithm 3. Used for n:1 and n:n
//!   migrations.
//! - [`migrate`] — the per-transaction migration loop (Algorithm 1): WIP
//!   and SKIP lists, separate migration transactions, abort reset, and the
//!   skip-recheck loop.
//! - [`plan`] — migration plans: output schemas, defining
//!   [`SelectSpec`](bullfrog_query::SelectSpec)s, and automatic
//!   classification into the four migration categories of §3.1 (including
//!   the FK-PK join options of §3.6).
//! - [`controller::Bullfrog`] — the client-facing façade: logical flip,
//!   predicate transposition per request, constraint-aware scope widening,
//!   rejection of retired-schema access.
//! - [`background`] — background migration threads (§2.2).
//! - [`baselines`] — the eager and multi-step migration baselines the
//!   paper evaluates against, behind the same [`access::ClientAccess`]
//!   interface.
//! - [`recovery`] — rebuilding tracker state from the WAL after a crash
//!   (§3.5; described there as future work, implemented here).

pub mod access;
pub mod background;
pub mod baselines;
pub mod bitmap;
pub mod controller;
pub mod granule;
pub mod hashmap;
pub mod migrate;
pub mod plan;
pub mod recovery;
pub mod stats;

pub use access::{ClientAccess, Passthrough, SchemaVersion};
pub use background::BackgroundConfig;
pub use baselines::{EagerMigrator, MultiStepMigrator};
pub use bitmap::BitmapTracker;
pub use controller::{
    ActiveMigration, Bullfrog, BullfrogConfig, MigrationProgress, SubmitOptions, TrackerCaps,
};
pub use granule::{Granule, GranuleState, Tracker};
pub use hashmap::HashTracker;
pub use migrate::{
    candidates_for, migrate_candidates, DedupMode, MigrateOptions, StatementRuntime,
};
pub use plan::{JoinStrategy, MigrationCategory, MigrationPlan, MigrationStatement, Tracking};
pub use stats::{MigrationStats, MigrationStatsSnapshot};
