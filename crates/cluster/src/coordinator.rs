//! The cluster flip coordinator.
//!
//! [`Coordinator`] is the admin side of bullfrog-cluster: it holds one
//! BFNET1 connection per node (each marked as a coordinator connection
//! by the first mutating `CLUSTER` sub-op, so its statements bypass
//! shard-ownership and flip-window enforcement) and drives:
//!
//! 1. **Map install** — [`Coordinator::connect`] adopts the map already
//!    installed on node 0 or builds a fresh one from the node list, then
//!    (re)installs it everywhere.
//! 2. **Two-phase flip** — [`Coordinator::migrate`] sends `PREPARE sql`
//!    to every node (staging the DDL and closing the `FLIP_PENDING`
//!    window over the migration's input and output tables), then
//!    `COMMIT` to every node (running the DDL so each partition starts
//!    migrating its local granules lazily). Any prepare failure aborts
//!    the nodes already prepared, so a half-prepared cluster never
//!    commits.
//! 3. **Exchange** — for n:1 migrations the group keys hash by the
//!    *output* primary key, so a node's locally-computed partial
//!    aggregates may belong on other nodes. Once every node's lazy
//!    migration drains ([`Coordinator::wait_all_complete`]),
//!    [`Coordinator::run_exchange`] ships each misplaced partial to its
//!    owner, folds it in ([`fold`]: SUM/COUNT add, MIN/MAX compare),
//!    deletes the source copy, and releases the exchange hold with
//!    `END_EXCHANGE`. The hold keeps clients off the output tables for
//!    the whole read-merge-delete, so the coordinator is single-threaded
//!    on them and the fold needs no cross-node transaction.
//!
//! The commit point of the whole migration is the last node's `COMMIT`:
//! before it, `ABORT` on every node restores the old schema everywhere;
//! after it, the flip is logically done cluster-wide and only physical
//! (lazy, exactly-once per node) work remains.

use std::time::{Duration, Instant};

use bullfrog_common::Value;
use bullfrog_net::{stat, Client, ClientError, ClientResult, ExchangeSpec, ShardMap};
use bullfrog_query::AggFunc;

/// How long [`Coordinator::wait_all_complete`] sleeps between polls.
const POLL: Duration = Duration::from_millis(10);

/// Admin driver holding one coordinator connection per node.
pub struct Coordinator {
    conns: Vec<Client>,
    map: ShardMap,
}

impl Coordinator {
    /// Connects to every node and (re)installs one shard map across the
    /// cluster: the map node 0 already serves if there is one, else a
    /// fresh version-1 map listing `nodes` in order. Re-installing on
    /// every node also marks each connection as a coordinator
    /// connection, which later statements (commit DDL, exchange
    /// read/merge/delete, finalize) rely on.
    pub fn connect(nodes: &[String]) -> ClientResult<Coordinator> {
        if nodes.is_empty() {
            return Err(ClientError::Protocol("empty node list".into()));
        }
        let mut conns = Vec::with_capacity(nodes.len());
        for node in nodes {
            conns.push(Client::connect(node.as_str())?);
        }
        let map = match conns[0].cluster_get_map() {
            Ok(map) => map,
            Err(ClientError::Server { .. }) => ShardMap::new(nodes.to_vec()),
            Err(e) => return Err(e),
        };
        if map.nodes.len() != conns.len() {
            return Err(ClientError::Protocol(format!(
                "installed shard map lists {} nodes but {} were given",
                map.nodes.len(),
                conns.len()
            )));
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.cluster_set_map(i as u32, &map)?;
        }
        Ok(Coordinator { conns, map })
    }

    /// The cluster's shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the coordinator drives no nodes (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The coordinator connection to node `i`.
    pub fn conn(&mut self, i: usize) -> &mut Client {
        &mut self.conns[i]
    }

    /// Runs one statement on every node (schema DDL like
    /// `CREATE TABLE`, which must exist identically on all partitions).
    /// Returns the summed affected counts.
    pub fn execute_all(&mut self, sql: &str) -> ClientResult<u64> {
        let mut total = 0;
        for conn in &mut self.conns {
            total += conn.execute(sql)?;
        }
        Ok(total)
    }

    /// Drives a two-phase cluster-wide schema flip of migration DDL
    /// (`CREATE TABLE ... AS SELECT ...`). On success every node has
    /// flipped and is lazily migrating its partition; the returned
    /// [`ExchangeSpec`]s (empty for 1:1 migrations) describe the
    /// cross-node aggregate exchange still owed — run
    /// [`Coordinator::wait_all_complete`] then
    /// [`Coordinator::run_exchange`].
    pub fn migrate(&mut self, sql: &str) -> ClientResult<Vec<ExchangeSpec>> {
        let mut specs = Vec::new();
        for i in 0..self.conns.len() {
            match self.conns[i].cluster_prepare(sql) {
                Ok(s) => {
                    if i == 0 {
                        specs = s;
                    }
                }
                Err(e) => {
                    // Roll the prepared prefix back so no node is left
                    // with its tables gated behind a flip that will
                    // never commit.
                    for conn in self.conns[..i].iter_mut() {
                        let _ = conn.cluster_abort();
                    }
                    return Err(e);
                }
            }
        }
        for i in 0..self.conns.len() {
            if let Err(e) = self.conns[i].cluster_commit() {
                // Before any commit succeeded the flip is still
                // abortable everywhere; once node 0 has committed the
                // flip is the cluster's logical state and a straggler
                // failure is surfaced to the operator instead.
                if i == 0 {
                    for conn in self.conns.iter_mut() {
                        let _ = conn.cluster_abort();
                    }
                }
                return Err(e);
            }
        }
        Ok(specs)
    }

    /// Polls every node's `STATUS` until each reports its local lazy
    /// migration drained (`migration.active == 0` or
    /// `migration.complete == 1`). Returns false on timeout.
    pub fn wait_all_complete(&mut self, timeout: Duration) -> ClientResult<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut done = true;
            for conn in &mut self.conns {
                let status = conn.status()?;
                let active = stat(&status, "migration.active").unwrap_or(0);
                let complete = stat(&status, "migration.complete").unwrap_or(0);
                if active != 0 && complete != 1 {
                    done = false;
                    break;
                }
            }
            if done {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(POLL);
        }
    }

    /// Ships misplaced partial aggregates to their owning nodes, folds
    /// them in, and releases the exchange hold on every node. Safe to
    /// call with an empty spec list (1:1 migrations): it just releases
    /// the (already-cleared) hold. Returns the number of partial rows
    /// moved across nodes.
    ///
    /// Must run after [`Coordinator::wait_all_complete`]: the partials
    /// are only complete once every granule of the local migrations has
    /// been migrated.
    pub fn run_exchange(&mut self, specs: &[ExchangeSpec]) -> ClientResult<u64> {
        let mut moved = 0;
        for spec in specs {
            moved += self.exchange_table(spec)?;
        }
        for conn in &mut self.conns {
            conn.cluster_end_exchange()?;
        }
        Ok(moved)
    }

    fn exchange_table(&mut self, spec: &ExchangeSpec) -> ClientResult<u64> {
        let key_n = spec.key_cols.len();
        let mut cols: Vec<String> = spec.key_cols.clone();
        cols.extend(spec.aggs.iter().map(|(name, _)| name.clone()));
        let select_list = cols.join(", ");
        let scan = format!("SELECT {select_list} FROM {}", spec.table);
        let mut moved = 0;
        for source in 0..self.conns.len() {
            let (_, rows) = self.conns[source].query_rows(&scan)?;
            for row in rows {
                let key = &row.0[..key_n];
                let owner = self.map.owner_of(key);
                if owner == source {
                    continue;
                }
                self.merge_partial(owner, spec, &row.0)?;
                let pred = key_predicate(&spec.key_cols, key);
                self.conns[source].execute(&format!("DELETE FROM {} WHERE {pred}", spec.table))?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Folds one partial-aggregate row into the owner node's copy:
    /// INSERT when the group is new there, UPDATE with the folded
    /// values when the owner already holds a partial for the key.
    fn merge_partial(
        &mut self,
        owner: usize,
        spec: &ExchangeSpec,
        values: &[Value],
    ) -> ClientResult<()> {
        let key_n = spec.key_cols.len();
        let pred = key_predicate(&spec.key_cols, &values[..key_n]);
        let agg_list = spec
            .aggs
            .iter()
            .map(|(name, _)| name.clone())
            .collect::<Vec<_>>()
            .join(", ");
        let (_, existing) = self.conns[owner].query_rows(&format!(
            "SELECT {agg_list} FROM {} WHERE {pred}",
            spec.table
        ))?;
        match existing.first() {
            None => {
                let mut cols: Vec<String> = spec.key_cols.clone();
                cols.extend(spec.aggs.iter().map(|(name, _)| name.clone()));
                let vals: Vec<String> = values.iter().map(sql_lit).collect();
                self.conns[owner].execute(&format!(
                    "INSERT INTO {} ({}) VALUES ({})",
                    spec.table,
                    cols.join(", "),
                    vals.join(", ")
                ))?;
            }
            Some(held) => {
                let sets: Vec<String> = spec
                    .aggs
                    .iter()
                    .enumerate()
                    .map(|(i, (name, func))| {
                        let folded = fold(*func, &held.0[i], &values[key_n + i]);
                        format!("{name} = {}", sql_lit(&folded))
                    })
                    .collect();
                self.conns[owner].execute(&format!(
                    "UPDATE {} SET {} WHERE {pred}",
                    spec.table,
                    sets.join(", ")
                ))?;
            }
        }
        Ok(())
    }

    /// Runs `FINALIZE MIGRATION [DROP OLD]` on every node.
    pub fn finalize_all(&mut self, drop_old: bool) -> ClientResult<()> {
        let sql = if drop_old {
            "FINALIZE MIGRATION DROP OLD"
        } else {
            "FINALIZE MIGRATION"
        };
        for conn in &mut self.conns {
            conn.execute(sql)?;
        }
        Ok(())
    }

    /// Cluster-wide status: per-node counters summed, except the
    /// topology gauges (`cluster.nodes`, `cluster.shardmap_version`)
    /// which are taken as the maximum, and `cluster.self_index` which is
    /// meaningless aggregated and dropped.
    pub fn aggregate_status(&mut self) -> ClientResult<Vec<(String, i64)>> {
        aggregate_status(self.conns.iter_mut())
    }
}

/// Sums `STATUS` pairs across nodes (topology gauges take the max,
/// `cluster.self_index` is dropped). Shared by [`Coordinator`] and
/// [`ClusterClient`](crate::ClusterClient).
pub fn aggregate_status<'a>(
    conns: impl Iterator<Item = &'a mut Client>,
) -> ClientResult<Vec<(String, i64)>> {
    let mut agg: Vec<(String, i64)> = Vec::new();
    for conn in conns {
        for (key, value) in conn.status()? {
            if key == "cluster.self_index" {
                continue;
            }
            match agg.iter_mut().find(|(k, _)| *k == key) {
                Some((_, held)) => {
                    if key == "cluster.nodes" || key == "cluster.shardmap_version" {
                        *held = (*held).max(value);
                    } else {
                        *held += value;
                    }
                }
                None => agg.push((key, value)),
            }
        }
    }
    Ok(agg)
}

/// Folds two partial aggregates of the same group into one. NULL on
/// either side (a group the input partition never saw) yields the other
/// side unchanged — matching how the engine's aggregation treats empty
/// inputs.
pub fn fold(func: AggFunc, a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Null, other) | (other, Value::Null) => other.clone(),
        _ => match func {
            AggFunc::Count | AggFunc::Sum => match (a, b) {
                (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                (Value::Decimal(x), Value::Decimal(y)) => Value::Decimal(x + y),
                _ => match (a.as_i64(), b.as_i64()) {
                    (Some(x), Some(y)) => Value::Int(x + y),
                    _ => Value::Float(float_of(a) + float_of(b)),
                },
            },
            AggFunc::Min => std::cmp::min(a, b).clone(),
            AggFunc::Max => std::cmp::max(a, b).clone(),
            // plan_flip rejects COUNT DISTINCT at prepare time: distinct
            // sets do not fold from partial counts.
            AggFunc::CountDistinct => {
                unreachable!("COUNT DISTINCT is rejected by cluster prepare")
            }
        },
    }
}

fn float_of(v: &Value) -> f64 {
    match v {
        Value::Int(x) | Value::Decimal(x) => *x as f64,
        Value::Float(x) => *x,
        _ => 0.0,
    }
}

/// Renders an equality predicate over the key columns:
/// `k1 = lit AND k2 = lit`.
fn key_predicate(key_cols: &[String], key: &[Value]) -> String {
    key_cols
        .iter()
        .zip(key)
        .map(|(col, v)| format!("{col} = {}", sql_lit(v)))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Renders a [`Value`] as a SQL literal.
pub fn sql_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Int(i) | Value::Decimal(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => d.to_string(),
        Value::Timestamp(t) => t.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_adds_sums_and_compares_extrema() {
        assert_eq!(
            fold(AggFunc::Sum, &Value::Int(3), &Value::Int(4)),
            Value::Int(7)
        );
        assert_eq!(
            fold(AggFunc::Count, &Value::Int(2), &Value::Int(5)),
            Value::Int(7)
        );
        assert_eq!(
            fold(AggFunc::Min, &Value::Int(2), &Value::Int(5)),
            Value::Int(2)
        );
        assert_eq!(
            fold(
                AggFunc::Max,
                &Value::Text("a".into()),
                &Value::Text("b".into())
            ),
            Value::Text("b".into())
        );
        assert_eq!(
            fold(AggFunc::Sum, &Value::Null, &Value::Int(9)),
            Value::Int(9)
        );
    }

    #[test]
    fn sql_literals_escape_quotes() {
        assert_eq!(sql_lit(&Value::Text("o'brien".into())), "'o''brien'");
        assert_eq!(sql_lit(&Value::Int(-4)), "-4");
        assert_eq!(sql_lit(&Value::Null), "NULL");
    }

    #[test]
    fn key_predicates_join_with_and() {
        let cols = vec!["a".to_string(), "b".to_string()];
        let key = [Value::Int(1), Value::Text("x".into())];
        assert_eq!(key_predicate(&cols, &key), "a = 1 AND b = 'x'");
    }
}
