//! Cluster-side state of a shared-nothing BullFrog node.
//!
//! A cluster hash-partitions every table's rows across N nodes by
//! primary key, and each node runs the ordinary single-node lazy
//! migration machinery over its own partition. This module holds what a
//! *member* needs for that to be safe:
//!
//! - [`ShardMap`] — the versioned `hash(key) % nodes` routing table,
//!   installed on every node and fetched by clients over the
//!   `CLUSTER GetMap` opcode;
//! - [`ClusterReq`] — the cluster-control sub-operations carried by the
//!   BFNET1 `CLUSTER` request (map distribution plus the two-phase
//!   schema flip: prepare / commit / abort / end-exchange);
//! - [`ClusterMember`] — the node's enforcement state: statements whose
//!   shard key hashes to another node are refused with
//!   [`err_code::WRONG_SHARD`], and statements touching a table caught
//!   in a flip window are refused with [`err_code::FLIP_PENDING`], both
//!   retryable so clients re-route / back off;
//! - [`ExchangeSpec`] — for n:1 migrations (GROUP BY), the description
//!   of the cross-node merge the coordinator performs after every node
//!   has flipped: each node's lazy migration produces *partial*
//!   aggregates for groups whose rows live locally, and the exchange
//!   ships those partials to the group key's owning node and merges
//!   them (`SUM`/`COUNT` add, `MIN`/`MAX` fold).
//!
//! The flip itself is the paper's O(statements) logical switch, done
//! per node; the two-phase protocol only ensures no client can observe
//! one node pre-flip and another post-flip: from `Prepare` until that
//! node's `Commit`, the affected tables answer `FLIP_PENDING`, and for
//! exchange outputs the hold extends until `EndExchange` so no client
//! reads a group's partial (pre-merge) aggregate.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use bullfrog_common::{Error, Result, Value};
use bullfrog_core::{MigrationPlan, Tracking};
use bullfrog_engine::db::Database;
use bullfrog_query::{conjuncts, AggFunc, CmpOp, Expr, OutputColumn};
use bullfrog_sql::Statement;
use bytes::{BufMut, Bytes};
use parking_lot::Mutex;

use crate::wire::{self, err_code, Response};

/// The versioned routing table: a key owned by slot
/// `fnv(key) % nodes.len()` lives on `nodes[slot]`.
///
/// Versioning exists so a client holding a stale map can tell (from the
/// `WRONG_SHARD` it earns) that re-fetching is worthwhile; within one
/// map version ownership is deterministic on every node and client
/// because the hash is the repo's seedless FNV-1a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotonic map version (starts at 1).
    pub version: u64,
    /// Node addresses, indexed by hash slot.
    pub nodes: Vec<String>,
}

impl ShardMap {
    /// A version-1 map over `nodes`.
    pub fn new(nodes: Vec<String>) -> ShardMap {
        ShardMap { version: 1, nodes }
    }

    /// The slot (node index) owning `key`.
    pub fn owner_of(&self, key: &[Value]) -> usize {
        debug_assert!(!self.nodes.is_empty());
        (bullfrog_common::fnv_hash_one(key) % self.nodes.len() as u64) as usize
    }

    /// Wire encoding (u64 version, then the node address list).
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.version);
        buf.put_u32(self.nodes.len() as u32);
        for n in &self.nodes {
            wire::put_str(buf, n);
        }
    }

    /// Wire decoding.
    pub fn decode(buf: &mut Bytes) -> Result<ShardMap> {
        let version = bullfrog_txn::wal::codec::get_u64(buf)?;
        let n = bullfrog_txn::wal::codec::get_u32(buf)? as usize;
        let mut nodes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            nodes.push(wire::get_str(buf)?);
        }
        if nodes.is_empty() {
            return Err(Error::Eval("shard map with zero nodes".into()));
        }
        Ok(ShardMap { version, nodes })
    }
}

/// Cluster-control sub-operations of the BFNET1 `CLUSTER` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterReq {
    /// Fetch the node's installed [`ShardMap`]. The only sub-operation
    /// that does *not* mark the connection as a coordinator.
    GetMap,
    /// Install `map` on this node, which owns slot `self_index`.
    SetMap {
        /// This node's slot in `map.nodes`.
        self_index: u32,
        /// The map to install.
        map: ShardMap,
    },
    /// Phase one of a schema flip: validate the migration DDL, stage
    /// it, and start refusing statements on its tables with
    /// `FLIP_PENDING`. Replies [`Response::Prepared`] listing any
    /// cross-node exchange work.
    Prepare {
        /// The migration DDL (`CREATE TABLE ... AS SELECT ...`).
        sql: String,
    },
    /// Phase two: execute the staged DDL (the local logical flip; lazy
    /// migration of the local partition starts). Non-exchange tables
    /// unblock here; exchange outputs stay held until [`Self::EndExchange`].
    Commit,
    /// Drop the staged flip (coordinator saw a prepare/commit failure
    /// elsewhere) and unblock everything.
    Abort,
    /// The coordinator finished merging partial aggregates; release the
    /// exchange outputs to clients.
    EndExchange,
}

mod sub {
    pub const GET_MAP: u8 = 0;
    pub const SET_MAP: u8 = 1;
    pub const PREPARE: u8 = 2;
    pub const COMMIT: u8 = 3;
    pub const ABORT: u8 = 4;
    pub const END_EXCHANGE: u8 = 5;
}

impl ClusterReq {
    /// Wire encoding (sub-op byte + fields), appended to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            ClusterReq::GetMap => buf.put_u8(sub::GET_MAP),
            ClusterReq::SetMap { self_index, map } => {
                buf.put_u8(sub::SET_MAP);
                buf.put_u32(*self_index);
                map.encode_into(buf);
            }
            ClusterReq::Prepare { sql } => {
                buf.put_u8(sub::PREPARE);
                wire::put_str(buf, sql);
            }
            ClusterReq::Commit => buf.put_u8(sub::COMMIT),
            ClusterReq::Abort => buf.put_u8(sub::ABORT),
            ClusterReq::EndExchange => buf.put_u8(sub::END_EXCHANGE),
        }
    }

    /// Wire decoding.
    pub fn decode(buf: &mut Bytes) -> Result<ClusterReq> {
        match wire::get_u8(buf)? {
            sub::GET_MAP => Ok(ClusterReq::GetMap),
            sub::SET_MAP => Ok(ClusterReq::SetMap {
                self_index: bullfrog_txn::wal::codec::get_u32(buf)?,
                map: ShardMap::decode(buf)?,
            }),
            sub::PREPARE => Ok(ClusterReq::Prepare {
                sql: wire::get_str(buf)?,
            }),
            sub::COMMIT => Ok(ClusterReq::Commit),
            sub::ABORT => Ok(ClusterReq::Abort),
            sub::END_EXCHANGE => Ok(ClusterReq::EndExchange),
            other => Err(Error::Eval(format!("unknown cluster sub-op {other}"))),
        }
    }
}

/// Cross-node merge work for one n:1 output table: after every node's
/// local flip, each node holds partial aggregates for each group key
/// that has local input rows; the coordinator ships every partial whose
/// group key hashes elsewhere to the owning node and folds it in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeSpec {
    /// The output (aggregate) table.
    pub table: String,
    /// Group-key columns, in output-schema order — also the table's
    /// shard key for routing the merged groups.
    pub key_cols: Vec<String>,
    /// Aggregate columns with their fold function. Only the mergeable
    /// aggregates appear; `COUNT(DISTINCT ...)` is rejected at prepare.
    pub aggs: Vec<(String, AggFunc)>,
}

fn agg_to_byte(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::CountDistinct => 4,
    }
}

fn agg_from_byte(b: u8) -> Result<AggFunc> {
    Ok(match b {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::CountDistinct,
        other => return Err(Error::Eval(format!("unknown aggregate code {other}"))),
    })
}

impl ExchangeSpec {
    /// Wire encoding, appended to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        wire::put_str(buf, &self.table);
        buf.put_u32(self.key_cols.len() as u32);
        for k in &self.key_cols {
            wire::put_str(buf, k);
        }
        buf.put_u32(self.aggs.len() as u32);
        for (name, func) in &self.aggs {
            wire::put_str(buf, name);
            buf.put_u8(agg_to_byte(*func));
        }
    }

    /// Wire decoding.
    pub fn decode(buf: &mut Bytes) -> Result<ExchangeSpec> {
        let table = wire::get_str(buf)?;
        let n = bullfrog_txn::wal::codec::get_u32(buf)? as usize;
        let mut key_cols = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            key_cols.push(wire::get_str(buf)?);
        }
        let n = bullfrog_txn::wal::codec::get_u32(buf)? as usize;
        let mut aggs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = wire::get_str(buf)?;
            aggs.push((name, agg_from_byte(wire::get_u8(buf)?)?));
        }
        Ok(ExchangeSpec {
            table,
            key_cols,
            aggs,
        })
    }
}

/// What a resolved migration plan means for the flip protocol on a
/// member: which tables to hold in the `FLIP_PENDING` window, which to
/// keep holding after commit, and what exchange work the coordinator
/// owes. Computed at `Prepare` on every node (deterministically — every
/// node resolves the same plan against the same catalog).
#[derive(Debug, Clone)]
pub struct FlipPlan {
    /// Tables refused from `Prepare` until this node's `Commit`: every
    /// input and every output of the plan.
    pub blocked: HashSet<String>,
    /// Output tables still refused after `Commit`, until `EndExchange`
    /// (n:1 outputs whose groups may hold pre-merge partials).
    pub holdback: HashSet<String>,
    /// The coordinator's post-commit merge work.
    pub exchange: Vec<ExchangeSpec>,
}

/// Derives the [`FlipPlan`] from a resolved migration plan.
/// `multi_node` gates the exchange: a 1-node cluster never ships
/// partials. Errors on migrations whose cross-node semantics are not
/// supported (pair-hash join tracking, non-mergeable aggregates).
pub fn plan_flip(plan: &MigrationPlan, multi_node: bool) -> Result<FlipPlan> {
    let mut blocked: HashSet<String> = plan.input_tables().into_iter().collect();
    blocked.extend(plan.output_tables());
    let mut holdback = HashSet::new();
    let mut exchange = Vec::new();
    for st in &plan.statements {
        match st.tracking() {
            Tracking::Bitmap { .. } => {}
            Tracking::Hash { .. } if !multi_node => {}
            Tracking::Hash { .. } => {
                let mut key_cols = Vec::new();
                let mut aggs = Vec::new();
                for col in &st.spec.columns {
                    match col {
                        OutputColumn::Scalar { name, .. } => key_cols.push(name.clone()),
                        OutputColumn::Agg { func, .. } if *func == AggFunc::CountDistinct => {
                            return Err(Error::InvalidMigration(format!(
                                "{}: COUNT(DISTINCT) partials cannot be merged across nodes",
                                st.output.name
                            )));
                        }
                        OutputColumn::Agg { name, func, .. } => aggs.push((name.clone(), *func)),
                    }
                }
                holdback.insert(st.output.name.clone());
                exchange.push(ExchangeSpec {
                    table: st.output.name.clone(),
                    key_cols,
                    aggs,
                });
            }
            Tracking::PairHash { .. } => {
                return Err(Error::InvalidMigration(format!(
                    "{}: pair-hash join tracking is not supported across cluster nodes",
                    st.output.name
                )));
            }
        }
    }
    Ok(FlipPlan {
        blocked,
        holdback,
        exchange,
    })
}

/// A staged two-phase flip on one member.
#[derive(Debug)]
struct PendingFlip {
    /// The migration DDL, executed at `Commit`.
    sql: String,
    flip: FlipPlan,
    /// Set once the local DDL ran; from then on only `flip.holdback`
    /// stays refused.
    committed: bool,
}

#[derive(Debug, Default)]
struct MemberInner {
    map: Option<ShardMap>,
    self_index: usize,
    pending: Option<PendingFlip>,
}

/// The cluster state of one server node, shared between its sessions.
#[derive(Debug, Default)]
pub struct ClusterMember {
    inner: Mutex<MemberInner>,
    /// Statements refused because the key hashes to another node.
    pub wrong_shard_rejects: AtomicU64,
    /// Statements refused because a flip window held their table.
    pub flip_pending_rejects: AtomicU64,
}

impl ClusterMember {
    /// A member with no map installed (accepts everything locally until
    /// the coordinator calls `SetMap`).
    pub fn new() -> ClusterMember {
        ClusterMember::default()
    }

    /// Installs the routing map; this node owns slot `self_index`.
    pub fn install_map(&self, map: ShardMap, self_index: usize) -> Result<()> {
        if self_index >= map.nodes.len() {
            return Err(Error::Eval(format!(
                "self index {self_index} out of range for {} nodes",
                map.nodes.len()
            )));
        }
        let mut inner = self.inner.lock();
        inner.map = Some(map);
        inner.self_index = self_index;
        Ok(())
    }

    /// The installed map, if any.
    pub fn map(&self) -> Option<ShardMap> {
        self.inner.lock().map.clone()
    }

    /// Stages a flip; fails if one is already pending.
    pub fn begin_prepare(&self, sql: String, flip: FlipPlan) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.pending.is_some() {
            return Err(Error::Eval("a schema flip is already pending".into()));
        }
        inner.pending = Some(PendingFlip {
            sql,
            flip,
            committed: false,
        });
        Ok(())
    }

    /// The staged DDL to execute at `Commit`.
    pub fn commit_sql(&self) -> Result<String> {
        let inner = self.inner.lock();
        match &inner.pending {
            Some(p) if !p.committed => Ok(p.sql.clone()),
            Some(_) => Err(Error::Eval("flip already committed".into())),
            None => Err(Error::Eval("no prepared flip to commit".into())),
        }
    }

    /// Marks the staged flip committed (its DDL ran). If nothing is
    /// held back for an exchange the flip is complete and cleared.
    pub fn mark_committed(&self) {
        let mut inner = self.inner.lock();
        if let Some(p) = &mut inner.pending {
            p.committed = true;
            if p.flip.holdback.is_empty() {
                inner.pending = None;
            }
        }
    }

    /// Drops any staged flip and unblocks everything.
    pub fn abort_flip(&self) {
        self.inner.lock().pending = None;
    }

    /// Ends the post-commit exchange hold.
    pub fn end_exchange(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        match &inner.pending {
            Some(p) if p.committed => {
                inner.pending = None;
                Ok(())
            }
            Some(_) => Err(Error::Eval("flip not committed yet".into())),
            None => Ok(()), // idempotent: no exchange hold to release
        }
    }

    /// `cluster.*` gauges for `STATUS`.
    pub fn status(&self) -> Vec<(String, i64)> {
        let inner = self.inner.lock();
        vec![
            (
                "cluster.nodes".into(),
                inner.map.as_ref().map_or(0, |m| m.nodes.len()) as i64,
            ),
            (
                "cluster.shardmap_version".into(),
                inner.map.as_ref().map_or(0, |m| m.version) as i64,
            ),
            ("cluster.self_index".into(), inner.self_index as i64),
            (
                "cluster.flip_pending".into(),
                match &inner.pending {
                    None => 0,
                    Some(p) if !p.committed => 1,
                    Some(_) => 2, // committed, exchange hold
                },
            ),
            (
                "cluster.wrong_shard_rejects".into(),
                self.wrong_shard_rejects.load(Ordering::Relaxed) as i64,
            ),
            (
                "cluster.flip_pending_rejects".into(),
                self.flip_pending_rejects.load(Ordering::Relaxed) as i64,
            ),
        ]
    }

    /// The enforcement hook, called on every non-coordinator statement
    /// before it executes. `Some(resp)` refuses the statement:
    ///
    /// - `FLIP_PENDING` when the statement touches a table inside a
    ///   flip window (retry after backoff);
    /// - `WRONG_SHARD` when a single-key statement's key hashes to
    ///   another node (re-fetch the map and re-route);
    /// - a plain error for migration DDL, which on a member must come
    ///   through the coordinator's two-phase opcodes.
    ///
    /// Statements without a fully-bound shard key (scans, multi-row
    /// predicates) run locally — that is the scatter leg of a
    /// scatter-gather, and each node answering from its own partition
    /// is exactly the intent.
    pub fn reject(&self, db: &Database, stmt: &Statement) -> Option<Response> {
        if let Some(resp) = self.flip_gate(stmt) {
            return Some(resp);
        }
        if matches!(
            stmt,
            Statement::CreateTableAs { .. } | Statement::FinalizeMigration { .. }
        ) {
            return Some(Response::Err {
                retryable: false,
                code: err_code::GENERAL,
                message: "migration DDL on a cluster member must go through the flip coordinator"
                    .into(),
            });
        }
        let (map, self_index) = {
            let inner = self.inner.lock();
            (inner.map.clone()?, inner.self_index)
        };
        if map.nodes.len() <= 1 {
            return None;
        }
        let keys = match stmt {
            Statement::Insert {
                table,
                columns,
                rows,
            } => insert_keys(db, table, columns, rows)?,
            Statement::Update {
                table, predicate, ..
            }
            | Statement::Delete { table, predicate } => {
                vec![(table.clone(), predicate_key(db, table, predicate.as_ref())?)]
            }
            Statement::Select(spec) if spec.inputs.len() == 1 => {
                let table = spec.inputs[0].table.clone();
                let key = predicate_key(db, &table, spec.filter.as_ref())?;
                vec![(table, key)]
            }
            _ => return None,
        };
        for (table, key) in keys {
            let owner = map.owner_of(&key);
            if owner != self_index {
                self.wrong_shard_rejects.fetch_add(1, Ordering::Relaxed);
                return Some(Response::Err {
                    retryable: true,
                    code: err_code::WRONG_SHARD,
                    message: format!(
                        "wrong shard: key {key:?} of {table} is owned by {} (map v{})",
                        map.nodes[owner], map.version
                    ),
                });
            }
        }
        None
    }

    /// The `FLIP_PENDING` half of [`ClusterMember::reject`].
    fn flip_gate(&self, stmt: &Statement) -> Option<Response> {
        let inner = self.inner.lock();
        let p = inner.pending.as_ref()?;
        let gate = if p.committed {
            &p.flip.holdback
        } else {
            &p.flip.blocked
        };
        let t = stmt_tables(stmt).into_iter().find(|t| gate.contains(t))?;
        self.flip_pending_rejects.fetch_add(1, Ordering::Relaxed);
        Some(Response::Err {
            retryable: true,
            code: err_code::FLIP_PENDING,
            message: format!("schema flip in progress on table {t}; retry shortly"),
        })
    }
}

/// Tables a statement touches (for the flip-pending gate).
fn stmt_tables(stmt: &Statement) -> Vec<String> {
    match stmt {
        Statement::Select(spec) => spec.inputs.iter().map(|t| t.table.clone()).collect(),
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => vec![table.clone()],
        Statement::CreateTableAs { name, select, .. } => {
            let mut out: Vec<String> = select.inputs.iter().map(|t| t.table.clone()).collect();
            out.push(name.clone());
            out
        }
        _ => Vec::new(),
    }
}

/// Shard keys of every row in an `INSERT`, in the primary key's
/// declared column order. `None` (skip the check, let execution fail or
/// succeed on its own) when the table or its key is unknown, or a key
/// column is absent from the insert's column list.
fn insert_keys(
    db: &Database,
    table: &str,
    columns: &[String],
    rows: &[bullfrog_common::Row],
) -> Option<Vec<(String, Vec<Value>)>> {
    let t = db.table(table).ok()?;
    let schema = t.schema();
    if schema.primary_key.is_empty() {
        return None;
    }
    let mut positions = Vec::with_capacity(schema.primary_key.len());
    for pk in &schema.primary_key {
        let pos = if columns.is_empty() {
            schema.col_index(pk).ok()?
        } else {
            columns.iter().position(|c| c.eq_ignore_ascii_case(pk))?
        };
        positions.push(pos);
    }
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut key = Vec::with_capacity(positions.len());
        for &pos in &positions {
            key.push(row.0.get(pos)?.clone());
        }
        out.push((table.to_string(), key));
    }
    Some(out)
}

/// The shard key a predicate pins, when its conjuncts equate every
/// primary-key column of `table` to a literal. `None` for partial or
/// non-equality predicates — those are scans and run locally.
fn predicate_key(db: &Database, table: &str, predicate: Option<&Expr>) -> Option<Vec<Value>> {
    let pred = predicate?;
    let t = db.table(table).ok()?;
    let schema = t.schema();
    if schema.primary_key.is_empty() {
        return None;
    }
    let mut bound: Vec<(String, Value)> = Vec::new();
    for c in conjuncts(pred) {
        if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
            let (col, lit) = match (&**a, &**b) {
                (Expr::Col(cr), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(cr)) => {
                    (cr.column.clone(), v.clone())
                }
                _ => continue,
            };
            bound.push((col, lit));
        }
    }
    let mut key = Vec::with_capacity(schema.primary_key.len());
    for pk in &schema.primary_key {
        let v = bound
            .iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(pk))
            .map(|(_, v)| v.clone())?;
        key.push(v);
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::row;

    #[test]
    fn shard_map_owner_is_deterministic() {
        let map = ShardMap::new(vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        let key = vec![Value::Int(42)];
        let o = map.owner_of(&key);
        for _ in 0..8 {
            assert_eq!(map.owner_of(&key), o);
        }
        // Different keys spread across slots.
        let slots: HashSet<usize> = (0..64).map(|i| map.owner_of(&[Value::Int(i)])).collect();
        assert!(slots.len() > 1);
    }

    #[test]
    fn cluster_req_round_trip() {
        let map = ShardMap {
            version: 7,
            nodes: vec!["127.0.0.1:7701".into(), "127.0.0.1:7702".into()],
        };
        for op in [
            ClusterReq::GetMap,
            ClusterReq::SetMap {
                self_index: 1,
                map: map.clone(),
            },
            ClusterReq::Prepare {
                sql: "CREATE TABLE t2 AS (SELECT id FROM t)".into(),
            },
            ClusterReq::Commit,
            ClusterReq::Abort,
            ClusterReq::EndExchange,
        ] {
            let mut buf = Vec::new();
            op.encode_into(&mut buf);
            let mut bytes = Bytes::from(buf);
            assert_eq!(ClusterReq::decode(&mut bytes).unwrap(), op);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn exchange_spec_round_trip() {
        let spec = ExchangeSpec {
            table: "owner_totals".into(),
            key_cols: vec!["owner".into()],
            aggs: vec![
                ("total".into(), AggFunc::Sum),
                ("n".into(), AggFunc::Count),
                ("lo".into(), AggFunc::Min),
                ("hi".into(), AggFunc::Max),
            ],
        };
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        let mut bytes = Bytes::from(buf);
        assert_eq!(ExchangeSpec::decode(&mut bytes).unwrap(), spec);
        assert!(bytes.is_empty());
    }

    #[test]
    fn member_flip_window_gates() {
        let m = ClusterMember::new();
        let flip = FlipPlan {
            blocked: ["accounts".to_string(), "accounts_v2".to_string()]
                .into_iter()
                .collect(),
            holdback: HashSet::new(),
            exchange: Vec::new(),
        };
        m.begin_prepare(
            "CREATE TABLE accounts_v2 AS (SELECT id FROM accounts)".into(),
            flip,
        )
        .unwrap();
        assert!(m
            .begin_prepare(
                "x".into(),
                FlipPlan {
                    blocked: HashSet::new(),
                    holdback: HashSet::new(),
                    exchange: Vec::new(),
                }
            )
            .is_err());
        assert!(m.commit_sql().unwrap().starts_with("CREATE TABLE"));
        m.mark_committed();
        // No holdback: the flip is fully cleared.
        assert!(m.commit_sql().is_err());
        assert_eq!(m.end_exchange().ok(), Some(()));
    }

    #[test]
    fn member_holdback_until_end_exchange() {
        let m = ClusterMember::new();
        let flip = FlipPlan {
            blocked: ["t".to_string(), "agg".to_string()].into_iter().collect(),
            holdback: ["agg".to_string()].into_iter().collect(),
            exchange: vec![ExchangeSpec {
                table: "agg".into(),
                key_cols: vec!["k".into()],
                aggs: vec![("s".into(), AggFunc::Sum)],
            }],
        };
        m.begin_prepare("sql".into(), flip).unwrap();
        m.mark_committed();
        // Still pending (exchange hold), and a new prepare is refused.
        assert!(m
            .begin_prepare(
                "y".into(),
                FlipPlan {
                    blocked: HashSet::new(),
                    holdback: HashSet::new(),
                    exchange: Vec::new(),
                }
            )
            .is_err());
        m.end_exchange().unwrap();
        assert!(m
            .begin_prepare(
                "y".into(),
                FlipPlan {
                    blocked: HashSet::new(),
                    holdback: HashSet::new(),
                    exchange: Vec::new(),
                }
            )
            .is_ok());
    }

    #[test]
    fn key_extraction_against_live_catalog() {
        use bullfrog_common::{ColumnDef, DataType, TableSchema};
        let db = Database::new();
        db.create_table(
            TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("balance", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        // INSERT in schema order and with an explicit column list.
        let keys = insert_keys(&db, "accounts", &[], &[row![5, 100]]).unwrap();
        assert_eq!(keys[0].1, vec![Value::Int(5)]);
        let cols = vec!["balance".to_string(), "id".to_string()];
        let keys = insert_keys(&db, "accounts", &cols, &[row![100, 5]]).unwrap();
        assert_eq!(keys[0].1, vec![Value::Int(5)]);
        // Predicate pinning the full key, either operand order.
        let pred = Expr::column("id").eq(Expr::lit(9));
        assert_eq!(
            predicate_key(&db, "accounts", Some(&pred)),
            Some(vec![Value::Int(9)])
        );
        let pred = Expr::lit(9).eq(Expr::column("id"));
        assert_eq!(
            predicate_key(&db, "accounts", Some(&pred)),
            Some(vec![Value::Int(9)])
        );
        // An equality on a non-key column is a scan: no shard key.
        let pred = Expr::column("balance").eq(Expr::lit(3));
        assert_eq!(predicate_key(&db, "accounts", Some(&pred)), None);
        assert_eq!(predicate_key(&db, "accounts", None), None);
    }
}
