//! The routing cluster client.
//!
//! [`ClusterClient`] carries a cached [`ShardMap`] and one lazily-opened
//! connection per node. Single-key statements go straight to the key's
//! owning node; full scans scatter to every node and gather the rows.
//! The two cluster error codes drive its recovery policy:
//!
//! - `WRONG_SHARD` — the cached map is stale (the node is not the key's
//!   owner under the *current* map). The client re-fetches the map from
//!   the cluster and re-routes; it never blindly retries the same node,
//!   which would loop forever against a moved shard.
//! - `FLIP_PENDING` — a schema flip is in its prepare→commit window (or
//!   exchange hold) over the touched table. The statement is valid and
//!   the node is the right one; the client backs off briefly and
//!   retries in place.

use std::time::Duration;

use bullfrog_common::Value;
use bullfrog_net::{err_code, Client, ClientError, ClientResult, QueryReply, ShardMap};

use crate::coordinator;

/// Attempt cap for one routed statement: map re-fetches, flip-window
/// backoffs, and ordinary retryable errors all consume attempts.
const MAX_ATTEMPTS: usize = 60;

/// Backoff while a flip window is open over the touched table.
const FLIP_BACKOFF: Duration = Duration::from_millis(10);

/// One client endpoint onto the cluster.
pub struct ClusterClient {
    map: ShardMap,
    conns: Vec<Option<Client>>,
    /// `WRONG_SHARD` bounces that triggered a map re-fetch.
    pub wrong_shard_refetches: u64,
    /// `FLIP_PENDING` bounces that triggered an in-place backoff.
    pub flip_pending_backoffs: u64,
}

impl ClusterClient {
    /// Connects via any one node and adopts the shard map it serves.
    pub fn connect(bootstrap: &str) -> ClientResult<ClusterClient> {
        let mut conn = Client::connect(bootstrap)?;
        let map = conn.cluster_get_map()?;
        Ok(ClusterClient::with_map(map))
    }

    /// Builds a client from an explicit map — the map may be stale
    /// (tests use this to exercise the `WRONG_SHARD` recovery path).
    pub fn with_map(map: ShardMap) -> ClusterClient {
        let n = map.nodes.len();
        ClusterClient {
            map,
            conns: (0..n).map(|_| None).collect(),
            wrong_shard_refetches: 0,
            flip_pending_backoffs: 0,
        }
    }

    /// The currently cached shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The (lazily opened) connection to node `i` — for same-node
    /// transaction brackets (`BEGIN`/…/`COMMIT` must ride one
    /// connection).
    pub fn conn(&mut self, i: usize) -> ClientResult<&mut Client> {
        if self.conns[i].is_none() {
            self.conns[i] = Some(Client::connect(self.map.nodes[i].as_str())?);
        }
        Ok(self.conns[i].as_mut().expect("just opened"))
    }

    /// Re-fetches the shard map from the first reachable node and drops
    /// the per-node connections if the topology changed.
    pub fn refetch_map(&mut self) -> ClientResult<()> {
        let mut last: Option<ClientError> = None;
        for i in 0..self.map.nodes.len() {
            let fetched = match self.conn(i) {
                Ok(conn) => conn.cluster_get_map(),
                Err(e) => Err(e),
            };
            match fetched {
                Ok(map) => {
                    if map.nodes != self.map.nodes {
                        self.conns = (0..map.nodes.len()).map(|_| None).collect();
                    }
                    self.map = map;
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("no nodes to fetch a map from".into())))
    }

    /// Routes one single-key statement to the key's owning node,
    /// re-fetching the map on `WRONG_SHARD`, backing off on
    /// `FLIP_PENDING`, and retrying bounded on ordinary retryable
    /// errors (lock timeouts).
    pub fn query_key(&mut self, key: &[Value], sql: &str) -> ClientResult<QueryReply> {
        let mut last: Option<ClientError> = None;
        for _ in 0..MAX_ATTEMPTS {
            let owner = self.map.owner_of(key);
            match self.conn(owner).and_then(|c| c.query(sql)) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    if !self.recover(&e)? {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("zero attempts".into())))
    }

    /// As [`ClusterClient::query_key`] for statements that return an
    /// affected-row count.
    pub fn execute_key(&mut self, key: &[Value], sql: &str) -> ClientResult<u64> {
        match self.query_key(key, sql)? {
            QueryReply::Ok { affected } => Ok(affected),
            QueryReply::Rows { .. } => Err(ClientError::Protocol(
                "expected an OK reply, got a result set".into(),
            )),
        }
    }

    /// Decides whether `e` is recoverable by this client and performs
    /// the recovery step (map re-fetch / backoff). Returns false when
    /// the error must surface to the caller. A dead connection is
    /// dropped so the next attempt reconnects.
    fn recover(&mut self, e: &ClientError) -> ClientResult<bool> {
        match e {
            ClientError::Server { code, .. } if *code == err_code::WRONG_SHARD => {
                self.wrong_shard_refetches += 1;
                self.refetch_map()?;
                Ok(true)
            }
            ClientError::Server { code, .. } if *code == err_code::FLIP_PENDING => {
                self.flip_pending_backoffs += 1;
                std::thread::sleep(FLIP_BACKOFF);
                Ok(true)
            }
            ClientError::Server {
                retryable: true, ..
            } => Ok(true),
            ClientError::Io(_) => {
                // Drop every dead connection; reconnect lazily.
                for conn in &mut self.conns {
                    *conn = None;
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    /// Scatters a scan to every node and gathers the rows (order:
    /// node 0's rows, then node 1's, …). Retries each leg through the
    /// same recovery policy as single-key statements.
    pub fn scatter_rows(
        &mut self,
        sql: &str,
    ) -> ClientResult<(Vec<String>, Vec<bullfrog_common::Row>)> {
        let mut names = Vec::new();
        let mut rows = Vec::new();
        for i in 0..self.map.nodes.len() {
            let (leg_names, mut leg_rows) = self.rows_at(i, sql)?;
            if names.is_empty() {
                names = leg_names;
            }
            rows.append(&mut leg_rows);
        }
        Ok((names, rows))
    }

    /// Runs a scan on one node with the standard recovery policy.
    pub fn rows_at(
        &mut self,
        i: usize,
        sql: &str,
    ) -> ClientResult<(Vec<String>, Vec<bullfrog_common::Row>)> {
        let mut last: Option<ClientError> = None;
        for _ in 0..MAX_ATTEMPTS {
            match self.conn(i).and_then(|c| c.query_rows(sql)) {
                Ok(result) => return Ok(result),
                Err(e) => {
                    if !self.recover(&e)? {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("zero attempts".into())))
    }

    /// Cluster-wide status (every node's counters summed; topology
    /// gauges take the max).
    pub fn aggregate_status(&mut self) -> ClientResult<Vec<(String, i64)>> {
        for i in 0..self.map.nodes.len() {
            self.conn(i)?;
        }
        coordinator::aggregate_status(self.conns.iter_mut().filter_map(|c| c.as_mut()))
    }
}
