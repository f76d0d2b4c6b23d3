//! The client side of failover: a connection wrapper that re-resolves
//! the primary when the node it was talking to dies, fences, or turns
//! out to be a replica.
//!
//! Re-routing signals, in order of quality:
//!
//! 1. a `READ_ONLY`-coded rejection whose message names the primary
//!    (`... the primary at <addr>`) — replicas bounce writes this way,
//!    and a fenced ex-primary rejects with the same shape, so one
//!    parser ([`primary_hint`]) covers both;
//! 2. an HA `STATE` probe of each configured member — whoever calls
//!    itself `leader` (or names one) is the new target;
//! 3. plain rotation through the member list, for the window where
//!    nobody has been elected yet.
//!
//! The wrapper retries *closures*, not statements: a transfer is a
//! multi-statement bracket, and a transport error mid-bracket means the
//! whole bracket must restart on the new primary (the old transaction
//! died with its session). A failure at `COMMIT` is ambiguous — the
//! commit may or may not have applied — which is why the failover test
//! (`tests/repld.rs`) verifies against an in-database transaction log
//! instead of client-side counting alone.

use std::time::Duration;

use bullfrog_net::{err_code, primary_hint, Client, ClientError, ClientResult, QueryReply};

/// A re-routing client over a static HA member list.
pub struct FailoverClient {
    members: Vec<String>,
    target: String,
    conn: Option<Client>,
    /// How many times this client switched nodes.
    pub reroutes: u64,
}

impl FailoverClient {
    /// Builds a client targeting the first member; no connection is
    /// opened until the first call.
    pub fn new(members: Vec<String>) -> FailoverClient {
        assert!(
            !members.is_empty(),
            "FailoverClient needs at least one member"
        );
        FailoverClient {
            target: members[0].clone(),
            members,
            conn: None,
            reroutes: 0,
        }
    }

    /// The node calls currently go to.
    pub fn target(&self) -> &str {
        &self.target
    }

    fn ensure(&mut self) -> ClientResult<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.target.as_str())?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Drops the current connection and picks a new target: the hint if
    /// given, else the first member that claims (or names) a leader,
    /// else the next member in rotation.
    fn reroute(&mut self, hint: Option<String>) {
        self.conn = None;
        self.reroutes += 1;
        if let Some(h) = hint {
            self.target = h;
            return;
        }
        for m in &self.members {
            let Some(mut c) = probe(m) else { continue };
            let Ok(st) = c.ha_state() else { continue };
            if st.role == "leader" {
                self.target = m.clone();
                return;
            }
            if !st.leader.is_empty() {
                self.target = st.leader;
                return;
            }
        }
        if let Some(pos) = self.members.iter().position(|m| m == &self.target) {
            self.target = self.members[(pos + 1) % self.members.len()].clone();
        }
    }

    /// Runs `f` against the current primary, re-routing and retrying on
    /// transport failures, `READ_ONLY` bounces, and retryable server
    /// errors, up to `max_attempts`. `f` must be safe to restart from
    /// scratch — any open transaction died with the failed attempt.
    pub fn with_retry<T>(
        &mut self,
        max_attempts: usize,
        mut f: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                let backoff = (50 * attempt as u64).min(500);
                std::thread::sleep(Duration::from_millis(backoff));
            }
            let client = match self.ensure() {
                Ok(c) => c,
                Err(e) => {
                    last = Some(e);
                    self.reroute(None);
                    continue;
                }
            };
            match f(client) {
                Ok(v) => return Ok(v),
                Err(ClientError::Server {
                    retryable,
                    code,
                    message,
                }) if code == err_code::READ_ONLY => {
                    // Wrong endpoint (replica, witness, or fenced
                    // ex-primary): never retry here, re-resolve.
                    let hint = primary_hint(&message);
                    last = Some(ClientError::Server {
                        retryable,
                        code,
                        message,
                    });
                    self.reroute(hint);
                }
                Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                    last = Some(e);
                    self.reroute(None);
                }
                Err(ClientError::Server {
                    retryable: true,
                    code,
                    message,
                }) => {
                    // Retryable in place (lock timeout, busy): same
                    // node, fresh bracket.
                    last = Some(ClientError::Server {
                        retryable: true,
                        code,
                        message,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("retry limit of zero".into())))
    }

    /// [`Client::execute`] with failover.
    pub fn execute(&mut self, sql: &str) -> ClientResult<u64> {
        self.with_retry(40, |c| c.execute(sql))
    }

    /// [`Client::query`] with failover.
    pub fn query(&mut self, sql: &str) -> ClientResult<QueryReply> {
        self.with_retry(40, |c| c.query(sql))
    }

    /// [`Client::query_rows`] with failover.
    pub fn query_rows(
        &mut self,
        sql: &str,
    ) -> ClientResult<(Vec<String>, Vec<bullfrog_common::Row>)> {
        self.with_retry(40, |c| c.query_rows(sql))
    }

    /// [`Client::status`] with failover.
    pub fn status(&mut self) -> ClientResult<Vec<(String, i64)>> {
        self.with_retry(40, |c| c.status())
    }
}

fn probe(addr: &str) -> Option<Client> {
    use std::net::ToSocketAddrs;
    let sa = addr.to_socket_addrs().ok()?.next()?;
    Client::connect_timeout(&sa, Duration::from_millis(250)).ok()
}
