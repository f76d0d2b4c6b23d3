//! repld: the replication + HA daemon for multi-process deployments.
//!
//! One binary, role per subcommand:
//!
//! - `repld primary --listen <addr> --wal-dir <dir>` — restore (or
//!   create) a file-backed primary from `<dir>/repld.wal` + sidecar +
//!   DDL journal, serve SQL and replication on `<addr>` until a remote
//!   `SHUTDOWN`.
//! - `repld replica --listen <addr> --primary <addr> [--wal-dir <dir>]`
//!   — read-only replica: bootstraps/subscribes to the primary, serves
//!   `SELECT`s on `<addr>`, rejects writes with the READ_ONLY code.
//!   With `--wal-dir` its WAL and fencing-epoch sidecar are file-backed
//!   so a promotion survives a restart.
//! - `repld witness --listen <addr>` — quorum-only member: votes and
//!   grants leases, holds no data, never leads.
//! - `repld promote --addr <addr>` — ask a replica to stand for
//!   election now (planned failover; majority voting still applies).
//! - `repld wait-promoted --addr <addr> [--timeout-secs N]` — poll
//!   until the node reports itself promoted; exit non-zero on timeout.
//! - `repld status --addr <addr> [--json|--full]` — one line of
//!   role/epoch/leader/lease/sync-lag; `--json` for machines, `--full`
//!   for every STATUS pair.
//! - `repld wait-zero-lag --addr <addr> [--timeout-secs N]` — poll
//!   `STATUS` until replication lag is zero.
//! - `repld shutdown --addr <addr>` — remote graceful shutdown.
//!
//! `primary` and `replica` take their engine mode from the deployment
//! setting `BULLFROG_ENGINE_MODE` (`2pl` when unset, or `si`); an
//! unknown mode is refused at startup.
//!
//! HA flags (`primary`/`replica`/`witness`): `--ha-self <addr>
//! --ha-members <a,b,c>` join the static quorum group (all three must
//! list the same members); `--lease-ms N` sets the lease TTL (default
//! 1500). The primary additionally takes `--sync-replicas N` and
//! `--sync-policy block|degrade:<ms>` to gate commit acks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{CheckpointPolicy, Database, DbConfig, EngineMode};
use bullfrog_ha::{HaConfig, HaMember, HaNode, Role};
use bullfrog_net::wire::HaReq;
use bullfrog_net::{stat, Client, Server, ServerConfig};
use bullfrog_repl::{restore, Replica, ReplicationSender};
use bullfrog_txn::{EpochStore, SyncPolicy, WalOptions};

/// Parsed `--flag value` / bare `--flag` command line.
struct Opts {
    cmd: String,
    values: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

impl Opts {
    fn parse() -> Opts {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            usage_exit();
        }
        let cmd = args.remove(0);
        let mut values = std::collections::HashMap::new();
        let mut switches = std::collections::HashSet::new();
        let mut it = args.into_iter().peekable();
        while let Some(flag) = it.next() {
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked");
                    values.insert(flag, value);
                }
                _ => {
                    switches.insert(flag);
                }
            }
        }
        Opts {
            cmd,
            values,
            switches,
        }
    }

    fn require(&self, name: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{} requires {name}", self.cmd)))
    }

    fn get(&self, name: &str) -> Option<String> {
        self.values.get(name).cloned()
    }

    fn num(&self, name: &str, default: u64) -> u64 {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| fail(&format!("{name} must be numeric, got {v}")))
            })
            .unwrap_or(default)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The HA group config, when `--ha-self`/`--ha-members` are given.
    fn ha_config(&self) -> Option<HaConfig> {
        let self_addr = self.get("--ha-self")?;
        let members: Vec<String> = self
            .require("--ha-members")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !members.contains(&self_addr) {
            fail("--ha-members must include --ha-self");
        }
        Some(HaConfig {
            self_addr,
            members,
            lease_ttl: Duration::from_millis(self.num("--lease-ms", 1500)),
        })
    }
}

fn main() {
    let opts = Opts::parse();
    match opts.cmd.as_str() {
        "primary" => run_primary(&opts),
        "replica" => run_replica(&opts),
        "witness" => run_witness(&opts),
        "status" => run_status(&opts),
        "promote" => {
            let mut client = connect(&opts.require("--addr"));
            let reply = client
                .ha(HaReq::Promote)
                .unwrap_or_else(|e| fail(&format!("PROMOTE: {e}")));
            if !reply.granted {
                fail(&format!(
                    "{} refused promotion (role {})",
                    opts.require("--addr"),
                    reply.role
                ));
            }
            println!("repld: promotion requested (election pending majority vote)");
        }
        "wait-promoted" => {
            let timeout = Duration::from_secs(opts.num("--timeout-secs", 30));
            wait_promoted(&opts.require("--addr"), timeout);
        }
        "wait-zero-lag" => {
            let timeout = Duration::from_secs(opts.num("--timeout-secs", 30));
            wait_zero_lag(&opts.require("--addr"), timeout);
        }
        "shutdown" => {
            let mut client = connect(&opts.require("--addr"));
            client
                .shutdown_server()
                .unwrap_or_else(|e| fail(&format!("SHUTDOWN: {e}")));
            println!("repld: shutdown acknowledged");
        }
        _ => usage_exit(),
    }
}

fn run_primary(opts: &Opts) {
    let listen = opts.require("--listen");
    let wal_dir = opts.require("--wal-dir");
    let dir = std::path::PathBuf::from(&wal_dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("create {wal_dir}: {e}")));
    let wal_path = dir.join("repld.wal");
    let config = DbConfig {
        checkpoint_policy: Some(CheckpointPolicy {
            max_resident_records: 4_096,
            max_flushed_bytes: 0,
            poll_interval: Duration::from_millis(50),
        }),
        mode: engine_mode(),
        ..DbConfig::default()
    };
    // restore() handles the empty-directory case too: no sidecar, no
    // journal, empty WAL — a fresh primary.
    let (bf, journal, report) = restore(&wal_path, config, WalOptions::default())
        .unwrap_or_else(|e| fail(&format!("restore from {wal_dir}: {e}")));
    if report.tail_records > 0 || report.image_rows > 0 || report.ddl_applied > 0 {
        println!(
            "repld: restored {} image rows + {} tail records ({} txns), {} DDL events, \
             {} granules, log [{}, {}), epoch {}",
            report.image_rows,
            report.tail_records,
            report.tail_txns,
            report.ddl_applied,
            report.granules,
            report.start_lsn,
            report.end_lsn,
            report.epoch,
        );
    }
    // Re-open the sidecar restore() merged: authoritative from here on.
    let epoch = EpochStore::open(&wal_path).unwrap_or_else(|e| fail(&format!("epoch store: {e}")));
    let gate = bf.db().wal().sync_gate();
    gate.set_required(opts.num("--sync-replicas", 0) as usize);
    if let Some(policy) = opts.get("--sync-policy") {
        gate.set_policy(parse_sync_policy(&policy));
    }
    let sender = ReplicationSender::with_epoch(Arc::clone(&bf), Arc::clone(&journal), epoch);
    let epoch = Arc::clone(sender.epoch_store());

    let mut ha_node = None;
    let mut server_config = ServerConfig {
        replication: Some(sender),
        ..ServerConfig::default()
    };
    if let Some(ha) = opts.ha_config() {
        let member = HaMember::new(ha, epoch, Role::Leader, Some(Arc::clone(&gate)));
        server_config.ha = Some(Arc::clone(&member) as _);
        ha_node = Some(HaNode::spawn(member, None));
    }
    let mut server = Server::bind(listen.as_str(), bf, server_config)
        .unwrap_or_else(|e| fail(&format!("bind {listen}: {e}")));
    println!("repld: primary serving on {}", server.local_addr());
    server.wait_shutdown();
    if let Some(mut node) = ha_node {
        node.shutdown();
    }
    println!("repld: primary stopped");
}

fn run_replica(opts: &Opts) {
    let listen = opts.require("--listen");
    let primary = opts.require("--primary");
    let config = DbConfig {
        mode: engine_mode(),
        ..DbConfig::default()
    };
    // A promotable replica wants a file-backed WAL + epoch sidecar: the
    // promotion's epoch bump must survive a restart of this process.
    let wal_path = opts.get("--wal-dir").map(|wal_dir| {
        let dir = std::path::PathBuf::from(&wal_dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("create {wal_dir}: {e}")));
        dir.join("repld.wal")
    });
    let db = Arc::new(match &wal_path {
        Some(path) => Database::with_wal_file(config, path)
            .unwrap_or_else(|e| fail(&format!("open WAL: {e}"))),
        None => Database::with_config(config),
    });
    let epoch = match &wal_path {
        Some(path) => EpochStore::open(path).unwrap_or_else(|e| fail(&format!("epoch store: {e}"))),
        None => EpochStore::volatile(),
    };
    let bf = Arc::new(Bullfrog::new(db));
    let replica = Replica::start_with_epoch(primary.clone(), Arc::clone(&bf), Arc::clone(&epoch));
    let read_only = replica.read_only();
    let gate = bf.db().wal().sync_gate();
    gate.set_leader_hint(Some(primary.clone()));

    let mut ha_node = None;
    let mut server_config = ServerConfig {
        read_only: Some(read_only),
        ..ServerConfig::default()
    };
    let replica = Arc::new(parking_lot::Mutex::new(replica));
    if let Some(ha) = opts.ha_config() {
        let member = HaMember::new(ha, epoch, Role::Follower, Some(gate));
        server_config.ha = Some(Arc::clone(&member) as _);
        ha_node = Some(HaNode::spawn(member, Some(Arc::clone(&replica))));
    }
    let mut server = Server::bind(listen.as_str(), bf, server_config)
        .unwrap_or_else(|e| fail(&format!("bind {listen}: {e}")));
    println!(
        "repld: replica serving on {} (primary {primary})",
        server.local_addr()
    );
    server.wait_shutdown();
    if let Some(mut node) = ha_node {
        node.shutdown();
    }
    replica.lock().shutdown();
    println!("repld: replica stopped");
}

fn run_witness(opts: &Opts) {
    let listen = opts.require("--listen");
    let ha = opts
        .ha_config()
        .unwrap_or_else(|| fail("witness requires --ha-self and --ha-members"));
    // The witness's ballot must survive restarts, or a crash could let
    // it vote twice at one epoch: persist the sidecar when a directory
    // is given.
    let epoch = match opts.get("--wal-dir") {
        Some(wal_dir) => {
            let dir = std::path::PathBuf::from(&wal_dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| fail(&format!("create {wal_dir}: {e}")));
            EpochStore::open(dir.join("repld.wal"))
                .unwrap_or_else(|e| fail(&format!("epoch store: {e}")))
        }
        None => EpochStore::volatile(),
    };
    let member = HaMember::new(ha, epoch, Role::Witness, None);
    let bf = Arc::new(Bullfrog::new(Arc::new(Database::new())));
    let mut server = Server::bind(
        listen.as_str(),
        bf,
        ServerConfig {
            ha: Some(member as _),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("bind {listen}: {e}")));
    println!("repld: witness serving on {}", server.local_addr());
    server.wait_shutdown();
    println!("repld: witness stopped");
}

/// One line of operational truth: role, epoch, leader, lease left,
/// sync lag. `--json` for machines, `--full` for every STATUS pair.
fn run_status(opts: &Opts) {
    let addr = opts.require("--addr");
    let mut client = connect(&addr);
    let status = client
        .status()
        .unwrap_or_else(|e| fail(&format!("STATUS: {e}")));
    if opts.has("--full") {
        // Routinely piped into `grep -q`, which closes the pipe at
        // first match — treat EPIPE as "reader satisfied", not a panic.
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        for (k, v) in status {
            if writeln!(out, "{k} = {v}").is_err() {
                return;
            }
        }
        return;
    }
    let get = |key: &str| stat(&status, key);
    // Prefer the HA member's view; fall back to repl.* gauges on nodes
    // running without a quorum group.
    let (role, epoch, leader, lease_ms) = match client.ha_state() {
        Ok(st) => (st.role, st.epoch, st.leader, st.lease_ms),
        Err(_) => {
            let role = if get("repl.role_primary") == Some(1) {
                "primary"
            } else if get("repl.role_replica") == Some(1) {
                "replica"
            } else {
                "standalone"
            };
            let epoch = get("repl.epoch").unwrap_or(0).max(0) as u64;
            (role.to_string(), epoch, String::new(), 0)
        }
    };
    let sync_lag = get("repl.lag_lsns").unwrap_or(0);
    // Latency truth rides along from METRICS: commit p50/p99 plus the
    // p99 of every migration phase that has fired. Best-effort — an
    // older peer without the opcode just omits the fields.
    let (commit_p50, commit_p99, phases) = match client.metrics() {
        Ok(snap) => {
            let commit = snap.histogram("engine.commit_us");
            let p50 = commit.map_or(0, |h| h.quantile(0.50));
            let p99 = commit.map_or(0, |h| h.quantile(0.99));
            let mut phases = String::new();
            for (label, name) in [
                ("granule", "migrate.granule_us"),
                ("quiesce", "migrate.quiesce_us"),
                ("flip", "migrate.flip_us"),
                ("finalize", "migrate.finalize_us"),
            ] {
                if let Some(h) = snap.histogram(name) {
                    if h.count() > 0 {
                        phases.push_str(&format!(" {label}_p99_us={}", h.quantile(0.99)));
                    }
                }
            }
            (p50, p99, phases)
        }
        Err(_) => (0, 0, String::new()),
    };
    if opts.has("--json") {
        println!(
            "{{\"role\":\"{role}\",\"epoch\":{epoch},\"leader\":\"{leader}\",\
             \"lease_ms\":{lease_ms},\"sync_lag\":{sync_lag},\
             \"commit_p50_us\":{commit_p50},\"commit_p99_us\":{commit_p99}}}"
        );
    } else {
        println!(
            "role={role} epoch={epoch} leader={} lease_ms={lease_ms} sync_lag={sync_lag} \
             commit_p50_us={commit_p50} commit_p99_us={commit_p99}{phases}",
            if leader.is_empty() { "-" } else { &leader }
        );
    }
}

/// Polls until the node reports itself promoted (it bumped the epoch
/// and went writable), via the `repl.promoted` gauge.
fn wait_promoted(addr: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        // Reconnect per poll: the node may still be mid-promotion (or
        // the listener mid-start) when we first ask.
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok(status) = client.status() {
                let get = |key: &str| stat(&status, key);
                if get("repl.promoted") == Some(1) {
                    let epoch = get("repl.epoch").unwrap_or(0);
                    println!("repld: {addr} promoted (epoch {epoch})");
                    return;
                }
            }
        }
        if Instant::now() >= deadline {
            fail(&format!("timed out waiting for {addr} to promote"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `STATUS` until replication lag reads zero. On a primary that
/// additionally requires a connected, fully-acked replica; on a replica
/// it requires the applied LSN to have reached the primary's durable
/// horizon.
fn wait_zero_lag(addr: &str, timeout: Duration) {
    let mut client = connect(addr);
    let deadline = Instant::now() + timeout;
    let mut last = Vec::new();
    loop {
        let status = client
            .status()
            .unwrap_or_else(|e| fail(&format!("STATUS: {e}")));
        let get = |key: &str| stat(&status, key);
        let settled = if get("repl.role_primary") == Some(1) {
            get("repl.replicas").unwrap_or(0) >= 1 && get("repl.lag_lsns") == Some(0)
        } else if get("repl.role_replica") == Some(1) {
            get("repl.lag_lsns") == Some(0)
        } else {
            fail(&format!(
                "{addr} reports no repl.* role — not a replication node"
            ))
        };
        if settled {
            println!("repld: zero lag at {addr}");
            return;
        }
        if Instant::now() >= deadline {
            fail(&format!(
                "timed out waiting for zero lag at {addr}: {last:?}"
            ));
        }
        last = status
            .into_iter()
            .filter(|(k, _)| k.starts_with("repl."))
            .collect();
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn parse_sync_policy(s: &str) -> SyncPolicy {
    if s.eq_ignore_ascii_case("block") {
        return SyncPolicy::Block;
    }
    if let Some(ms) = s.strip_prefix("degrade:") {
        let ms: u64 = ms
            .parse()
            .unwrap_or_else(|_| fail(&format!("--sync-policy degrade:<ms>, got {s}")));
        return SyncPolicy::Degrade(Duration::from_millis(ms));
    }
    fail(&format!(
        "--sync-policy must be block or degrade:<ms>, got {s}"
    ))
}

/// The deployment's engine mode ([`EngineMode::from_env`]); an unknown
/// one is fatal.
fn engine_mode() -> EngineMode {
    EngineMode::from_env().unwrap_or_else(|e| fail(&format!("BULLFROG_ENGINE_MODE: {e}")))
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("repld: {msg}");
    std::process::exit(1);
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: repld primary --listen <addr> --wal-dir <dir> [--sync-replicas N] \
         [--sync-policy block|degrade:<ms>] [HA flags]\n\
         \x20      repld replica --listen <addr> --primary <addr> [--wal-dir <dir>] [HA flags]\n\
         \x20      repld witness --listen <addr> [--wal-dir <dir>] [HA flags]\n\
         \x20      repld promote --addr <addr>\n\
         \x20      repld wait-promoted --addr <addr> [--timeout-secs N]\n\
         \x20      repld status --addr <addr> [--json|--full]\n\
         \x20      repld wait-zero-lag --addr <addr> [--timeout-secs N]\n\
         \x20      repld shutdown --addr <addr>\n\
         HA flags: --ha-self <addr> --ha-members <a,b,c> [--lease-ms N]"
    );
    std::process::exit(2);
}
