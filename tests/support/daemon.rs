//! Child daemons for the multi-process tests (`repld`).
//!
//! A [`Daemon`] is ready once it has printed its `… serving on <addr>`
//! line and a client has connected to that address. It is killed on
//! drop, so a test that panics leaks no process. Every wait here has a
//! deadline, and its panic names what never arrived.
//!
//! Included by path from each crate's test file that spawns daemons.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bullfrog_engine::EngineMode;

/// The longest any single wait on a child process may take.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// A fresh scratch directory under the system temp dir, named after the
/// test and this process.
pub fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// Polls `ready` every 10 ms until it returns true; panics naming
/// `what` once `timeout` has passed.
pub fn wait_until(what: &str, timeout: Duration, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ready() {
        assert!(
            Instant::now() < deadline,
            "{what} never happened within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls a child until it exits; kills it and panics once `timeout` has
/// passed.
pub fn wait_exit(child: &mut Child, what: &str, timeout: Duration) -> ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `exe args…` to completion and returns its stdout (which must
/// fit the pipe buffer); panics if it fails or outlives [`DEADLINE`].
pub fn run(exe: &str, args: &[&str]) -> String {
    let what = format!("`{exe} {}`", args.join(" "));
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {what}: {e}"));
    let status = wait_exit(&mut child, &what, DEADLINE);
    let mut out = String::new();
    let _ = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out);
    assert!(status.success(), "{what} exited with {status}: {out}");
    out
}

/// A long-running daemon child, killed on drop.
pub struct Daemon {
    name: String,
    addr: String,
    child: Option<Child>,
    stdout_reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `exe args…` in engine mode `mode`, reads the address from
    /// its `serving on` line, and connects once to it.
    pub fn spawn(exe: &str, name: &str, mode: EngineMode, args: &[&str]) -> Daemon {
        let mut child = Command::new(exe)
            .args(args)
            .env("BULLFROG_ENGINE_MODE", mode.as_str())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name} ({exe}): {e}"));
        let stdout = child.stdout.take().expect("piped stdout");
        // Drain every line, so the child never blocks on a full pipe.
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some((_, rest)) = line.split_once(" serving on ") {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut daemon = Daemon {
            name: name.to_string(),
            addr: String::new(),
            child: Some(child),
            stdout_reader: Some(stdout_reader),
        };
        daemon.addr = rx
            .recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("{name} never printed `serving on <addr>`"));
        let addr = daemon.addr.clone();
        wait_until(&format!("a connect to {name} at {addr}"), DEADLINE, || {
            bullfrog_net::Client::connect(addr.as_str()).is_ok()
        });
        daemon
    }

    /// The address the daemon announced.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asserts the daemon's `STATUS` reports `mode` as `engine.mode`
    /// (0 under 2PL, 1 under snapshot isolation).
    pub fn assert_engine_mode(&self, mode: EngineMode) {
        let status = bullfrog_net::Client::connect(self.addr.as_str())
            .and_then(|mut c| c.status())
            .unwrap_or_else(|e| panic!("STATUS from {}: {e}", self.name));
        let reported = status.iter().find(|(k, _)| k == "engine.mode");
        assert_eq!(
            reported.map(|(_, v)| *v),
            Some(i64::from(mode.is_snapshot())),
            "{} runs the wrong engine for {mode:?}",
            self.name
        );
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon already reaped").id()
    }

    /// SIGKILL: the unclean death a failover must survive.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits for the daemon to exit after a remote `SHUTDOWN` and
    /// asserts it exited 0.
    pub fn assert_clean_exit(&mut self) {
        let mut child = self.child.take().expect("daemon already reaped");
        let status = wait_exit(&mut child, &self.name, DEADLINE);
        assert!(status.success(), "{} exited with {status}", self.name);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        // The child is gone, so its stdout is at EOF.
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}
