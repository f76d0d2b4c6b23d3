//! Host facts for the run's record: a ledger entry must say what it ran
//! on. Everything is read from `/proc` and the checkout; nothing is
//! spawned.

use std::path::Path;

use crate::json::Json;

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The filesystem type of the longest mount point that is a prefix of
/// `dir` (the WAL of `transfer_durable` lives there).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The commit the checkout is at, from `.git` (a driver's checkout has
/// none and reads "unknown").
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(Path::new(".git").join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// `VmHWM` of this process, which hosts the server and the generator.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn facts(wal_dir: &Path) -> Json {
    let unknown = || "unknown".to_string();
    // The host's CPUs, not the one the run is pinned to.
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "kernel",
            Json::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "cpu_model",
            Json::Str(first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "wal_dir_fs",
            Json::Str(filesystem_of(wal_dir).unwrap_or_else(unknown)),
        ),
        ("git_rev", Json::Str(git_rev().unwrap_or_else(unknown))),
    ])
}
