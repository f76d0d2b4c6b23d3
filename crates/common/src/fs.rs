//! Crash-safe file replacement.
//!
//! A rename is a change to the directory, not to the file: until the
//! directory itself is synced, a power loss may bring back the old entry
//! even though the new file's bytes were synced. [`durable_rename`] is the
//! one way the workspace replaces a file with a freshly written one (WAL
//! rotation, the checkpoint sidecar, the epoch sidecar).

use std::io;
use std::path::Path;

/// Replaces `to` with `from`, durably: `from` is synced, then renamed
/// over `to`, then `to`'s directory is synced. Any failure is returned;
/// when it returns `Ok`, a power loss keeps the new file under the new
/// name.
pub fn durable_rename(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::File::open(from)?.sync_all()?;
    std::fs::rename(from, to)?;
    sync_dir(parent_dir(to))
}

/// The directory holding `path` (`.` for a bare file name).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

/// Syncs directory `dir`, making the entries created, renamed or removed
/// in it durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bullfrog-fs-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_rename_replaces_every_target() {
        let dir = scratch("replace");
        let (a, a_tmp) = (dir.join("a"), dir.join("a.tmp"));
        let (b, b_tmp) = (dir.join("b"), dir.join("b.tmp"));
        std::fs::write(&a, b"old a").unwrap();
        std::fs::write(&a_tmp, b"new a").unwrap();
        std::fs::write(&b_tmp, b"new b").unwrap();
        durable_rename(&a_tmp, &a).unwrap();
        durable_rename(&b_tmp, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), b"new a");
        assert_eq!(std::fs::read(&b).unwrap(), b"new b");
        assert!(!a_tmp.exists() && !b_tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_rename_fails_when_the_parent_directory_is_missing() {
        let dir = scratch("missing");
        let tmp = dir.join("f.tmp");
        std::fs::write(&tmp, b"bytes").unwrap();
        let to = dir.join("gone").join("f");
        assert!(durable_rename(&tmp, &to).is_err());
        // A missing source is an error too, before anything is renamed.
        assert!(durable_rename(&dir.join("nope"), &dir.join("f")).is_err());
        assert!(sync_dir(&dir.join("gone")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
