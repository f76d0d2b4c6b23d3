//! The fencing epoch: a monotonic counter persisted **beside** the WAL
//! (sidecar file `<wal>.epoch`) that names which incarnation of the
//! primary is allowed to acknowledge writes and ship log frames.
//!
//! Every replication handshake, shipped frame, and ack carries the
//! sender's epoch. A replica promoted to primary bumps the epoch after
//! winning a majority vote; peers that observe a higher epoch than their
//! own know they are talking to (or worse, *are*) a deposed primary and
//! must fence. The store also persists the member's last vote so a
//! crash-and-restart cannot grant two candidates the same epoch.
//!
//! Durability contract: `bump`, `observe`, and `record_vote` fsync
//! through a temp-file + rename before returning, so a granted vote or
//! adopted epoch can never regress across a crash. The WAL additionally
//! carries [`crate::wal::LogRecord::Epoch`] records (written at
//! promotion), so even a lost sidecar is reconstructed by recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bullfrog_common::fs::durable_rename;
use bullfrog_common::{Error, Result};
use parking_lot::Mutex;

/// Sidecar magic ("BullFrog EPOch v1").
const MAGIC: [u8; 6] = *b"BFEPO1";

/// The persisted ballot: the highest epoch this member has adopted and
/// the last vote it granted (Raft-style `votedFor`, keyed by epoch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ballot {
    /// Highest epoch observed or bumped to.
    pub epoch: u64,
    /// Epoch of the last granted vote (0 = never voted).
    pub voted_epoch: u64,
    /// Candidate the vote went to at `voted_epoch`.
    pub voted_for: String,
}

/// The epoch store: in-memory state plus an optional fsynced sidecar.
pub struct EpochStore {
    path: Option<PathBuf>,
    state: Mutex<Ballot>,
}

impl EpochStore {
    /// Opens (or creates) the sidecar beside `wal_path`, loading the
    /// persisted ballot if one exists. A torn or missing file reads as
    /// epoch 0 with no vote.
    pub fn open(wal_path: impl AsRef<Path>) -> Result<Arc<Self>> {
        let path = sidecar_path(wal_path.as_ref());
        let state = match std::fs::read(&path) {
            Ok(bytes) => decode(&bytes).unwrap_or_default(),
            Err(_) => Ballot::default(),
        };
        Ok(Arc::new(EpochStore {
            path: Some(path),
            state: Mutex::new(state),
        }))
    }

    /// A volatile store (no sidecar): for replicas without local state
    /// and for tests. Epochs still only move forward within the process.
    pub fn volatile() -> Arc<Self> {
        Arc::new(EpochStore {
            path: None,
            state: Mutex::new(Ballot::default()),
        })
    }

    /// The sidecar path for a WAL rooted at `wal_path`.
    pub fn path_for(wal_path: &Path) -> PathBuf {
        sidecar_path(wal_path)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// The persisted ballot (epoch + last vote).
    pub fn ballot(&self) -> Ballot {
        self.state.lock().clone()
    }

    /// Raises the epoch to `epoch` if it is higher, persisting the new
    /// ballot first. Returns true when the epoch moved. Lower or equal
    /// epochs are ignored — the store is monotonic by construction.
    pub fn observe(&self, epoch: u64) -> Result<bool> {
        let mut state = self.state.lock();
        if epoch <= state.epoch {
            return Ok(false);
        }
        let mut next = state.clone();
        next.epoch = epoch;
        self.persist(&next)?;
        *state = next;
        Ok(true)
    }

    /// Bumps the epoch by one (promotion), persisting before returning
    /// the new value.
    pub fn bump(&self) -> Result<u64> {
        let mut state = self.state.lock();
        let mut next = state.clone();
        next.epoch += 1;
        self.persist(&next)?;
        *state = next;
        Ok(state.epoch)
    }

    /// Grants a vote to `candidate` at `epoch` if the ballot allows it:
    /// the epoch must be higher than our own, and we must not have voted
    /// for a *different* candidate at that epoch. A granted vote adopts
    /// the epoch (so a failed election still burns it) and is persisted
    /// before this returns true.
    pub fn grant_vote(&self, epoch: u64, candidate: &str) -> Result<bool> {
        let mut state = self.state.lock();
        if epoch <= state.epoch {
            return Ok(false);
        }
        if state.voted_epoch == epoch && state.voted_for != candidate {
            return Ok(false);
        }
        let next = Ballot {
            epoch,
            voted_epoch: epoch,
            voted_for: candidate.to_string(),
        };
        self.persist(&next)?;
        *state = next;
        Ok(true)
    }

    /// Writes `next` to a temp file and [`durable_rename`]s it over the
    /// sidecar, so the sidecar is always a complete ballot (old or new,
    /// never torn) and a power loss cannot undo the rename.
    fn persist(&self, next: &Ballot) -> Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let tmp = path.with_extension("epoch.tmp");
        std::fs::write(&tmp, encode(next))
            .and_then(|()| durable_rename(&tmp, path))
            .map_err(|e| Error::Wal(format!("persist epoch sidecar: {e}")))
    }
}

fn sidecar_path(wal_path: &Path) -> PathBuf {
    let mut name = wal_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".epoch");
    wal_path.with_file_name(name)
}

fn encode(b: &Ballot) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 8 + 8 + 2 + b.voted_for.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&b.epoch.to_be_bytes());
    out.extend_from_slice(&b.voted_epoch.to_be_bytes());
    let name = b.voted_for.as_bytes();
    out.extend_from_slice(&(name.len().min(u16::MAX as usize) as u16).to_be_bytes());
    out.extend_from_slice(&name[..name.len().min(u16::MAX as usize)]);
    out
}

fn decode(bytes: &[u8]) -> Option<Ballot> {
    if bytes.len() < MAGIC.len() + 18 || bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let at = MAGIC.len();
    let epoch = u64::from_be_bytes(bytes[at..at + 8].try_into().ok()?);
    let voted_epoch = u64::from_be_bytes(bytes[at + 8..at + 16].try_into().ok()?);
    let nlen = u16::from_be_bytes(bytes[at + 16..at + 18].try_into().ok()?) as usize;
    let rest = &bytes[at + 18..];
    if rest.len() < nlen {
        return None;
    }
    let voted_for = String::from_utf8(rest[..nlen].to_vec()).ok()?;
    Some(Ballot {
        epoch,
        voted_epoch,
        voted_for,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bf-epoch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn bump_and_observe_persist_across_reopen() {
        let dir = tmpdir("bump");
        let wal = dir.join("db.wal");
        let store = EpochStore::open(&wal).unwrap();
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.bump().unwrap(), 1);
        assert!(store.observe(5).unwrap());
        assert!(!store.observe(3).unwrap());
        drop(store);
        let store = EpochStore::open(&wal).unwrap();
        assert_eq!(store.epoch(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vote_is_single_per_epoch_and_persisted() {
        let dir = tmpdir("vote");
        let wal = dir.join("db.wal");
        let store = EpochStore::open(&wal).unwrap();
        assert!(store.grant_vote(3, "node-b").unwrap());
        // The grant adopted epoch 3, so any further ballot at or below it
        // is refused — one vote per epoch, ever.
        assert!(!store.grant_vote(3, "node-c").unwrap());
        assert!(!store.grant_vote(2, "node-b").unwrap());
        assert_eq!(store.epoch(), 3);
        drop(store);
        let store = EpochStore::open(&wal).unwrap();
        let b = store.ballot();
        assert_eq!(
            (b.epoch, b.voted_epoch, b.voted_for.as_str()),
            (3, 3, "node-b")
        );
        assert!(!store.grant_vote(3, "node-c").unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_sidecar_reads_as_fresh() {
        let dir = tmpdir("torn");
        let wal = dir.join("db.wal");
        std::fs::write(EpochStore::path_for(&wal), b"BFEPO1\x00").unwrap();
        let store = EpochStore::open(&wal).unwrap();
        assert_eq!(store.epoch(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
