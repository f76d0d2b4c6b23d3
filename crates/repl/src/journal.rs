//! The DDL journal: replication's catalog side-channel.
//!
//! BullFrog does not WAL-log DDL — recovery re-creates the catalog from
//! the caller's schema, and a migration's logical flip is an in-memory
//! controller state change. A replica has no caller, so the primary
//! journals every successful DDL statement here: the statement text
//! (re-parsed and re-executed on the replica through the same code path
//! the primary used) plus, for migrations, the primary's tracker
//! dimensions (see [`DdlEvent::Migrate`](bullfrog_net::DdlEvent)).
//!
//! Each entry carries `apply_at_lsn`, the WAL frontier sampled *before*
//! the DDL executed under the journal lock. Any log record that depends
//! on the DDL (an insert into the new table, a migration granule) was
//! necessarily appended at or after that frontier, so a replica that
//! applies the event once its applied LSN reaches `apply_at_lsn` — and
//! never earlier — sees the catalog exactly as the primary's log writers
//! did. The journal lock serializes DDL, so journal order is catalog
//! order and [`TableId`](bullfrog_common::TableId)s assigned by replay
//! match the primary's.
//!
//! The journal is append-only and never truncated: checkpoints compact
//! row history, but catalog history stays (it is tiny — one frame per
//! DDL statement, fsynced per append on file-backed journals).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bullfrog_common::{Error, Result};
use bullfrog_engine::CheckpointImage;
use bullfrog_net::DdlEvent;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

/// Magic prefix of journal files.
const DDL_MAGIC: [u8; 6] = *b"BFDDL1";

/// Magic prefix of encoded snapshots ([`encode_snapshot`]).
const SNAP_MAGIC: [u8; 7] = *b"BFSNAP1";

/// One journaled DDL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Dense sequence number, starting at 0.
    pub seq: u64,
    /// Apply once the replica's applied LSN reaches this (the primary's
    /// WAL frontier just before the DDL executed).
    pub apply_at_lsn: u64,
    /// The statement.
    pub event: DdlEvent,
}

/// Encodes one event as an opaque payload (the form shipped in
/// [`WireDdl`](bullfrog_net::WireDdl) and stored in journal files).
pub fn encode_event(event: &DdlEvent) -> Bytes {
    let mut buf = BytesMut::new();
    match event {
        DdlEvent::Create { sql } => {
            buf.put_u8(0);
            put_str(&mut buf, sql);
        }
        DdlEvent::Migrate { sql, caps } => {
            buf.put_u8(1);
            put_str(&mut buf, sql);
            buf.put_u32(caps.len() as u32);
            for (rows, granule) in caps {
                buf.put_u64(*rows);
                buf.put_u64(*granule);
            }
        }
        DdlEvent::Finalize { sql } => {
            buf.put_u8(2);
            put_str(&mut buf, sql);
        }
    }
    buf.freeze()
}

/// Decodes an event payload.
pub fn decode_event(mut payload: Bytes) -> Result<DdlEvent> {
    if payload.is_empty() {
        return Err(Error::Eval("empty DDL event".into()));
    }
    let tag = payload.get_u8();
    match tag {
        0 => Ok(DdlEvent::Create {
            sql: get_str(&mut payload)?,
        }),
        1 => {
            let sql = get_str(&mut payload)?;
            let n = get_u32(&mut payload)? as usize;
            // Bounded by the bytes left: a hostile count sizes nothing.
            let mut caps = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                caps.push((get_u64(&mut payload)?, get_u64(&mut payload)?));
            }
            Ok(DdlEvent::Migrate { sql, caps })
        }
        2 => Ok(DdlEvent::Finalize {
            sql: get_str(&mut payload)?,
        }),
        other => Err(Error::Eval(format!("unknown DDL event tag {other}"))),
    }
}

fn encode_entry(entry: &JournalEntry) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64(entry.seq);
    buf.put_u64(entry.apply_at_lsn);
    let event = encode_event(&entry.event);
    buf.put_u32(event.len() as u32);
    buf.extend_from_slice(&event);
    buf.freeze()
}

fn decode_entry(mut payload: Bytes) -> Result<JournalEntry> {
    let seq = get_u64(&mut payload)?;
    let apply_at_lsn = get_u64(&mut payload)?;
    let len = get_u32(&mut payload)? as usize;
    if payload.len() < len {
        return Err(Error::Eval("truncated DDL journal entry".into()));
    }
    let event = decode_event(payload.slice(..len))?;
    Ok(JournalEntry {
        seq,
        apply_at_lsn,
        event,
    })
}

struct JournalInner {
    entries: Vec<JournalEntry>,
    file: Option<File>,
}

/// Append-only DDL journal, optionally file-backed (`<wal>.ddl`).
pub struct DdlJournal {
    inner: Mutex<JournalInner>,
}

impl DdlJournal {
    /// An in-memory journal (primaries without a WAL file — tests).
    pub fn in_memory() -> Self {
        DdlJournal {
            inner: Mutex::new(JournalInner {
                entries: Vec::new(),
                file: None,
            }),
        }
    }

    /// The journal path that pairs with a WAL path.
    pub fn path_for(wal_path: &Path) -> PathBuf {
        wal_path.with_extension("ddl")
    }

    /// Opens (or creates) a file-backed journal, loading every complete
    /// entry. A torn final frame (crash mid-append) is dropped — the DDL
    /// it described never acknowledged, matching WAL torn-tail handling.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| Error::Eval(format!("open DDL journal {path:?}: {e}")))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)
            .map_err(|e| Error::Eval(format!("read DDL journal {path:?}: {e}")))?;
        let mut entries = Vec::new();
        if raw.is_empty() {
            file.write_all(&DDL_MAGIC)
                .and_then(|()| file.sync_data())
                .map_err(|e| Error::Eval(format!("init DDL journal {path:?}: {e}")))?;
        } else {
            let mut buf = Bytes::from(raw);
            if buf.len() < DDL_MAGIC.len() || buf.slice(..DDL_MAGIC.len()) != DDL_MAGIC[..] {
                return Err(Error::Eval(format!("{path:?} is not a DDL journal")));
            }
            buf.advance(DDL_MAGIC.len());
            while buf.len() >= 4 {
                let len = u32::from_be_bytes(buf.slice(..4)[..].try_into().unwrap()) as usize;
                if buf.len() < 4 + len {
                    break; // torn tail
                }
                buf.advance(4);
                let entry = decode_entry(buf.slice(..len))?;
                buf.advance(len);
                if entry.seq != entries.len() as u64 {
                    return Err(Error::Eval(format!(
                        "DDL journal sequence gap: entry {} at position {}",
                        entry.seq,
                        entries.len()
                    )));
                }
                entries.push(entry);
            }
        }
        Ok(DdlJournal {
            inner: Mutex::new(JournalInner {
                entries,
                file: Some(file),
            }),
        })
    }

    /// Appends one event; returns its sequence number. File-backed
    /// journals fsync before returning — a journaled DDL survives the
    /// crash that follows it.
    pub fn append(&self, apply_at_lsn: u64, event: DdlEvent) -> Result<u64> {
        let mut inner = self.inner.lock();
        let seq = inner.entries.len() as u64;
        let entry = JournalEntry {
            seq,
            apply_at_lsn,
            event,
        };
        if let Some(file) = &mut inner.file {
            let payload = encode_entry(&entry);
            let mut frame = BytesMut::with_capacity(4 + payload.len());
            frame.put_u32(payload.len() as u32);
            frame.extend_from_slice(&payload);
            file.write_all(&frame)
                .and_then(|()| file.sync_data())
                .map_err(|e| Error::Eval(format!("append DDL journal: {e}")))?;
        }
        inner.entries.push(entry);
        Ok(seq)
    }

    /// Every entry, in sequence order.
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.inner.lock().entries.clone()
    }

    /// Entries at or above `seq`.
    pub fn entries_from(&self, seq: u64) -> Vec<JournalEntry> {
        let inner = self.inner.lock();
        inner
            .entries
            .get(seq as usize..)
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// The next sequence number an append would get.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().entries.len() as u64
    }
}

impl std::fmt::Debug for DdlJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("DdlJournal")
            .field("entries", &inner.entries.len())
            .field("file_backed", &inner.file.is_some())
            .finish()
    }
}

/// Encodes a bootstrap snapshot: the checkpoint image plus the full DDL
/// journal. The image is sampled *before* the journal (see
/// `ReplicationSender::snapshot`): a journal that is newer than the
/// image only adds events the replica defers by `apply_at_lsn`, whereas
/// an image newer than the journal could hold rows of a table whose
/// creation the replica never learns.
pub fn encode_snapshot(image: &CheckpointImage, entries: &[JournalEntry]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(&SNAP_MAGIC);
    let img = image.encode();
    buf.put_u32(img.len() as u32);
    buf.extend_from_slice(&img);
    buf.put_u32(entries.len() as u32);
    for e in entries {
        let payload = encode_entry(e);
        buf.put_u32(payload.len() as u32);
        buf.extend_from_slice(&payload);
    }
    buf.freeze()
}

/// Decodes [`encode_snapshot`]'s payload.
pub fn decode_snapshot(mut payload: Bytes) -> Result<(CheckpointImage, Vec<JournalEntry>)> {
    if payload.len() < SNAP_MAGIC.len() || payload.slice(..SNAP_MAGIC.len()) != SNAP_MAGIC[..] {
        return Err(Error::Eval("bad snapshot magic (want BFSNAP1)".into()));
    }
    payload.advance(SNAP_MAGIC.len());
    let img_len = get_u32(&mut payload)? as usize;
    if payload.len() < img_len {
        return Err(Error::Eval("truncated snapshot image".into()));
    }
    let image = CheckpointImage::decode(payload.slice(..img_len))?;
    payload.advance(img_len);
    let n = get_u32(&mut payload)? as usize;
    // Bounded by the bytes left: a hostile count sizes nothing.
    let mut entries = Vec::with_capacity(n.min(payload.len()));
    for _ in 0..n {
        let len = get_u32(&mut payload)? as usize;
        if payload.len() < len {
            return Err(Error::Eval("truncated snapshot journal entry".into()));
        }
        entries.push(decode_entry(payload.slice(..len))?);
        payload.advance(len);
    }
    Ok((image, entries))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(Error::Eval("truncated string in DDL event".into()));
    }
    let s = String::from_utf8(buf.slice(..len).to_vec())
        .map_err(|_| Error::Eval("DDL event string is not UTF-8".into()))?;
    buf.advance(len);
    Ok(s)
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.len() < 4 {
        return Err(Error::Eval("truncated u32 in DDL journal".into()));
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.len() < 8 {
        return Err(Error::Eval("truncated u64 in DDL journal".into()));
    }
    Ok(buf.get_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<DdlEvent> {
        vec![
            DdlEvent::Create {
                sql: "CREATE TABLE t (id INT, PRIMARY KEY (id))".into(),
            },
            DdlEvent::Migrate {
                sql: "CREATE TABLE t2 AS (SELECT id FROM t) PRIMARY KEY (id)".into(),
                caps: vec![(128, 8), (0, 0)],
            },
            DdlEvent::Finalize {
                sql: "FINALIZE MIGRATION DROP OLD".into(),
            },
        ]
    }

    #[test]
    fn events_round_trip() {
        for e in events() {
            assert_eq!(decode_event(encode_event(&e)).unwrap(), e);
        }
    }

    #[test]
    fn journal_survives_reopen() {
        let path = std::env::temp_dir().join(format!(
            "bf-ddl-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let j = DdlJournal::open(&path).unwrap();
            for (i, e) in events().into_iter().enumerate() {
                assert_eq!(j.append(10 * (i as u64 + 1), e).unwrap(), i as u64);
            }
            assert_eq!(j.next_seq(), 3);
        }
        let j = DdlJournal::open(&path).unwrap();
        let entries = j.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[1].seq, 1);
        assert_eq!(entries[1].apply_at_lsn, 20);
        assert_eq!(
            entries.iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            events()
        );
        assert_eq!(j.entries_from(2).len(), 1);
        // New appends continue the sequence.
        assert_eq!(
            j.append(
                40,
                DdlEvent::Create {
                    sql: "CREATE TABLE u (id INT, PRIMARY KEY (id))".into()
                }
            )
            .unwrap(),
            3
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_round_trips() {
        let mut image = CheckpointImage::new();
        image.base_lsn = 77;
        let entries: Vec<JournalEntry> = events()
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalEntry {
                seq: i as u64,
                apply_at_lsn: 5 * i as u64,
                event,
            })
            .collect();
        let (image2, entries2) = decode_snapshot(encode_snapshot(&image, &entries)).unwrap();
        assert_eq!(image2.base_lsn, 77);
        assert_eq!(entries2, entries);
    }

    /// Every decoder a peer's bytes reach refuses counts it cannot back
    /// with bytes — an error, never an allocation sized by the count (a
    /// 22-byte EXECUTE once asked for 96 GiB and aborted the server).
    #[test]
    fn all_ff_counts_decode_to_errors() {
        use bullfrog_net::{Request, Response};
        use bullfrog_txn::wal::codec;

        let with = |head: &[u8], tail: &[u8]| Bytes::from([head, tail].concat());
        let ff = [0xFFu8; 64];
        // A canonical varint count of u32::MAX with a few bytes behind it.
        let mut huge = Vec::new();
        codec::put_varint(&mut huge, u64::from(u32::MAX));
        huge.extend([2, 2, 2]);

        // EXECUTE: opcode, statement id, then the parameter row's count.
        let execute = [&[0x0B][..], &7u64.to_be_bytes()].concat();
        for tail in [&ff[..9], &ff[..], &huge[..]] {
            assert!(Request::decode(with(&execute, tail)).is_err());
        }
        // FRAMES: opcode, then the durable horizon and every count 0xFF.
        assert!(Response::decode(with(&[0x85], &ff)).is_err());
        let no_ddl = [&[0x85][..], &0u64.to_be_bytes(), &0u32.to_be_bytes()].concat();
        assert!(Response::decode(with(&no_ddl, &ff)).is_err());

        // A checkpoint image: counts of tables, then of granules.
        let image = CheckpointImage::new().encode();
        let header = &image[..7 + 16];
        assert!(CheckpointImage::decode(with(header, &ff)).is_err());
        let no_tables = [header, &0u32.to_be_bytes()].concat();
        assert!(CheckpointImage::decode(with(&no_tables, &ff)).is_err());

        // SNAPSHOT: the image length, then the journal entry count.
        assert!(decode_snapshot(with(&SNAP_MAGIC, &ff)).is_err());
        let mut snap = encode_snapshot(&CheckpointImage::new(), &[]).to_vec();
        snap.truncate(snap.len() - 4);
        assert!(decode_snapshot(with(&snap, &ff)).is_err());
        let mut event = vec![1u8];
        event.extend(0u32.to_be_bytes());
        event.extend(&ff);
        assert!(decode_event(Bytes::from(event)).is_err());
    }
}
