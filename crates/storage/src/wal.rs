//! Write-ahead log.
//!
//! The WAL is a single append-only file of CRC-framed records. Each frame
//! is `[len: u32][crc: u32][payload: len bytes]`. A record whose frame is
//! truncated or whose CRC fails marks the logical end of the log (a "torn
//! tail", the expected result of a crash mid-append); replay stops there.
//!
//! Record payloads encode the engine's [`BatchOp`]s — `Put` and `Delete`
//! — and `Commit` (transaction boundary; its txid is the batch's LSN). A
//! commit frames each op straight from the borrowed batch
//! ([`Wal::append_op`]) into one buffer the log reuses. A frame that
//! passes its CRC but does not decode — the retired tag-4 checkpoint and
//! tag-5 range-tombstone frames, or any tag this build does not know —
//! is not a torn tail: replay fails with [`StorageError::Unsupported`]
//! rather than drop the acknowledged commits after it.
//!
//! A failed write, flush or sync poisons the log: the frames still
//! buffered are dropped unwritten, and every later append, sync and
//! rotation fails with [`StorageError::Poisoned`]. Retrying would land
//! the failed batch's frames, its `Commit` frame included, ahead of the
//! next commit's, so a batch its caller was told had failed would come
//! back after a reopen.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec;
use crate::crc32;
use crate::error::{StorageError, StorageResult};

/// One operation inside an atomic batch, and the payload of one WAL
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Upsert `key` in `table`.
    Put {
        /// Target table.
        table: String,
        /// Key to upsert.
        key: Vec<u8>,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Delete `key` from `table`.
    Delete {
        /// Target table.
        table: String,
        /// Key to delete.
        key: Vec<u8>,
    },
}

impl BatchOp {
    /// The op's table, key and value (`None` for a delete).
    pub(crate) fn parts(&self) -> (&str, &[u8], Option<&[u8]>) {
        match self {
            BatchOp::Put { table, key, value } => (table, key, Some(value)),
            BatchOp::Delete { table, key } => (table, key, None),
        }
    }
}

/// Logical records of the WAL: batch operations and the commit frames
/// that make them visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One operation of the batch the next `Commit` closes.
    Op(BatchOp),
    /// All operations since the previous `Commit` become visible atomically.
    Commit {
        /// Transaction id assigned by the engine — the batch's LSN.
        txid: u64,
    },
}

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_COMMIT: u8 = 3;
// Tags 4 (checkpoint) and 5 (range tombstone) are retired formats and
// never reused: a frame carrying one fails replay as unsupported.

fn encode_op(out: &mut Vec<u8>, op: &BatchOp) {
    match op {
        BatchOp::Put { table, key, value } => {
            out.push(TAG_PUT);
            codec::put_bytes(out, table.as_bytes());
            codec::put_bytes(out, key);
            codec::put_bytes(out, value);
        }
        BatchOp::Delete { table, key } => {
            out.push(TAG_DELETE);
            codec::put_bytes(out, table.as_bytes());
            codec::put_bytes(out, key);
        }
    }
}

fn table_name(bytes: &[u8]) -> StorageResult<String> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| StorageError::Decode("non-utf8 table name".into()))
}

impl WalRecord {
    /// Append the record payload (without framing) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Op(op) => encode_op(out, op),
            WalRecord::Commit { txid } => {
                out.push(TAG_COMMIT);
                codec::put_u64(out, *txid);
            }
        }
    }

    /// Serialize the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Decode a record payload produced by [`WalRecord::encode`].
    pub fn decode(buf: &[u8]) -> StorageResult<WalRecord> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| StorageError::Decode("empty WAL record".into()))?;
        let op = match tag {
            TAG_PUT => {
                let (table, n) = codec::get_bytes(rest)?;
                let (key, m) = codec::get_bytes(&rest[n..])?;
                let (value, _) = codec::get_bytes(&rest[n + m..])?;
                BatchOp::Put {
                    table: table_name(table)?,
                    key: key.to_vec(),
                    value: value.to_vec(),
                }
            }
            TAG_DELETE => {
                let (table, n) = codec::get_bytes(rest)?;
                let (key, _) = codec::get_bytes(&rest[n..])?;
                BatchOp::Delete {
                    table: table_name(table)?,
                    key: key.to_vec(),
                }
            }
            TAG_COMMIT => {
                let (txid, _) = codec::get_u64(rest)?;
                return Ok(WalRecord::Commit { txid });
            }
            other => return Err(StorageError::Decode(format!("unknown WAL tag {other}"))),
        };
        Ok(WalRecord::Op(op))
    }
}

/// Append handle over the WAL file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// `None` once a write, flush or sync has failed: the log is
    /// poisoned and its buffered frames are gone.
    writer: Option<BufWriter<File>>,
    /// Bytes durably framed so far (logical length).
    len: u64,
    /// Whether `fsync` is issued on every [`Wal::sync`].
    fsync: bool,
    /// Frame buffer every append encodes into, reused across appends.
    frame: Vec<u8>,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path`, positioned for append.
    ///
    /// `fsync = false` is useful for tests and benchmarks where durability
    /// across power loss is not under test.
    pub fn open(path: &Path, fsync: bool) -> StorageResult<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            path: path.to_path_buf(),
            writer: Some(BufWriter::new(file)),
            len,
            fsync,
            frame: Vec::new(),
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical length in bytes (frames written so far).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no frame has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `Err(`[`StorageError::Poisoned`]`)` once a failed write, flush or
    /// sync has poisoned the log.
    pub fn writable(&self) -> StorageResult<()> {
        match self.writer {
            Some(_) => Ok(()),
            None => Err(StorageError::Poisoned),
        }
    }

    /// Pass `result` on, poisoning the log when it failed: the frames
    /// still buffered are dropped unwritten, so neither a later sync or
    /// rotation nor dropping the handle can land them.
    fn poison_on<T>(&mut self, result: std::io::Result<T>) -> StorageResult<T> {
        if result.is_err() {
            if let Some(writer) = self.writer.take() {
                drop(writer.into_parts());
            }
        }
        Ok(result?)
    }

    /// Append one framed record. The record is buffered; call [`Wal::sync`]
    /// to make it durable.
    pub fn append(&mut self, record: &WalRecord) -> StorageResult<()> {
        self.write_frame(|out| record.encode_into(out))
    }

    /// Append one framed operation, encoded straight from the borrowed
    /// op: the commit path logs a batch without copying it.
    pub fn append_op(&mut self, op: &BatchOp) -> StorageResult<()> {
        self.write_frame(|out| encode_op(out, op))
    }

    /// Encode a payload behind room for its header, then fill in the
    /// header and hand the whole frame to the writer.
    fn write_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> StorageResult<()> {
        let Some(writer) = self.writer.as_mut() else {
            return Err(StorageError::Poisoned);
        };
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 8]);
        encode(frame);
        let written = match u32::try_from(frame.len() - 8) {
            Ok(len) => {
                let crc = crc32::checksum(&frame[8..]);
                frame[..4].copy_from_slice(&len.to_le_bytes());
                frame[4..8].copy_from_slice(&crc.to_le_bytes());
                writer.write_all(frame)
            }
            Err(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "WAL record larger than 4 GiB",
            )),
        };
        self.poison_on(written)?;
        self.len += self.frame.len() as u64;
        Ok(())
    }

    /// Flush buffered frames to the OS (and to disk when fsync is enabled).
    pub fn sync(&mut self) -> StorageResult<()> {
        let Some(writer) = self.writer.as_mut() else {
            return Err(StorageError::Poisoned);
        };
        let mut synced = writer.flush();
        if self.fsync && synced.is_ok() {
            synced = writer.get_ref().sync_data();
        }
        self.poison_on(synced)
    }

    /// Rotate the log: move the current file to `frozen` and continue
    /// appending to a fresh, empty file at the original path.
    ///
    /// This is the flush's way of releasing writers immediately — the
    /// frozen segment keeps covering the frozen memtable until its run is
    /// committed, while new commits land in the fresh segment. If the
    /// fresh segment cannot be opened the rename is rolled back so the
    /// handle and the path stay in agreement.
    pub fn rotate_to(&mut self, frozen: &Path) -> StorageResult<()> {
        self.sync()?;
        std::fs::rename(&self.path, frozen)?;
        match OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
        {
            Ok(file) => {
                self.writer = Some(BufWriter::new(file));
                self.len = 0;
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::rename(frozen, &self.path);
                Err(e.into())
            }
        }
    }
}

/// Outcome of replaying a WAL file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Records up to (and excluding) the first torn/corrupt frame.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last `Commit` frame: the committed
    /// prefix. Bytes after it are a torn frame or operations whose commit
    /// never landed.
    pub committed_len: u64,
    /// True when a torn tail was detected and discarded.
    pub torn_tail: bool,
}

/// Replay the WAL at `path`, tolerating a torn tail.
///
/// Returns all complete, CRC-valid records in order. A missing file is
/// treated as an empty log. A non-empty, CRC-valid frame that does not
/// decode fails the replay with [`StorageError::Unsupported`] naming the
/// file and the frame's offset; the file is only read, never changed.
/// (An empty frame — `len = 0`, and the CRC of nothing is 0 — is what a
/// zero-filled tail looks like, so it counts as torn.)
pub fn replay(path: &Path) -> StorageResult<Replay> {
    let mut out = Replay::default();
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    let mut pos = 0usize;
    while pos < buf.len() {
        if buf.len() - pos < 8 {
            out.torn_tail = true;
            break;
        }
        let (len, _) = codec::get_u32(&buf[pos..])?;
        let (crc, _) = codec::get_u32(&buf[pos + 4..])?;
        let start = pos + 8;
        let end = match start.checked_add(len as usize) {
            Some(e) if e <= buf.len() => e,
            _ => {
                out.torn_tail = true;
                break;
            }
        };
        let payload = &buf[start..end];
        if payload.is_empty() || crc32::checksum(payload) != crc {
            out.torn_tail = true;
            break;
        }
        match WalRecord::decode(payload) {
            Ok(r) => {
                if matches!(r, WalRecord::Commit { .. }) {
                    out.committed_len = end as u64;
                }
                out.records.push(r)
            }
            Err(e) => {
                return Err(StorageError::Unsupported {
                    path: path.to_path_buf(),
                    reason: format!("WAL frame at offset {pos} does not decode ({e})"),
                })
            }
        }
        pos = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-wal-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn put(table: &str, k: &[u8], v: &[u8]) -> WalRecord {
        WalRecord::Op(BatchOp::Put {
            table: table.into(),
            key: k.to_vec(),
            value: v.to_vec(),
        })
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let records = [
            put("records", b"k1", b"v1"),
            WalRecord::Op(BatchOp::Delete {
                table: "records".into(),
                key: b"k1".to_vec(),
            }),
            WalRecord::Commit { txid: 42 },
        ];
        for r in &records {
            assert_eq!(&WalRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn append_then_replay() {
        let path = tmpfile("append");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), 2);
        assert!(!rep.torn_tail);
        assert_eq!(rep.committed_len, wal.len());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmpfile("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.append(&put("t", b"b", b"2")).unwrap();
        wal.sync().unwrap();
        // Simulate crash mid-write of the last frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), 2);
        assert!(rep.torn_tail);
        assert!(rep.committed_len > 0 && rep.committed_len < full.len() as u64);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmpfile("crc");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&put("t", b"b", b"2")).unwrap();
        wal.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second frame.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), 1);
        assert!(rep.torn_tail);
    }

    /// Frame `payload` exactly as [`Wal::append`] does.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u32(&mut out, payload.len() as u32);
        codec::put_u32(&mut out, crc32::checksum(payload));
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn undecodable_frame_fails_replay_and_leaves_the_log_alone() {
        let path = tmpfile("tag4");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        let offset = wal.len();
        // A CRC-valid tag-4 (retired checkpoint) frame, then a committed
        // put that a torn-tail reading would silently drop.
        let mut tag4 = vec![4u8];
        codec::put_u64(&mut tag4, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend(frame(&tag4));
        bytes.extend(frame(&put("t", b"b", b"2").encode()));
        bytes.extend(frame(&WalRecord::Commit { txid: 2 }.encode()));
        std::fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Err(StorageError::Unsupported { path: p, reason }) => {
                assert_eq!(p, path);
                assert!(reason.contains(&format!("offset {offset}")), "{reason}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "log unchanged");
    }

    #[test]
    fn zero_filled_tail_is_torn_not_unsupported() {
        let path = tmpfile("zeros");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend([0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), 2);
        assert!(rep.torn_tail);
    }

    #[test]
    fn rotate_freezes_old_frames_and_starts_fresh() {
        let path = tmpfile("rotate");
        let frozen = path.with_file_name("wal.frozen");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&frozen);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&frozen).unwrap();
        assert!(wal.is_empty(), "fresh segment starts at zero");
        // The frozen segment holds the old frames; the live one is empty.
        assert_eq!(replay(&frozen).unwrap().records.len(), 2);
        assert!(replay(&path).unwrap().records.is_empty());
        // And the live segment keeps accepting appends.
        wal.append(&put("t", b"b", b"2")).unwrap();
        wal.append(&WalRecord::Commit { txid: 2 }).unwrap();
        wal.sync().unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 2);
        assert_eq!(replay(&frozen).unwrap().records.len(), 2, "untouched");
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmpfile("missing").join("nonexistent.log");
        let rep = replay(&path).unwrap();
        assert!(rep.records.is_empty());
        assert!(!rep.torn_tail);
    }

    /// The fixed op list framed by an earlier build (a 40-byte value
    /// spans five slicing-by-8 words; every payload ends in a partial
    /// word): a put, a delete, two range-tombstone (tag-5) frames at
    /// bytes [`TAG5_FRAMES`], and a commit. Any change to the frame
    /// layout, the op encoding or the checksum breaks this.
    const GOLDEN_HEX: &str = "\
        3e000000c4aa053901077265636f7264730b464e4a562d303030303031285a7f1035cee384\
        59721728cde6bb5c710a2fc0e5be53740922c798bd566b0c21fa9fb0556e0324f92e000000\
        056c41dd02155f5f6964783a7265636f7264733a737065636965731668796c612066616265\
        7200464e4a562d30303030303122000000ff08953905077265636f7264730b464e4a562d30\
        3030313030010b464e4a562d30303032303021000000a7ae634f05115f5f7365617263683a\
        706f7374696e67730c737065636965730068796c610009000000271a6a1f03080706050403\
        0201";

    /// Where [`GOLDEN_HEX`]'s two retired tag-5 frames sit.
    const TAG5_FRAMES: std::ops::Range<usize> = 124..207;

    /// The golden ops this build still frames: the put, the delete and
    /// the commit.
    fn golden_records() -> Vec<WalRecord> {
        let value: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        vec![
            WalRecord::Op(BatchOp::Put {
                table: "records".into(),
                key: b"FNJV-000001".to_vec(),
                value,
            }),
            WalRecord::Op(BatchOp::Delete {
                table: "__idx:records:species".into(),
                key: b"hyla faber\0FNJV-000001".to_vec(),
            }),
            WalRecord::Commit {
                txid: 0x0102_0304_0506_0708,
            },
        ]
    }

    #[test]
    fn frames_match_the_golden_bytes_and_replay() {
        let path = tmpfile("golden");
        let _ = std::fs::remove_file(&path);
        let records = golden_records();
        let mut wal = Wal::open(&path, false).unwrap();
        for r in &records {
            match r {
                WalRecord::Op(op) => wal.append_op(op).unwrap(),
                commit => wal.append(commit).unwrap(),
            }
        }
        wal.sync().unwrap();
        let golden = codec::from_hex(GOLDEN_HEX);
        let mut want = golden.clone();
        want.drain(TAG5_FRAMES);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records, records);
        assert_eq!(rep.committed_len, wal.len());
        // The record-at-a-time path frames the same bytes.
        let again = tmpfile("golden-records");
        let _ = std::fs::remove_file(&again);
        let mut wal = Wal::open(&again, false).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(
            std::fs::read(&again).unwrap(),
            std::fs::read(&path).unwrap()
        );
        // The whole golden log, tag-5 frames included, fails replay at the
        // first of them and stays as it was.
        std::fs::write(&path, &golden).unwrap();
        match replay(&path) {
            Err(StorageError::Unsupported { path: p, reason }) => {
                assert_eq!(p, path);
                assert!(
                    reason.contains(&format!("offset {}", TAG5_FRAMES.start)),
                    "{reason}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), golden, "log unchanged");
    }

    /// A failed write poisons the log: the frames still buffered are
    /// dropped, never written by a later sync or by dropping the handle,
    /// and every later append, sync and rotation is refused.
    #[test]
    fn failed_write_poisons_and_drops_buffered_frames() {
        let path = tmpfile("poison");
        let frozen = path.with_file_name("wal.frozen");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&put("t", b"a", b"1")).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        let committed = std::fs::read(&path).unwrap();
        wal.append(&put("t", b"b", b"2")).unwrap();
        wal.append(&WalRecord::Commit { txid: 2 }).unwrap();
        // Fail the next write as a full disk would.
        let failed = wal.poison_on::<()>(Err(std::io::Error::other("disk full")));
        assert!(matches!(failed, Err(StorageError::Io(_))));
        assert!(matches!(wal.writable(), Err(StorageError::Poisoned)));
        assert!(matches!(
            wal.append(&put("t", b"c", b"3")),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(wal.sync(), Err(StorageError::Poisoned)));
        assert!(matches!(
            wal.rotate_to(&frozen),
            Err(StorageError::Poisoned)
        ));
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), committed, "nothing landed");
        assert!(!frozen.exists());
    }
}
