//! Sorted-run files ("SSTables").
//!
//! One format is written here: the **tiered run** (`run-*.sst`, magic
//! `PRN3`), the immutable multi-version unit of the leveled store. A run
//! is a sequence of ~4 KiB data blocks, a block index, a retired
//! range-tombstone section, a bloom filter and a fixed-size footer:
//!
//! ```text
//! [data block]*                 -- versions sorted by (table, key) asc,
//!                                  then lsn desc
//! [index]                       -- per-block offset/len/crc + first key
//! [range tombstones]            -- count u32, always 0
//! [bloom]                       -- FNV-1a double-hashed bit array
//! [footer: index_off u64 | rt_off u64 | bloom_off u64 | entries u64 |
//!          tombstones u64 | max_lsn u64 | level u32 | tail_crc u32 |
//!          RUN_MAGIC_V3 u32]
//! ```
//!
//! An entry's key is the **namespaced key** `varint(table len) ++ table
//! ++ key`; the length prefix makes the split unambiguous, so a table
//! name may hold any byte. Each entry stores only the length it shares
//! with the previous entry's key and the rest, and its LSN as a varint:
//!
//! ```text
//! varint shared | varint rest_len | varint value | varint lsn | rest | value bytes
//!
//! shared  leading bytes of the previous entry's key; 0 on a block's
//!         first entry, which stores its whole key
//! value   0 for a tombstone, else the value's length + 1
//! ```
//!
//! The `(key asc, lsn desc)` order puts a key's versions and a table's
//! keys side by side, so a version repeats none of its key and a posting
//! pays its table name and token once per block. There is no restart
//! array: every read decodes a block from its first entry (a lookup
//! walks from there to its key, and a cursor that resumes a held block
//! starts it over), so restart points would buy no faster seek, only
//! bytes. There is no table dictionary either: with shared prefixes a
//! table name costs one copy per block.
//!
//! Tombstones round-trip so deletions shadow older runs until
//! compaction folds them out at the bottom level, below the oldest
//! pinned snapshot. The footer records the run's **level** so recovery
//! can rebuild correct read precedence — `(level asc, id desc)` — even
//! when the manifest is lost, and its **max_lsn** so recovery can
//! restore the engine's LSN clock after the WAL segment holding those
//! commits was deleted by a flush. Opening a run reads only index +
//! range-tombstone count + bloom (`tail_crc` covers exactly that
//! region), so open cost is O(index), not O(data); each data block
//! carries its own CRC, verified on every read — no block is cached.
//!
//! Every read of a run goes through one `RunCursor`: it reads one
//! block at a time into a buffer it reuses, verifies the block's CRC and
//! decodes each entry in place, rebuilding the entry's key at the end of
//! the same buffer and lending `(table, key, lsn, value)` out of it, so
//! walking an entry allocates nothing. It starts at
//! the block the index names for a span's first key and never reads a
//! block whose first key lies past the span's end. Point lookups consult
//! the bloom filter first and walk one key's versions, usually within
//! one block (more only when the versions spill across blocks); a lookup
//! can start out holding the block an earlier one verified, and walks
//! those bytes again when its key lies there instead of reading them, so
//! keys looked up in ascending order read each block once. Scans,
//! counts and compactions walk the run as one layer of the
//! `MergeCursor` (`cursor.rs`), which merges the layers
//! of a view by `(key asc, lsn desc)`, so a key's highest LSN wins
//! whichever layer holds it; compaction applies its fold rules to the
//! same stream and hands the survivors to [`write_run`] borrowed.
//!
//! **v2 runs are read, never written.** Every earlier build wrote magic
//! `PRN2`, whose entries are `tag u8 | lsn u64 | len table | len key |
//! [len value]` (tag 0 live, 1 tombstone; length-prefixed byte strings).
//! [`Run::open`] records each run's [`Format`] and the cursor decodes a
//! v2 entry as a v3 entry that shares nothing; that decoder is the only
//! second path. A compaction rewrites v2 inputs as v3, a forced full
//! compaction rewrites even a lone v2 run, and the engine's
//! `preserva_storage_v2_runs` gauge counts the runs left to rewrite.
//!
//! Two forms only older builds wrote open as
//! [`StorageError::Unsupported`], never as corruption, so recovery leaves
//! them on disk instead of deleting them: a file ending in the v1 magic
//! (`PRUN`, single-version entries without LSNs), and a run whose
//! range-tombstone count is not zero (range deletes are retired; this
//! build writes every run with a zero count).

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use crate::codec;
use crate::crc32;
use crate::cursor::{RawVersion, Span};
use crate::error::{StorageError, StorageResult};
use crate::memtable::{NsKey, VersionRef};
use crate::snapshot::Lsn;

/// v2 entry tags.
const TAG_LIVE: u8 = 0;
const TAG_TOMBSTONE: u8 = 1;
/// Magic trailer of v1 (single-version) run files ("PRUN"), which this
/// build refuses to open.
const RUN_MAGIC_V1: u32 = 0x5052_554E;
/// Magic trailer of v2 run files ("PRN2"), read until a compaction
/// rewrites them.
pub const RUN_MAGIC_V2: u32 = 0x5052_4E32;
/// Magic trailer of the run files this build writes ("PRN3").
pub const RUN_MAGIC_V3: u32 = 0x5052_4E33;
/// Target uncompressed size of one data block.
const BLOCK_TARGET: usize = 4096;
/// Footer size: index_off + rt_off + bloom_off + entries + tombstones
/// + max_lsn + level + crc + magic.
const RUN_FOOTER_LEN: usize = 8 * 6 + 4 * 3;
/// Bloom sizing: bits per entry and number of probes.
const BLOOM_BITS_PER_KEY: u64 = 10;
const BLOOM_PROBES: u32 = 7;

/// The entry encoding of a run's data blocks, told by its magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `PRN2`: whole table and key per entry, fixed 8-byte LSN. Read
    /// only, until a compaction rewrites the run.
    V2,
    /// `PRN3`: prefix-shared namespaced keys and varint LSNs; the only
    /// format written.
    V3,
}

/// A stream of borrowed versions in `(key asc, lsn desc)` order, as
/// [`write_run`] takes them: a frozen memtable's versions for a flush,
/// presorted rows for a bulk load, a compaction's
/// [`Merge`](crate::compaction::Merge). Each version is lent only for
/// one call of `f`, so a source may lend out of a buffer it reuses.
pub trait Versions {
    /// Hand every version to `f`, in order, stopping at the first error
    /// from either side.
    fn for_each_version(
        &mut self,
        f: &mut dyn FnMut(VersionRef<'_>) -> StorageResult<()>,
    ) -> StorageResult<()>;
}

impl<'a, I: Iterator<Item = VersionRef<'a>>> Versions for I {
    fn for_each_version(
        &mut self,
        f: &mut dyn FnMut(VersionRef<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        self.try_for_each(f)
    }
}

/// What a run writer reports back: enough for manifests and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Versions written (live + tombstones).
    pub entries: u64,
    /// Tombstones among them.
    pub tombstones: u64,
    /// Largest LSN of any version (0 when empty).
    pub max_lsn: Lsn,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// FNV-1a double-hashing bloom filter over namespaced keys.
#[derive(Debug, Clone)]
struct Bloom {
    nbits: u64,
    probes: u32,
    bits: Vec<u8>,
}

fn fnv1a(table: &[u8], key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in table.iter().chain(std::iter::once(&0u8)).chain(key.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Murmur3 finalizer. Raw FNV-1a output correlates across short keys that
/// share a prefix (e.g. sequential big-endian integers), which inflated
/// the bloom false-positive rate an order of magnitude; the finalizer's
/// avalanche restores the expected ~1% at 10 bits/key.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The (h1, h2) pair driving double-hashed bloom probes. One pass over
/// the bytes; h2 is forced odd so probes cycle the whole bit array.
fn bloom_hashes(table: &[u8], key: &[u8]) -> (u64, u64) {
    let h = fnv1a(table, key);
    (fmix64(h), fmix64(h ^ 0x9E37_79B9_7F4A_7C15) | 1)
}

impl Bloom {
    fn with_capacity(n: u64) -> Bloom {
        let nbits = (n.saturating_mul(BLOOM_BITS_PER_KEY)).max(64);
        let nbits = nbits.div_ceil(8) * 8;
        Bloom {
            nbits,
            probes: BLOOM_PROBES,
            bits: vec![0u8; (nbits / 8) as usize],
        }
    }

    fn probe_bits(&self, table: &[u8], key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let (h1, h2) = bloom_hashes(table, key);
        (0..self.probes).map(move |i| h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.nbits)
    }

    fn insert(&mut self, table: &[u8], key: &[u8]) {
        let (h1, h2) = bloom_hashes(table, key);
        for i in 0..self.probes {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.nbits;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    fn may_contain(&self, table: &[u8], key: &[u8]) -> bool {
        self.probe_bits(table, key)
            .all(|bit| self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.nbits);
        codec::put_u32(out, self.probes);
        out.extend_from_slice(&self.bits);
    }

    fn decode(buf: &[u8]) -> StorageResult<Bloom> {
        let (nbits, a) = codec::get_u64(buf)?;
        let (probes, b) = codec::get_u32(&buf[a..])?;
        let want = usize::try_from(nbits / 8)
            .map_err(|_| StorageError::Decode("bloom size overflow".into()))?;
        let bits = buf
            .get(a + b..a + b + want)
            .ok_or_else(|| StorageError::Decode("truncated bloom filter".into()))?;
        if nbits == 0 || nbits % 8 != 0 || probes == 0 {
            return Err(StorageError::Decode("bad bloom geometry".into()));
        }
        Ok(Bloom {
            nbits,
            probes,
            bits: bits.to_vec(),
        })
    }
}

/// Location and first key of one data block.
#[derive(Debug, Clone)]
struct BlockMeta {
    offset: u64,
    len: u32,
    crc: u32,
    first: NsKey,
}

/// Write `table` and `key` into the cleared `out` as the namespaced key
/// `varint(table len) ++ table ++ key`.
fn namespaced(out: &mut Vec<u8>, table: &str, key: &[u8]) {
    out.clear();
    codec::put_uvarint(out, table.len() as u64);
    out.extend_from_slice(table.as_bytes());
    out.extend_from_slice(key);
}

/// Append one v3 entry whose namespaced `key` shares its first `shared`
/// bytes with the previous entry's.
fn encode_entry(out: &mut Vec<u8>, shared: usize, key: &[u8], lsn: Lsn, value: Option<&[u8]>) {
    let rest = &key[shared..];
    codec::put_uvarint(out, shared as u64);
    codec::put_uvarint(out, rest.len() as u64);
    codec::put_uvarint(out, value.map_or(0, |v| v.len() as u64 + 1));
    codec::put_uvarint(out, lsn);
    out.extend_from_slice(rest);
    out.extend_from_slice(value.unwrap_or_default());
}

/// One decoded entry: its LSN and where its value sits in the block.
#[derive(Debug, Clone)]
struct Entry {
    lsn: Lsn,
    /// `None` for a point tombstone.
    value: Option<Range<usize>>,
}

/// Decode the v3 entry at `pos` of a block whose verified bytes are
/// `bytes[..end]` and whose key slot `bytes[end..]` holds the previous
/// entry's key, and rebuild the entry's key in that slot. Returns the
/// entry, the length its key shares with the previous one, and where
/// the next entry starts.
fn decode_v3(bytes: &mut Vec<u8>, end: usize, pos: usize) -> StorageResult<(Entry, usize, usize)> {
    let corrupt = |reason: &str| StorageError::corrupt(pos as u64, reason);
    let block = &bytes[..end];
    let mut at = pos;
    let mut varint = || -> StorageResult<u64> {
        let (v, n) = codec::get_uvarint(&block[at..])?;
        at += n;
        Ok(v)
    };
    let (shared, rest_len, value, lsn) = (varint()?, varint()?, varint()?, varint()?);
    if shared > (bytes.len() - end) as u64 {
        return Err(corrupt("run entry shares more than the previous key"));
    }
    if rest_len > (end - at) as u64 {
        return Err(corrupt("run entry key runs past its block"));
    }
    let rest = at..at + rest_len as usize;
    let value = match value.checked_sub(1) {
        None => None,
        Some(len) if len <= (end - rest.end) as u64 => Some(rest.end..rest.end + len as usize),
        Some(_) => return Err(corrupt("run entry value runs past its block")),
    };
    let next = value.as_ref().map_or(rest.end, |v| v.end);
    let shared = shared as usize;
    bytes.truncate(end + shared);
    bytes.extend_from_within(rest);
    Ok((Entry { lsn, value }, shared, next))
}

/// Decode the v2 entry at `pos` the way [`decode_v3`] decodes a v3 one:
/// its table and key are copied into the key slot as a namespaced key
/// that shares nothing with the previous one.
fn decode_v2(bytes: &mut Vec<u8>, end: usize, pos: usize) -> StorageResult<(Entry, usize, usize)> {
    let block = &bytes[..end];
    let tag = block[pos];
    let (lsn, n) = codec::get_u64(&block[pos + 1..])?;
    let mut at = pos + 1 + n;
    let mut field = || -> StorageResult<Range<usize>> {
        let (field, n) = codec::get_bytes(&block[at..])?;
        at += n;
        Ok(at - field.len()..at)
    };
    let table = field()?;
    let key = field()?;
    let value = match tag {
        TAG_LIVE => Some(field()?),
        TAG_TOMBSTONE => None,
        other => {
            return Err(StorageError::corrupt(
                pos as u64,
                format!("unknown run entry tag {other}"),
            ))
        }
    };
    bytes.truncate(end);
    codec::put_uvarint(bytes, table.len() as u64);
    bytes.extend_from_within(table);
    bytes.extend_from_within(key);
    Ok((Entry { lsn, value }, 0, at))
}

/// Where the table name sits in a namespaced `key`: after its length
/// varint, which must not claim more bytes than the key holds.
fn table_of(key: &[u8], pos: usize) -> StorageResult<Range<usize>> {
    let (len, n) = codec::get_uvarint(key)?;
    if len > (key.len() - n) as u64 {
        return Err(StorageError::corrupt(
            pos as u64,
            "run entry table name runs past its key",
        ));
    }
    Ok(n..n + len as usize)
}

/// Write `versions` (already sorted ascending by `NsKey`, then LSN
/// *descending* within a key) as a v3 tiered run at `path`, recorded
/// as living at `level`. Streaming: memory use is bounded by one block
/// plus the index and bloom sections, never by the data set — the bloom
/// filter is sized up front from
/// `expected_entries` (an upper bound the caller always knows: the
/// memtable version count for a flush, the summed input entry counts for
/// a merge) and its bits are set as entries stream through. Overshooting
/// the bound only lowers the false-positive rate; undershooting raises
/// it but never produces a false negative. A read error from a
/// compaction's inputs ends the write and surfaces to the caller.
pub fn write_run(
    path: &Path,
    level: u32,
    expected_entries: u64,
    versions: &mut impl Versions,
) -> StorageResult<RunSummary> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut index: Vec<BlockMeta> = Vec::new();
    let mut block = Vec::with_capacity(BLOCK_TARGET + 512);
    let mut block_first: Option<NsKey> = None;
    let mut offset = 0u64;
    let mut entry_count = 0u64;
    let mut tombstone_count = 0u64;
    let mut max_lsn: Lsn = 0;
    let mut bloom = Bloom::with_capacity(expected_entries);
    // The namespaced keys of the entry being written and of the one
    // before it, in two buffers swapped per entry.
    let (mut key_buf, mut prev) = (Vec::new(), Vec::new());

    let flush_block = |w: &mut BufWriter<File>,
                       block: &mut Vec<u8>,
                       first: &mut Option<NsKey>,
                       offset: &mut u64,
                       index: &mut Vec<BlockMeta>|
     -> StorageResult<()> {
        if block.is_empty() {
            return Ok(());
        }
        let meta = BlockMeta {
            offset: *offset,
            len: block.len() as u32,
            crc: crc32::checksum(block),
            first: first.take().expect("non-empty block has a first key"),
        };
        w.write_all(block)?;
        *offset += block.len() as u64;
        index.push(meta);
        block.clear();
        Ok(())
    };

    versions.for_each_version(&mut |(table, key, lsn, value)| {
        namespaced(&mut key_buf, table, key);
        let shared = if block_first.is_none() {
            block_first = Some((table.to_string(), key.to_vec()));
            0
        } else {
            prev.iter()
                .zip(&key_buf)
                .take_while(|(a, b)| a == b)
                .count()
        };
        encode_entry(&mut block, shared, &key_buf, lsn, value);
        std::mem::swap(&mut key_buf, &mut prev);
        entry_count += 1;
        if value.is_none() {
            tombstone_count += 1;
        }
        max_lsn = max_lsn.max(lsn);
        bloom.insert(table.as_bytes(), key);
        if block.len() >= BLOCK_TARGET {
            flush_block(
                &mut w,
                &mut block,
                &mut block_first,
                &mut offset,
                &mut index,
            )?;
        }
        Ok(())
    })?;
    flush_block(
        &mut w,
        &mut block,
        &mut block_first,
        &mut offset,
        &mut index,
    )?;

    let index_off = offset;
    let mut tail = Vec::new();
    codec::put_u32(&mut tail, index.len() as u32);
    for meta in &index {
        codec::put_u64(&mut tail, meta.offset);
        codec::put_u32(&mut tail, meta.len);
        codec::put_u32(&mut tail, meta.crc);
        codec::put_bytes(&mut tail, meta.first.0.as_bytes());
        codec::put_bytes(&mut tail, &meta.first.1);
    }
    let rt_off = index_off + tail.len() as u64;
    codec::put_u32(&mut tail, 0);
    let bloom_off = index_off + tail.len() as u64;
    bloom.encode(&mut tail);
    let tail_crc = crc32::checksum(&tail);
    w.write_all(&tail)?;
    let mut footer = Vec::with_capacity(RUN_FOOTER_LEN);
    codec::put_u64(&mut footer, index_off);
    codec::put_u64(&mut footer, rt_off);
    codec::put_u64(&mut footer, bloom_off);
    codec::put_u64(&mut footer, entry_count);
    codec::put_u64(&mut footer, tombstone_count);
    codec::put_u64(&mut footer, max_lsn);
    codec::put_u32(&mut footer, level);
    codec::put_u32(&mut footer, tail_crc);
    codec::put_u32(&mut footer, RUN_MAGIC_V3);
    w.write_all(&footer)?;
    w.flush()?;
    w.get_ref().sync_data()?;
    let bytes = offset + (tail.len() + RUN_FOOTER_LEN) as u64;
    Ok(RunSummary {
        entries: entry_count,
        tombstones: tombstone_count,
        max_lsn,
        bytes,
    })
}

/// Positional read that leaves no shared cursor behind.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    let mut done = 0usize;
    while done < buf.len() {
        let n = file.seek_read(&mut buf[done..], offset + done as u64)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "short positional read",
            ));
        }
        done += n;
    }
    Ok(())
}

#[cfg(not(any(unix, windows)))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read as _, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Result of a point lookup inside one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunLookup {
    /// The bloom filter proved the key absent; no block was read.
    BloomSkip,
    /// The filter passed but no version at or below the read LSN exists
    /// in the run (false positive, or all versions are newer).
    Absent,
    /// The run's newest visible version of the key is a deletion,
    /// committed at this LSN.
    Tombstone(Lsn),
    /// The run's newest visible version of the key is this value,
    /// committed at this LSN.
    Value(Lsn, Vec<u8>),
}

/// An open, immutable tiered run. Cheap to open (index + bloom only)
/// and safe to share across threads: all reads are positional.
#[derive(Debug)]
pub struct Run {
    file: File,
    format: Format,
    index: Vec<BlockMeta>,
    bloom: Bloom,
    entries: u64,
    tombstones: u64,
    max_lsn: Lsn,
    level: u32,
    bytes: u64,
}

impl Run {
    /// Open a run file, checking the trailing magic and verifying the
    /// index/bloom CRC. Data blocks are verified lazily, on first read.
    /// A v3 (`PRN3`) or v2 (`PRN2`) run opens, its [`Format`] recorded; a
    /// v1 (`PRUN`) file or a run holding range tombstones is
    /// [`StorageError::Unsupported`]; any other wrong magic is corruption.
    pub fn open(path: &Path) -> StorageResult<Run> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        use std::io::{Seek, SeekFrom};
        if len < 4 {
            return Err(StorageError::corrupt(0, "run shorter than magic"));
        }
        file.seek(SeekFrom::End(-4))?;
        let mut magic_buf = [0u8; 4];
        file.read_exact(&mut magic_buf)?;
        let (magic, _) = codec::get_u32(&magic_buf)?;
        let format = match magic {
            RUN_MAGIC_V3 => Format::V3,
            RUN_MAGIC_V2 => Format::V2,
            RUN_MAGIC_V1 => {
                return Err(StorageError::Unsupported {
                    path: path.to_path_buf(),
                    reason: "v1 run (magic PRUN, no per-entry LSNs)".into(),
                })
            }
            other => {
                return Err(StorageError::corrupt(
                    len - 4,
                    format!("bad run magic {other:#x}"),
                ))
            }
        };
        if len < RUN_FOOTER_LEN as u64 {
            return Err(StorageError::corrupt(0, "run shorter than footer"));
        }
        file.seek(SeekFrom::End(-(RUN_FOOTER_LEN as i64)))?;
        let mut footer = vec![0u8; RUN_FOOTER_LEN];
        file.read_exact(&mut footer)?;
        let mut pos = 0usize;
        let mut next_u64 = || -> StorageResult<u64> {
            let (v, n) = codec::get_u64(&footer[pos..])?;
            pos += n;
            Ok(v)
        };
        let index_off = next_u64()?;
        let rt_off = next_u64()?;
        let bloom_off = next_u64()?;
        let entries = next_u64()?;
        let tombstones = next_u64()?;
        let max_lsn = next_u64()?;
        let (level, n) = codec::get_u32(&footer[pos..])?;
        let (tail_crc, _) = codec::get_u32(&footer[pos + n..])?;
        let tail_len = len - RUN_FOOTER_LEN as u64;
        if index_off > rt_off || rt_off > bloom_off || bloom_off > tail_len {
            return Err(StorageError::corrupt(
                tail_len,
                "run footer offsets out of range",
            ));
        }
        let mut tail = vec![0u8; (tail_len - index_off) as usize];
        read_exact_at(&file, &mut tail, index_off)?;
        if crc32::checksum(&tail) != tail_crc {
            return Err(StorageError::corrupt(
                index_off,
                "run index/bloom CRC mismatch",
            ));
        }
        let mut pos = 0usize;
        let (block_count, n) = codec::get_u32(&tail)?;
        pos += n;
        let mut index = Vec::with_capacity(block_count as usize);
        for _ in 0..block_count {
            let (offset, n) = codec::get_u64(&tail[pos..])?;
            pos += n;
            let (blen, n) = codec::get_u32(&tail[pos..])?;
            pos += n;
            let (crc, n) = codec::get_u32(&tail[pos..])?;
            pos += n;
            let (table, n) = codec::get_bytes(&tail[pos..])?;
            pos += n;
            let (key, n) = codec::get_bytes(&tail[pos..])?;
            pos += n;
            if offset + u64::from(blen) > index_off {
                return Err(StorageError::corrupt(offset, "run block overlaps index"));
            }
            index.push(BlockMeta {
                offset,
                len: blen,
                crc,
                first: (
                    String::from_utf8(table.to_vec())
                        .map_err(|_| StorageError::Decode("non-utf8 table in run index".into()))?,
                    key.to_vec(),
                ),
            });
        }
        if pos != (rt_off - index_off) as usize {
            return Err(StorageError::corrupt(
                index_off,
                "run index length mismatch",
            ));
        }
        let (range_tombstones, n) = codec::get_u32(&tail[pos..])?;
        pos += n;
        if range_tombstones != 0 {
            return Err(StorageError::Unsupported {
                path: path.to_path_buf(),
                reason: format!(
                    "run holds {range_tombstones} range tombstone(s), a retired format"
                ),
            });
        }
        if pos != (bloom_off - index_off) as usize {
            return Err(StorageError::corrupt(
                index_off,
                "run index length mismatch",
            ));
        }
        let bloom = Bloom::decode(&tail[pos..])?;
        Ok(Run {
            file,
            format,
            index,
            bloom,
            entries,
            tombstones,
            max_lsn,
            level,
            bytes: len,
        })
    }

    /// Versions recorded in the footer (live + tombstones).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Tombstones recorded in the footer.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Largest commit LSN in the run (0 when empty). Feeds the
    /// engine's LSN clock recovery: flushes delete the WAL segment that
    /// held these commits, so the clock must be restorable from runs.
    pub fn max_lsn(&self) -> Lsn {
        self.max_lsn
    }

    /// Level the run was written for, recorded in the footer. Lets
    /// manifest-fallback recovery rebuild the `(level asc, id desc)` read
    /// precedence without guessing.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Total file size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The entry encoding of the run's data blocks.
    pub fn format(&self) -> Format {
        self.format
    }

    /// Read data block `index` into `block`, which the caller reuses from
    /// block to block, and verify its CRC. `block` is left empty on
    /// failure.
    fn read_block(&self, index: usize, block: &mut Block) -> StorageResult<()> {
        let meta = &self.index[index];
        let buf = &mut block.bytes;
        buf.clear();
        buf.reserve(meta.len as usize + KEY_ROOM);
        buf.resize(meta.len as usize, 0);
        let read = match read_exact_at(&self.file, buf, meta.offset) {
            Err(e) => Err(e.into()),
            Ok(()) if crc32::checksum(buf) != meta.crc => Err(StorageError::corrupt(
                meta.offset,
                "run data block CRC mismatch",
            )),
            Ok(()) => Ok(()),
        };
        block.index = read.is_ok().then_some(index);
        if read.is_err() {
            buf.clear();
        }
        block.end = buf.len();
        read
    }

    /// Index of the first block that could contain `(table, key)`'s
    /// newest version, or `None` when it sorts before all keys. A long
    /// version chain makes several consecutive blocks share the key as
    /// their first key, and the chain head may sit at the *end* of the
    /// block before them — so equality resolves left, not to an
    /// arbitrary binary-search hit.
    fn block_for(&self, table: &str, key: &[u8]) -> Option<usize> {
        fn first(m: &BlockMeta) -> (&str, &[u8]) {
            (&m.first.0, &m.first.1)
        }
        let target = (table, key);
        let i = self.index.partition_point(|m| first(m) < target);
        if i > 0 {
            Some(i - 1)
        } else if self.index.first().is_some_and(|m| first(m) == target) {
            Some(0)
        } else {
            None
        }
    }

    /// A cursor over the versions of `span` — every version when `None`.
    pub(crate) fn cursor<'a>(&'a self, span: Option<Span<'a>>) -> RunCursor<'a> {
        self.cursor_from(span, Block::default())
    }

    /// A cursor over `span` that starts out holding `block`: when the
    /// span's first key lies in that block, the cursor walks its verified
    /// bytes again instead of reading them; otherwise it reads the block
    /// [`block_for`](Self::block_for) names.
    fn cursor_from<'a>(&'a self, span: Option<Span<'a>>, block: Block) -> RunCursor<'a> {
        let first = match span {
            None => 0,
            Some(s) if s.is_empty() => self.index.len(),
            Some(s) => self.block_for(s.table, s.start).unwrap_or(0),
        };
        let (next_block, pos) = match block.index {
            Some(held) if held == first => (first + 1, 0),
            _ => (first, block.end),
        };
        RunCursor {
            run: self,
            span,
            next_block,
            block,
            pos,
            current: None,
        }
    }

    /// Point lookup of the newest version at or below `max_lsn`: bloom
    /// check, index binary search, one block read (more only when the
    /// key's versions spill across block boundaries).
    pub fn get(&self, table: &str, key: &[u8], max_lsn: Lsn) -> StorageResult<RunLookup> {
        self.get_from(&mut Block::default(), table, key, max_lsn)
    }

    /// [`get`](Self::get) by a cursor that starts out holding `block`,
    /// the block an earlier lookup in this run left verified, and leaves
    /// there the block it ends on: keys read in ascending order that
    /// share a block read and check it once.
    pub(crate) fn get_from(
        &self,
        block: &mut Block,
        table: &str,
        key: &[u8],
        max_lsn: Lsn,
    ) -> StorageResult<RunLookup> {
        if !self.bloom.may_contain(table.as_bytes(), key) {
            return Ok(RunLookup::BloomSkip);
        }
        let mut cursor = self.cursor_from(Some(Span::key(table, key)), std::mem::take(block));
        let found = loop {
            cursor.advance()?;
            let Some((_, _, lsn, value)) = cursor.current() else {
                break RunLookup::Absent;
            };
            if lsn <= max_lsn {
                break match value {
                    Some(v) => RunLookup::Value(lsn, v.to_vec()),
                    None => RunLookup::Tombstone(lsn),
                };
            }
        };
        *block = cursor.block;
        Ok(found)
    }
}

/// Bytes a block buffer keeps free past its block for the key a cursor
/// rebuilds there, so keys up to this long cost no reallocation.
const KEY_ROOM: usize = 256;

/// The data block a [`RunCursor`] holds: the CRC-verified bytes of one
/// block of its run, which it decodes in place and reuses for the next,
/// followed by a key slot holding the namespaced key of the entry it
/// decoded last, rebuilt from that entry's shared prefix and rest.
#[derive(Debug, Default)]
pub(crate) struct Block {
    /// Which block of the run `bytes` holds; `None` before the first
    /// read and after a failed one.
    index: Option<usize>,
    /// The block's bytes, then the key slot.
    bytes: Vec<u8>,
    /// Where the block's bytes end and the key slot starts.
    end: usize,
    /// Where the table name sits in the key slot.
    table: Range<usize>,
}

impl Block {
    /// Whether the block holds verified bytes a later lookup could reuse.
    pub(crate) fn is_held(&self) -> bool {
        self.index.is_some()
    }

    /// Decode the entry at `pos` of the block, in the run's `format`,
    /// into the key slot: where its value sits, and where the next entry
    /// starts. Every walk starts at the block's first entry (`pos` 0),
    /// which shares nothing. Bad bytes are an error, never a panic.
    fn decode(&mut self, format: Format, pos: usize) -> StorageResult<(Entry, usize)> {
        if pos == 0 {
            self.bytes.truncate(self.end);
        }
        let (entry, shared, next) = match format {
            Format::V3 => decode_v3(&mut self.bytes, self.end, pos)?,
            Format::V2 => decode_v2(&mut self.bytes, self.end, pos)?,
        };
        // A key that shares its predecessor's table name keeps its split.
        if pos == 0 || shared < self.table.end {
            self.table = table_of(&self.bytes[self.end..], pos)?;
        }
        Ok((entry, next))
    }

    /// The decoded entry's table name and key, from the key slot.
    fn key(&self) -> (&[u8], &[u8]) {
        let key = &self.bytes[self.end..];
        (&key[self.table.clone()], &key[self.table.end..])
    }
}

/// Walks a run's versions in `(key asc, lsn desc)` order, from a span's
/// start to its end. It reads one CRC-verified block at a time into a
/// buffer it reuses and decodes each entry in place, rebuilding its key
/// in the same buffer, so a version costs no allocation; a block that
/// starts past the span is never read.
pub(crate) struct RunCursor<'a> {
    run: &'a Run,
    span: Option<Span<'a>>,
    next_block: usize,
    block: Block,
    /// Where the entry after the current one starts in `block`.
    pos: usize,
    current: Option<Entry>,
}

impl RunCursor<'_> {
    /// Move to the next version in the span (the first, on the first
    /// call); [`current`](Self::current) is `None` past the end.
    pub(crate) fn advance(&mut self) -> StorageResult<()> {
        self.current = None;
        loop {
            if self.pos == self.block.end {
                let Some(meta) = self.run.index.get(self.next_block) else {
                    return Ok(());
                };
                let (table, key) = &meta.first;
                if self.span.is_some_and(|s| s.is_past(table.as_bytes(), key)) {
                    self.next_block = self.run.index.len();
                    return Ok(());
                }
                self.run.read_block(self.next_block, &mut self.block)?;
                self.pos = 0;
                self.next_block += 1;
                continue;
            }
            let (entry, next) = self.block.decode(self.run.format, self.pos)?;
            self.pos = next;
            if let Some(span) = self.span {
                let (table, key) = self.block.key();
                if span.is_before(table, key) {
                    continue;
                }
                if span.is_past(table, key) {
                    self.next_block = self.run.index.len();
                    self.pos = self.block.end;
                    return Ok(());
                }
            }
            self.current = Some(entry);
            return Ok(());
        }
    }

    /// The version [`advance`](Self::advance) moved to, borrowed from
    /// the block buffer.
    pub(crate) fn current(&self) -> Option<RawVersion<'_>> {
        let entry = self.current.as_ref()?;
        let (table, key) = self.block.key();
        let value = entry.value.clone().map(|v| &self.block.bytes[v]);
        Some((table, key, entry.lsn, value))
    }
}

/// One owned run entry, as tests write them: namespaced key, commit
/// LSN, value or tombstone.
#[cfg(test)]
pub(crate) type VersionedEntry = (NsKey, Lsn, Option<Vec<u8>>);

/// `entries` borrowed, as [`write_run`] pulls them.
#[cfg(test)]
pub(crate) fn borrowed(entries: &[VersionedEntry]) -> impl Iterator<Item = VersionRef<'_>> {
    entries
        .iter()
        .map(|((t, k), lsn, v)| (t.as_str(), k.as_slice(), *lsn, v.as_deref()))
}

/// The v2 run `tests/v2_run.hex` holds, written by the last build that
/// wrote v2: two tables, two tombstones, and one key's versions split
/// across its two data blocks.
#[cfg(test)]
pub(crate) fn v2_fixture() -> Vec<u8> {
    let hex: String = include_str!("../tests/v2_run.hex")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    codec::from_hex(&hex)
}

/// The versions of [`v2_fixture`], in run order.
#[cfg(test)]
pub(crate) fn v2_fixture_versions() -> Vec<VersionedEntry> {
    let version = |table: &str, key: &[u8], lsn: Lsn, value: Option<Vec<u8>>| {
        ((table.to_string(), key.to_vec()), lsn, value)
    };
    let hot = |lsn: Lsn| version("docs", b"hot", lsn, Some(vec![b'0' + lsn as u8; 1000]));
    vec![
        version("docs", b"a", 3, Some(b"alpha".to_vec())),
        hot(9),
        version("docs", b"hot", 8, None),
        hot(6),
        hot(4),
        hot(3),
        hot(2),
        version("names", b"k1", 5, Some(b"one".to_vec())),
        version("names", b"k2", 7, None),
        version("names", b"k3", 1, Some(b"three".to_vec())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{Layer, MergeCursor};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-sst-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.sst")
    }

    const LATEST: Lsn = Lsn::MAX;

    /// Every version of `run`, copied out.
    fn all(run: &Run) -> Vec<VersionedEntry> {
        let mut cursor = run.cursor(None);
        let mut out = Vec::new();
        cursor.advance().unwrap();
        while let Some((t, k, lsn, v)) = cursor.current() {
            let table = String::from_utf8(t.to_vec()).unwrap();
            out.push(((table, k.to_vec()), lsn, v.map(<[u8]>::to_vec)));
            cursor.advance().unwrap();
        }
        out
    }

    /// The newest version at or below `max_lsn` of each key of `table`
    /// in `[start, end)`, tombstones included, read as a one-layer merge.
    fn newest(
        run: &Run,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        max_lsn: Lsn,
    ) -> Vec<(Vec<u8>, Lsn, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        let span = Span::range(table, start, end);
        MergeCursor::new(vec![Layer::Run(run.cursor(Some(span)))])
            .for_each_newest(max_lsn, |(_, k, lsn, v)| {
                out.push((k.to_vec(), lsn, v.map(<[u8]>::to_vec)))
            })
            .unwrap();
        out
    }

    fn write_sample_run(path: &Path, n: u32) -> RunSummary {
        let entries: Vec<VersionedEntry> = (0..n)
            .map(|i| {
                let key = format!("k{i:06}").into_bytes();
                let value = if i % 7 == 3 {
                    None // tombstone
                } else {
                    Some(format!("value-{i}").into_bytes())
                };
                (("records".to_string(), key), Lsn::from(i + 1), value)
            })
            .collect();
        let mut versions = borrowed(&entries);
        write_run(path, 1, u64::from(n), &mut versions).unwrap()
    }

    #[test]
    fn run_roundtrips_point_lookups_and_iteration() {
        let path = tmpfile("run-roundtrip");
        let summary = write_sample_run(&path, 2000);
        assert_eq!(summary.entries, 2000);
        assert_eq!(
            summary.tombstones,
            (0..2000).filter(|i| i % 7 == 3).count() as u64
        );
        assert_eq!(summary.max_lsn, 2000);

        let run = Run::open(&path).unwrap();
        assert_eq!(run.entries(), summary.entries);
        assert_eq!(run.tombstones(), summary.tombstones);
        assert_eq!(run.max_lsn(), 2000);
        assert!(run.index.len() > 1, "2000 entries must span several blocks");

        assert_eq!(
            run.get("records", b"k000000", LATEST).unwrap(),
            RunLookup::Value(1, b"value-0".to_vec())
        );
        assert_eq!(
            run.get("records", b"k000003", LATEST).unwrap(),
            RunLookup::Tombstone(4)
        );
        // A pin below the entry's LSN hides it.
        assert_eq!(
            run.get("records", b"k000003", 3).unwrap(),
            RunLookup::Absent
        );
        // Keys in other tables or outside the range miss, mostly via bloom.
        assert!(matches!(
            run.get("records", b"zzz", LATEST).unwrap(),
            RunLookup::BloomSkip | RunLookup::Absent
        ));
        assert!(matches!(
            run.get("other", b"k000000", LATEST).unwrap(),
            RunLookup::BloomSkip | RunLookup::Absent
        ));

        let all = all(&run);
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "iter is ordered");
    }

    #[test]
    fn multi_version_keys_resolve_newest_at_or_below_the_pin() {
        let path = tmpfile("run-versions");
        // One key with three versions (lsn desc), then another key.
        let entries = vec![
            (("t".to_string(), b"k".to_vec()), 9, None),
            (("t".to_string(), b"k".to_vec()), 5, Some(b"v5".to_vec())),
            (("t".to_string(), b"k".to_vec()), 2, Some(b"v2".to_vec())),
            (("t".to_string(), b"z".to_vec()), 7, Some(b"z7".to_vec())),
        ];
        write_run(&path, 1, 4, &mut borrowed(&entries)).unwrap();
        let run = Run::open(&path).unwrap();
        assert_eq!(run.get("t", b"k", LATEST).unwrap(), RunLookup::Tombstone(9));
        assert_eq!(
            run.get("t", b"k", 8).unwrap(),
            RunLookup::Value(5, b"v5".to_vec())
        );
        assert_eq!(
            run.get("t", b"k", 2).unwrap(),
            RunLookup::Value(2, b"v2".to_vec())
        );
        assert_eq!(run.get("t", b"k", 1).unwrap(), RunLookup::Absent);
        // Scans emit one version per key — the newest visible.
        assert_eq!(
            newest(&run, "t", b"", None, 8),
            vec![
                (b"k".to_vec(), 5, Some(b"v5".to_vec())),
                (b"z".to_vec(), 7, Some(b"z7".to_vec())),
            ]
        );
    }

    #[test]
    fn version_chain_spilling_across_blocks_still_resolves() {
        let path = tmpfile("run-spill");
        // Enough versions of ONE key to span several 4 KiB blocks, newest
        // first, then a final different key.
        let n = 600u64;
        let mut entries: Vec<VersionedEntry> = (0..n)
            .map(|i| {
                let lsn = n - i; // descending
                (
                    ("t".to_string(), b"hot".to_vec()),
                    lsn,
                    Some(format!("v{lsn:09}").into_bytes()),
                )
            })
            .collect();
        entries.push((
            ("t".to_string(), b"tail".to_vec()),
            n + 1,
            Some(b"end".to_vec()),
        ));
        write_run(&path, 1, n + 1, &mut borrowed(&entries)).unwrap();
        let run = Run::open(&path).unwrap();
        assert!(run.index.len() > 1, "chain must cross blocks");
        // The oldest version lives blocks away from where block_for lands.
        assert_eq!(
            run.get("t", b"hot", 1).unwrap(),
            RunLookup::Value(1, b"v000000001".to_vec())
        );
        assert_eq!(
            run.get("t", b"hot", n / 2).unwrap(),
            RunLookup::Value(n / 2, format!("v{:09}", n / 2).into_bytes())
        );
        assert_eq!(run.get("t", b"hot", 0).unwrap(), RunLookup::Absent);
        assert_eq!(
            run.get("t", b"tail", LATEST).unwrap(),
            RunLookup::Value(n + 1, b"end".to_vec())
        );
    }

    #[test]
    fn run_scan_range_respects_bounds_and_tombstones() {
        let path = tmpfile("run-scan");
        write_sample_run(&path, 500);
        let run = Run::open(&path).unwrap();
        let got = newest(&run, "records", b"k000100", Some(b"k000110"), LATEST);
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"k000100".to_vec());
        assert!(
            got.iter().any(|(_, _, v)| v.is_none()),
            "tombstones included"
        );
        // Inverted and empty ranges.
        assert!(newest(&run, "records", b"k000110", Some(b"k000100"), LATEST).is_empty());
        assert!(newest(&run, "absent", b"", None, LATEST).is_empty());
    }

    #[test]
    fn run_bloom_skips_most_absent_keys() {
        let path = tmpfile("run-bloom");
        write_sample_run(&path, 1000);
        let run = Run::open(&path).unwrap();
        let skipped = (0..1000)
            .filter(|i| {
                matches!(
                    run.get("records", format!("absent-{i}").as_bytes(), LATEST)
                        .unwrap(),
                    RunLookup::BloomSkip
                )
            })
            .count();
        assert!(
            skipped > 950,
            "bloom skipped only {skipped}/1000 absent keys"
        );
    }

    #[test]
    fn run_detects_corrupt_data_block_lazily() {
        let path = tmpfile("run-blockcrc");
        write_sample_run(&path, 300);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40; // inside the first data block
        std::fs::write(&path, &bytes).unwrap();
        let run = Run::open(&path).expect("index/bloom untouched, open succeeds");
        assert!(matches!(
            run.get("records", b"k000000", LATEST),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn run_open_rejects_corrupt_tail_or_truncation() {
        let path = tmpfile("run-tail");
        write_sample_run(&path, 300);
        let good = std::fs::read(&path).unwrap();
        // Flip a byte in the index/bloom region.
        let mut bad = good.clone();
        let at = bad.len() - RUN_FOOTER_LEN - 8;
        bad[at] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Run::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        // Truncate below the footer.
        std::fs::write(&path, &good[..4]).unwrap();
        assert!(Run::open(&path).is_err());
        // Wrong magic.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Run::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn v1_magic_is_unsupported_not_corrupt() {
        let path = tmpfile("run-v1");
        let mut bytes = vec![0u8; 64];
        codec::put_u32(&mut bytes, RUN_MAGIC_V1);
        std::fs::write(&path, &bytes).unwrap();
        match Run::open(&path) {
            Err(StorageError::Unsupported { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_run_roundtrips() {
        let path = tmpfile("run-empty");
        let summary = write_run(&path, 1, 0, &mut std::iter::empty()).unwrap();
        assert_eq!(summary.entries, 0);
        let run = Run::open(&path).unwrap();
        assert_eq!(all(&run).len(), 0);
        assert!(matches!(
            run.get("t", b"k", LATEST).unwrap(),
            RunLookup::BloomSkip | RunLookup::Absent
        ));
    }

    #[test]
    fn run_footer_records_level() {
        let path = tmpfile("run-level");
        let entries: Vec<VersionedEntry> = (0..10u8)
            .map(|i| (("t".to_string(), vec![i]), Lsn::from(i) + 1, Some(vec![i])))
            .collect();
        write_run(&path, 3, 10, &mut borrowed(&entries)).unwrap();
        assert_eq!(Run::open(&path).unwrap().level(), 3);
    }

    #[test]
    fn undersized_bloom_hint_never_yields_false_negatives() {
        // A hint far below the real entry count degrades the filter's
        // selectivity but must never hide a present key.
        let path = tmpfile("run-bloom-hint");
        let entries: Vec<VersionedEntry> = (0..500u32)
            .map(|i| {
                (
                    ("t".to_string(), format!("k{i:04}").into_bytes()),
                    Lsn::from(i) + 1,
                    Some(b"v".to_vec()),
                )
            })
            .collect();
        write_run(&path, 1, 1, &mut borrowed(&entries)).unwrap();
        let run = Run::open(&path).unwrap();
        for i in 0..500u32 {
            assert_eq!(
                run.get("t", format!("k{i:04}").as_bytes(), LATEST).unwrap(),
                RunLookup::Value(u64::from(i) + 1, b"v".to_vec()),
                "key {i} must survive an undersized bloom"
            );
        }
    }

    /// What a run read at `lsn` returns for `(table, key)`, taken from
    /// the run's `versions` (newest first within a key).
    fn lookup_in(versions: &[VersionedEntry], table: &str, key: &[u8], lsn: Lsn) -> RunLookup {
        versions
            .iter()
            .find(|((t, k), l, _)| t == table && k == key && *l <= lsn)
            .map_or(RunLookup::Absent, |(_, l, v)| match v {
                Some(v) => RunLookup::Value(*l, v.clone()),
                None => RunLookup::Tombstone(*l),
            })
    }

    /// What [`newest`] returns, taken from the run's `versions`.
    fn newest_in(
        versions: &[VersionedEntry],
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        lsn: Lsn,
    ) -> Vec<(Vec<u8>, Lsn, Option<Vec<u8>>)> {
        let mut want: Vec<(Vec<u8>, Lsn, Option<Vec<u8>>)> = Vec::new();
        for ((t, k), l, v) in versions {
            let in_span =
                t == table && k.as_slice() >= start && end.is_none_or(|e| k.as_slice() < e);
            if in_span && *l <= lsn && want.last().is_none_or(|(last, _, _)| last != k) {
                want.push((k.clone(), *l, v.clone()));
            }
        }
        want
    }

    /// Every point read at every LSN a version holds (and one below
    /// each), and a scan of every table at each of them, against the
    /// versions the run was written from.
    fn assert_reads_match(run: &Run, versions: &[VersionedEntry]) {
        let mut lsns: Vec<Lsn> = versions
            .iter()
            .flat_map(|v| [v.1, v.1.saturating_sub(1)])
            .collect();
        lsns.extend([0, LATEST]);
        lsns.sort_unstable();
        lsns.dedup();
        for &lsn in &lsns {
            for ((t, k), _, _) in versions {
                assert_eq!(run.get(t, k, lsn).unwrap(), lookup_in(versions, t, k, lsn));
            }
            for ((t, _), _, _) in versions {
                assert_eq!(
                    newest(run, t, b"", None, lsn),
                    newest_in(versions, t, b"", None, lsn)
                );
            }
        }
    }

    #[test]
    fn v2_fixture_opens_and_reads_every_version() {
        let path = tmpfile("v2-fixture");
        std::fs::write(&path, v2_fixture()).unwrap();
        let run = Run::open(&path).unwrap();
        assert_eq!(run.format(), Format::V2);
        assert_eq!(
            (run.entries(), run.tombstones(), run.max_lsn(), run.level()),
            (10, 2, 9, 1)
        );
        assert_eq!(run.index.len(), 2, "the fixture spans two blocks");
        assert_eq!(run.index[1].first, ("docs".to_string(), b"hot".to_vec()));
        let versions = v2_fixture_versions();
        assert_eq!(all(&run), versions);
        assert_reads_match(&run, &versions);
    }

    /// Ten thousand search postings (`field\0token\0pk`, empty values,
    /// one LSN) cost about 7 bytes each, bloom and index included, once
    /// keys share their prefixes; a v2 entry spent 58 on each.
    #[test]
    fn postings_take_at_most_ten_bytes_per_entry() {
        let entries: Vec<VersionedEntry> = (0..10_000u32)
            .map(|i| {
                let key = format!("species\0token{:04}\0FNJV-{i:06}", i / 40);
                (
                    ("__search:postings".to_string(), key.into_bytes()),
                    1,
                    Some(Vec::new()),
                )
            })
            .collect();
        let path = tmpfile("postings-size");
        let summary = write_run(&path, 1, 10_000, &mut borrowed(&entries)).unwrap();
        let per_entry = summary.bytes as f64 / 10_000.0;
        assert!(
            per_entry <= 10.0,
            "{per_entry:.2} bytes per posting (pin: 10)"
        );
        let run = Run::open(&path).unwrap();
        assert_eq!(all(&run), entries);
    }

    fn table_name() -> impl Strategy<Value = String> {
        prop_oneof![
            // Short names, the empty one included.
            "[ab]{0,2}",
            "t\0[ab]{0,2}",
            // Names of 130+ bytes (a two-byte length varint) that share
            // all but their last bytes with each other.
            "[ab]{0,2}".prop_map(|tail| format!("{}{tail}", "x".repeat(130))),
        ]
    }

    fn key_bytes() -> impl Strategy<Value = Vec<u8>> {
        let byte = || prop_oneof![Just(0u8), Just(b'a'), Just(b'b'), Just(0xff)];
        prop_oneof![
            Just(Vec::new()),
            collection::vec(byte(), 0..6),
            // Longer than the room a block buffer keeps for its key.
            collection::vec(byte(), 0..4).prop_map(|tail| [vec![b'k'; 300], tail].concat()),
        ]
    }

    fn lsn() -> impl Strategy<Value = Lsn> {
        prop_oneof![0..16u64, Just(u64::MAX), any::<u64>()]
    }

    fn value() -> impl Strategy<Value = Option<Vec<u8>>> {
        prop_oneof![
            1 => Just(None),
            3 => collection::vec(any::<u8>(), 0..40).prop_map(Some),
            1 => (500usize..2000).prop_map(|n| Some(vec![7; n])),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// A v3 run reads back every version it was written from, and
        /// its point reads and range scans at any LSN answer what the
        /// versions say: tables with NUL bytes or of 130+ bytes, empty
        /// and long keys, tombstones, LSNs up to `u64::MAX`, and a
        /// version chain long enough to spill across blocks.
        #[test]
        fn v3_runs_read_back_every_version(
            versions in collection::vec((table_name(), key_bytes(), lsn(), value()), 0..80),
            chain in collection::vec((lsn(), value()), 0..24),
            reads in collection::vec((any::<usize>(), lsn()), 1..24),
            spans in collection::vec(
                (any::<usize>(), any::<usize>(), lsn()),
                1..8,
            ),
        ) {
            let hot = ("x".repeat(130), b"hot".to_vec());
            let mut entries: Vec<VersionedEntry> = versions
                .into_iter()
                .map(|(t, k, l, v)| ((t, k), l, v))
                .chain(chain.into_iter().map(|(l, v)| (hot.clone(), l, v)))
                .collect();
            entries.sort_by(|a, b| (&a.0, Reverse(a.1)).cmp(&(&b.0, Reverse(b.1))));
            entries.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
            let path = tmpfile("v3-roundtrip");
            let summary = write_run(&path, 1, entries.len() as u64, &mut borrowed(&entries)).unwrap();
            let run = Run::open(&path).unwrap();
            prop_assert_eq!(run.format(), Format::V3);
            prop_assert_eq!(summary.entries, entries.len() as u64);
            prop_assert_eq!(all(&run), entries.clone());
            if entries.is_empty() {
                return;
            }
            for (at, lsn) in reads {
                let ((t, k), _, _) = &entries[at % entries.len()];
                let got = match run.get(t, k, lsn).unwrap() {
                    RunLookup::BloomSkip => RunLookup::Absent,
                    got => got,
                };
                prop_assert_eq!(got, lookup_in(&entries, t, k, lsn));
            }
            for (from, to, lsn) in spans {
                let ((table, start), _, _) = &entries[from % entries.len()];
                let ((to_table, to_key), _, _) = &entries[to % entries.len()];
                let end = (to_table == table).then_some(to_key.as_slice());
                prop_assert_eq!(
                    newest(&run, table, start, end, lsn),
                    newest_in(&entries, table, start, end, lsn)
                );
            }
        }
    }

    /// Each entry of `bytes` decoded as one data block of a `format` run,
    /// its CRC bypassed, as `(table, key, lsn, value)`; or the first
    /// error. Every entry it yields must be well formed.
    #[allow(clippy::type_complexity)]
    fn walk(
        format: Format,
        bytes: &[u8],
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>, Lsn, Option<Vec<u8>>)>> {
        let mut block = Block {
            index: Some(0),
            bytes: bytes.to_vec(),
            end: bytes.len(),
            table: 0..0,
        };
        let (mut pos, mut out) = (0, Vec::new());
        while pos < block.end {
            let (entry, next) = block.decode(format, pos)?;
            assert!(
                pos < next && next <= block.end,
                "entry at {pos} ends at {next}"
            );
            let (table, key) = block.key();
            let value = entry.value.map(|v| {
                assert!(v.end <= block.end, "value past the block");
                block.bytes[v].to_vec()
            });
            out.push((table.to_vec(), key.to_vec(), entry.lsn, value));
            pos = next;
        }
        Ok(out)
    }

    /// `walk` returns entries or a `Corrupt`/`Decode` error, nothing else.
    fn walk_fails_cleanly(format: Format, bytes: &[u8]) {
        match walk(format, bytes) {
            Ok(_) | Err(StorageError::Corrupt { .. } | StorageError::Decode(_)) => {}
            Err(other) => panic!("{format:?} block {bytes:?}: unexpected {other:?}"),
        }
    }

    /// The data blocks of the run at `path`, as they sit in the file.
    fn blocks_of(path: &Path) -> Vec<Vec<u8>> {
        let bytes = std::fs::read(path).unwrap();
        let run = Run::open(path).unwrap();
        run.index
            .iter()
            .map(|m| bytes[m.offset as usize..][..m.len as usize].to_vec())
            .collect()
    }

    /// A small v3 block holding every kind of entry: a 130-byte table
    /// name, a NUL in a table name, an empty key, a key longer than a
    /// block buffer's key room, a tombstone and a `u64::MAX` LSN.
    fn small_v3_block() -> Vec<u8> {
        let long = "x".repeat(130);
        let entries: Vec<VersionedEntry> = vec![
            (("".to_string(), b"".to_vec()), 2, Some(b"e".to_vec())),
            (("a".to_string(), b"k".to_vec()), u64::MAX, None),
            (("a".to_string(), b"k".to_vec()), 1, Some(b"v".to_vec())),
            (("a".to_string(), b"kk".to_vec()), 3, Some(Vec::new())),
            (
                ("t\0a".to_string(), vec![b'k'; 300]),
                4,
                Some(b"long".to_vec()),
            ),
            ((long.clone() + "a", b"k".to_vec()), 5, Some(b"v".to_vec())),
            ((long + "b", b"k".to_vec()), 6, None),
        ];
        let path = tmpfile("fuzz-v3");
        write_run(&path, 1, 7, &mut borrowed(&entries)).unwrap();
        let blocks = blocks_of(&path);
        assert_eq!(blocks.len(), 1);
        let decoded: Vec<_> = walk(Format::V3, &blocks[0]).unwrap();
        let want: Vec<_> = entries
            .iter()
            .map(|((t, k), l, v)| (t.as_bytes().to_vec(), k.clone(), *l, v.clone()))
            .collect();
        assert_eq!(decoded, want);
        blocks[0].clone()
    }

    /// Every one-byte change and every truncation of valid v3 and v2
    /// blocks decodes to entries or fails with `Corrupt`/`Decode`; none
    /// panics or reads out of range.
    #[test]
    fn block_decoder_survives_every_mutation_and_truncation() {
        let path = tmpfile("fuzz-v2");
        std::fs::write(&path, v2_fixture()).unwrap();
        let v2 = blocks_of(&path);
        for (format, block) in [(Format::V3, small_v3_block()), (Format::V2, v2[1].clone())] {
            walk(format, &block).expect("the valid block decodes");
            for cut in 0..block.len() {
                walk_fails_cleanly(format, &block[..cut]);
            }
            let mut mutated = block.clone();
            for at in 0..block.len() {
                for byte in 0..=u8::MAX {
                    mutated[at] = byte;
                    walk_fails_cleanly(format, &mutated);
                }
                mutated[at] = block[at];
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, decoded as a block of either format, yield
        /// entries or a `Corrupt`/`Decode` error; none panics.
        #[test]
        fn block_decoder_survives_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..256)) {
            walk_fails_cleanly(Format::V3, &bytes);
            walk_fails_cleanly(Format::V2, &bytes);
        }
    }

    #[test]
    fn block_decoder_names_each_bad_entry() {
        // `t`/`k` at LSN 1, a tombstone: shared 0, rest 3, value 0, lsn 1.
        let first = [0u8, 3, 0, 1, 1, b't', b'k'];
        assert_eq!(
            walk(Format::V3, &first).unwrap(),
            vec![(b"t".to_vec(), b"k".to_vec(), 1, None)]
        );
        let corrupt =
            |bytes: &[u8]| matches!(walk(Format::V3, bytes), Err(StorageError::Corrupt { .. }));
        // A shared prefix longer than the previous key.
        assert!(corrupt(&[&first[..], &[4, 0, 0, 1]].concat()));
        // A shared prefix on a block's first entry, also when the key
        // slot still holds an earlier walk's key.
        assert!(corrupt(&[1, 2, 0, 1, b't', b'k']));
        let mut held = Block {
            index: Some(0),
            bytes: [&[1u8, 0, 0, 1][..], &[1, b't', b'k']].concat(),
            end: 4,
            table: 1..2,
        };
        assert!(matches!(
            held.decode(Format::V3, 0),
            Err(StorageError::Corrupt { .. })
        ));
        // A rest, or a value, that runs past the block.
        assert!(corrupt(&[0, 9, 0, 1, 1, b't']));
        assert!(corrupt(&[0, 2, 5, 1, 1, b't', b'v']));
        // A table length past the key.
        assert!(corrupt(&[0, 2, 0, 1, 5, b't']));
        // A varint of more than 64 bits, and one cut short.
        let overflow = [&[0xffu8; 9][..], &[0x02, 1, 0, 1]].concat();
        assert!(matches!(
            walk(Format::V3, &overflow),
            Err(StorageError::Decode(_))
        ));
        assert!(matches!(
            walk(Format::V3, &[0x80]),
            Err(StorageError::Decode(_))
        ));
        // A v2 entry with an unknown tag.
        let mut v2 = vec![7u8];
        codec::put_u64(&mut v2, 1);
        v2.extend([1, b't', 1, b'k']);
        assert!(matches!(
            walk(Format::V2, &v2),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
