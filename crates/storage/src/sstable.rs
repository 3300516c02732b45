//! Sorted-run files ("SSTables").
//!
//! One format lives here: the **tiered run** (`run-*.sst`, magic
//! `PRN2`), the immutable multi-version unit of the leveled store. A run
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
//!          RUN_MAGIC_V2 u32]
//! ```
//!
//! Each entry is `tag u8 | lsn u64 | table | key | [value]` with
//! length-prefixed byte strings; tombstones round-trip so deletions
//! shadow older runs until compaction folds them out at the bottom
//! level, below the oldest pinned snapshot. The footer
//! records the run's **level** so recovery can rebuild correct read
//! precedence — `(level asc, id desc)` — even when the manifest is lost,
//! and its **max_lsn** so recovery can restore the engine's LSN clock
//! after the WAL segment holding those commits was deleted by a flush.
//! Opening a run reads only index + range-tombstone count + bloom
//! (`tail_crc` covers exactly that region), so open cost is O(index),
//! not O(data);
//! each data block carries its own CRC, verified on every read — no
//! block is cached.
//!
//! Every read of a run goes through one `RunCursor`: it reads one
//! block at a time into a buffer it reuses, verifies the block's CRC and
//! decodes each entry in place, lending `(table, key, lsn, value)` out
//! of the buffer, so walking an entry allocates nothing. It starts at
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
//! Two forms only older builds wrote open as
//! [`StorageError::Unsupported`], never as corruption, so recovery leaves
//! them on disk instead of deleting them: a file ending in the v1 magic
//! (`PRUN`, single-version entries without LSNs), and a run whose
//! range-tombstone count is not zero (range deletes are retired; this
//! build writes every run with a zero count, so its bytes are unchanged).

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

const TAG_LIVE: u8 = 0;
const TAG_TOMBSTONE: u8 = 1;
/// Magic trailer of v1 (single-version) run files ("PRUN"), which this
/// build refuses to open.
const RUN_MAGIC_V1: u32 = 0x5052_554E;
/// Magic trailer of run files ("PRN2").
pub const RUN_MAGIC_V2: u32 = 0x5052_4E32;
/// Target uncompressed size of one data block.
const BLOCK_TARGET: usize = 4096;
/// Footer size: index_off + rt_off + bloom_off + entries + tombstones
/// + max_lsn + level + crc + magic.
const RUN_FOOTER_LEN: usize = 8 * 6 + 4 * 3;
/// Bloom sizing: bits per entry and number of probes.
const BLOOM_BITS_PER_KEY: u64 = 10;
const BLOOM_PROBES: u32 = 7;

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

fn encode_entry(out: &mut Vec<u8>, (table, key, lsn, value): VersionRef<'_>) {
    match value {
        Some(v) => {
            out.push(TAG_LIVE);
            codec::put_u64(out, lsn);
            codec::put_bytes(out, table.as_bytes());
            codec::put_bytes(out, key);
            codec::put_bytes(out, v);
        }
        None => {
            out.push(TAG_TOMBSTONE);
            codec::put_u64(out, lsn);
            codec::put_bytes(out, table.as_bytes());
            codec::put_bytes(out, key);
        }
    }
}

/// Where one entry's parts sit in its data block.
#[derive(Debug, Clone)]
struct Entry {
    lsn: Lsn,
    table: Range<usize>,
    key: Range<usize>,
    /// `None` for a point tombstone.
    value: Option<Range<usize>>,
}

/// Decode the entry at `pos` of a CRC-verified data block in place:
/// where its parts sit, and where the next entry starts.
fn decode_entry(block: &[u8], pos: usize) -> StorageResult<(Entry, usize)> {
    let tag = block[pos];
    let (lsn, n) = codec::get_u64(&block[pos + 1..])?;
    let mut at = pos + 1 + n;
    let mut field = || -> StorageResult<Range<usize>> {
        let (bytes, n) = codec::get_bytes(&block[at..])?;
        at += n;
        Ok(at - bytes.len()..at)
    };
    let table = field()?;
    let key = field()?;
    let value = match tag {
        TAG_LIVE => Some(field()?),
        TAG_TOMBSTONE => None,
        other => {
            return Err(StorageError::Corrupt {
                offset: pos as u64,
                reason: format!("unknown run entry tag {other}"),
            })
        }
    };
    Ok((
        Entry {
            lsn,
            table,
            key,
            value,
        },
        at,
    ))
}

/// Write `versions` (already sorted ascending by `NsKey`, then LSN
/// *descending* within a key) as a tiered run at `path`, recorded as
/// living at `level`. Streaming: memory use is bounded by one block
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

    versions.for_each_version(&mut |version @ (table, key, lsn, value)| {
        if block_first.is_none() {
            block_first = Some((table.to_string(), key.to_vec()));
        }
        encode_entry(&mut block, version);
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
    codec::put_u32(&mut footer, RUN_MAGIC_V2);
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
    /// index/bloom CRC. Data blocks are verified lazily, on first read. A
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
        match magic {
            RUN_MAGIC_V2 => {}
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
        }
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

    /// Read data block `index` into `block`, which the caller reuses from
    /// block to block, and verify its CRC. `block` is left empty on
    /// failure.
    fn read_block(&self, index: usize, block: &mut Block) -> StorageResult<()> {
        let meta = &self.index[index];
        let buf = &mut block.bytes;
        buf.clear();
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
            _ => (first, block.bytes.len()),
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

/// The data block a [`RunCursor`] holds: the CRC-verified bytes of one
/// block of its run, which it decodes in place and reuses for the next.
#[derive(Debug, Default)]
pub(crate) struct Block {
    /// Which block of the run `bytes` holds; `None` before the first
    /// read and after a failed one.
    index: Option<usize>,
    bytes: Vec<u8>,
}

impl Block {
    /// Whether the block holds verified bytes a later lookup could reuse.
    pub(crate) fn is_held(&self) -> bool {
        self.index.is_some()
    }
}

/// Walks a run's versions in `(key asc, lsn desc)` order, from a span's
/// start to its end. It reads one CRC-verified block at a time into a
/// buffer it reuses and decodes each entry in place, so a version
/// costs no allocation; a block that starts past the span is never
/// read.
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
            let bytes = &self.block.bytes;
            if self.pos == bytes.len() {
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
            let (entry, next) = decode_entry(bytes, self.pos)?;
            self.pos = next;
            if let Some(span) = self.span {
                let (table, key) = (&bytes[entry.table.clone()], &bytes[entry.key.clone()]);
                if span.is_before(table, key) {
                    continue;
                }
                if span.is_past(table, key) {
                    self.next_block = self.run.index.len();
                    self.pos = bytes.len();
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
        let bytes = &self.block.bytes;
        Some((
            &bytes[entry.table.clone()],
            &bytes[entry.key.clone()],
            entry.lsn,
            entry.value.clone().map(|v| &bytes[v]),
        ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{Layer, MergeCursor};
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
}
