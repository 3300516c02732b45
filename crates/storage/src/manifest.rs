//! Crash-safe catalog of the live run set.
//!
//! The manifest (`<dir>/MANIFEST`) lists every committed run and its
//! level. It is replaced atomically: the new version is written to
//! `MANIFEST.tmp`, fsynced, renamed over the old one, and the directory
//! is fsynced so the rename itself is durable. A crash therefore leaves
//! either the old or the new manifest — never a torn one.
//!
//! Recovery treats the manifest as authoritative but not indispensable:
//! if it is missing or corrupt while run files exist, the engine falls
//! back to a directory scan, recovering each run's level from its own
//! footer and ordering the set by `(level asc, id desc)`. Id alone is
//! *not* a recency order across levels: a compaction output (old data,
//! level ≥ 2) can be allocated a higher id than a concurrently flushed
//! level-1 run holding newer data. Within a level ids are monotonic —
//! flushes are serialized, and a level ≥ 2 holds at most one run — so
//! level-major ordering is a correct recency order everywhere.
//!
//! Format: `u32 count, [u64 id | u32 level]*, u32 crc(body), MAGIC u32`.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::codec;
use crate::crc32;
use crate::error::{StorageError, StorageResult};

const MAGIC: u32 = 0x504D_414E; // "PMAN"

/// One committed run as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEntry {
    /// Monotonic run id; recency order *within* a level, not across
    /// levels (read precedence is `(level asc, id desc)`).
    pub id: u64,
    /// Level the run lives at (1 = freshest flushes).
    pub level: u32,
}

/// Path of the manifest inside an engine directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Path of run `id` inside an engine directory.
pub fn run_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("run-{id:016}.sst"))
}

/// fsync a directory so a rename inside it is durable.
///
/// A directory that cannot be *opened* (Windows refuses) or a filesystem
/// that cannot fsync directories (`ENOTSUP`/`EINVAL`) only weakens
/// durability of the rename, never consistency, so those are tolerated.
/// Every other fsync failure — e.g. a dying disk — is propagated: a
/// flush or compaction must not report success while its commit may not
/// be durable.
pub fn sync_dir(dir: &Path) -> StorageResult<()> {
    let f = match File::open(dir) {
        Ok(f) => f,
        Err(_) => return Ok(()),
    };
    match f.sync_all() {
        Ok(()) => Ok(()),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::Unsupported | std::io::ErrorKind::InvalidInput
            ) =>
        {
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// Load the manifest. `Ok(None)` means "no manifest" (a fresh
/// directory); a corrupt manifest is an `Err` so the caller can fall back
/// to scanning the directory.
pub fn load(dir: &Path) -> StorageResult<Option<Vec<RunEntry>>> {
    let path = manifest_path(dir);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut buf)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if buf.len() < 12 {
        return Err(StorageError::corrupt(0, "manifest shorter than trailer"));
    }
    let trailer = buf.len() - 8;
    let (crc, _) = codec::get_u32(&buf[trailer..])?;
    let (magic, _) = codec::get_u32(&buf[trailer + 4..])?;
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            trailer as u64 + 4,
            format!("bad manifest magic {magic:#x}"),
        ));
    }
    let body = &buf[..trailer];
    if crc32::checksum(body) != crc {
        return Err(StorageError::corrupt(0, "manifest body CRC mismatch"));
    }
    let mut pos = 0usize;
    let (count, n) = codec::get_u32(body)?;
    pos += n;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (id, n) = codec::get_u64(&body[pos..])?;
        pos += n;
        let (level, n) = codec::get_u32(&body[pos..])?;
        pos += n;
        entries.push(RunEntry { id, level });
    }
    if pos != body.len() {
        return Err(StorageError::corrupt(
            pos as u64,
            "trailing bytes after manifest entries",
        ));
    }
    Ok(Some(entries))
}

/// Atomically replace the manifest with `entries`.
pub fn store(dir: &Path, entries: &[RunEntry]) -> StorageResult<()> {
    let mut body = Vec::with_capacity(4 + entries.len() * 12);
    codec::put_u32(&mut body, entries.len() as u32);
    for e in entries {
        codec::put_u64(&mut body, e.id);
        codec::put_u32(&mut body, e.level);
    }
    let crc = crc32::checksum(&body);
    codec::put_u32(&mut body, crc);
    codec::put_u32(&mut body, MAGIC);
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, manifest_path(dir))?;
    sync_dir(dir)
}

/// Every `run-*.sst` in `dir`, as `(id, path)` pairs sorted by id.
pub fn list_run_files(dir: &Path) -> StorageResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idpart) = name
            .strip_prefix("run-")
            .and_then(|rest| rest.strip_suffix(".sst"))
        {
            if let Ok(id) = idpart.parse::<u64>() {
                out.push((id, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(id, _)| *id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-manifest-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_replace() {
        let dir = tmpdir("roundtrip");
        assert_eq!(load(&dir).unwrap(), None);
        let v1 = vec![RunEntry { id: 1, level: 1 }, RunEntry { id: 2, level: 1 }];
        store(&dir, &v1).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(v1));
        let v2 = vec![RunEntry { id: 3, level: 2 }];
        store(&dir, &v2).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(v2));
        assert!(!dir.join("MANIFEST.tmp").exists(), "tmp renamed away");
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let dir = tmpdir("empty");
        store(&dir, &[]).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(vec![]));
    }

    #[test]
    fn corruption_is_an_error_not_a_silent_reset() {
        let dir = tmpdir("corrupt");
        store(&dir, &[RunEntry { id: 9, level: 3 }]).unwrap();
        let mut bytes = std::fs::read(manifest_path(&dir)).unwrap();
        bytes[1] ^= 0x80;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        assert!(matches!(load(&dir), Err(StorageError::Corrupt { .. })));
        // Truncations too, at every byte.
        let good = {
            store(&dir, &[RunEntry { id: 9, level: 3 }]).unwrap();
            std::fs::read(manifest_path(&dir)).unwrap()
        };
        for cut in 0..good.len() {
            std::fs::write(manifest_path(&dir), &good[..cut]).unwrap();
            assert!(load(&dir).is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn run_file_listing_is_sorted_and_filtered() {
        let dir = tmpdir("listing");
        for name in ["run-0000000000000003.sst", "run-0000000000000001.sst"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        std::fs::write(dir.join("run-junk.sst"), b"x").unwrap();
        std::fs::write(dir.join("run-0000000000000002.tmp"), b"x").unwrap();
        let ids: Vec<u64> = list_run_files(&dir)
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }
}
