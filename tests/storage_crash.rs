//! Crash-injection battery for the tiered store's flush and compaction
//! paths.
//!
//! The durability argument for the tiered engine is an ordering argument:
//! run file durable → manifest durable → frozen WAL segment deleted
//! (flush), and output durable → manifest durable → inputs deleted
//! (compaction). These tests
//! don't trust the argument — they simulate the crash at *every byte* of
//! the artifacts a dying flush, compaction or manifest swap can leave
//! behind, reopen the engine, and require that:
//!
//! * every committed row is served with its exact value,
//! * tombstones keep shadowing what they deleted,
//! * leftover temp files and orphaned runs are removed, and
//! * a corrupt or missing manifest degrades to the directory-scan
//!   fallback without losing a row.
//!
//! This is the run/manifest analogue of the WAL-tear battery in
//! `reassess_delta.rs` (`torn_commit_keeps_journal_and_data_atomic`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::{manifest, CompactionOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("preserva-crash-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> EngineOptions {
    EngineOptions {
        fsync: false,
        checkpoint_bytes: usize::MAX, // flushes only when the test says so
        metrics: None,
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: 100, // no auto-compaction: runs stay put
        },
    }
}

/// Expected live state: key → value for table "t".
type Expected = BTreeMap<Vec<u8>, Vec<u8>>;

/// Build a deterministic multi-run directory: three flushed runs with
/// cross-run overwrites and a tombstone, plus two committed WAL-only
/// rows. Returns the expected live rows.
fn build_fixture(dir: &Path) -> Expected {
    let e = Engine::open(dir, opts()).unwrap();
    // Run 1: keys 0..8.
    for i in 0..8u8 {
        e.put("t", &[i], format!("run1-{i}").as_bytes()).unwrap();
    }
    e.checkpoint().unwrap();
    // Run 2: overwrite 0..4, new keys 8..12.
    for i in 0..4u8 {
        e.put("t", &[i], format!("run2-{i}").as_bytes()).unwrap();
    }
    for i in 8..12u8 {
        e.put("t", &[i], format!("run2-{i}").as_bytes()).unwrap();
    }
    e.checkpoint().unwrap();
    // Run 3: tombstone over key 7 (lives in run 1), overwrite key 8.
    e.delete("t", &[7]).unwrap();
    e.put("t", &[8], b"run3-8").unwrap();
    e.checkpoint().unwrap();
    // WAL-only rows: committed but never flushed.
    e.put("t", &[20], b"wal-20").unwrap();
    e.put("t", &[21], b"wal-21").unwrap();
    drop(e);

    let mut expected = Expected::new();
    for i in 0..4u8 {
        expected.insert(vec![i], format!("run2-{i}").into_bytes());
    }
    for i in 4..7u8 {
        expected.insert(vec![i], format!("run1-{i}").into_bytes());
    }
    // key 7 deleted by run 3's tombstone
    expected.insert(vec![8], b"run3-8".to_vec());
    for i in 9..12u8 {
        expected.insert(vec![i], format!("run2-{i}").into_bytes());
    }
    expected.insert(vec![20], b"wal-20".to_vec());
    expected.insert(vec![21], b"wal-21".to_vec());
    expected
}

/// Read every file in `dir` into memory so each crash scenario can start
/// from a byte-identical directory.
fn snapshot_dir(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        files.push((
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        ));
    }
    files.sort();
    files
}

fn restore_dir(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Open the engine and require exact agreement with `expected` on point
/// reads (present and deleted keys), the full scan and the live count.
fn assert_state(dir: &Path, expected: &Expected, context: &str) {
    let e = Engine::open(dir, opts())
        .unwrap_or_else(|err| panic!("open must survive the crash artifact ({context}): {err}"));
    for key in 0..24u8 {
        assert_eq!(
            e.head().get("t", &[key]).unwrap(),
            expected.get(&vec![key]).cloned(),
            "get key {key} ({context})"
        );
    }
    let rows: Vec<(Vec<u8>, Vec<u8>)> = expected
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        e.head().scan_all("t").unwrap(),
        rows,
        "scan_all ({context})"
    );
    assert_eq!(
        e.head().count("t").unwrap(),
        expected.len(),
        "count ({context})"
    );
}

/// A flush or compaction that dies while writing its output leaves a
/// `run-<id>.tmp` truncated at an arbitrary byte. Recovery must delete
/// the temp and serve every committed row — the temp's contents are
/// covered by the WAL (flush) or by the input runs (compaction).
#[test]
fn torn_run_tmp_at_every_byte_is_swept_and_loses_nothing() {
    let dir = tmpdir("torn-tmp");
    let expected = build_fixture(&dir);
    let template = snapshot_dir(&dir);
    // Realistic in-flight bytes: an actual run file's prefix.
    let (_, run_bytes) = template
        .iter()
        .find(|(name, _)| name.starts_with("run-") && name.ends_with(".sst"))
        .expect("fixture has runs")
        .clone();
    let tmp_name = "run-0000000000000099.tmp";
    for cut in 0..=run_bytes.len() {
        restore_dir(&dir, &template);
        std::fs::write(dir.join(tmp_name), &run_bytes[..cut]).unwrap();
        assert_state(&dir, &expected, &format!("tmp cut at {cut}"));
        assert!(
            !dir.join(tmp_name).exists(),
            "temp file swept (cut at {cut})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash after the output's rename but before the manifest commit
/// leaves a fully- or partially-written run file that no manifest entry
/// references. Recovery must delete it without touching committed runs.
#[test]
fn orphaned_run_at_every_byte_is_removed_on_open() {
    let dir = tmpdir("orphan-run");
    let expected = build_fixture(&dir);
    let template = snapshot_dir(&dir);
    let (_, run_bytes) = template
        .iter()
        .find(|(name, _)| name.starts_with("run-") && name.ends_with(".sst"))
        .expect("fixture has runs")
        .clone();
    let orphan = "run-0000000000000099.sst";
    // Step by 7 to keep the battery quick while still hitting every
    // region of the file (header, blocks, index, bloom, footer) plus the
    // two interesting extremes.
    let cuts: Vec<usize> = (0..=run_bytes.len())
        .step_by(7)
        .chain([run_bytes.len()])
        .collect();
    for cut in cuts {
        restore_dir(&dir, &template);
        std::fs::write(dir.join(orphan), &run_bytes[..cut]).unwrap();
        assert_state(&dir, &expected, &format!("orphan cut at {cut}"));
        assert!(
            !dir.join(orphan).exists(),
            "orphan run removed (cut at {cut})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash during the manifest swap can leave the manifest truncated at
/// any byte (if the filesystem lies about the rename) or a stale
/// `MANIFEST.tmp` next to a good manifest. Either way every committed
/// row must survive via the directory-scan fallback.
#[test]
fn manifest_truncated_at_every_byte_falls_back_without_loss() {
    let dir = tmpdir("manifest-cut");
    let expected = build_fixture(&dir);
    let template = snapshot_dir(&dir);
    let (_, manifest_bytes) = template
        .iter()
        .find(|(name, _)| name == "MANIFEST")
        .expect("fixture has a manifest")
        .clone();
    for cut in 0..manifest_bytes.len() {
        restore_dir(&dir, &template);
        std::fs::write(manifest::manifest_path(&dir), &manifest_bytes[..cut]).unwrap();
        assert_state(&dir, &expected, &format!("manifest cut at {cut}"));
        // The fallback rewrites a good manifest, so the *next* open reads
        // it directly.
        assert!(
            manifest::load(&dir).unwrap().is_some(),
            "manifest repaired after cut at {cut}"
        );
    }
    // Missing entirely.
    restore_dir(&dir, &template);
    std::fs::remove_file(manifest::manifest_path(&dir)).unwrap();
    assert_state(&dir, &expected, "manifest missing");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-byte corruption of the manifest must be *detected* (CRC,
/// magic or framing) and survived through the fallback — never silently
/// trusted.
#[test]
fn manifest_bitflip_at_every_byte_falls_back_without_loss() {
    let dir = tmpdir("manifest-flip");
    let expected = build_fixture(&dir);
    let template = snapshot_dir(&dir);
    let (_, manifest_bytes) = template
        .iter()
        .find(|(name, _)| name == "MANIFEST")
        .expect("fixture has a manifest")
        .clone();
    for pos in 0..manifest_bytes.len() {
        restore_dir(&dir, &template);
        let mut corrupt = manifest_bytes.clone();
        corrupt[pos] ^= 0x55;
        std::fs::write(manifest::manifest_path(&dir), &corrupt).unwrap();
        assert!(
            manifest::load(&dir).is_err(),
            "flip at {pos} must not decode as a valid manifest"
        );
        assert_state(&dir, &expected, &format!("manifest flip at {pos}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A stale `MANIFEST.tmp` (crash between its write and the rename) must
/// be swept while the committed manifest keeps working.
#[test]
fn stale_manifest_tmp_is_swept() {
    let dir = tmpdir("manifest-tmp");
    let expected = build_fixture(&dir);
    std::fs::write(dir.join("MANIFEST.tmp"), b"half-written").unwrap();
    assert_state(&dir, &expected, "stale MANIFEST.tmp");
    assert!(!dir.join("MANIFEST.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Unreadable stray files of every kind — a garbage run some dead
/// process invented, a half flush — must all be gone after one open.
/// (A `snap-*.sst` is not a stray but an unsupported format: see
/// `legacy_formats_fail_open_and_stay_on_disk` in the engine's tests.)
#[test]
fn stray_files_of_every_kind_are_cleaned_up() {
    let dir = tmpdir("strays");
    let expected = build_fixture(&dir);
    std::fs::write(manifest::run_path(&dir, 999), b"not a run at all").unwrap();
    std::fs::write(dir.join("run-0000000000000500.tmp"), b"half a flush").unwrap();
    assert_state(&dir, &expected, "stray files");
    assert!(
        !manifest::run_path(&dir, 999).exists(),
        "garbage run removed"
    );
    assert!(
        !dir.join("run-0000000000000500.tmp").exists(),
        "temp removed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flush that dies between rotating the live WAL to `wal.frozen` and
/// committing its run leaves a frozen segment holding the frozen
/// memtable's transactions, plus a live log with whatever committed after
/// the rotation. Recovery must replay both — frozen first — fold them
/// back into a single live log, and lose nothing, whatever byte the live
/// log is torn at.
#[test]
fn frozen_wal_segment_with_torn_live_tail_recovers_and_folds() {
    use preserva::storage::wal::{BatchOp, Wal, WalRecord};

    let dir = tmpdir("frozen-wal");
    let expected = build_fixture(&dir);
    // Forge the interrupted-flush layout: the entire live WAL becomes the
    // frozen segment (exactly what the rotation does), and a fresh live
    // log carries two post-rotation commits.
    std::fs::rename(dir.join("wal.log"), dir.join("wal.frozen")).unwrap();
    {
        let mut w = Wal::open(&dir.join("wal.log"), false).unwrap();
        for (key, txid) in [(22u8, 1000u64), (23, 1001)] {
            w.append_op(&BatchOp::Put {
                table: "t".into(),
                key: vec![key],
                value: format!("post-{key}").into_bytes(),
            })
            .unwrap();
            w.append(&WalRecord::Commit { txid }).unwrap();
        }
        w.sync().unwrap();
    }
    let template = snapshot_dir(&dir);
    let (_, live_bytes) = template
        .iter()
        .find(|(name, _)| name == "wal.log")
        .expect("live WAL")
        .clone();
    for cut in 0..=live_bytes.len() {
        restore_dir(&dir, &template);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let (post22, post23) = {
            let e = Engine::open(&dir, opts()).unwrap();
            // Every frozen-segment row — including the fixture's two
            // WAL-only rows — survives regardless of the tear.
            for key in 0..22u8 {
                assert_eq!(
                    e.head().get("t", &[key]).unwrap(),
                    expected.get(&vec![key]).cloned(),
                    "frozen-covered key {key} (live cut at {cut})"
                );
            }
            (
                e.head().get("t", &[22]).unwrap(),
                e.head().get("t", &[23]).unwrap(),
            )
        };
        // Post-rotation commits roll back all-or-nothing, in order.
        assert!(
            post23.is_none() || post22.is_some(),
            "commit 1001 visible without 1000 (live cut at {cut})"
        );
        assert!(
            !dir.join("wal.frozen").exists(),
            "segments folded into one live log (cut at {cut})"
        );
        // The folded log must carry the identical state through a second
        // open on its own.
        let mut now = expected.clone();
        if let Some(v) = post22 {
            now.insert(vec![22], v);
        }
        if let Some(v) = post23 {
            now.insert(vec![23], v);
        }
        assert_state(&dir, &now, &format!("reopen after fold, cut at {cut}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After a full compaction the same battery must hold: tear the WAL at
/// every byte behind a compacted tree and verify the run-resident rows
/// are all intact while the torn WAL suffix rolls back atomically.
#[test]
fn wal_tear_over_compacted_tree_keeps_runs_intact() {
    let dir = tmpdir("wal-tear");
    let mut expected = build_fixture(&dir);
    {
        let e = Engine::open(&dir, opts()).unwrap();
        assert!(e.compact().unwrap(), "fixture has runs to merge");
        // The WAL-only rows were replayed into the memtable at open; they
        // are not flushed, so they live in the WAL after the compaction
        // too (compaction never touches the WAL).
    }
    let template = snapshot_dir(&dir);
    let (_, wal_bytes) = template
        .iter()
        .find(|(name, _)| name == "wal.log")
        .expect("live WAL")
        .clone();
    // Rows 20/21 sit in the WAL; everything else is run-resident.
    let run_resident: Expected = expected
        .iter()
        .filter(|(k, _)| k[0] < 20)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    expected.retain(|k, _| k[0] < 20);
    for cut in 0..=wal_bytes.len() {
        restore_dir(&dir, &template);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let e = Engine::open(&dir, opts()).unwrap();
        for (k, v) in &run_resident {
            assert_eq!(
                e.head().get("t", k).unwrap().as_deref(),
                Some(v.as_slice()),
                "run-resident key {k:?} (wal cut at {cut})"
            );
        }
        assert_eq!(e.head().get("t", &[7]).unwrap(), None, "tombstone holds");
        // The torn transactions are all-or-nothing per commit; at minimum
        // the run-resident row count is a floor.
        assert!(e.head().count("t").unwrap() >= run_resident.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}
