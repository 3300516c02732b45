//! Property tests for the storage engine invariants called out in
//! DESIGN.md §7: recovery equivalence, scan ordering, codec round-trips.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use preserva_storage::codec;
use preserva_storage::engine::{BatchOp, Engine, EngineOptions};
use preserva_storage::table::{IndexDef, TableStore};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "preserva-prop-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A randomly generated operation against a single table.
#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (proptest::collection::vec(0u8..8, 1..4), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => proptest::collection::vec(0u8..8, 1..4).prop_map(Op::Delete),
        1 => Just(Op::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of puts/deletes/checkpoints, reopening the engine
    /// yields exactly the state a plain in-memory map would hold.
    #[test]
    fn recovery_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let dir = tmpdir("model");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            for op in &ops {
                match op {
                    Op::Put(k, v) => {
                        e.put("t", k, v).unwrap();
                        model.insert(k.clone(), v.clone());
                    }
                    Op::Delete(k) => {
                        e.delete("t", k).unwrap();
                        model.remove(k);
                    }
                    Op::Checkpoint => {
                        e.checkpoint().unwrap();
                    }
                }
            }
        }
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        let got: BTreeMap<Vec<u8>, Vec<u8>> = e.head().scan_all("t").unwrap().into_iter().collect();
        prop_assert_eq!(got, model);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Scans return keys strictly sorted and deduplicated.
    #[test]
    fn scan_is_sorted_and_unique(keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6), 1..40)) {
        let dir = tmpdir("sorted");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for k in &keys {
            e.put("t", k, b"x").unwrap();
        }
        let rows = e.head().scan_all("t").unwrap();
        for w in rows.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Varint and byte-string codecs round-trip arbitrary inputs.
    #[test]
    fn codec_roundtrip(v in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = Vec::new();
        codec::put_uvarint(&mut buf, v);
        codec::put_bytes(&mut buf, &data);
        let (got_v, n) = codec::get_uvarint(&buf).unwrap();
        let (got_b, m) = codec::get_bytes(&buf[n..]).unwrap();
        prop_assert_eq!(got_v, v);
        prop_assert_eq!(got_b, &data[..]);
        prop_assert_eq!(n + m, buf.len());
    }

    /// A batch is all-or-nothing even across reopen: we commit some batches,
    /// then verify every batch's keys are either all present or all absent
    /// after recovery (they must all be present, since apply_batch returned).
    #[test]
    fn batches_survive_reopen(batches in proptest::collection::vec(
        proptest::collection::vec((proptest::collection::vec(0u8..16, 2..4), proptest::collection::vec(any::<u8>(), 1..8)), 1..5),
        1..10
    )) {
        let dir = tmpdir("batch");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            for (i, batch) in batches.iter().enumerate() {
                let ops = batch.iter().map(|(k, v)| {
                    let mut key = vec![i as u8, 0xFE];
                    key.extend_from_slice(k);
                    BatchOp::Put { table: "t".into(), key, value: v.clone() }
                }).collect();
                e.apply_batch(ops).unwrap();
            }
        }
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            // Duplicate keys within one batch resolve last-write-wins.
            let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (k, v) in batch {
                let mut key = vec![i as u8, 0xFE];
                key.extend_from_slice(k);
                expected.insert(key, v.clone());
            }
            for (key, v) in &expected {
                let got = e.head().get("t", key).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Secondary indexes agree with a full scan under random workloads.
    #[test]
    fn index_agrees_with_scan(ops in proptest::collection::vec(
        (proptest::collection::vec(0u8..6, 1..3), any::<Option<u8>>()), 1..40
    )) {
        let dir = tmpdir("index");
        let store = TableStore::new(Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap())).unwrap();
        store.create_index("t", IndexDef::new("first", |r: &[u8]| r.first().map(|b| vec![*b]))).unwrap();
        for (k, v) in &ops {
            match v {
                Some(b) => store.put("t", k, &[*b]).unwrap(),
                None => store.delete("t", k).unwrap(),
            }
        }
        // For every first-byte value, index lookup must equal scan filter.
        for b in 0u8..=255 {
            let mut via_index = store.head().lookup("t", "first", &[b]).unwrap();
            via_index.sort();
            let mut via_scan: Vec<Vec<u8>> = store.head().scan("t").unwrap().into_iter()
                .filter(|(_, row)| row.first() == Some(&b))
                .map(|(k, _)| k)
                .collect();
            via_scan.sort();
            prop_assert_eq!(via_index, via_scan);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A committed WriteSession spanning several tables is all-or-none
    /// under crash: whatever byte the WAL is torn at, recovery sees either
    /// every row of the session (when the tear is past its commit frame)
    /// or none of them — never a subset. The baseline commit before it
    /// must survive untouched either way.
    #[test]
    fn write_session_all_or_none_across_wal_tear(
        rows in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0u8..6, 1..4), proptest::collection::vec(any::<u8>(), 1..8)),
            1..10
        ),
        cut_seed in any::<u64>(),
    ) {
        const TABLES: [&str; 3] = ["ta", "tb", "tc"];
        let dir = tmpdir("session-tear");
        let wal_path = dir.join("wal.log");
        let baseline_len;
        {
            let store = TableStore::new(Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap())).unwrap();
            let mut s = store.session();
            for t in TABLES {
                s.put(t, b"baseline", b"pre").unwrap();
            }
            s.commit().unwrap();
            baseline_len = std::fs::metadata(&wal_path).unwrap().len();

            let mut s = store.session();
            for (t, k, v) in &rows {
                s.put(TABLES[*t], k, v).unwrap();
            }
            s.commit().unwrap();
        }
        let full_len = std::fs::metadata(&wal_path).unwrap().len();
        prop_assert!(full_len > baseline_len, "the second session must have appended frames");

        // Tear the WAL at an arbitrary byte within the second session's
        // frames (including exactly at its start and exactly at its end).
        let span = full_len - baseline_len;
        let cut = baseline_len + cut_seed % (span + 1);
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let store = TableStore::new(Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap())).unwrap();
        // Baseline commit is intact in every table.
        for t in TABLES {
            prop_assert_eq!(store.head().get(t, b"baseline").unwrap().as_deref(), Some(&b"pre"[..]));
        }
        // Last-write-wins expectation per (table, key) for the torn session.
        let mut expected: BTreeMap<(usize, Vec<u8>), Vec<u8>> = BTreeMap::new();
        for (t, k, v) in &rows {
            expected.insert((*t, k.clone()), v.clone());
        }
        let present: Vec<bool> = expected
            .iter()
            .map(|((t, k), v)| {
                store.head().get(TABLES[*t], k).unwrap().as_deref() == Some(v.as_slice())
            })
            .collect();
        let all = present.iter().all(|&p| p);
        let none = expected
            .keys()
            .all(|(t, k)| store.head().get(TABLES[*t], k).unwrap().is_none());
        prop_assert!(
            all || none,
            "torn session must be all-or-none; cut at {} of {} (baseline {}): {:?}",
            cut, full_len, baseline_len, present
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Non-property regression tests that belong with the recovery suite.
mod recovery_edge_cases {
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_storage::manifest;
    use preserva_storage::CompactionOptions;

    fn keep_all_runs() -> EngineOptions {
        EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100,
            },
            ..EngineOptions::default()
        }
    }

    /// Regression: the old engine *skipped* an unreadable newest snapshot
    /// but left the corrupt file on disk forever. The tiered engine must
    /// drop an unreadable run from the catalog AND delete the file, while
    /// serving everything the remaining runs hold.
    #[test]
    fn corrupt_newest_run_is_dropped_and_deleted() {
        let dir = super::tmpdir("runfall");
        {
            let e = Engine::open(&dir, keep_all_runs()).unwrap();
            e.put("t", b"gen1", b"v1").unwrap();
            e.checkpoint().unwrap(); // run 1
            e.put("t", b"gen2", b"v2").unwrap();
            e.checkpoint().unwrap(); // run 2
            e.put("t", b"gen3", b"v3").unwrap();
            e.checkpoint().unwrap(); // run 3
        }
        // Corrupt the newest run's tail (index + footer region), making
        // the whole file unreadable — a torn flush the manifest already
        // committed.
        let newest = manifest::run_path(&dir, 3);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 10]).unwrap();

        // Recovery must not fail outright: the two readable runs are
        // served (degraded, but available) and the corrupt file is gone.
        let e = Engine::open(&dir, keep_all_runs()).unwrap();
        assert_eq!(
            e.head().get("t", b"gen1").unwrap().as_deref(),
            Some(&b"v1"[..])
        );
        assert_eq!(
            e.head().get("t", b"gen2").unwrap().as_deref(),
            Some(&b"v2"[..])
        );
        assert_eq!(e.head().get("t", b"gen3").unwrap(), None);
        assert_eq!(e.stats().recovered_from_snapshot, 2);
        assert!(
            !newest.exists(),
            "unreadable run must be deleted, not skipped silently"
        );
        // The engine is usable for new writes, and a fresh run id never
        // collides with the one just deleted: within the open that saw
        // run 3 in the catalog, ids stay monotonic.
        e.put("t", b"after", b"ok").unwrap();
        assert!(e.checkpoint().unwrap() > 3);
        // The manifest was repaired to match: another reopen is clean.
        drop(e);
        let e = Engine::open(&dir, keep_all_runs()).unwrap();
        assert_eq!(e.head().count("t").unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a checkpoint that crashed after writing its run but
    /// before committing the manifest used to leave the half-flush on
    /// disk forever. Open must remove both orphan runs and temp files.
    #[test]
    fn interrupted_flush_leftovers_are_removed_on_open() {
        let dir = super::tmpdir("flushcrash");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("t", b"live", b"v").unwrap();
            e.checkpoint().unwrap();
        }
        // Orphan run: renamed into place but never committed to the
        // manifest. Temp file: a flush that died mid-write.
        std::fs::write(manifest::run_path(&dir, 42), b"orphan").unwrap();
        std::fs::write(dir.join("run-0000000000000043.tmp"), b"half").unwrap();
        std::fs::write(dir.join("MANIFEST.tmp"), b"half").unwrap();
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(
            e.head().get("t", b"live").unwrap().as_deref(),
            Some(&b"v"[..])
        );
        assert!(!manifest::run_path(&dir, 42).exists());
        assert!(!dir.join("run-0000000000000043.tmp").exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
