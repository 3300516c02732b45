//! Bulk-ingest battery: the direct-run fast path, journal cursor edge
//! semantics, and the batch-boundary crash contract (a torn WAL batch
//! recovers all-or-nothing, journal and data agreeing).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use preserva_storage::codec::put_u64;
use preserva_storage::engine::BatchOp;
use preserva_storage::table::IndexDef;
use preserva_storage::{
    CompactionOptions, Engine, EngineOptions, JournalEntry, TableStore, ROW_UPSERTED,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserva-bulktest-{}-{}-{}",
        std::process::id(),
        tag,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn foreground() -> EngineOptions {
    EngineOptions {
        compaction: CompactionOptions {
            background: false,
            ..CompactionOptions::default()
        },
        ..EngineOptions::default()
    }
}

fn store_at(dir: &Path) -> TableStore {
    TableStore::new(Arc::new(Engine::open(dir, foreground()).unwrap())).unwrap()
}

fn put(table: &str, k: &[u8], v: &[u8]) -> BatchOp {
    BatchOp::Put {
        table: table.to_string(),
        key: k.to_vec(),
        value: v.to_vec(),
    }
}

// ---------------------------------------------------------------- direct runs

#[test]
fn ingest_run_is_visible_durable_and_time_travels() {
    let dir = tmpdir("direct");
    let lsn;
    {
        let engine = Engine::open(&dir, foreground()).unwrap();
        engine.put("t", b"seed", b"old").unwrap();
        let before = engine.committed_lsn();
        let rows: Vec<_> = (0..500u32)
            .map(|i| {
                (
                    "t".to_string(),
                    format!("bulk-{i:05}").into_bytes(),
                    vec![1],
                )
            })
            .collect();
        lsn = engine.ingest_run(rows).unwrap();
        assert!(lsn > before, "bulk run draws a fresh LSN");
        assert_eq!(engine.committed_lsn(), lsn);
        assert_eq!(engine.head().count("t").unwrap(), 501);
        // Time travel: before the bulk LSN the batch is invisible; at it,
        // the whole batch appears at once.
        assert_eq!(engine.as_of(before).count("t").unwrap(), 1);
        assert_eq!(engine.as_of(lsn).count("t").unwrap(), 501);
    }
    // Reopen: the run was MANIFEST-committed, no WAL involved.
    let engine = Engine::open(&dir, foreground()).unwrap();
    assert_eq!(engine.head().count("t").unwrap(), 501);
    assert_eq!(
        engine.head().get("t", b"bulk-00499").unwrap().as_deref(),
        Some(&[1u8][..])
    );
    // The LSN clock recovered past the bulk run's LSN: a new commit must
    // not reuse it.
    engine.put("t", b"after", b"x").unwrap();
    assert!(engine.committed_lsn() > lsn);
    std::fs::remove_dir_all(&dir).ok();
}

/// A bulk run commits at a fresh LSN straight into level 1, above
/// versions of the same keys still in the memtable (one live, one a
/// tombstone). Point reads must agree with scans on the bulk rows after
/// the ingest, after a checkpoint moves the older versions into a run
/// that precedes the bulk run, and after a reopen; a snapshot pinned
/// before the ingest keeps reading the older versions throughout.
#[test]
fn bulk_rows_shadow_memtable_versions_through_get() {
    let dir = tmpdir("shadow");
    let expect_bulk = |engine: &Engine, when: &str| {
        assert_eq!(
            engine.head().get("t", b"k").unwrap().as_deref(),
            Some(&b"bulk"[..]),
            "get of an overwritten key {when}"
        );
        assert_eq!(
            engine.head().get("t", b"gone").unwrap().as_deref(),
            Some(&b"back"[..]),
            "get of a deleted key {when}"
        );
        assert_eq!(
            engine.head().get("t", b"mem").unwrap().as_deref(),
            Some(&b"kept"[..]),
            "get of a key the run does not hold {when}"
        );
        assert_eq!(
            engine.head().scan_all("t").unwrap(),
            vec![
                (b"gone".to_vec(), b"back".to_vec()),
                (b"k".to_vec(), b"bulk".to_vec()),
                (b"mem".to_vec(), b"kept".to_vec()),
            ],
            "scan_all {when}"
        );
    };
    {
        let engine = Engine::open(&dir, foreground()).unwrap();
        engine.put("t", b"k", b"old").unwrap();
        engine.put("t", b"gone", b"x").unwrap();
        engine.delete("t", b"gone").unwrap();
        engine.put("t", b"mem", b"kept").unwrap();
        let before = engine.snapshot();
        engine
            .ingest_run(vec![
                ("t".to_string(), b"gone".to_vec(), b"back".to_vec()),
                ("t".to_string(), b"k".to_vec(), b"bulk".to_vec()),
            ])
            .unwrap();
        let expect_old = |when: &str| {
            assert_eq!(
                before.get("t", b"k").unwrap().as_deref(),
                Some(&b"old"[..]),
                "pinned get {when}"
            );
            assert_eq!(before.get("t", b"gone").unwrap(), None, "pinned get {when}");
        };
        expect_bulk(&engine, "after the ingest");
        expect_old("after the ingest");
        engine.checkpoint().unwrap();
        expect_bulk(&engine, "after a checkpoint");
        expect_old("after a checkpoint");
    }
    let engine = Engine::open(&dir, foreground()).unwrap();
    expect_bulk(&engine, "after a reopen");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_run_rejects_unsorted_and_duplicate_rows() {
    let dir = tmpdir("unsorted");
    let engine = Engine::open(&dir, foreground()).unwrap();
    let unsorted = vec![
        ("t".to_string(), b"b".to_vec(), vec![1]),
        ("t".to_string(), b"a".to_vec(), vec![2]),
    ];
    assert!(engine.ingest_run(unsorted).is_err());
    let dup = vec![
        ("t".to_string(), b"a".to_vec(), vec![1]),
        ("t".to_string(), b"a".to_vec(), vec![2]),
    ];
    assert!(engine.ingest_run(dup).is_err());
    assert_eq!(
        engine.head().count("t").unwrap(),
        0,
        "rejected input writes nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_run_compacts_with_normal_runs() {
    let dir = tmpdir("compact");
    let engine = Engine::open(&dir, foreground()).unwrap();
    engine.put("t", b"m1", b"v").unwrap();
    engine.checkpoint().unwrap();
    engine
        .ingest_run(
            (0..100u32)
                .map(|i| ("t".to_string(), format!("b{i:03}").into_bytes(), vec![7]))
                .collect(),
        )
        .unwrap();
    engine.put("t", b"m2", b"v").unwrap();
    engine.checkpoint().unwrap();
    assert!(engine.compact().unwrap());
    assert_eq!(engine.head().count("t").unwrap(), 102);
    assert_eq!(
        engine
            .runs_per_level()
            .iter()
            .map(|(_, n)| n)
            .sum::<usize>(),
        1,
        "bulk runs merge into the leveled tree like any other run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------- table-layer bulk_load

#[test]
fn bulk_load_maintains_indexes_and_journal() {
    let dir = tmpdir("bulkload");
    let first_byte = || IndexDef::new("first", |row: &[u8]| row.first().map(|b| vec![*b]));
    {
        let s = store_at(&dir);
        s.create_index("t", first_byte()).unwrap();
        s.mark_journaled("t").unwrap();
        let rows: Vec<_> = (0..200u8)
            .map(|i| (vec![i], vec![b'A' + (i % 3), i]))
            .collect();
        let receipt = s.bulk_load("t", rows).unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (1, 200));
        assert_eq!(receipt.entries(), 200);
        assert_eq!(s.journal_head(), 200);
        assert_eq!(s.head().count("t").unwrap(), 200);
        // Index rows rode along in the same run.
        let hits = s.head().lookup("t", "first", b"A").unwrap();
        assert_eq!(hits.len(), 67);
        // Journal agrees with the data, entry for entry.
        let feed = s.head().read_journal(0, 500).unwrap();
        assert_eq!(feed.len(), 200);
        assert!(feed
            .iter()
            .all(|e| e.table == "t" && e.kind == ROW_UPSERTED));
        // The receipt LSN is a snapshot boundary over the whole batch.
        let snap = s.snapshot_at(receipt.lsn);
        assert_eq!(snap.count("t").unwrap(), 200);
    }
    // Reopen: journal head recovered from the run, indexes still answer.
    let s = store_at(&dir);
    assert_eq!(s.journal_head(), 200);
    s.create_index("t", first_byte()).unwrap();
    assert_eq!(s.head().lookup("t", "first", b"B").unwrap().len(), 67);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bulk_load_empty_and_duplicate_batches() {
    let dir = tmpdir("bulkedge");
    let s = store_at(&dir);
    s.mark_journaled("t").unwrap();
    let commits_before = s.engine().stats().commits;
    let head_before = s.engine().committed_lsn();
    let receipt = s.bulk_load("t", Vec::new()).unwrap();
    assert_eq!((receipt.first_seq, receipt.last_seq), (0, 0));
    assert_eq!(receipt.entries(), 0);
    assert_eq!(receipt.lsn, head_before, "empty batch burns no LSN");
    assert_eq!(s.engine().stats().commits, commits_before);
    assert_eq!(s.journal_head(), 0);

    // Duplicate keys inside a batch: last write wins, ONE journal event.
    let receipt = s
        .bulk_load(
            "t",
            vec![
                (b"k".to_vec(), b"v1".to_vec()),
                (b"k".to_vec(), b"v2".to_vec()),
            ],
        )
        .unwrap();
    assert_eq!(receipt.entries(), 1);
    assert_eq!(
        s.head().get("t", b"k").unwrap().as_deref(),
        Some(&b"v2"[..])
    );
    assert_eq!(s.head().read_journal(0, 10).unwrap().len(), 1);

    // Single-record batch: a well-formed one-entry range.
    let receipt = s
        .bulk_load("t", vec![(b"solo".to_vec(), b"v".to_vec())])
        .unwrap();
    assert_eq!(receipt.entries(), 1);
    assert_eq!(receipt.first_seq, receipt.last_seq);
    assert_eq!(receipt.head(), Some(s.journal_head()));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------ journal cursor edges

#[test]
fn journal_cursor_edges_never_wrap_or_truncate() {
    let dir = tmpdir("jedges");
    let s = store_at(&dir);
    s.mark_journaled("t").unwrap();
    for i in 0..5u8 {
        s.put("t", &[i], b"v").unwrap();
    }
    // limit == 0 is pinned to "empty page", regardless of cursor.
    assert!(s.head().read_journal(0, 0).unwrap().is_empty());
    assert!(s.head().read_journal(3, 0).unwrap().is_empty());
    // A cursor at u64::MAX is exhausted, not wrapped around.
    assert!(s.head().read_journal(u64::MAX, 100).unwrap().is_empty());
    // A limit that would overflow the end bound must not truncate.
    let all = s.head().read_journal(2, usize::MAX).unwrap();
    assert_eq!(all.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);

    // Entries planted at the very top of the sequence space (bypassing
    // the session layer) must stay readable: the old saturating bounds
    // silently dropped seq u64::MAX.
    let mut batch = Vec::new();
    for seq in [u64::MAX - 2, u64::MAX - 1, u64::MAX] {
        let e = JournalEntry {
            seq,
            kind: ROW_UPSERTED.to_string(),
            table: "t".to_string(),
            key: b"hi".to_vec(),
            payload: Vec::new(),
        };
        batch.push(BatchOp::Put {
            table: "__journal".to_string(),
            key: JournalEntry::storage_key(seq),
            value: e.encode(),
        });
    }
    s.engine().apply_batch(batch).unwrap();
    let top = s.head().read_journal(u64::MAX - 3, 10).unwrap();
    assert_eq!(
        top.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![u64::MAX - 2, u64::MAX - 1, u64::MAX],
        "the page (MAX-3, MAX] contains all three top entries"
    );
    let exact = s.head().read_journal(u64::MAX - 2, 1).unwrap();
    assert_eq!(
        exact.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![u64::MAX - 1]
    );
    // Snapshot twin pins the same semantics.
    let snap = s.snapshot();
    let top = snap.read_journal(u64::MAX - 3, 10).unwrap();
    assert_eq!(top.len(), 3);
    assert!(snap.read_journal(u64::MAX, 100).unwrap().is_empty());
    assert!(snap.read_journal(0, 0).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Paging equivalence: for any cursor start and any page size,
    /// chunked journal reads observe exactly the entries of one
    /// unbounded read.
    #[test]
    fn chunked_journal_reads_equal_unbounded(
        entries in 0usize..24,
        after in 0u64..30,
        chunk in 1usize..9,
    ) {
        let dir = tmpdir(&format!("jprop-{entries}-{after}-{chunk}"));
        let s = store_at(&dir);
        s.mark_journaled("t").unwrap();
        for i in 0..entries {
            s.put("t", &[i as u8], b"v").unwrap();
        }
        let unbounded: Vec<u64> = s
            .head().read_journal(after, usize::MAX)
            .unwrap()
            .iter()
            .map(|e| e.seq)
            .collect();
        let mut chunked = Vec::new();
        let mut cursor = after;
        loop {
            let page = s.head().read_journal(cursor, chunk).unwrap();
            prop_assert!(page.len() <= chunk);
            if page.is_empty() {
                break;
            }
            cursor = page.last().unwrap().seq;
            chunked.extend(page.iter().map(|e| e.seq));
        }
        prop_assert_eq!(chunked, unbounded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------- torn WAL batch recovery

/// WAL crash contract: tear the log at every byte offset and reopen.
/// Whatever survives must be an exact batch boundary — for every
/// recovered data row its journal event is present and vice versa, and
/// the recovered journal head matches the last surviving batch.
#[test]
fn torn_wal_batch_recovers_to_a_batch_boundary() {
    let dir = tmpdir("torn");
    let batches = 8u64;
    {
        let engine = Engine::open(&dir, foreground()).unwrap();
        // Each batch carries its data row, its journal event and the
        // head pointer — exactly what the table layer commits.
        for seq in 1..=batches {
            let e = JournalEntry {
                seq,
                kind: ROW_UPSERTED.to_string(),
                table: "t".to_string(),
                key: format!("r{seq}").into_bytes(),
                payload: Vec::new(),
            };
            let mut head = Vec::new();
            put_u64(&mut head, seq);
            engine
                .apply_batch(vec![
                    put("t", format!("r{seq}").as_bytes(), b"payload"),
                    BatchOp::Put {
                        table: "__journal".to_string(),
                        key: JournalEntry::storage_key(seq),
                        value: e.encode(),
                    },
                    BatchOp::Put {
                        table: "__journal_meta".to_string(),
                        key: b"head".to_vec(),
                        value: head,
                    },
                ])
                .unwrap();
        }
        assert_eq!(engine.head().count("t").unwrap(), batches as usize);
    }
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(!wal.is_empty());
    let mut boundaries_seen = std::collections::HashSet::new();
    for cut in 0..=wal.len() {
        let crash = tmpdir(&format!("torn-cut-{cut}"));
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::write(crash.join("wal.log"), &wal[..cut]).unwrap();
        let s = store_at(&crash);
        let rows = s.head().scan("t").unwrap();
        let feed = s.head().read_journal(0, usize::MAX).unwrap();
        // All-or-nothing per batch: data and journal agree exactly.
        assert_eq!(
            rows.len(),
            feed.len(),
            "cut {cut}: data rows and journal events must recover together"
        );
        let data_keys: Vec<_> = rows.iter().map(|(k, _)| k.clone()).collect();
        let mut feed_keys: Vec<_> = feed.iter().map(|e| e.key.clone()).collect();
        feed_keys.sort();
        assert_eq!(
            data_keys, feed_keys,
            "cut {cut}: journal describes the data"
        );
        // The surviving prefix is a batch boundary: seqs are 1..=k.
        let k = feed.len() as u64;
        assert_eq!(
            feed.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (1..=k).collect::<Vec<_>>(),
            "cut {cut}: a torn batch never partially survives"
        );
        assert_eq!(s.journal_head(), k, "cut {cut}: head agrees with the feed");
        boundaries_seen.insert(k);
        drop(s);
        std::fs::remove_dir_all(&crash).ok();
    }
    // Sanity: the sweep actually exercised multiple distinct boundaries.
    assert!(
        boundaries_seen.len() > 4,
        "sweep covered several batch boundaries"
    );
    assert!(boundaries_seen.contains(&batches));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------- large batches commit as flushes

/// Threshold of the large-batch tests: a batch whose bytes, counted the
/// memtable's way, reach it is committed as the flush it triggers.
const THRESHOLD: usize = 4096;

fn large_batch_options() -> EngineOptions {
    EngineOptions {
        checkpoint_bytes: THRESHOLD,
        ..foreground()
    }
}

/// Bytes `ops` add to the memtable's estimate: table + key + value + 8
/// per op.
fn batch_bytes(ops: &[BatchOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            BatchOp::Put { table, key, value } => table.len() + key.len() + value.len() + 8,
            BatchOp::Delete { table, key } => table.len() + key.len() + 8,
        })
        .sum()
}

/// Puts into table `f` that bring a batch to the threshold on their own.
fn filler() -> Vec<BatchOp> {
    (0..THRESHOLD / 64)
        .map(|i| put("f", format!("fill-{i:04}").as_bytes(), &[b'x'; 64]))
        .collect()
}

/// A large batch deleting a key whose older version sits in the
/// memtable: were the batch written as a run of its own beside the
/// memtable, a full compaction would fold its tombstone at the bottom
/// level and the memtable's version would read again.
#[test]
fn a_large_batch_delete_never_resurrects_a_memtable_version() {
    let dir = tmpdir("resurrect");
    let expect_gone = |engine: &Engine, when: &str| {
        assert_eq!(engine.head().get("t", b"k").unwrap(), None, "get {when}");
        assert!(
            engine.head().scan_all("t").unwrap().is_empty(),
            "scan {when}"
        );
    };
    {
        let engine = Engine::open(&dir, large_batch_options()).unwrap();
        engine.put("t", b"k", b"old").unwrap();
        let mut batch = vec![BatchOp::Delete {
            table: "t".to_string(),
            key: b"k".to_vec(),
        }];
        batch.extend(filler());
        engine.apply_batch(batch).unwrap();
        expect_gone(&engine, "after the batch");
        engine.compact().unwrap();
        expect_gone(&engine, "after a full compaction");
    }
    let engine = Engine::open(&dir, large_batch_options()).unwrap();
    expect_gone(&engine, "after a reopen");
    std::fs::remove_dir_all(&dir).ok();
}

/// With `fsync` off, commits before a bulk load or a large batch sit
/// unsynced in `wal.log`; deleting the log stands in for a power cut
/// that loses them. The run the later commit writes holds them too, so
/// what survives is still a prefix of the commit order.
#[test]
fn no_run_outlives_an_earlier_commit() {
    for large_session in [false, true] {
        let dir = tmpdir(if large_session {
            "prefix-session"
        } else {
            "prefix-bulk"
        });
        {
            let s = TableStore::new(Arc::new(Engine::open(&dir, large_batch_options()).unwrap()))
                .unwrap();
            s.put("t", b"A", b"a").unwrap();
            if large_session {
                let mut session = s.session();
                session.put("t", b"B", b"b").unwrap();
                for op in filler() {
                    if let BatchOp::Put { table, key, value } = op {
                        session.put(&table, &key, &value).unwrap();
                    }
                }
                session.commit().unwrap();
            } else {
                s.bulk_load("t", vec![(b"B".to_vec(), b"b".to_vec())])
                    .unwrap();
            }
        }
        std::fs::remove_file(dir.join("wal.log")).unwrap();
        let engine = Engine::open(&dir, large_batch_options()).unwrap();
        assert_eq!(
            engine.head().scan_all("t").unwrap(),
            vec![
                (b"A".to_vec(), b"a".to_vec()),
                (b"B".to_vec(), b"b".to_vec())
            ],
            "large session batch: {large_session}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Commits below the threshold: two versions of `k`, a delete of `gone`
/// and a key the batch leaves alone.
fn memtable_commits(engine: &Engine) {
    engine.put("t", b"k", b"k1").unwrap();
    engine.put("t", b"gone", b"g").unwrap();
    engine.put("t", b"k", b"k2").unwrap();
    engine.delete("t", b"gone").unwrap();
    engine.put("t", b"kept", b"v").unwrap();
}

/// The large batch: a repeated key (the last op wins), a delete of a
/// memtable key, a put over a memtable tombstone, and the filler.
fn large_batch() -> Vec<BatchOp> {
    let mut batch = vec![
        put("t", b"k", b"first"),
        put("t", b"gone", b"back"),
        BatchOp::Delete {
            table: "t".to_string(),
            key: b"kept".to_vec(),
        },
        put("t", b"k", b"last"),
    ];
    batch.extend(filler());
    batch
}

/// Every file in `dir` named `run-*.sst` or `MANIFEST`, with its bytes.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sst") || name == "MANIFEST")
        .map(|name| (name.clone(), std::fs::read(dir.join(&name)).unwrap()))
        .collect();
    files.sort();
    files
}

/// A large batch over a non-empty memtable is committed as the flush it
/// triggers: it writes byte for byte the run a WAL commit followed by a
/// checkpoint writes, reads back the same, and leaves no WAL frame.
#[test]
fn a_large_batch_commits_as_the_flush_it_triggers() {
    let batch_size = batch_bytes(&large_batch());
    assert!(batch_size >= THRESHOLD);
    let flushed = tmpdir("as-flush");
    let committed = tmpdir("via-wal");
    let dumps: Vec<_> = [(&flushed, batch_size), (&committed, usize::MAX)]
        .into_iter()
        .map(|(dir, checkpoint_bytes)| {
            let engine = Engine::open(
                dir,
                EngineOptions {
                    checkpoint_bytes,
                    ..foreground()
                },
            )
            .unwrap();
            memtable_commits(&engine);
            assert_eq!(engine.stats().checkpoints, 0, "the memtable stays below");
            engine.apply_batch(large_batch()).unwrap();
            if checkpoint_bytes == usize::MAX {
                assert!(engine.checkpoint().unwrap() > 0);
            }
            assert_eq!(engine.stats().checkpoints, 1);
            engine.put("t", b"after", b"x").unwrap();
            let dump = (
                engine.head().scan_all("t").unwrap(),
                engine.head().scan_all("f").unwrap().len(),
            );
            assert_eq!(
                engine.head().get("t", b"k").unwrap().as_deref(),
                Some(&b"last"[..])
            );
            dump
        })
        .collect();
    assert_eq!(dumps[0], dumps[1], "same table dump");
    assert_eq!(
        dumps[0].0,
        vec![
            (b"after".to_vec(), b"x".to_vec()),
            (b"gone".to_vec(), b"back".to_vec()),
            (b"k".to_vec(), b"last".to_vec()),
        ]
    );
    assert_eq!(
        store_files(&flushed),
        store_files(&committed),
        "byte-identical runs and MANIFEST"
    );
    // Only the commit after the batch is in the WAL: the batch and the
    // memtable it joined are in the run.
    let replayed = preserva_storage::wal::replay(&flushed.join("wal.log")).unwrap();
    assert_eq!(replayed.records.len(), 2, "{:?}", replayed.records);
    let engine = Engine::open(&flushed, large_batch_options()).unwrap();
    assert_eq!(engine.head().scan_all("t").unwrap(), dumps[0].0);
    assert_eq!(engine.stats().recovered_records, 1, "the one later op");
    std::fs::remove_dir_all(&flushed).ok();
    std::fs::remove_dir_all(&committed).ok();
}

/// A large batch whose run install fails is not committed: the call
/// fails, no journal seq is burned, nothing reads the batch, later
/// writes still commit, and the memtable it froze stays parked for the
/// next checkpoint.
#[test]
fn a_failed_large_batch_commits_nothing_and_parks_the_memtable() {
    let dir = tmpdir("large-fails");
    let s = TableStore::new(Arc::new(Engine::open(&dir, large_batch_options()).unwrap())).unwrap();
    s.mark_journaled("t").unwrap();
    s.put("t", b"k", b"old").unwrap();
    assert_eq!(s.journal_head(), 1);
    // The batch's run is the store's first: a directory at its temp
    // path makes the install fail.
    let blocker = dir.join(format!("run-{:016}.tmp", 1));
    std::fs::create_dir(&blocker).unwrap();
    let mut session = s.session();
    session.put("t", b"k", b"new").unwrap();
    for op in filler() {
        if let BatchOp::Put { table, key, value } = op {
            session.put(&table, &key, &value).unwrap();
        }
    }
    assert!(session.commit().is_err());
    assert_eq!(s.journal_head(), 1, "no journal seq burned");
    assert_eq!(s.head().get("t", b"k").unwrap(), Some(b"old".to_vec()));
    assert_eq!(s.head().count("f").unwrap(), 0, "nothing reads the batch");
    assert_eq!(s.head().read_journal(0, 10).unwrap().len(), 1);
    std::fs::remove_dir(&blocker).unwrap();
    // Nothing was poisoned: a small write commits through the WAL.
    s.put("t", b"later", b"x").unwrap();
    assert_eq!(s.journal_head(), 2);
    assert_eq!(s.engine().stats().checkpoints, 0);
    assert!(s.engine().checkpoint().unwrap() > 0);
    assert_eq!(s.engine().stats().checkpoints, 2, "parked, then active");
    drop(s);
    let s = store_at(&dir);
    assert_eq!(s.journal_head(), 2);
    assert_eq!(s.head().get("t", b"k").unwrap(), Some(b"old".to_vec()));
    assert_eq!(s.head().get("t", b"later").unwrap(), Some(b"x".to_vec()));
    std::fs::remove_dir_all(&dir).ok();
}
