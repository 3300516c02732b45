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

// -------------------------------------------------- range-tombstone-only run

#[test]
fn range_tombstone_only_flush_reopen_and_compaction() {
    let dir = tmpdir("rtonly");
    {
        let engine = Engine::open(&dir, foreground()).unwrap();
        for i in 0..50u8 {
            engine.put("t", &[i], b"v").unwrap();
        }
        engine.checkpoint().unwrap();
        // The memtable now holds ONLY a range tombstone; flushing it must
        // produce a valid (entry-less) run.
        engine.delete_range("t", &[0], None).unwrap();
        let id = engine.checkpoint().unwrap();
        assert!(id > 0, "range-tombstone-only memtable still flushes");
        assert_eq!(engine.head().count("t").unwrap(), 0);
    }
    // Reopen validates the zero-entry run's bloom/index/footer geometry.
    let engine = Engine::open(&dir, foreground()).unwrap();
    assert_eq!(engine.head().count("t").unwrap(), 0);
    // Compaction folds the covered rows and the tombstone away.
    assert!(engine.compact().unwrap());
    assert_eq!(engine.head().count("t").unwrap(), 0);
    assert_eq!(
        engine
            .runs_per_level()
            .iter()
            .map(|(_, n)| n)
            .sum::<usize>(),
        0,
        "nothing lives below a whole-table range tombstone"
    );
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
