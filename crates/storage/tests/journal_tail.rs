//! Property tests for change-feed cursor semantics: resuming a journal
//! tail from ANY cursor, with ANY page size, across engine reopen, must
//! observe exactly the entries an unbounded `read_journal` reports —
//! gap-free and duplicate-free. These are the invariants the server's
//! live feed subscriptions (`/v1/{tenant}/feed`) lean on.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use preserva_storage::engine::{BatchOp, Engine, EngineOptions};
use preserva_storage::journal::JournalEntry;
use preserva_storage::table::TableStore;

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "preserva-jtail-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> TableStore {
    let store = TableStore::new(Arc::new(
        Engine::open(dir, EngineOptions::default()).unwrap(),
    ))
    .unwrap();
    store.mark_journaled("t").unwrap();
    store
}

/// Drain the journal from `cursor` in pages of `page`, timeout zero (no
/// blocking — we only want what is already committed).
fn drain(store: &TableStore, mut cursor: u64, page: usize) -> Vec<JournalEntry> {
    let mut out = Vec::new();
    loop {
        let batch = store
            .tail_journal(cursor, page, Duration::from_millis(0))
            .unwrap();
        if batch.is_empty() {
            return out;
        }
        cursor = batch.last().unwrap().seq;
        out.extend(batch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resume-from-any-cursor equivalence: for any committed workload,
    /// any page size, and any starting cursor, the chunked tail yields
    /// exactly the suffix of the unbounded journal past that cursor —
    /// in order, no gaps, no duplicates — and the property survives an
    /// engine reopen.
    #[test]
    fn resume_from_any_cursor_matches_unbounded_read(
        ops in proptest::collection::vec(
            (proptest::collection::vec(0u8..6, 1..4), any::<Option<u8>>()),
            1..40
        ),
        cursor_seed in any::<u64>(),
        page in 1usize..7,
        reopen in any::<bool>(),
    ) {
        let dir = tmpdir("resume");
        {
            let store = open_store(&dir);
            for (k, v) in &ops {
                match v {
                    Some(b) => store.put("t", k, &[*b]).unwrap(),
                    None => store.delete("t", k).unwrap(),
                }
            }
        }
        // Reopen exercises the cold head-recovery path; either way the
        // head comes back from the journal meta row.
        let _ = reopen;
        let store = open_store(&dir);

        let head = store.journal_head();
        prop_assert_eq!(head as usize, ops.len(), "every op journals exactly one entry");
        let full = store.head().read_journal(0, usize::MAX).unwrap();
        prop_assert_eq!(full.len() as u64, head);
        // Seqs are dense from 1.
        for (i, e) in full.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64 + 1);
        }

        // A cursor anywhere in [0, head+2]: past-the-end cursors must
        // yield the empty suffix, not wrap or error.
        let cursor = cursor_seed % (head + 3);
        let resumed = drain(&store, cursor, page);
        let expected: Vec<JournalEntry> = full
            .iter()
            .filter(|e| e.seq > cursor)
            .cloned()
            .collect();
        prop_assert_eq!(resumed, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two independent tails with different page sizes see the same
    /// stream — page size is invisible in the result.
    #[test]
    fn page_size_is_invisible(
        n in 1usize..30,
        page_a in 1usize..5,
        page_b in 5usize..50,
    ) {
        let dir = tmpdir("pages");
        let store = open_store(&dir);
        for i in 0..n {
            store.put("t", &[i as u8], b"v").unwrap();
        }
        let a = drain(&store, 0, page_a);
        let b = drain(&store, 0, page_b);
        prop_assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Cursor edge cases around `u64::MAX`, where a naive `after + limit`
/// page bound would overflow. Entries are planted straight into the
/// journal table with raw batch writes — the journal's persistent shape
/// is public API (big-endian seq keys), so this is a legitimate doorway.
#[test]
fn cursors_adjacent_to_u64_max_saturate_instead_of_wrapping() {
    let dir = tmpdir("maxedge");
    let high: Vec<u64> = vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1];
    {
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        let ops = high
            .iter()
            .map(|&seq| {
                let e = JournalEntry {
                    seq,
                    kind: "planted".into(),
                    table: "t".into(),
                    key: seq.to_be_bytes().to_vec(),
                    payload: Vec::new(),
                };
                BatchOp::Put {
                    table: preserva_storage::journal::JOURNAL_TABLE.into(),
                    key: JournalEntry::storage_key(seq),
                    value: e.encode(),
                }
            })
            .collect();
        engine.apply_batch(ops).unwrap();
    }
    // Reopen: head recovery must fold the planted entries in.
    let store = TableStore::new(Arc::new(
        Engine::open(&dir, EngineOptions::default()).unwrap(),
    ))
    .unwrap();
    assert_eq!(store.journal_head(), u64::MAX - 1);

    // A huge limit from a cursor below the entries saturates, returning
    // everything up to the head.
    let all = store.head().read_journal(u64::MAX - 4, usize::MAX).unwrap();
    assert_eq!(all.iter().map(|e| e.seq).collect::<Vec<_>>(), high);

    // Cursor ON an entry: strictly-after semantics.
    let after_first = store.head().read_journal(u64::MAX - 3, usize::MAX).unwrap();
    assert_eq!(
        after_first.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![u64::MAX - 2, u64::MAX - 1]
    );

    // The exhausted cursor and the zero limit are empty, not errors —
    // and tail_journal must not block on them even with a timeout.
    assert!(store
        .head()
        .read_journal(u64::MAX, usize::MAX)
        .unwrap()
        .is_empty());
    assert!(store.head().read_journal(5, 0).unwrap().is_empty());
    let started = std::time::Instant::now();
    assert!(store
        .tail_journal(u64::MAX, 10, Duration::from_secs(30))
        .unwrap()
        .is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "an exhausted cursor must return immediately, not wait out the timeout"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The gap-free resume contract under real concurrency: many writer
/// threads (sessions AND bulk loads) commit while a tailer follows the
/// feed. Sequence assignment is serialized with batch landing, so the
/// tailer must observe a perfectly dense seq stream — any gap would
/// mean a later range landed before an earlier one and the cursor
/// skipped live entries forever. Also pins the head contract: the head
/// never advertises an entry that isn't readable, and the persisted
/// head mirror survives reopen without reusing live seqs.
#[test]
fn concurrent_writers_and_tailer_see_no_gaps_or_reordering() {
    let dir = tmpdir("race");
    let store = Arc::new(open_store(&dir));
    const WRITERS: usize = 4;
    const COMMITS_PER_WRITER: usize = 40;
    const BULK_BATCHES: usize = 10;
    const BULK_ROWS: usize = 8;
    let total = (WRITERS * COMMITS_PER_WRITER + BULK_BATCHES * BULK_ROWS) as u64;

    let mut threads = Vec::new();
    for w in 0..WRITERS {
        let s = store.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..COMMITS_PER_WRITER {
                let mut sess = s.session();
                sess.put("t", format!("w{w}-{i}").as_bytes(), b"v").unwrap();
                let receipt = sess.commit().unwrap();
                assert!(receipt.first_seq > 0);
                // The receipt's range has LANDED: the public head must
                // already cover it, and the entries must be readable.
                assert!(s.journal_head() >= receipt.last_seq);
            }
        }));
    }
    {
        // One bulk loader in the mix: both commit paths share the lock.
        let s = store.clone();
        threads.push(std::thread::spawn(move || {
            for b in 0..BULK_BATCHES {
                let rows: Vec<_> = (0..BULK_ROWS)
                    .map(|i| (format!("bulk{b}-{i}").into_bytes(), b"v".to_vec()))
                    .collect();
                let receipt = s.bulk_load("t", rows).unwrap();
                assert_eq!(receipt.entries(), BULK_ROWS as u64);
                assert!(s.journal_head() >= receipt.last_seq);
            }
        }));
    }
    let tailer = {
        let s = store.clone();
        std::thread::spawn(move || {
            let mut cursor = 0u64;
            while cursor < total {
                let page = s.tail_journal(cursor, 16, Duration::from_secs(10)).unwrap();
                assert!(!page.is_empty(), "writers still active, tail timed out");
                for e in &page {
                    assert_eq!(
                        e.seq,
                        cursor + 1,
                        "tailer observed a gap or reordering at seq {}",
                        e.seq
                    );
                    cursor = e.seq;
                }
            }
            cursor
        })
    };
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(tailer.join().unwrap(), total);
    assert_eq!(store.journal_head(), total);
    let full = store.head().read_journal(0, usize::MAX).unwrap();
    assert_eq!(full.len() as u64, total, "head names only landed entries");
    for (i, e) in full.iter().enumerate() {
        assert_eq!(e.seq, i as u64 + 1, "seqs dense from 1 after the race");
    }
    drop(store);

    // Reopen: the persisted head mirror never regressed, so recovery
    // resumes exactly past the last landed entry — no seq reuse, no
    // overwritten journal rows.
    let store = open_store(&dir);
    assert_eq!(store.journal_head(), total);
    store.put("t", b"after-reopen", b"v").unwrap();
    let tail = store.head().read_journal(total, 10).unwrap();
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].seq, total + 1);
    assert_eq!(tail[0].key, b"after-reopen".to_vec());
    std::fs::remove_dir_all(&dir).ok();
}

/// The long-poll actually wakes on commit: a parked tail gets the new
/// entry well before its timeout, and the wake is edge-correct (the
/// entry it reports is exactly the one committed).
#[test]
fn tail_journal_wakes_promptly_on_commit() {
    let dir = tmpdir("wake");
    let store = Arc::new(open_store(&dir));
    store.put("t", b"seed", b"v").unwrap();
    let head = store.journal_head();

    let tail_store = store.clone();
    let tailer = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let page = tail_store
            .tail_journal(head, 16, Duration::from_secs(30))
            .unwrap();
        (page, started.elapsed())
    });

    // Give the tailer time to park in the condvar wait.
    std::thread::sleep(Duration::from_millis(100));
    store.put("t", b"wake", b"v").unwrap();

    let (page, waited) = tailer.join().unwrap();
    assert_eq!(page.len(), 1);
    assert_eq!(page[0].seq, head + 1);
    assert_eq!(page[0].key, b"wake".to_vec());
    assert!(
        waited < Duration::from_secs(10),
        "woken by the commit, not the timeout (waited {waited:?})"
    );
    std::fs::remove_dir_all(&dir).ok();
}
