//! Allocation budget of the commit path: a `WriteSession` copies each
//! committed value once, and the memtable keeps that copy — so the heap
//! a commit allocates, and the heap it leaves behind, stay a small
//! multiple of the payload.
//!
//! A counting global allocator tallies only while this thread has
//! switched it on (the harness runs each test on a thread of its own),
//! from the first `put` through `commit`. Nothing flushes: `fsync` is
//! off and the checkpoint threshold is far above what the tests write.

mod counting;

use std::path::PathBuf;
use std::sync::Arc;

use counting::counted;
use preserva_storage::{Engine, EngineOptions, TableStore};

fn store(name: &str) -> TableStore {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "preserva-commit-allocs-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(
        &dir,
        EngineOptions {
            fsync: false,
            checkpoint_bytes: 1 << 30,
            ..EngineOptions::default()
        },
    )
    .expect("open engine");
    TableStore::new(Arc::new(engine)).unwrap()
}

#[test]
fn a_put_copies_its_value_once() {
    const OPS: usize = 20_000;
    const VALUE: usize = 700;
    let store = store("plain");
    let keys: Vec<Vec<u8>> = (0..OPS)
        .map(|i| format!("FNJV-{i:06}").into_bytes())
        .collect();
    let value = vec![0x5Au8; VALUE];
    let mut session = store.session();
    let (receipt, tally) = counted(|| {
        for key in &keys {
            session.put("records", key, &value).expect("stage put");
        }
        session.commit().expect("commit")
    });
    assert!(receipt.lsn > 0);
    let per_op = tally.allocs as f64 / OPS as f64;
    let payload = (OPS * VALUE) as f64;
    eprintln!(
        "{OPS} puts of {VALUE} B: {per_op:.2} allocations per op, {:.2}x the payload allocated",
        tally.bytes as f64 / payload
    );
    assert!(
        per_op <= 4.0,
        "{per_op:.2} allocations per {VALUE}-byte put (budget 4)"
    );
    assert!(
        tally.bytes as f64 <= 2.0 * payload,
        "allocated {:.2}x the {VALUE}-byte payloads (budget 2x)",
        tally.bytes as f64 / payload
    );
    assert_eq!(store.engine().stats().checkpoints, 0, "nothing flushed");
    assert_eq!(
        store
            .head()
            .get("records", &keys[OPS - 1])
            .expect("read back"),
        Some(value)
    );
}

#[test]
fn a_committed_posting_leaves_little_heap_behind() {
    const OPS: usize = 100_000;
    let store = store("postings");
    // Ten postings per document, `field ++ 0 ++ token ++ 0 ++ pk`, 28
    // bytes each, staged document by document as the search indexer
    // does.
    let keys: Vec<Vec<u8>> = (0..OPS)
        .map(|i| {
            let (doc, field) = (i / 10, i % 10);
            let token = (doc * 31 + field * 17) % 2000;
            format!("field{field}\0token{token:04}\0FNJV-{doc:06}").into_bytes()
        })
        .collect();
    let mut session = store.session();
    let (_, tally) = counted(|| {
        for key in &keys {
            session
                .put("__search:postings", key, b"")
                .expect("stage posting");
        }
        session.commit().expect("commit")
    });
    let live_per_op = tally.live as f64 / OPS as f64;
    eprintln!("{OPS} postings: {live_per_op:.0} B still live per op after commit");
    assert!(
        live_per_op <= 256.0,
        "{live_per_op:.0} bytes still live per committed posting (budget 256)"
    );
    assert_eq!(store.engine().stats().checkpoints, 0, "nothing flushed");
    assert_eq!(
        store
            .head()
            .get("__search:postings", &keys[0])
            .expect("read back"),
        Some(Vec::new())
    );
}
