//! Allocation budget of the commit path: a `WriteSession` copies each
//! committed value once, and the memtable keeps that copy — so the heap
//! a commit allocates, and the heap it leaves behind, stay a small
//! multiple of the payload.
//!
//! A counting global allocator tallies only while this thread has
//! switched it on (the harness runs each test on a thread of its own),
//! from the first `put` through `commit`. Nothing flushes: `fsync` is
//! off and the checkpoint threshold is far above what the tests write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use preserva_storage::{Engine, EngineOptions, TableStore};

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    on: bool,
    allocs: u64,
    bytes: u64,
    /// Bytes allocated minus bytes freed while counting.
    live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { on: false, allocs: 0, bytes: 0, live: 0 })
    };
}

/// Add to this thread's tally when counting is on. `try_with` because
/// the allocator also runs while thread-locals are torn down.
fn record(allocs: u64, bytes: u64, live: i64) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            t.allocs += allocs;
            t.bytes += bytes;
            t.live += live;
            cell.set(t);
        }
    });
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as u64, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with this thread's allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            ..Tally::default()
        })
    });
    let out = f();
    let tally = TALLY.with(|t| t.replace(Tally::default()));
    (out, tally)
}

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
    TableStore::new(Arc::new(engine))
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
        store.get("records", &keys[OPS - 1]).expect("read back"),
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
        store.get("__search:postings", &keys[0]).expect("read back"),
        Some(Vec::new())
    );
}
