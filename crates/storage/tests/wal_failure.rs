//! A commit whose WAL write fails is never acknowledged and never comes
//! back. The write is made to fail for real: the process's file-size
//! limit (`RLIMIT_FSIZE`) is lowered to just past the log's length, so
//! a large commit's flush stops partway with `EFBIG`. The failure must
//! poison the engine — the failed batch's buffered frames are dropped,
//! not written by a later commit, a checkpoint's rotation or the writer's
//! drop — and refuse writes until a reopen, which cuts the partial frame
//! off the log.
//!
//! The limit applies to the whole process, so this battery is a test
//! binary of its own with one test in it. No libc crate is vendored, so
//! the three calls it needs are declared here.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::path::Path;
use std::sync::Arc;

use preserva_storage::engine::{BatchOp, Engine, EngineOptions};
use preserva_storage::{CompactionOptions, StorageError, TableStore};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;
const EFBIG: i32 = 27;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Lowers the soft file-size limit while it lives. `SIGXFSZ` is
/// ignored, so a write past the limit fails with `EFBIG` instead of
/// killing the process.
struct FileSizeLimit(RLimit);

impl FileSizeLimit {
    fn set(bytes: u64) -> FileSizeLimit {
        let mut old = RLimit { cur: 0, max: 0 };
        // SAFETY: plain syscalls on valid, properly aligned structs.
        unsafe {
            signal(SIGXFSZ, SIG_IGN);
            assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0, "getrlimit");
            let lowered = RLimit {
                cur: bytes,
                max: old.max,
            };
            assert_eq!(setrlimit(RLIMIT_FSIZE, &lowered), 0, "setrlimit");
        }
        FileSizeLimit(old)
    }
}

impl Drop for FileSizeLimit {
    fn drop(&mut self) {
        // SAFETY: as above; restores the limit read in `set`.
        let lifted = unsafe { setrlimit(RLIMIT_FSIZE, &self.0) };
        assert!(
            lifted == 0 || std::thread::panicking(),
            "could not lift the file-size limit"
        );
    }
}

fn options() -> EngineOptions {
    EngineOptions {
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: 100,
        },
        ..EngineOptions::default()
    }
}

fn open(dir: &Path) -> (Arc<Engine>, TableStore) {
    let engine = Arc::new(Engine::open(dir, options()).unwrap());
    let store = TableStore::new(engine.clone()).unwrap();
    store.mark_journaled("t").unwrap();
    (engine, store)
}

#[test]
fn failed_wal_write_poisons_the_engine_and_never_comes_back() {
    let dir = std::env::temp_dir().join(format!("preserva-wal-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let acked = {
        let (engine, store) = open(&dir);
        // Two runs, for compaction to merge once writes are refused.
        store.put("t", b"a", b"1").unwrap();
        engine.checkpoint().unwrap();
        store.put("t", b"b", b"2").unwrap();
        engine.checkpoint().unwrap();
        let mut session = store.session();
        session.put("t", b"c", b"3").unwrap();
        let acked = session.commit().unwrap();

        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let failed = {
            let _limit = FileSizeLimit::set(wal_len + 100);
            store.put("t", b"big", &[7u8; 4000])
        };
        // The limit is lifted again here, before the engine drops: a
        // writer that still held the failed frames would land them now.
        match failed {
            Err(StorageError::Io(e)) => assert_eq!(e.raw_os_error(), Some(EFBIG), "{e}"),
            other => panic!("expected the commit to fail with EFBIG, got {other:?}"),
        }
        assert_eq!(
            store.head().get("t", b"big").unwrap().map(|v| v.len()),
            None
        );

        // Every write path is refused ...
        let put = BatchOp::Put {
            table: "t".into(),
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        };
        assert!(matches!(
            engine.put("t", b"x", b"y"),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(
            engine.apply_batch(vec![put]),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(engine.checkpoint(), Err(StorageError::Poisoned)));
        assert!(matches!(
            engine.ingest_run(vec![("t".into(), b"x".to_vec(), b"y".to_vec())]),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(
            store.put("t", b"x", b"y"),
            Err(StorageError::Poisoned)
        ));
        assert_eq!(store.journal_head(), acked.last_seq, "no seqs burned");
        // ... while reads and compaction keep working.
        assert_eq!(
            store.head().get("t", b"a").unwrap().as_deref(),
            Some(&b"1"[..])
        );
        assert_eq!(store.head().count("t").unwrap(), 3);
        assert!(engine.compact().unwrap());
        assert_eq!(
            store.head().get("t", b"b").unwrap().as_deref(),
            Some(&b"2"[..])
        );
        acked
    };

    let (engine, store) = open(&dir);
    assert_eq!(
        store.head().get("t", b"big").unwrap().map(|v| v.len()),
        None,
        "the failed put came back after the reopen"
    );
    assert_eq!(store.head().count("t").unwrap(), 3);
    assert_eq!(store.journal_head(), acked.last_seq);
    // Writes succeed again, and the journal resumes right after the
    // last acknowledged commit.
    let mut session = store.session();
    session.put("t", b"d", b"4").unwrap();
    let next = session.commit().unwrap();
    assert_eq!(next.first_seq, acked.last_seq + 1);
    let journaled: Vec<Vec<u8>> = store
        .head()
        .read_journal(0, 10)
        .unwrap()
        .into_iter()
        .map(|e| e.key)
        .collect();
    assert_eq!(journaled, [b"a", b"b", b"c", b"d"].map(|k| k.to_vec()));
    engine.checkpoint().unwrap();
    drop((store, engine));
    std::fs::remove_dir_all(&dir).ok();
}
