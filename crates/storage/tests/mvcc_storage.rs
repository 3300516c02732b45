//! MVCC integration battery for DESIGN.md §13: snapshot repeatability
//! under churn, crash-tearing WAL segments that carry RANGE_TOMBSTONE
//! frames, O(1) range deletes, and head readers that pin nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use preserva_storage::engine::{BatchOp, Engine, EngineOptions};
use preserva_storage::{CompactionOptions, Lsn, TableStore};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "preserva-mvcc-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn foreground_compaction() -> EngineOptions {
    EngineOptions {
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: 2,
        },
        ..EngineOptions::default()
    }
}

/// One randomly generated mutation against table `t`, including the
/// MVCC-era operations the older model test predates.
#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    DeleteRange(Vec<u8>, Option<Vec<u8>>),
    Checkpoint,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (proptest::collection::vec(0u8..8, 1..4), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => proptest::collection::vec(0u8..8, 1..4).prop_map(Op::Delete),
        2 => (proptest::collection::vec(0u8..8, 0..3), proptest::option::of(proptest::collection::vec(0u8..8, 1..3)))
            .prop_map(|(s, e)| Op::DeleteRange(s, e)),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Compact),
    ]
}

fn apply_to_model(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            model.insert(k.clone(), v.clone());
        }
        Op::Delete(k) => {
            model.remove(k);
        }
        Op::DeleteRange(start, end) => {
            let doomed: Vec<Vec<u8>> = model
                .keys()
                .filter(|k| **k >= *start && end.as_ref().is_none_or(|e| **k < *e))
                .cloned()
                .collect();
            for k in doomed {
                model.remove(&k);
            }
        }
        Op::Checkpoint | Op::Compact => {}
    }
}

fn apply_to_engine(e: &Engine, op: &Op) {
    match op {
        Op::Put(k, v) => {
            e.put("t", k, v).unwrap();
        }
        Op::Delete(k) => {
            e.delete("t", k).unwrap();
        }
        Op::DeleteRange(start, end) => {
            e.delete_range("t", start, end.as_deref()).unwrap();
        }
        Op::Checkpoint => {
            e.checkpoint().unwrap();
        }
        Op::Compact => {
            e.compact().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A snapshot pinned mid-history keeps returning the byte-identical
    /// `scan_all` no matter what commits, flushes and compactions land
    /// after the pin — and the live view still matches a reference model.
    /// Bounded `[start, end)` scans and key listings at the pin match the
    /// model too, whichever runs, point and range tombstones the merge
    /// walks at the time.
    #[test]
    fn pinned_snapshot_scan_all_is_repeatable_under_churn(
        before in proptest::collection::vec(op_strategy(), 0..20),
        after in proptest::collection::vec(op_strategy(), 1..30),
        bounds in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..8, 0..3),
                proptest::option::of(proptest::collection::vec(0u8..8, 0..3)),
            ),
            1..4,
        ),
    ) {
        let dir = tmpdir("churn");
        let e = Engine::open(&dir, foreground_compaction()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &before {
            apply_to_engine(&e, op);
            apply_to_model(&mut model, op);
        }

        let snap = e.snapshot();
        let frozen: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
        prop_assert_eq!(&snap.scan_all("t").unwrap(), &frozen);
        let bounded: Vec<Vec<(Vec<u8>, Vec<u8>)>> = bounds
            .iter()
            .map(|(start, end)| {
                frozen
                    .iter()
                    .filter(|(k, _)| k >= start && end.as_ref().is_none_or(|e| k < e))
                    .cloned()
                    .collect()
            })
            .collect();

        for op in &after {
            apply_to_engine(&e, op);
            apply_to_model(&mut model, op);
            // Repeatable read: every re-scan through the pin is identical.
            prop_assert_eq!(&snap.scan_all("t").unwrap(), &frozen);
            prop_assert_eq!(snap.count("t").unwrap(), frozen.len());
            for ((start, end), want) in bounds.iter().zip(&bounded) {
                prop_assert_eq!(&snap.scan("t", start, end.as_deref()).unwrap(), want);
                let keys: Vec<Vec<u8>> = want.iter().map(|(k, _)| k.clone()).collect();
                prop_assert_eq!(snap.scan_keys("t", start, end.as_deref()).unwrap(), keys);
            }
        }

        // The live view converged on the model despite the pin.
        let live: Vec<(Vec<u8>, Vec<u8>)> = e.head().scan_all("t").unwrap();
        prop_assert_eq!(live, model.into_iter().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copy every regular file of `src` flat into a fresh `dst`.
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Crash battery: a WAL segment holding a RANGE_TOMBSTONE commit and a
/// follow-up put is torn at EVERY byte. Recovery must land on exactly
/// the longest fully-committed prefix — never a half-applied range
/// delete, never a resurrected row.
#[test]
fn wal_tear_battery_over_range_tombstone_frames() {
    let src = tmpdir("tear-src");
    let wal = src.join("wal.log");
    let (len_baseline, len_rt, len_full);
    {
        let e = Engine::open(&src, EngineOptions::default()).unwrap();
        // Baseline commit: five rows in one batch.
        e.apply_batch(
            (0..5u8)
                .map(|i| BatchOp::Put {
                    table: "t".into(),
                    key: vec![i],
                    value: vec![b'v', i],
                })
                .collect(),
        )
        .unwrap();
        len_baseline = std::fs::metadata(&wal).unwrap().len();
        // Commit A: one RANGE_TOMBSTONE frame + one commit frame.
        e.delete_range("t", &[1], Some(&[4])).unwrap();
        len_rt = std::fs::metadata(&wal).unwrap().len();
        // Commit B: a put after the range delete.
        e.put("t", &[2], b"back").unwrap();
        len_full = std::fs::metadata(&wal).unwrap().len();
    }
    assert!(len_baseline < len_rt && len_rt < len_full);

    let scratch = tmpdir("tear-dst");
    for cut in len_baseline..=len_full {
        clone_dir(&src, &scratch);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("wal.log"))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let e = Engine::open(&scratch, EngineOptions::default()).unwrap();
        let got: BTreeMap<Vec<u8>, Vec<u8>> = e.head().scan_all("t").unwrap().into_iter().collect();
        let mut want: BTreeMap<Vec<u8>, Vec<u8>> =
            (0..5u8).map(|i| (vec![i], vec![b'v', i])).collect();
        if cut >= len_rt {
            // Commit A's frame set is fully on disk: [1, 4) is gone.
            want.remove(&vec![1u8]);
            want.remove(&vec![2u8]);
            want.remove(&vec![3u8]);
        }
        if cut >= len_full {
            want.insert(vec![2u8], b"back".to_vec());
        }
        assert_eq!(
            got, want,
            "recovery at cut {cut} (baseline {len_baseline}, rt {len_rt}, full {len_full}) \
             must be the longest committed prefix"
        );
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Acceptance: deleting a 100k-row table is TWO WAL frames (one
/// RANGE_TOMBSTONE + one commit), independent of row count.
#[test]
fn delete_range_of_100k_rows_commits_in_o1_wal_frames() {
    let dir = tmpdir("delrange-100k");
    let e = Engine::open(&dir, EngineOptions::default()).unwrap();
    for chunk in (0..100_000u32).collect::<Vec<_>>().chunks(10_000) {
        e.apply_batch(
            chunk
                .iter()
                .map(|i| BatchOp::Put {
                    table: "big".into(),
                    key: i.to_be_bytes().to_vec(),
                    value: b"row".to_vec(),
                })
                .collect(),
        )
        .unwrap();
    }
    e.checkpoint().unwrap();
    assert_eq!(e.head().count("big").unwrap(), 100_000);

    let appends = e
        .metrics_registry()
        .counter("preserva_storage_wal_appends_total", "");
    let before = appends.get();
    e.delete_range("big", b"", None).unwrap();
    assert_eq!(
        appends.get(),
        before + 2,
        "range delete of 100k rows must cost O(1) WAL frames"
    );
    assert_eq!(e.head().count("big").unwrap(), 0);
    assert_eq!(e.head().get("big", &77_777u32.to_be_bytes()).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI `mvcc-smoke` workload: pin a snapshot, churn 10k commits from
/// another thread with periodic flush/compaction, and verify repeatable
/// read throughout plus `as_of` replay afterwards.
#[test]
fn mvcc_smoke_pinned_read_survives_10k_commit_churn() {
    let dir = tmpdir("smoke");
    let e = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
    for i in 0..100u32 {
        e.put("t", &i.to_be_bytes(), b"seed").unwrap();
    }
    let snap = e.snapshot();
    let frozen = snap.scan_all("t").unwrap();
    assert_eq!(frozen.len(), 100);
    let pin_lsn = snap.lsn();

    let writer = {
        let e = Arc::clone(&e);
        std::thread::spawn(move || {
            for i in 0..10_000u32 {
                e.put("t", &(i % 512).to_be_bytes(), &i.to_le_bytes())
                    .unwrap();
                if i % 2_500 == 2_499 {
                    e.checkpoint().unwrap();
                    e.compact().unwrap();
                }
            }
        })
    };
    // Repeatable read while the churn is live.
    while !writer.is_finished() {
        assert_eq!(snap.scan_all("t").unwrap(), frozen);
    }
    writer.join().unwrap();
    assert_eq!(snap.scan_all("t").unwrap(), frozen);

    // as_of replay: the pin point is reconstructible by LSN alone.
    let replay = e.as_of(pin_lsn);
    assert_eq!(replay.scan_all("t").unwrap(), frozen);
    drop(snap);

    // Once the pin drops, compaction may fold history; the live view is
    // whatever the churn wrote last per key.
    e.checkpoint().unwrap();
    e.compact().unwrap();
    assert_eq!(e.head().count("t").unwrap(), 512);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn head_readers_pin_nothing_and_are_not_repeatable() {
    let dir = tmpdir("head-readers");
    let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
    let store = TableStore::new(engine.clone()).unwrap();
    let gauge = engine
        .metrics_registry()
        .gauge("preserva_storage_snapshots_pinned", "");
    store.put("t", b"k", b"v1").unwrap();

    let head = engine.head();
    let head_clone = head.clone();
    let table_head = store.head();
    assert_eq!(head.lsn(), Lsn::MAX);
    assert_eq!(table_head.lsn(), Lsn::MAX);
    assert_eq!(engine.snapshots_pinned(), 0);
    assert_eq!(gauge.get(), 0);

    // A commit after the readers were taken reads through them, but not
    // through a snapshot pinned before it.
    let before = store.snapshot();
    assert_eq!(engine.snapshots_pinned(), 1);
    store.put("t", b"k", b"v2").unwrap();
    assert_eq!(head.get("t", b"k").unwrap().as_deref(), Some(&b"v2"[..]));
    assert_eq!(
        head_clone.get("t", b"k").unwrap().as_deref(),
        Some(&b"v2"[..])
    );
    assert_eq!(
        table_head.get("t", b"k").unwrap().as_deref(),
        Some(&b"v2"[..])
    );
    assert_eq!(before.get("t", b"k").unwrap().as_deref(), Some(&b"v1"[..]));

    // Head clones come and go without touching the live pin's count.
    let extra: Vec<_> = (0..4).map(|_| table_head.clone()).collect();
    assert_eq!(engine.snapshots_pinned(), 1);
    assert_eq!(gauge.get(), 1);
    drop(extra);
    drop(head_clone);
    assert_eq!(engine.snapshots_pinned(), 1);
    assert_eq!(gauge.get(), 1);
    drop(before);
    assert_eq!(engine.snapshots_pinned(), 0);
    assert_eq!(gauge.get(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
