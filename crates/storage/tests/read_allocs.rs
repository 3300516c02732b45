//! Allocation budget of the read path: a read allocates per block and
//! per row it returns, never per entry it walks past. Runs are walked
//! in place from one reused block buffer, so a count allocates a fixed
//! handful whatever the table holds, a point get two (its block buffer
//! and the value it hands back; the memtable is probed with borrowed
//! keys), a many-key read one per row it returns plus its buffers, and
//! a scan two per row it returns (the key and the value it hands back).
//! A point get is the one-key case of the many-key read.
//!
//! The store holds the FNJV case study's shape in one run: 11,898
//! records of 730 bytes beside an index table of one posting per
//! record. Compaction runs in the foreground, so nothing moves while a
//! read is counted, and the memtable is empty.

mod counting;

use std::path::PathBuf;

use counting::counted;
use preserva_storage::engine::BatchOp;
use preserva_storage::{CompactionOptions, Engine, EngineOptions};

const ROWS: usize = 11_898;
const VALUE: usize = 730;
const RECORDS: &str = "records";
const POSTINGS: &str = "__idx:records:species";

fn record_key(i: usize) -> Vec<u8> {
    format!("FNJV-{i:06}").into_bytes()
}

fn posting_key(i: usize) -> Vec<u8> {
    format!("species{:04}\0FNJV-{i:06}", i % 1_929).into_bytes()
}

/// One engine per test: the harness runs tests in parallel.
fn engine(name: &str) -> Engine {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "preserva-read-allocs-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(
        &dir,
        EngineOptions {
            fsync: false,
            compaction: CompactionOptions {
                background: false,
                ..CompactionOptions::default()
            },
            ..EngineOptions::default()
        },
    )
    .expect("open engine");
    let mut ops = Vec::with_capacity(2 * ROWS);
    for i in 0..ROWS {
        ops.push(BatchOp::Put {
            table: RECORDS.into(),
            key: record_key(i),
            value: vec![b'r'; VALUE],
        });
        ops.push(BatchOp::Put {
            table: POSTINGS.into(),
            key: posting_key(i),
            value: record_key(i),
        });
    }
    engine.apply_batch(ops).expect("commit");
    engine.checkpoint().expect("flush");
    assert_eq!(engine.runs_per_level(), vec![(1, 1)], "one run");
    engine
}

#[test]
fn a_count_allocates_per_read_not_per_row() {
    let engine = engine("count");
    let (live, tally) = counted(|| engine.head().count(RECORDS).expect("count"));
    assert_eq!(live, ROWS);
    let per_row = tally.allocs as f64 / ROWS as f64;
    eprintln!(
        "count of {ROWS} rows: {} allocations ({per_row:.4} per row), {} bytes",
        tally.allocs, tally.bytes
    );
    assert!(
        per_row <= 0.01,
        "{per_row:.4} allocations per counted row (budget 0.01)"
    );
}

#[test]
fn a_point_get_allocates_a_handful_on_any_block() {
    let engine = engine("get");
    for (table, key, want) in [
        (RECORDS, record_key(ROWS / 2), vec![b'r'; VALUE]),
        (POSTINGS, posting_key(ROWS / 2), record_key(ROWS / 2)),
    ] {
        let (got, tally) = counted(|| engine.head().get(table, &key).expect("get"));
        assert_eq!(got, Some(want));
        eprintln!("get on a {table} block: {} allocations", tally.allocs);
        assert!(
            tally.allocs <= 2,
            "{} allocations for one get on a {table} block (budget 2)",
            tally.allocs
        );
    }
}

#[test]
fn a_many_key_read_allocates_per_returned_row() {
    let engine = engine("get-many");
    let keys: Vec<Vec<u8>> = (0..ROWS).step_by(2).map(record_key).collect();
    let (got, tally) = counted(|| engine.head().get_many(RECORDS, &keys).expect("get_many"));
    assert!(got.iter().all(|v| v.as_deref() == Some(&[b'r'; VALUE][..])));
    let per_row = tally.allocs as f64 / keys.len() as f64;
    eprintln!(
        "get_many of {} ascending keys: {per_row:.3} allocations per returned row",
        keys.len()
    );
    assert!(
        per_row <= 1.01,
        "{per_row:.3} allocations per returned row (budget 1.01)"
    );
}

#[test]
fn a_scan_allocates_per_returned_row() {
    let engine = engine("scan");
    let (rows, tally) = counted(|| engine.head().scan_all(RECORDS).expect("scan"));
    assert_eq!(rows.len(), ROWS);
    let per_row = tally.allocs as f64 / ROWS as f64;
    eprintln!("scan_all of {ROWS} rows: {per_row:.3} allocations per returned row");
    assert!(
        per_row <= 2.1,
        "{per_row:.3} allocations per returned row (budget 2.1)"
    );
}
