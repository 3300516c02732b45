//! First datapoint of the ingest trajectory (`BENCH_ingest.json`):
//! archive-scale DURABLE load throughput of the bulk paths against the
//! seed per-record commit loop, at the catalog layer (rows + indexes +
//! change journal) and at the raw storage layer.
//!
//! Catalog layer, per collection size: one session commit per record
//! (the seed shape) vs one bulk sorted run (`insert_all_bulk`). Storage
//! layer, raw rows: commit-per-put vs the direct run builder.
//!
//! Run with `cargo run --release -p preserva-bench --bin exp_ingest`
//! and redirect stdout to `BENCH_ingest.json` to record a datapoint.

use std::sync::Arc;
use std::time::Instant;

use preserva_core::retrieval::RecordCatalog;
use preserva_metadata::record::Record;
use preserva_metadata::value::Value;
use preserva_storage::engine::{Engine, EngineOptions};
use preserva_storage::table::TableStore;
use preserva_storage::CompactionOptions;

const SIZES: &[usize] = &[100_000, 1_000_000];
const SPECIES: usize = 64;
const RAW_ROWS: usize = 1_000_000;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("preserva-exp-ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durable commits (`fsync: true`) — the regime archive ingest runs in
/// and the one the bulk path exists to amortise: per-record commit pays
/// one fsync per row, the run builder a handful per load. Compaction is foreground-only
/// with an unreachable trigger so every mode times its own writes and
/// nothing else.
fn options() -> EngineOptions {
    EngineOptions {
        fsync: true,
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: usize::MAX,
        },
        ..EngineOptions::default()
    }
}

fn collection(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(format!("FNJV-{i:07}"))
                .with(
                    "species",
                    Value::Text(format!("Species aff{:02}", i % SPECIES)),
                )
                .with("state", Value::Text("São Paulo".into()))
        })
        .collect()
}

/// Records per second over one timed pass of `f`.
fn rate(n: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    n as f64 / t.elapsed().as_secs_f64()
}

fn catalog_at(dir: &std::path::Path) -> RecordCatalog {
    let store = Arc::new(TableStore::new(Arc::new(Engine::open(dir, options()).unwrap())).unwrap());
    RecordCatalog::open_on(store, "records").unwrap()
}

fn main() {
    let mut catalog_layer = Vec::new();
    for &n in SIZES {
        let records = collection(n);

        let dir = tmpdir(&format!("per-record-{n}"));
        let per_record = {
            let cat = catalog_at(&dir);
            rate(n, || {
                for r in &records {
                    cat.insert(r).unwrap();
                }
            })
        };
        std::fs::remove_dir_all(&dir).ok();

        let dir = tmpdir(&format!("bulk-{n}"));
        let bulk = {
            let cat = catalog_at(&dir);
            rate(n, || {
                let receipt = cat.insert_all_bulk(&records).unwrap();
                assert_eq!(receipt.entries(), n as u64);
            })
        };
        std::fs::remove_dir_all(&dir).ok();

        catalog_layer.push(serde_json::json!({
            "records": n,
            "records_per_second": {
                "session_per_record": per_record,
                "bulk_run": bulk,
            },
            "bulk_speedup_over_per_record": bulk / per_record,
        }));
    }

    // Raw storage layer: same key/value payloads through the two write
    // paths (no indexes, no journal — the engine alone).
    let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..RAW_ROWS as u64)
        .map(|i| (i.to_be_bytes().to_vec(), vec![0xABu8; 64]))
        .collect();

    let dir = tmpdir("raw-commit");
    let raw_commit_per_put = {
        let e = Engine::open(&dir, options()).unwrap();
        rate(RAW_ROWS, || {
            for (k, v) in &rows {
                e.put("rows", k, v).unwrap();
            }
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("raw-run");
    let raw_run_build = {
        let e = Engine::open(&dir, options()).unwrap();
        rate(RAW_ROWS, || {
            let input = rows
                .iter()
                .map(|(k, v)| ("rows".to_string(), k.clone(), v.clone()))
                .collect();
            e.ingest_run(input).unwrap();
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let out = serde_json::json!({
        "bench": "ingest",
        "host_cores": std::thread::available_parallelism().map_or(0, |p| p.get()),
        "catalog_layer": catalog_layer,
        "storage_layer_raw_rows": {
            "rows": RAW_ROWS,
            "value_bytes": 64,
            "records_per_second": {
                "commit_per_put": raw_commit_per_put,
                "direct_run_build": raw_run_build,
            },
        },
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
}
