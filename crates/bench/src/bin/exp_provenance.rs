//! Provenance-at-scale trajectory (`BENCH_provenance.json`):
//!
//! 1. **Capture throughput** — 64 concurrent run completions against a
//!    DURABLE store (`fsync: true`): one commit+fsync per run (the seed
//!    shape) vs the group-commit `CaptureBatcher` (one fsync amortized
//!    over the batch).
//! 2. **Stored bytes per run** — template-deduped graph rows (skeleton
//!    stored once, compact per-run bindings) vs the fully materialized
//!    OPM JSON the same graphs would occupy.
//! 3. **Cross-run query latency at 10k runs** — "runs that used source
//!    X" answered from the journal-fed index (one bounded range scan)
//!    vs the graph-by-graph load the seed had to do.
//!
//! Run with `cargo run --release -p preserva-bench --bin exp_provenance`
//! and redirect stdout to `BENCH_provenance.json` to record a datapoint.

use std::sync::Arc;
use std::time::{Duration, Instant};

use preserva_core::capture_batcher::{BatcherOptions, CaptureBatcher};
use preserva_core::prov_index::ProvIndex;
use preserva_core::provenance_manager::{ProvenanceManager, PROVENANCE_TABLE, TEMPLATES_TABLE};
use preserva_opm::serialize as opm_ser;
use preserva_storage::engine::{Engine, EngineOptions};
use preserva_storage::table::TableStore;
use preserva_storage::CompactionOptions;
use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
use preserva_wfms::model::{Processor, Workflow};
use preserva_wfms::services::{port, PortMap, ServiceRegistry};
use preserva_wfms::sink::ProvenanceSink;
use preserva_wfms::trace::ExecutionTrace;

/// Concurrency level of the capture-throughput comparison: one client
/// thread per in-flight run completion.
const THREADS: usize = 64;
/// Total runs each mode captures (THREADS stay saturated for several
/// waves so the figure reflects steady state, not startup).
const CAPTURE_RUNS: usize = 512;
/// Runs in the bytes-per-run comparison.
const DEDUP_RUNS: usize = 200;
/// Runs behind the query comparison.
const INDEXED_RUNS: usize = 10_000;
/// Query repetitions (the indexed path is microseconds; average it).
const QUERY_REPS: usize = 20;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("preserva-exp-prov-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(fsync: bool) -> EngineOptions {
    EngineOptions {
        fsync,
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: usize::MAX,
        },
        ..EngineOptions::default()
    }
}

fn manager_at(dir: &std::path::Path, fsync: bool) -> Arc<ProvenanceManager> {
    let store =
        Arc::new(TableStore::new(Arc::new(Engine::open(dir, options(fsync)).unwrap())).unwrap());
    Arc::new(ProvenanceManager::new(store))
}

/// The paper's three-stage curation chain, the workflow all runs share.
fn workflow() -> (ServiceRegistry, Workflow) {
    let mut r = ServiceRegistry::new();
    r.register_fn("echo", |i: &PortMap| Ok(port("out", i["in"].clone())));
    let w = Workflow::new("prov-bench", "curation-chain")
        .with_input("specimen")
        .with_output("archived")
        .with_processor(Processor::service("lookup", "echo", &["in"], &["out"]))
        .with_processor(Processor::service("normalise", "echo", &["in"], &["out"]))
        .with_processor(Processor::service("archive", "echo", &["in"], &["out"]))
        .link_input("specimen", "lookup", "in")
        .link("lookup", "out", "normalise", "in")
        .link("normalise", "out", "archive", "in")
        .link_output("archive", "out", "archived");
    (r, w)
}

/// Pre-generate `n` finished runs (traces only — no storage involved).
fn completions(n: usize) -> Vec<(Workflow, ExecutionTrace)> {
    let (r, w) = workflow();
    let e = WfEngine::new(r, EngineConfig::default());
    (0..n)
        .map(|i| {
            let t = e
                .run(&w, &port("specimen", serde_json::json!(format!("s-{i}"))))
                .unwrap();
            (w.clone(), t)
        })
        .collect()
}

/// Submit every completion from `THREADS` client threads through `f`,
/// returning runs per second. Threads are spawned and parked on a
/// barrier before the clock starts, so the figure measures capture, not
/// thread creation.
fn submit_all(
    runs: &[(Workflow, ExecutionTrace)],
    f: impl Fn(&Workflow, &ExecutionTrace) + Sync,
) -> f64 {
    let chunks: Vec<_> = runs.chunks(runs.len().div_ceil(THREADS)).collect();
    let barrier = std::sync::Barrier::new(chunks.len() + 1);
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for (w, t) in *chunk {
                        f(w, t);
                    }
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        elapsed = started.elapsed().as_secs_f64();
    });
    runs.len() as f64 / elapsed
}

/// Raw fsync latency of the bench medium (write 256 bytes, fsync, 100x).
/// Interprets the capture numbers: group commit amortizes exactly this
/// cost, so on media where it dominates capture CPU the wall-clock
/// speedup approaches the fsync amortization factor; on media with
/// sub-CPU fsync (NVMe, battery-backed caches) capture stays CPU-bound
/// and the speedup ceiling is (cpu + fsync) / cpu.
fn probe_fsync_ms() -> f64 {
    use std::io::Write;
    let path = std::env::temp_dir().join(format!("preserva-fsync-probe-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    let n = 100;
    let started = Instant::now();
    for _ in 0..n {
        f.write_all(&[0xAB; 256]).unwrap();
        f.sync_data().unwrap();
    }
    let ms = started.elapsed().as_secs_f64() * 1000.0 / n as f64;
    std::fs::remove_file(&path).ok();
    ms
}

fn main() {
    let fsync_ms = probe_fsync_ms();

    // 1. Capture throughput, durable store.
    let runs = completions(CAPTURE_RUNS);

    // CPU floor of the capture pipeline: sequential, no fsync. Neither
    // mode can beat this; it bounds the batched path on fast-fsync hosts.
    let dir = tmpdir("cpu-floor");
    let capture_cpu_ms = {
        let pm = manager_at(&dir, false);
        let started = Instant::now();
        for (w, t) in &runs {
            pm.capture(w, t).unwrap();
        }
        started.elapsed().as_secs_f64() * 1000.0 / runs.len() as f64
    };
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("unbatched");
    let unbatched = {
        let pm = manager_at(&dir, true);
        submit_all(&runs, |w, t| {
            pm.capture(w, t).unwrap();
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("batched");
    let (batched, group_commits) = {
        let pm = manager_at(&dir, true);
        let store = pm.store().clone();
        let batcher = CaptureBatcher::with_options(
            pm.clone(),
            // No linger: with every client thread blocked on a verdict,
            // waiting cannot grow the batch — runs pile up naturally
            // while the previous commit fsyncs (classic group commit).
            BatcherOptions {
                max_batch: THREADS,
                linger: Duration::ZERO,
            },
        );
        let before = store.engine().stats().commits;
        let rate = submit_all(&runs, |w, t| {
            batcher.record(w, t).unwrap();
        });
        (rate, store.engine().stats().commits - before)
    };
    std::fs::remove_dir_all(&dir).ok();

    // 2. Stored bytes per run, deduped vs materialized.
    let dir = tmpdir("dedup");
    let dedup = {
        let pm = manager_at(&dir, false);
        let store = pm.store().clone();
        let many = completions(DEDUP_RUNS);
        for chunk in many.chunks(64) {
            for r in pm.capture_batch(chunk).unwrap() {
                r.unwrap();
            }
        }
        let graph_rows: usize = store
            .head()
            .scan(PROVENANCE_TABLE)
            .unwrap()
            .iter()
            .map(|(_, v)| v.len())
            .sum();
        let template_rows: usize = store
            .head()
            .scan(TEMPLATES_TABLE)
            .unwrap()
            .iter()
            .map(|(_, v)| v.len())
            .sum();
        let materialized: usize = many
            .iter()
            .map(|(_, t)| opm_ser::to_json(&pm.load_graph(&t.run_id).unwrap()).len())
            .sum();
        serde_json::json!({
            "runs": DEDUP_RUNS,
            "templates_stored": store.head().scan(TEMPLATES_TABLE).unwrap().len(),
            "deduped_bytes_per_run": (graph_rows + template_rows) as f64 / DEDUP_RUNS as f64,
            "materialized_bytes_per_run": materialized as f64 / DEDUP_RUNS as f64,
            "dedup_ratio": materialized as f64 / (graph_rows + template_rows) as f64,
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    // 3. Indexed vs scan cross-run queries at 10k runs.
    let dir = tmpdir("query");
    let query = {
        let pm = manager_at(&dir, false);
        let many = completions(INDEXED_RUNS);
        for chunk in many.chunks(256) {
            for r in pm.capture_batch(chunk).unwrap() {
                r.unwrap();
            }
        }
        let idx = ProvIndex::new(pm.clone());
        let refresh_started = Instant::now();
        let out = idx.refresh().unwrap();
        let refresh_secs = refresh_started.elapsed().as_secs_f64();
        assert_eq!(out.runs_indexed, INDEXED_RUNS);

        let key = "a:*:in:specimen";
        let indexed_secs = {
            let started = Instant::now();
            for _ in 0..QUERY_REPS {
                assert_eq!(idx.runs_using_artifact(key, 0).unwrap().len(), INDEXED_RUNS);
            }
            started.elapsed().as_secs_f64() / QUERY_REPS as f64
        };
        let scan_secs = {
            let started = Instant::now();
            assert_eq!(
                idx.scan_runs_using_artifact(key).unwrap().len(),
                INDEXED_RUNS
            );
            started.elapsed().as_secs_f64()
        };
        serde_json::json!({
            "runs": INDEXED_RUNS,
            "artifact": key,
            "index_refresh_seconds": refresh_secs,
            "indexed_query_seconds": indexed_secs,
            "graph_scan_query_seconds": scan_secs,
            "index_speedup": scan_secs / indexed_secs,
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let out = serde_json::json!({
        "bench": "provenance",
        "host_cores": std::thread::available_parallelism().map_or(0, |p| p.get()),
        "capture_durable": {
            "concurrent_clients": THREADS,
            "runs_captured": CAPTURE_RUNS,
                        "runs_per_second": {
                "commit_per_capture": unbatched,
                "group_commit_batcher": batched,
            },
            "batcher_storage_commits": group_commits,
            "batch_speedup": batched / unbatched,
            // One fsync per run vs one per group commit: the durable-
            // media work the batcher removes, independent of host CPU.
            "fsync_amortization": CAPTURE_RUNS as f64 / group_commits as f64,
            "host_fsync_ms": fsync_ms,
            "capture_cpu_ms_per_run": capture_cpu_ms,
            // Wall-clock ceiling on THIS host: batching can remove the
            // fsync share but never the per-run capture CPU.
            "host_speedup_ceiling": (capture_cpu_ms + fsync_ms) / capture_cpu_ms,
        },
        "template_dedup": dedup,
        "cross_run_query": query,
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
}
