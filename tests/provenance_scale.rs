//! Crash-safety battery for scaled provenance capture.
//!
//! A group commit makes the whole batch one WAL commit frame, and the
//! cross-run index commits its rows together with its cursor. These
//! tests simulate a crash at *every byte* of the WAL tail covering a
//! multi-run batched capture plus the index refresh that followed it,
//! and require recovery to land exactly on a batch boundary:
//!
//! * no run with a graph but no trace (or vice versa) — capture is
//!   all-or-nothing per batch, so the recovered run set is either the
//!   pre-batch set or the whole batch;
//! * no partially-indexed run — index queries before any repair return
//!   a subset of the recovered runs, and one `refresh` reconverges the
//!   index with the store exactly.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use preserva::core::prov_index::ProvIndex;
use preserva::core::provenance_manager::ProvenanceManager;
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::storage::CompactionOptions;
use preserva::wfms::engine::{Engine as WfEngine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use preserva::wfms::trace::ExecutionTrace;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("preserva-prov-scale-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No fsync, no auto-checkpoint, no background compaction: the whole
/// fixture stays in the WAL so a truncation expresses any crash point.
fn opts() -> EngineOptions {
    EngineOptions {
        fsync: false,
        checkpoint_bytes: usize::MAX,
        metrics: None,
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: 100,
        },
    }
}

fn open(dir: &Path) -> Arc<TableStore> {
    Arc::new(TableStore::new(Arc::new(
        Engine::open(dir, opts()).unwrap(),
    )))
}

/// Minimal one-processor workflow; tiny values keep the WAL tail (and so
/// the number of crash points) small.
fn runs(n: usize) -> Vec<(Workflow, ExecutionTrace)> {
    let mut r = ServiceRegistry::new();
    r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
    let w = Workflow::new("w", "identity")
        .with_input("x")
        .with_output("y")
        .with_processor(Processor::service("p", "id", &["in"], &["out"]))
        .link_input("x", "p", "in")
        .link_output("p", "out", "y");
    let e = WfEngine::new(r, EngineConfig::default());
    (0..n)
        .map(|i| {
            let t = e.run(&w, &port("x", serde_json::json!(i))).unwrap();
            (w.clone(), t)
        })
        .collect()
}

fn snapshot_dir(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        files.push((
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        ));
    }
    files.sort();
    files
}

fn restore_dir(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Torn WAL at every byte across a multi-run batch: recovery must land on
/// the whole-batch boundary, with graphs, traces, bindings and index rows
/// all consistent at every cut.
#[test]
fn torn_batch_recovers_to_whole_batch_boundary_at_every_byte() {
    let dir = tmpdir("torn-batch");

    // Phase A (baseline, always intact): 2 runs captured as one batch,
    // then indexed. Phase B (the torn tail): 3 more runs as ONE group
    // commit, then an index refresh commit.
    let batch_a = runs(2);
    let batch_b = runs(3);
    let a_ids: BTreeSet<String> = batch_a.iter().map(|(_, t)| t.run_id.clone()).collect();
    let mut all_ids = a_ids.clone();
    all_ids.extend(batch_b.iter().map(|(_, t)| t.run_id.clone()));

    let baseline_len;
    {
        let store = open(&dir);
        let pm = Arc::new(ProvenanceManager::new(store.clone()));
        let idx = ProvIndex::new(pm.clone());
        for r in pm.capture_batch(&batch_a).unwrap() {
            r.unwrap();
        }
        assert_eq!(idx.refresh().unwrap().runs_indexed, 2);
        baseline_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();

        for r in pm.capture_batch(&batch_b).unwrap() {
            r.unwrap();
        }
        assert_eq!(idx.refresh().unwrap().runs_indexed, 3);
    }
    let files = snapshot_dir(&dir);
    let full_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(full_len > baseline_len, "phase B must extend the WAL");

    for cut in baseline_len..=full_len {
        restore_dir(&dir, &files);
        let wal = dir.join("wal.log");
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let store = open(&dir);
        let pm = Arc::new(ProvenanceManager::new(store.clone()));
        let recovered: BTreeSet<String> = pm.run_ids().unwrap().into_iter().collect();

        // Whole-batch boundary: either phase A alone or both batches.
        assert!(
            recovered == a_ids || recovered == all_ids,
            "cut {cut}: recovered run set {recovered:?} is not a batch boundary"
        );
        // No graph without its trace and bindings (and vice versa): every
        // recovered run rehydrates fully.
        for run_id in &recovered {
            let graph = pm
                .load_graph(run_id)
                .unwrap_or_else(|e| panic!("cut {cut}: graph of {run_id} lost: {e}"));
            assert!(!graph.artifacts.is_empty(), "cut {cut}: empty graph");
            pm.load_trace(run_id)
                .unwrap_or_else(|e| panic!("cut {cut}: trace of {run_id} lost: {e}"));
        }

        // No partially-indexed run: pre-repair queries only ever see
        // fully recovered runs...
        let idx = ProvIndex::new(pm.clone());
        let pre: BTreeSet<String> = idx
            .runs_using_artifact("a:*:in:x", 0)
            .unwrap()
            .into_iter()
            .collect();
        assert!(
            pre.is_subset(&recovered),
            "cut {cut}: index references missing runs: {pre:?} vs {recovered:?}"
        );
        // ...and one refresh reconverges index and store exactly.
        idx.refresh().unwrap();
        let post: BTreeSet<String> = idx
            .runs_using_artifact("a:*:in:x", 0)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(post, recovered, "cut {cut}: refresh did not reconverge");
        assert_eq!(idx.lag().unwrap(), 0, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After a crash rolled a batch back, re-capturing the same runs (what a
/// recovering driver would do) restores everything, idempotently for the
/// runs that did survive.
#[test]
fn recapture_after_torn_batch_restores_the_full_set() {
    let dir = tmpdir("recapture");
    let batch_a = runs(2);
    let batch_b = runs(3);
    let mut all_ids: BTreeSet<String> = batch_a.iter().map(|(_, t)| t.run_id.clone()).collect();
    all_ids.extend(batch_b.iter().map(|(_, t)| t.run_id.clone()));

    let baseline_len;
    {
        let store = open(&dir);
        let pm = Arc::new(ProvenanceManager::new(store.clone()));
        for r in pm.capture_batch(&batch_a).unwrap() {
            r.unwrap();
        }
        baseline_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        for r in pm.capture_batch(&batch_b).unwrap() {
            r.unwrap();
        }
    }
    let files = snapshot_dir(&dir);
    let full_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();

    // A few representative cuts: just after the baseline, mid-batch, and
    // one byte short of durable.
    for cut in [
        baseline_len,
        (baseline_len + full_len) / 2,
        full_len.saturating_sub(1),
    ] {
        restore_dir(&dir, &files);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let store = open(&dir);
        let pm = Arc::new(ProvenanceManager::new(store.clone()));
        // Replay both batches: already-present runs are idempotent, lost
        // ones are recaptured.
        for batch in [&batch_a, &batch_b] {
            for r in pm.capture_batch(batch).unwrap() {
                r.unwrap();
            }
        }
        let recovered: BTreeSet<String> = pm.run_ids().unwrap().into_iter().collect();
        assert_eq!(recovered, all_ids, "cut {cut}");
        let idx = ProvIndex::new(pm.clone());
        idx.refresh().unwrap();
        assert_eq!(
            idx.runs_using_artifact("a:*:in:x", 0).unwrap().len(),
            all_ids.len(),
            "cut {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
