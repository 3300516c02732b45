//! First datapoint of the MVCC bench trajectory (`BENCH_mvcc.json`):
//! snapshot-scan latency under write churn vs the seed `scan_all`, and
//! the memory amplification of pinned versions vs the folded store.
//!
//! Run with `cargo run --release -p preserva-bench --bin exp_mvcc` and
//! redirect stdout to `BENCH_mvcc.json` to record a datapoint.

use std::time::Instant;

use preserva_storage::engine::{Engine, EngineOptions};
use preserva_storage::manifest;
use preserva_storage::sstable::Run;
use preserva_storage::CompactionOptions;

const ROWS: u64 = 10_000;
const GENERATIONS: u64 = 5; // versions per key resident while pinned
const ITERS: u32 = 30;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("preserva-exp-mvcc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn foreground(max_runs: usize) -> EngineOptions {
    EngineOptions {
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: max_runs,
        },
        ..EngineOptions::default()
    }
}

/// Median wall-clock of `ITERS` runs of `f`, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f(); // warmup
    }
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Physical (entries, bytes) across every run the manifest lists.
fn resident(dir: &std::path::Path) -> (u64, u64) {
    let entries = manifest::load(dir).unwrap().unwrap_or_default();
    let mut n = 0u64;
    let mut bytes = 0u64;
    for e in entries {
        let run = Run::open(&manifest::run_path(dir, e.id)).unwrap();
        n += run.entries();
        bytes += run.bytes();
    }
    (n, bytes)
}

fn main() {
    // --- Seed shape: version-free store, plain scan_all.
    let seed_dir = tmpdir("seed");
    let seed = Engine::open(&seed_dir, foreground(usize::MAX)).unwrap();
    for i in 0..ROWS {
        seed.put("records", &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    seed.checkpoint().unwrap();
    let seed_scan_us = median_us(|| {
        assert_eq!(
            seed.head().scan_all("records").unwrap().len(),
            ROWS as usize
        );
    });
    drop(seed);
    std::fs::remove_dir_all(&seed_dir).ok();

    // --- Churned shape: snapshot pinned below GENERATIONS-1 full
    // overwrites, every generation flushed into its own run.
    let dir = tmpdir("churn");
    let e = Engine::open(&dir, foreground(usize::MAX)).unwrap();
    for i in 0..ROWS {
        e.put("records", &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    e.checkpoint().unwrap();
    let snap = e.snapshot();
    for gen in 1..GENERATIONS {
        for i in 0..ROWS {
            e.put("records", &i.to_be_bytes(), &(i ^ gen).to_le_bytes())
                .unwrap();
        }
        e.checkpoint().unwrap();
    }
    let pinned_scan_us = median_us(|| {
        assert_eq!(snap.scan_all("records").unwrap().len(), ROWS as usize);
    });
    let live_scan_us = median_us(|| {
        assert_eq!(e.head().scan_all("records").unwrap().len(), ROWS as usize);
    });
    let (pinned_entries, pinned_bytes) = resident(&dir);

    // --- Folded shape: pin released, full compaction collapses history.
    drop(snap);
    assert!(e.compact().unwrap());
    let folded_scan_us = median_us(|| {
        assert_eq!(e.head().scan_all("records").unwrap().len(), ROWS as usize);
    });
    let (folded_entries, folded_bytes) = resident(&dir);

    let out = serde_json::json!({
        "bench": "mvcc",
        "rows": ROWS,
        "versions_per_key_pinned": GENERATIONS,
        "scan_latency_us": {
            "seed_scan_all": seed_scan_us,
            "pinned_snapshot_under_churn": pinned_scan_us,
            "live_head_over_versions": live_scan_us,
            "live_head_after_fold": folded_scan_us,
        },
        "memory_amplification": {
            "versions_resident_entries": pinned_entries,
            "versions_resident_bytes": pinned_bytes,
            "folded_entries": folded_entries,
            "folded_bytes": folded_bytes,
            "entry_amplification": pinned_entries as f64 / folded_entries.max(1) as f64,
            "byte_amplification": pinned_bytes as f64 / folded_bytes.max(1) as f64,
        },
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}
