//! Storage-engine microbenchmarks: put / get / scan / recovery — the cost
//! floor under every repository in the architecture.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use preserva_storage::engine::{BatchOp, Engine, EngineOptions};
use preserva_storage::CompactionOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserva-bench-storage-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_put(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/put");
    g.throughput(Throughput::Elements(1));
    let dir = tmpdir("put");
    let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
    let mut i = 0u64;
    g.bench_function("single_key", |b| {
        b.iter(|| {
            i += 1;
            engine
                .put(
                    "records",
                    &i.to_be_bytes(),
                    b"one observation record payload",
                )
                .unwrap();
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_get_scan(c: &mut Criterion) {
    let dir = tmpdir("get");
    let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
    for i in 0..10_000u64 {
        engine
            .put("records", &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    engine.checkpoint().unwrap();
    let mut g = c.benchmark_group("storage/read");
    g.throughput(Throughput::Elements(1));
    g.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            engine.head().get("records", &i.to_be_bytes()).unwrap()
        })
    });
    g.throughput(Throughput::Elements(10_000));
    // Scans go through a pinned snapshot now — the repeatable-read path
    // every repository read uses since the MVCC refactor.
    let snap = engine.snapshot();
    g.bench_function("scan_10k", |b| b.iter(|| snap.scan_all("records").unwrap()));
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// MVCC overhead under version pressure: a snapshot pinned below 5×
/// resident versions per key scans the same 10k logical rows as the
/// live head. Compare against `storage/read/scan_10k` (version-free)
/// for the amplification cost; `exp_mvcc` records the same shape as a
/// JSON datapoint.
fn bench_snapshot_scan_under_versions(c: &mut Criterion) {
    let dir = tmpdir("mvcc-scan");
    let opts = EngineOptions {
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: usize::MAX,
        },
        ..EngineOptions::default()
    };
    let engine = Engine::open(&dir, opts).unwrap();
    for i in 0..10_000u64 {
        engine
            .put("records", &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    engine.checkpoint().unwrap();
    // Pin below the churn, then lay four more full generations of
    // versions on top: 50k physical versions, 10k logical rows.
    let snap = engine.snapshot();
    for gen in 1..=4u64 {
        for i in 0..10_000u64 {
            engine
                .put("records", &i.to_be_bytes(), &(i ^ gen).to_le_bytes())
                .unwrap();
        }
        engine.checkpoint().unwrap();
    }
    let mut g = c.benchmark_group("storage/mvcc");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("pinned_scan_under_5x_versions", |b| {
        b.iter(|| snap.scan_all("records").unwrap())
    });
    g.bench_function("live_scan_over_5x_versions", |b| {
        b.iter(|| engine.head().scan_all("records").unwrap())
    });
    // Folded baseline: drop the pin, compact history away, re-scan.
    drop(snap);
    engine.compact().unwrap();
    g.bench_function("live_scan_after_fold", |b| {
        b.iter(|| engine.head().scan_all("records").unwrap())
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_recovery(c: &mut Criterion) {
    let dir = tmpdir("recovery");
    {
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        for i in 0..5_000u64 {
            engine.put("records", &i.to_be_bytes(), &[0u8; 64]).unwrap();
        }
    } // drop without checkpoint: recovery replays the WAL
    let mut g = c.benchmark_group("storage/recovery");
    g.throughput(Throughput::Elements(5_000));
    g.bench_function("wal_replay_5k", |b| {
        b.iter_batched(
            || (),
            |_| Engine::open(&dir, EngineOptions::default()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The tiered store's headline claim: checkpoint cost is O(memtable),
/// not O(total data). Prefill engines at two sizes an order of magnitude
/// apart (100k and 1M resident keys, already flushed into runs), then
/// measure flushing a fixed 1k-entry memtable on top of each — the two
/// timings should be flat across prefill size.
fn bench_flush_scaling(c: &mut Criterion) {
    const FRESH: u64 = 1_000; // memtable size being flushed
    let payload = [7u8; 24];

    let mut g = c.benchmark_group("storage/flush_scaling");
    g.sample_size(10);
    for (label, total) in [("100k", 100_000u64), ("1m", 1_000_000u64)] {
        // Memtable-only flush on top of `total` resident keys.
        let dir = tmpdir(&format!("flush-{label}"));
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                // No compaction during the measurement: isolate flush cost.
                max_runs_per_level: usize::MAX,
            },
            ..EngineOptions::default()
        };
        let engine = Engine::open(&dir, opts).unwrap();
        for chunk in (0..total).collect::<Vec<_>>().chunks(10_000) {
            let batch: Vec<BatchOp> = chunk
                .iter()
                .map(|i| BatchOp::Put {
                    table: "records".to_string(),
                    key: i.to_be_bytes().to_vec(),
                    value: payload.to_vec(),
                })
                .collect();
            engine.apply_batch(batch).unwrap();
            engine.checkpoint().unwrap();
        }
        let mut next = total;
        g.throughput(Throughput::Elements(FRESH));
        g.bench_function(format!("memtable_only_flush_over_{label}"), |b| {
            b.iter_batched(
                || {
                    // A fresh 1k-entry memtable, unique keys per round.
                    let batch: Vec<BatchOp> = (0..FRESH)
                        .map(|_| {
                            next += 1;
                            BatchOp::Put {
                                table: "records".to_string(),
                                key: next.to_be_bytes().to_vec(),
                                value: payload.to_vec(),
                            }
                        })
                        .collect();
                    engine.apply_batch(batch).unwrap();
                },
                |_| engine.checkpoint().unwrap(),
                BatchSize::PerIteration,
            )
        });
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
    g.finish();
}

/// Full recuration vs journal-driven delta reassessment at 1%, 10% and
/// 100% churn: the cost of re-deriving the collection's quality state
/// should scale with the number of touched records, not the collection.
fn bench_reassess_churn(c: &mut Criterion) {
    use preserva_core::reassess::Reassessor;
    use preserva_core::retrieval::RecordCatalog;
    use preserva_curation::log::CurationLog;
    use preserva_curation::outdated::OutdatedNameDetector;
    use preserva_curation::pipeline::CurationPipeline;
    use preserva_curation::review::ReviewQueue;
    use preserva_fnjv::{config::GeneratorConfig, generator};
    use preserva_metadata::value::Value;
    use preserva_storage::table::TableStore;
    use preserva_taxonomy::service::{ColService, ServiceConfig};
    use std::cell::Cell;
    use std::sync::Arc;

    const N: usize = 1_000;
    let config = GeneratorConfig {
        records: N,
        distinct_species: 120,
        outdated_names: 10,
        seed: 42,
        ..GeneratorConfig::default()
    };
    let collection = generator::generate(&config);
    let service = ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability: 1.0,
            seed: 7,
            ..ServiceConfig::default()
        },
    );
    let pipeline = CurationPipeline::stage1(
        preserva_gazetteer::builder::build_gazetteer(3, 0x9E0),
        preserva_metadata::fnjv::schema(),
    );

    let mut g = c.benchmark_group("storage/reassess");
    g.sample_size(10);

    // Baseline: the pre-journal path — every record through the full
    // pipeline plus a full name check, regardless of what changed.
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("full_recurate_1k", |b| {
        b.iter(|| {
            let mut log = CurationLog::new();
            let mut queue = ReviewQueue::new();
            let (curated, _) = pipeline.run(&collection.records, &mut log, &mut queue);
            let report = OutdatedNameDetector::new(&service, 3).check_collection(&curated);
            criterion::black_box((curated, report.current))
        })
    });

    for (label, frac) in [
        ("delta_churn_1pct", 0.01f64),
        ("delta_churn_10pct", 0.10),
        ("delta_churn_100pct", 1.0),
    ] {
        let dir = tmpdir(label);
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        let store = Arc::new(TableStore::new(Arc::new(engine)).unwrap());
        let catalog = RecordCatalog::open_on(store.clone(), "records").unwrap();
        // Curate once, persist the clean collection, seed the cursor so
        // only the churn edits below are ever reprocessed.
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let (curated, _) = pipeline.run(&collection.records, &mut log, &mut queue);
        catalog.insert_all(&curated).unwrap();
        let reassessor = Reassessor::new(store.clone(), "records").unwrap();
        let report = OutdatedNameDetector::new(&service, 3).check_collection(&curated);
        reassessor.seed(&report).unwrap();

        let k = (((N as f64) * frac).round() as usize).max(1);
        let round = Cell::new(0u64);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    // Touch k records: one journaled commit of edits.
                    round.set(round.get() + 1);
                    let mut session = store.session();
                    for r in curated.iter().take(k) {
                        let mut edited = r.clone();
                        edited.set("recordist", Value::Text(format!("churn {}", round.get())));
                        catalog.stage(&mut session, &edited).unwrap();
                    }
                    session.commit().unwrap();
                },
                |_| {
                    let mut log = CurationLog::new();
                    let mut queue = ReviewQueue::new();
                    reassessor
                        .run(&pipeline, &service, None, None, &mut log, &mut queue)
                        .unwrap()
                },
                BatchSize::PerIteration,
            )
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_put,
    bench_get_scan,
    bench_snapshot_scan_under_versions,
    bench_recovery,
    bench_flush_scaling,
    bench_reassess_churn
);
criterion_main!(benches);
