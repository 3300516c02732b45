//! Cross-crate tests: indexed retrieval through the collection's data
//! repository, and storage-engine behaviour under concurrent writers.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use preserva::core::{Collection, CollectionOptions};
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator;
use preserva::metadata::query::{Filter, Query};
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::CompactionOptions;

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("preserva-rtc-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn architecture_records_are_queryable() {
    let dir = tmp("queryable");
    let archive = Collection::open(&dir, CollectionOptions::default()).unwrap();
    let collection = generator::generate(&GeneratorConfig::small(21));
    archive.catalog().insert_all(&collection.records).unwrap();

    // Index lookup through the catalog finds every record of a species,
    // including dirty spellings (compare against a linear scan).
    let species = collection.species_names[3].canonical();
    let via_catalog = archive.catalog().by_species(&species).unwrap();
    let expected = Query::new(Filter::species(&species)).count(&collection.records);
    assert_eq!(via_catalog.len(), expected);
    assert!(expected > 0);

    // State query (indexed) agrees with the in-memory query layer.
    let q = Query::new(Filter::TextEq {
        field: "state".into(),
        value: "São Paulo".into(),
    });
    assert_eq!(
        archive.catalog().count(&q).unwrap(),
        q.count(&collection.records)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_indexes_survive_reopen() {
    let dir = tmp("reopen");
    let collection = generator::generate(&GeneratorConfig::small(33));
    let species = collection.species_names[0].canonical();
    let expected;
    {
        let archive = Collection::open(&dir, CollectionOptions::default()).unwrap();
        archive.catalog().insert_all(&collection.records).unwrap();
        expected = archive.catalog().by_species(&species).unwrap().len();
        assert!(expected > 0);
    }
    // Reopen: indexes are re-registered and backfilled from stored rows.
    let archive = Collection::open(&dir, CollectionOptions::default()).unwrap();
    assert_eq!(
        archive.catalog().by_species(&species).unwrap().len(),
        expected
    );
    assert_eq!(
        archive.catalog().all().unwrap().len(),
        collection.records.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storage_engine_handles_concurrent_writers() {
    let dir = tmp("concurrent");
    let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
    let threads: Vec<_> = (0..8u8)
        .map(|t| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for i in 0..200u32 {
                    let key = [vec![t], i.to_be_bytes().to_vec()].concat();
                    engine.put("t", &key, &key).unwrap();
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    assert_eq!(engine.count("t").unwrap(), 8 * 200);
    // Every write is durable across reopen.
    drop(engine);
    let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
    assert_eq!(engine.count("t").unwrap(), 8 * 200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_readers_and_writers_dont_corrupt() {
    let dir = tmp("rw");
    let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
    for i in 0..100u32 {
        engine.put("base", &i.to_be_bytes(), b"seed").unwrap();
    }
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for i in 0..500u32 {
                engine
                    .put("hot", &i.to_be_bytes(), &i.to_le_bytes())
                    .unwrap();
                if i % 100 == 0 {
                    engine.checkpoint().unwrap();
                }
            }
        })
    };
    let reader = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for _ in 0..500 {
                // Base table must stay complete and readable throughout.
                assert_eq!(engine.count("base").unwrap(), 100);
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert_eq!(engine.count("hot").unwrap(), 500);
    std::fs::remove_dir_all(&dir).ok();
}

/// The tiered engine's central concurrency claim: readers never take the
/// write path's locks, and the run-set swaps (flush publishing a new run,
/// compaction replacing inputs with a merged output) are atomic view
/// switches. So a reader racing with heavy flush + compaction churn must
/// never observe a committed key as missing, nor a stale value for a key
/// whose newer version was committed before the read started.
///
/// Protocol: the writer bumps an atomic highwater (Release) only *after*
/// the commit for that sequence number returns. Readers load the
/// highwater (Acquire) first; everything at or below it is then fair game
/// for exact assertions, whatever the compactor is doing underneath.
#[test]
fn readers_never_lose_committed_keys_during_compaction_churn() {
    let dir = tmp("churn");
    let opts = EngineOptions {
        // Aggressive tiering: tiny levels + real background compaction so
        // run-set swaps happen constantly under the readers.
        compaction: CompactionOptions {
            background: true,
            max_runs_per_level: 2,
        },
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::open(&dir, opts).unwrap());
    // A stable table, flushed into a run: must stay byte-identical no
    // matter how much the churn table compacts around it.
    for i in 0..50u32 {
        engine.put("stable", &i.to_be_bytes(), b"fixed").unwrap();
    }
    engine.checkpoint().unwrap();

    let highwater = Arc::new(AtomicU32::new(0));
    let done = Arc::new(AtomicBool::new(false));
    const WRITES: u32 = 400;

    let writer = {
        let engine = engine.clone();
        let highwater = highwater.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            for seq in 1..=WRITES {
                engine
                    .put("churn", &seq.to_be_bytes(), &seq.to_le_bytes())
                    .unwrap();
                // A second-generation overwrite of an older key: catches a
                // reader being served the stale first generation out of a
                // pre-compaction run.
                if seq > 1 {
                    let old = seq / 2;
                    engine
                        .put("churn", &old.to_be_bytes(), &old.to_le_bytes())
                        .unwrap();
                }
                highwater.store(seq, Ordering::Release);
                if seq % 10 == 0 {
                    engine.checkpoint().unwrap();
                }
                if seq % 100 == 0 {
                    engine.compact().unwrap();
                }
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let engine = engine.clone();
            let highwater = highwater.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut observed = 0u32;
                while !done.load(Ordering::Acquire) || observed < WRITES {
                    let hw = highwater.load(Ordering::Acquire);
                    observed = hw;
                    if hw == 0 {
                        continue;
                    }
                    // Exact point reads for a spread of committed keys.
                    for key in [1, hw / 2 + 1, hw] {
                        let got = engine.get("churn", &key.to_be_bytes()).unwrap();
                        assert_eq!(
                            got.as_deref(),
                            Some(&key.to_le_bytes()[..]),
                            "committed key {key} (highwater {hw}) missing or stale"
                        );
                    }
                    // Scans must cover at least the committed prefix and
                    // every row they do return must be self-consistent.
                    let rows = engine.scan_all("churn").unwrap();
                    assert!(
                        rows.len() >= hw as usize,
                        "scan saw {} rows below highwater {hw}",
                        rows.len()
                    );
                    for (k, v) in &rows {
                        let key = u32::from_be_bytes(k[..4].try_into().unwrap());
                        assert_eq!(v, &key.to_le_bytes().to_vec(), "torn row for {key}");
                    }
                    // The untouched table is immune to the churn.
                    assert_eq!(engine.count("stable").unwrap(), 50);
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    // Settle: flush + force a final merge, then verify totals.
    engine.checkpoint().unwrap();
    engine.compact().unwrap();
    assert_eq!(engine.count("churn").unwrap(), WRITES as usize);
    assert_eq!(engine.count("stable").unwrap(), 50);
    std::fs::remove_dir_all(&dir).ok();
}
