//! Search-specific properties of the journal-fed index
//! (`preserva-search`). Split runs ≡ one run ≡ rebuild and torn-commit
//! atomicity are checked for every derived view in `derived_views.rs`;
//! this file keeps what only the search index promises:
//!
//! * The persisted facet counters and name refcounts always equal a
//!   recomputation from the stored records — also while writers and
//!   index runs interleave on many threads.
//! * The n-gram candidate set always contains the linear `best_match`
//!   winner, and the indexed fuzzy answer is identical to it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Barrier;
use std::thread;

use proptest::prelude::*;

use preserva::core::retrieval::RecordCatalog;
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator;
use preserva::metadata::record::Record;
use preserva::metadata::value::Value;
use preserva::search::{tables, DocState, Indexer, SearchConfig};
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::taxonomy::fuzzy;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserva-search-delta-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> Arc<TableStore> {
    Arc::new(
        TableStore::new(Arc::new(
            Engine::open(dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap(),
    )
}

fn palette(records: &[Record]) -> Vec<String> {
    let mut palette: Vec<String> = records
        .iter()
        .filter_map(|r| r.get_text("species").map(str::to_string))
        .collect();
    palette.sort();
    palette.dedup();
    palette.push("Qqxus zzti".to_string());
    palette
}

fn decode_count(v: Vec<u8>) -> u64 {
    String::from_utf8(v).unwrap().parse().unwrap()
}

/// The stored facet counters and name refcounts equal a recomputation
/// straight from the record table.
fn assert_counters_match_records(store: &TableStore, config: &SearchConfig) {
    let mut facets: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    for (_, v) in store.head().scan("records").unwrap() {
        let r: Record = serde_json::from_slice(&v).unwrap();
        let d = DocState::extract(&r, config);
        for f in &d.facets {
            *facets.entry(f.clone()).or_insert(0) += 1;
        }
        if let Some(n) = &d.name {
            *names.entry(n.clone()).or_insert(0) += 1;
        }
    }
    let stored_facets: BTreeMap<(String, String), u64> = store
        .head()
        .scan(tables::FACETS)
        .unwrap()
        .into_iter()
        .map(|(k, v)| {
            let mut parts = k.splitn(2, |&b| b == 0u8);
            let mut part = || String::from_utf8(parts.next().unwrap().to_vec()).unwrap();
            ((part(), part()), decode_count(v))
        })
        .collect();
    assert_eq!(facets, stored_facets, "facet counters ≠ recompute");
    let stored_names: BTreeMap<String, u64> = store
        .head()
        .scan(tables::NAMES)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (String::from_utf8(k).unwrap(), decode_count(v)))
        .collect();
    assert_eq!(names, stored_names, "name refcounts ≠ recompute");
}

/// One adjacent transposition in the epithet — a distance-1 misspelling.
fn transpose(name: &str) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    if chars.len() >= 2 {
        let i = chars.len() - 2;
        chars.swap(i, i + 1);
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random edit/delete/bulk-load batches, indexed at random cursor
    /// split points: the counters always equal a recomputation from the
    /// records, and indexed fuzzy lookups equal the linear scan.
    #[test]
    fn incremental_counters_equal_recompute_and_fuzzy_equals_linear(
        seed in 0u64..200,
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..120, 0usize..8), 1..6),
            1..5
        ),
        splits in proptest::collection::vec(any::<bool>(), 5),
        bulks in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let config = GeneratorConfig {
            records: 120,
            distinct_species: 24,
            outdated_names: 3,
            seed,
            ..GeneratorConfig::default()
        };
        let collection = generator::generate(&config);
        let palette = palette(&collection.records);

        let dir = tmpdir(&format!("split-{seed}"));
        let store = open(&dir);
        let catalog = RecordCatalog::open_on(store.clone(), "records").unwrap();
        catalog.insert_all(&collection.records).unwrap();
        let indexer = Indexer::new(store.clone(), "records");
        indexer.run().unwrap();

        for (i, batch) in batches.iter().enumerate() {
            let mut session = store.session();
            for &(idx, choice) in batch {
                let base = &collection.records[idx % collection.records.len()];
                match choice {
                    6 => {
                        session.delete("records", base.id.as_bytes()).unwrap();
                    }
                    7 => {
                        let mut edited = base.clone();
                        edited.set("recordist", Value::Text(format!("editor {i}")));
                        catalog.stage(&mut session, &edited).unwrap();
                    }
                    _ => {
                        let mut edited = base.clone();
                        let name = &palette[choice % palette.len()];
                        edited.set("species", Value::Text(name.clone()));
                        catalog.stage(&mut session, &edited).unwrap();
                    }
                }
            }
            session.commit().unwrap();
            // Fresh ids through the direct-run bulk path: journaled
            // per row, so the index must see them like any edit.
            if bulks[i.min(bulks.len() - 1)] {
                let fresh: Vec<Record> = (0..3)
                    .map(|j| {
                        let mut r = collection.records[j].clone();
                        r.id = format!("bulk-{seed}-{i}-{j}");
                        r.set("species", Value::Text(palette[j % palette.len()].clone()));
                        r
                    })
                    .collect();
                catalog.insert_all_bulk(&fresh).unwrap();
            }
            if splits[i.min(splits.len() - 1)] {
                indexer.run().unwrap();
            }
        }
        indexer.run().unwrap();
        prop_assert_eq!(indexer.journal_lag().unwrap(), 0);
        assert_counters_match_records(&store, indexer.config());

        // The n-gram candidate path: for misspellings of indexed names,
        // the candidate set contains the linear winner and the indexed
        // answer IS the linear answer.
        let reader = indexer.reader();
        let snap = store.snapshot();
        let all = reader.names(&snap).unwrap();
        for name in all.iter().step_by((all.len() / 5).max(1)) {
            let query = transpose(name);
            for d in 0..=2usize {
                let linear = fuzzy::best_match(&query, all.iter().map(String::as_str), d)
                    .map(|m| (m.candidate.to_string(), m.distance));
                let candidates = reader.fuzzy_candidates(&snap, &query, d).unwrap();
                if let Some((winner, _)) = &linear {
                    prop_assert!(
                        candidates.contains(winner),
                        "candidates must contain the linear winner {winner:?} for {query:?}"
                    );
                }
                let indexed = reader
                    .fuzzy(&snap, &query, d)
                    .unwrap()
                    .map(|h| (h.name, h.distance));
                prop_assert_eq!(linear, indexed);
            }
        }
        drop(snap);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The server runs the indexer inline on every search and facets
/// request, from many connections at once, while writers commit. Runs
/// are serialised per indexer: a run pinned at an older snapshot can
/// never commit after a newer one, which would move the cursor back
/// and lose a counter update for good (the newer run's doc states make
/// the replayed entry diff to nothing).
#[test]
fn concurrent_runs_keep_counters_equal_to_recompute() {
    let collection = generator::generate(&GeneratorConfig {
        records: 60,
        distinct_species: 12,
        outdated_names: 2,
        seed: 3,
        ..GeneratorConfig::default()
    });
    let palette = palette(&collection.records);
    let families = ["Hylidae", "Bufonidae", "Leptodactylidae"];
    let dir = tmpdir("concurrent");
    let store = open(&dir);
    let catalog = RecordCatalog::open_on(store.clone(), "records").unwrap();
    catalog.insert_all(&collection.records).unwrap();
    let indexer = Indexer::new(store.clone(), "records");
    // Two writers and three runners, released together.
    let start = Barrier::new(5);

    thread::scope(|s| {
        for w in 0..2 {
            let (catalog, indexer, start) = (&catalog, &indexer, &start);
            let (records, palette) = (&collection.records, &palette);
            s.spawn(move || {
                start.wait();
                for i in 0..60 {
                    let mut r = records[(w * 31 + i * 7) % records.len()].clone();
                    r.set(
                        "species",
                        Value::Text(palette[(w + i) % palette.len()].clone()),
                    );
                    r.set("family", Value::Text(families[i % 3].to_string()));
                    catalog.insert(&r).unwrap();
                    if i % 5 == 0 {
                        indexer.run().unwrap();
                    }
                }
            });
        }
        for _ in 0..3 {
            let (indexer, start) = (&indexer, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..80 {
                    indexer.run().unwrap();
                }
            });
        }
    });

    indexer.run().unwrap();
    assert_eq!(indexer.cursor().unwrap(), store.journal_head());
    assert_eq!(indexer.journal_lag().unwrap(), 0);
    assert_counters_match_records(&store, indexer.config());
    std::fs::remove_dir_all(&dir).ok();
}
