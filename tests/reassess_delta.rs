//! Change-feed equivalence and crash-safety properties of incremental
//! reassessment:
//!
//! * `delta ≡ full` — any sequence of edit batches, reassessed at any
//!   cursor split points, converges to the same stored collection and
//!   the same quality report as one run consuming the whole feed, and
//!   matches a from-scratch full recompute.
//! * A torn commit never leaves a journal entry without its data
//!   mutation, or a data mutation without its journal entry.
//! * The O(k) contract: a delta touching k of n records reprocesses k,
//!   observed through the `records_reprocessed` metric family.

use std::sync::Arc;

use proptest::prelude::*;

use preserva::core::reassess::Reassessor;
use preserva::core::retrieval::RecordCatalog;
use preserva::curation::log::CurationLog;
use preserva::curation::outdated::OutdatedNameDetector;
use preserva::curation::pipeline::CurationPipeline;
use preserva::curation::review::ReviewQueue;
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator;
use preserva::metadata::fnjv as fnjv_schema;
use preserva::metadata::record::Record;
use preserva::metadata::value::Value;
use preserva::quality::metric::AssessmentContext;
use preserva::quality::model::QualityModel;
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::taxonomy::service::{ColService, ServiceConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserva-reassess-delta-{}-{tag}",
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

fn pipeline() -> CurationPipeline {
    CurationPipeline::stage1(
        preserva::gazetteer::builder::build_gazetteer(3, 0x9E0),
        fnjv_schema::schema(),
    )
}

fn stored_records(store: &TableStore) -> Vec<Record> {
    let mut out: Vec<Record> = store
        .head()
        .scan("records")
        .unwrap()
        .into_iter()
        .map(|(_, v)| serde_json::from_slice(&v).unwrap())
        .collect();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delta runs at arbitrary cursor split points converge to the same
    /// collection and the same quality report as one run over the whole
    /// feed — which in turn matches a from-scratch full recompute.
    #[test]
    fn delta_equals_full_under_random_edits_and_splits(
        seed in 0u64..200,
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..120, 0usize..8), 1..6),
            1..5
        ),
        splits in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let config = GeneratorConfig {
            records: 120,
            distinct_species: 24,
            outdated_names: 3,
            seed,
            ..GeneratorConfig::default()
        };
        let collection = generator::generate(&config);
        let service = ColService::new(
            collection.checklist.clone(),
            ServiceConfig { availability: 1.0, seed, ..ServiceConfig::default() },
        );
        let pipe = pipeline();
        // Species palette the random edits draw from: every planted
        // species plus one name no checklist will ever resolve.
        let mut palette: Vec<String> = collection
            .records
            .iter()
            .filter_map(|r| r.get_text("species").map(str::to_string))
            .collect();
        palette.sort();
        palette.dedup();
        palette.push("Qqxus zzti".to_string());

        let dir_a = tmpdir(&format!("split-{seed}"));
        let dir_b = tmpdir(&format!("whole-{seed}"));
        let store_a = open(&dir_a);
        let store_b = open(&dir_b);
        let cat_a = RecordCatalog::open_on(store_a.clone(), "records").unwrap();
        let cat_b = RecordCatalog::open_on(store_b.clone(), "records").unwrap();
        cat_a.insert_all(&collection.records).unwrap();
        cat_b.insert_all(&collection.records).unwrap();
        let ra = Reassessor::new(store_a.clone(), "records").unwrap();
        let rb = Reassessor::new(store_b.clone(), "records").unwrap();

        let run = |r: &Reassessor| {
            let mut log = CurationLog::new();
            let mut queue = ReviewQueue::new();
            r.run(&pipe, &service, None, None, &mut log, &mut queue).unwrap()
        };
        // Both stores bootstrap with a full pass over the dirty feed.
        run(&ra);
        run(&rb);

        for (i, batch) in batches.iter().enumerate() {
            let mut sa = store_a.session();
            let mut sb = store_b.session();
            for &(idx, choice) in batch {
                let base = &collection.records[idx % collection.records.len()];
                let mut edited = base.clone();
                if choice == 7 {
                    edited.set("recordist", Value::Text(format!("editor {i}-{choice}")));
                } else {
                    let name = &palette[choice % palette.len()];
                    edited.set("species", Value::Text(name.clone()));
                }
                cat_a.stage(&mut sa, &edited).unwrap();
                cat_b.stage(&mut sb, &edited).unwrap();
            }
            sa.commit().unwrap();
            sb.commit().unwrap();
            // Store A reassesses at the random split points; store B
            // lets the feed accumulate.
            if splits[i.min(splits.len() - 1)] {
                run(&ra);
            }
        }
        // Final runs consume whatever is left of either feed.
        run(&ra);
        run(&rb);
        prop_assert_eq!(ra.journal_lag().unwrap(), 0);
        prop_assert_eq!(rb.journal_lag().unwrap(), 0);

        // Identical collections, record by record.
        let recs_a = stored_records(&store_a);
        let recs_b = stored_records(&store_b);
        prop_assert_eq!(&recs_a, &recs_b);

        // Identical ledgers, hence identical quality reports.
        let la = ra.ledger().unwrap();
        let lb = rb.ledger().unwrap();
        prop_assert_eq!(serde_json::to_value(&la), serde_json::to_value(&lb));
        let render = |l: &preserva::quality::ledger::ContributionLedger| {
            let ctx = l.export_facts(
                AssessmentContext::new()
                    .with_fact("observed_availability", 1.0)
                    .with_annotation("reputation", 1.0)
                    .with_annotation("availability", 0.9),
                "names_checked",
                "names_correct",
            );
            QualityModel::case_study_default().assess("collection", &ctx).render_text()
        };
        prop_assert_eq!(render(&la), render(&lb));

        // And the incrementally maintained totals match a from-scratch
        // full recompute over the final collection.
        let report = OutdatedNameDetector::new(&service, 3).check_collection(&recs_a);
        let (checked, correct) = la.totals();
        prop_assert_eq!(checked as usize, report.checked());
        prop_assert_eq!(correct as usize, report.current);

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}

/// Whatever byte the WAL is torn at, recovery never sees a journal entry
/// without its data mutation, nor the mutation without its entry: both
/// ride the same commit frame.
#[test]
fn torn_commit_keeps_journal_and_data_atomic() {
    // Learn the WAL span of the journaled commit from a throwaway copy.
    let probe = tmpdir("torn-probe");
    let (baseline_len, full_len) = {
        let store = open(&probe);
        store.mark_journaled("records").unwrap();
        store.put("records", b"base", b"b0").unwrap();
        let baseline = std::fs::metadata(probe.join("wal.log")).unwrap().len();
        let mut s = store.session();
        s.put("records", b"k1", b"v1").unwrap();
        s.commit().unwrap();
        (
            baseline,
            std::fs::metadata(probe.join("wal.log")).unwrap().len(),
        )
    };
    std::fs::remove_dir_all(&probe).ok();
    assert!(full_len > baseline_len);

    for cut in baseline_len..=full_len {
        let dir = tmpdir(&format!("torn-{cut}"));
        {
            let store = open(&dir);
            store.mark_journaled("records").unwrap();
            store.put("records", b"base", b"b0").unwrap();
            let mut s = store.session();
            s.put("records", b"k1", b"v1").unwrap();
            s.commit().unwrap();
        }
        let wal = dir.join("wal.log");
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), full_len);
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let store = open(&dir);
        let head = store.journal_head();
        let row = store.head().get("records", b"k1").unwrap();
        let entries = store.head().read_journal(1, 16).unwrap(); // past the baseline entry
        if row.is_some() {
            assert_eq!(head, 2, "cut at {cut}: data present but head {head}");
            assert_eq!(entries.len(), 1, "cut at {cut}");
            assert_eq!(entries[0].key, b"k1".to_vec(), "cut at {cut}");
        } else {
            assert_eq!(head, 1, "cut at {cut}: data absent but head {head}");
            assert!(entries.is_empty(), "cut at {cut}: orphan journal entry");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance contract: a delta touching k of n records reprocesses
/// O(k), observed end to end through the `records_reprocessed` metric.
#[test]
fn delta_reprocesses_only_touched_records() {
    const N: usize = 200;
    const K: usize = 9;
    let dir = tmpdir("ok-metric");
    let store = open(&dir);
    let catalog = RecordCatalog::open_on(store.clone(), "records").unwrap();
    let config = GeneratorConfig {
        records: N,
        distinct_species: 40,
        outdated_names: 4,
        seed: 5,
        ..GeneratorConfig::default()
    };
    let collection = generator::generate(&config);
    let service = ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability: 1.0,
            seed: 5,
            ..ServiceConfig::default()
        },
    );
    catalog.insert_all(&collection.records).unwrap();

    let obs = Arc::new(preserva::obs::Registry::new());
    let r = Reassessor::with_metrics(store.clone(), "records", obs.clone()).unwrap();
    let pipe = pipeline();
    let run = || {
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        r.run(&pipe, &service, None, None, &mut log, &mut queue)
            .unwrap()
    };
    let bootstrap = run();
    assert_eq!(bootstrap.records_reprocessed, N);

    // Touch K records; the delta must reprocess exactly those.
    let mut session = store.session();
    for record in collection.records.iter().take(K) {
        let mut edited = record.clone();
        edited.set("recordist", Value::Text("delta editor".into()));
        catalog.stage(&mut session, &edited).unwrap();
    }
    session.commit().unwrap();
    let outcome = run();
    assert_eq!(outcome.records_reprocessed, K);

    let text = obs.render_prometheus();
    let expected = format!("preserva_reassess_records_reprocessed_total {}", N + K);
    assert!(text.contains(&expected), "missing `{expected}` in:\n{text}");
    // The batch histogram records what was pending at the start of each
    // run: the N bootstrap entries, then exactly the K churn entries.
    let batches = format!("preserva_reassess_delta_batch_entries_sum {}", N + K);
    assert!(text.contains(&batches), "missing `{batches}` in:\n{text}");
    // The lag gauge is journal head minus cursor: caught up.
    assert!(text.contains("preserva_reassess_journal_lag 0"));
    assert_eq!(r.journal_lag().unwrap(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
