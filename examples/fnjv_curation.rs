//! The FNJV curation scenario end to end: generate a legacy collection,
//! run the paper's stage-1 pipeline (cleaning → georeferencing →
//! environmental fill), detect outdated species names against the
//! Catalogue of Life, persist updates beside the untouched originals, and
//! route proposals through biologist review.
//!
//! ```sh
//! cargo run --example fnjv_curation
//! ```

use std::sync::Arc;

use preserva::curation::log::CurationLog;
use preserva::curation::outdated::{persist_updates, OutdatedNameDetector, UPDATED_NAMES_TABLE};
use preserva::curation::pipeline::CurationPipeline;
use preserva::curation::review::{ReviewItem, ReviewQueue};
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator;
use preserva::fnjv::stats::CollectionStats;
use preserva::metadata::fnjv;
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::taxonomy::service::{ColService, ServiceConfig};

fn main() {
    // A small legacy collection: dirty text, pre-GPS records, gaps.
    let collection = generator::generate(&GeneratorConfig::small(2024));
    println!("--- before curation ---");
    print!("{}", CollectionStats::compute(&collection.records).render());

    // Stage 1: the three-step cleaning pipeline.
    let pipeline = CurationPipeline::stage1(collection.gazetteer.clone(), fnjv::schema());
    let mut log = CurationLog::new();
    let mut queue = ReviewQueue::new();
    let (curated, summary) = pipeline.run(&collection.records, &mut log, &mut queue);
    println!("\n--- after stage-1 curation ---");
    print!("{}", CollectionStats::compute(&curated).render());
    println!(
        "pipeline: {} of {} records changed, {} field fixes, {} review flags",
        summary.records_changed, summary.records_total, summary.field_changes, summary.flags
    );

    // Outdated-name detection against the (synthetic) Catalogue of Life.
    let service = ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability: 0.9,
            ..ServiceConfig::default()
        },
    );
    let report = OutdatedNameDetector::new(&service, 5).check_collection(&curated);
    println!("\n--- outdated species names ---");
    print!("{}", report.render_summary());

    // Persist updates in the separate reference table; originals untouched.
    let dir = std::env::temp_dir().join(format!("preserva-ex-curation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TableStore::new(Arc::new(
        Engine::open(&dir, EngineOptions::default()).unwrap(),
    ))
    .unwrap();
    persist_updates(&store, &report).unwrap();
    println!(
        "persisted {} proposed updates (unverified) in `{}`",
        store.head().count(UPDATED_NAMES_TABLE).unwrap(),
        UPDATED_NAMES_TABLE
    );

    // Biologists review: approve the first proposal, reject none.
    for (old, new) in report.outdated.iter().take(3) {
        queue.submit(ReviewItem::NameUpdate {
            record_id: "batch".into(),
            old: old.canonical(),
            new: new.canonical(),
        });
    }
    let pending: Vec<u64> = queue.pending().map(|e| e.id).collect();
    if let Some(&first) = pending.first() {
        queue.approve(first, "Dr. Toledo", &mut log).unwrap();
    }
    println!(
        "review queue: {} pending after one approval; curation log holds {} entries",
        queue.pending().count(),
        log.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
