//! E3 — regenerate Figure 2: the prototype's detection panel over the
//! full-scale synthetic FNJV collection (11,898 records / 1,929 distinct
//! names / 134 outdated), and persist the updated names in the separate
//! reference table.

use std::sync::Arc;
use std::time::Instant;

use preserva_bench::row;
use preserva_bench::table;
use preserva_curation::outdated::{
    persist_updates, OutdatedNameDetector, NAME_REFS_TABLE, UPDATED_NAMES_TABLE,
};
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator;
use preserva_storage::engine::{Engine, EngineOptions};
use preserva_storage::table::TableStore;
use preserva_taxonomy::service::{ColService, ServiceConfig};

fn main() {
    println!("== E3: Figure 2 — detection of outdated species names ==\n");
    let config = GeneratorConfig::default();
    let t0 = Instant::now();
    let collection = generator::generate(&config);
    println!(
        "generated synthetic FNJV collection in {:.2?} (seed {})",
        t0.elapsed(),
        config.seed
    );

    let service = ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability: 0.9, // the paper's annotated availability
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    );
    // 8 attempts ⇒ per-name hard-failure probability 1e-8: the whole 1929-
    // name sweep completes despite the 0.9 availability.
    let detector = OutdatedNameDetector::new(&service, 8);
    let t1 = Instant::now();
    let report = detector.check_collection(&collection.records);
    let elapsed = t1.elapsed();

    print!("{}", report.render_summary());
    println!(
        "\nwhole process took {elapsed:.2?} (paper: \"a few minutes\"; manual: days to months)"
    );
    let stats = service.stats();
    println!(
        "service: {} requests, {} transient failures absorbed by retries (observed availability {:.3})",
        stats.requests,
        stats.failures,
        stats.observed_availability()
    );

    // Persist the updates next to (never into) the originals.
    let dir = std::env::temp_dir().join(format!("preserva-exp-fig2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TableStore::new(Arc::new(
        Engine::open(&dir, EngineOptions::default()).unwrap(),
    ))
    .unwrap();
    let written = persist_updates(&store, &report).unwrap();
    println!(
        "\npersisted {} rows: {} in `{}`, {} in `{}` (originals untouched)",
        written,
        store.head().count(UPDATED_NAMES_TABLE).unwrap(),
        UPDATED_NAMES_TABLE,
        store.head().count(NAME_REFS_TABLE).unwrap(),
        NAME_REFS_TABLE
    );
    std::fs::remove_dir_all(&dir).ok();

    println!("\npaper vs reproduction:");
    let rows = vec![
        row!["quantity", "paper", "measured", "ok"],
        row![
            "records processed",
            11_898,
            report.records_processed,
            check(report.records_processed == 11_898)
        ],
        row![
            "distinct species names",
            1_929,
            report.distinct_names,
            check(report.distinct_names == 1_929)
        ],
        row![
            "outdated names",
            134,
            report.outdated.len(),
            check(report.outdated.len() == 134)
        ],
        row![
            "outdated fraction",
            "7%",
            format!("{:.1}%", report.outdated_fraction() * 100.0),
            check((report.outdated_fraction() - 0.07).abs() < 0.005)
        ],
        row![
            "accuracy",
            "93%",
            format!("{:.1}%", report.accuracy() * 100.0),
            check((report.accuracy() - 0.93).abs() < 0.005)
        ],
    ];
    print!("{}", table::render(&rows));
}

fn check(ok: bool) -> &'static str {
    if ok {
        "✔"
    } else {
        "✘"
    }
}
