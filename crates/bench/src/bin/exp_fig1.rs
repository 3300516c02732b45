//! E7 — Figure 1 smoke matrix: run the case study and show that every box
//! of the architecture was exercised, by counting the contents of each
//! repository afterwards.

use std::collections::BTreeMap;

use preserva_bench::case_study::{records_to_json, setup_case_study};
use preserva_bench::row;
use preserva_bench::table;
use preserva_core::collection::{RECORDS_TABLE, WORKFLOWS_TABLE};
use preserva_core::quality_manager::REPORTS_TABLE;
use preserva_core::roles::EndUser;
use preserva_fnjv::config::GeneratorConfig;
use preserva_wfms::services::port;

fn main() {
    println!("== E7: Figure 1 — component smoke matrix ==\n");
    let dir = std::env::temp_dir().join(format!("preserva-exp-fig1-{}", std::process::id()));
    let cs = setup_case_study(&dir, &GeneratorConfig::small(42), 0.9, 8);

    cs.archive
        .catalog()
        .insert_all(&cs.collection.records)
        .unwrap();
    let input = port("sound_metadata", records_to_json(&cs.collection.records));
    let trace = cs.run(&input).unwrap();
    let summary = &trace.workflow_outputs["summary"];
    let mut facts = BTreeMap::new();
    facts.insert("names_checked".into(), summary["checked"].as_f64().unwrap());
    facts.insert("names_correct".into(), summary["current"].as_f64().unwrap());
    let user = EndUser::new("Dr. Toledo", "IB/Unicamp");
    cs.assess(&user, "fnjv", &trace.run_id, &facts).unwrap();

    let store = cs.archive.store();
    let count = |t: &str| store.count(t).unwrap();
    let rows = vec![
        row!["figure-1 box", "evidence (repository table)", "rows"],
        row!["Data repository", RECORDS_TABLE, count(RECORDS_TABLE)],
        row![
            "Workflow repository",
            WORKFLOWS_TABLE,
            count(WORKFLOWS_TABLE)
        ],
        row![
            "Provenance repository (graphs)",
            preserva_core::provenance_manager::PROVENANCE_TABLE,
            count(preserva_core::provenance_manager::PROVENANCE_TABLE)
        ],
        row![
            "Provenance repository (traces)",
            preserva_core::provenance_manager::TRACES_TABLE,
            count(preserva_core::provenance_manager::TRACES_TABLE)
        ],
        row!["Data Quality Manager", REPORTS_TABLE, count(REPORTS_TABLE)],
    ];
    print!("{}", table::render(&rows));

    println!("\nother boxes:");
    println!("  Workflow Adapter      annotated Catalog_of_life (Q pairs present in stored XML)");
    println!(
        "  Scientific Workflow   run {} completed {} processors",
        trace.run_id,
        trace.completed_processors().len()
    );
    println!(
        "  External data source  Catalogue of Life answered {} requests",
        cs.service.stats().requests
    );

    // Every repository must be non-empty: each box demonstrably ran.
    for t in [
        RECORDS_TABLE,
        WORKFLOWS_TABLE,
        preserva_core::provenance_manager::PROVENANCE_TABLE,
        preserva_core::provenance_manager::TRACES_TABLE,
        REPORTS_TABLE,
    ] {
        assert!(count(t) > 0, "table {t} is empty");
    }
    println!("\n[check] every Figure-1 repository is populated ✔");
    std::fs::remove_dir_all(&dir).ok();
}
