//! End-to-end architecture test: curation + workflow + provenance +
//! quality assessment + durability across restart — every Figure-1 box in
//! one flow.

use std::collections::BTreeMap;

use preserva::core::roles::EndUser;
use preserva::core::{Collection, CollectionOptions};
use preserva::curation::log::CurationLog;
use preserva::curation::pipeline::CurationPipeline;
use preserva::curation::review::ReviewQueue;
use preserva::fnjv::config::GeneratorConfig;
use preserva::metadata::fnjv as fnjv_schema;
use preserva::quality::dimension::Dimension;
use preserva::quality::goal::QualityGoal;
use preserva::wfms::services::port;
use preserva_bench::case_study::{records_to_json, setup_case_study};

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("preserva-e2e-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn curate_run_assess_and_goal() {
    let dir = tmp("flow");
    let cs = setup_case_study(&dir, &GeneratorConfig::small(31), 0.9, 8);

    // Stage-1 curation before the name check.
    let pipeline = CurationPipeline::stage1(cs.collection.gazetteer.clone(), fnjv_schema::schema());
    let mut log = CurationLog::new();
    let mut queue = ReviewQueue::new();
    let (curated, summary) = pipeline.run(&cs.collection.records, &mut log, &mut queue);
    assert!(summary.field_changes > 0);

    // Persist data and run the case-study workflow over the curated set.
    cs.archive.catalog().insert_all(&curated).unwrap();
    let trace = cs
        .run(&port("sound_metadata", records_to_json(&curated)))
        .unwrap();
    let s = &trace.workflow_outputs["summary"];
    assert_eq!(s["distinct_names"].as_u64(), Some(120));
    assert_eq!(s["outdated"].as_u64(), Some(9));

    // Assess and evaluate a preservation goal.
    let user = EndUser::new("Dr. Toledo", "IB/Unicamp");
    let mut facts = BTreeMap::new();
    facts.insert("names_checked".into(), s["checked"].as_f64().unwrap());
    facts.insert("names_correct".into(), s["current"].as_f64().unwrap());
    let report = cs
        .assess(&user, "fnjv-small", &trace.run_id, &facts)
        .unwrap();
    let goal = QualityGoal::new("preservation")
        .require(Dimension::accuracy(), 3.0, 0.9)
        .require(Dimension::reputation(), 1.0, 0.8);
    let eval = goal.evaluate(&report);
    assert!(eval.satisfied(), "failed terms: {:?}", eval.failed_terms);
    assert!(eval.overall.unwrap() > 0.9);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repositories_survive_restart() {
    let dir = tmp("durability");
    let run_id;
    let record_count;
    {
        let cs = setup_case_study(&dir, &GeneratorConfig::small(55), 1.0, 3);
        cs.archive
            .catalog()
            .insert_all(&cs.collection.records)
            .unwrap();
        record_count = cs.collection.records.len();
        let trace = cs
            .run(&port(
                "sound_metadata",
                records_to_json(&cs.collection.records),
            ))
            .unwrap();
        run_id = trace.run_id;
        cs.archive.close().unwrap();
    }

    // Reopen the same directory: the persisted data, workflow spec,
    // provenance and trace must be back.
    let archive = Collection::open(&dir, CollectionOptions::default()).unwrap();
    assert_eq!(archive.catalog().all().unwrap().len(), record_count);
    assert!(archive
        .workflow(preserva_bench::case_study::WORKFLOW_ID)
        .unwrap()
        .is_some());
    let graph = archive.provenance().load_graph(&run_id).unwrap();
    assert!(graph.processes.len() >= 3);
    let trace = archive.provenance().load_trace(&run_id).unwrap();
    assert!(trace.succeeded());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn provenance_lineage_spans_workflow() {
    let dir = tmp("lineage");
    let cs = setup_case_study(&dir, &GeneratorConfig::small(8), 1.0, 3);
    let trace = cs
        .run(&port(
            "sound_metadata",
            records_to_json(&cs.collection.records),
        ))
        .unwrap();
    let graph = cs.archive.provenance().load_graph(&trace.run_id).unwrap();

    // The summary artifact's lineage must reach back to the workflow input.
    let summary_artifact = graph
        .artifacts
        .keys()
        .find(|id| id.as_str().contains("Summarize.summary"))
        .expect("summary artifact exists");
    let lineage = graph.lineage(summary_artifact);
    assert!(
        lineage
            .iter()
            .any(|n| n.as_str().contains("in:sound_metadata")),
        "lineage must reach the workflow input; got {lineage:?}"
    );
    // And pass through the Catalogue-of-Life process, which carries its
    // quality annotations.
    let col = lineage
        .iter()
        .find(|n| n.as_str().contains("Catalog_of_life") && graph.processes.contains_key(n))
        .expect("CoL process in lineage");
    let p = &graph.processes[col];
    assert_eq!(
        p.annotations.get("Q(reputation)").map(String::as_str),
        Some("1")
    );

    std::fs::remove_dir_all(&dir).ok();
}
