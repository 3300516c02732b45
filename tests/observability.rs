//! Cross-subsystem observability test: ONE shared metrics registry wired
//! through the storage engine, the workflow engine, the provenance
//! manager and the quality manager, the way `preserva metrics` wires the
//! process-wide registry. A single exposition must cover every layer.

use std::collections::BTreeMap;
use std::sync::Arc;

use preserva::core::provenance_manager::ProvenanceManager;
use preserva::core::quality_manager::DataQualityManager;
use preserva::core::roles::EndUser;
use preserva::obs::Registry;
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::wfms::engine::{Engine as WfEngine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use serde_json::json;

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("preserva-obs-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn one_registry_observes_every_subsystem() {
    let dir = tmp("shared");
    let obs = Arc::new(Registry::new());

    // Storage, observed.
    let engine = Engine::open(
        &dir,
        EngineOptions {
            metrics: Some(obs.clone()),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let store = Arc::new(TableStore::new(Arc::new(engine)).unwrap());

    // Provenance manager reporting into the same registry, acting as the
    // workflow engine's sink.
    let pm = Arc::new(ProvenanceManager::with_metrics(store.clone(), obs.clone()));

    // Workflow engine, observed, capturing through the manager.
    let mut services = ServiceRegistry::new();
    services.register_fn("echo", |i: &PortMap| Ok(port("out", i["in"].clone())));
    let workflow = Workflow::new("wf-obs", "observability drill")
        .with_input("x")
        .with_output("y")
        .with_processor(Processor::service("first", "echo", &["in"], &["out"]))
        .with_processor(Processor::service("second", "echo", &["in"], &["out"]))
        .link_input("x", "first", "in")
        .link("first", "out", "second", "in")
        .link_output("second", "out", "y");
    let wf = WfEngine::new(services, EngineConfig::default())
        .with_metrics(obs.clone())
        .with_sink(pm.clone());
    let t1 = wf.run(&workflow, &port("x", json!(1))).unwrap();
    let t2 = wf.run(&workflow, &port("x", json!(2))).unwrap();
    assert_ne!(t1.run_id, t2.run_id);

    // Quality manager, observed, assessing a captured run.
    let dqm = DataQualityManager::new(store.clone(), pm).with_metrics(obs.clone());
    let user = EndUser::new("observer", "test");
    let mut facts = BTreeMap::new();
    facts.insert("names_checked".to_string(), 100.0);
    facts.insert("names_correct".to_string(), 93.0);
    facts.insert("reputation".to_string(), 1.0);
    facts.insert("availability".to_string(), 0.9);
    dqm.assess_run(&user, "fnjv", &t1.run_id, &workflow, &facts)
        .unwrap();

    let text = obs.render_prometheus();
    // Storage: two provenance captures + one published quality report =
    // three commits. fsync is off by default, so the family is present
    // but zero.
    assert!(text.contains("preserva_storage_commits_total 3"), "{text}");
    assert!(text.contains("preserva_storage_commit_seconds_count 3"));
    assert!(text.contains("preserva_storage_wal_appends_total"));
    assert!(text.contains("preserva_storage_wal_fsyncs_total 0"));
    // WFMS: two runs, two processors each.
    assert!(text.contains("preserva_wfms_runs_total 2"));
    assert!(text.contains("preserva_wfms_invocations_total 4"));
    assert!(text.contains("preserva_wfms_invocation_seconds_count 4"));
    assert!(text.contains("processor=\"first\""));
    assert!(text.contains("processor=\"second\""));
    // Provenance: both runs captured.
    assert!(text.contains("preserva_provenance_captures_total 2"));
    assert!(text.contains("preserva_provenance_capture_seconds_count 2"));
    assert!(text.contains("preserva_provenance_graph_bytes_count 2"));
    // Quality: one assessment through the case-study model.
    assert!(text.contains("preserva_quality_assessments_total 1"));
    assert!(text.contains("preserva_quality_evaluation_seconds_count 1"));
    assert!(text.contains("metric=\"species-name accuracy (vs Catalogue of Life)\""));

    // The human-readable summary renders quantiles from the same data.
    let summary = obs.render_summary();
    assert!(summary.contains("p95"));
    assert!(summary.contains("preserva_wfms_invocation_seconds"));

    std::fs::remove_dir_all(&dir).ok();
}
