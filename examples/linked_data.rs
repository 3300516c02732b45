//! The paper's §V future-work directions, working: export a curation
//! run's provenance as Linked Data (N-Triples) and health-check the
//! stored workflow for decay.
//!
//! ```sh
//! cargo run --example linked_data
//! ```

use preserva::core::adapter::WorkflowAdapter;
use preserva::core::roles::ProcessDesigner;
use preserva::core::{Collection, CollectionOptions};
use preserva::opm::rdf;
use preserva::wfms::decay;
use preserva::wfms::engine::{Engine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use serde_json::json;

fn main() {
    let dir = std::env::temp_dir().join(format!("preserva-ex-ld-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut registry = ServiceRegistry::new();
    registry.register_fn("col_lookup", |i: &PortMap| {
        Ok(port("checked", i["names"].clone()))
    });
    let collection = Collection::open(&dir, CollectionOptions::default()).unwrap();
    let engine =
        Engine::new(registry, EngineConfig::default()).with_sink(collection.provenance().clone());

    // Publish the annotated case-study-shaped workflow.
    let mut w = Workflow::new("wf-ld", "Outdated Species Name Detection")
        .with_input("names")
        .with_output("report")
        .with_processor(Processor::service(
            "Catalog_of_life",
            "col_lookup",
            &["names"],
            &["checked"],
        ))
        .link_input("names", "Catalog_of_life", "names")
        .link_output("Catalog_of_life", "checked", "report");
    WorkflowAdapter::new()
        .annotate_processor(
            &mut w,
            "Catalog_of_life",
            &[("reputation", 1.0), ("availability", 0.9)],
            &ProcessDesigner::new("expert", "IC/Unicamp"),
            "2013-11-12",
        )
        .unwrap();
    collection.publish_workflow(&w).unwrap();

    // Run the stored spec and export the provenance as N-Triples.
    let stored = collection.workflow("wf-ld").unwrap().unwrap();
    let trace = engine
        .run(&stored, &port("names", json!(["Elachistocleis ovalis"])))
        .map_err(|(e, _)| e)
        .unwrap();
    let graph = collection.provenance().load_graph(&trace.run_id).unwrap();
    let ntriples = rdf::to_ntriples(&graph);
    println!(
        "--- provenance as Linked Data ({} triples) ---",
        ntriples.lines().count()
    );
    for line in ntriples.lines().take(8) {
        println!("{line}");
    }
    println!("…");

    // Workflow decay: healthy today, decayed once the service disappears.
    let health_2014 = decay::check(&stored, engine.registry(), 2014, 5);
    println!(
        "\nhealth in 2014 (service present): runnable={}, findings={}",
        health_2014.is_runnable(),
        health_2014.findings.len()
    );
    // Stale by 2025 — the 2013 annotation is long past its horizon.
    let health_2025 = decay::check(&stored, engine.registry(), 2025, 5);
    println!(
        "health in 2025 (stale annotations): runnable={}, findings:",
        health_2025.is_runnable()
    );
    for f in &health_2025.findings {
        println!("  - {f}");
    }
    assert!(health_2014.is_healthy());
    assert!(!health_2025.is_healthy());

    std::fs::remove_dir_all(&dir).ok();
}
