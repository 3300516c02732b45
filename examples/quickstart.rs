//! Quickstart: assess the quality of a small metadata collection with the
//! full architecture in ~60 lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::collections::BTreeMap;

use preserva::core::adapter::WorkflowAdapter;
use preserva::core::roles::{EndUser, ProcessDesigner};
use preserva::core::{Collection, CollectionOptions};
use preserva::quality::dimension::Dimension;
use preserva::wfms::engine::{Engine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use serde_json::json;

fn main() {
    // 1. Register the services workflows may call. Here: a toy checker
    //    that reports how many of the input names are outdated.
    let mut registry = ServiceRegistry::new();
    registry.register_fn("name_checker", |inputs: &PortMap| {
        let names = inputs["names"].as_array().cloned().unwrap_or_default();
        let outdated: Vec<_> = names
            .iter()
            .filter(|n| n.as_str() == Some("Elachistocleis ovalis"))
            .cloned()
            .collect();
        let mut out = port("outdated", json!(outdated));
        out.insert("checked".into(), json!(names.len()));
        Ok(out)
    });

    // 2. Open the collection (all repositories share one durable store)
    //    and a workflow engine that captures every run's provenance into it.
    let dir = std::env::temp_dir().join(format!("preserva-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let collection = Collection::open(&dir, CollectionOptions::default()).unwrap();
    let engine =
        Engine::new(registry, EngineConfig::default()).with_sink(collection.provenance().clone());

    // 3. A Process Designer publishes a quality-annotated workflow.
    let mut workflow = Workflow::new("wf-quick", "quick name check")
        .with_input("names")
        .with_output("outdated")
        .with_processor(Processor::service(
            "checker",
            "name_checker",
            &["names"],
            &["outdated", "checked"],
        ))
        .link_input("names", "checker", "names")
        .link_output("checker", "outdated", "outdated");
    let designer = ProcessDesigner::new("expert", "IC/Unicamp");
    WorkflowAdapter::new()
        .annotate_processor(
            &mut workflow,
            "checker",
            &[("reputation", 1.0), ("availability", 0.9)],
            &designer,
            "2013-11-12",
        )
        .unwrap();
    collection.publish_workflow(&workflow).unwrap();

    // 4. Run it; provenance is captured automatically.
    let input = port(
        "names",
        json!(["Hyla faber", "Elachistocleis ovalis", "Scinax ruber"]),
    );
    let trace = engine.run(&workflow, &input).map_err(|(e, _)| e).unwrap();
    println!("run {} finished in {:.2?}", trace.run_id, trace.elapsed);
    println!("outdated names: {}", trace.workflow_outputs["outdated"]);

    // 5. An End User assesses quality from the stored provenance +
    //    annotations + the run's facts.
    let user = EndUser::new("Dr. Toledo", "IB/Unicamp");
    let mut facts = BTreeMap::new();
    facts.insert("names_checked".to_string(), 3.0);
    facts.insert("names_correct".to_string(), 2.0);
    let report = collection
        .quality()
        .assess_run(&user, "demo-names", &trace.run_id, &workflow, &facts)
        .unwrap();
    print!("{}", report.render_text());
    assert!(report.score(&Dimension::accuracy()).unwrap() > 0.6);

    std::fs::remove_dir_all(&dir).ok();
}
