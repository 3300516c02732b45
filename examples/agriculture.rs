//! The architecture on a different domain — the paper notes its
//! predecessor was deployed "for an agriculture application, using Java
//! and the Taverna Workflow System" (Malaverri et al.), and that the
//! boxes say *data*, not metadata, because the approach is general.
//!
//! Here: soil-sample records flow through a quality-aware workflow that
//! enriches them with weather data and screens implausible pH values;
//! the Data Quality Manager then scores the dataset from provenance +
//! annotations + run facts, exactly as in the FNJV case study.
//!
//! ```sh
//! cargo run --example agriculture
//! ```

use std::collections::BTreeMap;

use preserva::core::adapter::WorkflowAdapter;
use preserva::core::roles::{EndUser, ProcessDesigner};
use preserva::core::{Collection, CollectionOptions};
use preserva::quality::dimension::Dimension;
use preserva::quality::metric::Metric;
use preserva::quality::model::QualityModel;
use preserva::wfms::engine::{Engine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use serde_json::{json, Value};

fn main() {
    // --- services: a soil-lab reading validator and a weather enricher ---
    let mut registry = ServiceRegistry::new();
    registry.register_fn("validate_ph", |inputs: &PortMap| {
        let samples = inputs["samples"].as_array().cloned().unwrap_or_default();
        let (valid, invalid): (Vec<Value>, Vec<Value>) = samples
            .into_iter()
            .partition(|s| matches!(s["ph"].as_f64(), Some(ph) if (3.0..=10.0).contains(&ph)));
        let mut out = port("valid", json!(valid));
        out.insert("invalid_count".into(), json!(invalid.len()));
        Ok(out)
    });
    registry.register_fn("enrich_weather", |inputs: &PortMap| {
        let samples = inputs["samples"].as_array().cloned().unwrap_or_default();
        let enriched: Vec<Value> = samples
            .into_iter()
            .map(|mut s| {
                // A fixed climatology stand-in for the weather service.
                s["rainfall_mm_30d"] = json!(112.5);
                s
            })
            .collect();
        Ok(port("enriched", json!(enriched)))
    });

    let dir = std::env::temp_dir().join(format!("preserva-ex-agri-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let collection = Collection::open(&dir, CollectionOptions::default()).unwrap();
    let engine =
        Engine::new(registry, EngineConfig::default()).with_sink(collection.provenance().clone());

    // --- the quality-aware workflow, annotated by the designer ---
    let mut workflow = Workflow::new("wf-soil", "Soil sample enrichment")
        .with_input("samples")
        .with_output("dataset")
        .with_output("rejected")
        .with_processor(Processor::service(
            "Validate_pH",
            "validate_ph",
            &["samples"],
            &["valid", "invalid_count"],
        ))
        .with_processor(Processor::service(
            "Weather_service",
            "enrich_weather",
            &["samples"],
            &["enriched"],
        ))
        .link_input("samples", "Validate_pH", "samples")
        .link("Validate_pH", "valid", "Weather_service", "samples")
        .link_output("Weather_service", "enriched", "dataset")
        .link_output("Validate_pH", "invalid_count", "rejected");
    let designer = ProcessDesigner::new("agronomist", "Feagri/Unicamp");
    WorkflowAdapter::new()
        .annotate_processor(
            &mut workflow,
            "Weather_service",
            &[("reputation", 0.85), ("availability", 0.97)],
            &designer,
            "2012-06-01",
        )
        .unwrap();
    collection.publish_workflow(&workflow).unwrap();

    // --- run over a batch of soil samples (one has a bad pH) ---
    let samples = json!([
        {"plot": "A1", "ph": 6.1, "organic_matter": 2.4},
        {"plot": "A2", "ph": 5.8, "organic_matter": 3.1},
        {"plot": "B1", "ph": 42.0, "organic_matter": 1.9}, // sensor glitch
        {"plot": "B2", "ph": 7.2, "organic_matter": 2.8},
    ]);
    let trace = engine
        .run(&workflow, &port("samples", samples))
        .map_err(|(e, _)| e)
        .unwrap();
    let dataset = trace.workflow_outputs["dataset"].as_array().unwrap();
    println!(
        "run {}: {} samples enriched, {} rejected",
        trace.run_id,
        dataset.len(),
        trace.workflow_outputs["rejected"]
    );
    assert_eq!(dataset.len(), 3);
    assert!(dataset.iter().all(|s| s["rainfall_mm_30d"].is_number()));

    // --- an agronomist's quality model over the same three inputs ---
    let user = EndUser::new("Dr. Scholten", "Feagri");
    let model = QualityModel::new()
        .with_metric(Metric::from_ratio(
            "sample validity",
            Dimension::accuracy(),
            "samples_valid",
            "samples_total",
        ))
        .with_metric(Metric::from_annotation(
            "weather source reputation",
            Dimension::reputation(),
            "reputation",
        ))
        .with_metric(Metric::from_fact(
            "pipeline reliability",
            Dimension::reliability(),
            "observed_availability",
        ));
    let mut facts = BTreeMap::new();
    facts.insert("samples_total".to_string(), 4.0);
    facts.insert("samples_valid".to_string(), 3.0);
    let report = {
        let mut quality = collection.quality();
        quality.register_model(&user, model);
        quality
            .assess_run(&user, "soil-2012", &trace.run_id, &workflow, &facts)
            .unwrap()
    };
    print!("\n{}", report.render_text());
    assert_eq!(report.score(&Dimension::accuracy()), Some(0.75));
    assert_eq!(report.score(&Dimension::reputation()), Some(0.85));

    std::fs::remove_dir_all(&dir).ok();
}
