//! Shared case-study setup: the Figure-3 instantiation of the
//! architecture — a [`Collection`] plus a WFMS engine whose provenance
//! sink is the collection's provenance manager — reused by experiment
//! binaries and integration tests.
//!
//! The Outdated Species Name Detection Workflow is modeled faithfully:
//!
//! ```text
//! sound_metadata ──> Extract_species_names ──> Catalog_of_life ──> Summarize ──> summary
//!                                              (Q(reputation): 1; Q(availability): 0.9)
//! ```
//!
//! Services carry the simulated Catalogue of Life (`ColService`) inside
//! closures; the engine's retry policy absorbs its connection problems.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use serde_json::{json, Value};

use preserva_core::adapter::WorkflowAdapter;
use preserva_core::quality_manager::QualityManagerError;
use preserva_core::roles::{EndUser, ProcessDesigner};
use preserva_core::{Collection, CollectionOptions};
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator::{self, SyntheticCollection};
use preserva_metadata::record::Record;
use preserva_quality::report::QualityReport;
use preserva_taxonomy::name::ScientificName;
use preserva_taxonomy::service::{ColService, LookupOutcome, ServiceConfig};
use preserva_wfms::engine::{Engine as WfEngine, EngineConfig, RunError};
use preserva_wfms::model::{Processor, Workflow};
use preserva_wfms::services::{port, PortMap, ServiceError, ServiceRegistry};
use preserva_wfms::trace::ExecutionTrace;

/// Workflow id of the case study.
pub const WORKFLOW_ID: &str = "wf-outdated-names";

/// Everything an experiment needs.
pub struct CaseStudy {
    pub collection: SyntheticCollection,
    pub service: Arc<ColService>,
    /// The data, workflow and provenance repositories on one store, with
    /// the case-study workflow published.
    pub archive: Collection,
    /// The WFMS engine; every run it finishes is captured by
    /// `archive`'s provenance manager.
    pub engine: WfEngine,
}

impl CaseStudy {
    /// The published case-study workflow, read back from the repository.
    fn workflow(&self) -> Workflow {
        self.archive
            .workflow(WORKFLOW_ID)
            .expect("workflow repository readable")
            .expect("published at setup")
    }

    /// Run the published workflow over `inputs`; provenance is captured
    /// by the engine's sink, failed runs included.
    pub fn run(&self, inputs: &PortMap) -> Result<ExecutionTrace, RunError> {
        self.engine
            .run(&self.workflow(), inputs)
            .map_err(|(err, _trace)| err)
    }

    /// Assess a captured run for `user` with the case-study model (or
    /// the one `user` registered), publishing the report.
    pub fn assess(
        &self,
        user: &EndUser,
        subject: &str,
        run_id: &str,
        facts: &BTreeMap<String, f64>,
    ) -> Result<QualityReport, QualityManagerError> {
        self.archive
            .quality()
            .assess_run(user, subject, run_id, &self.workflow(), facts)
    }
}

/// Serialize records to the workflow's input format (id + species only;
/// the workflow needs nothing else).
pub fn records_to_json(records: &[Record]) -> Value {
    Value::Array(
        records
            .iter()
            .map(|r| {
                json!({
                    "id": r.id,
                    "species": r.get_text("species").unwrap_or_default(),
                })
            })
            .collect(),
    )
}

fn extract_names_service(inputs: &PortMap) -> Result<PortMap, ServiceError> {
    let records = inputs
        .get("records")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Permanent("records must be an array".into()))?;
    let mut names: Vec<String> = records
        .iter()
        .filter_map(|r| r.get("species").and_then(Value::as_str))
        .filter_map(ScientificName::parse)
        .map(|n| n.canonical())
        .collect();
    names.sort();
    names.dedup();
    let unparseable = records
        .iter()
        .filter(|r| {
            r.get("species")
                .and_then(Value::as_str)
                .and_then(ScientificName::parse)
                .is_none()
        })
        .count();
    let mut out = port("names", json!(names));
    out.insert("records_processed".into(), json!(records.len()));
    out.insert("unparseable".into(), json!(unparseable));
    Ok(out)
}

fn col_lookup_service(
    service: Arc<ColService>,
    max_attempts: u32,
) -> impl Fn(&PortMap) -> Result<PortMap, ServiceError> {
    move |inputs: &PortMap| {
        let names = inputs
            .get("names")
            .and_then(Value::as_array)
            .ok_or_else(|| ServiceError::Permanent("names must be an array".into()))?;
        let mut verdicts = Vec::with_capacity(names.len());
        for n in names {
            let Some(name) = n.as_str().and_then(ScientificName::parse) else {
                continue;
            };
            let verdict = match service.lookup_with_retries(&name, max_attempts) {
                Err(_) => json!({"name": name.canonical(), "status": "unavailable"}),
                Ok(LookupOutcome::Current { .. }) => {
                    json!({"name": name.canonical(), "status": "current"})
                }
                Ok(LookupOutcome::Outdated { accepted, .. }) => json!({
                    "name": name.canonical(),
                    "status": "outdated",
                    "accepted": accepted.canonical(),
                }),
                Ok(LookupOutcome::Doubtful) => {
                    json!({"name": name.canonical(), "status": "doubtful"})
                }
                Ok(LookupOutcome::Misspelled {
                    suggestion,
                    distance,
                }) => json!({
                    "name": name.canonical(),
                    "status": "misspelled",
                    "suggestion": suggestion.canonical(),
                    "distance": distance,
                }),
                Ok(LookupOutcome::NotFound) => {
                    json!({"name": name.canonical(), "status": "not_found"})
                }
            };
            verdicts.push(verdict);
        }
        Ok(port("verdicts", json!(verdicts)))
    }
}

fn summarize_service(inputs: &PortMap) -> Result<PortMap, ServiceError> {
    let verdicts = inputs
        .get("verdicts")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Permanent("verdicts must be an array".into()))?;
    let records_processed = inputs
        .get("records_processed")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let count = |status: &str| {
        verdicts
            .iter()
            .filter(|v| v.get("status").and_then(Value::as_str) == Some(status))
            .count()
    };
    let outdated: Vec<&Value> = verdicts
        .iter()
        .filter(|v| v.get("status").and_then(Value::as_str) == Some("outdated"))
        .collect();
    let current = count("current");
    let unavailable = count("unavailable");
    let checked = verdicts.len() - unavailable;
    let summary = json!({
        "records_processed": records_processed,
        "distinct_names": verdicts.len(),
        "checked": checked,
        "current": current,
        "outdated": outdated.len(),
        "doubtful": count("doubtful"),
        "misspelled": count("misspelled"),
        "not_found": count("not_found"),
        "unavailable": unavailable,
        "accuracy": if checked > 0 { current as f64 / checked as f64 } else { 1.0 },
        "updates": outdated.iter().map(|v| json!({
            "old": v["name"], "new": v["accepted"],
        })).collect::<Vec<_>>(),
    });
    Ok(port("summary", summary))
}

/// Build the case-study workflow (unannotated; the adapter annotates it).
pub fn build_workflow() -> Workflow {
    Workflow::new(WORKFLOW_ID, "Outdated Species Name Detection Workflow")
        .with_input("sound_metadata")
        .with_output("summary")
        .with_processor(Processor::service(
            "Extract_species_names",
            "extract_names",
            &["records"],
            &["names", "records_processed", "unparseable"],
        ))
        .with_processor(Processor::service(
            "Catalog_of_life",
            "col_lookup",
            &["names"],
            &["verdicts"],
        ))
        .with_processor(Processor::service(
            "Summarize",
            "summarize",
            &["verdicts", "records_processed"],
            &["summary"],
        ))
        .link_input("sound_metadata", "Extract_species_names", "records")
        .link("Extract_species_names", "names", "Catalog_of_life", "names")
        .link("Catalog_of_life", "verdicts", "Summarize", "verdicts")
        .link(
            "Extract_species_names",
            "records_processed",
            "Summarize",
            "records_processed",
        )
        .link_output("Summarize", "summary", "summary")
}

/// Assemble the whole case study: synthetic collection, the Catalogue-of-
/// Life service at the given availability, a fresh collection at `dir`,
/// an engine with the services registered, and the annotated workflow
/// published.
pub fn setup_case_study(
    dir: &Path,
    config: &GeneratorConfig,
    availability: f64,
    lookup_attempts: u32,
) -> CaseStudy {
    let collection = generator::generate(config);
    let service = Arc::new(ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability,
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    ));

    let mut registry = ServiceRegistry::new();
    registry.register_fn("extract_names", extract_names_service);
    registry.register_fn(
        "col_lookup",
        col_lookup_service(service.clone(), lookup_attempts),
    );
    registry.register_fn("summarize", summarize_service);

    let _ = std::fs::remove_dir_all(dir);
    let archive =
        Collection::open(dir, CollectionOptions::default()).expect("fresh directory opens");
    let engine =
        WfEngine::new(registry, EngineConfig::default()).with_sink(archive.provenance().clone());

    let mut workflow = build_workflow();
    let designer = ProcessDesigner::new("expert", "IC/Unicamp");
    WorkflowAdapter::new()
        .annotate_processor(
            &mut workflow,
            "Catalog_of_life",
            &[("reputation", 1.0), ("availability", availability)],
            &designer,
            "2013-11-12 19:58:09.767 UTC",
        )
        .expect("processor exists");
    archive.publish_workflow(&workflow).expect("publishes");

    CaseStudy {
        collection,
        service,
        archive,
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("preserva-cs-{}-{}", std::process::id(), name))
    }

    #[test]
    fn small_case_study_runs_end_to_end() {
        let dir = tmp("e2e");
        let cs = setup_case_study(&dir, &GeneratorConfig::small(7), 1.0, 3);
        let input = port("sound_metadata", records_to_json(&cs.collection.records));
        let trace = cs.run(&input).expect("run succeeds");
        let summary = &trace.workflow_outputs["summary"];
        assert_eq!(summary["records_processed"], json!(600));
        assert_eq!(summary["distinct_names"], json!(120));
        assert_eq!(summary["outdated"], json!(9));
        let acc = summary["accuracy"].as_f64().unwrap();
        assert!((acc - (111.0 / 120.0)).abs() < 1e-9, "accuracy {acc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workflow_matches_detector_counts() {
        // The workflow path and the direct detector path agree.
        use preserva_curation::outdated::OutdatedNameDetector;
        let dir = tmp("agree");
        let cs = setup_case_study(&dir, &GeneratorConfig::small(11), 1.0, 3);
        let report =
            OutdatedNameDetector::new(&cs.service, 3).check_collection(&cs.collection.records);
        let input = port("sound_metadata", records_to_json(&cs.collection.records));
        let trace = cs.run(&input).unwrap();
        let summary = &trace.workflow_outputs["summary"];
        assert_eq!(
            summary["distinct_names"].as_u64().unwrap() as usize,
            report.distinct_names
        );
        assert_eq!(
            summary["outdated"].as_u64().unwrap() as usize,
            report.outdated.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
