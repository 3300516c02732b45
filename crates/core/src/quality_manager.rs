//! The Data Quality Manager: "generates quality information from (a) the
//! provenance information stored by the Provenance Manager, (b) the
//! quality attributes added to workflows by the Workflow Adapter and
//! (c) external data sources. Quality metrics are computed as defined by
//! end users" (§III).
//!
//! Assessment results are published in the paper's two formats: the
//! workflow trace (format i, joined by run id) and computed quality
//! attributes (format ii, a [`QualityReport`] persisted in the
//! repository).

use std::collections::BTreeMap;
use std::sync::Arc;

use preserva_quality::metric::AssessmentContext;
use preserva_quality::model::QualityModel;
use preserva_quality::report::QualityReport;
use preserva_quality::sources::SourceRegistry;
use preserva_storage::table::TableStore;
use preserva_wfms::annotation;
use preserva_wfms::model::Workflow;

use crate::provenance_manager::{ProvenanceError, ProvenanceManager};
use crate::repository::Repository;
use crate::roles::EndUser;

/// Table holding published quality reports, keyed by `run_id/subject`.
pub const REPORTS_TABLE: &str = "quality_reports";

/// Errors from the quality manager.
#[derive(Debug)]
pub enum QualityManagerError {
    /// Provenance lookup failed.
    Provenance(ProvenanceError),
    /// Underlying storage failure, or a stored report that failed to
    /// (de)serialize.
    Storage(preserva_storage::StorageError),
}

impl std::fmt::Display for QualityManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualityManagerError::Provenance(e) => write!(f, "quality manager: {e}"),
            QualityManagerError::Storage(e) => write!(f, "quality manager storage: {e}"),
        }
    }
}

impl std::error::Error for QualityManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QualityManagerError::Provenance(e) => Some(e),
            QualityManagerError::Storage(e) => Some(e),
        }
    }
}

impl From<ProvenanceError> for QualityManagerError {
    fn from(e: ProvenanceError) -> Self {
        QualityManagerError::Provenance(e)
    }
}

impl From<preserva_storage::StorageError> for QualityManagerError {
    fn from(e: preserva_storage::StorageError) -> Self {
        QualityManagerError::Storage(e)
    }
}

fn report_key(report: &QualityReport) -> String {
    format!(
        "{}/{}",
        report.run_id.as_deref().unwrap_or("-"),
        report.subject
    )
}

/// The manager: per-end-user quality models over the shared repositories.
pub struct DataQualityManager {
    reports: Repository<QualityReport>,
    provenance: Arc<ProvenanceManager>,
    /// Registered models, keyed by end-user name ("quality can be assessed
    /// differently by distinct sets of users").
    models: BTreeMap<String, QualityModel>,
    /// External semantic data sources consulted during assessment
    /// (input c of §III).
    sources: SourceRegistry,
    /// Metrics registry assessments report into (private by default).
    obs: Arc<preserva_obs::Registry>,
}

impl std::fmt::Debug for DataQualityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataQualityManager")
            .field("users", &self.models.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl DataQualityManager {
    /// Create over the shared repositories, with a private metrics
    /// registry. Use [`with_metrics`](Self::with_metrics) to report
    /// evaluation timings into a shared one.
    pub fn new(store: Arc<TableStore>, provenance: Arc<ProvenanceManager>) -> Self {
        DataQualityManager {
            reports: Repository::new(store, REPORTS_TABLE, report_key),
            provenance,
            models: BTreeMap::new(),
            sources: SourceRegistry::new(),
            obs: Arc::new(preserva_obs::Registry::new()),
        }
    }

    /// Report metric-evaluation timings to `registry` (builder style).
    pub fn with_metrics(mut self, registry: Arc<preserva_obs::Registry>) -> Self {
        self.obs = registry;
        self
    }

    /// The metrics registry assessments report into.
    pub fn metrics_registry(&self) -> &Arc<preserva_obs::Registry> {
        &self.obs
    }

    /// Register an external semantic data source; its facts about the
    /// assessed subject are merged into every assessment context
    /// (caller-supplied facts still take precedence).
    pub fn register_source(
        &mut self,
        source: std::sync::Arc<dyn preserva_quality::sources::ExternalSource>,
    ) {
        self.sources.register(source);
    }

    /// The registered external sources.
    pub fn sources(&self) -> &SourceRegistry {
        &self.sources
    }

    /// An end user registers the dimensions/metrics they care about.
    pub fn register_model(&mut self, user: &EndUser, model: QualityModel) {
        self.models.insert(user.name.clone(), model);
    }

    /// The model registered for a user, if any.
    pub fn model_for(&self, user: &EndUser) -> Option<&QualityModel> {
        self.models.get(&user.name)
    }

    /// Build the assessment context for a stored run: provenance from the
    /// repository (input a), the workflow's quality annotations (input b)
    /// — both processor- and workflow-level, later assertions overriding —
    /// and caller-supplied external facts (input c).
    pub fn context_for_run(
        &self,
        run_id: &str,
        workflow: &Workflow,
        external_facts: &BTreeMap<String, f64>,
    ) -> Result<AssessmentContext, QualityManagerError> {
        let graph = self.provenance.load_graph(run_id)?;
        let trace = self.provenance.load_trace(run_id)?;
        let mut ctx = AssessmentContext::new().with_provenance(graph);
        let mut assertions = workflow.annotations.clone();
        for p in &workflow.processors {
            assertions.extend(p.annotations.iter().cloned());
        }
        for (k, v) in annotation::merged_quality(&assertions) {
            ctx = ctx.with_annotation(&k, v);
        }
        ctx = ctx.with_fact("observed_availability", trace.observed_availability());
        ctx = ctx.with_fact("total_retries", trace.total_retries as f64);
        for (k, v) in external_facts {
            ctx = ctx.with_fact(k, *v);
        }
        Ok(ctx)
    }

    /// Assess a subject for a user against a stored run and publish the
    /// report.
    pub fn assess_run(
        &self,
        user: &EndUser,
        subject: &str,
        run_id: &str,
        workflow: &Workflow,
        external_facts: &BTreeMap<String, f64>,
    ) -> Result<QualityReport, QualityManagerError> {
        let model = self
            .models
            .get(&user.name)
            .cloned()
            .unwrap_or_else(QualityModel::case_study_default);
        let mut ctx = self.context_for_run(run_id, workflow, external_facts)?;
        // Consult external semantic sources; facts supplied explicitly by
        // the caller (already in ctx) win over source-provided ones.
        for (k, v) in self.sources.facts(subject) {
            ctx.facts.entry(k).or_insert(v);
        }
        let mut report = model.assess_observed(subject, &ctx, &self.obs);
        report.run_id = Some(run_id.to_string());
        self.publish(&report)?;
        Ok(report)
    }

    /// Persist a report (keyed by `run_id/subject`).
    pub fn publish(&self, report: &QualityReport) -> Result<(), QualityManagerError> {
        self.reports.save(report)?;
        Ok(())
    }

    /// Load every published report.
    pub fn reports(&self) -> Result<Vec<QualityReport>, QualityManagerError> {
        Ok(self.reports.load_all(self.reports.store().head())?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use preserva_quality::dimension::Dimension;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_wfms::annotation::AnnotationAssertion;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::Processor;
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};
    use serde_json::json;

    pub(crate) fn setup(name: &str) -> (Arc<TableStore>, Arc<ProvenanceManager>, Workflow, String) {
        let dir =
            std::env::temp_dir().join(format!("preserva-dqm-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        let pm = Arc::new(ProvenanceManager::new(store.clone()));

        let mut r = ServiceRegistry::new();
        r.register_fn("check", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let mut w = Workflow::new("wf-col", "Outdated Species Name Detection")
            .with_input("names")
            .with_output("report")
            .with_processor(Processor::service("col", "check", &["in"], &["out"]))
            .link_input("names", "col", "in")
            .link_output("col", "out", "report");
        w.processor_mut("col")
            .unwrap()
            .annotations
            .push(AnnotationAssertion::quality(
                &[("reputation", 1.0), ("availability", 0.9)],
                "2013-11-12",
                "expert",
            ));
        let engine = WfEngine::new(r, EngineConfig::default());
        let trace = engine
            .run(&w, &port("names", json!(["Hyla faber"])))
            .unwrap();
        pm.capture(&w, &trace).unwrap();
        (store, pm, w, trace.run_id)
    }

    #[test]
    fn assess_run_reproduces_case_study_numbers() {
        let (store, pm, w, run_id) = setup("case");
        let dqm = DataQualityManager::new(store, pm);
        let user = EndUser::new("Dr. Toledo", "IB/Unicamp");
        let mut facts = BTreeMap::new();
        facts.insert("names_checked".to_string(), 1929.0);
        facts.insert("names_correct".to_string(), 1795.0);
        let report = dqm
            .assess_run(&user, "fnjv-species-names", &run_id, &w, &facts)
            .unwrap();
        let acc = report.score(&Dimension::accuracy()).unwrap();
        assert!((acc - 0.9305).abs() < 0.001);
        assert_eq!(report.score(&Dimension::reputation()), Some(1.0));
        assert_eq!(report.score(&Dimension::availability()), Some(0.9));
        assert_eq!(report.run_id.as_deref(), Some(run_id.as_str()));
    }

    #[test]
    fn reports_are_published_and_listable() {
        let (store, pm, w, run_id) = setup("publish");
        let dqm = DataQualityManager::new(store, pm);
        let user = EndUser::new("u", "a");
        dqm.assess_run(&user, "subject", &run_id, &w, &BTreeMap::new())
            .unwrap();
        let reports = dqm.reports().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].subject, "subject");
    }

    #[test]
    fn per_user_models_respected() {
        let (store, pm, w, run_id) = setup("peruser");
        let mut dqm = DataQualityManager::new(store, pm);
        let user = EndUser::new("custom", "a");
        dqm.register_model(
            &user,
            QualityModel::new().with_metric(preserva_quality::metric::Metric::from_annotation(
                "only-reputation",
                Dimension::reputation(),
                "reputation",
            )),
        );
        let report = dqm
            .assess_run(&user, "s", &run_id, &w, &BTreeMap::new())
            .unwrap();
        assert_eq!(report.attributes.len(), 1);
        assert_eq!(report.score(&Dimension::reputation()), Some(1.0));
        assert!(dqm.model_for(&user).is_some());
    }

    #[test]
    fn assessments_report_into_a_shared_registry() {
        let (store, pm, w, run_id) = setup("qm-metrics");
        let obs = Arc::new(preserva_obs::Registry::new());
        let dqm = DataQualityManager::new(store, pm).with_metrics(obs.clone());
        let user = EndUser::new("u", "a");
        let mut facts = BTreeMap::new();
        facts.insert("names_checked".to_string(), 1929.0);
        facts.insert("names_correct".to_string(), 1795.0);
        dqm.assess_run(&user, "fnjv", &run_id, &w, &facts).unwrap();
        dqm.assess_run(&user, "fnjv", &run_id, &w, &facts).unwrap();
        let text = obs.render_prometheus();
        assert!(
            text.contains("preserva_quality_assessments_total 2"),
            "{text}"
        );
        assert!(text.contains("preserva_quality_evaluation_seconds_count 2"));
        assert!(text.contains("preserva_quality_metric_evaluation_seconds"));
        assert!(Arc::ptr_eq(dqm.metrics_registry(), &obs));
    }

    #[test]
    fn unknown_run_is_error() {
        let (store, pm, w, _) = setup("unknownrun");
        let dqm = DataQualityManager::new(store, pm);
        let user = EndUser::new("u", "a");
        assert!(dqm
            .assess_run(&user, "s", "run-999999", &w, &BTreeMap::new())
            .is_err());
    }

    #[test]
    fn observed_availability_fact_present() {
        let (store, pm, w, run_id) = setup("observed");
        let dqm = DataQualityManager::new(store, pm);
        let ctx = dqm.context_for_run(&run_id, &w, &BTreeMap::new()).unwrap();
        assert_eq!(ctx.facts.get("observed_availability"), Some(&1.0));
        assert!(ctx.provenance.is_some());
        assert_eq!(ctx.annotations.get("reputation"), Some(&1.0));
    }
}

#[cfg(test)]
mod source_tests {
    use super::*;
    use preserva_quality::sources::StaticSource;
    use std::sync::Arc as StdArc;

    // Reuse the main test setup.
    use super::tests::setup;

    #[test]
    fn external_sources_feed_assessment() {
        let (store, pm, w, run_id) = setup("sources");
        let mut dqm = DataQualityManager::new(store, pm);
        dqm.register_source(StdArc::new(
            StaticSource::new("catalogue-stats")
                .with_fact("fnjv", "names_checked", 1929.0)
                .with_fact("fnjv", "names_correct", 1795.0),
        ));
        let user = EndUser::new("u", "a");
        // No caller-supplied facts: accuracy must come from the source.
        let report = dqm
            .assess_run(&user, "fnjv", &run_id, &w, &BTreeMap::new())
            .unwrap();
        let acc = report
            .score(&preserva_quality::dimension::Dimension::accuracy())
            .unwrap();
        assert!((acc - 0.9305).abs() < 0.001);
        assert_eq!(dqm.sources().names(), vec!["catalogue-stats"]);
    }

    #[test]
    fn caller_facts_override_sources() {
        let (store, pm, w, run_id) = setup("override");
        let mut dqm = DataQualityManager::new(store, pm);
        dqm.register_source(StdArc::new(
            StaticSource::new("stale")
                .with_fact("fnjv", "names_checked", 100.0)
                .with_fact("fnjv", "names_correct", 10.0),
        ));
        let user = EndUser::new("u", "a");
        let mut facts = BTreeMap::new();
        facts.insert("names_checked".to_string(), 100.0);
        facts.insert("names_correct".to_string(), 93.0);
        let report = dqm.assess_run(&user, "fnjv", &run_id, &w, &facts).unwrap();
        assert_eq!(
            report.score(&preserva_quality::dimension::Dimension::accuracy()),
            Some(0.93)
        );
    }
}
