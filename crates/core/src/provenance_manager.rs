//! The Provenance Manager: "extracts provenance information from data and
//! workflows, storing such information in the Data Provenance Repository"
//! (§III). It merges Taverna-style annotated workflows with execution
//! logs into OPM graphs (as §IV-C describes) and persists both through
//! the storage engine.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use preserva_obs::{Counter, Histogram, Registry};
use preserva_opm::graph::OpmGraph;
use preserva_opm::serialize as opm_ser;
use preserva_opm::template as opm_template;
use preserva_opm::validate as opm_validate;
use preserva_storage::table::{TableStore, WriteSession};
use preserva_storage::StorageError;
use preserva_wfms::model::Workflow;
use preserva_wfms::opm_export;
use preserva_wfms::sink::{ProvenanceSink, SinkError};
use preserva_wfms::trace::ExecutionTrace;
use serde::{Deserialize, Serialize};

use crate::repository::{CodecError, Repository, RepositoryError};

/// Table holding OPM graphs, keyed by run id. Rows are either a
/// template reference (a shared skeleton plus per-run bindings) or a
/// raw OPM-JSON graph;
/// the table is journaled so the cross-run index can follow captures
/// incrementally.
pub const PROVENANCE_TABLE: &str = "provenance_graphs";
/// Table holding raw execution traces, keyed by run id.
pub const TRACES_TABLE: &str = "traces";
/// Table holding deduplicated graph skeletons, keyed by content hash.
pub const TEMPLATES_TABLE: &str = "provenance_templates";

/// Discriminator value for template-referencing graph rows.
const TEMPLATED_FMT: &str = "tpl1";

/// A graph row stored as a reference to a shared skeleton plus per-run
/// bindings. Raw rows (plain OPM-JSON, the pre-template format) fail to
/// decode as this envelope — `fmt` is mandatory — which is exactly how
/// [`ProvenanceManager::load_graph`] tells the formats apart.
#[derive(Debug, Serialize, Deserialize)]
struct TemplatedRow {
    /// Format tag; always [`TEMPLATED_FMT`].
    fmt: String,
    /// Content hash keying [`TEMPLATES_TABLE`].
    template: String,
    /// Per-run residue to rehydrate with.
    bindings: opm_template::Bindings,
}

/// Serialize with table/key context on failure — the error surfaces as
/// [`ProvenanceError::Codec`], never as a bogus duplicate verdict.
fn encode_json<T: Serialize>(table: &str, key: &str, value: &T) -> Result<String, ProvenanceError> {
    serde_json::to_string(value).map_err(|e| ProvenanceError::Codec(CodecError::new(table, key, e)))
}

/// Errors from the provenance manager.
#[derive(Debug)]
pub enum ProvenanceError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// The merged graph failed OPM legality validation.
    IllegalGraph(String),
    /// The requested run is not in the repository.
    UnknownRun(String),
    /// A *different* trace is already stored under this run id. Silently
    /// overwriting it would destroy provenance; the id-minting side is
    /// broken and must be fixed, not papered over.
    DuplicateRun(String),
    /// A stored graph or trace failed to (de)serialize.
    Codec(CodecError),
}

impl std::fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvenanceError::Storage(e) => write!(f, "provenance storage: {e}"),
            ProvenanceError::IllegalGraph(m) => write!(f, "illegal OPM graph: {m}"),
            ProvenanceError::UnknownRun(r) => write!(f, "unknown run {r:?}"),
            ProvenanceError::DuplicateRun(r) => write!(
                f,
                "run {r:?} already captured with a different trace; refusing to overwrite"
            ),
            ProvenanceError::Codec(e) => write!(f, "provenance codec: {e}"),
        }
    }
}

impl std::error::Error for ProvenanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvenanceError::Storage(e) => Some(e),
            ProvenanceError::Codec(e) => Some(e),
            ProvenanceError::IllegalGraph(_)
            | ProvenanceError::UnknownRun(_)
            | ProvenanceError::DuplicateRun(_) => None,
        }
    }
}

impl From<StorageError> for ProvenanceError {
    fn from(e: StorageError) -> Self {
        ProvenanceError::Storage(e)
    }
}

impl From<CodecError> for ProvenanceError {
    fn from(e: CodecError) -> Self {
        ProvenanceError::Codec(e)
    }
}

impl From<RepositoryError> for ProvenanceError {
    fn from(e: RepositoryError) -> Self {
        match e {
            RepositoryError::Storage(e) => ProvenanceError::Storage(e),
            RepositoryError::Codec(e) => ProvenanceError::Codec(e),
        }
    }
}

/// Provenance-capture instruments, resolved once at construction so the
/// capture path touches only atomic handles.
struct ProvMetrics {
    captures: Arc<Counter>,
    duplicate_runs: Arc<Counter>,
    capture_seconds: Arc<Histogram>,
    graph_nodes: Arc<Histogram>,
    graph_bytes: Arc<Histogram>,
    trace_steps: Arc<Histogram>,
    template_hits: Arc<Counter>,
    template_stores: Arc<Counter>,
}

impl ProvMetrics {
    fn resolve(reg: &Arc<Registry>) -> ProvMetrics {
        ProvMetrics {
            captures: reg.counter(
                "preserva_provenance_captures_total",
                "Provenance captures persisted (graph + trace committed).",
            ),
            duplicate_runs: reg.counter(
                "preserva_provenance_duplicate_runs_total",
                "Capture attempts refused because a different trace already \
                 owned the run id.",
            ),
            capture_seconds: reg.latency_histogram(
                "preserva_provenance_capture_seconds",
                "Latency of provenance capture (merge, validate, commit).",
            ),
            graph_nodes: reg.histogram(
                "preserva_provenance_graph_nodes",
                "Node count (artifacts + processes + agents) of captured OPM graphs.",
                &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0],
            ),
            graph_bytes: reg.size_histogram(
                "preserva_provenance_graph_bytes",
                "Serialized size of captured OPM graphs.",
            ),
            trace_steps: reg.histogram(
                "preserva_provenance_trace_steps",
                "Processor invocations recorded in captured execution traces.",
                &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0],
            ),
            template_hits: reg.counter(
                "preserva_prov_template_hits_total",
                "Captured graphs stored as bindings against an already-stored \
                 skeleton (structural sharing paid off).",
            ),
            template_stores: reg.counter(
                "preserva_prov_template_stores_total",
                "Distinct graph skeletons stored in the template table.",
            ),
        }
    }
}

/// The manager, over a shared table store. OPM graphs are stored in the
/// custom OPM-JSON interchange format (raw bytes); traces go through a
/// typed [`Repository`].
pub struct ProvenanceManager {
    store: Arc<TableStore>,
    traces: Repository<ExecutionTrace>,
    obs: Arc<Registry>,
    metrics: ProvMetrics,
    /// Serializes the duplicate-run check with the commit that follows
    /// it: without this, two threads capturing *different* traces under
    /// one run id could both pass the check and the loser would silently
    /// overwrite the winner's provenance.
    capture_lock: Mutex<()>,
}

impl std::fmt::Debug for ProvenanceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceManager").finish()
    }
}

impl ProvenanceManager {
    /// Create over a store, with a private metrics registry. Use
    /// [`with_metrics`](Self::with_metrics) to report into a shared one.
    pub fn new(store: Arc<TableStore>) -> Self {
        Self::build(store, Arc::new(Registry::new()))
    }

    /// Create over a store, reporting capture metrics and trace events to
    /// `registry` (typically shared with the storage engine and WFMS).
    pub fn with_metrics(store: Arc<TableStore>, registry: Arc<Registry>) -> Self {
        Self::build(store, registry)
    }

    fn build(store: Arc<TableStore>, registry: Arc<Registry>) -> Self {
        // Captures feed the change journal so the cross-run index can
        // trail them as a derived view (`ProvView`).
        store
            .mark_journaled(PROVENANCE_TABLE)
            .expect("valid table name");
        let traces = Repository::new(store.clone(), TRACES_TABLE, |t: &ExecutionTrace| {
            t.run_id.clone()
        });
        let metrics = ProvMetrics::resolve(&registry);
        ProvenanceManager {
            store,
            traces,
            obs: registry,
            metrics,
            capture_lock: Mutex::new(()),
        }
    }

    /// The table store this manager persists into (shared with the
    /// cross-run index and the CLI).
    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    /// The metrics registry this manager reports to.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Capture a run: merge the annotated workflow with the execution
    /// trace into an OPM graph, validate it, persist graph + trace in ONE
    /// storage commit — recovery never sees a graph without its trace, or
    /// the reverse. Returns the graph.
    ///
    /// A run id may be captured at most once: re-capturing the identical
    /// trace is an idempotent no-op, but a *different* trace under an
    /// existing id is refused with [`ProvenanceError::DuplicateRun`] —
    /// overwriting stored provenance would be a silent preservation
    /// failure (and means run-id minting is broken upstream).
    pub fn capture(
        &self,
        workflow: &Workflow,
        trace: &ExecutionTrace,
    ) -> Result<OpmGraph, ProvenanceError> {
        let runs = [(workflow, trace)];
        let mut results = self.capture_many(&runs)?;
        results
            .pop()
            .expect("capture_many returns one result per run")
    }

    /// Capture many runs in ONE storage commit — one WAL commit frame,
    /// one fsync, regardless of batch size. Per-run failures (an illegal
    /// graph, a conflicting duplicate) are reported in the run's slot
    /// without poisoning the rest of the batch; the outer `Err` is
    /// reserved for whole-batch failures (storage errors on the shared
    /// commit), after which nothing from the batch is persisted.
    ///
    /// Duplicate semantics are identical to [`capture`](Self::capture),
    /// including duplicates *within* one batch.
    pub fn capture_batch(
        &self,
        runs: &[(Workflow, ExecutionTrace)],
    ) -> Result<Vec<Result<OpmGraph, ProvenanceError>>, ProvenanceError> {
        let refs: Vec<(&Workflow, &ExecutionTrace)> = runs.iter().map(|(w, t)| (w, t)).collect();
        self.capture_many(&refs)
    }

    pub(crate) fn capture_many(
        &self,
        runs: &[(&Workflow, &ExecutionTrace)],
    ) -> Result<Vec<Result<OpmGraph, ProvenanceError>>, ProvenanceError> {
        let started = Instant::now();
        // The duplicate check below must stay atomic with the commit:
        // hold the capture lock across both so a concurrent conflicting
        // capture is either checked after this commit (and refused) or
        // committed before this check (and refuses us).
        let _guard = self.capture_lock.lock();
        let mut session = self.store.session();
        // run id -> serialized trace staged earlier in THIS batch, so
        // intra-batch duplicates get the same verdicts as stored ones.
        let mut in_batch: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        let mut results: Vec<Result<OpmGraph, ProvenanceError>> = Vec::with_capacity(runs.len());
        // (index, graph, stored row bytes, trace steps) per freshly
        // staged run — metrics fire only after the commit succeeds.
        let mut staged: Vec<(usize, OpmGraph, usize, usize)> = Vec::new();
        for (i, (workflow, trace)) in runs.iter().enumerate() {
            match self.stage_capture(&mut session, &mut in_batch, workflow, trace) {
                Ok(Some((graph, row_bytes))) => {
                    let steps = trace.processor_outputs.len();
                    staged.push((i, graph.clone(), row_bytes, steps));
                    results.push(Ok(graph));
                }
                // Idempotent re-capture: nothing staged, graph rebuilt.
                Ok(None) => results.push(Ok(opm_export::export(workflow, trace))),
                Err(e) => results.push(Err(e)),
            }
        }
        if !session.is_empty() {
            session.commit()?;
        }
        for (_, graph, row_bytes, steps) in &staged {
            self.metrics.captures.inc();
            self.metrics.graph_nodes.observe(graph.node_count() as f64);
            self.metrics.graph_bytes.observe(*row_bytes as f64);
            self.metrics.trace_steps.observe(*steps as f64);
        }
        if !staged.is_empty() {
            self.metrics
                .capture_seconds
                .observe_duration(started.elapsed());
        }
        Ok(results)
    }

    /// Stage one run's graph + trace (+ template skeleton when the graph
    /// splits losslessly) into `session`. Returns `Ok(Some((graph,
    /// stored_row_bytes)))` when freshly staged, `Ok(None)` for an
    /// idempotent re-capture, `Err` for this run's own failure.
    fn stage_capture(
        &self,
        session: &mut WriteSession<'_>,
        in_batch: &mut std::collections::HashMap<String, String>,
        workflow: &Workflow,
        trace: &ExecutionTrace,
    ) -> Result<Option<(OpmGraph, usize)>, ProvenanceError> {
        let run_id = trace.run_id.clone();
        // Serialize up front: a codec failure surfaces as Codec here and
        // can never be mistaken for (or mask) a duplicate-run verdict.
        let trace_json = encode_json(TRACES_TABLE, &run_id, trace)?;
        let existing_json = match in_batch.get(&run_id) {
            Some(j) => Some(j.clone()),
            None => match self.traces.get(self.store.head(), &run_id)? {
                Some(existing) => Some(encode_json(TRACES_TABLE, &run_id, &existing)?),
                None => None,
            },
        };
        if let Some(existing_json) = existing_json {
            if existing_json != trace_json {
                self.metrics.duplicate_runs.inc();
                self.obs.trace(
                    "provenance",
                    format!("refused duplicate capture of run {run_id} (different trace)"),
                );
                return Err(ProvenanceError::DuplicateRun(run_id));
            }
            // Identical re-capture (e.g. a retried sink call): keep the
            // stored row, just rebuild and return the graph.
            return Ok(None);
        }
        let graph = opm_export::export(workflow, trace);
        let report = opm_validate::validate(&graph);
        if !report.is_legal() {
            return Err(ProvenanceError::IllegalGraph(
                report
                    .errors
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            ));
        }
        // Structural sharing: store the skeleton once per content hash,
        // the per-run residue as a compact envelope. Graphs that do not
        // split losslessly fall back to the raw materialized format.
        let row = match opm_template::extract(&graph, &run_id) {
            Some(ex) => {
                // Read through the session so a skeleton staged earlier
                // in this batch counts as present.
                if session.get(TEMPLATES_TABLE, ex.hash.as_bytes())?.is_none() {
                    let skeleton = opm_ser::to_json(&ex.skeleton);
                    session.put(TEMPLATES_TABLE, ex.hash.as_bytes(), skeleton.as_bytes())?;
                    self.metrics.template_stores.inc();
                } else {
                    self.metrics.template_hits.inc();
                }
                encode_json(
                    PROVENANCE_TABLE,
                    &run_id,
                    &TemplatedRow {
                        fmt: TEMPLATED_FMT.to_string(),
                        template: ex.hash,
                        bindings: ex.bindings,
                    },
                )?
            }
            None => opm_ser::to_json(&graph),
        };
        session.put(PROVENANCE_TABLE, run_id.as_bytes(), row.as_bytes())?;
        self.traces.stage(session, trace)?;
        in_batch.insert(run_id, trace_json);
        Ok(Some((graph, row.len())))
    }

    /// Validate a trace-less OPM graph and stage it into a caller-owned
    /// session under `run_id`, so a derived graph (e.g. a
    /// delta-reassessment run whose cause is a journal slice) commits
    /// atomically with the data mutations it describes. Re-staging an
    /// identical graph under the same id is an idempotent no-op; a
    /// *different* graph under an existing id is refused with
    /// [`ProvenanceError::DuplicateRun`], same as [`capture`](Self::capture).
    pub fn stage_graph(
        &self,
        session: &mut WriteSession<'_>,
        run_id: &str,
        graph: &OpmGraph,
    ) -> Result<(), ProvenanceError> {
        let report = opm_validate::validate(graph);
        if !report.is_legal() {
            return Err(ProvenanceError::IllegalGraph(
                report
                    .errors
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            ));
        }
        let serialized = opm_ser::to_json(graph);
        if let Some(existing) = self.store.head().get(PROVENANCE_TABLE, run_id.as_bytes())? {
            // Compare decoded graphs, not stored bytes: an identical
            // graph is idempotent no matter which storage format (raw or
            // templated) the existing row uses.
            if self.decode_graph_row(run_id, existing)? != *graph {
                self.metrics.duplicate_runs.inc();
                self.obs.trace(
                    "provenance",
                    format!("refused duplicate capture of run {run_id} (different graph)"),
                );
                return Err(ProvenanceError::DuplicateRun(run_id.to_string()));
            }
            return Ok(());
        }
        session.put(PROVENANCE_TABLE, run_id.as_bytes(), serialized.as_bytes())?;
        self.metrics.graph_nodes.observe(graph.node_count() as f64);
        self.metrics.graph_bytes.observe(serialized.len() as f64);
        Ok(())
    }

    /// Decode a stored graph row: a [`TemplatedRow`] envelope rehydrates
    /// through its skeleton; anything else is parsed as raw OPM-JSON
    /// (the pre-template format, still written by
    /// [`stage_graph`](Self::stage_graph) and the extraction fallback).
    fn decode_graph_row(&self, run_id: &str, bytes: Vec<u8>) -> Result<OpmGraph, ProvenanceError> {
        let s =
            String::from_utf8(bytes).map_err(|e| CodecError::new(PROVENANCE_TABLE, run_id, e))?;
        if let Ok(row) = serde_json::from_str::<TemplatedRow>(&s) {
            if row.fmt == TEMPLATED_FMT {
                let tpl = self
                    .store
                    .head()
                    .get(TEMPLATES_TABLE, row.template.as_bytes())?
                    .ok_or_else(|| {
                        ProvenanceError::Codec(CodecError::new(
                            TEMPLATES_TABLE,
                            run_id,
                            format!("missing template skeleton {}", row.template),
                        ))
                    })?;
                let tpl = String::from_utf8(tpl)
                    .map_err(|e| CodecError::new(TEMPLATES_TABLE, run_id, e))?;
                let skeleton = opm_ser::from_json(&tpl)
                    .map_err(|e| CodecError::new(TEMPLATES_TABLE, run_id, e))?;
                return Ok(opm_template::rehydrate(&skeleton, &row.bindings));
            }
        }
        opm_ser::from_json(&s).map_err(|e| CodecError::new(PROVENANCE_TABLE, run_id, e).into())
    }

    /// Load a stored OPM graph, transparently rehydrating template rows.
    pub fn load_graph(&self, run_id: &str) -> Result<OpmGraph, ProvenanceError> {
        let bytes = self
            .store
            .head()
            .get(PROVENANCE_TABLE, run_id.as_bytes())?
            .ok_or_else(|| ProvenanceError::UnknownRun(run_id.to_string()))?;
        self.decode_graph_row(run_id, bytes)
    }

    /// Load a stored trace.
    pub fn load_trace(&self, run_id: &str) -> Result<ExecutionTrace, ProvenanceError> {
        self.traces
            .get(self.store.head(), run_id)?
            .ok_or_else(|| ProvenanceError::UnknownRun(run_id.to_string()))
    }

    /// Run ids present in the repository, in order. Key-only: listing a
    /// million runs materializes no graph bytes (the `value_bytes_read`
    /// family stays untouched, which the regression test pins).
    pub fn run_ids(&self) -> Result<Vec<String>, ProvenanceError> {
        Ok(self
            .store
            .head()
            .scan_keys(PROVENANCE_TABLE)?
            .into_iter()
            .filter_map(|k| String::from_utf8(k).ok())
            .collect())
    }
}

/// The manager is the architecture's provenance sink: every top-level
/// run the WFMS engine finishes is captured into the repository.
impl ProvenanceSink for ProvenanceManager {
    fn record(&self, workflow: &Workflow, trace: &ExecutionTrace) -> Result<(), SinkError> {
        self.capture(workflow, trace)
            .map(|_| ())
            .map_err(SinkError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::Processor;
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};
    use serde_json::json;

    fn store(name: &str) -> Arc<TableStore> {
        let dir =
            std::env::temp_dir().join(format!("preserva-provmgr-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        )
    }

    fn run_one() -> (Workflow, ExecutionTrace) {
        let mut r = ServiceRegistry::new();
        r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let w = Workflow::new("w", "identity")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("p", "id", &["in"], &["out"]))
            .link_input("x", "p", "in")
            .link_output("p", "out", "y");
        let e = WfEngine::new(r, EngineConfig::default());
        let t = e.run(&w, &port("x", json!(1))).unwrap();
        (w, t)
    }

    #[test]
    fn capture_then_load_roundtrip() {
        let s = store("roundtrip");
        let pm = ProvenanceManager::new(s);
        let (w, t) = run_one();
        let g = pm.capture(&w, &t).unwrap();
        let loaded = pm.load_graph(&t.run_id).unwrap();
        assert_eq!(g, loaded);
        let trace = pm.load_trace(&t.run_id).unwrap();
        assert_eq!(trace.run_id, t.run_id);
        assert_eq!(pm.run_ids().unwrap(), vec![t.run_id.clone()]);
    }

    #[test]
    fn capture_is_one_commit_with_no_orphans() {
        let s = store("atomic");
        let before = s.engine().stats().commits;
        let pm = ProvenanceManager::new(s.clone());
        let (w, t) = run_one();
        pm.capture(&w, &t).unwrap();
        assert_eq!(
            s.engine().stats().commits,
            before + 1,
            "graph + trace must land in a single storage commit"
        );
        // Both tables hold exactly the same run ids — no graph without its
        // trace, no trace without its graph.
        let graphs: Vec<Vec<u8>> = s
            .head()
            .scan(PROVENANCE_TABLE)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let traces: Vec<Vec<u8>> = s
            .head()
            .scan(TRACES_TABLE)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(graphs, traces);
        assert_eq!(graphs, vec![t.run_id.into_bytes()]);
    }

    #[test]
    fn manager_acts_as_the_engine_sink() {
        use preserva_wfms::sink::ProvenanceSink;
        let s = store("sink");
        let pm = Arc::new(ProvenanceManager::new(s));
        let (w, t) = run_one();
        pm.record(&w, &t).unwrap();
        assert_eq!(pm.run_ids().unwrap(), vec![t.run_id.clone()]);
        assert!(pm.load_trace(&t.run_id).is_ok());
    }

    #[test]
    fn identical_recapture_is_idempotent() {
        let pm = ProvenanceManager::new(store("idempotent"));
        let (w, t) = run_one();
        let g1 = pm.capture(&w, &t).unwrap();
        let g2 = pm.capture(&w, &t).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(pm.run_ids().unwrap().len(), 1);
    }

    #[test]
    fn different_trace_under_same_run_id_is_refused() {
        let pm = ProvenanceManager::new(store("duplicate"));
        let (w, t) = run_one();
        pm.capture(&w, &t).unwrap();
        // A second run forced onto the first run's id must be rejected,
        // and the stored trace must be untouched.
        let (_, mut t2) = run_one();
        t2.run_id = t.run_id.clone();
        assert!(matches!(
            pm.capture(&w, &t2),
            Err(ProvenanceError::DuplicateRun(id)) if id == t.run_id
        ));
        let stored = pm.load_trace(&t.run_id).unwrap();
        assert_eq!(stored.elapsed, t.elapsed, "original trace preserved");
    }

    /// Regression: two engines sharing one repository used to both mint
    /// `run-000001`, the second silently overwriting the first run's
    /// provenance. Run ids are now globally unique, so both captures land.
    #[test]
    fn two_engines_sharing_one_repository_never_collide() {
        let pm = Arc::new(ProvenanceManager::new(store("two-engines")));
        let mut r = ServiceRegistry::new();
        r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let w = Workflow::new("w", "identity")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("p", "id", &["in"], &["out"]))
            .link_input("x", "p", "in")
            .link_output("p", "out", "y");
        let e1 = WfEngine::new(r.clone(), EngineConfig::default()).with_sink(pm.clone());
        let e2 = WfEngine::new(r, EngineConfig::default()).with_sink(pm.clone());
        let t1 = e1.run(&w, &port("x", json!(1))).unwrap();
        let t2 = e2.run(&w, &port("x", json!(2))).unwrap();
        assert_ne!(t1.run_id, t2.run_id, "first runs of two engines collided");
        let ids = pm.run_ids().unwrap();
        assert_eq!(ids.len(), 2, "both runs captured, nothing overwritten");
        assert_eq!(
            pm.load_trace(&t1.run_id).unwrap().workflow_inputs["x"],
            json!(1)
        );
        assert_eq!(
            pm.load_trace(&t2.run_id).unwrap().workflow_inputs["x"],
            json!(2)
        );
    }

    #[test]
    fn capture_metrics_reach_a_shared_registry() {
        let obs = Arc::new(preserva_obs::Registry::new());
        let pm = ProvenanceManager::with_metrics(store("metrics"), obs.clone());
        let (w, t) = run_one();
        pm.capture(&w, &t).unwrap();
        // Idempotent re-capture is not a new capture.
        pm.capture(&w, &t).unwrap();
        // A conflicting trace is refused and counted.
        let (_, mut t2) = run_one();
        t2.run_id = t.run_id.clone();
        assert!(pm.capture(&w, &t2).is_err());

        let text = obs.render_prometheus();
        assert!(
            text.contains("preserva_provenance_captures_total 1"),
            "{text}"
        );
        assert!(text.contains("preserva_provenance_duplicate_runs_total 1"));
        assert!(text.contains("preserva_provenance_capture_seconds_count 1"));
        assert!(text.contains("preserva_provenance_graph_bytes_count 1"));
        assert!(text.contains("preserva_provenance_graph_nodes_count 1"));
        assert!(text.contains("preserva_provenance_trace_steps_count 1"));
        assert!(obs
            .trace_events()
            .iter()
            .any(|e| e.category == "provenance" && e.message.contains("duplicate")));
        assert!(Arc::ptr_eq(pm.metrics_registry(), &obs));
    }

    /// Satellite 1 regression: listing run ids must be a key-only scan.
    #[test]
    fn run_ids_reads_no_value_bytes() {
        let dir =
            std::env::temp_dir().join(format!("preserva-provmgr-{}-keyonly", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
        let s = Arc::new(TableStore::new(engine.clone()).unwrap());
        let pm = ProvenanceManager::new(s);
        let mut expect = Vec::new();
        for _ in 0..5 {
            let (w, t) = run_one();
            pm.capture(&w, &t).unwrap();
            expect.push(t.run_id);
        }
        expect.sort();
        let bytes_read = engine
            .metrics_registry()
            .counter("preserva_storage_value_bytes_read_total", "");
        let before = bytes_read.get();
        assert_eq!(pm.run_ids().unwrap(), expect);
        assert_eq!(
            bytes_read.get(),
            before,
            "run_ids must not materialize stored graph bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite 2 regression: a (de)serialization failure inside the
    /// duplicate comparison surfaces as `Codec`, never as a bogus
    /// `DuplicateRun` verdict (the old path collapsed errors into the
    /// equality bool with `unwrap_or(false)`), and never as a silent
    /// overwrite of the damaged row.
    #[test]
    fn corrupt_stored_trace_surfaces_codec_not_duplicate() {
        let s = store("codec");
        let pm = ProvenanceManager::new(s.clone());
        let (w, t) = run_one();
        // Damage the stored row so the comparison cannot decode it.
        s.put(TRACES_TABLE, t.run_id.as_bytes(), b"{not json")
            .unwrap();
        let err = pm.capture(&w, &t).unwrap_err();
        match err {
            ProvenanceError::Codec(c) => assert_eq!(c.table, TRACES_TABLE),
            other => panic!("expected Codec, got {other}"),
        }
        // The damaged row is surfaced for repair, not overwritten.
        assert_eq!(
            s.head()
                .get(TRACES_TABLE, t.run_id.as_bytes())
                .unwrap()
                .unwrap(),
            b"{not json".to_vec()
        );
    }

    /// Satellite 3 regression: two threads capturing *different* traces
    /// under one run id — exactly one wins, the loser is refused, and
    /// the stored trace is the winner's (never silently overwritten).
    #[test]
    fn concurrent_conflicting_captures_never_overwrite() {
        for round in 0..8 {
            let pm = Arc::new(ProvenanceManager::new(store(&format!("race-{round}"))));
            let (w, t1) = run_one();
            let (_, mut t2) = run_one();
            t2.run_id = t1.run_id.clone();
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let mut handles = Vec::new();
            for t in [t1.clone(), t2.clone()] {
                let pm = pm.clone();
                let w = w.clone();
                let barrier = barrier.clone();
                handles.push(std::thread::spawn(move || {
                    barrier.wait();
                    pm.capture(&w, &t)
                }));
            }
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let oks = outcomes.iter().filter(|r| r.is_ok()).count();
            let dups = outcomes
                .iter()
                .filter(|r| matches!(r, Err(ProvenanceError::DuplicateRun(_))))
                .count();
            assert_eq!((oks, dups), (1, 1), "exactly one winner, one refusal");
            // The stored trace matches whichever capture succeeded.
            let stored = pm.load_trace(&t1.run_id).unwrap();
            let winner = if outcomes[0].is_ok() { &t1 } else { &t2 };
            assert_eq!(
                serde_json::to_string(&stored).unwrap(),
                serde_json::to_string(winner).unwrap(),
                "loser must not overwrite the winner's trace"
            );
        }
    }

    #[test]
    fn capture_batch_is_one_commit_for_many_runs() {
        let s = store("batch");
        let pm = ProvenanceManager::new(s.clone());
        let runs: Vec<(Workflow, ExecutionTrace)> = (0..8).map(|_| run_one()).collect();
        let before = s.engine().stats().commits;
        let results = pm.capture_batch(&runs).unwrap();
        assert_eq!(
            s.engine().stats().commits,
            before + 1,
            "a batch of 8 runs lands in one storage commit"
        );
        assert!(results.iter().all(|r| r.is_ok()));
        for (_, t) in &runs {
            assert!(pm.load_graph(&t.run_id).is_ok());
            assert!(pm.load_trace(&t.run_id).is_ok());
        }
        // A graph never commits without its trace, batched or not.
        let graphs = s.head().scan_keys(PROVENANCE_TABLE).unwrap();
        let traces = s.head().scan_keys(TRACES_TABLE).unwrap();
        assert_eq!(graphs, traces);
    }

    #[test]
    fn capture_batch_isolates_per_run_failures() {
        let s = store("batch-mixed");
        let pm = ProvenanceManager::new(s);
        let (w, t1) = run_one();
        pm.capture(&w, &t1).unwrap();
        let (_, mut conflict) = run_one();
        conflict.run_id = t1.run_id.clone();
        let (_, fresh) = run_one();
        let results = pm
            .capture_batch(&[
                (w.clone(), conflict),
                (w.clone(), fresh.clone()),
                (w.clone(), t1.clone()),
            ])
            .unwrap();
        assert!(matches!(
            results[0],
            Err(ProvenanceError::DuplicateRun(ref id)) if *id == t1.run_id
        ));
        assert!(results[1].is_ok(), "fresh run unaffected by the conflict");
        assert!(results[2].is_ok(), "idempotent re-capture unaffected");
        assert!(pm.load_graph(&fresh.run_id).is_ok());
    }

    /// Tentpole (b): runs of the same workflow share one stored skeleton;
    /// per-run rows shrink to bindings and still rehydrate exactly.
    #[test]
    fn repeated_runs_share_a_template_and_rehydrate_exactly() {
        let obs = Arc::new(preserva_obs::Registry::new());
        let s = store("template");
        let pm = ProvenanceManager::with_metrics(s.clone(), obs.clone());
        let mut graphs = Vec::new();
        let mut runs = Vec::new();
        for _ in 0..4 {
            let (w, t) = run_one();
            graphs.push(pm.capture(&w, &t).unwrap());
            runs.push(t);
        }
        // One skeleton stored, three structural-sharing hits.
        assert_eq!(s.head().count(TEMPLATES_TABLE).unwrap(), 1);
        let text = obs.render_prometheus();
        assert!(
            text.contains("preserva_prov_template_stores_total 1"),
            "{text}"
        );
        assert!(
            text.contains("preserva_prov_template_hits_total 3"),
            "{text}"
        );
        // Rehydration is exact.
        for (g, t) in graphs.iter().zip(&runs) {
            assert_eq!(pm.load_graph(&t.run_id).unwrap(), *g);
        }
        // The per-run row is measurably smaller than the materialized graph.
        let row = s
            .head()
            .get(PROVENANCE_TABLE, runs[0].run_id.as_bytes())
            .unwrap()
            .unwrap();
        let materialized = opm_ser::to_json(&graphs[0]);
        assert!(
            row.len() * 2 < materialized.len(),
            "bindings row {} bytes vs materialized {} bytes",
            row.len(),
            materialized.len()
        );
    }

    /// Raw rows written before the template format still load.
    #[test]
    fn legacy_raw_rows_still_load() {
        let s = store("legacy");
        let pm = ProvenanceManager::new(s.clone());
        let (w, t) = run_one();
        let graph = opm_export::export(&w, &t);
        // Simulate a pre-template row: raw OPM-JSON straight into the table.
        s.put(
            PROVENANCE_TABLE,
            t.run_id.as_bytes(),
            opm_ser::to_json(&graph).as_bytes(),
        )
        .unwrap();
        assert_eq!(pm.load_graph(&t.run_id).unwrap(), graph);
    }

    #[test]
    fn unknown_run_is_error() {
        let pm = ProvenanceManager::new(store("unknown"));
        assert!(matches!(
            pm.load_graph("run-xxxx"),
            Err(ProvenanceError::UnknownRun(_))
        ));
        assert!(matches!(
            pm.load_trace("run-xxxx"),
            Err(ProvenanceError::UnknownRun(_))
        ));
    }

    #[test]
    fn captured_graphs_survive_reopen() {
        let dir =
            std::env::temp_dir().join(format!("preserva-provmgr-{}-persist", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run_id;
        {
            let s = Arc::new(
                TableStore::new(Arc::new(
                    Engine::open(&dir, EngineOptions::default()).unwrap(),
                ))
                .unwrap(),
            );
            let pm = ProvenanceManager::new(s);
            let (w, t) = run_one();
            pm.capture(&w, &t).unwrap();
            run_id = t.run_id;
        }
        let s = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        let pm = ProvenanceManager::new(s);
        assert!(pm.load_graph(&run_id).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
