//! The cross-run provenance index: query captured runs without loading
//! graphs.
//!
//! `provenance_graphs` is journaled, so every capture emits a
//! `row-upserted` event into the change feed. [`ProvIndex`] trails that
//! feed as a derived view ([`ProvView`], driven by the storage
//! `ViewDriver`, DESIGN.md §18): each [`refresh`](ProvIndex::refresh)
//! derives index rows for every newly captured run and commits them
//! with the advanced cursor in ONE storage batch — a crash never leaves
//! a partially-indexed run, and replaying an un-advanced cursor just
//! re-derives identical rows.
//!
//! Two index tables serve the paper's cross-run questions from
//! key-range scans alone (no graph loads, no rehydration):
//!
//! - `prov_idx_artifact`: `artifact_key ++ 0 ++ seq_be ++ run_id` →
//!   `flags ++ run_id` — "all runs that used source X after journal
//!   seq S" is one bounded range scan, already in capture order.
//! - `prov_idx_workflow`: `workflow_id ++ 0 ++ artifact_key ++ 0 ++
//!   run_id` → `seq_be` — "runs of workflow W that touched artifact A"
//!   is one prefix scan.
//!
//! Artifact keys are run-agnostic: the run id inside an exported node id
//! (`a:<run>:in:x`) is replaced with `*`, so the same logical endpoint
//! collates across runs. Journal sequence numbers stand in for LSNs in
//! "after" filters — both advance monotonically per commit, and
//! [`preserva_storage::table::CommitReceipt`] carries the mapping.

use std::collections::BTreeSet;
use std::sync::Arc;

use preserva_opm::graph::OpmGraph;
use preserva_storage::journal::ROW_UPSERTED;
use preserva_storage::table::{TableSnapshot, WriteSession};
use preserva_storage::view::{DerivedView, ViewDriver, ViewSpec};
use preserva_storage::JournalEntry;

use crate::provenance_manager::{ProvenanceError, ProvenanceManager, PROVENANCE_TABLE};

/// Table holding the index cursor, one JSON row.
pub const PROV_INDEX_META_TABLE: &str = "prov_index_meta";
/// Artifact → runs index table.
pub const PROV_IDX_ARTIFACT_TABLE: &str = "prov_idx_artifact";
/// (Workflow, artifact) → runs index table.
pub const PROV_IDX_WORKFLOW_TABLE: &str = "prov_idx_workflow";

const SEP: u8 = 0x00;
/// Flag bit: the run consumed this artifact (a `used` edge), not merely
/// produced or carried it.
const FLAG_USED: u8 = 0x01;

/// What one [`ProvIndex::refresh`] did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Cursor before the refresh.
    pub cursor_before: u64,
    /// Cursor after (journal head of the consumed slice).
    pub cursor_after: u64,
    /// Journal entries consumed (all kinds, not just captures).
    pub entries_consumed: usize,
    /// Runs newly indexed by this refresh.
    pub runs_indexed: usize,
}

/// The index tables as a [`DerivedView`] of the runs a manager captures.
/// Captured runs are immutable, so their graphs are read live.
#[derive(Debug, Clone, Copy)]
pub struct ProvView<'a>(pub &'a ProvenanceManager);

impl DerivedView for ProvView<'_> {
    /// Runs newly indexed.
    type Outcome = usize;
    type Error = ProvenanceError;
    const SPEC: ViewSpec = ViewSpec {
        name: "prov-index",
        meta_table: PROV_INDEX_META_TABLE,
        tables: &[PROV_IDX_ARTIFACT_TABLE, PROV_IDX_WORKFLOW_TABLE],
        lag: "preserva_prov_index_lag",
        run_seconds: "preserva_prov_index_refresh_seconds",
        batch_entries: None,
        runs: "preserva_prov_indexed_runs_total",
    };

    /// The state row counts indexed runs, not refreshes.
    fn runs_counted(runs_indexed: &usize) -> u64 {
        *runs_indexed as u64
    }

    /// Stage index rows for every run captured in `entries`.
    fn apply(
        &mut self,
        _snap: &TableSnapshot,
        entries: &[JournalEntry],
        session: &mut WriteSession<'_>,
    ) -> Result<usize, ProvenanceError> {
        // Newly captured runs in feed order, deduplicated on the first
        // seq (identical re-captures never re-emit, but be safe).
        let mut run_seqs: Vec<(&str, u64)> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for e in entries {
            if e.table == PROVENANCE_TABLE && e.kind == ROW_UPSERTED {
                if let Ok(run_id) = std::str::from_utf8(&e.key) {
                    if seen.insert(run_id) {
                        run_seqs.push((run_id, e.seq));
                    }
                }
            }
        }
        for &(run_id, seq) in &run_seqs {
            let graph = self.0.load_graph(run_id)?;
            // Workflow id comes from the trace; trace-less graphs (e.g.
            // reassessment runs staged without a trace) index by
            // artifact only.
            let workflow_id = match self.0.load_trace(run_id) {
                Ok(t) => Some(t.workflow_id),
                Err(ProvenanceError::UnknownRun(_)) => None,
                Err(e) => return Err(e),
            };
            let used: BTreeSet<String> = graph
                .edges_of_kind(preserva_opm::edge::EdgeKind::Used)
                .map(|e| e.cause.as_str().to_string())
                .collect();
            for artifact in graph.artifacts.keys() {
                let key = ProvIndex::artifact_key(artifact.as_str(), run_id);
                let flags: u8 = if used.contains(artifact.as_str()) {
                    FLAG_USED
                } else {
                    0
                };
                let mut idx_key = key.clone().into_bytes();
                idx_key.push(SEP);
                idx_key.extend_from_slice(&seq.to_be_bytes());
                idx_key.extend_from_slice(run_id.as_bytes());
                let mut value = vec![flags];
                value.extend_from_slice(run_id.as_bytes());
                session.put(PROV_IDX_ARTIFACT_TABLE, &idx_key, &value)?;
                if let Some(wf) = &workflow_id {
                    let mut wkey = wf.clone().into_bytes();
                    wkey.push(SEP);
                    wkey.extend_from_slice(key.as_bytes());
                    wkey.push(SEP);
                    wkey.extend_from_slice(run_id.as_bytes());
                    session.put(PROV_IDX_WORKFLOW_TABLE, &wkey, &seq.to_be_bytes())?;
                }
            }
        }
        Ok(run_seqs.len())
    }
}

/// The incremental cross-run index over a shared store + manager.
#[derive(Debug)]
pub struct ProvIndex {
    manager: Arc<ProvenanceManager>,
    driver: ViewDriver,
}

impl ProvIndex {
    /// Create over the manager's store, reporting into the manager's
    /// metrics registry.
    pub fn new(manager: Arc<ProvenanceManager>) -> Self {
        let obs = manager.metrics_registry().clone();
        ProvIndex {
            driver: ViewDriver::new::<ProvView>(manager.store().clone(), obs),
            manager,
        }
    }

    /// The index cursor: every capture journaled at or below this
    /// sequence number is fully indexed.
    pub fn cursor(&self) -> Result<u64, ProvenanceError> {
        Ok(self.driver.state()?.cursor)
    }

    /// Journal entries (all kinds) between the cursor and the head.
    pub fn lag(&self) -> Result<u64, ProvenanceError> {
        Ok(self.driver.lag()?)
    }

    /// Run-agnostic key for an exported node id: the run id is replaced
    /// with `*` so one logical endpoint collates across runs.
    pub fn artifact_key(id: &str, run_id: &str) -> String {
        if run_id.is_empty() {
            id.to_string()
        } else {
            id.replace(run_id, "*")
        }
    }

    /// Consume the journal since the cursor and index every newly
    /// captured run. Index rows and the advanced cursor commit as ONE
    /// storage batch.
    pub fn refresh(&self) -> Result<RefreshOutcome, ProvenanceError> {
        let run = self.driver.run(&mut ProvView(&self.manager), None, None)?;
        Ok(RefreshOutcome {
            cursor_before: run.cursor_before,
            cursor_after: run.cursor_after,
            entries_consumed: run.entries_consumed,
            runs_indexed: run.outcome.unwrap_or(0),
        })
    }

    /// Range bounds covering `artifact_key`'s slice with journal seq
    /// strictly greater than `after_seq`.
    fn artifact_bounds(artifact_key: &str, after_seq: u64) -> (Vec<u8>, Vec<u8>) {
        let mut start = artifact_key.as_bytes().to_vec();
        start.push(SEP);
        start.extend_from_slice(&(after_seq.saturating_add(1)).to_be_bytes());
        let mut end = artifact_key.as_bytes().to_vec();
        end.push(SEP + 1);
        (start, end)
    }

    /// Runs that *used* (consumed) `artifact_key`, captured after journal
    /// seq `after_seq` (0 = since forever), in capture order. Index-only:
    /// one bounded range scan, no graph loads.
    pub fn runs_using_artifact(
        &self,
        artifact_key: &str,
        after_seq: u64,
    ) -> Result<Vec<String>, ProvenanceError> {
        self.scan_artifact(artifact_key, after_seq, true)
    }

    /// Runs that touched (used or produced) `artifact_key` after
    /// `after_seq`, in capture order.
    pub fn runs_touching_artifact(
        &self,
        artifact_key: &str,
        after_seq: u64,
    ) -> Result<Vec<String>, ProvenanceError> {
        self.scan_artifact(artifact_key, after_seq, false)
    }

    fn scan_artifact(
        &self,
        artifact_key: &str,
        after_seq: u64,
        used_only: bool,
    ) -> Result<Vec<String>, ProvenanceError> {
        let (start, end) = Self::artifact_bounds(artifact_key, after_seq);
        let rows = self
            .manager
            .store()
            .scan_range(PROV_IDX_ARTIFACT_TABLE, &start, Some(&end))?;
        let mut out = Vec::new();
        for (_, value) in rows {
            if value.is_empty() {
                continue;
            }
            if used_only && value[0] & FLAG_USED == 0 {
                continue;
            }
            if let Ok(run) = String::from_utf8(value[1..].to_vec()) {
                out.push(run);
            }
        }
        Ok(out)
    }

    /// Runs of workflow `workflow_id` that touched `artifact_key`, in
    /// run-id order. One prefix scan on the workflow index.
    pub fn runs_of_workflow_touching(
        &self,
        workflow_id: &str,
        artifact_key: &str,
    ) -> Result<Vec<String>, ProvenanceError> {
        let mut prefix = workflow_id.as_bytes().to_vec();
        prefix.push(SEP);
        prefix.extend_from_slice(artifact_key.as_bytes());
        prefix.push(SEP);
        let mut end = prefix.clone();
        *end.last_mut().expect("non-empty") = SEP + 1;
        let rows = self
            .manager
            .store()
            .scan_range(PROV_IDX_WORKFLOW_TABLE, &prefix, Some(&end))?;
        Ok(rows
            .into_iter()
            .filter_map(|(k, _)| String::from_utf8(k[prefix.len()..].to_vec()).ok())
            .collect())
    }

    /// Distinct runs of workflow `workflow_id`, in run-id order.
    pub fn runs_of_workflow(&self, workflow_id: &str) -> Result<Vec<String>, ProvenanceError> {
        let mut prefix = workflow_id.as_bytes().to_vec();
        prefix.push(SEP);
        let mut end = workflow_id.as_bytes().to_vec();
        end.push(SEP + 1);
        let rows = self
            .manager
            .store()
            .scan_range(PROV_IDX_WORKFLOW_TABLE, &prefix, Some(&end))?;
        let mut runs: BTreeSet<String> = BTreeSet::new();
        for (k, _) in rows {
            // key = workflow ++ 0 ++ artifact_key ++ 0 ++ run_id
            if let Some(pos) = k[prefix.len()..].iter().rposition(|b| *b == SEP) {
                if let Ok(run) = String::from_utf8(k[prefix.len() + pos + 1..].to_vec()) {
                    runs.insert(run);
                }
            }
        }
        Ok(runs.into_iter().collect())
    }

    /// Brute-force reference answer for
    /// [`runs_using_artifact`](Self::runs_using_artifact) at `after_seq
    /// == 0`: load and walk every stored graph. Exists so benches and
    /// tests can demonstrate the index agrees with (and outruns) the
    /// graph-by-graph scan.
    pub fn scan_runs_using_artifact(
        &self,
        artifact_key: &str,
    ) -> Result<Vec<String>, ProvenanceError> {
        let mut out = Vec::new();
        for run_id in self.manager.run_ids()? {
            let graph: OpmGraph = self.manager.load_graph(&run_id)?;
            let hit = graph
                .edges_of_kind(preserva_opm::edge::EdgeKind::Used)
                .any(|e| Self::artifact_key(e.cause.as_str(), &run_id) == artifact_key);
            if hit {
                out.push(run_id);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_storage::table::TableStore;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::{Processor, Workflow};
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};
    use preserva_wfms::trace::ExecutionTrace;
    use serde_json::json;

    fn manager(name: &str) -> Arc<ProvenanceManager> {
        let dir =
            std::env::temp_dir().join(format!("preserva-pidx-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        )));
        Arc::new(ProvenanceManager::new(store))
    }

    fn workflow(id: &str) -> (ServiceRegistry, Workflow) {
        let mut r = ServiceRegistry::new();
        r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let w = Workflow::new(id, "identity")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("p", "id", &["in"], &["out"]))
            .link_input("x", "p", "in")
            .link_output("p", "out", "y");
        (r, w)
    }

    fn run_of(id: &str, input: i64) -> (Workflow, ExecutionTrace) {
        let (r, w) = workflow(id);
        let e = WfEngine::new(r, EngineConfig::default());
        let t = e.run(&w, &port("x", json!(input))).unwrap();
        (w, t)
    }

    #[test]
    fn indexed_queries_agree_with_graph_scans() {
        let pm = manager("agree");
        let idx = ProvIndex::new(pm.clone());
        let mut wa_runs = Vec::new();
        for i in 0..5 {
            let (w, t) = run_of("wa", i);
            pm.capture(&w, &t).unwrap();
            wa_runs.push(t.run_id);
        }
        let (w, t) = run_of("wb", 99);
        pm.capture(&w, &t).unwrap();
        let wb_run = t.run_id;

        let out = idx.refresh().unwrap();
        assert_eq!(out.runs_indexed, 6);

        // The shared input endpoint of every run: a:<run>:in:x -> a:*:in:x.
        let key = "a:*:in:x";
        let mut indexed = idx.runs_using_artifact(key, 0).unwrap();
        let mut scanned = idx.scan_runs_using_artifact(key).unwrap();
        indexed.sort();
        scanned.sort();
        assert_eq!(indexed, scanned);
        assert_eq!(indexed.len(), 6);

        // Per-workflow restriction.
        let mut of_wa = idx.runs_of_workflow_touching("wa", key).unwrap();
        of_wa.sort();
        let mut expect = wa_runs.clone();
        expect.sort();
        assert_eq!(of_wa, expect);
        assert_eq!(idx.runs_of_workflow("wb").unwrap(), vec![wb_run]);

        // Processor-output artifacts are touched but not used.
        let out_key = "a:*:p.out";
        assert!(idx.runs_using_artifact(out_key, 0).unwrap().is_empty());
        assert_eq!(idx.runs_touching_artifact(out_key, 0).unwrap().len(), 6);
    }

    #[test]
    fn after_seq_filters_older_captures() {
        let pm = manager("after");
        let idx = ProvIndex::new(pm.clone());
        let (w, t1) = run_of("wa", 1);
        pm.capture(&w, &t1).unwrap();
        idx.refresh().unwrap();
        let boundary = idx.cursor().unwrap();
        let (w2, t2) = run_of("wa", 2);
        pm.capture(&w2, &t2).unwrap();
        idx.refresh().unwrap();
        let recent = idx.runs_using_artifact("a:*:in:x", boundary).unwrap();
        assert_eq!(recent, vec![t2.run_id.clone()]);
        let all = idx.runs_using_artifact("a:*:in:x", 0).unwrap();
        assert_eq!(all, vec![t1.run_id, t2.run_id], "capture order preserved");
    }

    #[test]
    fn refresh_is_incremental_and_idempotent() {
        let pm = manager("incremental");
        let idx = ProvIndex::new(pm.clone());
        let (w, t) = run_of("wa", 1);
        pm.capture(&w, &t).unwrap();
        let first = idx.refresh().unwrap();
        assert_eq!(first.runs_indexed, 1);
        let second = idx.refresh().unwrap();
        assert_eq!(second.runs_indexed, 0);
        assert_eq!(second.entries_consumed, 0, "cursor fully advanced");
        assert_eq!(idx.lag().unwrap(), 0);
        let text = pm.metrics_registry().render_prometheus();
        assert!(text.contains("preserva_prov_index_lag"), "{text}");
        assert!(
            text.contains("preserva_prov_indexed_runs_total 1"),
            "{text}"
        );
    }

    #[test]
    fn index_survives_reopen_with_cursor() {
        let dir = std::env::temp_dir().join(format!("preserva-pidx-{}-reopen", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run_id;
        {
            let store = Arc::new(TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            )));
            let pm = Arc::new(ProvenanceManager::new(store));
            let idx = ProvIndex::new(pm.clone());
            let (w, t) = run_of("wa", 1);
            pm.capture(&w, &t).unwrap();
            idx.refresh().unwrap();
            run_id = t.run_id;
        }
        let store = Arc::new(TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        )));
        let pm = Arc::new(ProvenanceManager::new(store));
        let idx = ProvIndex::new(pm);
        assert_eq!(
            idx.runs_using_artifact("a:*:in:x", 0).unwrap(),
            vec![run_id]
        );
        assert_eq!(idx.refresh().unwrap().runs_indexed, 0, "cursor persisted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
