//! The `Collection` facade: one handle over a preserved collection.
//!
//! Before this module, every CLI command hand-wired
//! `Engine::open` → `TableStore` → catalog/provenance/reassessor/quality
//! with subtly different `EngineOptions` and metrics plumbing each time —
//! drift that showed up as `stats` and `metrics` disagreeing about how
//! the very same directory had been opened. A `Collection` owns the
//! whole subsystem graph, opened once from a single [`CollectionOptions`]
//! whose [`CollectionOptions::fingerprint`] makes the wiring auditable,
//! and gives it an explicit lifecycle:
//!
//! * [`Collection::open`] builds engine, table store, record catalog,
//!   provenance manager + cross-run index, reassessor, quality manager,
//!   and capture batcher against ONE obs registry.
//! * [`Collection::publish_workflow`] and [`Collection::workflow`] are
//!   the workflow repository: versioned Listing-1 specs on the same
//!   store as the data and provenance repositories.
//! * [`Collection::maintain`] is the background hook: flush pending
//!   group-commits, advance the provenance index, fold storage levels
//!   that grew past their bound.
//! * [`Collection::close`] flushes the [`CaptureBatcher`] and verifies
//!   no snapshot is still pinned — a leaked pin would silently floor the
//!   compaction fold horizon forever.
//!
//! Dropping a collection without closing it is tolerated (one-shot CLI
//! commands rely on it) but debug-asserts the same pin invariant, so a
//! test that leaks a `TableSnapshot` fails loudly instead of shipping a
//! server that can never fold.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use preserva_obs::Registry;
use preserva_search::{Indexer, SearchConfig};
use preserva_storage::{CompactionOptions, Engine, EngineOptions, StorageError, TableStore};
use preserva_wfms::model::Workflow;
use preserva_wfms::sink::SinkError;
use preserva_wfms::spec::{self, SpecError};

use crate::capture_batcher::{BatcherOptions, CaptureBatcher};
use crate::prov_index::{ProvIndex, RefreshOutcome};
use crate::provenance_manager::{ProvenanceError, ProvenanceManager};
use crate::quality_manager::DataQualityManager;
use crate::reassess::{ReassessError, Reassessor};
use crate::retrieval::RecordCatalog;

/// Default table the record catalog lives on.
pub const RECORDS_TABLE: &str = "records";
/// Table storing published workflow specs (Listing-1 XML), keyed by
/// `id@version`.
pub const WORKFLOWS_TABLE: &str = "workflows";
/// Table storing the latest published version per workflow id — written
/// in the same commit as the spec itself, so a reader never sees a
/// pointer without its spec (or the reverse).
pub const WORKFLOW_VERSIONS_TABLE: &str = "workflow_versions";

/// Everything that shapes how a collection opens. One value, one
/// fingerprint — commands that open the same directory with different
/// options are a bug this struct exists to expose.
#[derive(Clone)]
pub struct CollectionOptions {
    /// Fsync the WAL on commit.
    pub fsync: bool,
    /// Estimated memtable bytes before a checkpoint flush (see
    /// `EngineOptions::checkpoint_bytes`).
    pub checkpoint_bytes: usize,
    /// Level-fold policy for the LSM tiers.
    pub compaction: CompactionOptions,
    /// Group-commit knobs for provenance capture.
    pub batcher: BatcherOptions,
    /// Table the record catalog indexes.
    pub records_table: String,
    /// Tokenizer fields, n-gram width and name field for the search
    /// layer.
    pub search: SearchConfig,
    /// Registry every subsystem reports into. `None` gives the
    /// collection a private registry (how the server isolates tenants);
    /// the CLI passes the process-global one.
    pub metrics: Option<Arc<Registry>>,
}

impl Default for CollectionOptions {
    fn default() -> Self {
        let engine = EngineOptions::default();
        CollectionOptions {
            fsync: engine.fsync,
            checkpoint_bytes: engine.checkpoint_bytes,
            compaction: engine.compaction,
            batcher: BatcherOptions::default(),
            records_table: RECORDS_TABLE.to_string(),
            search: SearchConfig::default(),
            metrics: None,
        }
    }
}

impl CollectionOptions {
    /// The engine-level slice of these options. Metrics are supplied by
    /// [`Collection::open`] so engine and managers share one registry.
    fn engine_options(&self, metrics: Arc<Registry>) -> EngineOptions {
        EngineOptions {
            fsync: self.fsync,
            checkpoint_bytes: self.checkpoint_bytes,
            metrics: Some(metrics),
            compaction: self.compaction.clone(),
        }
    }

    /// A stable, human-readable digest of every knob that affects how
    /// the engine treats the directory. Two commands that print
    /// different fingerprints for one store have drifted.
    pub fn fingerprint(&self) -> String {
        format!(
            "fsync={} checkpoint_bytes={} compaction.background={} \
             compaction.max_runs_per_level={} records_table={} \
             search.gram={} search.fields={}",
            self.fsync,
            self.checkpoint_bytes,
            self.compaction.background,
            self.compaction.max_runs_per_level,
            self.records_table,
            self.search.gram,
            self.search.fields.join(","),
        )
    }
}

/// Anything the lifecycle can trip over.
#[derive(Debug)]
pub enum CollectionError {
    /// Engine, table store, catalog or search index failure, including
    /// a stored row that would not encode or decode.
    Storage(StorageError),
    /// Reassessor failure.
    Reassess(ReassessError),
    /// Provenance index failure.
    Provenance(ProvenanceError),
    /// Capture batcher flush failure.
    Sink(SinkError),
    /// A stored workflow spec failed to parse.
    Spec(SpecError),
    /// `close()` found snapshots still pinned; the collection refuses
    /// to report a clean shutdown while the fold horizon is floored.
    PinnedSnapshots(usize),
    /// Operation on a collection already closed.
    Closed,
}

impl fmt::Display for CollectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionError::Storage(e) => write!(f, "storage: {e}"),
            CollectionError::Reassess(e) => write!(f, "reassess: {e}"),
            CollectionError::Provenance(e) => write!(f, "provenance: {e}"),
            CollectionError::Sink(e) => write!(f, "capture flush: {e}"),
            CollectionError::Spec(e) => write!(f, "workflow spec: {e}"),
            CollectionError::PinnedSnapshots(n) => {
                write!(f, "close with {n} snapshot(s) still pinned")
            }
            CollectionError::Closed => write!(f, "collection already closed"),
        }
    }
}

impl std::error::Error for CollectionError {}

impl From<StorageError> for CollectionError {
    fn from(e: StorageError) -> Self {
        CollectionError::Storage(e)
    }
}
impl From<ReassessError> for CollectionError {
    fn from(e: ReassessError) -> Self {
        CollectionError::Reassess(e)
    }
}
impl From<ProvenanceError> for CollectionError {
    fn from(e: ProvenanceError) -> Self {
        CollectionError::Provenance(e)
    }
}
impl From<SinkError> for CollectionError {
    fn from(e: SinkError) -> Self {
        CollectionError::Sink(e)
    }
}

/// What one [`Collection::maintain`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Provenance-index refresh: journal entries consumed.
    pub index_entries_consumed: usize,
    /// Provenance-index refresh: runs newly indexed.
    pub runs_indexed: usize,
    /// Search-index run: journal entries consumed.
    pub search_entries_consumed: usize,
    /// Search-index run: records (re)indexed or removed.
    pub search_docs_updated: usize,
    /// Whether a storage compaction folded anything.
    pub compacted: bool,
}

/// One open preserved collection: the engine and every manager built on
/// it, sharing a directory, a registry, and a lifecycle.
pub struct Collection {
    dir: PathBuf,
    options: CollectionOptions,
    obs: Arc<Registry>,
    store: Arc<TableStore>,
    catalog: RecordCatalog,
    provenance: Arc<ProvenanceManager>,
    prov_index: ProvIndex,
    reassessor: Reassessor,
    search: Indexer,
    quality: Mutex<DataQualityManager>,
    batcher: Arc<CaptureBatcher>,
    /// Held from reading a workflow's version pointer to committing the
    /// next version, so two publishers never take the same number.
    publish: Mutex<()>,
    closed: AtomicBool,
}

impl fmt::Debug for Collection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collection")
            .field("dir", &self.dir)
            .field("fingerprint", &self.options.fingerprint())
            .field("closed", &self.closed.load(Ordering::SeqCst))
            .finish()
    }
}

impl Collection {
    /// Open (or create) the collection at `dir`, building the full
    /// subsystem graph against one shared registry.
    pub fn open(dir: &Path, options: CollectionOptions) -> Result<Collection, CollectionError> {
        let obs = options
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let engine = Engine::open(dir, options.engine_options(obs.clone()))?;
        let store = Arc::new(TableStore::new(Arc::new(engine))?);
        let catalog = RecordCatalog::open_on(store.clone(), &options.records_table)?;
        let provenance = Arc::new(ProvenanceManager::with_metrics(store.clone(), obs.clone()));
        let prov_index = ProvIndex::new(provenance.clone());
        let reassessor =
            Reassessor::with_metrics(store.clone(), &options.records_table, obs.clone())?;
        let search = Indexer::with_metrics(
            store.clone(),
            &options.records_table,
            options.search.clone(),
            obs.clone(),
        );
        let quality =
            DataQualityManager::new(store.clone(), provenance.clone()).with_metrics(obs.clone());
        let batcher = Arc::new(CaptureBatcher::with_options(
            provenance.clone(),
            options.batcher.clone(),
        ));
        // Info-style gauge: the fingerprint rides the exposition, so a
        // scrape (or the `metrics` command) can be compared against what
        // `stats` prints for the same directory.
        let fingerprint = options.fingerprint();
        obs.gauge_with(
            "preserva_collection_options_info",
            "Constant 1, labeled with the collection's option fingerprint.",
            &[("fingerprint", fingerprint.as_str())],
        )
        .set(1);
        Ok(Collection {
            dir: dir.to_path_buf(),
            options,
            obs,
            store,
            catalog,
            provenance,
            prov_index,
            reassessor,
            search,
            quality: Mutex::new(quality),
            batcher,
            publish: Mutex::new(()),
            closed: AtomicBool::new(false),
        })
    }

    /// Directory the collection lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this collection was opened with.
    pub fn options(&self) -> &CollectionOptions {
        &self.options
    }

    /// The registry every subsystem reports into.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The journaled table store (and, through it, the engine).
    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    /// The storage engine itself.
    pub fn engine(&self) -> &Arc<Engine> {
        self.store.engine()
    }

    /// The record catalog over [`CollectionOptions::records_table`].
    pub fn catalog(&self) -> &RecordCatalog {
        &self.catalog
    }

    /// The provenance manager (capture + queries).
    pub fn provenance(&self) -> &Arc<ProvenanceManager> {
        &self.provenance
    }

    /// The cross-run provenance index trailing the journal.
    pub fn prov_index(&self) -> &ProvIndex {
        &self.prov_index
    }

    /// The incremental reassessor.
    pub fn reassessor(&self) -> &Reassessor {
        &self.reassessor
    }

    /// The journal-fed search indexer (inverted index + n-gram fuzzy
    /// candidates + facet counters). `maintain()` drives it; read
    /// through `search().reader()` against a pinned snapshot.
    pub fn search(&self) -> &Indexer {
        &self.search
    }

    /// The quality manager. Guarded: model/source registration mutates.
    pub fn quality(&self) -> std::sync::MutexGuard<'_, DataQualityManager> {
        self.quality.lock().expect("quality manager poisoned")
    }

    /// The group-commit capture batcher bound to this collection's
    /// provenance manager.
    pub fn batcher(&self) -> &Arc<CaptureBatcher> {
        &self.batcher
    }

    /// Publish `workflow` to the workflow repository: its Listing-1 XML
    /// under `id@version` and the latest-version pointer, in one commit.
    /// The version is one past the persisted pointer, so numbering
    /// carries on across reopens.
    pub fn publish_workflow(&self, workflow: &Workflow) -> Result<u32, CollectionError> {
        let _publishing = self.publish.lock().expect("publish lock poisoned");
        let version = self.workflow_version(&workflow.id)?.unwrap_or(0) + 1;
        let mut session = self.store.session();
        session.put(
            WORKFLOWS_TABLE,
            format!("{}@{version}", workflow.id).as_bytes(),
            spec::to_xml(workflow).as_bytes(),
        )?;
        session.put(
            WORKFLOW_VERSIONS_TABLE,
            workflow.id.as_bytes(),
            version.to_string().as_bytes(),
        )?;
        session.commit()?;
        Ok(version)
    }

    /// The latest published version of workflow `id`, parsed back from
    /// its stored XML; `None` if it was never published.
    pub fn workflow(&self, id: &str) -> Result<Option<Workflow>, CollectionError> {
        let Some(version) = self.workflow_version(id)? else {
            return Ok(None);
        };
        let key = format!("{id}@{version}");
        let xml = self
            .store
            .head()
            .get(WORKFLOWS_TABLE, key.as_bytes())?
            .and_then(|raw| String::from_utf8(raw).ok())
            .ok_or_else(|| {
                StorageError::Decode(format!("workflow spec {key} missing or not UTF-8"))
            })?;
        Ok(Some(spec::from_xml(&xml).map_err(CollectionError::Spec)?))
    }

    /// The persisted latest-version pointer of workflow `id`.
    fn workflow_version(&self, id: &str) -> Result<Option<u32>, CollectionError> {
        let Some(raw) = self
            .store
            .head()
            .get(WORKFLOW_VERSIONS_TABLE, id.as_bytes())?
        else {
            return Ok(None);
        };
        let version = std::str::from_utf8(&raw)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| StorageError::Decode(format!("workflow {id:?}: bad version pointer")))?;
        Ok(Some(version))
    }

    /// Current change-journal head seq.
    pub fn journal_head(&self) -> u64 {
        self.store.journal_head()
    }

    /// Snapshots currently pinned against the engine.
    pub fn snapshots_pinned(&self) -> usize {
        self.store.engine().snapshots_pinned()
    }

    /// Background maintenance: flush pending capture group-commits,
    /// advance the cross-run provenance index, and fold storage levels
    /// that outgrew the configured bound. Safe to call from a ticker
    /// thread while readers and writers proceed.
    pub fn maintain(&self) -> Result<MaintenanceReport, CollectionError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(CollectionError::Closed);
        }
        self.batcher.force_flush()?;
        let refresh: RefreshOutcome = self.prov_index.refresh()?;
        let search = self.search.run()?;
        let over_bound = self
            .engine()
            .runs_per_level()
            .iter()
            .any(|&(_, runs)| runs > self.options.compaction.max_runs_per_level);
        let compacted = if over_bound {
            self.engine().compact()?
        } else {
            false
        };
        Ok(MaintenanceReport {
            index_entries_consumed: refresh.entries_consumed,
            runs_indexed: refresh.runs_indexed,
            search_entries_consumed: search.entries_consumed,
            search_docs_updated: search.docs_indexed + search.docs_removed,
            compacted,
        })
    }

    /// Flush the capture batcher and verify the pin invariant. After a
    /// successful close the collection refuses further maintenance; a
    /// close that finds pinned snapshots errors (and still marks the
    /// collection closed — the damage is the caller's leak, not ours).
    pub fn close(&self) -> Result<(), CollectionError> {
        if self.closed.swap(true, Ordering::SeqCst) {
            return Ok(()); // idempotent
        }
        self.batcher.force_flush()?;
        let pinned = self.snapshots_pinned();
        if pinned != 0 {
            return Err(CollectionError::PinnedSnapshots(pinned));
        }
        Ok(())
    }
}

impl Drop for Collection {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::SeqCst) {
            // One-shot commands drop without closing; flush what we can
            // and insist on the pin invariant where it's cheap to check.
            let _ = self.batcher.force_flush();
            debug_assert_eq!(
                self.snapshots_pinned(),
                0,
                "collection at {:?} dropped with pinned snapshots; \
                 the compaction fold horizon is floored until restart",
                self.dir
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_metadata::record::Record;
    use preserva_metadata::value::Value;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::{Processor, Workflow};
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};
    use preserva_wfms::trace::ExecutionTrace;
    use serde_json::json;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-collection-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn identity_workflow(id: &str) -> Workflow {
        Workflow::new(id, "identity")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("p", "id", &["in"], &["out"]))
            .link_input("x", "p", "in")
            .link_output("p", "out", "y")
    }

    fn run_of(id: &str) -> (Workflow, ExecutionTrace) {
        let mut r = ServiceRegistry::new();
        r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let w = identity_workflow(id);
        let e = WfEngine::new(r, EngineConfig::default());
        let t = e.run(&w, &port("x", json!(1))).unwrap();
        (w, t)
    }

    #[test]
    fn open_close_roundtrip_preserves_records() {
        let dir = temp_dir("roundtrip");
        {
            let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
            c.catalog()
                .insert(
                    &Record::new("r1")
                        .with("species", Value::Text("Hyla faber".into()))
                        .with("state", Value::Text("São Paulo".into())),
                )
                .unwrap();
            c.close().unwrap();
        }
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        assert!(c.catalog().get("r1").unwrap().is_some());
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_journal_head_fails_the_open() {
        let dir = temp_dir("journal-damaged");
        {
            let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
            let records: Vec<Record> = (0..200).map(|i| Record::new(format!("r{i:04}"))).collect();
            c.catalog().insert_all(&records).unwrap();
            c.engine().checkpoint().unwrap();
            c.engine().compact().unwrap();
            c.close().unwrap();
        }
        let run = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "sst"))
            .unwrap();
        let mut bytes = std::fs::read(&run).unwrap();
        let at = bytes
            .windows(b"__journal_meta".len())
            .position(|w| w == b"__journal_meta")
            .unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&run, &bytes).unwrap();
        match Collection::open(&dir, CollectionOptions::default()) {
            Err(CollectionError::Storage(StorageError::Corrupt { .. })) => {}
            other => panic!("expected a corrupt-storage error, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_succeeds_while_the_head_reader_is_in_use() {
        let dir = temp_dir("head-close");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let head = c.store().head();
        let held = head.clone();
        assert!(head.get("records", b"r1").unwrap().is_none());
        c.close().unwrap();
        assert!(held.get("records", b"r1").unwrap().is_none());
        drop(held);
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_reports_leaked_pins_then_drop_is_quiet() {
        let dir = temp_dir("pins");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let snap = c.store().snapshot();
        match c.close() {
            Err(CollectionError::PinnedSnapshots(1)) => {}
            other => panic!("expected PinnedSnapshots(1), got {other:?}"),
        }
        drop(snap);
        // Already closed: drop must not re-assert, and close is idempotent.
        c.close().unwrap();
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_stable_and_tracks_options() {
        let a = CollectionOptions::default();
        let b = CollectionOptions::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = CollectionOptions::default();
        c.fsync = !c.fsync;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_rides_the_metrics_exposition() {
        let dir = temp_dir("fp-metrics");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let text = c.metrics_registry().render_prometheus();
        let needle = format!(
            "preserva_collection_options_info{{fingerprint=\"{}\"}} 1",
            c.options().fingerprint()
        );
        assert!(text.contains(&needle), "missing {needle} in:\n{text}");
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintain_advances_the_prov_index() {
        let dir = temp_dir("maintain");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let (wf, trace) = run_of("wf-maint");
        c.provenance().capture(&wf, &trace).unwrap();
        let report = c.maintain().unwrap();
        assert_eq!(report.runs_indexed, 1, "{report:?}");
        assert_eq!(c.prov_index().lag().unwrap(), 0);
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintain_drives_the_search_index() {
        let dir = temp_dir("search");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        c.catalog()
            .insert(
                &Record::new("r1")
                    .with("species", Value::Text("Hyla faber".into()))
                    .with("state", Value::Text("São Paulo".into())),
            )
            .unwrap();
        assert!(c.search().journal_lag().unwrap() > 0);
        let report = c.maintain().unwrap();
        assert!(report.search_entries_consumed > 0, "{report:?}");
        assert_eq!(report.search_docs_updated, 1);
        assert_eq!(c.search().journal_lag().unwrap(), 0);

        let snap = c.store().snapshot();
        let reader = c.search().reader();
        let hits = reader.query(&snap, Some("species"), "faber", 10).unwrap();
        assert_eq!(hits.ids, ["r1"]);
        let hit = reader.fuzzy(&snap, "hyla fabre", 2).unwrap().unwrap();
        assert_eq!(hit.name, "Hyla faber");
        drop(snap);
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_flushes_pending_captures() {
        let dir = temp_dir("flush");
        let opts = CollectionOptions {
            batcher: BatcherOptions {
                max_batch: 64,
                linger: std::time::Duration::from_secs(30),
            },
            ..CollectionOptions::default()
        };
        let c = Arc::new(Collection::open(&dir, opts).unwrap());
        let (wf, trace) = run_of("wf-flush");
        // A lone submitter with a long linger parks until someone
        // flushes; close() must be that someone.
        let submitter = {
            let c = c.clone();
            std::thread::spawn(move || {
                use preserva_wfms::sink::ProvenanceSink;
                c.batcher().record(&wf, &trace).unwrap();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        c.close().unwrap();
        submitter.join().unwrap();
        assert_eq!(c.provenance().run_ids().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_commits_spec_and_version_pointer_together() {
        let dir = temp_dir("publish-commit");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let before = c.engine().stats().commits;
        assert_eq!(c.publish_workflow(&identity_workflow("wf")).unwrap(), 1);
        assert_eq!(
            c.engine().stats().commits,
            before + 1,
            "spec row + version pointer must be one commit"
        );
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workflow_versions_accumulate_and_read_back() {
        let dir = temp_dir("publish-versions");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let first = identity_workflow("wf");
        let mut second = first.clone();
        second.name = "identity, revised".into();
        assert_eq!(c.publish_workflow(&first).unwrap(), 1);
        assert_eq!(c.publish_workflow(&second).unwrap(), 2);
        assert_eq!(c.store().head().count(WORKFLOWS_TABLE).unwrap(), 2);
        assert_eq!(c.workflow("wf").unwrap(), Some(second));
        assert_eq!(c.workflow("missing").unwrap(), None);
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workflow_versions_survive_reopen() {
        let dir = temp_dir("publish-reopen");
        let w = identity_workflow("wf");
        {
            let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
            assert_eq!(c.publish_workflow(&w).unwrap(), 1);
            c.close().unwrap();
        }
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        assert_eq!(c.publish_workflow(&w).unwrap(), 2, "numbering resumes");
        for key in ["wf@1", "wf@2"] {
            assert!(
                c.store()
                    .head()
                    .get(WORKFLOWS_TABLE, key.as_bytes())
                    .unwrap()
                    .is_some(),
                "{key} stored"
            );
        }
        c.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_collection_refuses_maintenance() {
        let dir = temp_dir("closed");
        let c = Collection::open(&dir, CollectionOptions::default()).unwrap();
        c.close().unwrap();
        assert!(matches!(c.maintain(), Err(CollectionError::Closed)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
