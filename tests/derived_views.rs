//! One harness for every view derived from the change journal
//! (`preserva_storage::view`): the search index, the cross-run
//! provenance index and the reassessment bookkeeping. Each is checked
//! against the same two invariants:
//!
//! * incremental runs at random split points ≡ one run over the whole
//!   feed ≡ a `rebuild` from zero, compared by a dump of the view's
//!   tables (the cursor row excluded: its run counter differs) and of
//!   any source table the view writes back to;
//! * a WAL torn at every byte of a view commit leaves the cursor and the
//!   derived rows both landed or both absent, and the next run
//!   converges to the same rows.
//!
//! View-specific assertions (facet counters, ledger ≡ full check,
//! whole-batch capture recovery) stay in each subsystem's own tests.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use preserva::core::prov_index::ProvView;
use preserva::core::provenance_manager::ProvenanceManager;
use preserva::core::reassess::ReassessView;
use preserva::core::retrieval::RecordCatalog;
use preserva::curation::log::CurationLog;
use preserva::curation::pipeline::CurationPipeline;
use preserva::curation::review::ReviewQueue;
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator::{self, SyntheticCollection};
use preserva::metadata::record::Record;
use preserva::metadata::value::Value;
use preserva::obs::Registry;
use preserva::search::indexer::IndexView;
use preserva::search::SearchConfig;
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::storage::view::{DerivedView, ViewDriver, STATE_KEY};
use preserva::storage::CompactionOptions;
use preserva::taxonomy::service::{ColService, ServiceConfig};
use preserva::wfms::engine::{Engine as WfEngine, EngineConfig};
use preserva::wfms::model::{Processor, Workflow};
use preserva::wfms::services::{port, PortMap, ServiceRegistry};
use preserva::wfms::trace::ExecutionTrace;

type Dump = BTreeMap<(String, Vec<u8>), Vec<u8>>;

/// A derived view under test, bound to one store: the source writes
/// that feed it, and the view itself.
trait Subject: Sized + 'static {
    type Error: Debug;
    type View<'a>: DerivedView<Error = Self::Error>
    where
        Self: 'a;
    /// Source tables the view writes back to, dumped with its own.
    const WRITES_BACK: &'static [&'static str] = &[];

    /// Bind to `store` (registering journaled tables and indexes).
    fn bind(store: Arc<TableStore>) -> Self;
    /// Commit `size` baseline source rows.
    fn load(&mut self, size: usize);
    /// Commit batch `batch` of source writes, one per random
    /// `(row, choice)` pair.
    fn write(&mut self, batch: usize, ops: &[(usize, usize)]);
    /// The view over this subject's store.
    fn view(&mut self) -> Self::View<'_>;
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserva-derived-views-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No fsync, no auto-checkpoint, no background compaction: everything
/// stays in the WAL, so a truncation expresses any crash point.
fn open_store(dir: &Path) -> Arc<TableStore> {
    let opts = EngineOptions {
        fsync: false,
        checkpoint_bytes: usize::MAX,
        metrics: None,
        compaction: CompactionOptions {
            background: false,
            max_runs_per_level: 100,
        },
    };
    Arc::new(TableStore::new(Arc::new(Engine::open(dir, opts).unwrap())).unwrap())
}

fn driver<S: Subject>(store: &Arc<TableStore>) -> ViewDriver {
    ViewDriver::new::<S::View<'static>>(store.clone(), Arc::new(Registry::new()))
}

/// Every row of the view's tables except its cursor row, and of the
/// source tables it writes back to.
fn dump<S: Subject>(store: &TableStore) -> Dump {
    let spec = <S::View<'static> as DerivedView>::SPEC;
    let mut out = Dump::new();
    for &table in spec.tables.iter().chain(S::WRITES_BACK) {
        for (k, v) in store.head().scan(table).unwrap() {
            if table == spec.meta_table && k == STATE_KEY {
                continue;
            }
            out.insert((table.to_string(), k), v);
        }
    }
    out
}

/// What a run did: whether it was a no-op, the journal head it
/// consumed up to, and the cursor it left.
struct Ran {
    noop: bool,
    head: u64,
    cursor: u64,
}

fn run<S: Subject>(subject: &mut S, driver: &ViewDriver) -> Ran {
    let r = driver.run(&mut subject.view(), None, None).unwrap();
    Ran {
        noop: r.outcome.is_none(),
        head: r.cursor_before + r.journal_lag,
        cursor: r.cursor_after,
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).unwrap().len()
}

/// Store A runs the view at the random split points, store B once at
/// the end; both must dump the same rows, a further run must be a
/// no-op, and a rebuild from zero must reproduce them.
fn check_split_equals_one_shot_equals_rebuild<S: Subject>(
    tag: &str,
    size: usize,
    batches: &[Vec<(usize, usize)>],
    splits: &[bool],
) {
    let dir_a = tmpdir(&format!("{tag}-split"));
    let dir_b = tmpdir(&format!("{tag}-whole"));
    let (store_a, store_b) = (open_store(&dir_a), open_store(&dir_b));
    let (mut a, mut b) = (S::bind(store_a.clone()), S::bind(store_b.clone()));
    let (da, db) = (driver::<S>(&store_a), driver::<S>(&store_b));
    a.load(size);
    b.load(size);
    run(&mut a, &da);
    for (i, ops) in batches.iter().enumerate() {
        a.write(i, ops);
        b.write(i, ops);
        if splits[i % splits.len()] {
            run(&mut a, &da);
        }
    }
    run(&mut a, &da);
    run(&mut b, &db);
    assert_eq!(da.lag().unwrap(), 0, "{tag}: split store lags");
    assert_eq!(db.lag().unwrap(), 0, "{tag}: one-shot store lags");

    let full = dump::<S>(&store_a);
    assert!(!full.is_empty(), "{tag}: the view derived nothing");
    assert_eq!(full, dump::<S>(&store_b), "{tag}: split runs ≠ one run");

    assert!(
        run(&mut a, &da).noop,
        "{tag}: caught-up run must be a no-op"
    );
    assert_eq!(full, dump::<S>(&store_a), "{tag}: no-op run changed rows");

    da.rebuild(&mut a.view()).unwrap();
    assert_eq!(full, dump::<S>(&store_a), "{tag}: rebuild ≠ incremental");
    assert_eq!(da.lag().unwrap(), 0, "{tag}: rebuild left lag");

    drop((a, b, da, db, store_a, store_b));
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Tear the WAL at every byte of the view run that folds `ops` in: the
/// recovered view is either wholly before the run (rows and cursor) or
/// wholly after it, and the next run converges to the same rows.
fn check_torn_commit_is_atomic<S: Subject>(tag: &str, size: usize, ops: &[(usize, usize)]) {
    let template = tmpdir(&format!("{tag}-torn-template"));
    // Rows and cursor before the run; rows, consumed head and cursor
    // after it.
    let (baseline_len, full_len, (pre_rows, pre_cursor), (post_rows, head, post_cursor)) = {
        let store = open_store(&template);
        let mut subject = S::bind(store.clone());
        let d = driver::<S>(&store);
        subject.load(size);
        run(&mut subject, &d);
        subject.write(0, ops);
        let baseline_len = wal_len(&template);
        let pre = (dump::<S>(&store), d.state().unwrap().cursor);
        let ran = run(&mut subject, &d);
        let full_len = wal_len(&template);
        let post = (dump::<S>(&store), ran.head, ran.cursor);
        assert!(full_len > baseline_len, "{tag}: the run wrote nothing");
        assert_ne!(pre.0, post.0, "{tag}: the run changed no rows");
        (baseline_len, full_len, pre, post)
    };

    let (mut landed, mut torn) = (0usize, 0usize);
    for cut in baseline_len..=full_len {
        let dir = tmpdir(&format!("{tag}-torn-{cut}"));
        copy_dir(&template, &dir);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        {
            let store = open_store(&dir);
            let mut subject = S::bind(store.clone());
            let d = driver::<S>(&store);
            let cursor = d.state().unwrap().cursor;
            let rows = dump::<S>(&store);
            if rows == post_rows {
                // A lost bump past the run's own writes leaves the
                // cursor at the consumed head; replaying from there is
                // idempotent.
                assert!(
                    cursor == post_cursor || cursor == head,
                    "{tag} cut {cut}: rows landed, cursor {cursor}"
                );
                landed += 1;
            } else {
                assert_eq!(rows, pre_rows, "{tag} cut {cut}: rows neither old nor new");
                assert_eq!(
                    cursor, pre_cursor,
                    "{tag} cut {cut}: rows torn, cursor moved"
                );
                torn += 1;
            }
            run(&mut subject, &d);
            assert_eq!(
                dump::<S>(&store),
                post_rows,
                "{tag} cut {cut}: no convergence"
            );
            assert_eq!(d.lag().unwrap(), 0, "{tag} cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(torn > 0, "{tag}: no cut tore the commit");
    assert!(landed > 0, "{tag}: no cut kept the commit");
    std::fs::remove_dir_all(&template).ok();
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Record-fed views: search index and reassessment.

fn fnjv() -> &'static SyntheticCollection {
    static COLLECTION: OnceLock<SyntheticCollection> = OnceLock::new();
    COLLECTION.get_or_init(|| {
        generator::generate(&GeneratorConfig {
            records: 120,
            distinct_species: 24,
            outdated_names: 3,
            seed: 11,
            ..GeneratorConfig::default()
        })
    })
}

/// The records table and its workload: species edits drawn from the
/// collection's names plus one no checklist resolves, recordist edits,
/// raw deletes, and fresh ids through the bulk path.
struct Records {
    store: Arc<TableStore>,
    catalog: RecordCatalog,
    palette: Vec<String>,
}

impl Records {
    fn bind(store: Arc<TableStore>) -> Records {
        let mut palette: Vec<String> = fnjv()
            .records
            .iter()
            .filter_map(|r| r.get_text("species").map(str::to_string))
            .collect();
        palette.sort();
        palette.dedup();
        palette.push("Qqxus zzti".to_string());
        Records {
            catalog: RecordCatalog::open_on(store.clone(), "records").unwrap(),
            store,
            palette,
        }
    }

    fn load(&mut self, size: usize) {
        self.catalog.insert_all(&fnjv().records[..size]).unwrap();
    }

    fn write(&mut self, batch: usize, ops: &[(usize, usize)]) {
        let records = &fnjv().records;
        let mut session = self.store.session();
        let mut fresh: Vec<Record> = Vec::new();
        for &(row, choice) in ops {
            let base = &records[row % records.len()];
            match choice {
                5 => {
                    let mut r = base.clone();
                    r.id = format!("bulk-{batch}-{row}");
                    fresh.push(r);
                }
                6 => {
                    session.delete("records", base.id.as_bytes()).unwrap();
                }
                7 => {
                    let edited = base
                        .clone()
                        .with("recordist", Value::Text(format!("editor {batch}")));
                    self.catalog.stage(&mut session, &edited).unwrap();
                }
                _ => {
                    let name = &self.palette[(row + choice) % self.palette.len()];
                    let edited = base.clone().with("species", Value::Text(name.clone()));
                    self.catalog.stage(&mut session, &edited).unwrap();
                }
            }
        }
        session.commit().unwrap();
        if !fresh.is_empty() {
            self.catalog.insert_all_bulk(&fresh).unwrap();
        }
    }
}

struct Search {
    records: Records,
    config: SearchConfig,
}

impl Subject for Search {
    type Error = preserva::storage::StorageError;
    type View<'a> = IndexView<'a>;

    fn bind(store: Arc<TableStore>) -> Self {
        Search {
            records: Records::bind(store),
            config: SearchConfig::default(),
        }
    }
    fn load(&mut self, size: usize) {
        self.records.load(size);
    }
    fn write(&mut self, batch: usize, ops: &[(usize, usize)]) {
        self.records.write(batch, ops);
    }
    fn view(&mut self) -> IndexView<'_> {
        IndexView {
            records_table: "records",
            config: &self.config,
        }
    }
}

struct Reassess {
    records: Records,
    pipeline: CurationPipeline,
    service: ColService,
    log: CurationLog,
    queue: ReviewQueue,
}

impl Subject for Reassess {
    type Error = preserva::core::reassess::ReassessError;
    type View<'a> = ReassessView<'a>;
    /// The curated records: the reassessor's main output.
    const WRITES_BACK: &'static [&'static str] = &["records"];

    fn bind(store: Arc<TableStore>) -> Self {
        Reassess {
            records: Records::bind(store),
            pipeline: CurationPipeline::stage1(
                preserva::gazetteer::builder::build_gazetteer(3, 0x9E0),
                preserva::metadata::fnjv::schema(),
            ),
            service: ColService::new(
                fnjv().checklist.clone(),
                ServiceConfig {
                    availability: 1.0,
                    seed: 11,
                    ..ServiceConfig::default()
                },
            ),
            log: CurationLog::new(),
            queue: ReviewQueue::new(),
        }
    }
    fn load(&mut self, size: usize) {
        self.records.load(size);
    }
    fn write(&mut self, batch: usize, ops: &[(usize, usize)]) {
        self.records.write(batch, ops);
    }
    fn view(&mut self) -> ReassessView<'_> {
        ReassessView {
            records_table: "records",
            pipeline: &self.pipeline,
            service: &self.service,
            prov: None,
            log: &mut self.log,
            queue: &mut self.queue,
        }
    }
}

// ---------------------------------------------------------------------
// Capture-fed view: the cross-run provenance index.

/// A fixed pool of executed runs over three workflows. Run ids are
/// minted per engine, so both stores of a comparison must capture the
/// very same traces.
fn run_pool() -> &'static [(Workflow, ExecutionTrace)] {
    static POOL: OnceLock<Vec<(Workflow, ExecutionTrace)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut registry = ServiceRegistry::new();
        registry.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let engine = WfEngine::new(registry, EngineConfig::default());
        let mut pool = Vec::new();
        for w in 0..3 {
            let workflow = Workflow::new(&format!("w{w}"), "identity")
                .with_input("x")
                .with_output("y")
                .with_processor(Processor::service("p", "id", &["in"], &["out"]))
                .link_input("x", "p", "in")
                .link_output("p", "out", "y");
            for input in 0..16 {
                let trace = engine
                    .run(&workflow, &port("x", serde_json::json!(input)))
                    .unwrap();
                pool.push((workflow.clone(), trace));
            }
        }
        pool
    })
}

struct Prov {
    manager: ProvenanceManager,
}

impl Prov {
    fn capture(&self, runs: Vec<(Workflow, ExecutionTrace)>) {
        for r in self.manager.capture_batch(&runs).unwrap() {
            r.unwrap();
        }
    }
}

impl Subject for Prov {
    type Error = preserva::core::provenance_manager::ProvenanceError;
    type View<'a> = ProvView<'a>;

    fn bind(store: Arc<TableStore>) -> Self {
        Prov {
            manager: ProvenanceManager::new(store),
        }
    }
    fn load(&mut self, size: usize) {
        self.capture(run_pool()[..size].to_vec());
    }
    /// Captures pool runs; repeats are idempotent re-captures.
    fn write(&mut self, _batch: usize, ops: &[(usize, usize)]) {
        let pool = run_pool();
        self.capture(
            ops.iter()
                .map(|&(row, choice)| pool[(row * 8 + choice) % pool.len()].clone())
                .collect(),
        );
    }
    fn view(&mut self) -> ProvView<'_> {
        ProvView(&self.manager)
    }
}

// ---------------------------------------------------------------------

fn batches() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..120, 0usize..8), 1..6),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn search_index_split_runs_equal_one_shot_and_rebuild(
        batches in batches(),
        splits in proptest::collection::vec(any::<bool>(), 5),
    ) {
        check_split_equals_one_shot_equals_rebuild::<Search>("search", 120, &batches, &splits);
    }

    #[test]
    fn reassessment_split_runs_equal_one_shot_and_rebuild(
        batches in batches(),
        splits in proptest::collection::vec(any::<bool>(), 5),
    ) {
        check_split_equals_one_shot_equals_rebuild::<Reassess>("reassess", 120, &batches, &splits);
    }

    #[test]
    fn prov_index_split_runs_equal_one_shot_and_rebuild(
        batches in batches(),
        splits in proptest::collection::vec(any::<bool>(), 5),
    ) {
        check_split_equals_one_shot_equals_rebuild::<Prov>("prov", 4, &batches, &splits);
    }
}

/// Edit one record's species and delete another in one commit.
const TORN_OPS: [(usize, usize); 2] = [(0, 1), (1, 6)];

#[test]
fn search_index_torn_commit_is_atomic() {
    check_torn_commit_is_atomic::<Search>("search", 2, &TORN_OPS);
}

#[test]
fn reassessment_torn_commit_is_atomic() {
    check_torn_commit_is_atomic::<Reassess>("reassess", 3, &TORN_OPS);
}

#[test]
fn prov_index_torn_commit_is_atomic() {
    check_torn_commit_is_atomic::<Prov>("prov", 1, &[(1, 0), (2, 1)]);
}
