//! The search tables as a derived view of the records table.
//!
//! [`IndexView::apply`] diffs every record the journal touched against
//! its persisted [`DocState`] and stages postings, n-grams, facet
//! counters and doc states; the storage `ViewDriver` commits them with
//! the advanced cursor in ONE `WriteSession` (DESIGN.md §18). Replaying
//! a range is idempotent: the diff against already-updated doc states is
//! empty. Search tables are not journaled, so a run appends nothing to
//! the feed it consumes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use preserva_metadata::record::Record;
use preserva_obs::{Counter, Registry};
use preserva_storage::rows;
use preserva_storage::table::{TableSnapshot, TableStore, WriteSession};
use preserva_storage::view::{stage_count_delta, DerivedView, ViewDriver, ViewRun, ViewSpec};
use preserva_storage::{JournalEntry, Lsn, StorageError, StorageResult, ROW_DELETED, ROW_UPSERTED};
use preserva_taxonomy::ngram::grams;

use crate::doc::DocState;
use crate::query::SearchReader;
use crate::{join_key, tables, SearchConfig};

/// What one [`Indexer::run`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexOutcome {
    /// Cursor before the run.
    pub cursor_before: u64,
    /// Cursor after the run.
    pub cursor_after: u64,
    /// Journal entries pending when the run started.
    pub journal_lag: u64,
    /// Journal entries consumed (all kinds, not just record rows).
    pub entries_consumed: usize,
    /// Records (re)indexed this run.
    pub docs_indexed: usize,
    /// Records removed from the index this run.
    pub docs_removed: usize,
    /// Records that did not decode, indexed as absent: one codec error
    /// each, naming the row's table and key.
    pub undecodable: Vec<String>,
    /// Commit LSN of the run's one input snapshot.
    pub input_lsn: Lsn,
}

impl IndexOutcome {
    /// Whether the run found nothing to do (and committed nothing).
    pub fn is_noop(&self) -> bool {
        self.entries_consumed == 0
    }
}

/// The search tables as a [`DerivedView`] of one records table.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    /// The journaled table the index covers.
    pub records_table: &'a str,
    /// What the index contains.
    pub config: &'a SearchConfig,
}

impl DerivedView for IndexView<'_> {
    type Outcome = IndexOutcome;
    type Error = StorageError;
    const SPEC: ViewSpec = ViewSpec {
        name: "search",
        meta_table: tables::META,
        tables: &[
            tables::POSTINGS,
            tables::DOCS,
            tables::NGRAMS,
            tables::NAMES,
            tables::FACETS,
        ],
        lag: "preserva_search_index_lag",
        run_seconds: "preserva_search_run_seconds",
        batch_entries: Some("preserva_search_delta_batch_entries"),
        runs: "preserva_search_runs_total",
    };

    /// Diff every touched record against its stored [`DocState`] and
    /// stage the postings, facet, name and n-gram deltas.
    fn apply(
        &mut self,
        snap: &TableSnapshot,
        entries: &[JournalEntry],
        session: &mut WriteSession<'_>,
    ) -> StorageResult<IndexOutcome> {
        let mut outcome = IndexOutcome::default();
        // The set of records to re-derive; the journal's op kinds don't
        // matter because the new truth is read from the pinned snapshot.
        let touched: BTreeSet<&[u8]> = entries
            .iter()
            .filter(|e| e.table == self.records_table)
            .filter(|e| e.kind == ROW_UPSERTED || e.kind == ROW_DELETED)
            .map(|e| e.key.as_slice())
            .collect();
        // Doc states and records are each read in one key-ordered pass.
        let touched: Vec<&[u8]> = touched.into_iter().collect();
        let docs = snap.get_many(tables::DOCS, &touched)?;
        let records = snap.get_many(self.records_table, &touched)?;
        let mut facet_delta: BTreeMap<(String, String), i64> = BTreeMap::new();
        let mut name_delta: BTreeMap<String, i64> = BTreeMap::new();
        for ((&pk, doc), record) in touched.iter().zip(docs).zip(records) {
            // A damaged doc state is the view's own and fails the run
            // (`rebuild` repairs it); a damaged record is indexed as
            // absent, so one bad row cannot stop the cursor.
            let old = match doc {
                Some(row) => rows::decode::<DocState>(tables::DOCS, pk, &row)?,
                None => DocState::default(),
            };
            let record = record.map(|row| rows::decode::<Record>(self.records_table, pk, &row));
            let new = match record.transpose() {
                Ok(record) => record.map(|r| DocState::extract(&r, self.config)),
                Err(e @ StorageError::Codec(_)) => {
                    outcome.undecodable.push(e.to_string());
                    None
                }
                Err(e) => return Err(e),
            };
            let empty = DocState::default();
            let new_ref = new.as_ref().unwrap_or(&empty);

            // Inverted-index postings: retract what only the old state
            // had, assert what only the new state has.
            for (field, toks) in &old.tokens {
                let kept = new_ref.tokens.get(field);
                for t in toks {
                    if !kept.is_some_and(|k| k.contains(t)) {
                        session.delete(
                            tables::POSTINGS,
                            &join_key(&[field.as_bytes(), t.as_bytes(), pk]),
                        )?;
                    }
                }
            }
            for (field, toks) in &new_ref.tokens {
                let had = old.tokens.get(field);
                for t in toks {
                    if !had.is_some_and(|h| h.contains(t)) {
                        session.put(
                            tables::POSTINGS,
                            &join_key(&[field.as_bytes(), t.as_bytes(), pk]),
                            b"",
                        )?;
                    }
                }
            }

            for f in old.facets.difference(&new_ref.facets) {
                *facet_delta.entry(f.clone()).or_insert(0) -= 1;
            }
            for f in new_ref.facets.difference(&old.facets) {
                *facet_delta.entry(f.clone()).or_insert(0) += 1;
            }

            if old.name != new_ref.name {
                if let Some(n) = &old.name {
                    *name_delta.entry(n.clone()).or_insert(0) -= 1;
                }
                if let Some(n) = &new_ref.name {
                    *name_delta.entry(n.clone()).or_insert(0) += 1;
                }
            }

            match &new {
                Some(d) => {
                    rows::stage(session, tables::DOCS, pk, d)?;
                    outcome.docs_indexed += 1;
                }
                None => {
                    if old != DocState::default() {
                        session.delete(tables::DOCS, pk)?;
                        outcome.docs_removed += 1;
                    }
                }
            }
        }

        // Facet counters and species-name refcounts: one
        // read-modify-write per touched key against the pinned snapshot.
        for ((facet, value), delta) in facet_delta {
            let key = join_key(&[facet.as_bytes(), value.as_bytes()]);
            stage_count_delta(snap, session, tables::FACETS, &key, delta)?;
        }
        // N-gram membership follows the refcounts: a name's grams appear
        // with its first reference and disappear with its last.
        for (name, delta) in name_delta {
            let key = name.as_bytes();
            match stage_count_delta(snap, session, tables::NAMES, key, delta)? {
                (0, after) if after > 0 => {
                    for gram in grams(&name, self.config.gram) {
                        session.put(tables::NGRAMS, &join_key(&[gram.as_bytes(), key]), b"")?;
                    }
                }
                (before, 0) if before > 0 => {
                    for gram in grams(&name, self.config.gram) {
                        session.delete(tables::NGRAMS, &join_key(&[gram.as_bytes(), key]))?;
                    }
                }
                _ => {}
            }
        }

        Ok(outcome)
    }
}

/// The journal-fed maintainer of the three search index structures.
#[derive(Debug)]
pub struct Indexer {
    records_table: String,
    config: SearchConfig,
    driver: ViewDriver,
    entries_consumed: Arc<Counter>,
    docs_indexed: Arc<Counter>,
    docs_removed: Arc<Counter>,
    docs_undecodable: Arc<Counter>,
}

impl Indexer {
    /// Bind to a store and records table with the default config and a
    /// private metrics registry.
    pub fn new(store: Arc<TableStore>, records_table: &str) -> Indexer {
        Indexer::with_metrics(
            store,
            records_table,
            SearchConfig::default(),
            Arc::new(Registry::new()),
        )
    }

    /// Bind with an explicit config, reporting into `registry`.
    pub fn with_metrics(
        store: Arc<TableStore>,
        records_table: &str,
        config: SearchConfig,
        registry: Arc<Registry>,
    ) -> Indexer {
        Indexer {
            records_table: records_table.to_string(),
            config,
            entries_consumed: registry.counter(
                "preserva_search_entries_consumed_total",
                "Journal entries consumed by search index runs.",
            ),
            docs_indexed: registry.counter(
                "preserva_search_docs_indexed_total",
                "Records (re)indexed by search index runs.",
            ),
            docs_removed: registry.counter(
                "preserva_search_docs_removed_total",
                "Records removed from the search index by index runs.",
            ),
            docs_undecodable: registry.counter(
                "preserva_search_docs_undecodable_total",
                "Records that did not decode, indexed as absent by index runs.",
            ),
            driver: ViewDriver::new::<IndexView>(store, registry),
        }
    }

    /// The config the index is maintained under.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// A reader bound to this indexer's config.
    pub fn reader(&self) -> SearchReader {
        SearchReader::new(self.config.clone())
    }

    /// The metrics registry this indexer reports to.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        self.driver.metrics_registry()
    }

    /// Journal sequence number already folded into the index.
    pub fn cursor(&self) -> StorageResult<u64> {
        Ok(self.driver.state()?.cursor)
    }

    /// Journal entries committed but not yet indexed — the lag the
    /// `preserva_search_index_lag` gauge reports.
    pub fn journal_lag(&self) -> StorageResult<u64> {
        self.driver.lag()
    }

    fn view(&self) -> IndexView<'_> {
        IndexView {
            records_table: &self.records_table,
            config: &self.config,
        }
    }

    fn finish(&self, run: ViewRun<IndexOutcome>) -> IndexOutcome {
        let out = run.outcome.unwrap_or_default();
        self.entries_consumed.add(run.entries_consumed as u64);
        self.docs_indexed.add(out.docs_indexed as u64);
        self.docs_removed.add(out.docs_removed as u64);
        self.docs_undecodable.add(out.undecodable.len() as u64);
        for error in &out.undecodable {
            let note = format!("indexed an undecodable record as absent: {error}");
            self.metrics_registry().trace("search", note);
        }
        IndexOutcome {
            cursor_before: run.cursor_before,
            cursor_after: run.cursor_after,
            journal_lag: run.journal_lag,
            entries_consumed: run.entries_consumed,
            input_lsn: run.input_lsn,
            ..out
        }
    }

    /// Drain the journal from the stored cursor and fold the delta into
    /// the search tables, committing everything — postings, n-grams,
    /// facet counters, doc states, cursor — in ONE write session. An
    /// empty feed commits nothing.
    pub fn run(&self) -> StorageResult<IndexOutcome> {
        let run = self.driver.run(&mut self.view(), None, None)?;
        Ok(self.finish(run))
    }

    /// Drop every search table and re-derive the index by replaying the
    /// journal from zero: one wipe commit (resetting the cursor with
    /// it), then a normal run.
    pub fn rebuild(&self) -> StorageResult<IndexOutcome> {
        let run = self.driver.rebuild(&mut self.view())?;
        Ok(self.finish(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};

    #[test]
    fn an_undecodable_record_is_named_by_its_own_table_and_key() {
        let dir = std::env::temp_dir().join(format!(
            "preserva-search-indexer-{}-damaged",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        let store = Arc::new(TableStore::new(Arc::new(engine)).unwrap());
        store.mark_journaled("records").unwrap();
        store.put("records", b"BAD-1", b"{not json").unwrap();
        let indexer = Indexer::new(store.clone(), "records");

        // The damaged row is skipped, counted and traced; the run
        // commits and the cursor moves past it.
        let first = indexer.run().unwrap();
        assert_eq!(first.undecodable.len(), 1);
        assert_eq!(first.cursor_after, store.journal_head());
        let registry = indexer.metrics_registry();
        let skipped = registry.counter("preserva_search_docs_undecodable_total", "");
        assert_eq!(skipped.get(), 1);
        let traced = registry.trace_events();
        assert!(
            traced
                .iter()
                .any(|e| e.category == "search" && e.message.contains("records/BAD-1")),
            "{traced:?}"
        );
        assert!(store.head().get(tables::DOCS, b"BAD-1").unwrap().is_none());

        // A record committed after it is indexed.
        let ok = rows::encode("records", "OK-2", &Record::new("OK-2")).unwrap();
        store.put("records", b"OK-2", &ok).unwrap();
        let second = indexer.run().unwrap();
        assert_eq!((second.docs_indexed, second.undecodable.len()), (1, 0));
        assert!(store.head().get(tables::DOCS, b"OK-2").unwrap().is_some());
        assert_eq!(skipped.get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A damaged cursor row fails every run, naming the row, until
    /// `rebuild` — the documented repair — replaces it.
    #[test]
    fn rebuild_repairs_a_damaged_cursor_row() {
        let dir = std::env::temp_dir().join(format!(
            "preserva-search-indexer-{}-damaged-cursor",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        let store = Arc::new(TableStore::new(Arc::new(engine)).unwrap());
        store.mark_journaled("records").unwrap();
        let record = rows::encode("records", "R-1", &Record::new("R-1")).unwrap();
        store.put("records", b"R-1", &record).unwrap();
        store
            .put(tables::META, preserva_storage::view::STATE_KEY, b"{damaged")
            .unwrap();
        let indexer = Indexer::new(store.clone(), "records");

        let err = indexer.run().unwrap_err();
        assert!(err.to_string().contains("__search:meta/state"), "{err}");
        let rebuilt = indexer.rebuild().unwrap();
        assert_eq!((rebuilt.cursor_before, rebuilt.docs_indexed), (0, 1));
        let next = indexer.run().unwrap();
        assert!(next.is_noop());
        assert_eq!(next.cursor_after, store.journal_head());
        std::fs::remove_dir_all(&dir).ok();
    }
}
