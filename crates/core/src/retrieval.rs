//! Indexed metadata-based retrieval over the data repository — the
//! paper's motivating access path ("our work is geared towards supporting
//! metadata-based retrieval", §IV). The catalog maintains secondary
//! indexes on the fields FNJV users query most (species, genus, state,
//! collection year) and plans every read through them when it can: a
//! query, a listing or a by-key lookup intersects the postings of its
//! index probes at one pinned snapshot and decodes only those rows.

use std::sync::Arc;

use preserva_metadata::query::{norm, Filter, Query};
use preserva_metadata::record::Record;
use preserva_metadata::value::Value;
use preserva_storage::table::{
    CommitReceipt, IndexDef, IndexKeys, TableSnapshot, TableStore, WriteSession,
};
use preserva_storage::StorageError;
use preserva_taxonomy::name::ScientificName;

use crate::repository::{decode_row, CodecError, Repository, RepositoryError};

/// Table holding catalog records (shares the architecture's data
/// repository naming).
pub const CATALOG_TABLE: &str = "catalog";

/// Errors from the catalog.
#[derive(Debug)]
pub enum CatalogError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// A stored record failed to (de)serialize.
    Codec(CodecError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Storage(e) => write!(f, "catalog storage: {e}"),
            CatalogError::Codec(e) => write!(f, "catalog codec: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Storage(e) => Some(e),
            CatalogError::Codec(e) => Some(e),
        }
    }
}

impl From<StorageError> for CatalogError {
    fn from(e: StorageError) -> Self {
        CatalogError::Storage(e)
    }
}

impl From<RepositoryError> for CatalogError {
    fn from(e: RepositoryError) -> Self {
        match e {
            RepositoryError::Storage(e) => CatalogError::Storage(e),
            RepositoryError::Codec(e) => CatalogError::Codec(e),
        }
    }
}

fn decode(row: &[u8]) -> Option<Record> {
    decode_row(row)
}

/// Species key: the parsed binomial, lowercased, so dirty spellings of
/// one name share a key. Text that does not parse has none.
fn species_key(text: &str) -> Option<Vec<u8>> {
    ScientificName::parse(text).map(|n| n.canonical().to_lowercase().into_bytes())
}

/// Genus and state key: the text under the query layer's [`norm`], so
/// an index probe agrees with [`Filter::TextEq`]. Blank text has none.
fn text_key(text: &str) -> Option<Vec<u8>> {
    let key = norm(text);
    (!key.is_empty()).then(|| key.into_bytes())
}

/// Genus and state probe key. Indexes written before text keys
/// collapsed inner whitespace still hold `trim().to_lowercase()` keys,
/// and nothing rewrites them, so text on which the two forms differ (an
/// inner run, a tab, a no-break space) is not probed: the predicate
/// decides over a scan.
fn text_probe(text: &str) -> Option<Vec<u8>> {
    text_key(text).filter(|key| *key == text.trim().to_lowercase().into_bytes())
}

/// Year key of a typed date.
fn year_key(year: i32) -> Vec<u8> {
    format!("{year:04}").into_bytes()
}

/// The catalog's secondary indexes. Each keeps its own shadow table
/// and backfill marker; one [`IndexDef`] group maintains all four from
/// a single decode per row image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Index {
    Species,
    Genus,
    State,
    Year,
}

impl Index {
    /// Extractor slot order.
    const ALL: [Index; 4] = [Index::Species, Index::Genus, Index::State, Index::Year];

    fn name(self) -> &'static str {
        match self {
            Index::Species => "species",
            Index::Genus => "genus",
            Index::State => "state",
            Index::Year => "year",
        }
    }

    /// The key a record is indexed under, if any. Legacy text dates are
    /// not year-indexable until curated.
    fn key_of(self, r: &Record) -> Option<Vec<u8>> {
        match self {
            Index::Species => r.get_text("species").and_then(species_key),
            Index::Genus => r.get_text("genus").and_then(text_key),
            Index::State => r.get_text("state").and_then(text_key),
            Index::Year => match r.get("collect_date")? {
                Value::Date(d) => Some(year_key(d.year)),
                _ => None,
            },
        }
    }
}

/// The index group's extractor: every index key of a row from one
/// decode. A damaged row has none.
fn index_keys(row: &[u8]) -> IndexKeys {
    let record = decode(row);
    Index::ALL
        .iter()
        .map(|ix| record.as_ref().and_then(|r| ix.key_of(r)))
        .collect()
}

/// An index probe: the rows whose key in the index equals the bytes.
type Probe = (Index, Vec<u8>);

/// Probes for a filter: one per index-backed conjunct with a key. Each
/// probe's postings hold every record the filter matches, save rows an
/// older index keyed with an inner whitespace run (see [`text_probe`]).
fn filter_probes(filter: &Filter) -> Vec<Probe> {
    match filter {
        Filter::TextEq { field, value } => {
            let probe = match field.as_str() {
                // Texts equal under `norm` parse to one binomial only when
                // there is no authorship, whose case decides whether it
                // parses at all.
                "species" if norm(value).split(' ').count() == 2 => {
                    species_key(value).map(|k| (Index::Species, k))
                }
                "genus" => text_probe(value).map(|k| (Index::Genus, k)),
                "state" => text_probe(value).map(|k| (Index::State, k)),
                _ => None,
            };
            probe.into_iter().collect()
        }
        Filter::And(fs) => fs.iter().flat_map(filter_probes).collect(),
        _ => Vec::new(),
    }
}

/// An exact-match listing: records whose `species` and `state` texts
/// equal the given ones byte for byte and whose typed `collect_date`
/// falls in `year`. No condition lists every record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Listing {
    /// Exact `species` text.
    pub species: Option<String>,
    /// Exact `state` text.
    pub state: Option<String>,
    /// Year of a typed `collect_date`.
    pub year: Option<i32>,
}

impl Listing {
    /// Whether `r` meets every condition.
    fn matches(&self, r: &Record) -> bool {
        self.species
            .as_deref()
            .is_none_or(|s| r.get_text("species") == Some(s))
            && self
                .state
                .as_deref()
                .is_none_or(|s| r.get_text("state") == Some(s))
            && self.year.is_none_or(
                |y| matches!(r.get("collect_date"), Some(Value::Date(d)) if d.year == y),
            )
    }

    /// Equal texts have equal keys, so every condition with a probe key
    /// narrows: an unparseable species, a blank state or a state with
    /// inner whitespace other than single spaces does not.
    fn probes(&self) -> Vec<Probe> {
        let species = self.species.as_deref().and_then(species_key);
        let state = self.state.as_deref().and_then(text_probe);
        let year = self.year.map(year_key);
        [
            species.map(|k| (Index::Species, k)),
            state.map(|k| (Index::State, k)),
            year.map(|k| (Index::Year, k)),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// One page of matches and the number it was cut from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Page {
    /// Every match, counted.
    pub total: usize,
    /// The first matches in id order, at most the requested limit.
    pub records: Vec<Record>,
}

/// The record catalog: an indexed view over the data repository. Row
/// encoding is delegated to a [`Repository<Record>`]; the catalog adds
/// index registration and query planning on top.
pub struct RecordCatalog {
    repo: Repository<Record>,
}

impl std::fmt::Debug for RecordCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordCatalog")
            .field("table", &self.repo.table())
            .finish()
    }
}

impl RecordCatalog {
    /// Open the catalog over a store (table [`CATALOG_TABLE`]),
    /// (re-)registering its indexes and backfilling them from existing
    /// rows.
    pub fn open(store: Arc<TableStore>) -> Result<RecordCatalog, CatalogError> {
        Self::open_on(store, CATALOG_TABLE)
    }

    /// Open the catalog over a caller-chosen table (e.g. the
    /// architecture's `records` data repository).
    pub fn open_on(store: Arc<TableStore>, table: &str) -> Result<RecordCatalog, CatalogError> {
        let names = Index::ALL.map(Index::name);
        store.create_index(table, IndexDef::group(&names, index_keys))?;
        // The data repository is the change-feed's source of truth: every
        // committed write to it must land in the journal so delta
        // reassessment can see it.
        store.mark_journaled(table)?;
        Ok(RecordCatalog {
            repo: Repository::new(store, table, |r: &Record| r.id.clone()),
        })
    }

    fn store(&self) -> &Arc<TableStore> {
        self.repo.store()
    }

    fn table(&self) -> &str {
        self.repo.table()
    }

    /// Insert or update a record (indexes maintained atomically). The
    /// receipt carries the journal sequence number the write was assigned.
    pub fn insert(&self, record: &Record) -> Result<CommitReceipt, CatalogError> {
        Ok(self.repo.save(record)?)
    }

    /// Bulk insert: all records land in ONE storage commit, index
    /// maintenance included. The receipt spans the whole batch's journal
    /// sequence range.
    pub fn insert_all(&self, records: &[Record]) -> Result<CommitReceipt, CatalogError> {
        Ok(self.repo.save_all(records)?)
    }

    /// Bulk insert FRESH records through the direct-run fast path: the
    /// batch is sorted and written straight into one level-1 run —
    /// indexes and journal events included — bypassing the WAL and
    /// memtable. Duplicate ids within the batch collapse to the last
    /// record (one journal event per id); ids that already exist in the
    /// catalog are not supported on this path (use
    /// [`insert_all`](Self::insert_all), which retracts stale index
    /// entries).
    pub fn insert_all_bulk(&self, records: &[Record]) -> Result<CommitReceipt, CatalogError> {
        Ok(self.repo.bulk_save_all(records)?)
    }

    /// Stage a record into a caller-owned session so it commits
    /// atomically with writes to other repositories.
    pub fn stage(
        &self,
        session: &mut WriteSession<'_>,
        record: &Record,
    ) -> Result<(), CatalogError> {
        Ok(self.repo.stage(session, record)?)
    }

    /// Load one record by id.
    pub fn get(&self, id: &str) -> Result<Option<Record>, CatalogError> {
        Ok(self.repo.get(self.store().head(), id)?)
    }

    /// Every record, in id order.
    pub fn all(&self) -> Result<Vec<Record>, CatalogError> {
        self.all_at(self.store().head())
    }

    /// Every record as of a pinned snapshot, in id order — one consistent
    /// view even while writers keep committing.
    pub fn all_at(&self, snap: &TableSnapshot) -> Result<Vec<Record>, CatalogError> {
        Ok(self.repo.load_all(snap)?)
    }

    /// Number of records.
    pub fn len(&self) -> Result<usize, CatalogError> {
        self.len_at(self.store().head())
    }

    /// Number of records as of a pinned snapshot, counted without
    /// reading a value byte.
    pub fn len_at(&self, snap: &TableSnapshot) -> Result<usize, CatalogError> {
        Ok(self.repo.len(snap)?)
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> Result<bool, CatalogError> {
        Ok(self.len()? == 0)
    }

    /// The planner every read shares: records at `snap` matching `pred`,
    /// in id order. With probes, only rows in the intersection of their
    /// postings are read and decoded; without, every row is. `pred` must
    /// accept only rows with every probe's key. A damaged row never
    /// matches.
    fn select(
        &self,
        snap: &TableSnapshot,
        probes: &[Probe],
        pred: impl Fn(&Record) -> bool,
        limit: usize,
    ) -> Result<Page, CatalogError> {
        let mut page = Page::default();
        let mut keep = |r: Record| {
            if pred(&r) {
                page.total += 1;
                if page.records.len() < limit {
                    page.records.push(r);
                }
            }
        };
        if probes.is_empty() {
            for (_, row) in snap.scan(self.table())? {
                if let Some(r) = decode(&row) {
                    keep(r);
                }
            }
        } else {
            for pk in self.postings(snap, probes)? {
                if let Some(r) = snap.get(self.table(), &pk)?.as_deref().and_then(decode) {
                    keep(r);
                }
            }
        }
        Ok(page)
    }

    /// Primary keys in every probe's postings at `snap`, in key order.
    fn postings(
        &self,
        snap: &TableSnapshot,
        probes: &[Probe],
    ) -> Result<Vec<Vec<u8>>, CatalogError> {
        let mut lists = Vec::with_capacity(probes.len());
        for (ix, key) in probes {
            let mut pks = snap.lookup(self.table(), ix.name(), key)?;
            // Postings come pk-sorted unless a key embeds the 0x00
            // separator and another key's range swallows it.
            pks.sort_unstable();
            lists.push(pks);
        }
        lists.sort_by_key(Vec::len);
        let mut lists = lists.into_iter();
        let shortest = lists.next().unwrap_or_default();
        let rest: Vec<_> = lists.collect();
        Ok(shortest
            .into_iter()
            .filter(|pk| rest.iter().all(|l| l.binary_search(pk).is_ok()))
            .collect())
    }

    /// An exact-match listing as of a pinned snapshot: the first `limit`
    /// matches in id order and their total. Only the rows its index
    /// probes name are read; a listing without a probe reads every row.
    pub fn list_at(
        &self,
        snap: &TableSnapshot,
        listing: &Listing,
        limit: usize,
    ) -> Result<Page, CatalogError> {
        self.select(snap, &listing.probes(), |r| listing.matches(r), limit)
    }

    fn by_key(&self, index: Index, key: Option<Vec<u8>>) -> Result<Vec<Record>, CatalogError> {
        let Some(key) = key else {
            return Ok(Vec::new());
        };
        let snap = self.store().snapshot();
        let pred = |r: &Record| index.key_of(r).as_ref() == Some(&key);
        Ok(self
            .select(&snap, &[(index, key.clone())], pred, usize::MAX)?
            .records)
    }

    /// Records of one species (index lookup; dirty spellings included via
    /// canonical indexing).
    pub fn by_species(&self, name: &str) -> Result<Vec<Record>, CatalogError> {
        self.by_key(Index::Species, species_key(name))
    }

    /// Records collected in `year` (typed dates only).
    pub fn by_year(&self, year: i32) -> Result<Vec<Record>, CatalogError> {
        self.by_key(Index::Year, Some(year_key(year)))
    }

    /// Run a query as of a pinned snapshot: index-planned when a
    /// species/genus/state equality is among its conjuncts, a full scan
    /// otherwise. The complete filter is always re-applied to
    /// candidates; `total` ignores the query's limit.
    pub fn query_at(&self, snap: &TableSnapshot, query: &Query) -> Result<Page, CatalogError> {
        let filter = &query.filter;
        let limit = query.limit.unwrap_or(usize::MAX);
        self.select(snap, &filter_probes(filter), |r| filter.matches(r), limit)
    }

    /// Run a query at the latest commit.
    pub fn query(&self, query: &Query) -> Result<Vec<Record>, CatalogError> {
        Ok(self.query_at(&self.store().snapshot(), query)?.records)
    }

    /// Count matches (at most the query's limit).
    pub fn count(&self, query: &Query) -> Result<usize, CatalogError> {
        let unpaged = Query {
            limit: Some(0),
            ..query.clone()
        };
        let total = self.query_at(&self.store().snapshot(), &unpaged)?.total;
        Ok(query.limit.map_or(total, |n| total.min(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_metadata::value::{Coordinates, Date};
    use preserva_storage::engine::{Engine, EngineOptions};

    fn catalog(name: &str) -> RecordCatalog {
        let dir =
            std::env::temp_dir().join(format!("preserva-catalog-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        RecordCatalog::open(store).unwrap()
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::new("1")
                .with("species", Value::Text("Hyla faber".into()))
                .with("genus", Value::Text("Hyla".into()))
                .with("state", Value::Text("São Paulo".into()))
                .with("collect_date", Value::Date(Date::new(1982, 3, 15).unwrap())),
            Record::new("2")
                .with("species", Value::Text("  hyla   FABER ".into())) // dirty
                .with("genus", Value::Text("Hyla".into()))
                .with("state", Value::Text("Amazonas".into())),
            Record::new("3")
                .with("species", Value::Text("Scinax ruber".into()))
                .with("genus", Value::Text("Scinax".into()))
                .with("state", Value::Text("São Paulo".into()))
                .with("collect_date", Value::Date(Date::new(1990, 6, 1).unwrap()))
                .with(
                    "coordinates",
                    Value::Coordinates(Coordinates::new(-22.9, -47.0).unwrap()),
                ),
        ]
    }

    #[test]
    fn species_index_catches_dirty_spellings() {
        let c = catalog("species");
        c.insert_all(&sample()).unwrap();
        let hits = c.by_species("HYLA FABER").unwrap();
        let ids: Vec<&str> = hits.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["1", "2"]);
        assert!(c.by_species("???").unwrap().is_empty());
    }

    #[test]
    fn year_index_typed_dates_only() {
        let c = catalog("year");
        c.insert_all(&sample()).unwrap();
        assert_eq!(c.by_year(1982).unwrap().len(), 1);
        assert_eq!(c.by_year(1990).unwrap().len(), 1);
        assert!(c.by_year(2000).unwrap().is_empty());
    }

    #[test]
    fn query_planner_uses_index_and_reapplies_filter() {
        let c = catalog("plan");
        c.insert_all(&sample()).unwrap();
        // species index narrows to 2 candidates; the state conjunct then
        // filters to 1.
        let q = Query::new(Filter::And(vec![
            Filter::species("Hyla faber"),
            Filter::TextEq {
                field: "state".into(),
                value: "São Paulo".into(),
            },
        ]));
        let hits = c.query(&q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "1");
    }

    #[test]
    fn unindexed_query_falls_back_to_scan() {
        let c = catalog("scan");
        c.insert_all(&sample()).unwrap();
        let q = Query::new(Filter::Filled {
            field: "coordinates".into(),
        });
        let hits = c.query(&q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "3");
    }

    #[test]
    fn index_agrees_with_scan_semantics() {
        let c = catalog("agree");
        c.insert_all(&sample()).unwrap();
        let q = Query::new(Filter::species("Hyla faber"));
        let via_index = c.query(&q).unwrap();
        // Force the scan path by wrapping in an Or (not plannable).
        let q_scan = Query::new(Filter::Or(vec![Filter::species("Hyla faber")]));
        let via_scan = c.query(&q_scan).unwrap();
        assert_eq!(via_index, via_scan);
    }

    #[test]
    fn update_moves_index_entries() {
        let c = catalog("update");
        let mut r = Record::new("x")
            .with("species", Value::Text("Hyla faber".into()))
            .with("genus", Value::Text("Hyla".into()));
        c.insert(&r).unwrap();
        assert_eq!(c.by_species("Hyla faber").unwrap().len(), 1);
        r.set("species", Value::Text("Boana faber".into()));
        c.insert(&r).unwrap();
        assert!(c.by_species("Hyla faber").unwrap().is_empty());
        assert_eq!(c.by_species("Boana faber").unwrap().len(), 1);
        assert_eq!(c.len().unwrap(), 1);
    }

    #[test]
    fn insert_all_is_a_single_commit() {
        let c = catalog("one-commit");
        let before = c.store().engine().stats().commits;
        c.insert_all(&sample()).unwrap();
        assert_eq!(
            c.store().engine().stats().commits,
            before + 1,
            "bulk ingest must cost one commit regardless of record count"
        );
        // Index maintenance rode along in the same commit.
        assert_eq!(c.by_species("Hyla faber").unwrap().len(), 2);
    }

    #[test]
    fn inserts_thread_journal_sequence_numbers() {
        let c = catalog("receipts");
        let receipt = c.insert_all(&sample()).unwrap();
        assert_eq!(receipt.entries(), 3, "one journal event per record");
        let single = c
            .insert(&Record::new("4").with("species", Value::Text("Hyla faber".into())))
            .unwrap();
        assert_eq!(single.first_seq, receipt.last_seq + 1);
        assert_eq!(single.head(), Some(c.store().journal_head()));
        // The change feed records exactly the catalog writes, in order.
        let feed = c.store().head().read_journal(0, 100).unwrap();
        assert_eq!(feed.len(), 4);
        assert!(feed
            .iter()
            .all(|e| e.table == CATALOG_TABLE && e.kind == preserva_storage::ROW_UPSERTED));
    }

    #[test]
    fn empty_insert_all_is_a_clean_noop() {
        let c = catalog("empty-batch");
        let commits = c.store().engine().stats().commits;
        let wal_appends = c
            .store()
            .engine()
            .metrics_registry()
            .counter("preserva_storage_wal_appends_total", "");
        let appends_before = wal_appends.get();
        let head_lsn = c.store().engine().committed_lsn();
        let receipt = c.insert_all(&[]).unwrap();
        assert_eq!(c.store().engine().stats().commits, commits, "no commit");
        assert_eq!(wal_appends.get(), appends_before, "no WAL frame at all");
        assert_eq!(
            c.store().engine().committed_lsn(),
            head_lsn,
            "no LSN burned"
        );
        assert_eq!(receipt.entries(), 0);
        assert_eq!((receipt.first_seq, receipt.last_seq), (0, 0));
        assert_eq!(receipt.lsn, head_lsn, "empty receipt pins the current head");
        assert_eq!(c.store().journal_head(), 0);
    }

    #[test]
    fn single_record_batch_has_a_one_entry_range() {
        let c = catalog("single-batch");
        let receipt = c
            .insert_all(&[Record::new("only").with("species", Value::Text("Hyla faber".into()))])
            .unwrap();
        assert_eq!(receipt.entries(), 1);
        assert_eq!(receipt.first_seq, receipt.last_seq);
        assert_eq!(receipt.head(), Some(c.store().journal_head()));
    }

    #[test]
    fn duplicate_id_within_batch_journals_once() {
        let c = catalog("dup-batch");
        let receipt = c
            .insert_all(&[
                Record::new("x").with("species", Value::Text("Hyla faber".into())),
                Record::new("x").with("species", Value::Text("Boana faber".into())),
            ])
            .unwrap();
        // Last write wins — one journal event, one index entry.
        assert_eq!(receipt.entries(), 1, "one journal event per id");
        assert_eq!(c.len().unwrap(), 1);
        assert!(c.by_species("Hyla faber").unwrap().is_empty());
        assert_eq!(c.by_species("Boana faber").unwrap().len(), 1);
        let feed = c.store().head().read_journal(0, 10).unwrap();
        assert_eq!(feed.len(), 1);
    }

    #[test]
    fn bulk_insert_agrees_with_session_insert() {
        let session = catalog("bulk-vs-session-a");
        let bulk = catalog("bulk-vs-session-b");
        session.insert_all(&sample()).unwrap();
        let receipt = bulk.insert_all_bulk(&sample()).unwrap();
        assert_eq!(receipt.entries(), 3);
        assert_eq!(bulk.len().unwrap(), session.len().unwrap());
        for q in [
            Query::new(Filter::species("Hyla faber")),
            Query::new(Filter::TextEq {
                field: "state".into(),
                value: "São Paulo".into(),
            }),
        ] {
            assert_eq!(
                bulk.query(&q).unwrap(),
                session.query(&q).unwrap(),
                "bulk and session ingest must be indistinguishable to readers"
            );
        }
        assert_eq!(
            bulk.store().head().read_journal(0, 100).unwrap().len(),
            session.store().head().read_journal(0, 100).unwrap().len()
        );
    }

    fn ids(records: &[Record]) -> Vec<&str> {
        records.iter().map(|r| r.id.as_str()).collect()
    }

    #[test]
    fn text_indexes_agree_with_scan_on_internal_whitespace() {
        let c = catalog("norm");
        c.insert_all(&[
            Record::new("a")
                .with("genus", Value::Text("Hyla  nova".into()))
                .with("state", Value::Text("São  Paulo".into())),
            Record::new("b")
                .with("genus", Value::Text("Hyla nova".into()))
                .with("state", Value::Text("São Paulo".into())),
        ])
        .unwrap();
        for (field, value) in [("genus", "Hyla nova"), ("state", "São Paulo")] {
            // Both directions: the single-spaced and the doubled query.
            for value in [value.to_string(), value.replace(' ', "  ")] {
                let eq = Filter::TextEq {
                    field: field.into(),
                    value,
                };
                let via_index = c.query(&Query::new(eq.clone())).unwrap();
                let via_scan = c.query(&Query::new(Filter::Or(vec![eq.clone()]))).unwrap();
                assert_eq!(ids(&via_index), ["a", "b"], "{eq:?}");
                assert_eq!(via_index, via_scan, "{eq:?}");
            }
        }
    }

    #[test]
    fn species_with_authorship_is_answered_like_the_scan() {
        let c = catalog("authorship");
        c.insert_all(&[
            Record::new("a").with("species", Value::Text("Hyla faber Wied".into())),
            // Lowercase authorship does not parse, so it has no key.
            Record::new("b").with("species", Value::Text("hyla faber wied".into())),
        ])
        .unwrap();
        let eq = Filter::species("Hyla faber Wied");
        let via_scan = c.query(&Query::new(Filter::Or(vec![eq.clone()]))).unwrap();
        assert_eq!(ids(&via_scan), ["a", "b"]);
        assert_eq!(c.query(&Query::new(eq)).unwrap(), via_scan);
    }

    #[test]
    fn damaged_row_is_counted_but_never_listed() {
        let c = catalog("damaged");
        c.insert_all(&sample()).unwrap();
        c.store().put(CATALOG_TABLE, b"0-bad", b"not json").unwrap();
        let snap = c.store().snapshot();
        assert_eq!(c.len_at(&snap).unwrap(), 4);
        let sp = Listing {
            state: Some("São Paulo".into()),
            ..Listing::default()
        };
        let page = c.list_at(&snap, &sp, 50).unwrap();
        assert_eq!((page.total, ids(&page.records)), (2, vec!["1", "3"]));
        let all = c.list_at(&snap, &Listing::default(), 2).unwrap();
        assert_eq!((all.total, ids(&all.records)), (3, vec!["1", "2"]));
    }

    #[test]
    fn rows_keyed_by_trim_and_lowercase_are_still_found() {
        let dir =
            std::env::temp_dir().join(format!("preserva-catalog-{}-trim-keys", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Arc::new(
                TableStore::new(Arc::new(
                    Engine::open(&dir, EngineOptions::default()).unwrap(),
                ))
                .unwrap(),
            )
        };
        {
            // Built one index at a time, with genus and state keyed by
            // `trim().to_lowercase()`, which keeps inner runs.
            let store = open();
            for ix in Index::ALL {
                let def = IndexDef::new(ix.name(), move |row: &[u8]| {
                    let r = decode(row)?;
                    match ix {
                        Index::Genus | Index::State => {
                            let text = r.get_text(ix.name())?.trim();
                            (!text.is_empty()).then(|| text.to_lowercase().into_bytes())
                        }
                        _ => ix.key_of(&r),
                    }
                });
                store.create_index(CATALOG_TABLE, def).unwrap();
            }
            let text = |s: &str| Value::Text(s.into());
            Repository::new(store, CATALOG_TABLE, |r: &Record| r.id.clone())
                .save_all(&[
                    Record::new("a")
                        .with("genus", text("Hyla  nova"))
                        .with("state", text("São  Paulo")),
                    Record::new("b")
                        .with("genus", text("Hyla nova"))
                        .with("state", text("São Paulo")),
                    Record::new("c")
                        .with("genus", text("Hyla\u{a0}nova"))
                        .with("state", text("São\tPaulo")),
                ])
                .unwrap();
        }
        let c = RecordCatalog::open(open()).unwrap();
        assert_eq!(
            c.store()
                .head()
                .lookup(CATALOG_TABLE, "state", "são  paulo".as_bytes())
                .unwrap(),
            vec![b"a".to_vec()],
            "reopening keeps the stored keys"
        );
        let snap = c.store().snapshot();
        for (state, id) in [("São  Paulo", "a"), ("São Paulo", "b"), ("São\tPaulo", "c")] {
            let listing = Listing {
                state: Some(state.into()),
                ..Listing::default()
            };
            let page = c.list_at(&snap, &listing, 50).unwrap();
            assert_eq!((page.total, ids(&page.records)), (1, vec![id]), "{state:?}");
        }
        for (field, value) in [("genus", "Hyla  nova"), ("state", "São  Paulo")] {
            let eq = Filter::TextEq {
                field: field.into(),
                value: value.into(),
            };
            assert_eq!(ids(&c.query(&Query::new(eq)).unwrap()), ["a", "b", "c"]);
        }
        drop((snap, c));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_and_counts() {
        let c = catalog("get");
        assert!(c.is_empty().unwrap());
        c.insert_all(&sample()).unwrap();
        assert_eq!(c.len().unwrap(), 3);
        assert_eq!(c.get("2").unwrap().unwrap().id, "2");
        assert!(c.get("missing").unwrap().is_none());
        let q = Query::new(Filter::TextEq {
            field: "genus".into(),
            value: "hyla".into(),
        });
        assert_eq!(c.count(&q).unwrap(), 2);
    }
}
