//! The index-planned listing equals a linear exact-match filter. Over a
//! small random catalog — species with case and whitespace variants and
//! unparseable values, blank and whitespace-run states, typed and text
//! dates, rows loaded through the bulk path and rewritten and deleted
//! through sessions — `RecordCatalog::list_at` returns the same total
//! and the same id-ordered page as filtering `all_at` at the same
//! snapshot, including a snapshot pinned before later rewrites.

use std::sync::Arc;

use proptest::prelude::*;

use preserva::core::retrieval::{Listing, RecordCatalog, CATALOG_TABLE};
use preserva::metadata::record::Record;
use preserva::metadata::value::{Date, Value};
use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::{TableSnapshot, TableStore};

const SPECIES: &[&str] = &[
    "Hyla faber",
    "hyla   FABER",
    " Hyla faber ",
    "Hyla faber Wied",
    "Scinax ruber",
    "scinax RUBER",
    "Hyla",
    "??? sp.",
    "",
];

const STATES: &[&str] = &[
    "São Paulo",
    "São  Paulo",
    "são paulo",
    "São\tPaulo",
    // Its key embeds the separator after "são", the key of "São".
    "São\u{0}Paulo",
    "São",
    "Amazonas",
    "  ",
    "",
];

const YEARS: &[i32] = &[1982, 1990, 2001];

const LIMITS: &[usize] = &[0, 1, 3, 50];

fn tmpdir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("preserva-listing-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Collection date: typed in one of two years, legacy text, or absent.
fn collect_date(pick: u8) -> Option<Value> {
    match pick % 6 {
        0 => Some(Value::Date(Date::new(1982, 3, 15).unwrap())),
        1 => Some(Value::Date(Date::new(1982, 11, 2).unwrap())),
        2 => Some(Value::Date(Date::new(1990, 6, 1).unwrap())),
        3 => Some(Value::Text("1982-03-15".into())),
        4 => Some(Value::Text("15/03/1990".into())),
        _ => None,
    }
}

/// `(id, species, state, date)` picks; a pick past the end of a value
/// list leaves the field out.
type Row = (u8, u8, u8, u8);

fn record((id, species, state, date): Row) -> Record {
    let mut r = Record::new(format!("R{:02}", id % 24));
    if let Some(s) = SPECIES.get(usize::from(species) % (SPECIES.len() + 1)) {
        r.set("species", Value::Text(s.to_string()));
    }
    if let Some(s) = STATES.get(usize::from(state) % (STATES.len() + 1)) {
        r.set("state", Value::Text(s.to_string()));
    }
    if let Some(d) = collect_date(date) {
        r.set("collect_date", d);
    }
    r
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
}

/// Rewrite `row`'s record, or delete it when `delete` holds.
fn apply(catalog: &RecordCatalog, store: &TableStore, ops: &[(Row, bool)]) {
    for &(row, delete) in ops {
        let r = record(row);
        if delete {
            store.delete(CATALOG_TABLE, r.id.as_bytes()).unwrap();
        } else {
            catalog.insert(&r).unwrap();
        }
    }
}

/// Every listing over the value lists, each with a limit.
fn listings() -> Vec<(Listing, usize)> {
    let species = std::iter::once(None).chain(SPECIES.iter().map(|s| Some(s.to_string())));
    let mut out = Vec::new();
    for species in species {
        let states = std::iter::once(None).chain(STATES.iter().map(|s| Some(s.to_string())));
        for state in states {
            for year in std::iter::once(None).chain(YEARS.iter().copied().map(Some)) {
                let limit = LIMITS[out.len() % LIMITS.len()];
                let listing = Listing {
                    species: species.clone(),
                    state: state.clone(),
                    year,
                };
                out.push((listing, limit));
            }
        }
    }
    out
}

/// The reference: exact field equality over every record at `snap`.
fn linear(all: &[Record], listing: &Listing, limit: usize) -> (usize, Vec<String>) {
    let hits: Vec<&Record> = all
        .iter()
        .filter(|r| {
            listing
                .species
                .as_ref()
                .is_none_or(|s| r.get_text("species") == Some(s.as_str()))
                && listing
                    .state
                    .as_ref()
                    .is_none_or(|s| r.get_text("state") == Some(s.as_str()))
                && listing.year.is_none_or(|y| match r.get("collect_date") {
                    Some(Value::Date(d)) => d.year == y,
                    _ => false,
                })
        })
        .collect();
    let page = hits.iter().take(limit).map(|r| r.id.clone()).collect();
    (hits.len(), page)
}

fn check(catalog: &RecordCatalog, snap: &TableSnapshot) {
    let all = catalog.all_at(snap).unwrap();
    for (listing, limit) in listings() {
        let page = catalog.list_at(snap, &listing, limit).unwrap();
        let ids: Vec<String> = page.records.iter().map(|r| r.id.clone()).collect();
        assert_eq!(
            (page.total, ids),
            linear(&all, &listing, limit),
            "{listing:?} limit {limit} at lsn {}",
            snap.lsn()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planned_listing_equals_a_linear_exact_match_filter(
        bulk in proptest::collection::vec(row_strategy(), 0..24),
        before in proptest::collection::vec((row_strategy(), any::<bool>()), 0..16),
        after in proptest::collection::vec((row_strategy(), any::<bool>()), 1..24),
    ) {
        let dir = tmpdir("prop");
        let store = Arc::new(TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        )).unwrap());
        let catalog = RecordCatalog::open(store.clone()).unwrap();
        let fresh: Vec<Record> = bulk.into_iter().map(record).collect();
        catalog.insert_all_bulk(&fresh).unwrap();
        apply(&catalog, &store, &before);
        // Push the first history into a run, so pinned reads merge
        // runs and memtable.
        store.engine().checkpoint().unwrap();
        let pinned = store.snapshot();
        check(&catalog, &pinned);

        apply(&catalog, &store, &after);
        check(&catalog, &pinned);
        check(&catalog, &store.snapshot());
        drop(pinned);
        std::fs::remove_dir_all(&dir).ok();
    }
}
