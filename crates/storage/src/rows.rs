//! The row seam: the one codec of stored typed rows.
//!
//! Every table row holding a serde type goes through [`encode`] and
//! [`decode`], directly or through [`get`], [`stage`] and
//! [`Repository<T>`]: catalog records, curation history, search doc
//! states, the reassessment ledger, provenance traces, view cursors and
//! the CLI's `meta` rows. A row that will not encode or decode fails as
//! [`StorageError::Codec`] naming its table and key, and a new row
//! format changes this module alone. It is the one module of the crate
//! (with [`view`](crate::view)'s cursor row) that uses the vendored serde;
//! the engine's own formats stay hand-rolled in [`codec`](crate::codec).

use std::fmt::{self, Display};
use std::marker::PhantomData;
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::{StorageError, StorageResult};
use crate::table::{CommitReceipt, TableSnapshot, TableStore, WriteSession};

/// The row bytes of `value`, stored under `key` of `table`. The key is
/// formatted only if the encode fails, to name the row.
pub fn encode<T: Serialize>(table: &str, key: impl Display, value: &T) -> StorageResult<Vec<u8>> {
    serde_json::to_vec(value).map_err(|e| StorageError::codec(table, key.to_string(), e))
}

/// Decode the row stored under `key` of `table`.
pub fn decode<T: DeserializeOwned>(table: &str, key: &[u8], row: &[u8]) -> StorageResult<T> {
    serde_json::from_slice(row)
        .map_err(|e| StorageError::codec(table, String::from_utf8_lossy(key), e))
}

/// Decode a raw table row, `None` on damage. Index extractors use this:
/// they see row bytes only, and a damaged row has no index keys.
pub fn decode_row<T: DeserializeOwned>(row: &[u8]) -> Option<T> {
    serde_json::from_slice(row).ok()
}

/// Read and decode the row `key` of `table` through `snap`: a pinned
/// snapshot, or the store's head reader.
pub fn get<T: DeserializeOwned>(
    snap: &TableSnapshot,
    table: &str,
    key: &[u8],
) -> StorageResult<Option<T>> {
    match snap.get(table, key)? {
        Some(row) => decode(table, key, &row).map(Some),
        None => Ok(None),
    }
}

/// Encode `value` and stage it under `key` of `table` in `session`.
pub fn stage<T: Serialize>(
    session: &mut WriteSession<'_>,
    table: &str,
    key: &[u8],
    value: &T,
) -> StorageResult<()> {
    let row = encode(table, String::from_utf8_lossy(key), value)?;
    session.put(table, key, &row)?;
    Ok(())
}

/// A typed view over one table: table name + key extractor + codec, so
/// managers speak in domain types (the paper's Figure 1 puts one
/// "database management system" behind every repository).
pub struct Repository<T> {
    store: Arc<TableStore>,
    table: String,
    key_of: fn(&T) -> String,
    _marker: PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for Repository<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Repository")
            .field("table", &self.table)
            .finish()
    }
}

impl<T: Serialize + DeserializeOwned> Repository<T> {
    /// Bind a table on a shared store with a key extractor.
    pub fn new(store: Arc<TableStore>, table: impl Into<String>, key_of: fn(&T) -> String) -> Self {
        Repository {
            store,
            table: table.into(),
            key_of,
            _marker: PhantomData,
        }
    }

    /// The table this repository is bound to.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The shared store (for sessions spanning repositories).
    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    /// Persist one value (its own commit). The returned receipt carries
    /// the journal sequence numbers assigned to the write when the table
    /// is journaled (empty receipt otherwise).
    pub fn save(&self, value: &T) -> StorageResult<CommitReceipt> {
        let mut session = self.store.session();
        self.stage(&mut session, value)?;
        session.commit()
    }

    /// Persist many values in ONE storage commit (a single session),
    /// returning the journal sequence range the batch was assigned.
    pub fn save_all(&self, values: &[T]) -> StorageResult<CommitReceipt> {
        let mut session = self.store.session();
        for value in values {
            self.stage(&mut session, value)?;
        }
        session.commit()
    }

    /// Persist many FRESH values through the storage bulk-load fast
    /// path: rows, index entries and journal events are written
    /// straight into one sorted run (`TableStore::bulk_load`), skipping
    /// the WAL and memtable. Orders of magnitude faster than
    /// [`save_all`](Self::save_all) for archive-scale ingest, but the
    /// keys must not already exist — bulk rows shadow old versions
    /// without retracting their index entries. Updates belong in
    /// sessions.
    pub fn bulk_save_all(&self, values: &[T]) -> StorageResult<CommitReceipt> {
        let mut rows = Vec::with_capacity(values.len());
        for value in values {
            let key = (self.key_of)(value);
            let row = encode(&self.table, &key, value)?;
            rows.push((key.into_bytes(), row));
        }
        self.store.bulk_load(&self.table, rows)
    }

    /// Stage one value into a caller-owned session, so a write can commit
    /// atomically with writes to other repositories.
    pub fn stage(&self, session: &mut WriteSession<'_>, value: &T) -> StorageResult<()> {
        stage(session, &self.table, (self.key_of)(value).as_bytes(), value)
    }

    /// Load one value by key, read through `snap`: a pinned snapshot,
    /// or the store's head reader.
    pub fn get(&self, snap: &TableSnapshot, key: &str) -> StorageResult<Option<T>> {
        get(snap, &self.table, key.as_bytes())
    }

    /// Every value read through `snap`, in key order. Several
    /// repositories reading through the SAME pinned snapshot see one
    /// consistent cross-table state, no matter what commits land
    /// meanwhile.
    pub fn load_all(&self, snap: &TableSnapshot) -> StorageResult<Vec<T>> {
        snap.scan(&self.table)?
            .into_iter()
            .map(|(k, row)| decode(&self.table, &k, &row))
            .collect()
    }

    /// Number of values read through `snap`.
    pub fn len(&self, snap: &TableSnapshot) -> StorageResult<usize> {
        snap.count(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        id: String,
        value: i64,
    }

    fn store(name: &str) -> (Arc<TableStore>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("preserva-rows-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
        (Arc::new(TableStore::new(Arc::new(engine)).unwrap()), dir)
    }

    fn row(id: &str, value: i64) -> Row {
        Row {
            id: id.into(),
            value,
        }
    }

    #[test]
    fn encode_and_decode_roundtrip_in_declaration_order() {
        let bytes = encode("rows", "a", &row("a", 7)).unwrap();
        assert_eq!(bytes, br#"{"id":"a","value":7}"#.to_vec());
        assert_eq!(decode::<Row>("rows", b"a", &bytes).unwrap(), row("a", 7));
        assert_eq!(decode_row::<Row>(&bytes), Some(row("a", 7)));
        assert_eq!(decode_row::<Row>(b"{not json"), None);
    }

    #[test]
    fn a_row_that_does_not_decode_names_its_table_and_key() {
        match decode::<Row>("rows", b"BAD-1", br#"{"id":"a"}"#) {
            Err(StorageError::Codec(c)) => {
                assert_eq!((c.table.as_str(), c.key.as_str()), ("rows", "BAD-1"));
                assert!(c.source.to_string().contains("value"), "{}", c.source);
            }
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn staged_rows_commit_together_and_read_through_any_reader() {
        let (s, dir) = store("stage");
        let before = s.engine().stats().commits;
        let mut session = s.session();
        stage(&mut session, "rows", b"x", &row("x", 1)).unwrap();
        stage(&mut session, "others", b"y", &row("y", 2)).unwrap();
        let pinned = s.snapshot();
        session.commit().unwrap();
        assert_eq!(s.engine().stats().commits, before + 1);
        assert_eq!(
            get::<Row>(s.head(), "rows", b"x").unwrap(),
            Some(row("x", 1))
        );
        assert_eq!(
            get::<Row>(s.head(), "others", b"y").unwrap(),
            Some(row("y", 2))
        );
        assert_eq!(get::<Row>(&pinned, "rows", b"x").unwrap(), None);
        drop(pinned);

        s.put("rows", b"bad", b"not json").unwrap();
        let err = get::<Row>(s.head(), "rows", b"bad").unwrap_err();
        assert!(err.to_string().contains("rows/bad"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
