//! The typed repository layer: one place where table payloads are
//! encoded and decoded, shared by every manager in this crate.
//!
//! The paper's Figure 1 puts a single "database management system"
//! behind the data, workflow and provenance repositories. This module is
//! the code-level analogue: a [`Repository<T>`] binds a table name, a key
//! extractor and the JSON codec, so managers speak in domain types and
//! never touch raw bytes or `serde_json` themselves. Writes that must be
//! atomic across repositories stage into one
//! [`preserva_storage::table::WriteSession`] and commit as a single
//! storage batch.

use std::marker::PhantomData;
use std::sync::Arc;

use preserva_storage::table::{CommitReceipt, TableSnapshot, TableStore, WriteSession};
use preserva_storage::StorageError;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// A payload failed to encode or decode, with the table/key context a
/// curator needs to find the damaged row.
#[derive(Debug)]
pub struct CodecError {
    /// Table the payload lives in.
    pub table: String,
    /// Row key involved.
    pub key: String,
    /// The underlying codec failure.
    pub source: Box<dyn std::error::Error + Send + Sync>,
}

impl CodecError {
    /// Build from any underlying error.
    pub fn new(
        table: &str,
        key: impl Into<String>,
        source: impl Into<Box<dyn std::error::Error + Send + Sync>>,
    ) -> Self {
        CodecError {
            table: table.to_string(),
            key: key.into(),
            source: source.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "codec failure at {}/{}: {}",
            self.table, self.key, self.source
        )
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

/// Errors from a [`Repository`].
#[derive(Debug)]
pub enum RepositoryError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// A payload failed to (de)serialize.
    Codec(CodecError),
}

impl std::fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepositoryError::Storage(e) => write!(f, "repository storage: {e}"),
            RepositoryError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RepositoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepositoryError::Storage(e) => Some(e),
            RepositoryError::Codec(e) => Some(e),
        }
    }
}

impl From<StorageError> for RepositoryError {
    fn from(e: StorageError) -> Self {
        RepositoryError::Storage(e)
    }
}

impl From<CodecError> for RepositoryError {
    fn from(e: CodecError) -> Self {
        RepositoryError::Codec(e)
    }
}

/// Decode a raw table row into a domain type, `None` on damage. Index
/// extractors use this so row parsing stays inside the repository layer.
pub fn decode_row<T: DeserializeOwned>(row: &[u8]) -> Option<T> {
    serde_json::from_slice(row).ok()
}

/// A typed view over one table: table name + key extractor + codec.
pub struct Repository<T> {
    store: Arc<TableStore>,
    table: String,
    key_of: fn(&T) -> String,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for Repository<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

    fn encode(&self, value: &T) -> Result<(String, Vec<u8>), RepositoryError> {
        let key = (self.key_of)(value);
        let bytes =
            serde_json::to_vec(value).map_err(|e| CodecError::new(&self.table, key.clone(), e))?;
        Ok((key, bytes))
    }

    fn decode(&self, key: &[u8], row: &[u8]) -> Result<T, RepositoryError> {
        serde_json::from_slice(row)
            .map_err(|e| CodecError::new(&self.table, String::from_utf8_lossy(key), e).into())
    }

    /// Persist one value (its own commit). The returned receipt carries
    /// the journal sequence numbers assigned to the write when the table
    /// is journaled (empty receipt otherwise).
    pub fn save(&self, value: &T) -> Result<CommitReceipt, RepositoryError> {
        let mut session = self.store.session();
        self.stage(&mut session, value)?;
        Ok(session.commit()?)
    }

    /// Persist many values in ONE storage commit (a single session),
    /// returning the journal sequence range the batch was assigned.
    pub fn save_all(&self, values: &[T]) -> Result<CommitReceipt, RepositoryError> {
        let mut session = self.store.session();
        for value in values {
            self.stage(&mut session, value)?;
        }
        Ok(session.commit()?)
    }

    /// Persist many FRESH values through the storage bulk-load fast
    /// path: rows, index entries and journal events are written
    /// straight into one sorted run (`TableStore::bulk_load`), skipping
    /// the WAL and memtable. Orders of magnitude faster than
    /// [`save_all`](Self::save_all) for archive-scale ingest, but the
    /// keys must not already exist — bulk rows shadow old versions
    /// without retracting their index entries. Updates belong in
    /// sessions.
    pub fn bulk_save_all(&self, values: &[T]) -> Result<CommitReceipt, RepositoryError> {
        let mut rows = Vec::with_capacity(values.len());
        for value in values {
            let (key, bytes) = self.encode(value)?;
            rows.push((key.into_bytes(), bytes));
        }
        Ok(self.store.bulk_load(&self.table, rows)?)
    }

    /// Stage one value into a caller-owned session, so a write can commit
    /// atomically with writes to other repositories.
    pub fn stage(&self, session: &mut WriteSession<'_>, value: &T) -> Result<(), RepositoryError> {
        let (key, bytes) = self.encode(value)?;
        session.put(&self.table, key.as_bytes(), &bytes)?;
        Ok(())
    }

    /// Load one value by key, read through `snap`: a pinned snapshot,
    /// or the store's head reader.
    pub fn get(&self, snap: &TableSnapshot, key: &str) -> Result<Option<T>, RepositoryError> {
        match snap.get(&self.table, key.as_bytes())? {
            Some(row) => Ok(Some(self.decode(key.as_bytes(), &row)?)),
            None => Ok(None),
        }
    }

    /// Every value read through `snap`, in key order. Several
    /// repositories reading through the SAME pinned snapshot see one
    /// consistent cross-table state, no matter what commits land
    /// meanwhile.
    pub fn load_all(&self, snap: &TableSnapshot) -> Result<Vec<T>, RepositoryError> {
        snap.scan(&self.table)?
            .into_iter()
            .map(|(k, row)| self.decode(&k, &row))
            .collect()
    }

    /// Number of values read through `snap`.
    pub fn len(&self, snap: &TableSnapshot) -> Result<usize, RepositoryError> {
        Ok(snap.count(&self.table)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        id: String,
        value: i64,
    }

    fn store(name: &str) -> Arc<TableStore> {
        let dir =
            std::env::temp_dir().join(format!("preserva-repo-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        )
    }

    fn repo(name: &str) -> Repository<Row> {
        Repository::new(store(name), "rows", |r: &Row| r.id.clone())
    }

    #[test]
    fn save_get_roundtrip() {
        let r = repo("roundtrip");
        let row = Row {
            id: "a".into(),
            value: 7,
        };
        r.save(&row).unwrap();
        let head = r.store().head();
        assert_eq!(r.get(head, "a").unwrap(), Some(row));
        assert_eq!(r.get(head, "missing").unwrap(), None);
    }

    #[test]
    fn save_all_is_one_commit() {
        let r = repo("batch");
        let rows: Vec<Row> = (0..20)
            .map(|i| Row {
                id: format!("r{i:02}"),
                value: i,
            })
            .collect();
        let before = r.store().engine().stats().commits;
        r.save_all(&rows).unwrap();
        assert_eq!(r.store().engine().stats().commits, before + 1);
        assert_eq!(r.load_all(r.store().head()).unwrap(), rows);
        assert_eq!(r.len(r.store().head()).unwrap(), 20);
    }

    #[test]
    fn stage_spans_repositories_atomically() {
        let s = store("span");
        let rows: Repository<Row> = Repository::new(s.clone(), "rows", |r| r.id.clone());
        let others: Repository<Row> = Repository::new(s.clone(), "others", |r| r.id.clone());
        let before = s.engine().stats().commits;
        let mut session = s.session();
        rows.stage(
            &mut session,
            &Row {
                id: "x".into(),
                value: 1,
            },
        )
        .unwrap();
        others
            .stage(
                &mut session,
                &Row {
                    id: "y".into(),
                    value: 2,
                },
            )
            .unwrap();
        session.commit().unwrap();
        assert_eq!(s.engine().stats().commits, before + 1);
        assert!(rows.get(s.head(), "x").unwrap().is_some());
        assert!(others.get(s.head(), "y").unwrap().is_some());
    }

    #[test]
    fn decode_failure_names_table_and_key() {
        let r = repo("damage");
        r.store().put("rows", b"bad", b"not json").unwrap();
        let err = r.get(r.store().head(), "bad").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("rows"),
            "message {msg:?} should name the table"
        );
        assert!(msg.contains("bad"), "message {msg:?} should name the key");
        assert!(
            std::error::Error::source(&err).is_some(),
            "codec errors keep their source chain"
        );
    }
}
