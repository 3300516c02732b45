//! Persistent curation history — the paper's ongoing work: "remodelling
//! FNJV metadata database to reflect the history of curation processes
//! (whenever a field is changed …)".
//!
//! [`HistoryStore`] journals [`crate::log::LogEntry`]s through the storage
//! engine (table `curation_history`, keyed by zero-padded sequence so
//! scans return chronological order) and answers the questions curators
//! ask: *what happened to this record?* and *how did this field evolve?*

use preserva_metadata::value::Value;
use preserva_storage::table::TableStore;
use preserva_storage::StorageError;

use crate::log::{CurationEvent, CurationLog, LogEntry};

/// Table holding journaled curation events.
pub const HISTORY_TABLE: &str = "curation_history";

/// Errors from the history store.
#[derive(Debug)]
pub enum HistoryError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// A journaled entry failed to (de)serialize.
    Decode(String),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Storage(e) => write!(f, "history storage: {e}"),
            HistoryError::Decode(m) => write!(f, "history decode: {m}"),
        }
    }
}

impl std::error::Error for HistoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HistoryError::Storage(e) => Some(e),
            HistoryError::Decode(_) => None,
        }
    }
}

impl From<StorageError> for HistoryError {
    fn from(e: StorageError) -> Self {
        HistoryError::Storage(e)
    }
}

/// Durable curation history over a shared table store.
pub struct HistoryStore<'a> {
    store: &'a TableStore,
}

impl<'a> HistoryStore<'a> {
    /// Wrap a store.
    pub fn new(store: &'a TableStore) -> Self {
        HistoryStore { store }
    }

    fn next_seq(&self) -> Result<u64, HistoryError> {
        // The highest existing key + 1, read from the keys alone: no
        // earlier entry's value is copied, and the store keeps no
        // counter state.
        Ok(self
            .store
            .head()
            .scan_keys(HISTORY_TABLE)?
            .last()
            .and_then(|k| std::str::from_utf8(k).ok())
            .and_then(|s| s.parse::<u64>().ok())
            .map(|s| s + 1)
            .unwrap_or(0))
    }

    /// Persist every entry of an in-memory log, assigning fresh global
    /// sequence numbers. The whole log lands in ONE storage commit: a
    /// crash mid-campaign never leaves a partial journal. Returns the
    /// count written.
    pub fn persist(&self, log: &CurationLog) -> Result<usize, HistoryError> {
        let base = self.next_seq()?;
        let mut session = self.store.session();
        let mut written = 0;
        for (offset, entry) in log.entries().iter().enumerate() {
            let seq = base + offset as u64;
            let mut persisted = entry.clone();
            persisted.seq = seq;
            let bytes =
                serde_json::to_vec(&persisted).map_err(|e| HistoryError::Decode(e.to_string()))?;
            session.put(HISTORY_TABLE, format!("{seq:020}").as_bytes(), &bytes)?;
            written += 1;
        }
        session.commit()?;
        Ok(written)
    }

    /// Every journaled entry, chronologically.
    pub fn all(&self) -> Result<Vec<LogEntry>, HistoryError> {
        self.store
            .head()
            .scan(HISTORY_TABLE)?
            .into_iter()
            .map(|(_, v)| {
                serde_json::from_slice(&v).map_err(|e| HistoryError::Decode(e.to_string()))
            })
            .collect()
    }

    /// Entries for one record, chronologically.
    pub fn for_record(&self, record_id: &str) -> Result<Vec<LogEntry>, HistoryError> {
        Ok(self
            .all()?
            .into_iter()
            .filter(|e| e.record_id == record_id)
            .collect())
    }

    /// The value history of one field of one record: `(seq, old, new)`
    /// per change, chronologically — the curator's "what did this field
    /// say before 2013?" query.
    pub fn field_history(
        &self,
        record_id: &str,
        field: &str,
    ) -> Result<Vec<(u64, Option<Value>, Value)>, HistoryError> {
        Ok(self
            .for_record(record_id)?
            .into_iter()
            .filter_map(|e| match e.event {
                CurationEvent::FieldChanged {
                    field: f, old, new, ..
                } if f == field => Some((e.seq, old, new)),
                _ => None,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use std::sync::Arc;

    fn store(name: &str) -> TableStore {
        let dir =
            std::env::temp_dir().join(format!("preserva-history-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap()
    }

    fn change(field: &str, old: Option<&str>, new: &str) -> CurationEvent {
        CurationEvent::FieldChanged {
            field: field.to_string(),
            old: old.map(|s| Value::Text(s.to_string())),
            new: Value::Text(new.to_string()),
            reason: "test".into(),
        }
    }

    #[test]
    fn persist_and_query_record_history() {
        let s = store("basic");
        let h = HistoryStore::new(&s);
        let mut log = CurationLog::new();
        log.append(
            "FNJV-1",
            "names",
            change("species", Some("hyla faber"), "Hyla faber"),
        );
        log.append(
            "FNJV-2",
            "dates",
            change("collect_date", None, "1982-03-15"),
        );
        assert_eq!(h.persist(&log).unwrap(), 2);
        assert_eq!(h.all().unwrap().len(), 2);
        let r1 = h.for_record("FNJV-1").unwrap();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].source, "names");
    }

    #[test]
    fn field_history_tracks_evolution() {
        let s = store("evolution");
        let h = HistoryStore::new(&s);
        // Two curation campaigns (2011, 2013) touching the same field.
        let mut log2011 = CurationLog::new();
        log2011.append(
            "FNJV-1",
            "stage1",
            change("species", Some("hyla faber"), "Hyla faber"),
        );
        h.persist(&log2011).unwrap();
        let mut log2013 = CurationLog::new();
        log2013.append(
            "FNJV-1",
            "names",
            change("species", Some("Hyla faber"), "Boana faber"),
        );
        h.persist(&log2013).unwrap();

        let hist = h.field_history("FNJV-1", "species").unwrap();
        assert_eq!(hist.len(), 2);
        assert!(hist[0].0 < hist[1].0, "chronological order");
        assert_eq!(hist[1].2, Value::Text("Boana faber".into()));
        // The first change's new value is the second's old value.
        assert_eq!(Some(hist[0].2.clone()), hist[1].1);
    }

    #[test]
    fn persist_is_one_commit_per_campaign() {
        let s = store("one-commit");
        let h = HistoryStore::new(&s);
        let mut log = CurationLog::new();
        for i in 0..10 {
            log.append("r", "p", change("f", None, &i.to_string()));
        }
        let before = s.engine().stats().commits;
        assert_eq!(h.persist(&log).unwrap(), 10);
        assert_eq!(s.engine().stats().commits, before + 1);
    }

    #[test]
    fn sequences_continue_across_persist_calls() {
        let s = store("seq");
        let h = HistoryStore::new(&s);
        let mut log = CurationLog::new();
        log.append("r", "p", change("f", None, "1"));
        h.persist(&log).unwrap();
        h.persist(&log).unwrap();
        let all = h.all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].seq, 0);
        assert_eq!(all[1].seq, 1);
    }

    #[test]
    fn a_later_persist_reads_no_earlier_values() {
        let s = store("keys-only");
        let h = HistoryStore::new(&s);
        let mut log = CurationLog::new();
        for i in 0..20 {
            log.append("r", "p", change("f", None, &i.to_string()));
        }
        h.persist(&log).unwrap();
        let value_bytes = s
            .engine()
            .metrics_registry()
            .counter("preserva_storage_value_bytes_read_total", "");
        let before = value_bytes.get();
        assert_eq!(h.persist(&log).unwrap(), 20);
        assert_eq!(
            value_bytes.get(),
            before,
            "finding the next sequence number copied earlier entries"
        );
        assert_eq!(h.all().unwrap().last().unwrap().seq, 39);
    }

    #[test]
    fn history_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("preserva-history-{}-reopen", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap();
            let h = HistoryStore::new(&s);
            let mut log = CurationLog::new();
            log.append("r", "p", change("f", None, "v"));
            h.persist(&log).unwrap();
        }
        let s = TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap();
        let h = HistoryStore::new(&s);
        assert_eq!(h.all().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_history_queries() {
        let s = store("empty");
        let h = HistoryStore::new(&s);
        assert!(h.all().unwrap().is_empty());
        assert!(h.for_record("nope").unwrap().is_empty());
        assert!(h.field_history("nope", "f").unwrap().is_empty());
    }
}
