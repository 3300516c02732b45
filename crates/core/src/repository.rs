//! The typed repository layer, re-exported from `preserva_storage::rows`.
pub use preserva_storage::rows::{decode_row, Repository};

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_storage::table::TableStore;
    use serde::{Deserialize, Serialize};
    use std::sync::Arc;

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
