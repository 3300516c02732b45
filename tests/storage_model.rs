//! Model-based test of the tiered storage engine.
//!
//! A random interleaving of puts, deletes, batches, memtable flushes,
//! forced compactions and full engine reopens is applied both to the real
//! engine (through [`TableStore`], so journaled tables are exercised too)
//! and to a trivially-correct in-memory model: a `BTreeMap` plus a
//! journal-head counter. After *every* operation the two must agree on
//! point reads, full scans, live counts, the set of live tables and the
//! journal head — including across reopen, which exercises manifest
//! loading, run opening and WAL replay.
//!
//! Compaction runs deterministically (background off, two runs per level)
//! so every flush can trigger the full flush → plan → merge → manifest
//! swap path inside the interleaving, not just at the end.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::{CompactionOptions, TableStore};

/// Plain tables (index 0, 1) and one journaled table (index 2).
const TABLES: [&str; 3] = ["records", "annotations", "specimens"];
const JOURNALED: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Put {
        table: usize,
        key: u8,
        value: Vec<u8>,
    },
    Delete {
        table: usize,
        key: u8,
    },
    /// One atomic session spanning several tables.
    Batch(Vec<(usize, u8, Option<Vec<u8>>)>),
    Checkpoint,
    Compact,
    Reopen,
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small key space: plenty of overwrites + cross-run shadowing.
    prop_oneof![
        4 => (0usize..TABLES.len(), 0u8..16, value_strategy())
            .prop_map(|(table, key, value)| Op::Put { table, key, value }),
        2 => (0usize..TABLES.len(), 0u8..16)
            .prop_map(|(table, key)| Op::Delete { table, key }),
        2 => proptest::collection::vec(
            (0usize..TABLES.len(), 0u8..16, proptest::option::of(value_strategy())),
            1..6
        )
        .prop_map(Op::Batch),
        2 => Just(Op::Checkpoint),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

/// The reference: live rows per (table index, key) and the journal head.
#[derive(Default)]
struct Model {
    rows: BTreeMap<(usize, Vec<u8>), Vec<u8>>,
    journal_head: u64,
}

fn open_store(dir: &std::path::Path) -> TableStore {
    let opts = EngineOptions {
        fsync: false,
        // Small threshold so auto-flush fires inside the interleaving.
        checkpoint_bytes: 512,
        metrics: None,
        compaction: CompactionOptions {
            background: false, // deterministic: drain after every flush
            max_runs_per_level: 2,
        },
    };
    let store = TableStore::new(Arc::new(Engine::open(dir, opts).unwrap())).unwrap();
    store.mark_journaled(TABLES[JOURNALED]).unwrap();
    store
}

fn check_agreement(store: &TableStore, model: &Model) {
    // Journal head.
    prop_assert_eq!(store.journal_head(), model.journal_head, "journal head");
    // Point reads over the whole key space, present and absent.
    for (t, table) in TABLES.iter().enumerate() {
        for key in 0u8..16 {
            let expect = model.rows.get(&(t, vec![key])).cloned();
            prop_assert_eq!(
                store.head().get(table, &[key]).unwrap(),
                expect,
                "get {}/{}",
                table,
                key
            );
        }
        // Full scan: same rows, same order.
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model
            .rows
            .range((t, vec![])..(t + 1, vec![]))
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(
            store.engine().head().scan_all(table).unwrap(),
            expect,
            "scan_all {}",
            table
        );
        // Live count.
        let expect_count = model.rows.range((t, vec![])..(t + 1, vec![])).count();
        prop_assert_eq!(
            store.head().count(table).unwrap(),
            expect_count,
            "count {}",
            table
        );
    }
    // Live user tables (the engine also holds journal/meta bookkeeping
    // tables, which the store namespaces away from user names).
    let expect_tables: Vec<String> = (0..TABLES.len())
        .filter(|t| model.rows.range((*t, vec![])..(*t + 1, vec![])).count() > 0)
        .map(|t| TABLES[t].to_string())
        .collect();
    let mut live: Vec<String> = store
        .engine()
        .head()
        .tables()
        .unwrap()
        .into_iter()
        .filter(|name| TABLES.contains(&name.as_str()))
        .collect();
    live.sort_by_key(|name| TABLES.iter().position(|t| t == name));
    let mut expect_sorted = expect_tables;
    expect_sorted.sort_by_key(|name| TABLES.iter().position(|t| *t == name.as_str()));
    prop_assert_eq!(live, expect_sorted, "live tables");
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("preserva-model-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in 0u64..u64::MAX,
    ) {
        let dir = tmpdir(&format!("{seed}"));
        let mut store = open_store(&dir);
        let mut model = Model::default();

        for op in &ops {
            match op {
                Op::Put { table, key, value } => {
                    store.put(TABLES[*table], &[*key], value).unwrap();
                    model.rows.insert((*table, vec![*key]), value.clone());
                    if *table == JOURNALED {
                        model.journal_head += 1;
                    }
                }
                Op::Delete { table, key } => {
                    store.delete(TABLES[*table], &[*key]).unwrap();
                    model.rows.remove(&(*table, vec![*key]));
                    if *table == JOURNALED {
                        model.journal_head += 1;
                    }
                }
                Op::Batch(items) => {
                    let mut s = store.session();
                    for (table, key, value) in items {
                        match value {
                            Some(v) => {
                                s.put(TABLES[*table], &[*key], v).unwrap();
                            }
                            None => {
                                s.delete(TABLES[*table], &[*key]).unwrap();
                            }
                        }
                    }
                    s.commit().unwrap();
                    for (table, key, value) in items {
                        match value {
                            Some(v) => {
                                model.rows.insert((*table, vec![*key]), v.clone());
                            }
                            None => {
                                model.rows.remove(&(*table, vec![*key]));
                            }
                        }
                    }
                    // One journal event per DISTINCT journaled key: staging
                    // the same key twice in a batch supersedes the earlier
                    // op's auto-event (last write wins).
                    let journaled: std::collections::BTreeSet<u8> = items
                        .iter()
                        .filter(|(t, _, _)| *t == JOURNALED)
                        .map(|(_, k, _)| *k)
                        .collect();
                    model.journal_head += journaled.len() as u64;
                }
                Op::Checkpoint => {
                    store.engine().checkpoint().unwrap();
                }
                Op::Compact => {
                    store.engine().compact().unwrap();
                }
                Op::Reopen => {
                    drop(store);
                    store = open_store(&dir);
                }
            }
            check_agreement(&store, &model);
        }

        // One final reopen: whatever the interleaving left on disk —
        // manifest, runs at several levels, a live WAL — must rebuild the
        // exact same state.
        drop(store);
        let store = open_store(&dir);
        check_agreement(&store, &model);
        std::fs::remove_dir_all(&dir).ok();
    }
}
