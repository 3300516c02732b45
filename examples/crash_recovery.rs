//! Long-term preservation needs durable repositories: this example
//! simulates a crash between curation batches and shows that committed
//! name updates survive recovery while the torn, uncommitted batch is
//! rolled back — so the "originals + reference table" invariant holds
//! even across failures.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use preserva::storage::engine::{Engine, EngineOptions};
use preserva::storage::table::TableStore;
use preserva::storage::wal::{BatchOp, Wal};

fn main() {
    let dir = std::env::temp_dir().join(format!("preserva-ex-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Session 1: commit two name updates atomically via a write session.
    {
        let store = TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap();
        store
            .put("records", b"FNJV-000001", b"{original record}")
            .unwrap();
        let mut session = store.session();
        session
            .put(
                "updated_names",
                b"Elachistocleis ovalis",
                br#"{"new":"Nomen inquirenda","verified":false}"#,
            )
            .unwrap();
        session
            .put("name_refs", b"FNJV-000001", b"Elachistocleis ovalis")
            .unwrap();
        session.commit().unwrap();
        println!("committed session 1 (update + reference, atomically)");
    } // clean close

    // Simulate a crash mid-batch: write a Put with no Commit frame, as if
    // the process died between WAL append and commit.
    {
        let mut wal = Wal::open(&dir.join("wal.log"), false).unwrap();
        wal.append_op(&BatchOp::Put {
            table: "updated_names".into(),
            key: b"Hyla faber".to_vec(),
            value: b"{torn write!}".to_vec(),
        })
        .unwrap();
        wal.sync().unwrap();
        println!("simulated crash: torn batch 2 left in the WAL without a commit frame");
    }

    // Recovery.
    let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
    let stats = engine.stats();
    println!(
        "recovered: {} committed records replayed",
        stats.recovered_records
    );

    let committed = engine
        .head()
        .get("updated_names", b"Elachistocleis ovalis")
        .unwrap();
    let torn = engine.head().get("updated_names", b"Hyla faber").unwrap();
    let original = engine.head().get("records", b"FNJV-000001").unwrap();
    println!("  committed update survives:   {}", committed.is_some());
    println!("  torn update rolled back:     {}", torn.is_none());
    println!(
        "  original record untouched:   {}",
        original.as_deref() == Some(&b"{original record}"[..])
    );
    assert!(committed.is_some() && torn.is_none());
    assert_eq!(original.as_deref(), Some(&b"{original record}"[..]));

    // A checkpoint compacts everything into a snapshot; recovery again.
    engine.checkpoint().unwrap();
    drop(engine);
    let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
    assert!(engine
        .head()
        .get("updated_names", b"Elachistocleis ovalis")
        .unwrap()
        .is_some());
    println!("  snapshot recovery:           true");

    std::fs::remove_dir_all(&dir).ok();
}
