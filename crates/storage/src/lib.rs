#![warn(missing_docs)]

//! `preserva-storage` — the embedded storage engine that backs every
//! repository in the preserva architecture (data, workflow and provenance
//! repositories; see DESIGN.md §2).
//!
//! The paper's architecture delegates persistence to "the database
//! management system". We implement that substrate as a small
//! log-structured engine:
//!
//! * a segmented [`wal::Wal`] (write-ahead log) with CRC-checked framing
//!   and torn-tail tolerance provides durability;
//! * an ordered in-memory [`memtable::Memtable`] absorbs writes;
//! * [`sstable`] immutable sorted runs — produced by memtable-only
//!   flushes — carry a block index and bloom filter so point reads touch
//!   at most one data block per run;
//! * a crash-safe [`manifest`] records the committed run set and level
//!   of each run;
//! * [`compaction`] merges runs level by level in the background,
//!   folding tombstones at the bottom of the tree;
//! * [`engine::Engine`] ties these together with atomic multi-key commits,
//!   range scans and crash recovery (manifest + runs + WAL replay; a file
//!   in a format older builds wrote fails the open as
//!   [`StorageError::Unsupported`] and stays on disk);
//! * [`table::TableStore`] layers named tables and secondary indexes on
//!   top of the flat key space;
//! * the engine has exactly two write paths: the WAL commit
//!   ([`engine::Engine::apply_batch`], synced before it returns) and, for
//!   archive-scale bulk loads, presorted input written straight into a
//!   sorted run ([`engine::Engine::ingest_run`]), bypassing the WAL and
//!   memtable; flushes, bulk runs and compactions all install their
//!   output through one crash-ordered routine;
//! * [`view::ViewDriver`] keeps journal-derived views (search, provenance
//!   index, reassessment) current from a durable cursor.
//!
//! The engine is deliberately dependency-free: encoding lives in
//! [`codec`], checksums in [`crc32`].
//!
//! # Example
//!
//! ```
//! use preserva_storage::engine::{Engine, EngineOptions};
//!
//! let dir = std::env::temp_dir().join(format!("preserva-doc-{}", std::process::id()));
//! let engine = Engine::open(&dir, EngineOptions::default()).unwrap();
//! engine.put("records", b"fnjv:1", b"Elachistocleis ovalis").unwrap();
//! assert_eq!(
//!     engine.head().get("records", b"fnjv:1").unwrap().as_deref(),
//!     Some(&b"Elachistocleis ovalis"[..])
//! );
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod codec;
pub mod compaction;
pub mod crc32;
mod cursor;
pub mod engine;
pub mod error;
pub mod journal;
pub mod manifest;
pub mod memtable;
pub mod snapshot;
pub mod sstable;
pub mod table;
pub mod view;
pub mod wal;

pub use compaction::CompactionOptions;
pub use engine::{Engine, EngineOptions, EngineStats, Snapshot};
pub use error::{StorageError, StorageResult};
pub use journal::{JournalEntry, ROW_DELETED, ROW_UPSERTED};
pub use memtable::RangeTombstone;
pub use snapshot::{Lsn, SnapshotRegistry};
pub use table::{
    is_search_table, CommitReceipt, IndexDef, TableStore, WriteSession, SEARCH_PREFIX,
};
