//! Named tables with secondary indexes and a change journal, layered
//! over [`crate::Engine`].
//!
//! Index entries live in shadow tables named `__idx:<table>:<index>` whose
//! keys are `indexed-value ++ 0x00 ++ primary-key`, so an index lookup is a
//! prefix scan and all maintenance happens in the same atomic batch as the
//! row write — an index can never disagree with its table after a crash.
//!
//! Tables registered with [`TableStore::mark_journaled`] additionally
//! append a [`JournalEntry`] per row write to the reserved `__journal`
//! table, again inside the same atomic batch, so the journal can never
//! claim a change that didn't land (or miss one that did). Committing a
//! [`WriteSession`] returns a [`CommitReceipt`] carrying the sequence
//! numbers assigned to this commit's events.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::codec::{get_u64, put_u64};
use crate::engine::{BatchOp, Engine, Snapshot};
use crate::error::{StorageError, StorageResult};
use crate::journal::{
    JournalEntry, JOURNAL_HEAD_KEY, JOURNAL_META_TABLE, JOURNAL_TABLE, ROW_DELETED, ROW_UPSERTED,
};
use crate::snapshot::Lsn;

/// One key slot per index of an [`IndexDef`], in name order; a `None`
/// slot leaves the row out of that index.
pub type IndexKeys = Vec<Option<Vec<u8>>>;

/// Extracts a row's [`IndexKeys`].
pub type KeyExtractor = Arc<dyn Fn(&[u8]) -> IndexKeys + Send + Sync>;

/// Declaration of a group of secondary indexes over a table fed by one
/// extractor: every row image is decoded once for all of them. Each
/// name keeps its own shadow table and backfill marker, so a group
/// reads and writes exactly what the same indexes registered one by one
/// would.
#[derive(Clone)]
pub struct IndexDef {
    /// Index names, unique within their table, in extractor slot order.
    pub names: Vec<String>,
    /// Key extractor applied once per row image.
    pub extract: KeyExtractor,
}

impl std::fmt::Debug for IndexDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexDef")
            .field("names", &self.names)
            .finish()
    }
}

impl IndexDef {
    /// One index from a one-key extractor: the one-name case of
    /// [`group`](Self::group).
    pub fn new<F>(name: &str, extract: F) -> Self
    where
        F: Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
    {
        Self::group(&[name], move |row: &[u8]| vec![extract(row)])
    }

    /// Several indexes fed by one extractor call per row image:
    /// `extract` returns one key slot per name, in `names` order.
    pub fn group<F>(names: &[&str], extract: F) -> Self
    where
        F: Fn(&[u8]) -> IndexKeys + Send + Sync + 'static,
    {
        IndexDef {
            names: names.iter().map(|n| n.to_string()).collect(),
            extract: Arc::new(extract),
        }
    }

    /// Key slots of one row image; an absent row has no keys.
    fn keys(&self, row: Option<&[u8]>) -> IndexKeys {
        match row {
            Some(row) => (self.extract)(row),
            None => vec![None; self.names.len()],
        }
    }
}

const IDX_PREFIX: &str = "__idx";
/// Reserved table recording which indexes have been backfilled.
const TABLE_META: &str = "__table_meta";
/// Reserved namespace for search-index tables (`__search:<name>`).
/// User table names can never contain ':', so nothing in this namespace
/// can collide with a user table; unlike the other `__` tables it is
/// writable through the normal [`TableStore`] API, which is exactly what
/// lets a search indexer commit postings and its journal cursor in one
/// atomic [`WriteSession`] batch.
pub const SEARCH_PREFIX: &str = "__search:";
const SEP: u8 = 0x00;

/// True for tables in the reserved search namespace. These pass the
/// reserved-name check (they are deliberately client-writable) but are
/// never journaled or indexed themselves.
pub fn is_search_table(name: &str) -> bool {
    name.strip_prefix(SEARCH_PREFIX)
        .is_some_and(|rest| !rest.is_empty() && !rest.contains(':'))
}

fn index_table(table: &str, index: &str) -> String {
    format!("{IDX_PREFIX}:{table}:{index}")
}

fn index_key(value: &[u8], pk: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(value.len() + 1 + pk.len());
    k.extend_from_slice(value);
    k.push(SEP);
    k.extend_from_slice(pk);
    k
}

fn backfill_marker(table: &str, index: &str) -> Vec<u8> {
    format!("idx-built:{table}:{index}").into_bytes()
}

fn check_name(name: &str) -> StorageResult<()> {
    // The search namespace is the one carve-out from the reserved-name
    // rule: `__search:x` is writable like a user table. Everything else
    // containing ':' or prefixed `__` (journal, index shadows, table
    // meta) stays internal-only.
    if is_search_table(name) {
        return Ok(());
    }
    if name.is_empty() || name.contains(':') || name.starts_with("__") {
        return Err(StorageError::InvalidTableName(name.to_string()));
    }
    Ok(())
}

/// Scan bounds for a journal page `(after_seq, after_seq ⊕ limit]`,
/// saturating at `u64::MAX`. `None` means the page is empty by
/// definition: a zero limit, or a cursor already at `u64::MAX` (the
/// old arithmetic wrapped both of these into silently-truncated
/// ranges). An exclusive end past `u64::MAX` becomes an unbounded
/// scan; the caller's `take(limit)` still bounds the page.
fn journal_page_bounds(after_seq: u64, limit: usize) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
    if limit == 0 {
        return None;
    }
    let first = after_seq.checked_add(1)?;
    let start = JournalEntry::storage_key(first);
    let end = first
        .checked_add(limit as u64)
        .map(JournalEntry::storage_key);
    Some((start, end))
}

/// Sequence range a [`WriteSession::commit`] assigned to its journal
/// entries, plus the engine commit LSN the whole batch landed at.
/// Commits that touched no journaled table and injected no events
/// return the empty receipt (journal fields zero; `lsn` still set when
/// any data was written).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitReceipt {
    /// First sequence number assigned, or 0 when no entries were written.
    pub first_seq: u64,
    /// Last sequence number assigned, or 0 when no entries were written.
    pub last_seq: u64,
    /// Commit LSN the batch was assigned, or 0 when nothing was staged.
    /// Every journal entry in `first_seq..=last_seq` became visible at
    /// exactly this LSN, so a journal cursor that stops at this receipt
    /// *is* a snapshot boundary: [`TableStore::snapshot_at`] with this
    /// LSN reads the precise state the cursor describes.
    pub lsn: Lsn,
}

impl CommitReceipt {
    /// Number of journal entries this commit appended.
    pub fn entries(&self) -> u64 {
        if self.last_seq == 0 {
            0
        } else {
            self.last_seq - self.first_seq + 1
        }
    }

    /// The journal head after this commit, if it appended anything.
    pub fn head(&self) -> Option<u64> {
        (self.last_seq != 0).then_some(self.last_seq)
    }
}

/// A store of named tables with registered secondary indexes and an
/// append-only change journal.
pub struct TableStore {
    engine: Arc<Engine>,
    /// The unpinned reader [`TableStore::head`] lends out.
    head: TableSnapshot,
    indexes: RwLock<HashMap<String, Vec<IndexDef>>>,
    /// Tables whose row writes auto-append journal events. Like indexes,
    /// journaling is code, not data: re-register after every open.
    journaled: RwLock<HashSet<String>>,
    /// Last journal sequence number whose entry has LANDED (its batch
    /// applied or ingested). Written only under `commit_lock`, after
    /// the engine write succeeds — so the head never names an entry a
    /// reader can't see, and never regresses.
    landed_head: AtomicU64,
    /// Serializes journal sequence assignment, and the old-value reads
    /// of indexed rows, with the engine write that lands them. Without
    /// it, two committers could land out of order: a tailer reading the
    /// later range would advance its cursor past the still-inflight
    /// earlier range (dropping it forever), the persisted head mirror
    /// could regress, letting a reopen reuse live sequence numbers, and
    /// two rewrites of one indexed key would both retract the same old
    /// index entry. A commit that fails after taking the lock burns no
    /// sequence numbers at all.
    commit_lock: Mutex<()>,
    /// Journal head watch: every commit path that appends entries
    /// notifies here after the batch lands, so change-feed tailers
    /// ([`TableStore::tail_journal`]) block instead of polling.
    watch: (Mutex<()>, Condvar),
}

impl std::fmt::Debug for TableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableStore")
            .field("journal_head", &self.journal_head())
            .finish()
    }
}

impl TableStore {
    /// Wrap an engine. Indexes and journaled-table registrations must be
    /// re-applied after every open — they are code, not data — and they
    /// must be registered before the first write of the session, so the
    /// shadow tables and journal never miss a mutation.
    ///
    /// The journal head is recovered with a point read of the mirrored
    /// head pointer; any entries a concurrent commit ordered after the
    /// recorded head are folded in by listing the (normally empty) tail's
    /// keys. Either read failing fails the open: a journal that read as
    /// empty would hand its live sequence numbers out again.
    pub fn new(engine: Arc<Engine>) -> StorageResult<TableStore> {
        let reader = engine.head();
        let mut seq = match reader.get(JOURNAL_META_TABLE, JOURNAL_HEAD_KEY)? {
            Some(v) => get_u64(&v)?.0,
            None => 0,
        };
        let tail = JournalEntry::storage_key(seq.saturating_add(1));
        if let Some(last) = reader.scan_keys(JOURNAL_TABLE, &tail, None)?.last() {
            let last = <[u8; 8]>::try_from(last.as_slice())
                .map_err(|_| StorageError::Decode(format!("journal key {last:?}")))?;
            seq = seq.max(u64::from_be_bytes(last));
        }
        Ok(TableStore {
            head: TableSnapshot {
                snap: reader.clone(),
            },
            engine,
            indexes: RwLock::new(HashMap::new()),
            journaled: RwLock::new(HashSet::new()),
            landed_head: AtomicU64::new(seq),
            commit_lock: Mutex::new(()),
            watch: (Mutex::new(()), Condvar::new()),
        })
    }

    /// Access the underlying engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Register `table` for automatic journaling: every subsequent row
    /// write appends a [`ROW_UPSERTED`]/[`ROW_DELETED`] event in the same
    /// atomic batch as the write itself.
    pub fn mark_journaled(&self, table: &str) -> StorageResult<()> {
        check_name(table)?;
        // Search tables are derived FROM the journal; journaling them
        // back into it would make every index run feed itself.
        if is_search_table(table) {
            return Err(StorageError::InvalidTableName(table.to_string()));
        }
        self.journaled
            .write()
            .expect("table store poisoned")
            .insert(table.to_string());
        Ok(())
    }

    /// Whether `table` is registered for automatic journaling.
    pub fn is_journaled(&self, table: &str) -> bool {
        self.journaled
            .read()
            .expect("table store poisoned")
            .contains(table)
    }

    /// Last LANDED journal sequence number; 0 when the journal is
    /// empty. Every entry up to this head has been committed and is
    /// readable — the head never runs ahead of the entries themselves.
    pub fn journal_head(&self) -> u64 {
        self.landed_head.load(Ordering::SeqCst)
    }

    /// The head reader: reads through it see the newest commit at the
    /// moment each read starts, pinning nothing ([`Engine::head`]). Take
    /// [`snapshot`](Self::snapshot) when several reads must agree.
    pub fn head(&self) -> &TableSnapshot {
        &self.head
    }

    /// Wake journal tailers after a commit appended entries. The mutex
    /// is taken (and immediately dropped) so a notification can never
    /// slip between a waiter's head check and its wait.
    fn notify_journal(&self) {
        let _guard = self.watch.0.lock().expect("journal watch poisoned");
        self.watch.1.notify_all();
    }

    /// Block until the journal head advances past `after_seq` or
    /// `timeout` elapses; returns the head either way. The wait is
    /// condvar-driven (woken by committing sessions and bulk loads),
    /// not a poll loop — the long-poll primitive under change-feed
    /// subscriptions. The head is the LANDED head, so a return with
    /// `head > after_seq` guarantees readable entries past the cursor.
    pub fn wait_for_journal(&self, after_seq: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut guard = self.watch.0.lock().expect("journal watch poisoned");
        loop {
            let head = self.journal_head();
            if head > after_seq {
                return head;
            }
            let now = Instant::now();
            if now >= deadline {
                return head;
            }
            let (g, _) = self
                .watch
                .1
                .wait_timeout(guard, deadline - now)
                .expect("journal watch poisoned");
            guard = g;
        }
    }

    /// Long-poll tail of the change feed: the next page after
    /// `after_seq` ([`TableSnapshot::read_journal`] at the head),
    /// waiting up to `timeout` for entries when the cursor is at the
    /// head. Returns an empty page only on timeout (or an exhausted /
    /// zero-limit cursor) — never because entries raced the read.
    pub fn tail_journal(
        &self,
        after_seq: u64,
        limit: usize,
        timeout: Duration,
    ) -> StorageResult<Vec<JournalEntry>> {
        if limit == 0 || after_seq == u64::MAX {
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + timeout;
        loop {
            // The head only advances after its entries have landed, so
            // a wake from wait_for_journal means the next read is
            // non-empty — the loop can never spin hot on an empty page.
            let page = self.head.read_journal(after_seq, limit)?;
            if !page.is_empty() {
                return Ok(page);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            self.wait_for_journal(after_seq, deadline - now);
        }
    }

    /// Register an index group, backfilling each of its indexes from
    /// existing rows the first time. Once built, a persistent marker per
    /// index records the fact, so re-registering after a reopen is one
    /// point read per index and commits nothing — no full-table value
    /// materialization — because every row write since the backfill has
    /// maintained the shadow tables inside its own atomic batch. A
    /// backfill calls the extractor once per row for the whole group.
    pub fn create_index(&self, table: &str, def: IndexDef) -> StorageResult<()> {
        check_name(table)?;
        // Search tables ARE indexes; stacking a shadow index on one is
        // a layering mistake, refused up front.
        if is_search_table(table) {
            return Err(StorageError::InvalidTableName(table.to_string()));
        }
        let mut unbuilt = Vec::new();
        for (slot, name) in def.names.iter().enumerate() {
            if self
                .engine
                .head()
                .get(TABLE_META, &backfill_marker(table, name))?
                .is_none()
            {
                unbuilt.push((slot, index_table(table, name)));
            }
        }
        if !unbuilt.is_empty() {
            let mut batch = Vec::new();
            for (pk, row) in self.engine.head().scan_all(table)? {
                let keys = (def.extract)(&row);
                for (slot, idx_table) in &unbuilt {
                    if let Some(Some(v)) = keys.get(*slot) {
                        batch.push(BatchOp::Put {
                            table: idx_table.clone(),
                            key: index_key(v, &pk),
                            value: pk.clone(),
                        });
                    }
                }
            }
            // Empty marker value: re-registration reads zero value bytes.
            for (slot, _) in &unbuilt {
                batch.push(BatchOp::Put {
                    table: TABLE_META.to_string(),
                    key: backfill_marker(table, &def.names[*slot]),
                    value: Vec::new(),
                });
            }
            self.engine.apply_batch(batch)?;
        }
        self.indexes
            .write()
            .expect("table store poisoned")
            .entry(table.to_string())
            .or_default()
            .push(def);
        Ok(())
    }

    /// Insert or update a row, maintaining indexes and journal atomically.
    pub fn put(&self, table: &str, key: &[u8], value: &[u8]) -> StorageResult<()> {
        let mut session = self.session();
        session.put(table, key, value)?;
        session.commit().map(|_| ())
    }

    /// Delete a row, maintaining indexes and journal atomically.
    pub fn delete(&self, table: &str, key: &[u8]) -> StorageResult<()> {
        let mut session = self.session();
        session.delete(table, key)?;
        session.commit().map(|_| ())
    }

    /// Bulk-load rows into `table` through the direct-run fast path:
    /// the rows, their index entries and their journal events are
    /// written straight into one level-1 sorted run
    /// ([`Engine::ingest_run`]), bypassing the WAL and memtable — one
    /// LSN, one journal sequence range, all-or-nothing after a crash.
    ///
    /// Rows are sorted and deduplicated here (last write per key wins,
    /// one journal event per key — the same batch semantics as a
    /// session). The keys must be FRESH: a bulk row shadows an existing
    /// row version correctly, but stale index entries of an overwritten
    /// row are not retracted — use sessions for updates.
    ///
    /// An empty `rows` is a clean no-op returning an empty receipt at
    /// the current head LSN.
    pub fn bulk_load(
        &self,
        table: &str,
        mut rows: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> StorageResult<CommitReceipt> {
        check_name(table)?;
        if rows.is_empty() {
            return Ok(CommitReceipt {
                first_seq: 0,
                last_seq: 0,
                lsn: self.engine.committed_lsn(),
            });
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        // Keep the LAST duplicate: stable sort preserves input order
        // within equal keys.
        rows.reverse();
        rows.dedup_by(|a, b| a.0 == b.0);
        rows.reverse();

        let indexes = self.indexes.read().expect("table store poisoned");
        let defs = indexes.get(table).map(Vec::as_slice).unwrap_or(&[]);
        let journaled = self.is_journaled(table);
        let mut entries: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::with_capacity(
            rows.len() * (1 + defs.len()) + if journaled { rows.len() + 1 } else { 0 },
        );
        for (key, value) in rows.iter() {
            entries.push((table.to_string(), key.clone(), value.clone()));
            for def in defs {
                for (name, v) in def.names.iter().zip((def.extract)(value)) {
                    if let Some(v) = v {
                        entries.push((index_table(table, name), index_key(&v, key), key.clone()));
                    }
                }
            }
        }
        drop(indexes);
        if !journaled {
            entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let lsn = self.engine.ingest_run(entries)?;
            return Ok(CommitReceipt {
                first_seq: 0,
                last_seq: 0,
                lsn,
            });
        }
        // Sequence numbers are assigned and landed under the commit
        // lock, so concurrent loads/sessions land their ranges in seq
        // order and a failed ingest burns nothing.
        let guard = self
            .commit_lock
            .lock()
            .expect("journal commit lock poisoned");
        let first = self.landed_head.load(Ordering::SeqCst) + 1;
        let last = first + rows.len() as u64 - 1;
        for (i, (key, _)) in rows.iter().enumerate() {
            let e = JournalEntry {
                seq: first + i as u64,
                kind: ROW_UPSERTED.to_string(),
                table: table.to_string(),
                key: key.clone(),
                payload: Vec::new(),
            };
            entries.push((
                JOURNAL_TABLE.to_string(),
                JournalEntry::storage_key(e.seq),
                e.encode(),
            ));
        }
        let mut head = Vec::new();
        put_u64(&mut head, last);
        entries.push((
            JOURNAL_META_TABLE.to_string(),
            JOURNAL_HEAD_KEY.to_vec(),
            head,
        ));
        entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let lsn = self.engine.ingest_run(entries)?;
        self.landed_head.store(last, Ordering::SeqCst);
        drop(guard);
        self.notify_journal();
        Ok(CommitReceipt {
            first_seq: first,
            last_seq: last,
            lsn,
        })
    }

    /// Open a [`WriteSession`] that accumulates puts and deletes across
    /// any number of tables and commits them as one atomic batch.
    pub fn session(&self) -> WriteSession<'_> {
        WriteSession {
            store: self,
            staged: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Pin a point-in-time view at the latest committed LSN. Every read
    /// through the returned [`TableSnapshot`] — across any number of
    /// tables — sees exactly that one consistent state, no matter how
    /// many commits, flushes or compactions land meanwhile.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            snap: self.engine.snapshot(),
        }
    }

    /// Pin a historical view at `lsn` (clamped to the current head) —
    /// time travel to any journaled commit, e.g. a
    /// [`CommitReceipt::lsn`] or a journal cursor boundary.
    pub fn snapshot_at(&self, lsn: Lsn) -> TableSnapshot {
        TableSnapshot {
            snap: self.engine.as_of(lsn),
        }
    }
}

/// A read view over a [`TableStore`] at one LSN, an engine [`Snapshot`]
/// that checks table names. [`TableStore::snapshot`] and
/// [`TableStore::snapshot_at`] pin one: holding it blocks compaction
/// from folding the versions it can see, so drop it when done.
/// [`TableStore::head`] lends the unpinned head reader.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    snap: Snapshot,
}

impl TableSnapshot {
    /// The commit LSN this view reads at; [`Lsn::MAX`] for the head.
    pub fn lsn(&self) -> Lsn {
        self.snap.lsn()
    }

    /// Read a row.
    pub fn get(&self, table: &str, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        check_name(table)?;
        self.snap.get(table, key)
    }

    /// All rows of a table in key order.
    pub fn scan(&self, table: &str) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        check_name(table)?;
        self.snap.scan_all(table)
    }

    /// Primary keys of rows whose indexed value equals `value`. The
    /// shadow table is versioned like any other, so through a pinned
    /// snapshot this agrees with [`scan`](Self::scan) of the base table
    /// even while writers churn.
    pub fn lookup(&self, table: &str, index: &str, value: &[u8]) -> StorageResult<Vec<Vec<u8>>> {
        check_name(table)?;
        let idx_table = index_table(table, index);
        let mut start = value.to_vec();
        start.push(SEP);
        let mut end = value.to_vec();
        end.push(SEP + 1);
        let hits = self.snap.scan(&idx_table, &start, Some(&end))?;
        Ok(hits.into_iter().map(|(_, pk)| pk).collect())
    }

    /// Number of live rows in a table.
    pub fn count(&self, table: &str) -> StorageResult<usize> {
        check_name(table)?;
        self.snap.count(table)
    }

    /// Live primary keys of `table` in key order, copying no value
    /// bytes — use instead of [`scan`](Self::scan) when only the keys
    /// matter.
    pub fn scan_keys(&self, table: &str) -> StorageResult<Vec<Vec<u8>>> {
        check_name(table)?;
        self.snap.scan_keys(table, b"", None)
    }

    /// Rows of `table` with keys in `[start, end)`, in key order.
    pub fn scan_range(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        check_name(table)?;
        self.snap.scan(table, start, end)
    }

    /// Journal entries with sequence numbers in `(after_seq, after_seq
    /// ⊕ limit]` (saturating at `u64::MAX`), in order: through a pinned
    /// snapshot, a cursor replay never sees entries from commits after
    /// the pin. `limit == 0` or an exhausted cursor (`after_seq ==
    /// u64::MAX`) reads empty, never wraps. A cursor replay loops until
    /// this returns empty; chunked reads of any page size observe the
    /// same entries as one unbounded read (property-tested).
    pub fn read_journal(&self, after_seq: u64, limit: usize) -> StorageResult<Vec<JournalEntry>> {
        let Some((start, end)) = journal_page_bounds(after_seq, limit) else {
            return Ok(Vec::new());
        };
        let rows = self.snap.scan(JOURNAL_TABLE, &start, end.as_deref())?;
        rows.iter()
            .take(limit)
            .map(|(_, v)| JournalEntry::decode(v))
            .collect()
    }
}

/// A multi-table write session: puts and deletes staged against a
/// [`TableStore`] that commit together as one `Engine::apply_batch` —
/// one WAL commit frame, one fsync. Index maintenance and journal
/// entries are folded into the same batch, so after a crash either the
/// whole session (rows, index entries and journal events alike) is
/// visible or none of it is.
///
/// Dropping a session without calling [`WriteSession::commit`] discards
/// every staged operation and event.
pub struct WriteSession<'a> {
    store: &'a TableStore,
    /// Operations in the order staged: `Some(value)` puts, `None`
    /// deletes. The one copy of each value the session makes; commit
    /// moves table, key and value on into the batch.
    staged: Vec<(String, Vec<u8>, Option<Vec<u8>>)>,
    /// Explicitly injected journal events (kind, source, key, payload);
    /// sequence numbers are assigned at commit.
    events: Vec<(String, String, Vec<u8>, Vec<u8>)>,
}

impl std::fmt::Debug for WriteSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteSession")
            .field("staged", &self.staged.len())
            .field("events", &self.events.len())
            .finish()
    }
}

impl WriteSession<'_> {
    /// Stage an insert or update.
    pub fn put(&mut self, table: &str, key: &[u8], value: &[u8]) -> StorageResult<&mut Self> {
        check_name(table)?;
        self.stage(table, key, Some(value.to_vec()));
        Ok(self)
    }

    /// Stage a deletion.
    pub fn delete(&mut self, table: &str, key: &[u8]) -> StorageResult<&mut Self> {
        check_name(table)?;
        self.stage(table, key, None);
        Ok(self)
    }

    /// Stage a typed journal event to commit atomically with the data
    /// mutations. `source` is a logical origin (a table name or a
    /// subsystem like `"taxonomy"`); `kind` is an opaque event type for
    /// consumers to dispatch on. Row events for journaled tables are
    /// appended automatically — this is for everything else (field-level
    /// changes, checklist swaps, external-source version bumps).
    pub fn journal(&mut self, kind: &str, source: &str, key: &[u8], payload: &[u8]) -> &mut Self {
        self.events.push((
            kind.to_string(),
            source.to_string(),
            key.to_vec(),
            payload.to_vec(),
        ));
        self
    }

    fn stage(&mut self, table: &str, key: &[u8], value: Option<Vec<u8>>) {
        self.staged.push((table.to_string(), key.to_vec(), value));
    }

    /// Read through the session: the newest staged write of the key
    /// shadows the stored row. Finding it walks the staged ops, newest
    /// first, so it costs O(staged ops) per call.
    pub fn get(&self, table: &str, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        check_name(table)?;
        let staged = self
            .staged
            .iter()
            .rev()
            .find(|(t, k, _)| t == table && k == key);
        if let Some((_, _, v)) = staged {
            return Ok(v.clone());
        }
        self.store.engine.head().get(table, key)
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing has been staged yet.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty() && self.events.is_empty()
    }

    /// Commit every staged operation — plus the index maintenance and
    /// journal entries they imply — as a single atomic batch, returning
    /// the sequence range assigned to this commit's journal events.
    ///
    /// A session staging several writes to one key replays them in
    /// order; indexes are maintained against the evolving in-session
    /// state, not just the stored rows. Tables with no registered
    /// indexes skip the old-value point read entirely. Journaled tables
    /// emit ONE row event per key — the last staged op wins — so the
    /// change feed describes the state the batch leaves behind, not
    /// every intermediate write.
    pub fn commit(self) -> StorageResult<CommitReceipt> {
        let WriteSession {
            store,
            staged,
            events: injected,
        } = self;
        if staged.is_empty() && injected.is_empty() {
            // A clean no-op: no batch reaches the engine (no WAL commit
            // frame, no LSN burned), and the receipt's empty seq range
            // still points at a valid snapshot boundary — the current
            // head LSN, i.e. the state this commit left unchanged.
            return Ok(CommitReceipt {
                first_seq: 0,
                last_seq: 0,
                lsn: store.engine.committed_lsn(),
            });
        }

        // Automatic row events for journaled tables: ONE event per
        // (table, key) — the last staged op wins, both its kind and its
        // position in the commit's event order, mirroring the row state
        // the batch actually leaves behind. Explicitly injected events
        // follow, never deduplicated.
        let mut auto: Vec<Option<JournalEntry>> = Vec::new();
        {
            let journaled = store.journaled.read().expect("table store poisoned");
            let mut last_for: HashMap<(&str, &[u8]), usize> = HashMap::new();
            for (table, key, value) in &staged {
                if journaled.contains(table) {
                    if let Some(prev) = last_for.insert((table, key), auto.len()) {
                        auto[prev] = None;
                    }
                    auto.push(Some(JournalEntry {
                        seq: 0,
                        kind: if value.is_some() {
                            ROW_UPSERTED
                        } else {
                            ROW_DELETED
                        }
                        .to_string(),
                        table: table.clone(),
                        key: key.clone(),
                        payload: Vec::new(),
                    }));
                }
            }
        }
        let mut events: Vec<JournalEntry> = auto.into_iter().flatten().collect();
        events.extend(
            injected
                .into_iter()
                .map(|(kind, source, key, payload)| JournalEntry {
                    seq: 0,
                    kind,
                    table: source,
                    key,
                    payload,
                }),
        );

        let indexes = store.indexes.read().expect("table store poisoned");
        // Old-value reads, seq assignment and the batch that lands them
        // are one critical section whenever the commit writes an indexed
        // table or carries events: two sessions rewriting one key would
        // otherwise both retract the same old index entry and both add
        // their own; journal ranges land in seq order (a tailer can never
        // skip an in-flight earlier range), the persisted head mirror is
        // monotonic, and an apply error burns no seqs.
        let indexed = staged
            .iter()
            .any(|(table, ..)| indexes.get(table).is_some_and(|defs| !defs.is_empty()));
        let guard = (indexed || !events.is_empty()).then(|| {
            store
                .commit_lock
                .lock()
                .expect("journal commit lock poisoned")
        });
        let mut batch = Vec::with_capacity(staged.len() + events.len());
        // Index keys of the image each key held before the op being
        // generated, per def, so repeated writes to one key within the
        // session produce correct index ops and every row image goes
        // through each extractor once.
        let mut current: HashMap<(String, Vec<u8>), Vec<IndexKeys>> = HashMap::new();
        for (table, key, new_value) in staged {
            let defs = indexes.get(&table).filter(|d| !d.is_empty());
            if let Some(defs) = defs {
                let slot = (table.clone(), key.clone());
                let old_keys = match current.remove(&slot) {
                    Some(keys) => keys,
                    None => {
                        let old = store.engine.head().get(&table, &key)?;
                        defs.iter().map(|def| def.keys(old.as_deref())).collect()
                    }
                };
                let new_keys: Vec<_> = defs
                    .iter()
                    .map(|def| def.keys(new_value.as_deref()))
                    .collect();
                for ((def, old_k), new_k) in defs.iter().zip(&old_keys).zip(&new_keys) {
                    for ((name, old_v), new_v) in def.names.iter().zip(old_k).zip(new_k) {
                        if old_v == new_v {
                            continue;
                        }
                        let idx_table = index_table(&table, name);
                        if let Some(ov) = old_v {
                            batch.push(BatchOp::Delete {
                                table: idx_table.clone(),
                                key: index_key(ov, &key),
                            });
                        }
                        if let Some(nv) = new_v {
                            batch.push(BatchOp::Put {
                                table: idx_table,
                                key: index_key(nv, &key),
                                value: key.clone(),
                            });
                        }
                    }
                }
                current.insert(slot, new_keys);
            }
            batch.push(match new_value {
                Some(value) => BatchOp::Put { table, key, value },
                None => BatchOp::Delete { table, key },
            });
        }
        drop(indexes);

        if events.is_empty() {
            let lsn = store.engine.apply_batch(batch)?;
            return Ok(CommitReceipt {
                first_seq: 0,
                last_seq: 0,
                lsn,
            });
        }
        let n = events.len() as u64;
        let first = store.landed_head.load(Ordering::SeqCst) + 1;
        let last = first + n - 1;
        for (i, mut e) in events.into_iter().enumerate() {
            e.seq = first + i as u64;
            batch.push(BatchOp::Put {
                table: JOURNAL_TABLE.to_string(),
                key: JournalEntry::storage_key(e.seq),
                value: e.encode(),
            });
        }
        let mut head = Vec::new();
        put_u64(&mut head, last);
        batch.push(BatchOp::Put {
            table: JOURNAL_META_TABLE.to_string(),
            key: JOURNAL_HEAD_KEY.to_vec(),
            value: head,
        });
        let lsn = store.engine.apply_batch(batch)?;
        store.landed_head.store(last, Ordering::SeqCst);
        drop(guard);
        store.notify_journal();
        Ok(CommitReceipt {
            first_seq: first,
            last_seq: last,
            lsn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use std::path::PathBuf;

    fn store_dir(name: &str) -> PathBuf {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("preserva-table-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(name: &str) -> TableStore {
        TableStore::new(Arc::new(
            Engine::open(&store_dir(name), EngineOptions::default()).unwrap(),
        ))
        .unwrap()
    }

    /// Index on the first byte of the row value.
    fn first_byte_index() -> IndexDef {
        IndexDef::new("first", |row: &[u8]| row.first().map(|b| vec![*b]))
    }

    /// A four-index group keyed on the row's first four bytes, counting
    /// its extractor calls.
    fn counted_group(calls: &Arc<AtomicU64>) -> IndexDef {
        let calls = calls.clone();
        IndexDef::group(&["b0", "b1", "b2", "b3"], move |row: &[u8]| {
            calls.fetch_add(1, Ordering::SeqCst);
            (0..4).map(|i| row.get(i).map(|b| vec![*b])).collect()
        })
    }

    #[test]
    fn group_insert_and_update_extract_once_per_row_image() {
        let s = store("group-session");
        let calls = Arc::new(AtomicU64::new(0));
        s.create_index("t", counted_group(&calls)).unwrap();
        s.put("t", b"pk", b"ABCD").unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "a fresh insert has one image"
        );
        s.put("t", b"pk", b"ABXY").unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "an update extracts its old and its new image once each"
        );
        for (index, key) in [("b0", b"A"), ("b1", b"B"), ("b2", b"X"), ("b3", b"Y")] {
            assert_eq!(
                s.head().lookup("t", index, key).unwrap(),
                vec![b"pk".to_vec()]
            );
        }
        assert!(s.head().lookup("t", "b2", b"C").unwrap().is_empty());
    }

    #[test]
    fn group_bulk_load_extracts_once_per_row() {
        let s = store("group-bulk");
        let calls = Arc::new(AtomicU64::new(0));
        s.create_index("t", counted_group(&calls)).unwrap();
        let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..10u8).map(|i| (vec![i], vec![b'A', i])).collect();
        s.bulk_load("t", rows).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 10);
        assert_eq!(s.head().lookup("t", "b0", b"A").unwrap().len(), 10);
        assert_eq!(s.head().lookup("t", "b1", &[7]).unwrap(), vec![vec![7]]);
        assert!(
            s.head().lookup("t", "b2", b"A").unwrap().is_empty(),
            "short rows skip b2"
        );
    }

    #[test]
    fn group_backfill_extracts_once_per_row() {
        let s = store("group-backfill");
        for i in 0..10u8 {
            s.put("t", &[i], &[b'A', i, b'C', b'D']).unwrap();
        }
        let calls = Arc::new(AtomicU64::new(0));
        s.create_index("t", counted_group(&calls)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 10);
        assert_eq!(s.head().lookup("t", "b3", b"D").unwrap().len(), 10);
        assert_eq!(s.head().lookup("t", "b1", &[3]).unwrap(), vec![vec![3]]);
    }

    #[test]
    fn reregistering_a_built_group_commits_nothing() {
        let dir = store_dir("group-marker");
        {
            // Built one index at a time: the group reads the same
            // shadow tables and markers.
            let s = TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap();
            for (i, name) in ["b0", "b1", "b2", "b3"].into_iter().enumerate() {
                let def = IndexDef::new(name, move |row: &[u8]| row.get(i).map(|b| vec![*b]));
                s.create_index("t", def).unwrap();
            }
            s.put("t", b"pk", b"ABCD").unwrap();
        }
        let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
        let s = TableStore::new(engine.clone()).unwrap();
        let (lsn, commits) = (engine.committed_lsn(), engine.stats().commits);
        let calls = Arc::new(AtomicU64::new(0));
        s.create_index("t", counted_group(&calls)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no backfill");
        assert_eq!(engine.committed_lsn(), lsn, "no commit");
        assert_eq!(engine.stats().commits, commits);
        assert_eq!(
            s.head().lookup("t", "b2", b"C").unwrap(),
            vec![b"pk".to_vec()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reserved_table_names_rejected() {
        let s = store("reserved");
        assert!(s.put("__idx:t:i", b"k", b"v").is_err());
        assert!(s.put("a:b", b"k", b"v").is_err());
        assert!(s.put("", b"k", b"v").is_err());
        assert!(s.mark_journaled("__journal").is_err());
    }

    #[test]
    fn search_namespace_is_writable_but_never_journaled_or_indexed() {
        let s = store("search-ns");
        // The carve-out: `__search:<name>` behaves like a user table...
        s.put("__search:postings", b"k", b"v").unwrap();
        assert_eq!(
            s.head().get("__search:postings", b"k").unwrap(),
            Some(b"v".to_vec())
        );
        let mut sess = s.session();
        sess.put("__search:meta", b"state", b"{}").unwrap();
        sess.delete("__search:postings", b"k").unwrap();
        sess.commit().unwrap();
        assert_eq!(s.head().get("__search:postings", b"k").unwrap(), None);
        // ...but cannot itself be journaled or carry secondary indexes,
        assert!(s.mark_journaled("__search:postings").is_err());
        assert!(s
            .create_index("__search:postings", IndexDef::new("i", |_| None))
            .is_err());
        // and malformed names in the namespace stay rejected.
        assert!(s.put("__search:", b"k", b"v").is_err());
        assert!(s.put("__search:a:b", b"k", b"v").is_err());
        assert!(s.put("__searchx", b"k", b"v").is_err());
        // Writes to search tables append no journal entries.
        assert_eq!(s.journal_head(), 0);
    }

    #[test]
    fn index_lookup_finds_rows() {
        let s = store("lookup");
        s.create_index("t", first_byte_index()).unwrap();
        s.put("t", b"pk1", b"Afrog").unwrap();
        s.put("t", b"pk2", b"Abird").unwrap();
        s.put("t", b"pk3", b"Bbat").unwrap();
        let mut hits = s.head().lookup("t", "first", b"A").unwrap();
        hits.sort();
        assert_eq!(hits, vec![b"pk1".to_vec(), b"pk2".to_vec()]);
        assert_eq!(
            s.head().lookup("t", "first", b"B").unwrap(),
            vec![b"pk3".to_vec()]
        );
        assert!(s.head().lookup("t", "first", b"Z").unwrap().is_empty());
    }

    #[test]
    fn index_updates_on_row_change() {
        let s = store("update");
        s.create_index("t", first_byte_index()).unwrap();
        s.put("t", b"pk", b"Aone").unwrap();
        s.put("t", b"pk", b"Btwo").unwrap();
        assert!(s.head().lookup("t", "first", b"A").unwrap().is_empty());
        assert_eq!(
            s.head().lookup("t", "first", b"B").unwrap(),
            vec![b"pk".to_vec()]
        );
    }

    #[test]
    fn index_removes_on_delete() {
        let s = store("delete");
        s.create_index("t", first_byte_index()).unwrap();
        s.put("t", b"pk", b"Aone").unwrap();
        s.delete("t", b"pk").unwrap();
        assert!(s.head().lookup("t", "first", b"A").unwrap().is_empty());
        assert_eq!(s.head().get("t", b"pk").unwrap(), None);
    }

    #[test]
    fn backfill_indexes_existing_rows() {
        let s = store("backfill");
        s.put("t", b"pk1", b"Aone").unwrap();
        s.put("t", b"pk2", b"Btwo").unwrap();
        s.create_index("t", first_byte_index()).unwrap();
        assert_eq!(
            s.head().lookup("t", "first", b"A").unwrap(),
            vec![b"pk1".to_vec()]
        );
        assert_eq!(
            s.head().lookup("t", "first", b"B").unwrap(),
            vec![b"pk2".to_vec()]
        );
    }

    #[test]
    fn extractor_none_skips_row() {
        let s = store("skip");
        s.create_index(
            "t",
            IndexDef::new("maybe", |row: &[u8]| {
                if row.starts_with(b"yes") {
                    Some(b"y".to_vec())
                } else {
                    None
                }
            }),
        )
        .unwrap();
        s.put("t", b"pk1", b"yes-row").unwrap();
        s.put("t", b"pk2", b"no-row").unwrap();
        assert_eq!(
            s.head().lookup("t", "maybe", b"y").unwrap(),
            vec![b"pk1".to_vec()]
        );
    }

    #[test]
    fn session_commits_across_tables_in_one_batch() {
        let s = store("session-multi");
        let before = s.engine().stats().commits;
        let mut session = s.session();
        session.put("records", b"r1", b"one").unwrap();
        session.put("records", b"r2", b"two").unwrap();
        session.put("catalog", b"c1", b"meta").unwrap();
        session.delete("records", b"absent").unwrap();
        session.commit().unwrap();
        assert_eq!(s.engine().stats().commits, before + 1);
        assert_eq!(
            s.head().get("records", b"r1").unwrap(),
            Some(b"one".to_vec())
        );
        assert_eq!(
            s.head().get("records", b"r2").unwrap(),
            Some(b"two".to_vec())
        );
        assert_eq!(
            s.head().get("catalog", b"c1").unwrap(),
            Some(b"meta".to_vec())
        );
    }

    #[test]
    fn session_maintains_indexes_atomically() {
        let s = store("session-idx");
        s.create_index("t", first_byte_index()).unwrap();
        s.put("t", b"pk", b"Aone").unwrap();
        let mut session = s.session();
        // Two writes to one key within the session: index ops must track
        // the evolving in-session value, ending at "C".
        session.put("t", b"pk", b"Btwo").unwrap();
        session.put("t", b"pk", b"Cthree").unwrap();
        session.put("t", b"pk2", b"Cfour").unwrap();
        session.commit().unwrap();
        assert!(s.head().lookup("t", "first", b"A").unwrap().is_empty());
        assert!(s.head().lookup("t", "first", b"B").unwrap().is_empty());
        let mut hits = s.head().lookup("t", "first", b"C").unwrap();
        hits.sort();
        assert_eq!(hits, vec![b"pk".to_vec(), b"pk2".to_vec()]);
    }

    #[test]
    fn session_reads_its_own_writes() {
        let s = store("session-ryw");
        s.put("t", b"k", b"stored").unwrap();
        let mut session = s.session();
        assert_eq!(session.get("t", b"k").unwrap(), Some(b"stored".to_vec()));
        session.put("t", b"k", b"staged").unwrap();
        assert_eq!(session.get("t", b"k").unwrap(), Some(b"staged".to_vec()));
        session.delete("t", b"k").unwrap();
        assert_eq!(session.get("t", b"k").unwrap(), None);
        // Nothing visible outside the session until commit.
        assert_eq!(s.head().get("t", b"k").unwrap(), Some(b"stored".to_vec()));
    }

    #[test]
    fn dropped_session_discards_staged_ops() {
        let s = store("session-drop");
        let before = s.engine().stats().commits;
        {
            let mut session = s.session();
            session.put("t", b"k", b"v").unwrap();
        }
        assert_eq!(s.head().get("t", b"k").unwrap(), None);
        assert_eq!(s.engine().stats().commits, before);
    }

    #[test]
    fn empty_session_commit_is_free() {
        let s = store("session-empty");
        let before = s.engine().stats().commits;
        let receipt = s.session().commit().unwrap();
        assert_eq!(s.engine().stats().commits, before);
        assert_eq!((receipt.first_seq, receipt.last_seq), (0, 0));
        assert_eq!(receipt.entries(), 0);
        assert_eq!(receipt.head(), None);
        assert_eq!(
            receipt.lsn,
            s.engine().committed_lsn(),
            "empty receipt still names a valid snapshot boundary"
        );
    }

    #[test]
    fn session_rejects_reserved_table_names() {
        let s = store("session-reserved");
        let mut session = s.session();
        assert!(session.put("__idx:t:i", b"k", b"v").is_err());
        assert!(session.delete("a:b", b"k").is_err());
    }

    #[test]
    fn scan_excludes_index_shadow_tables() {
        let s = store("shadow");
        s.create_index("t", first_byte_index()).unwrap();
        s.put("t", b"pk", b"Aone").unwrap();
        let rows = s.head().scan("t").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, b"pk".to_vec());
    }

    #[test]
    fn journaled_table_emits_row_events() {
        let s = store("journal-rows");
        s.mark_journaled("records").unwrap();
        let before = s.engine().stats().commits;
        let mut session = s.session();
        session.put("records", b"r1", b"one").unwrap();
        session.put("records", b"r2", b"two").unwrap();
        session.delete("records", b"r1").unwrap();
        let receipt = session.commit().unwrap();
        // Data, indexes and journal land in ONE engine commit, and a key
        // staged twice journals once — the last op wins (r1's put is
        // superseded by its delete).
        assert_eq!(s.engine().stats().commits, before + 1);
        assert_eq!((receipt.first_seq, receipt.last_seq), (1, 2));
        assert_eq!(
            receipt.lsn,
            s.engine().committed_lsn(),
            "receipt carries the engine commit LSN"
        );
        assert_eq!(receipt.entries(), 2);
        assert_eq!(s.journal_head(), 2);
        let entries = s.head().read_journal(0, 100).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, ROW_UPSERTED);
        assert_eq!(entries[0].key, b"r2".to_vec());
        assert_eq!(entries[1].kind, ROW_DELETED);
        assert_eq!(entries[1].key, b"r1".to_vec());
        assert!(entries.iter().all(|e| e.table == "records"));
    }

    #[test]
    fn non_journaled_tables_emit_nothing() {
        let s = store("journal-off");
        s.put("t", b"k", b"v").unwrap();
        let mut session = s.session();
        session.put("t", b"k2", b"v2").unwrap();
        let receipt = session.commit().unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (0, 0));
        assert!(receipt.lsn > 0, "data commit still carries its LSN");
        assert_eq!(s.journal_head(), 0);
        assert!(s.head().read_journal(0, 10).unwrap().is_empty());
    }

    #[test]
    fn injected_events_commit_with_data() {
        let s = store("journal-inject");
        let before = s.engine().stats().commits;
        let mut session = s.session();
        session.put("meta", b"backbone", b"2013").unwrap();
        session.journal("checklist-changed", "taxonomy", b"2005->2013", b"renames=7");
        session.journal(
            "name-status-changed",
            "taxonomy",
            b"hyla faber",
            b"synonymized",
        );
        let receipt = session.commit().unwrap();
        assert_eq!(s.engine().stats().commits, before + 1);
        assert_eq!(receipt.entries(), 2);
        let entries = s.head().read_journal(0, 10).unwrap();
        assert_eq!(entries[0].kind, "checklist-changed");
        assert_eq!(entries[0].table, "taxonomy");
        assert_eq!(entries[1].kind, "name-status-changed");
        assert_eq!(entries[1].payload, b"synonymized".to_vec());
    }

    #[test]
    fn events_only_session_commits() {
        let s = store("journal-only-events");
        let mut session = s.session();
        session.journal("source-changed", "col", b"col", b"v2");
        assert!(!session.is_empty());
        let receipt = session.commit().unwrap();
        assert_eq!(receipt.entries(), 1);
        assert_eq!(s.journal_head(), 1);
    }

    #[test]
    fn direct_put_and_delete_are_journaled() {
        let s = store("journal-direct");
        s.mark_journaled("t").unwrap();
        s.put("t", b"k", b"v").unwrap();
        s.delete("t", b"k").unwrap();
        let entries = s.head().read_journal(0, 10).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, ROW_UPSERTED);
        assert_eq!(entries[1].kind, ROW_DELETED);
    }

    #[test]
    fn read_journal_cursor_and_limit() {
        let s = store("journal-cursor");
        s.mark_journaled("t").unwrap();
        for i in 0..10u8 {
            s.put("t", &[i], b"v").unwrap();
        }
        let first = s.head().read_journal(0, 4).unwrap();
        assert_eq!(
            first.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let next = s.head().read_journal(4, 4).unwrap();
        assert_eq!(
            next.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![5, 6, 7, 8]
        );
        let tail = s.head().read_journal(8, 100).unwrap();
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![9, 10]);
        assert!(s.head().read_journal(10, 100).unwrap().is_empty());
    }

    #[test]
    fn reopen_resumes_sequence_numbers() {
        let dir = store_dir("journal-reopen");
        {
            let s = TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap();
            s.mark_journaled("t").unwrap();
            s.put("t", b"a", b"1").unwrap();
            s.put("t", b"b", b"2").unwrap();
            assert_eq!(s.journal_head(), 2);
        }
        let s = TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap();
        assert_eq!(s.journal_head(), 2, "head recovered from meta point read");
        s.mark_journaled("t").unwrap();
        s.put("t", b"c", b"3").unwrap();
        assert_eq!(s.journal_head(), 3);
        let entries = s.head().read_journal(2, 10).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 3);
        assert_eq!(entries[0].key, b"c".to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_journal_head_block_fails_the_open() {
        let dir = store_dir("journal-damaged");
        {
            let s = TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap();
            s.mark_journaled("t").unwrap();
            for i in 0..200 {
                s.put("t", format!("k{i:04}").as_bytes(), b"v").unwrap();
            }
            s.engine().checkpoint().unwrap();
        }
        // Flip one byte of the run block holding the head pointer; the
        // journal's tail shares that block, its first entries do not.
        let runs = crate::manifest::list_run_files(&dir).unwrap();
        assert_eq!(runs.len(), 1);
        let mut bytes = std::fs::read(&runs[0].1).unwrap();
        let meta = JOURNAL_META_TABLE.as_bytes();
        let at = bytes.windows(meta.len()).position(|w| w == meta).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&runs[0].1, &bytes).unwrap();

        let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
        let first = JournalEntry::storage_key(1);
        assert!(engine.head().get(JOURNAL_TABLE, &first).unwrap().is_some());
        // Reading the damage as an empty journal would hand seq 1 out
        // again and overwrite that live entry.
        match TableStore::new(engine) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reregistering_built_index_reads_no_values() {
        let dir = store_dir("idx-marker");
        {
            let s = TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap();
            s.create_index("t", first_byte_index()).unwrap();
            for i in 0..50u8 {
                s.put("t", &[i], &[b'A' + (i % 3), i]).unwrap();
            }
        }
        let engine = Arc::new(Engine::open(&dir, EngineOptions::default()).unwrap());
        let s = TableStore::new(engine.clone()).unwrap();
        let bytes_read = engine
            .metrics_registry()
            .counter("preserva_storage_value_bytes_read_total", "");
        let before = bytes_read.get();
        s.create_index("t", first_byte_index()).unwrap();
        assert_eq!(
            bytes_read.get(),
            before,
            "re-registering a built index must not materialize row values"
        );
        // The skipped backfill didn't lose anything: old rows are still
        // indexed and new writes keep maintaining the shadow table.
        assert!(!s.head().lookup("t", "first", b"A").unwrap().is_empty());
        s.put("t", &[200], b"Znew").unwrap();
        assert_eq!(
            s.head().lookup("t", "first", b"Z").unwrap(),
            vec![vec![200]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_reads_are_repeatable_across_tables() {
        let s = store("snapshot-reads");
        s.create_index("t", first_byte_index()).unwrap();
        s.mark_journaled("t").unwrap();
        s.put("t", b"pk", b"Aone").unwrap();
        s.put("u", b"other", b"x").unwrap();
        let snap = s.snapshot();
        // Churn every table the snapshot can see, including the shadow
        // index and the journal.
        s.put("t", b"pk", b"Btwo").unwrap();
        s.delete("u", b"other").unwrap();
        s.put("t", b"pk2", b"Athree").unwrap();
        assert_eq!(snap.get("t", b"pk").unwrap(), Some(b"Aone".to_vec()));
        assert_eq!(snap.get("u", b"other").unwrap(), Some(b"x".to_vec()));
        assert_eq!(snap.count("t").unwrap(), 1);
        assert_eq!(snap.scan("t").unwrap().len(), 1);
        // The index view agrees with the base table at the same LSN.
        assert_eq!(
            snap.lookup("t", "first", b"A").unwrap(),
            vec![b"pk".to_vec()]
        );
        assert!(snap.lookup("t", "first", b"B").unwrap().is_empty());
        // The journal cursor through the snapshot stops at the pin.
        assert_eq!(snap.read_journal(0, 100).unwrap().len(), 1);
        assert_eq!(s.head().read_journal(0, 100).unwrap().len(), 3);
        // Live reads see the new state.
        assert_eq!(s.head().get("t", b"pk").unwrap(), Some(b"Btwo".to_vec()));
    }

    #[test]
    fn receipt_lsn_is_a_snapshot_boundary() {
        let s = store("receipt-boundary");
        s.mark_journaled("t").unwrap();
        let mut session = s.session();
        session.put("t", b"a", b"1").unwrap();
        session.put("t", b"b", b"2").unwrap();
        let r1 = session.commit().unwrap();
        let mut session = s.session();
        session.delete("t", b"a").unwrap();
        session.put("t", b"c", b"3").unwrap();
        let r2 = session.commit().unwrap();
        assert!(r2.lsn > r1.lsn, "LSNs are monotonic across commits");
        // Time travel to each receipt sees exactly that commit's state —
        // the whole batch, nothing from later ones.
        let at1 = s.snapshot_at(r1.lsn);
        assert_eq!(at1.count("t").unwrap(), 2);
        assert_eq!(at1.get("t", b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(at1.get("t", b"c").unwrap(), None);
        assert_eq!(at1.read_journal(0, 100).unwrap().len(), 2);
        let at2 = s.snapshot_at(r2.lsn);
        assert_eq!(at2.count("t").unwrap(), 2);
        assert_eq!(at2.get("t", b"a").unwrap(), None);
        assert_eq!(at2.get("t", b"c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(at2.read_journal(0, 100).unwrap().len(), 4);
    }

    /// A write whose triggered checkpoint fails has still landed: it
    /// returns `Ok` with its journal seqs, the failure goes to the trace
    /// ring, and the next trigger retries the checkpoint.
    #[test]
    fn failed_checkpoint_after_a_landed_write_keeps_its_journal_seqs() {
        let dir = store_dir("ckpt-fails");
        let options = EngineOptions {
            checkpoint_bytes: 1,
            ..EngineOptions::default()
        };
        let s = TableStore::new(Arc::new(Engine::open(&dir, options).unwrap())).unwrap();
        s.mark_journaled("t").unwrap();
        // A directory where the flush rotates the live WAL to makes every
        // checkpoint fail after its commit has landed.
        let blocker = dir.join("wal.frozen");
        std::fs::create_dir(&blocker).unwrap();
        s.put("t", b"a", b"1").unwrap();
        assert_eq!(s.head().get("t", b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.journal_head(), 1);
        assert!(s
            .engine()
            .metrics_registry()
            .trace_events()
            .iter()
            .any(|e| e.message.contains("checkpoint") && e.message.contains("failed")));
        std::fs::remove_dir(&blocker).unwrap();
        let mut session = s.session();
        session.put("t", b"b", b"2").unwrap();
        let receipt = session.commit().unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (2, 2));
        let keys: Vec<Vec<u8>> = s
            .head()
            .read_journal(0, 10)
            .unwrap()
            .into_iter()
            .map(|e| e.key)
            .collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(s.engine().stats().checkpoints, 1, "the retry flushed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bulk twin: a load whose triggered compaction fails has landed
    /// and keeps its journal seqs; the next load's trigger retries.
    #[test]
    fn failed_compaction_after_a_bulk_load_keeps_its_journal_seqs() {
        let dir = store_dir("merge-fails");
        let options = EngineOptions {
            compaction: crate::CompactionOptions {
                background: false,
                max_runs_per_level: 1,
            },
            ..EngineOptions::default()
        };
        let s = TableStore::new(Arc::new(Engine::open(&dir, options).unwrap())).unwrap();
        s.mark_journaled("t").unwrap();
        s.bulk_load("t", vec![(b"a".to_vec(), b"1".to_vec())])
            .unwrap();
        // Runs 1 and 2 overfill level 1; their merge writes run 3, whose
        // temp path is taken by a directory.
        let blocker = dir.join(format!("run-{:016}.tmp", 3));
        std::fs::create_dir(&blocker).unwrap();
        let receipt = s
            .bulk_load("t", vec![(b"b".to_vec(), b"2".to_vec())])
            .unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (2, 2));
        assert_eq!(s.journal_head(), 2);
        assert_eq!(s.engine().stats().compactions, 0);
        std::fs::remove_dir(&blocker).unwrap();
        let receipt = s
            .bulk_load("t", vec![(b"c".to_vec(), b"3".to_vec())])
            .unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (3, 3));
        assert_eq!(s.head().read_journal(0, 10).unwrap().len(), 3);
        assert_eq!(s.head().count("t").unwrap(), 3);
        assert_eq!(s.engine().stats().compactions, 1, "the retry merged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent rewrites of one indexed key leave exactly one index
    /// entry, equal to the row's value: each commit's old-value read and
    /// its batch land under one lock.
    #[test]
    fn concurrent_rewrites_of_one_key_leave_one_index_entry() {
        let s = store("idx-race");
        // Every write carries a fresh value, so a stale entry is never
        // retracted by a later write that happens to restore its value.
        s.create_index("t", IndexDef::new("whole", |row: &[u8]| Some(row.to_vec())))
            .unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..2_000u32 {
                        s.put("t", b"pk", format!("{t}-{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let row = s.head().get("t", b"pk").unwrap().unwrap();
        let entries = s
            .engine()
            .head()
            .scan_all(&index_table("t", "whole"))
            .unwrap();
        assert_eq!(entries.len(), 1, "stale index entries for one row");
        assert_eq!(entries[0], (index_key(&row, b"pk"), b"pk".to_vec()));
    }

    #[test]
    fn unindexed_session_commit_reads_no_old_values() {
        let s = store("no-old-reads");
        s.put("t", b"k", b"a-reasonably-long-stored-value").unwrap();
        let bytes_read = s
            .engine()
            .metrics_registry()
            .counter("preserva_storage_value_bytes_read_total", "");
        let before = bytes_read.get();
        let mut session = s.session();
        session.put("t", b"k", b"new").unwrap();
        session.delete("t", b"gone").unwrap();
        session.commit().unwrap();
        assert_eq!(
            bytes_read.get(),
            before,
            "no indexes registered, so commit needs no old-value point reads"
        );
    }
}
