//! The engine: WAL + memtable + tiered sorted runs, with atomic batches,
//! range scans, memtable-only flushes, background compaction and crash
//! recovery.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/wal.log          -- active write-ahead log
//! <dir>/wal.frozen       -- WAL segment of an in-flight flush (transient)
//! <dir>/run-<id>.sst     -- immutable sorted runs (tiered store)
//! <dir>/MANIFEST         -- crash-safe catalog: which runs, at which level
//! ```
//!
//! ## Write path
//!
//! Commits append CRC-framed operations plus a `Commit` frame to the WAL,
//! then apply to the memtable. A checkpoint ("flush") briefly takes the
//! WAL lock to freeze the memtable and rotate the live log to
//! `wal.frozen`, then — with commits already flowing again — writes the
//! frozen memtable into a fresh level-1 run (O(memtable), never O(total
//! data)), commits it to the manifest, and deletes the frozen segment.
//! Compaction merges runs level by level in the background, folding
//! tombstones once a merge reaches the bottom of the tree. Presorted
//! bulk input skips the WAL and memtable and becomes a level-1 run
//! directly ([`Engine::ingest_run`]); a flush, a bulk run and a
//! compaction output all enter the tree through one crash-ordered
//! install routine (`Core::install_run`).
//!
//! ## Read path
//!
//! Reads consult memtable → frozen memtable (when a flush is in flight)
//! → runs in `(level asc, id desc)` order — level 1 always holds the
//! newest versions, ids order runs within a level. Point gets consult
//! each run's bloom filter and block index, touching at most one data
//! block per run. Scans, counts and key listings walk one merge cursor
//! over those layers (see `cursor.rs`) and take each key's highest LSN
//! at or below the read LSN. Reads take no global lock: the memtables
//! sit behind `RwLock`s and the run set is an immutable `Arc` snapshot
//! swapped atomically, so reads proceed concurrently with writers,
//! flushes and compaction.
//!
//! ## MVCC
//!
//! Every committed batch carries one monotonically increasing [`Lsn`],
//! assigned inside the WAL lock — the `Commit` frame's txid *is* the
//! LSN, so WAL order is version order. All layers are multi-version:
//! the memtable keys versions by `(key, lsn desc)`, runs carry
//! per-entry LSNs and range tombstones, and an **LSN-disjointness
//! invariant** holds — the LSN intervals of active memtable, frozen
//! memtable and each run in precedence order strictly decrease, because
//! data only moves active → frozen → level-1 run, and a compaction
//! merges a contiguous precedence suffix into output older than every
//! surviving layer above it.
//!
//! A reader that wants repeatable reads takes a [`Snapshot`]: it pins
//! the committed LSN in the [`SnapshotRegistry`] and every read through
//! it resolves to the newest version at or below that LSN — immune to
//! concurrent commits, flushes and compactions, with zero coordination
//! against writers. [`Engine::as_of`] pins an arbitrary historical LSN
//! instead (time travel, bounded by what compaction has not yet
//! folded). Plain reads resolve at `Lsn::MAX` and pin nothing.
//! Compaction folds multi-version chains only below the oldest pinned
//! snapshot (see `compaction`), so an idle engine with no pins keeps
//! exactly one version per key, same as before MVCC.
//!
//! A point read walks layers newest → oldest accumulating the best
//! covering range tombstone at or below its read LSN; the first layer
//! holding a point version at or below the LSN yields the verdict —
//! deletion if the accumulated range tombstone is newer than that
//! version, the version itself otherwise. Layer disjointness makes this
//! first-verdict-wins walk exact.
//!
//! ## Recovery
//!
//! On open the engine loads the manifest (falling back to a directory
//! scan when the manifest is missing or corrupt — safe because every
//! run's footer records its level, so the fallback rebuilds the same
//! `(level asc, id desc)` precedence), opens every catalogued run and
//! replays the committed WAL suffix — `wal.frozen` first when a flush
//! died mid-way, then the live log. Only then does it change the
//! directory: it sweeps temp files, deletes corrupt or orphaned runs
//! (plain I/O errors fail the open instead — a transient failure must not
//! become permanent data loss) and folds the two WAL segments back into
//! one, or cuts a lone live log back to its last `Commit` frame so new
//! commits never land behind a torn tail. Only operations covered by a
//! `Commit` frame are applied — a crash between `append` and `Commit`
//! rolls the partial transaction back, which is exactly the behaviour the
//! curation layer relies on for its "original records are never
//! half-updated" guarantee.
//!
//! A file in a format this build does not read — a `snap-*.sst`
//! single-snapshot file, a v1 (`PRUN`) run, or a WAL frame that passes
//! its CRC but does not decode — fails the open with
//! [`StorageError::Unsupported`] before anything on disk changes, so an
//! archive written by an older build is reported, never silently
//! dropped.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use preserva_obs::{Counter, Gauge, Histogram, Registry};

use crate::compaction::{self, CompactionOptions};
use crate::cursor::{Copied, Layer, MergeCursor, Span};
use crate::error::{StorageError, StorageResult};
use crate::manifest::{self, RunEntry};
use crate::memtable::{Memtable, RangeTombstone};
use crate::snapshot::{Lsn, SnapshotRegistry};
use crate::sstable::{self, Run, RunLookup, RunSummary, Versions};
use crate::wal::{self, Wal, WalRecord};

pub use crate::wal::BatchOp;

/// Tuning knobs for [`Engine::open`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Issue `fsync` on every commit. Disable for tests/benches.
    pub fsync: bool,
    /// Checkpoint automatically once the memtable's estimated size —
    /// table + key + value + 8 bytes per version — reaches this many
    /// bytes.
    pub checkpoint_bytes: usize,
    /// Metrics registry to record into. `None` (the default) gives the
    /// engine a private registry, so per-instance counters stay exact; the
    /// CLI passes [`Registry::global`] to get one process-wide view. When a
    /// registry is shared across engines, counters aggregate across them.
    pub metrics: Option<Arc<Registry>>,
    /// Compaction behaviour of the tiered store.
    pub compaction: CompactionOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            fsync: false,
            checkpoint_bytes: 8 * 1024 * 1024,
            metrics: None,
            compaction: CompactionOptions::default(),
        }
    }
}

/// Resolved instrument handles; one atomic op each on the hot path.
#[derive(Debug)]
struct StorageMetrics {
    puts: Arc<Counter>,
    deletes: Arc<Counter>,
    gets: Arc<Counter>,
    scans: Arc<Counter>,
    commits: Arc<Counter>,
    checkpoints: Arc<Counter>,
    compactions: Arc<Counter>,
    wal_appends: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    value_bytes_read: Arc<Counter>,
    bloom_hits: Arc<Counter>,
    bloom_misses: Arc<Counter>,
    recovered_records: Arc<Counter>,
    recovered_snapshot_entries: Arc<Counter>,
    torn_tail_discards: Arc<Counter>,
    commit_seconds: Arc<Histogram>,
    checkpoint_seconds: Arc<Histogram>,
    compaction_seconds: Arc<Histogram>,
    compaction_bytes: Arc<Histogram>,
    memtable_bytes: Arc<Gauge>,
    snapshots_pinned: Arc<Gauge>,
    oldest_snapshot_lag: Arc<Gauge>,
    versions_folded: Arc<Counter>,
    range_tombstones_applied: Arc<Counter>,
    ingest_records: Arc<Counter>,
    bulk_batches: Arc<Counter>,
}

impl StorageMetrics {
    fn resolve(reg: &Registry) -> StorageMetrics {
        StorageMetrics {
            puts: reg.counter("preserva_storage_puts_total", "Single-key upserts applied."),
            deletes: reg.counter(
                "preserva_storage_deletes_total",
                "Single-key deletions applied.",
            ),
            gets: reg.counter("preserva_storage_gets_total", "Point reads served."),
            scans: reg.counter("preserva_storage_scans_total", "Range scans served."),
            commits: reg.counter(
                "preserva_storage_commits_total",
                "Atomic batches committed.",
            ),
            checkpoints: reg.counter(
                "preserva_storage_checkpoints_total",
                "Memtable flushes: level-1 runs written.",
            ),
            compactions: reg.counter(
                "preserva_storage_compactions_total",
                "Run merges completed by the compactor.",
            ),
            wal_appends: reg.counter(
                "preserva_storage_wal_appends_total",
                "WAL frames appended (operations + commit frames).",
            ),
            wal_fsyncs: reg.counter(
                "preserva_storage_wal_fsyncs_total",
                "WAL fsyncs issued (0 unless the fsync option is on).",
            ),
            value_bytes_read: reg.counter(
                "preserva_storage_value_bytes_read_total",
                "Value bytes materialized by reads (gets and scans; counts must stay at 0).",
            ),
            bloom_hits: reg.counter(
                "preserva_storage_bloom_hits_total",
                "Run lookups where the bloom filter passed and a data block was consulted.",
            ),
            bloom_misses: reg.counter(
                "preserva_storage_bloom_misses_total",
                "Run lookups skipped entirely by the bloom filter.",
            ),
            recovered_records: reg.counter(
                "preserva_storage_recovered_records_total",
                "Committed WAL operations replayed at open.",
            ),
            recovered_snapshot_entries: reg.counter(
                "preserva_storage_recovered_snapshot_entries_total",
                "Entries catalogued in live runs at open (footer counts; not loaded).",
            ),
            torn_tail_discards: reg.counter(
                "preserva_storage_torn_tail_discards_total",
                "Torn WAL tails discarded during recovery.",
            ),
            commit_seconds: reg.latency_histogram(
                "preserva_storage_commit_seconds",
                "Latency of atomic batch commits (WAL append + sync + apply).",
            ),
            checkpoint_seconds: reg.latency_histogram(
                "preserva_storage_checkpoint_seconds",
                "Latency of memtable flushes (run write + manifest + WAL segment retire).",
            ),
            compaction_seconds: reg.latency_histogram(
                "preserva_storage_compaction_seconds",
                "Latency of run merges.",
            ),
            compaction_bytes: reg.size_histogram(
                "preserva_storage_compaction_bytes",
                "Input bytes consumed per run merge.",
            ),
            memtable_bytes: reg.gauge(
                "preserva_storage_memtable_bytes",
                "Estimated memtable bytes the checkpoint threshold counts: table + key + value + 8 per version or range tombstone.",
            ),
            snapshots_pinned: reg.gauge(
                "preserva_storage_snapshots_pinned",
                "Reader snapshots currently pinned in the MVCC registry.",
            ),
            oldest_snapshot_lag: reg.gauge(
                "preserva_storage_oldest_snapshot_lag",
                "Commits between the head LSN and the oldest pinned snapshot (0 with no pins).",
            ),
            versions_folded: reg.counter(
                "preserva_storage_compaction_versions_folded_total",
                "Shadowed versions dropped by compaction below the fold horizon.",
            ),
            range_tombstones_applied: reg.counter(
                "preserva_storage_range_tombstones_applied_total",
                "Versions dropped by compaction because a range tombstone covered them.",
            ),
            ingest_records: reg.counter(
                "preserva_storage_ingest_records_total",
                "Rows ingested through the bulk path (direct sorted runs).",
            ),
            bulk_batches: reg.counter(
                "preserva_storage_bulk_batches_total",
                "Bulk batches committed (one direct sorted run each).",
            ),
        }
    }
}

const RUNS_PER_LEVEL_HELP: &str = "Live sstable runs at each level of the tiered store.";

/// Counters exposed for the benchmark harness and tests.
///
/// Since the observability refactor this is a *view* assembled from the
/// engine's metrics registry (see [`EngineOptions::metrics`]); when a
/// registry is shared across engines the values aggregate across them.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Single-key upserts applied.
    pub puts: u64,
    /// Single-key deletions applied.
    pub deletes: u64,
    /// Point reads served.
    pub gets: u64,
    /// Range scans served.
    pub scans: u64,
    /// Atomic batches committed.
    pub commits: u64,
    /// Memtable flushes (level-1 runs written).
    pub checkpoints: u64,
    /// Run merges completed by the compactor.
    pub compactions: u64,
    /// Committed WAL operations replayed at the last open.
    pub recovered_records: u64,
    /// Entries catalogued in live runs at the last open.
    pub recovered_from_snapshot: u64,
    /// Whether a torn WAL tail was discarded during recovery.
    pub torn_tail_discarded: bool,
}

/// WAL segment holding the frozen memtable's transactions while a flush
/// is in flight; deleted once the flush commits.
const WAL_FROZEN_FILE: &str = "wal.frozen";

/// One committed, immutable run plus its placement in the tree.
#[derive(Debug)]
struct RunHandle {
    id: u64,
    level: u32,
    run: Run,
}

/// Immutable snapshot of the run set in read-precedence order —
/// `(level asc, id desc)`, newest data first. Readers clone the `Arc`
/// and keep serving even while flushes and compactions swap the view
/// underneath them.
type RunView = Arc<Vec<Arc<RunHandle>>>;

struct Core {
    dir: PathBuf,
    options: EngineOptions,
    obs: Arc<Registry>,
    metrics: StorageMetrics,
    /// Writer serialization: WAL appends, syncs and rotations.
    wal: Mutex<Wal>,
    /// The mutable write buffer. Readers share; commits and flush swaps
    /// take it exclusively.
    mem: RwLock<Memtable>,
    /// Memtable frozen by an in-flight flush: still consulted by reads
    /// (after `mem`, before `runs`) until its run commits. `Some` only
    /// while a flush is running or after one failed (retried by the next
    /// checkpoint).
    frozen: RwLock<Option<Arc<Memtable>>>,
    /// At most one flush at a time; taken before the WAL lock.
    flush_lock: Mutex<()>,
    /// The committed run set. Swapped, never mutated in place.
    runs: RwLock<RunView>,
    /// Serializes manifest writes together with their view swaps, so a
    /// concurrent flush and compaction can never lose each other's update.
    structural: Mutex<()>,
    /// At most one compaction at a time.
    compact_lock: Mutex<()>,
    next_run_id: AtomicU64,
    /// LSN clock. `fetch_add` happens *inside* the WAL lock so that WAL
    /// append order, `Commit` txid order and version order all agree —
    /// recovery replays the log front to back and must reconstruct the
    /// exact same version history.
    next_lsn: AtomicU64,
    /// Highest LSN whose commit is fully applied — the pin point for new
    /// snapshots. Trails `next_lsn` by the in-flight commit, if any.
    committed_lsn: AtomicU64,
    /// Pinned reader snapshots; its oldest entry floors the compaction
    /// fold horizon.
    registry: SnapshotRegistry,
    /// Highest level ever observed, so vacated levels report 0 runs
    /// instead of a stale gauge.
    max_level_seen: AtomicU64,
    shutdown: AtomicBool,
    /// Wake-up for the background compaction worker.
    signal: (Mutex<bool>, Condvar),
}

/// An embedded, durable, ordered key-value engine with named tables.
pub struct Engine {
    core: Arc<Core>,
    /// The unpinned reader [`Engine::head`] lends out.
    head: Snapshot,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("dir", &self.core.dir)
            .finish()
    }
}

fn run_tmp_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("run-{id:016}.tmp"))
}

/// Apply one WAL segment's committed transactions to `memtable`.
///
/// Operations become visible only when their `Commit` frame is reached;
/// uncommitted trailing operations are dropped — that is the atomicity
/// guarantee. Each batch is applied at its `Commit` frame's txid — the
/// LSN it committed under originally — so replay rebuilds the exact
/// version history, not just the final state. Returns `(operations
/// applied, highest txid seen)`.
fn apply_committed(records: Vec<WalRecord>, memtable: &mut Memtable) -> (u64, u64) {
    let mut pending: Vec<BatchOp> = Vec::new();
    let mut max_txid = 0u64;
    let mut ops = 0u64;
    for rec in records {
        match rec {
            WalRecord::Commit { txid } => {
                max_txid = max_txid.max(txid);
                ops += pending.len() as u64;
                for op in pending.drain(..) {
                    memtable.apply(op, txid);
                }
            }
            WalRecord::Op(op) => pending.push(op),
        }
    }
    (ops, max_txid)
}

impl Core {
    fn view(&self) -> RunView {
        self.runs.read().expect("engine poisoned").clone()
    }

    fn catalog_of(view: &[Arc<RunHandle>]) -> Vec<RunEntry> {
        view.iter()
            .map(|h| RunEntry {
                id: h.id,
                level: h.level,
            })
            .collect()
    }

    /// Refresh the `runs_per_level` gauge family for every level ever
    /// seen, zeroing levels that emptied out.
    fn update_run_gauges(&self, view: &[Arc<RunHandle>]) {
        let max_now = view.iter().map(|h| u64::from(h.level)).max().unwrap_or(0);
        let prev = self.max_level_seen.fetch_max(max_now, Ordering::SeqCst);
        let top = prev.max(max_now);
        for level in 1..=top {
            let count = view.iter().filter(|h| u64::from(h.level) == level).count();
            self.obs
                .gauge_with(
                    "preserva_storage_runs_per_level",
                    RUNS_PER_LEVEL_HELP,
                    &[("level", &level.to_string())],
                )
                .set(count as u64);
        }
    }

    fn get(&self, table: &str, key: &[u8], max_lsn: Lsn) -> StorageResult<Option<Vec<u8>>> {
        self.metrics.gets.inc();
        // Walk layers newest → oldest, accumulating the best covering
        // range tombstone at or below the read LSN; the first layer with
        // a point version at or below it settles the verdict against
        // that accumulator. Layer LSN-disjointness makes the first
        // verdict exact: no older layer can hold a newer version.
        let mut rt_best: Option<Lsn> = None;
        // Memtable first.
        {
            let mem = self.mem.read().expect("engine poisoned");
            rt_best = rt_best.max(mem.max_covering_rt(table, key, max_lsn));
            if let Some((lsn, hit)) = mem.get(table, key, max_lsn) {
                if rt_best.is_some_and(|rt| rt > lsn) {
                    return Ok(None);
                }
                let hit = hit.map(|v| v.to_vec());
                if let Some(v) = &hit {
                    self.metrics.value_bytes_read.add(v.len() as u64);
                }
                return Ok(hit);
            }
        }
        // Then the frozen memtable, if a flush is in flight. Data moves
        // active → frozen → runs and we probe in that same order, so a
        // version can never slip past us mid-flush.
        let frozen = self.frozen.read().expect("engine poisoned").clone();
        if let Some(frozen) = frozen {
            rt_best = rt_best.max(frozen.max_covering_rt(table, key, max_lsn));
            if let Some((lsn, hit)) = frozen.get(table, key, max_lsn) {
                if rt_best.is_some_and(|rt| rt > lsn) {
                    return Ok(None);
                }
                let hit = hit.map(|v| v.to_vec());
                if let Some(v) = &hit {
                    self.metrics.value_bytes_read.add(v.len() as u64);
                }
                return Ok(hit);
            }
        }
        // Then runs in precedence order, newest data first. Reading the
        // view last is safe: a flush that races us only moves data from a
        // memtable into a run we are about to consult.
        for handle in self.view().iter() {
            rt_best = rt_best.max(handle.run.max_covering_rt(table, key, max_lsn));
            match handle.run.get(table, key, max_lsn)? {
                RunLookup::BloomSkip => {
                    self.metrics.bloom_misses.inc();
                }
                RunLookup::Absent => {
                    self.metrics.bloom_hits.inc();
                }
                RunLookup::Tombstone(_) => {
                    self.metrics.bloom_hits.inc();
                    return Ok(None);
                }
                RunLookup::Value(lsn, v) => {
                    self.metrics.bloom_hits.inc();
                    if rt_best.is_some_and(|rt| rt > lsn) {
                        return Ok(None);
                    }
                    self.metrics.value_bytes_read.add(v.len() as u64);
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }

    /// Visit each live row of `range` — of every table when `None` — at
    /// `max_lsn`, in `(table, key)` order: one [`MergeCursor`] over the
    /// active memtable, the frozen one and the runs. A key's highest LSN
    /// at or below `max_lsn` across the layers wins, then loses to a
    /// point tombstone or to a newer covering range tombstone. The active
    /// memtable's in-range versions and its range tombstones are copied
    /// under one read lock; the frozen memtable and the runs are
    /// borrowed. Each layer holds a contiguous stretch of LSNs and data
    /// only moves active → frozen → runs, so layers sampled one after
    /// another while a flush moves data down together hold every commit
    /// up to some LSN, some of them twice: the highest LSN per key is
    /// that commit's state.
    fn read(
        &self,
        range: Option<Span<'_>>,
        max_lsn: Lsn,
        mut f: impl FnMut(&str, &[u8], &[u8]),
    ) -> StorageResult<()> {
        let applies =
            |rt: &&RangeTombstone| rt.lsn <= max_lsn && range.is_none_or(|s| rt.table == s.table);
        let (active, mut rts) = {
            let mem = self.mem.read().expect("engine poisoned");
            let active: Copied = mem.versions(range).filter(|v| v.2 <= max_lsn).collect();
            let rts: Vec<RangeTombstone> = mem.ranges().iter().filter(applies).cloned().collect();
            (active, rts)
        };
        let frozen = self.frozen.read().expect("engine poisoned").clone();
        let view = self.view();
        let mut layers = vec![Layer::mem(active.versions())];
        if let Some(frozen) = frozen.as_deref() {
            rts.extend(frozen.ranges().iter().filter(applies).cloned());
            let versions = frozen.versions(range);
            layers.push(Layer::mem(
                versions.map(|(t, k, lsn, v)| (t.as_bytes(), k, lsn, v)),
            ));
        }
        for handle in view.iter() {
            rts.extend(handle.run.ranges().iter().filter(applies).cloned());
            layers.push(Layer::Run(handle.run.cursor(range)));
        }
        MergeCursor::new(layers).for_each_newest(max_lsn, |(table, key, lsn, value)| {
            if let Some(value) = value {
                if !rts.iter().any(|rt| rt.lsn > lsn && rt.covers(table, key)) {
                    f(table, key, value);
                }
            }
        })
    }

    fn scan(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        max_lsn: Lsn,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        self.metrics.scans.inc();
        let mut rows = Vec::new();
        let mut value_bytes = 0;
        self.read(Some(Span::range(table, start, end)), max_lsn, |_, k, v| {
            value_bytes += v.len() as u64;
            rows.push((k.to_vec(), v.to_vec()));
        })?;
        self.metrics.value_bytes_read.add(value_bytes);
        Ok(rows)
    }

    /// Live keys of `table`, without copying a single key or value byte.
    fn count(&self, table: &str, max_lsn: Lsn) -> StorageResult<usize> {
        self.metrics.scans.inc();
        let mut live = 0;
        self.read(Some(Span::range(table, b"", None)), max_lsn, |_, _, _| {
            live += 1
        })?;
        Ok(live)
    }

    /// Live keys of `table` in `[start, end)`, sorted, without
    /// materializing a single value byte.
    fn scan_keys(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        max_lsn: Lsn,
    ) -> StorageResult<Vec<Vec<u8>>> {
        self.metrics.scans.inc();
        let mut keys = Vec::new();
        self.read(Some(Span::range(table, start, end)), max_lsn, |_, k, _| {
            keys.push(k.to_vec())
        })?;
        Ok(keys)
    }

    fn tables(&self, max_lsn: Lsn) -> StorageResult<Vec<String>> {
        let mut names: Vec<String> = Vec::new();
        self.read(None, max_lsn, |table, _, _| {
            if names.last().is_none_or(|last| last != table) {
                names.push(table.to_string());
            }
        })?;
        Ok(names)
    }

    /// Refresh the snapshot gauges: live pins and how far the oldest one
    /// trails the head LSN.
    fn refresh_snapshot_gauges(&self) {
        self.metrics
            .snapshots_pinned
            .set(self.registry.count() as u64);
        let head = self.committed_lsn.load(Ordering::SeqCst);
        let lag = self
            .registry
            .oldest()
            .map_or(0, |oldest| head.saturating_sub(oldest));
        self.metrics.oldest_snapshot_lag.set(lag);
    }

    /// Pin a snapshot at `lsn` and hand out the read handle.
    fn pin(self: &Arc<Core>, lsn: Lsn) -> Snapshot {
        self.registry.pin(lsn);
        self.refresh_snapshot_gauges();
        Snapshot {
            core: self.clone(),
            lsn,
        }
    }

    /// Commit a batch: WAL frames plus a `Commit` frame, synced, then
    /// applied to the memtable and published. A checkpoint the commit
    /// triggers is maintenance, not part of the write: once published the
    /// commit returns `Ok`, a failed checkpoint goes to the trace ring,
    /// and the next commit over the threshold retries it.
    fn apply_batch(&self, ops: Vec<BatchOp>) -> StorageResult<Lsn> {
        if ops.is_empty() {
            return Ok(self.committed_lsn.load(Ordering::SeqCst));
        }
        let started = Instant::now();
        let needs_checkpoint;
        let lsn;
        {
            let mut wal = self.wal.lock().expect("engine poisoned");
            // The LSN is drawn *inside* the WAL lock: append order and
            // LSN order must agree or recovery would reconstruct a
            // different version history than readers saw.
            lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
            for op in &ops {
                wal.append_op(op)?;
            }
            wal.append(&WalRecord::Commit { txid: lsn })?;
            wal.sync()?;
            self.metrics.wal_appends.add(ops.len() as u64 + 1);
            if self.options.fsync {
                self.metrics.wal_fsyncs.inc();
            }
            let mut mem = self.mem.write().expect("engine poisoned");
            for op in ops {
                match op {
                    BatchOp::Put { .. } => self.metrics.puts.inc(),
                    BatchOp::Delete { .. } => self.metrics.deletes.inc(),
                    BatchOp::DeleteRange { .. } => {}
                }
                mem.apply(op, lsn);
            }
            // Publish while still inside the WAL lock: a snapshot taken
            // the instant after a commit returns must see that commit.
            self.committed_lsn.store(lsn, Ordering::SeqCst);
            self.metrics.memtable_bytes.set(mem.approx_bytes() as u64);
            needs_checkpoint = mem.approx_bytes() >= self.options.checkpoint_bytes;
        }
        self.refresh_snapshot_gauges();
        self.metrics.commits.inc();
        self.metrics
            .commit_seconds
            .observe_duration(started.elapsed());
        if needs_checkpoint {
            if let Err(e) = self.checkpoint() {
                self.obs.trace(
                    "storage",
                    format!("checkpoint after commit {lsn} failed: {e}"),
                );
            }
        }
        Ok(lsn)
    }

    /// Build a level-1 run directly from presorted rows, bypassing the
    /// WAL and memtable entirely — the bulk-ingest fast path.
    ///
    /// `rows` must be strictly ascending by `(table, key)`; the whole
    /// batch is stamped with ONE fresh LSN, so it becomes visible
    /// atomically and `as_of` time travel treats it as a single commit.
    ///
    /// The WAL lock is held for the duration of the build: LSN order and
    /// visibility order must agree, so no commit may be assigned a newer
    /// LSN and publish before this run does. Readers are unaffected
    /// (they never take the WAL lock); concurrent writers queue behind
    /// the build, which is the documented trade of the bulk path.
    ///
    /// Crash safety is [`Core::install_run`]'s: all-or-nothing per batch.
    fn ingest_run(&self, rows: Vec<(String, Vec<u8>, Vec<u8>)>) -> StorageResult<Lsn> {
        if rows.is_empty() {
            return Ok(self.committed_lsn.load(Ordering::SeqCst));
        }
        for pair in rows.windows(2) {
            let a = (&pair[0].0, &pair[0].1);
            let b = (&pair[1].0, &pair[1].1);
            if a >= b {
                return Err(StorageError::Decode(format!(
                    "bulk ingest input not strictly sorted by (table, key): {:?}/{:?} \
                     precedes {:?}/{:?}",
                    a.0,
                    String::from_utf8_lossy(a.1),
                    b.0,
                    String::from_utf8_lossy(b.1),
                )));
            }
        }
        let started = Instant::now();
        let n = rows.len() as u64;
        let wal = self.wal.lock().expect("engine poisoned");
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        let mut versions = rows.iter().map(|(table, key, value)| {
            (table.as_str(), key.as_slice(), lsn, Some(value.as_slice()))
        });
        let (id, summary) = self.install_run(1, n, &mut versions, &[], &[])?;
        // Publish while still holding the WAL lock: a snapshot pinned the
        // instant after this returns must see the whole batch.
        self.committed_lsn.store(lsn, Ordering::SeqCst);
        drop(wal);
        self.refresh_snapshot_gauges();
        self.metrics.commits.inc();
        self.metrics.puts.add(n);
        self.metrics.ingest_records.add(n);
        self.metrics.bulk_batches.inc();
        self.metrics
            .commit_seconds
            .observe_duration(started.elapsed());
        self.obs.trace(
            "storage",
            format!(
                "bulk run {id}: {n} rows, {} bytes, lsn {lsn}",
                summary.bytes
            ),
        );
        self.schedule_compaction();
        Ok(lsn)
    }

    /// Flush the memtable into a fresh level-1 run.
    ///
    /// Cost is O(memtable): the rest of the data set is never touched.
    /// The WAL lock is held only long enough to freeze the memtable and
    /// rotate the live log to `wal.frozen`; the run is written with
    /// commits already flowing into a fresh memtable, so concurrent
    /// writers see no latency cliff. Returns the new run's id, or 0 when
    /// there was nothing to flush.
    ///
    /// Crash ordering: [`Core::install_run`], then the frozen WAL segment
    /// is deleted. A crash before the manifest leaves an orphan run
    /// (cleaned up on open) with all its data still in `wal.frozen`; a
    /// crash before the segment delete replays the segment over the run,
    /// which is idempotent.
    fn checkpoint(&self) -> StorageResult<u64> {
        let _flush = self.flush_lock.lock().expect("engine poisoned");
        // A previous flush that failed after freezing left its memtable
        // parked in `frozen` (and its WAL in `wal.frozen`); retry it
        // first so data keeps moving toward the runs in order.
        let mut last = 0;
        if self.frozen.read().expect("engine poisoned").is_some() {
            last = self.flush_frozen()?;
        }
        {
            let mut wal = self.wal.lock().expect("engine poisoned");
            let mut mem = self.mem.write().expect("engine poisoned");
            if mem.is_empty() {
                return Ok(last);
            }
            // Rotate first — it can fail, freezing cannot — so an error
            // here leaves the engine exactly as it was.
            wal.rotate_to(&self.dir.join(WAL_FROZEN_FILE))?;
            let mut frozen = self.frozen.write().expect("engine poisoned");
            *frozen = Some(Arc::new(std::mem::replace(&mut *mem, Memtable::new())));
            self.metrics.memtable_bytes.set(0);
        }
        self.flush_frozen()
    }

    /// Write the frozen memtable into a committed level-1 run and delete
    /// its WAL segment. Caller holds `flush_lock`; `frozen` is `Some`.
    fn flush_frozen(&self) -> StorageResult<u64> {
        let started = Instant::now();
        let snapshot = self
            .frozen
            .read()
            .expect("engine poisoned")
            .clone()
            .expect("flush_frozen called with nothing frozen");
        let flushed = snapshot.len() as u64;
        // Every version and range tombstone is carried into the run —
        // flushing must not change what any pinned snapshot sees; only
        // compaction may fold, and only below the horizon. Versions
        // stream borrowed: the frozen memtable is never copied.
        let (id, summary) =
            self.install_run(1, flushed, &mut snapshot.iter(), snapshot.ranges(), &[])?;
        // Retire the frozen memtable only once the run is in the view:
        // readers consult `frozen` before the view, so in between they
        // see its rows twice, never zero times.
        *self.frozen.write().expect("engine poisoned") = None;
        // The run is committed; the frozen segment is now garbage. If the
        // delete fails, recovery replays it over the run — idempotent —
        // and the next rotation replaces it.
        let _ = std::fs::remove_file(self.dir.join(WAL_FROZEN_FILE));
        self.metrics.checkpoints.inc();
        self.metrics
            .checkpoint_seconds
            .observe_duration(started.elapsed());
        self.obs.trace(
            "storage",
            format!(
                "flush {id}: {flushed} entries, {} bytes, {} tombstones",
                summary.bytes, summary.tombstones
            ),
        );
        self.schedule_compaction();
        Ok(id)
    }

    /// Install a new run at `level` and retire the runs in `retired`: the
    /// one crash-ordered sequence behind every flush, bulk ingest and
    /// compaction. Returns the new run's id and what was written.
    ///
    /// 1. Write `run-<id>.tmp` (removed again on error).
    /// 2. Rename it to `run-<id>.sst` and sync the directory, so the file
    ///    is durable before anything names it. An output with neither
    ///    entries nor range tombstones (a merge that folded everything
    ///    away) is deleted instead and only the retirement commits.
    /// 3. Under `structural`, rebuild the view from the *current* one —
    ///    runs installed since the caller planned stay; only `retired`
    ///    leave — plus the new run, in `(level asc, id desc)` order.
    /// 4. Store the MANIFEST: the commit point. A crash before it leaves
    ///    a swept temp file or an uncatalogued orphan, removed at open.
    /// 5. Swap the view and refresh the gauges.
    ///
    /// Retired run files and anything else the new run supersedes are
    /// the caller's to delete, after this returns.
    fn install_run(
        &self,
        level: u32,
        expected_entries: u64,
        versions: &mut impl Versions,
        ranges: &[RangeTombstone],
        retired: &[u64],
    ) -> StorageResult<(u64, RunSummary)> {
        let id = self.next_run_id.fetch_add(1, Ordering::SeqCst);
        let tmp = run_tmp_path(&self.dir, id);
        let summary = sstable::write_run(&tmp, level, expected_entries, versions, ranges)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })?;
        let installed = if summary.entries == 0 && summary.range_tombstones == 0 {
            std::fs::remove_file(&tmp)?;
            None
        } else {
            let path = manifest::run_path(&self.dir, id);
            std::fs::rename(&tmp, &path)?;
            manifest::sync_dir(&self.dir)?;
            Some(Arc::new(RunHandle {
                id,
                level,
                run: Run::open(&path)?,
            }))
        };
        let _structural = self.structural.lock().expect("engine poisoned");
        let mut view: Vec<Arc<RunHandle>> = self
            .view()
            .iter()
            .filter(|h| !retired.contains(&h.id))
            .cloned()
            .chain(installed)
            .collect();
        view.sort_by_key(|h| (h.level, std::cmp::Reverse(h.id)));
        manifest::store(&self.dir, &Self::catalog_of(&view))?;
        let mut runs = self.runs.write().expect("engine poisoned");
        *runs = Arc::new(view);
        self.update_run_gauges(&runs);
        Ok((id, summary))
    }

    /// Kick the compactor: wake the background worker, or drain pending
    /// merges synchronously when running deterministic (background off).
    fn schedule_compaction(&self) {
        if compaction::plan(
            &Self::catalog_of(&self.view()),
            self.options.compaction.max_runs_per_level,
        )
        .is_none()
        {
            return;
        }
        if self.options.compaction.background {
            let (lock, cvar) = &self.signal;
            let mut pending = lock.lock().expect("engine poisoned");
            *pending = true;
            cvar.notify_one();
        } else {
            self.drain_compactions();
        }
    }

    /// Run planned merges until every level is within bounds. A failed
    /// merge leaves its inputs committed, so the store stays correct: the
    /// error goes to the trace ring and the next trigger (a flush, a bulk
    /// run, an open) retries it.
    fn drain_compactions(&self) {
        let _guard = self.compact_lock.lock().expect("engine poisoned");
        while let Some(task) = compaction::plan(
            &Self::catalog_of(&self.view()),
            self.options.compaction.max_runs_per_level,
        ) {
            if let Err(e) = self.execute_compaction(task) {
                self.obs.trace("storage", format!("compaction failed: {e}"));
                return;
            }
        }
    }

    /// Forced full compaction: merge every run into a single bottom-level
    /// run, folding tombstones. Returns whether any merge ran.
    fn compact(&self) -> StorageResult<bool> {
        let _guard = self.compact_lock.lock().expect("engine poisoned");
        let view = self.view();
        let single_foldable = match view.as_slice() {
            [only] => only.run.tombstones() > 0 || !only.run.ranges().is_empty(),
            _ => false,
        };
        let Some(task) = compaction::full(&Self::catalog_of(&view), single_foldable) else {
            return Ok(false);
        };
        self.execute_compaction(task)?;
        Ok(true)
    }

    /// Execute one merge. Caller holds `compact_lock`.
    ///
    /// Crash ordering: [`Core::install_run`], then the inputs are
    /// deleted. Readers holding the old view keep their open file
    /// handles, so deleting inputs under them is safe.
    fn execute_compaction(&self, task: compaction::Task) -> StorageResult<()> {
        let started = Instant::now();
        let view = self.view();
        let mut inputs: Vec<Arc<RunHandle>> = Vec::with_capacity(task.inputs.len());
        for id in &task.inputs {
            let handle = view.iter().find(|h| h.id == *id).cloned().ok_or_else(|| {
                StorageError::corrupt(0, format!("compaction input run {id} vanished"))
            })?;
            inputs.push(handle);
        }
        let input_bytes: u64 = inputs.iter().map(|h| h.run.bytes()).sum();
        let input_entries: u64 = inputs.iter().map(|h| h.run.entries()).sum();
        // The fold horizon: nothing visible to a pinned snapshot may be
        // folded. With no pins the committed LSN (sampled once, here) is
        // the horizon — a snapshot pinned after this point can only pin
        // an LSN ≥ it, and folding below the horizon preserves exactly
        // the newest at-or-below-horizon version such a reader resolves.
        let horizon = self
            .registry
            .oldest()
            .unwrap_or_else(|| self.committed_lsn.load(Ordering::SeqCst));
        let input_ranges: Vec<RangeTombstone> = inputs
            .iter()
            .flat_map(|h| h.run.ranges().iter().cloned())
            .collect();
        let out_ranges = compaction::fold_ranges(&input_ranges, task.drop_tombstones, horizon);
        let runs: Vec<&Run> = inputs.iter().map(|h| &h.run).collect();
        let mut merge = compaction::Merge::new(&runs, task.drop_tombstones, horizon, input_ranges);
        // `input_entries` over-counts the output (shadowed versions and
        // folded tombstones drop out) — fine for a bloom sizing bound.
        let (out_id, summary) = self.install_run(
            task.output_level,
            input_entries,
            &mut merge,
            &out_ranges,
            &task.inputs,
        )?;
        for h in &inputs {
            let _ = std::fs::remove_file(manifest::run_path(&self.dir, h.id));
        }
        self.metrics.versions_folded.add(merge.versions_folded());
        self.metrics
            .range_tombstones_applied
            .add(merge.range_tombstones_applied());
        self.metrics.compactions.inc();
        self.metrics.compaction_bytes.observe(input_bytes as f64);
        self.metrics
            .compaction_seconds
            .observe_duration(started.elapsed());
        self.obs.trace(
            "storage",
            format!(
                "compaction -> run {out_id} level {}: {} inputs ({input_entries} entries, {input_bytes} bytes) -> {} entries{}",
                task.output_level,
                task.inputs.len(),
                summary.entries,
                if task.drop_tombstones { ", tombstones folded" } else { "" }
            ),
        );
        Ok(())
    }

    fn worker_loop(self: &Arc<Core>) {
        let (lock, cvar) = &self.signal;
        loop {
            {
                let mut pending = lock.lock().expect("engine poisoned");
                while !*pending && !self.shutdown.load(Ordering::SeqCst) {
                    pending = cvar.wait(pending).expect("engine poisoned");
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                *pending = false;
            }
            self.drain_compactions();
        }
    }
}

impl Engine {
    /// Open (creating if needed) an engine rooted at `dir` and recover any
    /// previous state: manifest + runs + committed WAL suffix. Corrupt or
    /// orphaned files are removed; a file in an unsupported format fails
    /// the open with [`StorageError::Unsupported`] and nothing is removed.
    pub fn open(dir: &Path, options: EngineOptions) -> StorageResult<Engine> {
        std::fs::create_dir_all(dir)?;
        let obs = options
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = StorageMetrics::resolve(&obs);

        // 1. List the directory once. Temp files are flushes, compactions
        // and manifest swaps that never committed; they are swept in step
        // 5, once every check below has passed. A `snap-*.sst` is the
        // single-snapshot format of builds before the tiered store.
        let mut stale_tmps: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name.ends_with(".sst") {
                return Err(StorageError::Unsupported {
                    path: entry.path(),
                    reason: "single-snapshot file from before the tiered store".into(),
                });
            }
            if name.ends_with(".tmp") {
                stale_tmps.push(entry.path());
            }
        }

        // 2. Load the run catalog: manifest, or directory-scan fallback.
        // The fallback records no level (`None`); each run's own footer
        // supplies it below, so the rebuilt view carries the same
        // `(level asc, id desc)` precedence the manifest would have.
        let mut rewrite_manifest = false;
        let catalog: Vec<(u64, Option<u32>)> = match manifest::load(dir) {
            Ok(Some(entries)) => entries.into_iter().map(|e| (e.id, Some(e.level))).collect(),
            Ok(None) => {
                let files = manifest::list_run_files(dir)?;
                if !files.is_empty() {
                    obs.trace(
                        "storage",
                        format!("manifest missing; rebuilt from {} run files", files.len()),
                    );
                    rewrite_manifest = true;
                }
                files.into_iter().map(|(id, _)| (id, None)).collect()
            }
            Err(e) => {
                let files = manifest::list_run_files(dir)?;
                obs.trace(
                    "storage",
                    format!(
                        "manifest corrupt ({e}); rebuilt from {} run files",
                        files.len()
                    ),
                );
                rewrite_manifest = true;
                files.into_iter().map(|(id, _)| (id, None)).collect()
            }
        };

        // 3. Open every catalogued run. Genuine corruption (bad CRC, bad
        // framing) drops the run — its file is deleted in step 5 — and the
        // rest of the tree is served best-effort. A plain I/O error fails
        // the open instead: a transient failure (permissions, fd
        // exhaustion, a flaky disk) must not be converted into permanent
        // data loss. So does an unsupported (v1) run.
        let mut handles: Vec<Arc<RunHandle>> = Vec::with_capacity(catalog.len());
        let mut corrupt_runs: Vec<PathBuf> = Vec::new();
        for &(id, declared_level) in &catalog {
            let path = manifest::run_path(dir, id);
            match Run::open(&path) {
                Ok(run) => {
                    let level = declared_level.unwrap_or_else(|| run.level());
                    handles.push(Arc::new(RunHandle { id, level, run }));
                }
                Err(e @ (StorageError::Corrupt { .. } | StorageError::Decode(_))) => {
                    obs.trace("storage", format!("dropping corrupt run {id} ({e})"));
                    corrupt_runs.push(path);
                    rewrite_manifest = true;
                }
                Err(e) => return Err(e),
            }
        }
        handles.sort_by_key(|h| (h.level, std::cmp::Reverse(h.id)));

        // 4. Replay committed WAL operations on top. A flush that died
        // between rotating the WAL and committing its run leaves a frozen
        // segment (`wal.frozen`) holding exactly the frozen memtable's
        // transactions; it is strictly older than the live log, so it
        // replays first.
        let wal_path = dir.join("wal.log");
        let frozen_wal_path = dir.join(WAL_FROZEN_FILE);
        let had_frozen_wal = frozen_wal_path.exists();
        let mut memtable = Memtable::new();
        let mut max_txid = 0u64;
        let mut replayed_ops = 0u64;
        let mut live_committed_len = 0u64;
        let segments: &[&Path] = if had_frozen_wal {
            &[&frozen_wal_path, &wal_path]
        } else {
            &[&wal_path]
        };
        for seg in segments {
            let replayed = wal::replay(seg)?;
            if replayed.torn_tail {
                metrics.torn_tail_discards.inc();
                obs.trace(
                    "storage",
                    format!(
                        "torn WAL tail discarded during recovery of {}",
                        seg.display()
                    ),
                );
            }
            live_committed_len = replayed.committed_len;
            let (ops, txid) = apply_committed(replayed.records, &mut memtable);
            replayed_ops += ops;
            max_txid = max_txid.max(txid);
        }

        // 5. Nothing so far has changed the directory. Now sweep temp
        // files and corrupt runs, persist the repaired catalog, and remove
        // orphan runs: files never committed to the manifest (flush or
        // compaction outputs whose commit didn't complete). Their contents
        // are covered by the WAL or by their input runs.
        for path in stale_tmps.iter().chain(&corrupt_runs) {
            let _ = std::fs::remove_file(path);
        }
        if rewrite_manifest {
            manifest::store(dir, &Core::catalog_of(&handles))?;
        }
        let live_ids: std::collections::BTreeSet<u64> = handles.iter().map(|h| h.id).collect();
        let mut max_file_id = 0u64;
        for (id, path) in manifest::list_run_files(dir)? {
            max_file_id = max_file_id.max(id);
            if !live_ids.contains(&id) {
                let _ = std::fs::remove_file(path);
            }
        }

        let run_entries: u64 = handles.iter().map(|h| h.run.entries()).sum();
        metrics.recovered_snapshot_entries.add(run_entries);

        // 6. Fold the two segments back into one live log so the steady-state
        // invariant — exactly one WAL — holds before writers start. The
        // recovered memtable holds their combined committed state *with
        // per-version LSNs*; the rewrite emits one transaction per
        // distinct LSN, ascending, each committed under its original
        // LSN — so a crash-and-reopen cycle preserves the exact version
        // history a pinned snapshot could later ask for. The frozen
        // segment is deleted only after the rewrite is durable at the
        // live path.
        if had_frozen_wal {
            let tmp = dir.join("wal.merge.tmp"); // swept at next open if we die here
            let _ = std::fs::remove_file(&tmp);
            {
                let mut w = Wal::open(&tmp, options.fsync)?;
                let mut by_lsn: BTreeMap<Lsn, Vec<BatchOp>> = BTreeMap::new();
                for (table, key, lsn, value) in memtable.iter() {
                    let (table, key) = (table.to_string(), key.to_vec());
                    let op = match value {
                        Some(v) => BatchOp::Put {
                            table,
                            key,
                            value: v.to_vec(),
                        },
                        None => BatchOp::Delete { table, key },
                    };
                    by_lsn.entry(lsn).or_default().push(op);
                }
                for rt in memtable.ranges() {
                    by_lsn
                        .entry(rt.lsn)
                        .or_default()
                        .push(BatchOp::DeleteRange {
                            table: rt.table.clone(),
                            start: rt.start.clone(),
                            end: rt.end.clone(),
                        });
                }
                for (lsn, ops) in by_lsn {
                    for op in &ops {
                        w.append_op(op)?;
                    }
                    w.append(&WalRecord::Commit { txid: lsn })?;
                }
                w.sync()?;
            }
            std::fs::rename(&tmp, &wal_path)?;
            manifest::sync_dir(dir)?;
            std::fs::remove_file(&frozen_wal_path)?;
            obs.trace(
                "storage",
                "frozen WAL segment from an interrupted flush folded into wal.log".to_string(),
            );
        } else if std::fs::metadata(&wal_path).map_or(0, |m| m.len()) > live_committed_len {
            // Cut the live log back to its committed prefix before
            // appending to it: a torn frame left in place would end the
            // next replay early, hiding every commit acknowledged after
            // this open, and operations whose commit never landed would
            // be swept into the next one.
            let file = std::fs::OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(live_committed_len)?;
            if options.fsync {
                file.sync_data()?;
            }
        }
        metrics.recovered_records.add(replayed_ops);
        metrics.memtable_bytes.set(memtable.approx_bytes() as u64);
        if replayed_ops > 0 || !handles.is_empty() {
            obs.trace(
                "storage",
                format!(
                    "recovered {} ({replayed_ops} WAL ops over {} runs, {run_entries} entries)",
                    dir.display(),
                    handles.len()
                ),
            );
        }

        let wal = Wal::open(&wal_path, options.fsync)?;
        // Never reuse a run id — not even one whose (corrupt or orphaned)
        // file we just deleted. Monotonic ids are what make id order a
        // valid recency order *within* a level.
        let max_catalog_id = catalog.iter().map(|&(id, _)| id).max().unwrap_or(0);
        let max_run_id = handles
            .iter()
            .map(|h| h.id)
            .max()
            .unwrap_or(0)
            .max(max_file_id)
            .max(max_catalog_id);
        // Restore the LSN clock from *both* sources: the WAL's highest
        // commit txid and the runs' footer max LSN — a flush deletes the
        // WAL segment that held its commits, so after flush + restart
        // the runs are the only witnesses of how far the clock got.
        let max_lsn = handles
            .iter()
            .map(|h| h.run.max_lsn())
            .max()
            .unwrap_or(0)
            .max(max_txid);
        let background = options.compaction.background;
        let core = Arc::new(Core {
            dir: dir.to_path_buf(),
            obs,
            metrics,
            wal: Mutex::new(wal),
            mem: RwLock::new(memtable),
            frozen: RwLock::new(None),
            flush_lock: Mutex::new(()),
            runs: RwLock::new(Arc::new(handles)),
            structural: Mutex::new(()),
            compact_lock: Mutex::new(()),
            next_run_id: AtomicU64::new(max_run_id + 1),
            next_lsn: AtomicU64::new(max_lsn + 1),
            committed_lsn: AtomicU64::new(max_lsn),
            registry: SnapshotRegistry::new(),
            max_level_seen: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            signal: (Mutex::new(false), Condvar::new()),
            options,
        });
        core.update_run_gauges(&core.view());
        let worker = if background {
            let c = core.clone();
            Some(
                std::thread::Builder::new()
                    .name("preserva-compaction".into())
                    .spawn(move || c.worker_loop())
                    .map_err(StorageError::Io)?,
            )
        } else {
            None
        };
        let head = Snapshot {
            core: core.clone(),
            lsn: Lsn::MAX,
        };
        let engine = Engine { core, head, worker };
        // A directory recovered with an over-full level starts compacting
        // immediately rather than waiting for the next flush.
        engine.core.schedule_compaction();
        Ok(engine)
    }

    /// The metrics registry this engine records into.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.core.obs
    }

    /// Directory this engine lives in.
    pub fn dir(&self) -> &Path {
        &self.core.dir
    }

    /// Upsert a single key (its own transaction).
    pub fn put(&self, table: &str, key: &[u8], value: &[u8]) -> StorageResult<()> {
        self.apply_batch(vec![BatchOp::Put {
            table: table.to_string(),
            key: key.to_vec(),
            value: value.to_vec(),
        }])
        .map(|_| ())
    }

    /// Delete a single key (its own transaction).
    pub fn delete(&self, table: &str, key: &[u8]) -> StorageResult<()> {
        self.apply_batch(vec![BatchOp::Delete {
            table: table.to_string(),
            key: key.to_vec(),
        }])
        .map(|_| ())
    }

    /// Delete every key of `table` in `[start, end)` (`end = None` =
    /// unbounded, so `delete_range(t, b"", None)` truncates the table)
    /// as **one range tombstone**: O(1) WAL frames and memtable work no
    /// matter how many keys the range covers. The tombstone shadows all
    /// older versions on reads and is folded by compaction like a point
    /// tombstone. Returns the commit's LSN.
    pub fn delete_range(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> StorageResult<Lsn> {
        self.apply_batch(vec![BatchOp::DeleteRange {
            table: table.to_string(),
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
        }])
    }

    /// Apply a batch of operations atomically: either every operation is
    /// visible after a crash, or none is. Returns the batch's commit LSN
    /// (the current head LSN for an empty batch). A checkpoint the batch
    /// triggers is not part of the commit: its failure goes to the trace
    /// ring, never to the caller of a batch that has landed.
    pub fn apply_batch(&self, ops: Vec<BatchOp>) -> StorageResult<Lsn> {
        self.core.apply_batch(ops)
    }

    /// Bulk-ingest presorted rows straight into a level-1 run, bypassing
    /// the WAL and memtable — one LSN for the whole batch, MANIFEST
    /// committed, all-or-nothing after a crash. `rows` must be strictly
    /// ascending by `(table, key)` and the keys must be fresh: a bulk
    /// row shadows an existing version correctly, but nothing retracts
    /// derived rows (e.g. index entries) the old version left behind —
    /// use sessions for updates. Returns the batch's commit LSN (the
    /// head LSN for an empty batch); like a checkpoint after a commit, a
    /// compaction the run triggers reports failure to the trace ring.
    pub fn ingest_run(&self, rows: Vec<(String, Vec<u8>, Vec<u8>)>) -> StorageResult<Lsn> {
        self.core.ingest_run(rows)
    }

    /// The head LSN: the newest commit every fresh read observes.
    pub fn committed_lsn(&self) -> Lsn {
        self.core.committed_lsn.load(Ordering::SeqCst)
    }

    /// The head reader: reads through it see the newest commit at the
    /// moment each read starts, so two reads may disagree. It pins
    /// nothing and costs no more than the read itself; take
    /// [`snapshot`](Self::snapshot) when several reads must agree.
    pub fn head(&self) -> &Snapshot {
        &self.head
    }

    /// Pin a repeatable-read snapshot at the current head LSN. Every
    /// read through the handle resolves to exactly the state after that
    /// commit, no matter how many commits, flushes or compactions land
    /// afterwards. Dropping the handle releases the pin (unblocking
    /// compaction's fold horizon) — hold snapshots for the duration of a
    /// logical read, not forever.
    pub fn snapshot(&self) -> Snapshot {
        let lsn = self.core.committed_lsn.load(Ordering::SeqCst);
        self.core.pin(lsn)
    }

    /// Pin a snapshot at a historical LSN — time travel to the state
    /// right after commit `lsn`. Clamped to the current head. Versions
    /// already folded by compaction (below the oldest pin at fold time)
    /// resolve to their folded survivors; pin early to keep history
    /// readable.
    pub fn as_of(&self, lsn: Lsn) -> Snapshot {
        let head = self.core.committed_lsn.load(Ordering::SeqCst);
        self.core.pin(lsn.min(head))
    }

    /// Flush the memtable into a fresh level-1 run — O(memtable), not
    /// O(total data) — retiring its WAL segment. The WAL lock is held
    /// only to freeze the memtable, so concurrent commits are barely
    /// delayed. Returns the new run id, or 0 when the memtable was empty.
    pub fn checkpoint(&self) -> StorageResult<u64> {
        self.core.checkpoint()
    }

    /// Force a full compaction: merge every run into one bottom-level run,
    /// folding tombstones. Returns whether a merge actually ran.
    pub fn compact(&self) -> StorageResult<bool> {
        self.core.compact()
    }

    /// Reader snapshots currently pinned. A lifecycle layer (e.g. a
    /// `Collection` close) asserts this is zero before shutdown: a
    /// leaked pin silently floors the compaction fold horizon forever.
    pub fn snapshots_pinned(&self) -> usize {
        self.core.registry.count()
    }

    /// Live runs per level, ascending by level. Empty when the store has
    /// no runs yet.
    pub fn runs_per_level(&self) -> Vec<(u32, usize)> {
        let view = self.core.view();
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for h in view.iter() {
            *counts.entry(h.level).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Snapshot of the engine's counters, read back from the registry.
    pub fn stats(&self) -> EngineStats {
        let m = &self.core.metrics;
        EngineStats {
            puts: m.puts.get(),
            deletes: m.deletes.get(),
            gets: m.gets.get(),
            scans: m.scans.get(),
            commits: m.commits.get(),
            checkpoints: m.checkpoints.get(),
            compactions: m.compactions.get(),
            recovered_records: m.recovered_records.get(),
            recovered_from_snapshot: m.recovered_snapshot_entries.get(),
            torn_tail_discarded: m.torn_tail_discards.get() > 0,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        let (lock, cvar) = &self.core.signal;
        {
            let _pending = lock.lock().expect("engine poisoned");
            cvar.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A read view of the engine at one LSN.
///
/// [`Engine::snapshot`] (head LSN) and [`Engine::as_of`] (historical
/// LSN) pin one: every read resolves to the newest version at or below
/// the pinned LSN, and repeated reads return byte-identical answers
/// regardless of concurrent commits, flushes and compactions. The pin is
/// registered with the engine's [`SnapshotRegistry`], flooring the
/// compaction fold horizon, and released on drop. The handle keeps the
/// engine core alive and stays valid even after the `Engine` itself is
/// dropped.
///
/// [`Engine::head`] lends the head reader: a snapshot at [`Lsn::MAX`],
/// which no pin can sit at (`as_of` clamps to the committed LSN). It
/// reads the newest commit, is not repeatable, and neither it nor its
/// clones touch the registry.
pub struct Snapshot {
    core: Arc<Core>,
    lsn: Lsn,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("lsn", &self.lsn).finish()
    }
}

impl Snapshot {
    /// The read LSN: reads see exactly the commits at or below it.
    /// [`Lsn::MAX`] for the head reader.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Whether this is the unpinned head reader.
    fn is_head(&self) -> bool {
        self.lsn == Lsn::MAX
    }

    /// Point read: active memtable first, then the frozen one (when a
    /// flush is in flight), then runs newest-data-first, touching at
    /// most one data block per run thanks to bloom filter + block index.
    pub fn get(&self, table: &str, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.core.get(table, key, self.lsn)
    }

    /// Range scan over `table`: keys in `[start, end)`, `end = None`
    /// meaning unbounded. Returns owned pairs sorted by key, each key's
    /// highest LSN winning across layers, tombstones suppressed.
    pub fn scan(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        self.core.scan(table, start, end, self.lsn)
    }

    /// Full-table scan.
    pub fn scan_all(&self, table: &str) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan(table, b"", None)
    }

    /// Number of live keys in `table`, without materializing a single
    /// value byte (the `value_bytes_read` family stays untouched).
    pub fn count(&self, table: &str) -> StorageResult<usize> {
        self.core.count(table, self.lsn)
    }

    /// Live keys of `table` in `[start, end)`, sorted, copying no value
    /// bytes.
    pub fn scan_keys(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> StorageResult<Vec<Vec<u8>>> {
        self.core.scan_keys(table, start, end, self.lsn)
    }

    /// Tables holding at least one live key.
    pub fn tables(&self) -> StorageResult<Vec<String>> {
        self.core.tables(self.lsn)
    }
}

impl Clone for Snapshot {
    /// Cloning a pinned snapshot pins its LSN again, so each handle
    /// releases exactly one pin on drop; a head clone pins nothing.
    fn clone(&self) -> Snapshot {
        if self.is_head() {
            return Snapshot {
                core: self.core.clone(),
                lsn: self.lsn,
            };
        }
        self.core.pin(self.lsn)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if !self.is_head() {
            self.core.registry.unpin(self.lsn);
            self.core.refresh_snapshot_gauges();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-engine-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = tmpdir("basic");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"k", b"v").unwrap();
        assert_eq!(e.head().get("t", b"k").unwrap().as_deref(), Some(&b"v"[..]));
        e.delete("t", b"k").unwrap();
        assert_eq!(e.head().get("t", b"k").unwrap(), None);
    }

    #[test]
    fn recovery_replays_committed_writes() {
        let dir = tmpdir("recover");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("records", b"1", b"frog").unwrap();
            e.put("records", b"2", b"bird").unwrap();
            e.delete("records", b"1").unwrap();
        }
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.head().get("records", b"1").unwrap(), None);
        assert_eq!(
            e.head().get("records", b"2").unwrap().as_deref(),
            Some(&b"bird"[..])
        );
        assert_eq!(e.stats().recovered_records, 3);
    }

    #[test]
    fn uncommitted_batch_is_rolled_back() {
        let dir = tmpdir("atomicity");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("t", b"committed", b"yes").unwrap();
        }
        // Hand-craft a torn transaction: a Put with no Commit frame.
        {
            let mut w = Wal::open(&dir.join("wal.log"), false).unwrap();
            w.append_op(&BatchOp::Put {
                table: "t".into(),
                key: b"uncommitted".to_vec(),
                value: b"no".to_vec(),
            })
            .unwrap();
            w.sync().unwrap();
        }
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(
            e.head().get("t", b"committed").unwrap().as_deref(),
            Some(&b"yes"[..])
        );
        assert_eq!(e.head().get("t", b"uncommitted").unwrap(), None);
    }

    #[test]
    fn commits_after_a_torn_tail_survive_the_next_reopen() {
        let dir = tmpdir("torn-then-write");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("t", b"committed", b"yes").unwrap();
        }
        // A crash mid-transaction: one whole uncommitted Put, then a
        // frame torn three bytes short.
        let wal_path = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal_path, false).unwrap();
            w.append_op(&BatchOp::Put {
                table: "t".into(),
                key: b"uncommitted".to_vec(),
                value: b"no".to_vec(),
            })
            .unwrap();
            w.append(&WalRecord::Commit { txid: 99 }).unwrap();
            w.sync().unwrap();
        }
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            assert!(e.stats().torn_tail_discarded);
            e.put("t", b"after", b"acked").unwrap();
        }
        // The acknowledged write must not hide behind the torn frame, and
        // the uncommitted Put must not ride along in its commit.
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert!(
            !e.stats().torn_tail_discarded,
            "log cut to its committed prefix"
        );
        assert_eq!(
            e.head().get("t", b"after").unwrap().as_deref(),
            Some(&b"acked"[..])
        );
        assert_eq!(e.head().get("t", b"uncommitted").unwrap(), None);
        assert_eq!(
            e.head().get("t", b"committed").unwrap().as_deref(),
            Some(&b"yes"[..])
        );
    }

    #[test]
    fn checkpoint_then_recover() {
        let dir = tmpdir("checkpoint");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            for i in 0..100u32 {
                e.put("t", &i.to_be_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            e.checkpoint().unwrap();
            e.put("t", &200u32.to_be_bytes(), b"after").unwrap();
        }
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.head().count("t").unwrap(), 101);
        assert_eq!(
            e.head().get("t", &200u32.to_be_bytes()).unwrap().as_deref(),
            Some(&b"after"[..])
        );
        // Run-resident key still readable.
        assert_eq!(
            e.head().get("t", &42u32.to_be_bytes()).unwrap().as_deref(),
            Some(&b"v42"[..])
        );
    }

    #[test]
    fn compaction_folds_tombstones_at_bottom_level() {
        let dir = tmpdir("tombfold");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"a", b"1").unwrap();
        e.checkpoint().unwrap();
        e.delete("t", b"a").unwrap();
        e.checkpoint().unwrap();
        assert_eq!(e.head().get("t", b"a").unwrap(), None);
        // Two runs exist; the newer one holds the tombstone.
        assert_eq!(e.runs_per_level(), vec![(1, 2)]);
        assert!(e.compact().unwrap());
        // Folded into one bottom-level run with nothing left in it... the
        // merge of {tombstone over "a"} and {"a"=1} is empty.
        assert_eq!(e.runs_per_level(), vec![]);
        drop(e);
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.head().get("t", b"a").unwrap(), None);
        assert_eq!(e.head().count("t").unwrap(), 0);
    }

    #[test]
    fn flush_is_memtable_only_and_runs_accumulate() {
        let dir = tmpdir("tiered");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100, // keep all runs: observe accumulation
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        for round in 0..3u32 {
            e.put("t", &round.to_be_bytes(), b"x").unwrap();
            let id = e.checkpoint().unwrap();
            assert_eq!(id as u32, round + 1, "one fresh run per flush");
        }
        assert_eq!(e.runs_per_level(), vec![(1, 3)]);
        // Each run holds exactly the memtable it flushed: 1 entry.
        let bytes: Vec<u64> = manifest::list_run_files(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| Run::open(p).unwrap().entries())
            .collect();
        assert_eq!(bytes, vec![1, 1, 1]);
        assert_eq!(e.head().count("t").unwrap(), 3);
    }

    #[test]
    fn auto_compaction_keeps_levels_bounded() {
        let dir = tmpdir("autocompact");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false, // deterministic: drain after each flush
                max_runs_per_level: 2,
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        for i in 0..20u32 {
            e.put("t", &i.to_be_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            e.checkpoint().unwrap();
        }
        for (level, count) in e.runs_per_level() {
            assert!(count <= 2, "level {level} holds {count} runs, bound is 2");
        }
        assert!(e.stats().compactions > 0);
        assert_eq!(e.head().count("t").unwrap(), 20);
        for i in 0..20u32 {
            assert_eq!(
                e.head().get("t", &i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
    }

    #[test]
    fn scan_merges_runs_and_memtable() {
        let dir = tmpdir("scanmerge");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"a", b"snap").unwrap();
        e.put("t", b"b", b"snap").unwrap();
        e.checkpoint().unwrap();
        e.put("t", b"b", b"mem").unwrap(); // shadow
        e.put("t", b"c", b"mem").unwrap(); // new
        e.delete("t", b"a").unwrap(); // tombstone over run
        let rows = e.head().scan_all("t").unwrap();
        assert_eq!(
            rows,
            vec![
                (b"b".to_vec(), b"mem".to_vec()),
                (b"c".to_vec(), b"mem".to_vec())
            ]
        );
    }

    #[test]
    fn scan_merges_across_multiple_runs() {
        let dir = tmpdir("scanmulti");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100,
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        e.put("t", b"a", b"old").unwrap();
        e.put("t", b"b", b"old").unwrap();
        e.checkpoint().unwrap();
        e.put("t", b"b", b"new").unwrap(); // shadows across runs
        e.delete("t", b"a").unwrap(); // tombstone in newer run
        e.put("t", b"c", b"new").unwrap();
        e.checkpoint().unwrap();
        assert_eq!(e.runs_per_level(), vec![(1, 2)]);
        let rows = e.head().scan_all("t").unwrap();
        assert_eq!(
            rows,
            vec![
                (b"b".to_vec(), b"new".to_vec()),
                (b"c".to_vec(), b"new".to_vec())
            ]
        );
        assert_eq!(e.head().count("t").unwrap(), 2);
    }

    #[test]
    fn scan_range_bounds() {
        let dir = tmpdir("scanrange");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for k in ["a", "b", "c", "d"] {
            e.put("t", k.as_bytes(), b"x").unwrap();
        }
        let rows = e.head().scan("t", b"b", Some(b"d")).unwrap();
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn inverted_scan_bounds_yield_empty() {
        let dir = tmpdir("inverted");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"m", b"v").unwrap();
        assert!(e.head().scan("t", b"z", Some(b"a")).unwrap().is_empty());
        assert!(e.head().scan("t", b"m", Some(b"m")).unwrap().is_empty());
    }

    #[test]
    fn tables_lists_live_tables_only() {
        let dir = tmpdir("tables");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("alpha", b"k", b"v").unwrap();
        e.put("beta", b"k", b"v").unwrap();
        e.delete("beta", b"k").unwrap();
        assert_eq!(e.head().tables().unwrap(), vec!["alpha".to_string()]);
        // Same answer when the state lives in runs.
        e.checkpoint().unwrap();
        assert_eq!(e.head().tables().unwrap(), vec!["alpha".to_string()]);
    }

    #[test]
    fn auto_checkpoint_fires_on_threshold() {
        let dir = tmpdir("auto");
        let opts = EngineOptions {
            fsync: false,
            checkpoint_bytes: 64,
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        for i in 0..20u32 {
            e.put("t", &i.to_be_bytes(), &[0u8; 32]).unwrap();
        }
        assert!(e.stats().checkpoints >= 1);
    }

    #[test]
    fn batch_is_atomic_in_memory_too() {
        let dir = tmpdir("batch");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.apply_batch(vec![
            BatchOp::Put {
                table: "t".into(),
                key: b"x".to_vec(),
                value: b"1".to_vec(),
            },
            BatchOp::Put {
                table: "t".into(),
                key: b"y".to_vec(),
                value: b"2".to_vec(),
            },
            BatchOp::Delete {
                table: "t".into(),
                key: b"x".to_vec(),
            },
        ])
        .unwrap();
        assert_eq!(e.head().get("t", b"x").unwrap(), None);
        assert_eq!(e.head().get("t", b"y").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(e.stats().commits, 1);
    }

    #[test]
    fn count_reads_no_value_bytes() {
        let dir = tmpdir("countbytes");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for i in 0..10u32 {
            e.put("t", &i.to_be_bytes(), &[7u8; 100]).unwrap();
        }
        e.checkpoint().unwrap();
        // Mix in memtable-resident state: a new key and a tombstone
        // shadowing a run key.
        e.put("t", &100u32.to_be_bytes(), &[7u8; 100]).unwrap();
        e.delete("t", &0u32.to_be_bytes()).unwrap();
        let bytes = e
            .metrics_registry()
            .counter("preserva_storage_value_bytes_read_total", "");
        let before = bytes.get();
        assert_eq!(e.head().count("t").unwrap(), 10);
        // The old implementation was scan_all().len(): it cloned every live
        // value (10 × 100 B here) just to throw them away.
        assert_eq!(bytes.get(), before, "count() must not materialize values");
        let _ = e.head().scan_all("t").unwrap();
        assert_eq!(bytes.get(), before + 1000, "scans do read value bytes");
        let _ = e.head().get("t", &1u32.to_be_bytes()).unwrap();
        assert_eq!(bytes.get(), before + 1100, "gets do read value bytes");
    }

    #[test]
    fn shared_registry_exposes_storage_families() {
        let dir = tmpdir("families");
        let reg = Arc::new(Registry::new());
        let opts = EngineOptions {
            metrics: Some(reg.clone()),
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        e.put("t", b"k", b"v").unwrap();
        e.checkpoint().unwrap();
        let text = reg.render_prometheus();
        // The tiered flush writes no Checkpoint WAL frame: just put + commit.
        assert!(text.contains("preserva_storage_wal_appends_total 2"));
        assert!(text.contains("preserva_storage_wal_fsyncs_total 0")); // fsync off
        assert!(text.contains("preserva_storage_commits_total 1"));
        assert!(text.contains("preserva_storage_checkpoints_total 1"));
        assert!(text.contains("preserva_storage_commit_seconds_count 1"));
        assert!(text.contains("preserva_storage_checkpoint_seconds_count 1"));
        assert!(text.contains("preserva_storage_memtable_bytes 0"));
        assert!(text.contains("preserva_storage_runs_per_level{level=\"1\"} 1"));
        assert!(text.contains("preserva_storage_compactions_total 0"));
        assert!(text.contains("preserva_storage_bloom_hits_total"));
        assert!(text.contains("preserva_storage_bloom_misses_total"));
        // MVCC families are registered (and zero) from the start.
        assert!(text.contains("preserva_storage_snapshots_pinned 0"));
        assert!(text.contains("preserva_storage_oldest_snapshot_lag 0"));
        assert!(text.contains("preserva_storage_compaction_versions_folded_total 0"));
        assert!(text.contains("preserva_storage_range_tombstones_applied_total 0"));
    }

    #[test]
    fn snapshot_is_repeatable_across_commit_flush_and_compaction() {
        let dir = tmpdir("mvccpin");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 2,
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        e.put("t", b"a", b"1").unwrap();
        e.put("t", b"b", b"2").unwrap();
        let snap = e.snapshot();
        let before = snap.scan_all("t").unwrap();
        // Churn: overwrite, delete, add, flush repeatedly, full-compact.
        e.put("t", b"a", b"changed").unwrap();
        e.delete("t", b"b").unwrap();
        for i in 0..10u32 {
            e.put("t", &i.to_be_bytes(), b"x").unwrap();
            e.checkpoint().unwrap();
        }
        assert!(e.compact().unwrap());
        assert_eq!(snap.scan_all("t").unwrap(), before, "repeatable read");
        assert_eq!(snap.get("t", b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(snap.get("t", b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(snap.count("t").unwrap(), 2);
        // The live view moved on.
        assert_eq!(
            e.head().get("t", b"a").unwrap().as_deref(),
            Some(&b"changed"[..])
        );
        assert_eq!(e.head().get("t", b"b").unwrap(), None);
    }

    #[test]
    fn as_of_reads_any_journaled_point() {
        let dir = tmpdir("asof");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        // Pin early so compaction never folds the history away.
        let guard = e.snapshot();
        let mut lsns = Vec::new();
        for i in 1..=5u32 {
            lsns.push(
                e.apply_batch(vec![BatchOp::Put {
                    table: "t".into(),
                    key: b"k".to_vec(),
                    value: format!("v{i}").into_bytes(),
                }])
                .unwrap(),
            );
        }
        e.checkpoint().unwrap();
        for (i, &lsn) in lsns.iter().enumerate() {
            let at = e.as_of(lsn);
            assert_eq!(
                at.get("t", b"k").unwrap().as_deref(),
                Some(format!("v{}", i + 1).as_bytes()),
                "as_of({lsn}) sees exactly commit {}",
                i + 1
            );
        }
        // Before the first commit the key does not exist.
        assert_eq!(guard.get("t", b"k").unwrap(), None);
        // A future LSN clamps to head.
        assert_eq!(
            e.as_of(Lsn::MAX).get("t", b"k").unwrap().as_deref(),
            Some(&b"v5"[..])
        );
    }

    #[test]
    fn delete_range_is_one_commit_and_hides_the_range() {
        let dir = tmpdir("delrange");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for i in 0..100u32 {
            e.put("t", &i.to_be_bytes(), b"v").unwrap();
        }
        e.put("u", b"other", b"kept").unwrap();
        e.checkpoint().unwrap();
        let appends = e
            .metrics_registry()
            .counter("preserva_storage_wal_appends_total", "");
        let before = appends.get();
        let snap = e.snapshot();
        e.delete_range("t", b"", None).unwrap();
        assert_eq!(
            appends.get(),
            before + 2,
            "one DeleteRange frame + one Commit frame, independent of row count"
        );
        assert_eq!(e.head().count("t").unwrap(), 0);
        assert_eq!(e.head().scan_all("t").unwrap(), vec![]);
        assert_eq!(e.head().get("t", &5u32.to_be_bytes()).unwrap(), None);
        assert_eq!(
            e.head().get("u", b"other").unwrap().as_deref(),
            Some(&b"kept"[..])
        );
        assert_eq!(e.head().tables().unwrap(), vec!["u".to_string()]);
        // The pre-delete snapshot still sees everything.
        assert_eq!(snap.count("t").unwrap(), 100);
        // Writes after the tombstone are visible again.
        e.put("t", &7u32.to_be_bytes(), b"back").unwrap();
        assert_eq!(
            e.head().get("t", &7u32.to_be_bytes()).unwrap().as_deref(),
            Some(&b"back"[..])
        );
        assert_eq!(e.head().count("t").unwrap(), 1);
        // Bounded variant.
        e.delete_range("t", &0u32.to_be_bytes(), Some(&100u32.to_be_bytes()))
            .unwrap();
        assert_eq!(e.head().count("t").unwrap(), 0);
    }

    #[test]
    fn delete_range_survives_flush_compaction_and_recovery() {
        let dir = tmpdir("delrangedur");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100,
            },
            ..EngineOptions::default()
        };
        {
            let e = Engine::open(&dir, opts.clone()).unwrap();
            for i in 0..50u32 {
                e.put("t", &i.to_be_bytes(), b"v").unwrap();
            }
            e.checkpoint().unwrap(); // rows now live in a run
            e.delete_range("t", b"", None).unwrap();
            e.checkpoint().unwrap(); // tombstone now lives in a run too
            assert_eq!(e.head().count("t").unwrap(), 0);
        }
        // Recovery: the tombstone reloads from the run footer section.
        let e = Engine::open(&dir, opts).unwrap();
        assert_eq!(e.head().count("t").unwrap(), 0);
        assert_eq!(e.head().get("t", &10u32.to_be_bytes()).unwrap(), None);
        // Full compaction folds rows and tombstone away entirely.
        assert!(e.compact().unwrap());
        assert_eq!(e.runs_per_level(), vec![]);
        assert_eq!(e.head().count("t").unwrap(), 0);
        let applied = e
            .metrics_registry()
            .counter("preserva_storage_range_tombstones_applied_total", "");
        assert!(applied.get() > 0, "folding counted RT applications");
    }

    #[test]
    fn dropping_the_last_snapshot_unblocks_folding() {
        let dir = tmpdir("unpinfold");
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100,
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        e.put("t", b"k", b"old").unwrap();
        e.checkpoint().unwrap();
        let snap = e.snapshot();
        e.put("t", b"k", b"new").unwrap();
        e.checkpoint().unwrap();
        // Pinned: the merge must keep both versions.
        assert!(e.compact().unwrap());
        let run_files = manifest::list_run_files(&dir).unwrap();
        assert_eq!(run_files.len(), 1);
        assert_eq!(Run::open(&run_files[0].1).unwrap().entries(), 2);
        assert_eq!(snap.get("t", b"k").unwrap().as_deref(), Some(&b"old"[..]));
        // Unpinned: the horizon advances and the next merge folds the
        // old version (a fresh run gives the full compaction something
        // to merge with).
        drop(snap);
        e.put("t", b"k2", b"x").unwrap();
        e.checkpoint().unwrap();
        assert!(e.compact().unwrap());
        let run_files = manifest::list_run_files(&dir).unwrap();
        assert_eq!(run_files.len(), 1);
        assert_eq!(
            Run::open(&run_files[0].1).unwrap().entries(),
            2,
            "k@old folded once nothing pins it; k@new and k2 remain"
        );
        let folded = e
            .metrics_registry()
            .counter("preserva_storage_compaction_versions_folded_total", "");
        assert!(folded.get() > 0);
        assert_eq!(
            e.head().get("t", b"k").unwrap().as_deref(),
            Some(&b"new"[..])
        );
    }

    #[test]
    fn snapshot_gauges_track_pins_and_lag() {
        let dir = tmpdir("snapgauge");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"k", b"v").unwrap();
        let pinned = e
            .metrics_registry()
            .gauge("preserva_storage_snapshots_pinned", "");
        let lag = e
            .metrics_registry()
            .gauge("preserva_storage_oldest_snapshot_lag", "");
        assert_eq!(pinned.get(), 0);
        let s1 = e.snapshot();
        let s2 = e.snapshot();
        assert_eq!(pinned.get(), 2);
        assert_eq!(lag.get(), 0);
        for i in 0..5u32 {
            e.put("t", &i.to_be_bytes(), b"x").unwrap();
        }
        assert_eq!(lag.get(), 5, "head advanced 5 commits past the pins");
        drop(s1);
        drop(s2);
        assert_eq!(pinned.get(), 0);
        assert_eq!(lag.get(), 0, "no pins, no lag");
    }

    #[test]
    fn bloom_counters_track_run_lookups() {
        let dir = tmpdir("bloomcount");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        for i in 0..50u32 {
            e.put("t", &i.to_be_bytes(), b"v").unwrap();
        }
        e.checkpoint().unwrap();
        let hits = e
            .metrics_registry()
            .counter("preserva_storage_bloom_hits_total", "");
        let misses = e
            .metrics_registry()
            .counter("preserva_storage_bloom_misses_total", "");
        for i in 0..50u32 {
            assert!(e.head().get("t", &i.to_be_bytes()).unwrap().is_some());
        }
        assert_eq!(hits.get(), 50, "every present key consults a block");
        let miss_before = misses.get();
        for i in 1000..1100u32 {
            assert!(e.head().get("t", &i.to_be_bytes()).unwrap().is_none());
        }
        assert!(
            misses.get() - miss_before > 90,
            "absent keys mostly skip the run via the bloom filter"
        );
    }

    #[test]
    fn fsync_option_counts_fsyncs() {
        let dir = tmpdir("fsynccount");
        let opts = EngineOptions {
            fsync: true,
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts).unwrap();
        e.put("t", b"a", b"1").unwrap();
        e.put("t", b"b", b"2").unwrap();
        let fsyncs = e
            .metrics_registry()
            .counter("preserva_storage_wal_fsyncs_total", "");
        assert_eq!(fsyncs.get(), 2);
    }

    #[test]
    fn bulk_metrics_families_advance() {
        let dir = tmpdir("bulkmetrics");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.put("t", b"a", b"1").unwrap();
        e.ingest_run(vec![
            ("t".into(), b"b".to_vec(), b"2".to_vec()),
            ("t".into(), b"c".to_vec(), b"3".to_vec()),
        ])
        .unwrap();
        let reg = e.metrics_registry();
        assert_eq!(
            reg.counter("preserva_storage_ingest_records_total", "")
                .get(),
            2,
            "only the direct run counts as bulk ingest"
        );
        assert_eq!(
            reg.counter("preserva_storage_bulk_batches_total", "").get(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_is_noop() {
        let dir = tmpdir("emptybatch");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        e.apply_batch(vec![]).unwrap();
        assert_eq!(e.stats().commits, 0);
    }

    #[test]
    fn empty_checkpoint_is_noop() {
        let dir = tmpdir("emptyflush");
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.checkpoint().unwrap(), 0);
        assert_eq!(e.stats().checkpoints, 0);
        assert_eq!(e.runs_per_level(), vec![]);
        e.put("t", b"k", b"v").unwrap();
        assert!(e.checkpoint().unwrap() > 0);
        assert_eq!(e.checkpoint().unwrap(), 0, "nothing new to flush");
    }

    #[test]
    fn recovery_survives_corrupt_manifest_via_directory_scan() {
        let dir = tmpdir("manifestfallback");
        {
            let opts = EngineOptions {
                compaction: CompactionOptions {
                    background: false,
                    max_runs_per_level: 100,
                },
                ..EngineOptions::default()
            };
            let e = Engine::open(&dir, opts).unwrap();
            e.put("t", b"a", b"1").unwrap();
            e.checkpoint().unwrap();
            e.delete("t", b"a").unwrap();
            e.put("t", b"b", b"2").unwrap();
            e.checkpoint().unwrap();
        }
        // Trash the manifest; recovery must fall back to the directory
        // scan, taking levels from the run footers.
        std::fs::write(manifest::manifest_path(&dir), b"garbage").unwrap();
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(
            e.head().get("t", b"a").unwrap(),
            None,
            "tombstone still wins"
        );
        assert_eq!(e.head().get("t", b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert!(
            manifest::load(&dir).unwrap().is_some(),
            "manifest rewritten after fallback"
        );
    }

    /// Forge the post-race layout on disk: a level-2 compaction output
    /// that was allocated a *higher* id than a level-1 flush run holding
    /// strictly newer data (a flush racing a compaction). Every
    /// entry shares one LSN, so no version ordering can hide a wrong
    /// precedence: `(level asc, id desc)` alone must decide.
    fn forge_inverted_id_layout(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        let entry = |key: &[u8], value: Option<&[u8]>| {
            (
                ("t".to_string(), key.to_vec()),
                1,
                value.map(<[u8]>::to_vec),
            )
        };
        // Newer flush run: lower id, level 1.
        sstable::write_run(
            &manifest::run_path(dir, 10),
            1,
            2,
            &mut sstable::borrowed(&[entry(b"del", None), entry(b"k", Some(b"new"))]),
            &[],
        )
        .unwrap();
        // Stale compaction output: higher id, level 2.
        sstable::write_run(
            &manifest::run_path(dir, 11),
            2,
            2,
            &mut sstable::borrowed(&[entry(b"del", Some(b"zombie")), entry(b"k", Some(b"old"))]),
            &[],
        )
        .unwrap();
    }

    fn assert_level1_wins(e: &Engine) {
        assert_eq!(
            e.head().get("t", b"k").unwrap().as_deref(),
            Some(&b"new"[..]),
            "level-1 value beats the higher-id level-2 one"
        );
        assert_eq!(
            e.head().get("t", b"del").unwrap(),
            None,
            "level-1 tombstone beats the higher-id level-2 value"
        );
        assert_eq!(
            e.head().scan_all("t").unwrap(),
            vec![(b"k".to_vec(), b"new".to_vec())]
        );
        assert_eq!(e.head().count("t").unwrap(), 1);
    }

    #[test]
    fn stale_compaction_output_with_higher_id_never_shadows_newer_flush() {
        let dir = tmpdir("precedence");
        forge_inverted_id_layout(&dir);
        manifest::store(
            &dir,
            &[RunEntry { id: 10, level: 1 }, RunEntry { id: 11, level: 2 }],
        )
        .unwrap();
        let opts = EngineOptions {
            compaction: CompactionOptions {
                background: false,
                max_runs_per_level: 100,
            },
            ..EngineOptions::default()
        };
        let e = Engine::open(&dir, opts.clone()).unwrap();
        assert_level1_wins(&e);
        // A full merge must make the same versions win *permanently*.
        assert!(e.compact().unwrap());
        assert_eq!(
            e.head().get("t", b"k").unwrap().as_deref(),
            Some(&b"new"[..])
        );
        assert_eq!(e.head().get("t", b"del").unwrap(), None);
        drop(e);
        let e = Engine::open(&dir, opts).unwrap();
        assert_eq!(
            e.head().get("t", b"k").unwrap().as_deref(),
            Some(&b"new"[..])
        );
        assert_eq!(e.head().get("t", b"del").unwrap(), None);
    }

    #[test]
    fn manifest_fallback_recovers_levels_from_run_footers() {
        let dir = tmpdir("footerlevels");
        forge_inverted_id_layout(&dir);
        // No manifest at all: recovery must take each run's level from its
        // footer, not assume id order is recency order.
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_level1_wins(&e);
        assert_eq!(
            e.runs_per_level(),
            vec![(1, 1), (2, 1)],
            "levels restored from footers"
        );
        let rewritten = manifest::load(&dir).unwrap().unwrap();
        assert!(rewritten.contains(&RunEntry { id: 10, level: 1 }));
        assert!(rewritten.contains(&RunEntry { id: 11, level: 2 }));
    }

    #[test]
    fn io_error_on_catalogued_run_fails_open_without_deleting() {
        let dir = tmpdir("iokeep");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("t", b"k", b"v").unwrap();
            e.checkpoint().unwrap();
        }
        // A catalogued run whose *reads* fail with a plain I/O error (a
        // directory opens fine but reads as EISDIR) must fail the open and
        // stay on disk — transient failures are not data loss.
        let mut catalog = manifest::load(&dir).unwrap().unwrap();
        catalog.push(RunEntry { id: 42, level: 1 });
        std::fs::create_dir(manifest::run_path(&dir, 42)).unwrap();
        manifest::store(&dir, &catalog).unwrap();
        match Engine::open(&dir, EngineOptions::default()) {
            Err(StorageError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(
            manifest::run_path(&dir, 42).exists(),
            "unreadable run not deleted"
        );
        // A *corrupt* catalogued run, by contrast, is dropped and deleted.
        std::fs::remove_dir(manifest::run_path(&dir, 42)).unwrap();
        std::fs::write(manifest::run_path(&dir, 42), b"garbage").unwrap();
        manifest::store(&dir, &catalog).unwrap();
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.head().get("t", b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert!(
            !manifest::run_path(&dir, 42).exists(),
            "corrupt run removed"
        );
    }

    #[test]
    fn orphan_and_unreadable_runs_are_cleaned_on_open() {
        let dir = tmpdir("orphans");
        {
            let e = Engine::open(&dir, EngineOptions::default()).unwrap();
            e.put("t", b"k", b"v").unwrap();
            e.checkpoint().unwrap();
        }
        // An orphan run (never committed to the manifest) and a stray
        // temp file.
        std::fs::write(manifest::run_path(&dir, 999), b"not a run").unwrap();
        std::fs::write(dir.join("run-0000000000000500.tmp"), b"half").unwrap();
        let e = Engine::open(&dir, EngineOptions::default()).unwrap();
        assert_eq!(e.head().get("t", b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert!(!manifest::run_path(&dir, 999).exists(), "orphan removed");
        assert!(
            !dir.join("run-0000000000000500.tmp").exists(),
            "temp removed"
        );
        // And fresh ids never collide with the deleted orphan's.
        assert!(e.core.next_run_id.load(Ordering::SeqCst) > 999);
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    /// The three on-disk forms older builds wrote — a `snap-*.sst`, a v1
    /// `PRUN` run (catalogued, and found by the manifest-fallback scan)
    /// and a tag-4 WAL frame — each fail the open as `Unsupported` and
    /// leave every file byte-identical: no temp sweep, no corrupt-run or
    /// orphan deletion, no manifest rewrite, no WAL fold.
    #[test]
    fn legacy_formats_fail_open_and_stay_on_disk() {
        let base = |tag: &str| {
            let dir = tmpdir(tag);
            {
                let e = Engine::open(&dir, EngineOptions::default()).unwrap();
                e.put("t", b"flushed", b"v").unwrap();
                e.checkpoint().unwrap();
                e.put("t", b"in-wal", b"v").unwrap();
            }
            // Things a successful open would clean up.
            std::fs::write(dir.join("run-0000000000000500.tmp"), b"half").unwrap();
            std::fs::write(manifest::run_path(&dir, 900), b"orphan").unwrap();
            dir
        };
        let mut v1_run = vec![0u8; 64];
        crate::codec::put_u32(&mut v1_run, 0x5052_554E); // "PRUN"
        let mut tag4 = vec![4u8];
        crate::codec::put_u64(&mut tag4, 3);
        let mut tag4_frame = Vec::new();
        crate::codec::put_u32(&mut tag4_frame, tag4.len() as u32);
        crate::codec::put_u32(&mut tag4_frame, crate::crc32::checksum(&tag4));
        tag4_frame.extend(tag4);

        let snap = base("legacy-snap");
        std::fs::write(snap.join("snap-0000000000000003.sst"), b"old snapshot").unwrap();

        let catalogued = base("legacy-v1-catalogued");
        std::fs::write(manifest::run_path(&catalogued, 50), &v1_run).unwrap();
        let mut catalog = manifest::load(&catalogued).unwrap().unwrap();
        catalog.push(RunEntry { id: 50, level: 1 });
        manifest::store(&catalogued, &catalog).unwrap();

        let scanned = base("legacy-v1-scanned");
        std::fs::write(manifest::run_path(&scanned, 50), &v1_run).unwrap();
        std::fs::remove_file(manifest::manifest_path(&scanned)).unwrap();

        let wal = base("legacy-wal");
        let mut log = std::fs::read(wal.join("wal.log")).unwrap();
        log.extend(&tag4_frame);
        std::fs::write(wal.join("wal.log"), &log).unwrap();

        for dir in [snap, catalogued, scanned, wal] {
            let before = dir_bytes(&dir);
            match Engine::open(&dir, EngineOptions::default()) {
                Err(StorageError::Unsupported { path, .. }) => {
                    assert!(path.starts_with(&dir), "{path:?}")
                }
                other => panic!("{dir:?}: expected Unsupported, got {other:?}"),
            }
            assert_eq!(dir_bytes(&dir), before, "{dir:?} changed by a failed open");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
