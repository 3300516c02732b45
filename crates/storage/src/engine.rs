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
//! tombstones once a merge reaches the bottom of the tree. A batch that
//! alone reaches the checkpoint threshold, and every bulk load
//! ([`Engine::ingest_run`]), is committed as the flush it would
//! trigger: merged with the memtable straight into one level-1 run,
//! never entering the WAL or the memtable (`Core::commit_run`). A
//! flush, a run commit and a compaction output all enter the tree
//! through one crash-ordered install routine (`Core::install_run`).
//!
//! ## Read path
//!
//! Reads consult memtable → frozen memtable (when a flush is in flight)
//! → runs in `(level asc, id desc)` order — level 1 always holds the
//! newest versions, ids order runs within a level. Point gets consult
//! each run's bloom filter and block index, touching at most one data
//! block per run; a many-key read ([`Snapshot::get_many`]) is the same
//! walk per key, and reuses the block each run's last lookup verified,
//! so keys in ascending order read each block once. Scans, counts and
//! key listings walk one merge cursor
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
//! per-entry LSNs, and an **LSN-disjointness invariant** holds — the
//! LSN intervals of active memtable, frozen memtable and each run in
//! precedence order strictly decrease, because
//! data only moves active → frozen → level-1 run (a batch committed as
//! a flush joins the frozen memtable in its run, above it), and a
//! compaction merges a contiguous precedence suffix into output older
//! than every surviving layer above it.
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
//! A point read walks layers newest → oldest and keeps the highest LSN
//! at or below its read LSN that any layer holds, skipping each layer
//! whose newest version is no newer than that: layer disjointness makes
//! the first layer that answers the last one consulted, and the walk
//! stays exact where recovery breaks disjointness (see `Core::get_each`).
//!
//! ## Recovery
//!
//! On open the engine loads the manifest (falling back to a directory
//! scan when the manifest is missing or corrupt — safe because every
//! run's footer records its level, so the fallback rebuilds the same
//! `(level asc, id desc)` precedence), opens every catalogued run and
//! replays the committed WAL: `wal.frozen`, the segment of a flush that
//! died mid-way, into the frozen memtable, and the live log into the
//! active one. Only then does it change the directory: it sweeps temp
//! files, deletes corrupt or orphaned runs (plain I/O errors fail the
//! open instead — a transient failure must not become permanent data
//! loss) and cuts the live log back to its last `Commit` frame so new
//! commits never land behind a torn tail. Before the engine starts it
//! flushes the frozen memtable the way a failed flush is retried; if
//! that flush fails, so does the open, and `wal.frozen` stays for the
//! next one. Only operations covered by a `Commit` frame are applied — a
//! crash between `append` and `Commit` rolls the partial transaction
//! back, which is exactly the behaviour the curation layer relies on for
//! its "original records are never half-updated" guarantee.
//!
//! A failed WAL write, flush or sync poisons the engine: the failed
//! batch's buffered frames are dropped unwritten, and every later
//! commit, bulk ingest and checkpoint fails with
//! [`StorageError::Poisoned`] until a reopen; reads and compaction keep
//! working. The reopen's cut removes any part of the batch that reached
//! the file, so a batch whose `Commit` frame did not land never comes
//! back, and one whose sync failed after it landed comes back whole,
//! under its own LSN.
//!
//! A file in a format this build does not read — a `snap-*.sst`
//! single-snapshot file, a v1 (`PRUN`) run, a run holding range
//! tombstones, or a WAL frame that passes its CRC but does not decode
//! (such as a retired range-tombstone frame) — fails the open with
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
use crate::memtable::{self, Memtable};
use crate::snapshot::{Lsn, SnapshotRegistry};
use crate::sstable::{self, Block, Run, RunLookup, RunSummary, Versions};
use crate::wal::{self, Wal, WalRecord};

pub use crate::wal::BatchOp;

/// Tuning knobs for [`Engine::open`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Issue `fsync` on every commit. Disable for tests/benches.
    pub fsync: bool,
    /// Checkpoint automatically once the memtable's estimated size —
    /// table + key + value + 8 bytes per version — reaches this many
    /// bytes. A batch whose own ops reach it, counted the same way, is
    /// committed as that checkpoint: merged with the memtable into one
    /// level-1 run, without passing through the WAL or the memtable
    /// ([`Engine::apply_batch`]).
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
                "Estimated memtable bytes the checkpoint threshold counts: table + key + value + 8 per version.",
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

/// `ops` in `(table, key)` order, each key once with its last op: the
/// versions a memtable keeps of a batch, which overwrites a key it
/// writes twice at the batch's one LSN.
fn last_op_per_key(ops: Vec<BatchOp>) -> Vec<BatchOp> {
    fn key(op: &BatchOp) -> (&str, &[u8]) {
        let (table, key, _) = op.parts();
        (table, key)
    }
    // An unstable sort with each op's position breaking ties orders
    // like a stable one, and faster.
    let mut ops: Vec<(usize, BatchOp)> = ops.into_iter().enumerate().collect();
    ops.sort_unstable_by(|(i, a), (j, b)| (key(a), i).cmp(&(key(b), j)));
    let mut last: Vec<BatchOp> = Vec::with_capacity(ops.len());
    for (_, op) in ops {
        match last.last_mut() {
            Some(prev) if key(prev) == key(&op) => *prev = op,
            _ => last.push(op),
        }
    }
    last
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
        let mut found = None;
        self.get_each(table, &[key], max_lsn, |value| found = value)?;
        Ok(found)
    }

    /// Point reads of `keys` of `table` at `max_lsn`, handing `f` each
    /// key's value (`None` when absent), in the order of `keys`. The one
    /// point-read path: [`Core::get`] is its one-key case.
    ///
    /// Each key samples the memtable, the frozen memtable and the run
    /// view afresh, as a lone read would, because a flush may move data
    /// between layers during the pass. Each run's lookups share one
    /// cursor block, kept by run id: a key that lies in the block the
    /// run's last lookup verified walks those bytes again instead of
    /// reading them, so keys given in ascending order read and check
    /// each block once. A lone key keeps no block.
    fn get_each<K: AsRef<[u8]>>(
        &self,
        table: &str,
        keys: &[K],
        max_lsn: Lsn,
        mut f: impl FnMut(Option<Vec<u8>>),
    ) -> StorageResult<()> {
        let mut blocks: Vec<(u64, Block)> = Vec::new();
        for key in keys {
            let key = key.as_ref();
            self.metrics.gets.inc();
            // Walk layers newest → oldest, keeping the newest version at
            // or below the read LSN found so far. A layer whose every
            // version is at or below that one cannot hold a newer one and
            // is skipped, so a read the memtable answers costs one
            // comparison per run. The walk cannot stop at the first layer
            // that answers: a flush that commits a batch merges it into
            // the memtable's run, but a crash before `wal.frozen` is
            // deleted replays that segment into a run that precedes it
            // and holds older versions of the batch's keys (and a bulk
            // run an older build wrote may sit above versions still in
            // the WAL).
            let mut best: Option<(Lsn, Option<Vec<u8>>)> = None;
            let newer = |best: &Option<(Lsn, Option<Vec<u8>>)>, lsn: Lsn| {
                best.as_ref().is_none_or(|(found, _)| lsn > *found)
            };
            // Memtable first.
            {
                let mem = self.mem.read().expect("engine poisoned");
                if let Some((lsn, value)) = mem.get(table, key, max_lsn) {
                    best = Some((lsn, value.map(<[u8]>::to_vec)));
                }
            }
            // Then the frozen memtable, if a flush is in flight. Data
            // moves active → frozen → runs and we probe in that same
            // order, so a version can never slip past us mid-flush.
            let frozen = self.frozen.read().expect("engine poisoned").clone();
            if let Some(frozen) = frozen.filter(|f| f.max_lsn().is_some_and(|l| newer(&best, l))) {
                if let Some((lsn, value)) = frozen.get(table, key, max_lsn) {
                    if newer(&best, lsn) {
                        best = Some((lsn, value.map(<[u8]>::to_vec)));
                    }
                }
            }
            // Then runs in precedence order. Reading the view last is
            // safe: a flush that races us only moves data from a memtable
            // into a run we are about to consult.
            for handle in self.view().iter() {
                if !newer(&best, handle.run.max_lsn()) {
                    continue;
                }
                let mut fresh = Block::default();
                let block = match blocks.iter_mut().find(|(id, _)| *id == handle.id) {
                    Some((_, kept)) => kept,
                    None => &mut fresh,
                };
                let lookup = handle.run.get_from(block, table, key, max_lsn)?;
                if keys.len() > 1 && fresh.is_held() {
                    blocks.push((handle.id, fresh));
                }
                let (lsn, value) = match lookup {
                    RunLookup::BloomSkip => {
                        self.metrics.bloom_misses.inc();
                        continue;
                    }
                    RunLookup::Absent => {
                        self.metrics.bloom_hits.inc();
                        continue;
                    }
                    RunLookup::Tombstone(lsn) => (lsn, None),
                    RunLookup::Value(lsn, v) => (lsn, Some(v)),
                };
                self.metrics.bloom_hits.inc();
                if newer(&best, lsn) {
                    best = Some((lsn, value));
                }
            }
            let value = best.and_then(|(_, value)| value);
            if let Some(v) = &value {
                self.metrics.value_bytes_read.add(v.len() as u64);
            }
            f(value);
        }
        Ok(())
    }

    /// Visit each live row of `range` — of every table when `None` — at
    /// `max_lsn`, in `(table, key)` order: one [`MergeCursor`] over the
    /// active memtable, the frozen one and the runs. A key's highest LSN
    /// at or below `max_lsn` across the layers wins, then loses to a
    /// tombstone. The active memtable's in-range versions are copied
    /// under its read lock; the frozen memtable and the runs are
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
        let active: Copied = (self.mem.read().expect("engine poisoned"))
            .versions(range)
            .filter(|v| v.2 <= max_lsn)
            .collect();
        let frozen = self.frozen.read().expect("engine poisoned").clone();
        let view = self.view();
        let mut layers = vec![Layer::mem(active.versions())];
        if let Some(frozen) = frozen.as_deref() {
            let versions = frozen.versions(range);
            layers.push(Layer::mem(
                versions.map(|(t, k, lsn, v)| (t.as_bytes(), k, lsn, v)),
            ));
        }
        for handle in view.iter() {
            layers.push(Layer::Run(handle.run.cursor(range)));
        }
        MergeCursor::new(layers).for_each_newest(max_lsn, |(table, key, _, value)| {
            if let Some(value) = value {
                f(table, key, value);
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
    /// applied to the memtable and published. A failed WAL write, flush
    /// or sync poisons the log, so this and every later write fails
    /// until a reopen. A checkpoint the commit triggers is maintenance,
    /// not part of the write: once published the commit returns `Ok`, a
    /// failed checkpoint goes to the trace ring, and the next commit
    /// over the threshold retries it.
    ///
    /// A batch whose own bytes, counted the memtable's way, reach
    /// `checkpoint_bytes` would trigger a checkpoint by itself; it is
    /// committed as that flush instead ([`Core::commit_run`]), and never
    /// enters the WAL or the memtable.
    fn apply_batch(&self, ops: Vec<BatchOp>) -> StorageResult<Lsn> {
        if ops.is_empty() {
            return Ok(self.committed_lsn.load(Ordering::SeqCst));
        }
        let started = Instant::now();
        let bytes: usize = ops
            .iter()
            .map(|op| memtable::version_bytes(op.parts()))
            .sum();
        if bytes >= self.options.checkpoint_bytes {
            let deletes = ops.iter().filter(|op| op.parts().2.is_none()).count() as u64;
            let puts = ops.len() as u64 - deletes;
            let lsn = self.commit_run(ops)?;
            self.metrics.puts.add(puts);
            self.metrics.deletes.add(deletes);
            self.metrics.checkpoints.inc();
            self.metrics
                .checkpoint_seconds
                .observe_duration(started.elapsed());
            return Ok(lsn);
        }
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

    /// Bulk-ingest presorted rows: [`Core::commit_run`] with puts only.
    /// `rows` must be strictly ascending by `(table, key)`.
    fn ingest_run(&self, rows: Vec<(String, Vec<u8>, Vec<u8>)>) -> StorageResult<Lsn> {
        if let Some(pair) = rows
            .windows(2)
            .find(|pair| (&pair[0].0, &pair[0].1) >= (&pair[1].0, &pair[1].1))
        {
            return Err(StorageError::Decode(format!(
                "bulk ingest input not strictly sorted by (table, key): {:?}/{:?} \
                 precedes {:?}/{:?}",
                pair[0].0,
                String::from_utf8_lossy(&pair[0].1),
                pair[1].0,
                String::from_utf8_lossy(&pair[1].1),
            )));
        }
        if rows.is_empty() {
            return Ok(self.committed_lsn.load(Ordering::SeqCst));
        }
        let n = rows.len() as u64;
        let ops = rows
            .into_iter()
            .map(|(table, key, value)| BatchOp::Put { table, key, value })
            .collect();
        let lsn = self.commit_run(ops)?;
        self.metrics.puts.add(n);
        self.metrics.ingest_records.add(n);
        self.metrics.bulk_batches.inc();
        Ok(lsn)
    }

    /// Commit `ops` as the flush they trigger: the memtable and the
    /// batch, merged straight into one level-1 run, all under ONE fresh
    /// LSN. The batch never enters the WAL or the memtable. The path of
    /// every batch that alone reaches `checkpoint_bytes`, and of every
    /// bulk load.
    ///
    /// 1. Take `flush_lock`, and retry a parked frozen memtable first,
    ///    as [`Core::checkpoint`] does.
    /// 2. Take the WAL lock, check that the WAL is writable, and draw
    ///    the LSN. The lock is held to the publish: LSN order and
    ///    visibility order must agree. Readers never take it; writers
    ///    queue behind the run write.
    /// 3. Rotate the WAL and freeze the memtable, if it holds anything.
    /// 4. Sort the batch; the last op of a key wins, as a same-LSN
    ///    overwrite in the memtable does.
    /// 5. Stream the frozen memtable merged with the batch through
    ///    [`Core::install_run`] into one level-1 run; on equal keys the
    ///    batch's version comes first, its LSN being the higher.
    /// 6. Publish the LSN, still under the WAL lock. Then retire the
    ///    frozen memtable and delete `wal.frozen`.
    ///
    /// The memtable is merged in, not left beside the run, so that a
    /// level-1 run keeps holding everything older than the memtable: a
    /// run whose tombstone is newer than a memtable version of its key
    /// would be folded away at the bottom level by compaction, and the
    /// memtable's older version would read again. The merge also makes
    /// the commit durable together with every commit before it, synced
    /// or not, and writes exactly the run the checkpoint the batch
    /// would have triggered writes.
    ///
    /// If the run install fails, the batch is not committed and nothing
    /// is poisoned, since nothing reached the WAL; a frozen memtable
    /// stays parked, as after a failed flush, for the next checkpoint.
    fn commit_run(&self, ops: Vec<BatchOp>) -> StorageResult<Lsn> {
        let started = Instant::now();
        let _flush = self.flush_lock.lock().expect("engine poisoned");
        if self.frozen.read().expect("engine poisoned").is_some() {
            self.flush_frozen()?;
        }
        let mut wal = self.wal.lock().expect("engine poisoned");
        wal.writable()?;
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        let frozen = {
            let mut mem = self.mem.write().expect("engine poisoned");
            if mem.is_empty() {
                None
            } else {
                wal.rotate_to(&self.dir.join(WAL_FROZEN_FILE))?;
                let frozen = Arc::new(std::mem::take(&mut *mem));
                *self.frozen.write().expect("engine poisoned") = Some(frozen.clone());
                self.metrics.memtable_bytes.set(0);
                Some(frozen)
            }
        };
        // Sized as the memtable the batch would have joined counts it:
        // every op, repeated keys included.
        let expected = frozen.as_ref().map_or(0, |f| f.len()) + ops.len();
        let ops = last_op_per_key(ops);
        let batch = ops.iter().map(|op| {
            let (table, key, value) = op.parts();
            (table.as_bytes(), key, lsn, value)
        });
        let mut layers = vec![Layer::mem(batch)];
        if let Some(frozen) = frozen.as_deref() {
            layers.push(Layer::mem(
                frozen
                    .iter()
                    .map(|(t, k, lsn, v)| (t.as_bytes(), k, lsn, v)),
            ));
        }
        let (id, summary) =
            self.install_run(1, expected as u64, &mut MergeCursor::new(layers), &[])?;
        // Publish while still holding the WAL lock: a snapshot pinned the
        // instant after this returns must see the whole batch.
        self.committed_lsn.store(lsn, Ordering::SeqCst);
        drop(wal);
        if frozen.is_some() {
            *self.frozen.write().expect("engine poisoned") = None;
            let _ = std::fs::remove_file(self.dir.join(WAL_FROZEN_FILE));
        }
        self.refresh_snapshot_gauges();
        self.metrics.commits.inc();
        self.metrics
            .commit_seconds
            .observe_duration(started.elapsed());
        self.obs.trace(
            "storage",
            format!(
                "flush {id} commits lsn {lsn}: {} ops over {} memtable entries, {} bytes, {} tombstones",
                ops.len(),
                frozen.as_ref().map_or(0, |f| f.len()),
                summary.bytes,
                summary.tombstones
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
        // A poisoned engine flushes nothing until it is reopened.
        self.wal.lock().expect("engine poisoned").writable()?;
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
        // Every version is carried into the run — flushing must not
        // change what any pinned snapshot sees; only compaction may fold,
        // and only below the horizon. Versions stream borrowed: the
        // frozen memtable is never copied.
        let (id, summary) = self.install_run(1, flushed, &mut snapshot.iter(), &[])?;
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
    ///    is durable before anything names it. An output with no entries
    ///    (a merge that folded everything away) is deleted instead and
    ///    only the retirement commits.
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
        retired: &[u64],
    ) -> StorageResult<(u64, RunSummary)> {
        let id = self.next_run_id.fetch_add(1, Ordering::SeqCst);
        let tmp = run_tmp_path(&self.dir, id);
        let summary =
            sstable::write_run(&tmp, level, expected_entries, versions).inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })?;
        let installed = if summary.entries == 0 {
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
            [only] => only.run.tombstones() > 0,
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
        let runs: Vec<&Run> = inputs.iter().map(|h| &h.run).collect();
        let mut merge = compaction::Merge::new(&runs, task.drop_tombstones, horizon);
        // `input_entries` over-counts the output (shadowed versions and
        // folded tombstones drop out) — fine for a bloom sizing bound.
        let (out_id, summary) =
            self.install_run(task.output_level, input_entries, &mut merge, &task.inputs)?;
        for h in &inputs {
            let _ = std::fs::remove_file(manifest::run_path(&self.dir, h.id));
        }
        self.metrics.versions_folded.add(merge.versions_folded());
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
        // transactions, all older than the live log's. It replays into
        // the frozen slot, where a failed flush parks its memtable, and
        // is flushed below, before the engine starts.
        let wal_path = dir.join("wal.log");
        let frozen_wal_path = dir.join(WAL_FROZEN_FILE);
        let mut max_txid = 0u64;
        let mut replayed_ops = 0u64;
        let mut replay = |segment: &Path| -> StorageResult<(Memtable, u64)> {
            let replayed = wal::replay(segment)?;
            if replayed.torn_tail {
                metrics.torn_tail_discards.inc();
                obs.trace(
                    "storage",
                    format!(
                        "torn WAL tail discarded during recovery of {}",
                        segment.display()
                    ),
                );
            }
            let mut memtable = Memtable::new();
            let (ops, txid) = apply_committed(replayed.records, &mut memtable);
            replayed_ops += ops;
            max_txid = max_txid.max(txid);
            Ok((memtable, replayed.committed_len))
        };
        let frozen = if frozen_wal_path.exists() {
            Some(replay(&frozen_wal_path)?.0)
        } else {
            None
        };
        let (memtable, live_committed_len) = replay(&wal_path)?;

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

        // 6. Cut the live log back to its committed prefix before
        // appending to it: a torn frame left in place would end the next
        // replay early, hiding every commit acknowledged after this open,
        // and operations whose commit never landed — a torn batch, or one
        // whose WAL write failed — would be swept into the next one.
        if std::fs::metadata(&wal_path).map_or(0, |m| m.len()) > live_committed_len {
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
        let parked_flush = frozen.is_some();
        let core = Arc::new(Core {
            dir: dir.to_path_buf(),
            obs,
            metrics,
            wal: Mutex::new(wal),
            mem: RwLock::new(memtable),
            frozen: RwLock::new(frozen.map(Arc::new)),
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
        // The frozen segment's memtable enters the tree through the same
        // flush that retries a failed one. If it fails, so does the open,
        // and `wal.frozen` stays for the next open to retry.
        if parked_flush {
            let _flush = core.flush_lock.lock().expect("engine poisoned");
            core.flush_frozen()?;
        }
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

    /// Apply a batch of operations atomically: either every operation is
    /// visible after a crash, or none is. Returns the batch's commit LSN
    /// (the current head LSN for an empty batch).
    ///
    /// A batch below [`EngineOptions::checkpoint_bytes`] commits through
    /// the WAL. A checkpoint it triggers is not part of the commit: its
    /// failure goes to the trace ring, never to the caller of a batch
    /// that has landed. A failed WAL write, flush or sync poisons the
    /// engine: this and every later commit, bulk ingest and checkpoint
    /// fail ([`StorageError::Poisoned`] after the first) until a reopen,
    /// while reads and compaction keep working.
    ///
    /// A batch that alone reaches the threshold is committed as the
    /// flush it would trigger: the flush *is* the commit. The memtable
    /// and the batch are merged into one synced level-1 run under one
    /// LSN (the last op of a key wins), so the commit is durable with
    /// every commit before it, and neither WAL nor memtable sees the
    /// batch. If the run cannot be installed the call fails, nothing of
    /// the batch is visible, nothing is poisoned, and the memtable it
    /// froze stays parked for the next checkpoint.
    pub fn apply_batch(&self, ops: Vec<BatchOp>) -> StorageResult<Lsn> {
        self.core.apply_batch(ops)
    }

    /// Bulk-ingest presorted rows: the puts-only case of a batch
    /// committed as a flush ([`apply_batch`](Self::apply_batch)), at any
    /// size. The rows and the memtable are merged into one level-1 run
    /// under one LSN, bypassing the WAL — MANIFEST committed,
    /// all-or-nothing after a crash. `rows` must be strictly ascending
    /// by `(table, key)` and the keys must be fresh: a bulk row shadows
    /// an existing version correctly, but nothing retracts derived rows
    /// (e.g. index entries) the old version left behind — use sessions
    /// for updates. Returns the batch's commit LSN (the head LSN for an
    /// empty batch); like a checkpoint after a commit, a compaction the
    /// run triggers reports failure to the trace ring.
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

    /// Point reads of many keys of `table` in one pass: each key's value
    /// (`None` when absent), in the order of `keys`, exactly as
    /// [`get`](Self::get) would read them one by one. Keys may come in
    /// any order, repeated or absent; in ascending order, keys that share
    /// a run's data block read and check it once.
    pub fn get_many<K: AsRef<[u8]>>(
        &self,
        table: &str,
        keys: &[K],
    ) -> StorageResult<Vec<Option<Vec<u8>>>> {
        let mut values = Vec::with_capacity(keys.len());
        self.core
            .get_each(table, keys, self.lsn, |value| values.push(value))?;
        Ok(values)
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
        )
        .unwrap();
        // Stale compaction output: higher id, level 2.
        sstable::write_run(
            &manifest::run_path(dir, 11),
            2,
            2,
            &mut sstable::borrowed(&[entry(b"del", Some(b"zombie")), entry(b"k", Some(b"old"))]),
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

    /// One step of the `get_many` property: a put of a value of the
    /// given length, a delete, a flush, or a snapshot pinned.
    #[derive(Debug, Clone)]
    enum Step {
        Put(u8, usize),
        Delete(u8),
        Flush,
        Pin,
    }

    fn step_strategy() -> impl proptest::prelude::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            4 => (0u8..12, 0usize..300).prop_map(|(k, len)| Step::Put(k, len)),
            // Key 0 gathers a version chain long enough to spill across
            // data blocks.
            3 => (200usize..600).prop_map(|len| Step::Put(0, len)),
            2 => (0u8..12).prop_map(Step::Delete),
            1 => Just(Step::Flush),
            1 => Just(Step::Pin),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `get_many` reads what `get` reads, key by key: keys unsorted,
        /// repeated and absent, versions spread over the memtable, a
        /// parked frozen memtable and runs, chains spilling across
        /// blocks, tombstones, and snapshots pinned at older LSNs.
        #[test]
        fn get_many_reads_what_get_reads(
            before in proptest::collection::vec(step_strategy(), 1..80),
            after in proptest::collection::vec(step_strategy(), 0..30),
            keys in proptest::collection::vec(0u8..16, 0..40),
        ) {
            let dir = tmpdir("get-many");
            let e = Engine::open(&dir, EngineOptions {
                compaction: CompactionOptions { background: false, max_runs_per_level: 3 },
                ..EngineOptions::default()
            }).unwrap();
            e.put("a", b"before", b"t").unwrap();
            e.put("u", b"after", b"t").unwrap();
            let mut pins = Vec::new();
            let mut step = |e: &Engine, s: &Step, n: usize, flush: bool| match *s {
                Step::Put(k, len) => e.put("t", &[k], &vec![n as u8; len]).unwrap(),
                Step::Delete(k) => e.delete("t", &[k]).unwrap(),
                Step::Flush if flush => {
                    e.checkpoint().unwrap();
                }
                Step::Flush => {}
                Step::Pin => pins.push(e.snapshot()),
            };
            for (n, s) in before.iter().enumerate() {
                step(&e, s, n, true);
            }
            // A flush whose run cannot be written parks the memtable
            // frozen, where reads keep finding it.
            let blocker = run_tmp_path(&dir, e.core.next_run_id.load(Ordering::SeqCst));
            std::fs::create_dir(&blocker).unwrap();
            let parked = e.checkpoint().is_err();
            std::fs::remove_dir(&blocker).unwrap();
            for (n, s) in after.iter().enumerate() {
                step(&e, s, before.len() + n, false);
            }
            proptest::prop_assert_eq!(parked, e.core.frozen.read().unwrap().is_some());
            let keys: Vec<Vec<u8>> = keys.into_iter().map(|k| vec![k]).collect();
            for reader in pins.iter().chain([e.head()]) {
                let one_by_one: Vec<_> = keys.iter().map(|k| reader.get("t", k).unwrap()).collect();
                proptest::prop_assert_eq!(reader.get_many("t", &keys).unwrap(), one_by_one);
            }
            drop(pins);
            drop(e);
            std::fs::remove_dir_all(&dir).ok();
        }
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

    /// The on-disk forms older builds wrote — a `snap-*.sst`, a v1
    /// `PRUN` run (catalogued, and found by the manifest-fallback scan),
    /// a catalogued run holding a range tombstone, and a live WAL ending
    /// in a tag-4 or a tag-5 (range tombstone) frame — each fail the open
    /// as `Unsupported`, naming the file, and leave every file
    /// byte-identical: no temp sweep, no corrupt-run or orphan deletion,
    /// no manifest rewrite, no WAL cut, no flush.
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
        let catalogue = |dir: &Path, run: &[u8]| {
            std::fs::write(manifest::run_path(dir, 50), run).unwrap();
            let mut catalog = manifest::load(dir).unwrap().unwrap();
            catalog.push(RunEntry { id: 50, level: 1 });
            manifest::store(dir, &catalog).unwrap();
        };
        let append_to_wal = |dir: &Path, frame: &[u8]| {
            let mut log = std::fs::read(dir.join("wal.log")).unwrap();
            log.extend(frame);
            std::fs::write(dir.join("wal.log"), &log).unwrap();
        };
        let mut v1_run = vec![0u8; 64];
        crate::codec::put_u32(&mut v1_run, 0x5052_554E); // "PRUN"
        let mut tag4 = vec![4u8];
        crate::codec::put_u64(&mut tag4, 3);
        let mut tag4_frame = Vec::new();
        crate::codec::put_u32(&mut tag4_frame, tag4.len() as u32);
        crate::codec::put_u32(&mut tag4_frame, crate::crc32::checksum(&tag4));
        tag4_frame.extend(tag4);
        // A delete of `t` `[a, z)`, framed by an earlier build's encoder.
        let tag5_frame = crate::codec::from_hex("08000000eceff50d050174016101017a");
        // A run an earlier build's `write_run` wrote: one entry (`t/gone`
        // = `v` at LSN 7) and one range tombstone (`t` `[a, z)` at LSN 8).
        let range_run = crate::codec::from_hex(concat!(
            "000700000000000000017404676f6e65017601000000000000000000000012000000f1afacb7",
            "017404676f6e65010000000174016101017a08000000000000004000000000000000070000",
            "00041040008100020812000000000000002d00000000000000400000000000000001000000",
            "000000000000000000000000080000000000000001000000fc3921f5324e5250",
        ));

        let snap = base("legacy-snap");
        std::fs::write(snap.join("snap-0000000000000003.sst"), b"old snapshot").unwrap();

        let catalogued = base("legacy-v1-catalogued");
        catalogue(&catalogued, &v1_run);

        let scanned = base("legacy-v1-scanned");
        std::fs::write(manifest::run_path(&scanned, 50), &v1_run).unwrap();
        std::fs::remove_file(manifest::manifest_path(&scanned)).unwrap();

        let range_tombstones = base("legacy-range-run");
        catalogue(&range_tombstones, &range_run);

        let tag4_wal = base("legacy-wal");
        append_to_wal(&tag4_wal, &tag4_frame);

        let tag5_wal = base("legacy-range-wal");
        append_to_wal(&tag5_wal, &tag5_frame);

        let cases = [
            (snap.join("snap-0000000000000003.sst"), snap),
            (manifest::run_path(&catalogued, 50), catalogued),
            (manifest::run_path(&scanned, 50), scanned),
            (manifest::run_path(&range_tombstones, 50), range_tombstones),
            (tag4_wal.join("wal.log"), tag4_wal),
            (tag5_wal.join("wal.log"), tag5_wal),
        ];
        for (file, dir) in cases {
            let before = dir_bytes(&dir);
            match Engine::open(&dir, EngineOptions::default()) {
                Err(StorageError::Unsupported { path, .. }) => assert_eq!(path, file),
                other => panic!("{dir:?}: expected Unsupported, got {other:?}"),
            }
            assert_eq!(dir_bytes(&dir), before, "{dir:?} changed by a failed open");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
