//! Journal-derived views: one driver for every durable-cursor consumer
//! of the change journal (DESIGN.md §18).
//!
//! A [`DerivedView`] only stages the rows it derives from a batch of
//! journal entries. [`ViewDriver`] owns the rest: the cursor row, the
//! paged drain under one pinned snapshot, the empty-feed short-circuit,
//! ONE commit of derived rows plus cursor, the bump past the view's own
//! journaled writes, a run lock, the instruments, and `rebuild`.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use preserva_obs::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::journal::JournalEntry;
use crate::rows;
use crate::snapshot::Lsn;
use crate::table::{CommitReceipt, TableSnapshot, TableStore, WriteSession};

/// Journal entries read per page while draining.
const PAGE: usize = 4096;

/// Key of the cursor state row in a view's meta table.
pub const STATE_KEY: &[u8] = b"state";

/// What the driver needs to know about a view besides its `apply`.
#[derive(Debug, Clone, Copy)]
pub struct ViewSpec {
    /// Trace category of the view's events.
    pub name: &'static str,
    /// Table holding the cursor state row.
    pub meta_table: &'static str,
    /// Tables [`ViewDriver::rebuild`] wipes (may include `meta_table`).
    pub tables: &'static [&'static str],
    /// Gauge family: journal head minus cursor.
    pub lag: &'static str,
    /// Histogram family: latency of every run, no-ops included.
    pub run_seconds: &'static str,
    /// Histogram family, if any: entries consumed per non-empty run.
    pub batch_entries: Option<&'static str>,
    /// Counter family: the [`DerivedView::runs_counted`] sum.
    pub runs: &'static str,
}

/// State derived from the change journal by a [`ViewDriver`].
pub trait DerivedView {
    /// What one [`apply`](Self::apply) reports.
    type Outcome;
    /// The view's error type; storage failures convert into it.
    type Error: From<StorageError>;
    /// Meta table, wiped tables and metric families.
    const SPEC: ViewSpec;

    /// Fold `entries` (non-empty, in sequence order) into the view:
    /// read only through `snap` and stage every change into `session`,
    /// which the driver commits together with the advanced cursor.
    /// Applying a range twice must leave the same rows as applying it
    /// once.
    fn apply(
        &mut self,
        snap: &TableSnapshot,
        entries: &[JournalEntry],
        session: &mut WriteSession<'_>,
    ) -> Result<Self::Outcome, Self::Error>;

    /// What a non-empty run adds to the state row's `runs` and to the
    /// runs counter: by default the run itself.
    fn runs_counted(_outcome: &Self::Outcome) -> u64 {
        1
    }
}

/// The durable cursor state of one view, stored through [`rows`] as
/// `{"cursor":N,"runs":M}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewState {
    /// Highest journal sequence number folded into the view.
    pub cursor: u64,
    /// Sum of [`DerivedView::runs_counted`] over completed runs.
    pub runs: u64,
}

impl ViewState {
    /// The state stored in `meta_table` as of `snap` (zero if absent).
    pub fn load_at(snap: &TableSnapshot, meta_table: &str) -> StorageResult<ViewState> {
        Ok(rows::get(snap, meta_table, STATE_KEY)?.unwrap_or_default())
    }
}

/// Add `delta` to the decimal counter row `key` of `table` as read
/// through `snap`, staging the new count (a count reaching zero deletes
/// the row). Returns the counts before and after; a zero `delta` stages
/// nothing.
pub fn stage_count_delta(
    snap: &TableSnapshot,
    session: &mut WriteSession<'_>,
    table: &str,
    key: &[u8],
    delta: i64,
) -> StorageResult<(u64, u64)> {
    let before = snap
        .get(table, key)?
        .and_then(|v| String::from_utf8(v).ok()?.parse::<u64>().ok())
        .unwrap_or(0);
    let after = before.saturating_add_signed(delta);
    if delta != 0 && after == 0 {
        session.delete(table, key)?;
    } else if delta != 0 {
        session.put(table, key, after.to_string().as_bytes())?;
    }
    Ok((before, after))
}

/// What one driver run did.
#[derive(Debug)]
pub struct ViewRun<O> {
    /// Cursor the run started from.
    pub cursor_before: u64,
    /// Cursor after the run (and after any bump past its own writes).
    pub cursor_after: u64,
    /// Journal entries pending at the pin: consumed head minus cursor.
    pub journal_lag: u64,
    /// Journal entries consumed.
    pub entries_consumed: usize,
    /// Commit LSN of the run's one input snapshot.
    pub input_lsn: Lsn,
    /// What [`DerivedView::apply`] reported; `None` for an empty feed.
    pub outcome: Option<O>,
}

/// Runs one [`DerivedView`] over a store.
pub struct ViewDriver {
    store: Arc<TableStore>,
    spec: ViewSpec,
    obs: Arc<Registry>,
    lag: Arc<Gauge>,
    journal_head: Arc<Gauge>,
    run_seconds: Arc<Histogram>,
    batch_entries: Option<Arc<Histogram>>,
    runs: Arc<Counter>,
    /// Held from the state load to the last commit of a run, so runs
    /// never commit out of order and move the cursor backwards. It
    /// guards no data (the state lives in the store), so a run that
    /// panicked leaves nothing half-updated behind it.
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for ViewDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewDriver")
            .field("view", &self.spec.name)
            .finish()
    }
}

impl ViewDriver {
    /// A driver for views of type `V` over `store`, reporting into
    /// `registry`.
    pub fn new<V: DerivedView>(store: Arc<TableStore>, registry: Arc<Registry>) -> ViewDriver {
        let spec = V::SPEC;
        ViewDriver {
            lag: registry.gauge(spec.lag, "Journal head minus the view's cursor."),
            journal_head: registry.gauge(
                "preserva_journal_head_seq",
                "Highest journal sequence number assigned by the store.",
            ),
            run_seconds: registry.latency_histogram(spec.run_seconds, "Latency of view runs."),
            batch_entries: spec.batch_entries.map(|name| {
                registry.histogram(
                    name,
                    "Journal entries consumed per non-empty view run.",
                    &[1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0],
                )
            }),
            runs: registry.counter(spec.runs, "Runs counted by the view's state row."),
            store,
            spec,
            obs: registry,
            run_lock: Mutex::new(()),
        }
    }

    /// The registry the driver reports to.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The committed cursor state.
    pub fn state(&self) -> StorageResult<ViewState> {
        ViewState::load_at(self.store.head(), self.spec.meta_table)
    }

    /// Journal head minus cursor, refreshing the lag gauge.
    pub fn lag(&self) -> StorageResult<u64> {
        Ok(self.observe_lag(self.state()?.cursor))
    }

    fn observe_lag(&self, cursor: u64) -> u64 {
        let head = self.store.journal_head();
        self.journal_head.set(head);
        self.lag.set(head.saturating_sub(cursor));
        head.saturating_sub(cursor)
    }

    /// Fold every journal entry past the cursor into `view`. `since`
    /// replays from that sequence number instead of the stored cursor;
    /// `at_lsn` pins the input to that commit LSN (clamped to the head),
    /// leaving later commits for the next run.
    ///
    /// After the commit, the cursor skips the view's own journaled
    /// writes only if they directly follow the consumed head. Otherwise
    /// another writer committed since the pin and its entries sit below
    /// the view's own: the cursor stays at the consumed head, and the
    /// next run consumes them and replays the view's writes, idempotently.
    pub fn run<V: DerivedView>(
        &self,
        view: &mut V,
        since: Option<u64>,
        at_lsn: Option<Lsn>,
    ) -> Result<ViewRun<V::Outcome>, V::Error> {
        let started = Instant::now();
        // A caught-up view commits nothing, so answering that without
        // the lock cannot reorder commits; read-heavy callers (server
        // search handlers) then never queue behind each other.
        if since.is_none() && at_lsn.is_none() {
            let snap = self.store.snapshot();
            let cursor = ViewState::load_at(&snap, self.spec.meta_table)?.cursor;
            if snap.read_journal(cursor, 1)?.is_empty() {
                return Ok(self.noop(started, cursor, snap.lsn()));
            }
        }
        let _guard = self.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = self.state()?;
        let cursor = since.unwrap_or(state.cursor);
        self.observe_lag(cursor);
        let snap = at_lsn.map_or_else(|| self.store.snapshot(), |lsn| self.store.snapshot_at(lsn));
        let mut entries: Vec<JournalEntry> = Vec::new();
        loop {
            let page = snap.read_journal(entries.last().map_or(cursor, |e| e.seq), PAGE)?;
            if page.is_empty() {
                break;
            }
            entries.extend(page);
        }
        if entries.is_empty() {
            return Ok(self.noop(started, cursor, snap.lsn()));
        }
        let (head, input_lsn) = (entries[entries.len() - 1].seq, snap.lsn());
        let mut session = self.store.session();
        let outcome = view.apply(&snap, &entries, &mut session)?;
        let counted = V::runs_counted(&outcome);
        state.cursor = head;
        state.runs += counted;
        rows::stage(&mut session, self.spec.meta_table, STATE_KEY, &state)?;
        // Input fully captured: unpin before committing so the fold
        // horizon never waits on the commit.
        drop(snap);
        let receipt = session.commit()?;
        if receipt.entries() > 0 && receipt.first_seq == head + 1 {
            state.cursor = receipt.last_seq;
            let mut bump = self.store.session();
            rows::stage(&mut bump, self.spec.meta_table, STATE_KEY, &state)?;
            bump.commit()?;
        }
        if let Some(h) = &self.batch_entries {
            h.observe(entries.len() as f64);
        }
        self.runs.add(counted);
        self.observe_lag(state.cursor);
        self.run_seconds.observe_duration(started.elapsed());
        let n = entries.len();
        let note = format!("consumed {n} entries (cursor {cursor} -> {})", state.cursor);
        self.obs.trace(self.spec.name, note);
        Ok(ViewRun {
            cursor_before: cursor,
            cursor_after: state.cursor,
            journal_lag: head - cursor,
            entries_consumed: n,
            input_lsn,
            outcome: Some(outcome),
        })
    }

    /// A run that found nothing past `cursor` as of `lsn`.
    fn noop<O>(&self, started: Instant, cursor: u64, lsn: Lsn) -> ViewRun<O> {
        self.observe_lag(cursor);
        self.run_seconds.observe_duration(started.elapsed());
        ViewRun {
            cursor_before: cursor,
            cursor_after: cursor,
            journal_lag: 0,
            entries_consumed: 0,
            input_lsn: lsn,
            outcome: None,
        }
    }

    /// Replace the view wholesale in one commit: wipe its tables, stage
    /// the new rows through `stage`, and move the cursor to `cursor`.
    /// The run count carries over; a cursor row that does not decode is
    /// replaced too, its count restarting at 0 (the fact is traced under
    /// the view's name), since this is the path that repairs it.
    pub fn reset<E: From<StorageError>>(
        &self,
        cursor: u64,
        stage: impl FnOnce(&mut WriteSession<'_>) -> Result<(), E>,
    ) -> Result<CommitReceipt, E> {
        let _guard = self.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.store.snapshot();
        let mut session = self.store.session();
        for table in self.spec.tables {
            for key in snap.scan_keys(table)? {
                session.delete(table, &key)?;
            }
        }
        let runs = match ViewState::load_at(&snap, self.spec.meta_table) {
            Ok(state) => state.runs,
            Err(e @ StorageError::Codec(_)) => {
                let note = format!("replacing a damaged cursor row, runs restart at 0: {e}");
                self.obs.trace(self.spec.name, note);
                0
            }
            Err(e) => return Err(e.into()),
        };
        drop(snap);
        stage(&mut session)?;
        rows::stage(
            &mut session,
            self.spec.meta_table,
            STATE_KEY,
            &ViewState { cursor, runs },
        )?;
        Ok(session.commit()?)
    }

    /// Wipe the view and replay the whole journal. A crash between the
    /// wipe commit and the replay leaves a valid empty view that the
    /// next run completes.
    pub fn rebuild<V: DerivedView>(&self, view: &mut V) -> Result<ViewRun<V::Outcome>, V::Error> {
        self.reset(0, |_| Ok::<(), V::Error>(()))?;
        self.run(view, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};

    fn store(tag: &str) -> (Arc<TableStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("preserva-view-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        store.mark_journaled("src").unwrap();
        store.mark_journaled("audit").unwrap();
        (store, dir)
    }

    /// Copies every `src` key it consumes into `echo`, and journals one
    /// `audit` row per run. With `intrude` set, its first apply also
    /// commits a foreign `src` write through the store, landing between
    /// the pin and the view's own commit.
    struct Echo {
        store: Arc<TableStore>,
        intrude: bool,
        seen: Vec<Vec<u8>>,
    }

    impl DerivedView for Echo {
        type Outcome = usize;
        type Error = StorageError;
        const SPEC: ViewSpec = ViewSpec {
            name: "echo",
            meta_table: "echo_meta",
            tables: &["echo"],
            lag: "echo_lag",
            run_seconds: "echo_run_seconds",
            batch_entries: Some("echo_batch_entries"),
            runs: "echo_runs_total",
        };

        fn apply(
            &mut self,
            _snap: &TableSnapshot,
            entries: &[JournalEntry],
            session: &mut WriteSession<'_>,
        ) -> StorageResult<usize> {
            if std::mem::take(&mut self.intrude) {
                self.store.put("src", b"foreign", b"x")?;
            }
            for e in entries.iter().filter(|e| e.table == "src") {
                session.put("echo", &e.key, b"")?;
                self.seen.push(e.key.clone());
            }
            session.put("audit", b"last", &entries.len().to_string().into_bytes())?;
            Ok(entries.len())
        }
    }

    #[test]
    fn state_row_matches_the_serde_shape() {
        let s = ViewState {
            cursor: 42,
            runs: 7,
        };
        let (store, dir) = store("shape");
        assert_eq!(
            ViewState::load_at(store.head(), "m").unwrap(),
            ViewState::default()
        );
        let mut session = store.session();
        rows::stage(&mut session, "m", STATE_KEY, &s).unwrap();
        session.commit().unwrap();
        let row = store.head().get("m", STATE_KEY).unwrap().unwrap();
        assert_eq!(row, br#"{"cursor":42,"runs":7}"#.to_vec());
        assert_eq!(ViewState::load_at(store.head(), "m").unwrap(), s);
        for bad in [
            &b""[..],
            b"{}",
            b"{\"cursor\":1}",
            b"{\"cursor\":-1,\"runs\":0}",
            b"[1,2]",
        ] {
            store.put("m", STATE_KEY, bad).unwrap();
            let err = ViewState::load_at(store.head(), "m").unwrap_err();
            assert!(err.to_string().contains("m/state"), "{bad:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A foreign write committed between the pin and the view's commit
    /// gets a sequence number below the view's own entries. The cursor
    /// must not skip past it: the next run consumes it.
    #[test]
    fn bump_never_skips_a_concurrent_writers_entries() {
        let (store, dir) = store("bump");
        store.put("src", b"a", b"1").unwrap();
        let driver = ViewDriver::new::<Echo>(store.clone(), Arc::new(Registry::new()));
        let mut view = Echo {
            store: store.clone(),
            intrude: true,
            seen: Vec::new(),
        };

        let first = driver.run(&mut view, None, None).unwrap();
        assert_eq!(view.seen, vec![b"a".to_vec()]);
        // Consumed seq 1; the foreign write took 2, the audit row 3.
        assert_eq!(first.cursor_after, 1, "bump skipped the foreign entry");

        let second = driver.run(&mut view, None, None).unwrap();
        assert_eq!(second.entries_consumed, 2, "foreign write + own audit row");
        assert!(view.seen.contains(&b"foreign".to_vec()));
        assert!(store.head().get("echo", b"foreign").unwrap().is_some());
        // Nothing intervened this time: the cursor skips the run's own
        // audit entry and the next run is a no-op.
        assert_eq!(second.cursor_after, store.journal_head());
        assert!(driver.run(&mut view, None, None).unwrap().outcome.is_none());
        assert_eq!(driver.lag().unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A caught-up run answers without the run lock, so read-heavy
    /// callers never queue behind a run in progress.
    #[test]
    fn caught_up_run_does_not_wait_for_the_lock() {
        let (store, dir) = store("noop");
        store.put("src", b"a", b"1").unwrap();
        let driver = ViewDriver::new::<Echo>(store.clone(), Arc::new(Registry::new()));
        let echo = || Echo {
            store: store.clone(),
            intrude: false,
            seen: Vec::new(),
        };
        driver.run(&mut echo(), None, None).unwrap();
        let held = driver.run_lock.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (driver, mut view) = (&driver, echo());
            s.spawn(move || {
                let run = driver.run(&mut view, None, None).unwrap();
                tx.send(run.outcome.is_none()).unwrap();
            });
            let noop = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            assert_eq!(noop, Ok(true), "a caught-up run waited for the lock");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cursor row that does not decode fails a run, naming the row;
    /// `rebuild` replaces it, restarting the run count, and traces that.
    #[test]
    fn rebuild_repairs_a_damaged_cursor_row() {
        let (store, dir) = store("damaged");
        store.put("src", b"a", b"1").unwrap();
        store.put("echo_meta", STATE_KEY, b"{damaged").unwrap();
        let driver = ViewDriver::new::<Echo>(store.clone(), Arc::new(Registry::new()));
        let mut view = Echo {
            store: store.clone(),
            intrude: false,
            seen: Vec::new(),
        };
        let err = driver.run(&mut view, None, None).unwrap_err();
        assert!(err.to_string().contains("echo_meta/state"), "{err}");
        let rebuilt = driver.rebuild(&mut view).unwrap();
        assert_eq!(rebuilt.cursor_before, 0);
        assert_eq!(driver.state().unwrap().runs, 1, "the count restarted");
        assert!(driver.run(&mut view, None, None).unwrap().outcome.is_none());
        assert_eq!(driver.lag().unwrap(), 0);
        let traced = driver.metrics_registry().trace_events();
        assert!(
            traced
                .iter()
                .any(|e| e.category == "echo" && e.message.contains("damaged cursor row")),
            "{traced:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_wipes_and_replays_keeping_the_run_count() {
        let (store, dir) = store("rebuild");
        store.put("src", b"a", b"1").unwrap();
        let driver = ViewDriver::new::<Echo>(store.clone(), Arc::new(Registry::new()));
        let mut view = Echo {
            store: store.clone(),
            intrude: false,
            seen: Vec::new(),
        };
        driver.run(&mut view, None, None).unwrap();
        store.put("echo", b"stray", b"").unwrap();
        let rebuilt = driver.rebuild(&mut view).unwrap();
        assert_eq!(rebuilt.cursor_before, 0);
        assert_eq!(store.head().scan_keys("echo").unwrap(), vec![b"a".to_vec()]);
        assert_eq!(driver.state().unwrap().runs, 2);
        assert_eq!(driver.lag().unwrap(), 0);
        let text = driver.metrics_registry().render_prometheus();
        assert!(text.contains("echo_runs_total 2"), "{text}");
        assert!(text.contains("echo_lag 0"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
