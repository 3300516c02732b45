//! Group-commit provenance capture: coalesce concurrent run completions
//! into one storage commit.
//!
//! Every [`ProvenanceManager::capture`] is one WAL commit frame and —
//! with `fsync` on — one fsync. Fine for a single curated workflow;
//! hopeless when a worker pool finishes dozens of runs per second. The
//! [`CaptureBatcher`] sits between the engine's sink calls and the
//! manager and applies the classic group-commit protocol: the first
//! arrival becomes the *leader*, lingers briefly while followers pile
//! into the queue, then commits the whole batch through
//! [`ProvenanceManager::capture_batch`] — one commit, one fsync,
//! amortized across N runs. Followers block until the leader hands them
//! their per-run verdict, so `record` keeps capture-on-completion
//! semantics: when it returns `Ok`, the run is durably captured.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use preserva_obs::{Counter, Histogram, Registry};
use preserva_wfms::model::Workflow;
use preserva_wfms::sink::{ProvenanceSink, SinkError};
use preserva_wfms::trace::ExecutionTrace;

use crate::provenance_manager::ProvenanceManager;

/// Tuning knobs for the group-commit window.
#[derive(Debug, Clone)]
pub struct BatcherOptions {
    /// Commit as soon as this many runs are queued, linger or not.
    pub max_batch: usize,
    /// How long a leader waits for followers before committing. Zero
    /// commits immediately (batches still form from already-queued runs).
    pub linger: Duration,
}

impl Default for BatcherOptions {
    fn default() -> Self {
        BatcherOptions {
            max_batch: 64,
            linger: Duration::from_millis(2),
        }
    }
}

/// One queued run's rendezvous: the leader deposits the verdict, the
/// owning thread sleeps on the condvar until it lands.
struct Slot {
    verdict: Mutex<Option<Result<(), String>>>,
    cv: Condvar,
}

impl Slot {
    fn deliver(&self, result: Result<(), String>) {
        *self.verdict.lock().expect("slot lock") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), String> {
        let mut guard = self.verdict.lock().expect("slot lock");
        while guard.is_none() {
            guard = self.cv.wait(guard).expect("slot lock");
        }
        guard.take().expect("verdict present")
    }
}

struct State {
    queue: Vec<(Workflow, ExecutionTrace, Arc<Slot>)>,
    /// Whether some thread is currently collecting/committing a batch.
    leader_active: bool,
}

/// A [`ProvenanceSink`] that group-commits captures through a shared
/// [`ProvenanceManager`]. Clone-free sharing via `Arc`; safe to use from
/// any number of engine worker threads.
pub struct CaptureBatcher {
    manager: Arc<ProvenanceManager>,
    opts: BatcherOptions,
    state: Mutex<State>,
    /// Signaled on every enqueue, so a lingering leader can close the
    /// batch early once `max_batch` is reached.
    arrivals: Condvar,
    batch_size: Arc<Histogram>,
    group_commits: Arc<Counter>,
}

impl std::fmt::Debug for CaptureBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureBatcher")
            .field("max_batch", &self.opts.max_batch)
            .field("linger", &self.opts.linger)
            .finish()
    }
}

impl CaptureBatcher {
    /// Wrap a manager with default batching knobs, reporting batch-size
    /// metrics into the manager's registry.
    pub fn new(manager: Arc<ProvenanceManager>) -> Self {
        Self::with_options(manager, BatcherOptions::default())
    }

    /// Wrap a manager with explicit knobs.
    pub fn with_options(manager: Arc<ProvenanceManager>, opts: BatcherOptions) -> Self {
        let reg: &Arc<Registry> = manager.metrics_registry();
        let batch_size = reg.histogram(
            "preserva_prov_capture_batch_size",
            "Runs coalesced per provenance group commit.",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
        );
        let group_commits = reg.counter(
            "preserva_prov_group_commits_total",
            "Provenance group commits (each one storage commit, any batch size).",
        );
        CaptureBatcher {
            manager,
            opts: BatcherOptions {
                max_batch: opts.max_batch.max(1),
                ..opts
            },
            state: Mutex::new(State {
                queue: Vec::new(),
                leader_active: false,
            }),
            arrivals: Condvar::new(),
            batch_size,
            group_commits,
        }
    }

    /// The wrapped manager.
    pub fn manager(&self) -> &Arc<ProvenanceManager> {
        &self.manager
    }

    /// Commit `batch` through the manager and deliver per-run verdicts.
    fn commit_batch(&self, batch: Vec<(Workflow, ExecutionTrace, Arc<Slot>)>) {
        if batch.is_empty() {
            return;
        }
        self.batch_size.observe(batch.len() as f64);
        self.group_commits.inc();
        let runs: Vec<(&Workflow, &ExecutionTrace)> =
            batch.iter().map(|(w, t, _)| (w, t)).collect();
        match self.manager.capture_many(&runs) {
            Ok(results) => {
                for ((_, _, slot), result) in batch.iter().zip(results) {
                    slot.deliver(result.map(|_| ()).map_err(|e| e.to_string()));
                }
            }
            // Whole-batch failure (the shared commit itself): everyone
            // gets the storage error.
            Err(e) => {
                let msg = e.to_string();
                for (_, _, slot) in &batch {
                    slot.deliver(Err(msg.clone()));
                }
            }
        }
    }

    /// Enqueue one run and drive the group-commit protocol. Blocks until
    /// the run's batch is durably committed (or refused) and returns the
    /// per-run verdict.
    fn submit(&self, workflow: &Workflow, trace: &ExecutionTrace) -> Result<(), String> {
        let slot = Arc::new(Slot {
            verdict: Mutex::new(None),
            cv: Condvar::new(),
        });
        let lead = {
            let mut state = self.state.lock().expect("batcher lock");
            state
                .queue
                .push((workflow.clone(), trace.clone(), slot.clone()));
            self.arrivals.notify_all();
            if state.leader_active {
                false
            } else {
                state.leader_active = true;
                true
            }
        };
        if !lead {
            return slot.wait();
        }
        // Leader: linger for followers, then drain the queue batch by
        // batch. Leadership is held across the commits, so runs arriving
        // while a batch fsyncs pile up for the next one — that pile-up,
        // not the linger, is what forms batches under load.
        let deadline = Instant::now() + self.opts.linger;
        let mut state = self.state.lock().expect("batcher lock");
        loop {
            let now = Instant::now();
            if state.queue.len() >= self.opts.max_batch || now >= deadline {
                break;
            }
            // A concurrent flush may steal and commit the queue
            // (delivering our verdict) — stop lingering if so.
            if slot.verdict.lock().expect("slot lock").is_some() {
                break;
            }
            let (guard, timeout) = self
                .arrivals
                .wait_timeout(state, deadline - now)
                .expect("batcher lock");
            state = guard;
            if timeout.timed_out() {
                break;
            }
        }
        loop {
            let take = state.queue.len().min(self.opts.max_batch);
            if take == 0 {
                // Queue empty and leadership released under one lock, so
                // no arrival can slip in as a leaderless follower.
                state.leader_active = false;
                break;
            }
            let batch: Vec<_> = state.queue.drain(..take).collect();
            drop(state);
            self.commit_batch(batch);
            state = self.state.lock().expect("batcher lock");
        }
        drop(state);
        slot.wait()
    }

    /// Force any queued runs to storage now, regardless of linger. Used
    /// by the engine when a wave of pooled runs drains, and safe to call
    /// concurrently with in-flight records.
    pub fn force_flush(&self) -> Result<(), SinkError> {
        let batch = {
            let mut state = self.state.lock().expect("batcher lock");
            std::mem::take(&mut state.queue)
        };
        self.commit_batch(batch);
        // Wake a lingering leader so it notices its batch was taken.
        self.arrivals.notify_all();
        Ok(())
    }
}

impl ProvenanceSink for CaptureBatcher {
    fn record(&self, workflow: &Workflow, trace: &ExecutionTrace) -> Result<(), SinkError> {
        self.submit(workflow, trace).map_err(SinkError::new)
    }

    fn flush(&self) -> Result<(), SinkError> {
        self.force_flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_storage::table::TableStore;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::Processor;
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};
    use serde_json::json;

    fn manager(name: &str) -> Arc<ProvenanceManager> {
        let dir =
            std::env::temp_dir().join(format!("preserva-batcher-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        Arc::new(ProvenanceManager::new(store))
    }

    fn run_one() -> (Workflow, ExecutionTrace) {
        let mut r = ServiceRegistry::new();
        r.register_fn("id", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let w = Workflow::new("w", "identity")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("p", "id", &["in"], &["out"]))
            .link_input("x", "p", "in")
            .link_output("p", "out", "y");
        let e = WfEngine::new(r, EngineConfig::default());
        let t = e.run(&w, &port("x", json!(1))).unwrap();
        (w, t)
    }

    #[test]
    fn concurrent_records_coalesce_into_few_commits() {
        let pm = manager("coalesce");
        let store = pm.store().clone();
        let batcher = Arc::new(CaptureBatcher::with_options(
            pm.clone(),
            BatcherOptions {
                max_batch: 64,
                linger: Duration::from_millis(50),
            },
        ));
        let runs: Vec<(Workflow, ExecutionTrace)> = (0..16).map(|_| run_one()).collect();
        let before = store.engine().stats().commits;
        std::thread::scope(|scope| {
            for (w, t) in &runs {
                let batcher = batcher.clone();
                scope.spawn(move || batcher.record(w, t).unwrap());
            }
        });
        let commits = store.engine().stats().commits - before;
        assert!(
            commits < 16,
            "16 concurrent records must group-commit, saw {commits} commits"
        );
        for (_, t) in &runs {
            assert!(pm.load_graph(&t.run_id).is_ok());
            assert!(pm.load_trace(&t.run_id).is_ok());
        }
        let text = pm.metrics_registry().render_prometheus();
        assert!(text.contains("preserva_prov_capture_batch_size"), "{text}");
        assert!(text.contains("preserva_prov_group_commits_total"), "{text}");
    }

    #[test]
    fn flush_closes_a_lingering_batch_early() {
        let pm = manager("flush");
        let batcher = Arc::new(CaptureBatcher::with_options(
            pm.clone(),
            BatcherOptions {
                max_batch: 64,
                linger: Duration::from_secs(30),
            },
        ));
        let (w, t) = run_one();
        let started = Instant::now();
        let handle = {
            let batcher = batcher.clone();
            let (w, t) = (w.clone(), t.clone());
            std::thread::spawn(move || batcher.record(&w, &t))
        };
        // Give the recorder a moment to enqueue, then force the commit.
        while pm.load_trace(&t.run_id).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            batcher.flush().unwrap();
            if started.elapsed() > Duration::from_secs(10) {
                panic!("flush never surfaced the queued run");
            }
        }
        handle.join().unwrap().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "flush must beat the 30s linger"
        );
    }

    #[test]
    fn per_run_refusals_surface_through_the_batcher() {
        let pm = manager("refusal");
        let batcher = CaptureBatcher::with_options(
            pm.clone(),
            BatcherOptions {
                max_batch: 4,
                linger: Duration::from_millis(0),
            },
        );
        let (w, t) = run_one();
        batcher.record(&w, &t).unwrap();
        let (_, mut conflict) = run_one();
        conflict.run_id = t.run_id.clone();
        let err = batcher.record(&w, &conflict).unwrap_err();
        assert!(err.to_string().contains("already captured"), "{err}");
        // Identical re-capture stays idempotent through the batcher.
        batcher.record(&w, &t).unwrap();
    }
}
