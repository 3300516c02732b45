//! Bounded scoped worker pool for wave execution.
//!
//! The engine used to spawn one scoped thread per wave member, so a
//! 1,000-processor wave spawned 1,000 OS threads. [`scoped_run`] instead
//! spawns `min(limit, items)` workers that pull work items off a shared
//! cursor, keeping thread count bounded by configuration while preserving
//! the per-item result order the deterministic trace relies on.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Outcome of one [`scoped_run`] call, for engine stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolReport {
    /// Worker threads actually spawned (0 when run inline).
    pub workers: usize,
    /// Items executed.
    pub tasks: usize,
}

/// Apply `f` to every item with at most `limit` concurrent worker
/// threads, returning results in item order.
///
/// `limit <= 1` or a wave of one item runs inline on the caller's thread
/// (no spawn at all). Worker panics propagate to the caller once all
/// workers are joined.
pub fn scoped_run<T, R, F>(limit: usize, items: &[T], f: F) -> (Vec<R>, PoolReport)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let tasks = items.len();
    if limit <= 1 || tasks <= 1 {
        let results = items.iter().map(&f).collect();
        return (results, PoolReport { workers: 0, tasks });
    }

    let workers = limit.min(tasks);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    crossbeam::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let slots = &slots;
                let f = &f;
                s.spawn(move |_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    *slots[i].lock() = Some(f(&items[i]));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    })
    .expect("scope never panics");

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled by a worker"))
        .collect();
    (results, PoolReport { workers, tasks })
}

/// A long-lived bounded worker pool for open-ended task streams.
///
/// [`scoped_run`] fits waves whose items are known up front; a network
/// server accepting connections needs the dual: workers that outlive any
/// one submission and pull jobs off a shared queue as they arrive.
/// Submissions never block — a job enqueued while every worker is busy
/// waits its turn — so the queue depth, exposed via
/// [`TaskPool::queued`], is the backpressure signal.
///
/// Dropping the pool (or calling [`TaskPool::shutdown`]) stops intake,
/// lets workers finish the jobs already queued, and joins them.
pub struct TaskPool {
    inner: std::sync::Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    /// The vendored `parking_lot` has no Condvar, so the queue pairs
    /// with a std one.
    queue: std::sync::Mutex<std::collections::VecDeque<Job>>,
    /// Signaled on submit and on shutdown.
    available: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
    active: AtomicUsize,
}

impl PoolInner {
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.available.wait(queue).expect("pool queue poisoned");
        }
    }
}

/// Counts one running job in `active` for as long as it lives.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn enter(active: &'a AtomicUsize) -> ActiveGuard<'a> {
        active.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(active)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("workers", &self.workers.len())
            .field("queued", &self.queued())
            .finish()
    }
}

impl TaskPool {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> TaskPool {
        let inner = std::sync::Arc::new(PoolInner {
            queue: std::sync::Mutex::new(std::collections::VecDeque::new()),
            available: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || {
                    while let Some(job) = inner.next_job() {
                        let _active = ActiveGuard::enter(&inner.active);
                        // A panicking job ends itself, not the worker: the
                        // guard restores `active` as the panic unwinds.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
            })
            .collect();
        TaskPool { inner, workers }
    }

    /// Enqueue a job. Returns `false` (dropping the job) when the pool
    /// is shutting down.
    pub fn execute<F>(&self, job: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.inner
            .queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(Box::new(job));
        self.inner.available.notify_one();
        true
    }

    /// Jobs waiting for a worker.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().expect("pool queue poisoned").len()
    }

    /// Jobs currently executing.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Stop intake, drain the queue, and join every worker.
    pub fn shutdown(mut self) {
        self.stop();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.stop();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The default concurrency bound: what the hardware offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let (out, report) = scoped_run(4, &items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(report.workers, 4);
        assert_eq!(report.tasks, 100);
    }

    #[test]
    fn worker_count_never_exceeds_the_limit() {
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let limit = 3;
        scoped_run(limit, &items, |_| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= limit,
            "peak {} > limit {limit}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn wave_wider_than_the_pool_completes() {
        let items: Vec<usize> = (0..1000).collect();
        let (out, report) = scoped_run(2, &items, |&x| x + 1);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 1000);
        assert_eq!(report.workers, 2, "two workers drained a 1000-item wave");
    }

    #[test]
    fn single_item_and_sequential_limits_run_inline() {
        let (out, report) = scoped_run(8, &[7], |&x: &i32| x * 3);
        assert_eq!(out, vec![21]);
        assert_eq!(report.workers, 0);
        let (out, report) = scoped_run(1, &[1, 2, 3], |&x: &i32| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(report.workers, 0);
    }

    #[test]
    fn pool_never_spawns_more_workers_than_tasks() {
        let items = [1, 2, 3];
        let (_, report) = scoped_run(64, &items, |&x: &i32| x);
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn task_pool_runs_every_job_bounded() {
        use std::sync::Arc;
        let pool = TaskPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let active = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let (done, peak, active) = (done.clone(), peak.clone(), active.clone());
            assert!(pool.execute(move || {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                active.fetch_sub(1, Ordering::SeqCst);
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40, "shutdown drains the queue");
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn task_pool_refuses_jobs_after_drop_begins() {
        use std::sync::Arc;
        let pool = TaskPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = ran.clone();
            assert!(pool.execute(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins the worker, job already queued still runs
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_pool_worker_survives_a_panicking_job() {
        use std::time::{Duration, Instant};
        let pool = TaskPool::new(1);
        assert!(pool.execute(|| panic!("job panics on purpose")));
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(pool.execute(move || tx.send(7).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        // The guard drops just after the job returns.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.active() != 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.active(), 0, "the panic left `active` counted");
    }
}
