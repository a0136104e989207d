//! A bounded worker pool with explicit admission control — the job
//! submission API behind `fair-serve`.
//!
//! [`run_tiled`](crate::scheduler::run_tiled) shards the trials of *one*
//! estimate; this pool schedules *whole jobs* (one per request) across a
//! fixed set of threads with a **bounded queue**: when the queue is full,
//! [`WorkerPool::try_submit`] fails immediately instead of buffering
//! without limit, so callers can shed load (HTTP 429) rather than let
//! latency grow unboundedly. Shutdown is graceful by construction —
//! [`WorkerPool::shutdown`] stops admissions, lets the workers drain every
//! queued job, and joins them.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A submitted unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later or shed the request.
    QueueFull,
    /// The pool is shutting down; no new work is admitted.
    ShuttingDown,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
    /// Jobs popped from the queue and currently executing.
    in_flight: usize,
    /// Jobs fully executed (for drain accounting and tests).
    completed: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that the queue gained a job or shutdown began.
    wake: Condvar,
    /// Signals `shutdown` that a job finished (for the drain wait).
    drained: Condvar,
    queue_cap: usize,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A fixed-size thread pool over a bounded FIFO job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) serving a queue of at most
    /// `queue_cap` (min 1) pending jobs.
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            wake: Condvar::new(),
            drained: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues `job`, failing fast when the queue is full or the pool is
    /// shutting down. Never blocks.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.lock();
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Jobs currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight
    }

    /// Jobs fully executed since the pool started.
    pub fn completed(&self) -> u64 {
        self.shared.lock().completed
    }

    /// Graceful drain without consuming the pool: refuses new submissions,
    /// then blocks until the queue is empty and every in-flight job has
    /// finished. Returns the total number of jobs executed so far.
    ///
    /// Worker threads are *not* joined here — that happens when the pool is
    /// dropped — so N event loops can share one pool behind an `Arc`, have
    /// any one of them drain it at shutdown (behind their drain barrier),
    /// and let the last `Arc` drop do the join.
    pub fn drain(&self) -> u64 {
        let mut state = self.shared.lock();
        state.shutting_down = true;
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = self
                .shared
                .drained
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        let completed = state.completed;
        drop(state);
        self.shared.wake.notify_all();
        completed
    }

    /// Graceful shutdown: [`drain`](WorkerPool::drain), then join the
    /// workers. Returns the total number of jobs the pool executed.
    pub fn shutdown(self) -> u64 {
        let completed = self.drain();
        // Dropping `self` joins the workers (the drop path re-checks the
        // already-set shutdown flag and finds the queue empty).
        completed
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping without `shutdown()` (e.g. a panicking test) still
        // stops the workers; queued jobs are drained the same way.
        if self.workers.is_empty() {
            return;
        }
        self.shared.lock().shutting_down = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let mut state = shared.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                state.in_flight += 1;
                drop(state);
                job();
                let mut state = shared.lock();
                state.in_flight -= 1;
                state.completed += 1;
                drop(state);
                shared.drained.notify_all();
                break;
            }
            if state.shutting_down {
                return;
            }
            state = shared.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            })
            .expect("queue has room");
        }
        assert_eq!(pool.shutdown(), 10);
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker until released.
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .expect("first job admitted");
        // Wait for the worker to pick it up so the queue is empty.
        while pool.in_flight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.try_submit(|| {}).expect("queue slot free");
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::QueueFull));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(pool.shutdown(), 2);
    }

    #[test]
    fn shutdown_drains_every_queued_job() {
        let pool = WorkerPool::new(1, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
        }
        // Graceful: every queued job ran before shutdown returned.
        assert_eq!(pool.shutdown(), 20);
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn shared_pool_drains_from_one_handle_and_joins_on_last_drop() {
        let pool = Arc::new(WorkerPool::new(2, 64));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..12 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
        }
        // Several owners (event loops); any one can drain.
        let other_owner = Arc::clone(&pool);
        assert_eq!(pool.drain(), 12);
        assert_eq!(done.load(Ordering::SeqCst), 12);
        // After drain, submissions are refused from every handle.
        assert_eq!(
            other_owner.try_submit(|| {}),
            Err(SubmitError::ShuttingDown)
        );
        drop(other_owner);
        drop(pool); // last Arc: joins the workers
        assert_eq!(done.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn drop_without_shutdown_still_joins_workers() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 8);
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
        }
        // The drop path drained the job before joining.
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
