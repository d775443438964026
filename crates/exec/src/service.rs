//! A long-running, bounded-queue worker pool for services.
//!
//! [`Pool`](crate::Pool) is batch-shaped: a fixed job set in, all results
//! out, workers joined before the call returns. A server needs the
//! opposite lifecycle — workers that outlive any one request, a queue that
//! accepts work as it arrives, and, critically, **admission control**: the
//! queue is bounded, and a submit against a full queue fails *immediately*
//! ([`QueueFull`]) instead of buffering unbounded work. The caller turns
//! that into backpressure (`nvp-serve` answers `429 Retry-After`).
//!
//! Jobs are `FnOnce() + Send + 'static` closures; result delivery is the
//! caller's concern (a closure typically fills a slot guarded by its own
//! mutex/condvar). A panicking job is caught — a service worker must
//! survive bad jobs, not take the process down.
//!
//! Shutdown is a drain, not an abort: [`ServicePool::shutdown`] closes the
//! intake, lets the workers finish everything already admitted, then
//! joins them. In-flight work is never dropped, which is what lets a
//! server honour every admitted request before exiting on SIGTERM.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A queued unit of work.
type ServiceJob = Box<dyn FnOnce() + Send + 'static>;

/// The queue was at capacity; the job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Queue capacity at the time of rejection.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// Queue + lifecycle state shared between submitters and workers.
struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or the intake closes (workers wait).
    work: Condvar,
    /// Signalled when a job finishes (the shutdown drain waits).
    idle: Condvar,
    capacity: usize,
}

struct State {
    queue: VecDeque<ServiceJob>,
    open: bool,
    running: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Worker panics are caught before they can poison this lock, but
        // recover anyway: the state is a plain queue, always structurally
        // sound.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A fixed set of worker threads fed by a bounded FIFO queue.
pub struct ServicePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServicePool {
    /// Spawns `workers` threads (min 1) behind a queue of `capacity`
    /// pending jobs (min 1; running jobs do not count against it).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
                running: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool { shared, workers }
    }

    /// Admits a job, or rejects it immediately if the queue is full or the
    /// pool is shutting down.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), QueueFull> {
        let mut state = self.shared.lock();
        if !state.open || state.queue.len() >= self.shared.capacity {
            return Err(QueueFull {
                capacity: self.shared.capacity,
            });
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Jobs admitted but not yet started.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Closes the intake, waits for every admitted job to finish, and
    /// joins the workers.
    pub fn shutdown(mut self) {
        {
            let mut state = self.shared.lock();
            state.open = false;
            drop(state);
            self.shared.work.notify_all();
        }
        {
            let mut state = self.shared.lock();
            while !state.queue.is_empty() || state.running > 0 {
                state = self
                    .shared
                    .idle
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        // Dropped without an explicit shutdown (e.g. a panicking test):
        // close the intake and detach; workers exit once the queue drains.
        let mut state = self.shared.lock();
        state.open = false;
        drop(state);
        self.shared.work.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    break job;
                }
                if !state.open {
                    return;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // Caught so the worker survives; reporting the failure is the
        // caller's, like result delivery.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut state = shared.lock();
        state.running -= 1;
        drop(state);
        shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = ServicePool::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = done.clone();
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 20, "shutdown must drain");
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One worker blocked on a gate, capacity 2: the third pending
        // submit must bounce with QueueFull.
        let pool = ServicePool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait for the worker to pick up the blocking job.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert_eq!(err.capacity, 2);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = ServicePool::new(1, 8);
        pool.try_submit(|| panic!("bad job")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker died with the job");
    }

    #[test]
    fn submits_after_shutdown_are_rejected() {
        let pool = ServicePool::new(1, 8);
        let shared = pool.shared.clone();
        pool.shutdown();
        // The pool itself is consumed by shutdown; a racing submitter
        // holding the shared state sees the closed intake.
        let mut state = shared.lock();
        assert!(!state.open);
        assert!(state.queue.pop_front().is_none());
    }
}
