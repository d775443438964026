//! The work-stealing pool implementation.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A boxed job: runs once, produces a `T`.
type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// One worker's deque of (submission index, job) pairs.
type Deque<'env, T> = Mutex<VecDeque<(usize, Job<'env, T>)>>;

/// The number of hardware threads, with a serial fallback when the OS
/// cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An ordered collection of jobs awaiting execution.
///
/// Jobs are indexed by submission order; [`JobSet::run`] returns one result
/// per job in that same order.
pub struct JobSet<'env, T> {
    jobs: Vec<Job<'env, T>>,
}

impl<T> Default for JobSet<'_, T> {
    fn default() -> Self {
        JobSet { jobs: Vec::new() }
    }
}

impl<'env, T: Send> JobSet<'env, T> {
    /// Creates an empty job set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a job; returns its index (also its slot in the result vector).
    pub fn push(&mut self, job: impl FnOnce() -> T + Send + 'env) -> usize {
        self.jobs.push(Box::new(job));
        self.jobs.len() - 1
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Executes every job on up to `workers` threads and returns the
    /// results in submission order.
    ///
    /// `workers <= 1` (or a single job) runs everything on the calling
    /// thread — the serial reference path, bit-identical to the parallel
    /// one for any deterministic job.
    ///
    /// # Panics
    ///
    /// If a job panics, the sweep is aborted and one panic payload is
    /// re-raised here after all workers have stopped. Every job either ran
    /// or was cancelled, never both, and the cancelled ones are dropped in
    /// submission order, so cancellation side effects are deterministic.
    /// Workers stop pulling new jobs once they see the abort, but that is
    /// best-effort: siblings on other cores may finish the whole queue
    /// before the panicking job unwinds, so how many jobs get cancelled
    /// (possibly none) depends on the schedule.
    pub fn run(self, workers: usize) -> Vec<T> {
        let n = workers.min(self.jobs.len());
        if n <= 1 {
            return self.jobs.into_iter().map(|j| j()).collect();
        }
        run_stealing(self.jobs, n)
    }
}

/// The parallel path: deal jobs round-robin onto `n` deques, run `n`
/// scoped workers, collect per-index results.
fn run_stealing<'env, T: Send>(jobs: Vec<Job<'env, T>>, n: usize) -> Vec<T> {
    let total = jobs.len();
    let mut deques: Vec<Deque<'env, T>> = (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % n]
            .get_mut()
            .expect("fresh deque")
            .push_back((i, job));
    }
    let deques = &deques;
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let slots = &slots;
    let abort = &AtomicBool::new(false);
    let panic_box: &Mutex<Option<Box<dyn std::any::Any + Send>>> = &Mutex::new(None);

    std::thread::scope(|scope| {
        for me in 0..n {
            scope.spawn(move || worker(me, deques, slots, abort, panic_box));
        }
    });

    if let Some(payload) = panic_box.lock().expect("panic box lock").take() {
        // Cancel queued-but-unstarted jobs deterministically: collect the
        // survivors from every deque, order them by submission index, and
        // drop them one by one. Without this, jobs would die in deque-then
        // -position order — a function of how the round-robin deal and the
        // steals interleaved — and any cancellation side effect (a Drop
        // impl releasing a resource, a test observer) would see a
        // scheduling-dependent order.
        let mut unstarted: Vec<(usize, Job<'env, T>)> = deques
            .iter()
            .flat_map(|d| {
                d.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .drain(..)
                    .collect::<Vec<_>>()
            })
            .collect();
        unstarted.sort_by_key(|&(index, _)| index);
        for (_, job) in unstarted {
            drop(job);
        }
        resume_unwind(payload);
    }
    slots
        .iter()
        .map(|s| {
            s.lock()
                .expect("result lock")
                .take()
                .expect("every job ran exactly once")
        })
        .collect()
}

/// One worker: LIFO pop from its own deque, FIFO steal from the others.
fn worker<'env, T: Send>(
    me: usize,
    deques: &[Deque<'env, T>],
    slots: &[Mutex<Option<T>>],
    abort: &AtomicBool,
    panic_box: &Mutex<Option<Box<dyn std::any::Any + Send>>>,
) {
    let n = deques.len();
    loop {
        if abort.load(Ordering::Acquire) {
            return;
        }
        // Own deque first, newest job first (LIFO).
        let mut next = deques[me].lock().expect("deque lock").pop_back();
        if next.is_none() {
            // Steal oldest-first (FIFO) from the victims, starting after us.
            for k in 1..n {
                let victim = (me + k) % n;
                next = deques[victim].lock().expect("deque lock").pop_front();
                if next.is_some() {
                    break;
                }
            }
        }
        // The job set is fixed up front, so empty-everywhere means done.
        let Some((index, job)) = next else { return };
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(value) => *slots[index].lock().expect("result lock") = Some(value),
            Err(payload) => {
                abort.store(true, Ordering::Release);
                let mut slot = panic_box.lock().expect("panic box lock");
                // First panic observed wins; later ones are dropped.
                slot.get_or_insert(payload);
                return;
            }
        }
    }
}

/// A reusable handle describing how wide to run job sets.
///
/// `Pool` holds no threads — workers are spawned scoped per [`Pool::run`]
/// call and joined before it returns, which is what lets jobs borrow from
/// the caller and lets pools nest arbitrarily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool as wide as the hardware.
    pub fn auto() -> Self {
        Self::new(available_parallelism())
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a pre-built job set.
    pub fn run<'env, T: Send>(&self, jobs: JobSet<'env, T>) -> Vec<T> {
        jobs.run(self.workers)
    }

    /// Parallel map preserving input order: `f` is applied to every item
    /// and the results come back in the items' original order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        let mut set = JobSet::new();
        for item in items {
            set.push(move || f(item));
        }
        set.run(self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn results_keep_submission_order() {
        // Uneven job costs shuffle completion order; results must not move.
        let items: Vec<usize> = (0..64).collect();
        let out = Pool::new(4).map(items, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = Pool::new(1).map(items.clone(), |x| x.wrapping_mul(x) ^ 0xABCD);
        let parallel = Pool::new(4).map(items, |x| x.wrapping_mul(x) ^ 0xABCD);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<u32> = Pool::new(8).map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
        let empty: JobSet<'_, u32> = JobSet::new();
        assert!(empty.is_empty());
        assert!(Pool::new(3).run(empty).is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = Pool::new(16).map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn jobs_may_borrow_from_caller() {
        let data: Vec<u64> = (0..100).collect();
        let slice = &data[..];
        let sums = Pool::new(4).map(vec![0usize, 25, 50, 75], |start| {
            slice[start..start + 25].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_pools_work() {
        let out = Pool::new(2).map(vec![10u64, 20, 30], |base| {
            Pool::new(2)
                .map(vec![1u64, 2, 3], |x| base + x)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![36, 66, 96]);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map((0..16).collect::<Vec<i32>>(), |i| {
                if i == 5 {
                    panic!("job five exploded");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("job five exploded"), "payload: {msg}");
    }

    /// Records whether its job ran; on drop without running, reports
    /// itself cancelled.
    struct Probe {
        index: usize,
        ran: Arc<AtomicBool>,
        cancelled: Arc<Mutex<Vec<usize>>>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            if !self.ran.load(Ordering::SeqCst) {
                self.cancelled.lock().unwrap().push(self.index);
            }
        }
    }

    /// Runs `jobs` probed jobs on `workers` threads, where `body(index)`
    /// is each job's work (job `panicker` panics after it), and checks the
    /// guarantees that hold under every schedule: the panic propagates,
    /// every job either ran or was cancelled (never both, never neither),
    /// and cancellations arrive in ascending submission order.
    fn assert_abort_contract(
        jobs: usize,
        workers: usize,
        panicker: usize,
        body: impl Fn(usize) + Send + Sync + Clone + 'static,
    ) {
        let cancelled = Arc::new(Mutex::new(Vec::new()));
        let ran_flags: Vec<Arc<AtomicBool>> = (0..jobs)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let mut set = JobSet::new();
        for (index, ran) in ran_flags.iter().enumerate() {
            let probe = Probe {
                index,
                ran: ran.clone(),
                cancelled: cancelled.clone(),
            };
            let body = body.clone();
            set.push(move || {
                probe.ran.store(true, Ordering::SeqCst);
                body(probe.index);
                if probe.index == panicker {
                    panic!("worker down");
                }
            });
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| set.run(workers)));
        assert!(result.is_err(), "panic must propagate");

        let cancelled = cancelled.lock().unwrap().clone();
        let mut sorted = cancelled.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cancelled, sorted, "cancellations out of submission order");
        for (i, ran) in ran_flags.iter().enumerate() {
            assert_ne!(
                ran.load(Ordering::SeqCst),
                cancelled.contains(&i),
                "job {i} neither ran nor was cancelled (or both)"
            );
        }
    }

    #[test]
    fn panic_stops_pulling_new_jobs() {
        // Job 0 panics at once while eight cheap jobs queue behind it on
        // two workers; how many of them the sibling finishes first is up
        // to the scheduler.
        assert_abort_contract(9, 2, 0, |_| {});
    }

    #[test]
    fn panic_under_load_cancels_unstarted_jobs_in_order() {
        // 64 jobs dealt round-robin over 4 deques; workers pop their own
        // deque LIFO, so job 60 is in the first wave. The other first-wave
        // jobs spin until it has panicked. The deadline is a hang escape
        // only, not a timing knob.
        let panicked = Arc::new(AtomicBool::new(false));
        assert_abort_contract(64, 4, 60, move |index| {
            if index == 60 {
                panicked.store(true, Ordering::SeqCst);
                return;
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !panicked.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn stealing_actually_happens() {
        // One worker's deque gets all the slow jobs (round-robin dealing is
        // defeated by making every job slow): with 4 workers and 4x jobs,
        // multiple distinct threads must execute them.
        let ids = Mutex::new(std::collections::HashSet::new());
        Pool::new(4).map((0..16).collect::<Vec<u32>>(), |i| {
            std::thread::sleep(std::time::Duration::from_millis(3));
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.lock().unwrap().len() > 1, "no parallelism observed");
    }

    #[test]
    fn job_set_indices_match_results() {
        let mut set = JobSet::new();
        let a = set.push(|| "a");
        let b = set.push(|| "b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(set.len(), 2);
        assert_eq!(set.run(4), vec!["a", "b"]);
    }

    #[test]
    fn pool_auto_is_at_least_one() {
        assert!(Pool::auto().workers() >= 1);
        assert_eq!(Pool::new(0).workers(), 1);
    }
}
