//! The batch pool: scoped workers claiming item slots from one counter.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A reusable handle describing how wide to run a batch.
///
/// `Pool` holds no threads — workers are spawned scoped per [`Pool::map`]
/// call and joined before it returns, which is what lets jobs borrow from
/// the caller and lets pools nest arbitrarily.
#[derive(Debug, Clone, Copy)]
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

    /// Parallel map preserving input order: `f` is applied to every item
    /// and the results come back in the items' original order.
    ///
    /// Workers claim items from one shared counter, last item first.
    /// `workers <= 1` (or a single item) runs everything on the calling
    /// thread — the serial reference path, bit-identical to the parallel
    /// one for any deterministic `f`.
    ///
    /// # Panics
    ///
    /// If `f` panics, the batch is aborted and one panic payload is
    /// re-raised here after all workers have stopped. Every item either
    /// ran or was cancelled, never both, and the cancelled ones are
    /// dropped in ascending index order, so cancellation side effects are
    /// deterministic. Workers stop claiming once they see the abort, but
    /// that is best-effort: siblings on other cores may finish the whole
    /// batch before the panicking job unwinds, so how many items get
    /// cancelled (possibly none) depends on the schedule.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let total = items.len();
        let n = self.workers.min(total);
        if n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let claims = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let panic_box = Mutex::new(None);

        let work = || {
            while !abort.load(Ordering::Relaxed) {
                // Claim k takes item total-1-k: one claim per item.
                let k = claims.fetch_add(1, Ordering::Relaxed);
                let Some(index) = (total - 1).checked_sub(k) else {
                    return;
                };
                let item = slots[index]
                    .lock()
                    .expect("item lock")
                    .take()
                    .expect("each item is claimed once");
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(value) => *results[index].lock().expect("result lock") = Some(value),
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        // First panic observed wins; later ones are dropped.
                        panic_box
                            .lock()
                            .expect("panic box lock")
                            .get_or_insert(payload);
                        return;
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(work);
            }
        });

        if let Some(payload) = panic_box.into_inner().expect("panic box lock") {
            // Unclaimed items are still in their slots; dropping the
            // `Vec` drops them in ascending index order.
            drop(slots);
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| {
                r.into_inner()
                    .expect("result lock")
                    .expect("every item ran exactly once")
            })
            .collect()
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
        // Zero workers clamp to one: the serial path on the caller's thread.
        let caller = std::thread::current().id();
        let out = Pool::new(0).map(vec![1, 2, 3], |x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
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

    /// Maps `jobs` probes on `workers` threads, where `body(index)` is each
    /// job's work (job `panicker` panics after it), and checks the
    /// guarantees that hold under every schedule: the panic propagates,
    /// every job either ran or was cancelled (never both, never neither),
    /// and cancellations arrive in ascending submission order.
    fn assert_abort_contract(
        jobs: usize,
        workers: usize,
        panicker: usize,
        body: impl Fn(usize) + Sync,
    ) {
        let cancelled = Arc::new(Mutex::new(Vec::new()));
        let ran_flags: Vec<Arc<AtomicBool>> = (0..jobs)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let probes: Vec<Probe> = ran_flags
            .iter()
            .enumerate()
            .map(|(index, ran)| Probe {
                index,
                ran: ran.clone(),
                cancelled: cancelled.clone(),
            })
            .collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::new(workers).map(probes, |probe| {
                probe.ran.store(true, Ordering::SeqCst);
                body(probe.index);
                if probe.index == panicker {
                    panic!("worker down");
                }
            })
        }));
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
        // 64 jobs on 4 workers claiming from the last item down: the first
        // wave is jobs 63 to 60, so panicker 60 is in it. The other
        // first-wave jobs spin until it has panicked. The deadline is a
        // hang escape only, not a timing knob.
        let panicked = AtomicBool::new(false);
        assert_abort_contract(64, 4, 60, |index| {
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
    fn more_than_one_thread_runs_jobs() {
        // Every job is slow, so with 4 workers and 16 jobs several
        // distinct threads must claim some.
        let ids = Mutex::new(std::collections::HashSet::new());
        Pool::new(4).map((0..16).collect::<Vec<u32>>(), |i| {
            std::thread::sleep(std::time::Duration::from_millis(3));
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.lock().unwrap().len() > 1, "no parallelism observed");
    }
}
