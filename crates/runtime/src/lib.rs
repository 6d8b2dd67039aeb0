//! # petamg-runtime
//!
//! The workspace's thread pool and keyed flight map.
//!
//! §3.2.3 of *Autotuning Multigrid with PetaBricks* (SC'09) spreads the
//! tasks of data-parallel rules across cores the Cilk way, with
//! thread-private deques and stealing. This workspace has no
//! data-parallel rule: one solve runs on one thread, the serving engine
//! spreads requests across its workers, and the tuner splits its
//! training instances in two. So the pool is plain: named workers take
//! jobs, oldest first, from one locked queue.
//!
//! * [`ThreadPool::spawn`] and [`spawn`] queue a detached job (a
//!   serving engine's request, or a request handed back by a landing).
//! * [`join`] on a worker queues its second half and runs the first.
//!   If no worker has taken the second half by then, the caller takes
//!   it back and runs it; otherwise it blocks until the taker is done.
//!   A waiting caller runs nothing else, so a queued request never
//!   starts inside someone else's `join`.
//! * [`ThreadPool::install`] queues a job and blocks until a worker has
//!   run it.
//!
//! The public surface is what the workspace uses: [`ThreadPool`]
//! (`new`, `spawn`, `install`), [`join`], [`spawn`],
//! [`current_worker_index`], and [`SingleFlight`]: the one keyed map of
//! reusable values in the workspace (the direct-factor cache, the plan
//! library's memory tier and the serving engine's plan flights),
//! holding at most one flight in the air and one landed value per key
//! under an LRU bound, whose landings hand parked jobs back to the pool
//! through [`spawn`]. Each pool is owned by whoever built it — the
//! serving engine for requests, a caller of the tuner for a pooled
//! tune; there is no process-global pool, and off a pool every call
//! runs inline.
//!
//! ```
//! let pool = petamg_runtime::ThreadPool::new(2);
//! let (a, b) = pool.install(|| petamg_runtime::join(|| 1 + 1, || 2 + 2));
//! assert_eq!((a, b), (2, 4));
//! ```

mod flight;
mod pool;

pub use flight::{FlightGuard, Parked, ParkedJob, Role, SingleFlight};
pub use pool::{current_worker_index, ThreadPool};

/// Execute `oper_a` and `oper_b`, potentially in parallel, returning both
/// results.
///
/// On a worker thread, `oper_b` is queued for any free worker while
/// `oper_a` runs on the calling thread. If no worker has taken
/// `oper_b` when `oper_a` returns, the caller runs it too; otherwise
/// the caller blocks, running nothing else, until `oper_b` is done. A
/// panic in either closure is re-raised after both complete. Off a pool
/// both closures run inline on the calling thread, `oper_a` then
/// `oper_b`.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::with_worker(|worker| match worker {
        Some((shared, _)) => match shared.fork(oper_a, oper_b, true) {
            (Ok(a), Ok(b)) => (a, b),
            (_, Err(payload)) | (Err(payload), _) => std::panic::resume_unwind(payload),
        },
        None => (oper_a(), oper_b()),
    })
}

/// Queue a detached job on the calling worker's own pool, as
/// [`ThreadPool::spawn`] would on a pool held by handle, and return
/// at once. Off a pool `op` runs inline before `spawn` returns.
///
/// This is how a job hands work back to the pool it runs on (the
/// serving engine's flights hand back the requests parked on them).
/// On a pool a panic escaping `op` is caught on the worker that ran
/// it, as with `ThreadPool::spawn`; off a pool it unwinds into the
/// caller.
pub fn spawn<F>(op: F)
where
    F: FnOnce() + Send + 'static,
{
    pool::with_worker(|worker| match worker {
        Some((shared, _)) => {
            shared.push(Box::new(op));
        }
        None => op(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_basic() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.install(|| join(|| 40 + 2, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn off_a_pool_join_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let log = std::sync::Mutex::new(Vec::new());
        let record = |tag: char| log.lock().unwrap().push((tag, std::thread::current().id()));
        join(|| record('a'), || record('b'));
        assert_eq!(log.into_inner().unwrap(), [('a', caller), ('b', caller)]);
    }

    #[test]
    fn spawn_hands_a_job_to_the_calling_workers_pool_or_runs_it_inline() {
        let (tx, rx) = std::sync::mpsc::channel();
        let inline = tx.clone();
        spawn(move || inline.send(current_worker_index()).unwrap());
        assert_eq!(
            rx.try_recv(),
            Ok(None),
            "off a pool: run inline, already done"
        );

        let pool = ThreadPool::new(2);
        pool.spawn(move || spawn(move || tx.send(current_worker_index()).unwrap()));
        let ran_on = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the handed-back job runs");
        assert!(
            matches!(ran_on, Some(i) if i < 2),
            "on a worker: {ran_on:?}"
        );
    }

    /// A worker waiting in `join` runs nothing else: the other worker
    /// takes `b` (it has started before `a` goes on) and holds it until
    /// `a` has queued a job and returned, and until the `join` caller is
    /// parked on `b` while that job is still queued. The waiting worker
    /// is then the only one free to start the job, so the job must find
    /// `b` done.
    #[test]
    fn a_waiting_join_caller_starts_no_queued_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        const PATIENCE: Duration = Duration::from_secs(10);
        let pool = ThreadPool::new(2);
        let b_done = Arc::new(AtomicBool::new(false));
        let (queued_started, injected_started) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        let (b_started, b_has_started) = mpsc::channel();
        let (a_done, a_has_returned) = mpsc::channel();
        let seen_by_queued_job = Arc::clone(&b_done);
        pool.install(move || {
            join(
                move || {
                    b_has_started
                        .recv_timeout(PATIENCE)
                        .expect("`b` was never taken");
                    let b_done = seen_by_queued_job;
                    spawn(move || {
                        let b_was_done = b_done.load(Ordering::SeqCst);
                        let _ = queued_started.send(());
                        tx.send(b_was_done).unwrap();
                    });
                    a_done.send(()).unwrap();
                },
                move || {
                    b_started.send(()).unwrap();
                    a_has_returned
                        .recv_timeout(PATIENCE)
                        .expect("`a` never returned");
                    // Release once the `join` caller is parked (beside
                    // the `install` caller) while the job is still
                    // queued, or once the job has already looked.
                    let deadline = std::time::Instant::now() + PATIENCE;
                    while injected_started.try_recv().is_err() {
                        if pool::parked_forks_and_queued_jobs() == (2, 1) {
                            break;
                        }
                        assert!(
                            std::time::Instant::now() < deadline,
                            "the `join` caller never parked on `b`"
                        );
                        std::thread::yield_now();
                    }
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        });
        let b_was_done = rx.recv_timeout(PATIENCE).expect("the queued job runs");
        assert!(
            b_was_done,
            "the queued job started inside the join waiting for `b`"
        );
    }

    /// `nest(10)` on two workers never runs more than two leaves at
    /// once, and only on the two workers: a `join` lends work to a
    /// worker, it never starts a thread.
    #[test]
    fn nested_joins_stay_on_the_pools_workers() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        struct Census {
            live: AtomicUsize,
            most: AtomicUsize,
            threads: Mutex<HashSet<std::thread::ThreadId>>,
        }
        fn nest(depth: usize, census: &Census) -> usize {
            if depth > 0 {
                let (a, b) = join(|| nest(depth - 1, census), || nest(depth - 1, census));
                return a + b;
            }
            assert!(current_worker_index().is_some(), "a leaf ran off the pool");
            let live = census.live.fetch_add(1, Ordering::SeqCst) + 1;
            census.most.fetch_max(live, Ordering::SeqCst);
            census
                .threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            std::hint::black_box((0..100).sum::<usize>());
            census.live.fetch_sub(1, Ordering::SeqCst);
            1
        }
        let census = Census {
            live: AtomicUsize::new(0),
            most: AtomicUsize::new(0),
            threads: Mutex::new(HashSet::new()),
        };
        let pool = ThreadPool::new(2);
        assert_eq!(pool.install(|| nest(10, &census)), 1 << 10);
        assert!(census.most.load(Ordering::SeqCst) <= 2);
        assert!(census.threads.lock().unwrap().len() <= 2);
    }

    #[test]
    fn join_nested_fibonacci() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                let (a, b) = join(|| fib(n - 1), || fib(n - 2));
                a + b
            }
        }
        let pool = ThreadPool::new(4);
        assert_eq!(pool.install(|| fib(20)), 6765);
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let pool = ThreadPool::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| join(|| panic!("boom-a"), || 7))
        }));
        assert!(res.is_err());
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let pool = ThreadPool::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| join(|| 7, || panic!("boom-b")))
        }));
        assert!(res.is_err());
    }

    #[test]
    fn single_thread_pool_still_completes() {
        let pool = ThreadPool::new(1);
        let sum: u64 = pool.install(|| {
            let (a, b) = join(
                || (0..1000u64).sum::<u64>(),
                || (1000..2000u64).sum::<u64>(),
            );
            a + b
        });
        assert_eq!(sum, (0..2000u64).sum::<u64>());
    }
}
