//! # petamg-runtime
//!
//! A Cilk-style work-stealing task runtime, reproducing the PetaBricks
//! runtime substrate described in §3.2.3 of *Autotuning Multigrid with
//! PetaBricks* (SC'09):
//!
//! > "The runtime scheduler dynamically schedules tasks (that have their
//! > input dependencies satisfied) across processors to distribute work.
//! > The scheduler attempts to maximize locality using a greedy algorithm
//! > that schedules tasks in a depth-first search order. Following the
//! > approach taken by Cilk, we distribute work with thread-private deques
//! > and a task stealing protocol."
//!
//! The design mirrors that description directly:
//!
//! * every worker owns a **LIFO deque** (depth-first local execution,
//!   FIFO stealing from the cold end — the classic Cilk discipline),
//! * idle workers **steal** from the pool's injector and from random
//!   victims,
//! * blocked parents **help** by executing pending work while they wait
//!   (continuation stealing is approximated by child stealing + helping,
//!   as in rayon). A worker waiting in [`join`] pops its own deque and
//!   steals from other workers' deques, never from the injector: it only
//!   ever runs halves of some `join`, and a job injected by
//!   [`ThreadPool::spawn`] or [`spawn`] — a serving engine's request —
//!   starts only on a worker that is not inside another job,
//! * sleeping workers park on a condition variable with an event-counter
//!   protocol so that work injection can never be missed for longer than
//!   a bounded timeout.
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
//! runs inline. Grid sweeps do not use a pool: one solve runs on one
//! thread, and the serving engine spreads requests across its workers.
//!
//! ```
//! let pool = petamg_runtime::ThreadPool::new(2);
//! let (a, b) = pool.install(|| petamg_runtime::join(|| 1 + 1, || 2 + 2));
//! assert_eq!((a, b), (2, 4));
//! ```

mod flight;
mod job;
mod latch;
mod registry;
mod sleep;

pub use flight::{FlightGuard, Parked, ParkedJob, Role, SingleFlight};
pub use registry::{current_worker_index, ThreadPool};

use job::StackJob;
use latch::{Latch, SpinLatch};
use registry::WorkerThread;

/// Execute `oper_a` and `oper_b`, potentially in parallel, returning both
/// results.
///
/// On a worker thread, `oper_b` is pushed onto the local deque (where
/// idle workers may steal it) while `oper_a` runs immediately — exactly
/// the Cilk `spawn`/`sync` pattern — and a panic in either closure is
/// propagated after both complete. While it waits for a stolen
/// `oper_b`, the worker helps with other `join` halves only: an
/// injected job never starts before this `join` returns. Off a pool
/// both closures run inline on the calling thread, `oper_a` then
/// `oper_b`.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        Some(worker) => join_core(worker, oper_a, oper_b),
        None => (oper_a(), oper_b()),
    }
}

/// Inject a detached job into the calling worker's own pool, as
/// [`ThreadPool::spawn`] would into a pool held by handle, and return
/// at once. Off a pool `op` runs inline before `spawn` returns.
///
/// This is how a job hands work back to the pool it runs on (the
/// serving engine's flights hand back the requests parked on them).
/// Like `ThreadPool::spawn`, `op` must not unwind.
pub fn spawn<F>(op: F)
where
    F: FnOnce() + Send + 'static,
{
    match WorkerThread::current() {
        Some(worker) => worker.registry().inject(job::HeapJob::into_job_ref(op)),
        None => op(),
    }
}

fn join_core<A, B, RA, RB>(worker: &WorkerThread, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::<SpinLatch, B, RB>::new(oper_b, SpinLatch::new());
    // SAFETY: `job_b` lives on this stack frame and we do not return until
    // its latch is set, so the erased pointer inside the JobRef cannot
    // dangle while it is reachable by thieves.
    let job_b_ref = unsafe { job_b.as_job_ref() };
    worker.push(job_b_ref);

    // Run the first half inline. If it panics we still must wait for the
    // second half (a thief may be executing it on our stack data).
    let status_a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(oper_a));

    while !job_b.latch().probe() {
        // Depth-first: drain our own deque (this is where `job_b` sits if
        // nobody stole it), otherwise help by stealing another worker's
        // `join` halves — never an injected job (see `find_help`).
        match worker.find_help() {
            Some(job) => unsafe { job.execute() },
            None => {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    let result_b = job_b.into_result(); // propagates a panic from B
    match status_a {
        Ok(result_a) => (result_a, result_b),
        Err(payload) => std::panic::resume_unwind(payload),
    }
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

    #[test]
    fn a_worker_waiting_in_join_does_not_start_an_injected_job() {
        // The other worker steals `b` and holds it until `a` has returned
        // with a job injected, and a while longer unless that job starts.
        // The waiting worker's own deque is then empty, so the injected
        // job is all it could run before its `join` returns.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        let pool = ThreadPool::new(2);
        let (b_started, a_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (injected_started, b_done) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let wait_for = |flag: &AtomicBool, patience: Duration| {
            let deadline = Instant::now() + patience;
            while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            flag.load(Ordering::SeqCst)
        };
        pool.install(|| {
            join(
                || {
                    assert!(
                        wait_for(&b_started, Duration::from_secs(10)),
                        "`b` was never stolen"
                    );
                    let (started, b_done) = (Arc::clone(&injected_started), Arc::clone(&b_done));
                    spawn(move || {
                        started.store(true, Ordering::SeqCst);
                        tx.send(b_done.load(Ordering::SeqCst)).unwrap();
                    });
                    a_done.store(true, Ordering::SeqCst);
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    assert!(
                        wait_for(&a_done, Duration::from_secs(10)),
                        "`a` never returned"
                    );
                    wait_for(&injected_started, Duration::from_millis(200));
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        });
        let b_was_done = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the injected job runs");
        assert!(
            b_was_done,
            "the injected job started inside the join waiting for `b`"
        );
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
