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
//! * idle workers **steal** from a global injector and from random victims,
//! * blocked parents **help** by executing pending work while they wait
//!   (continuation stealing is approximated by child stealing + helping,
//!   as in rayon),
//! * sleeping workers park on a condition variable with an event-counter
//!   protocol so that work injection can never be missed for longer than
//!   a bounded timeout.
//!
//! The public surface is intentionally small: [`ThreadPool`], [`join`],
//! [`scope`], and [`parallel_for`]. The multigrid kernels in `petamg-grid`
//! drive all of their parallel sweeps through this crate.
//!
//! ```
//! let pool = petamg_runtime::ThreadPool::new(2);
//! let (a, b) = pool.install(|| petamg_runtime::join(|| 1 + 1, || 2 + 2));
//! assert_eq!((a, b), (2, 4));
//!
//! let mut data = vec![0u64; 1024];
//! pool.parallel_for_slice(&mut data, 64, |off, chunk| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (off + i) as u64;
//!     }
//! });
//! assert_eq!(data[513], 513);
//! ```

mod job;
mod latch;
mod par;
mod registry;
mod scope;
mod sleep;

pub use par::{
    parallel_for, parallel_for_reduce_max, parallel_for_reduce_sum, parallel_reduce, ParallelForExt,
};
pub use registry::{current_worker_index, PoolStats, ThreadPool};
pub use scope::{scope, Scope};

use job::StackJob;
use latch::{Latch, SpinLatch};
use registry::WorkerThread;

/// Execute `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. Panics in either closure are propagated after both complete.
///
/// When called on a worker thread, `oper_b` is pushed onto the local deque
/// (where idle workers may steal it) while `oper_a` runs immediately —
/// exactly the Cilk `spawn`/`sync` pattern. When called from a thread
/// outside any pool, the call is routed through the global pool.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        Some(worker) => join_core(worker, oper_a, oper_b),
        None => registry::global().install(|| join(oper_a, oper_b)),
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
        // nobody stole it), otherwise help by stealing someone else's work.
        match worker.find_work() {
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
    fn join_from_external_thread_uses_global_pool() {
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
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
