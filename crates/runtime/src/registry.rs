//! The thread pool: worker registry, deques, stealing, and lifecycle.

use crate::job::{JobRef, StackJob};
use crate::latch::LockLatch;
use crate::sleep::Sleep;
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub(crate) struct Registry {
    injector: Injector<JobRef>,
    stealers: Vec<Stealer<JobRef>>,
    sleep: Sleep,
    terminate: AtomicBool,
    num_threads: usize,
}

impl Registry {
    pub(crate) fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.sleep.tickle();
    }

    fn steal_from_injector(&self) -> Option<JobRef> {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => return None,
                Steal::Retry => continue,
            }
        }
    }
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Per-worker state. Lives on the worker thread's stack for the lifetime
/// of the pool; other threads only interact with it through its
/// [`Stealer`] (owned by the registry).
pub(crate) struct WorkerThread {
    deque: Worker<JobRef>,
    index: usize,
    registry: Arc<Registry>,
    /// xorshift state used to randomize steal victims.
    rng: Cell<u64>,
}

impl WorkerThread {
    /// Returns the worker state of the current thread, if it is a pool
    /// worker.
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        let ptr = WORKER.with(|w| w.get());
        if ptr.is_null() {
            None
        } else {
            // SAFETY: the pointer is installed by `worker_main` on this
            // very thread and cleared before the stack frame dies; the
            // 'static is a lie contained to this module (the reference is
            // only used within the dynamic extent of worker_main).
            Some(unsafe { &*ptr })
        }
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Push a job onto the local deque (hot path of `join`).
    pub(crate) fn push(&self, job: JobRef) {
        self.deque.push(job);
        self.registry.sleep.tickle();
    }

    fn next_random(&self) -> u64 {
        // xorshift64*: cheap, good enough to decorrelate steal victims.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Pop local work or steal. Depth-first: local LIFO pop first, then
    /// the injector, then random-victim stealing (FIFO end).
    pub(crate) fn find_work(&self) -> Option<JobRef> {
        self.deque
            .pop()
            .or_else(|| self.registry.steal_from_injector())
            .or_else(|| self.steal_from_workers())
    }

    /// The work a worker blocked in `join` may run while it waits: its
    /// own deque, then other workers' deques — never the injector. An
    /// injected job is new top-level work (a serving engine's request),
    /// and starting one inside the waiting job would run it in the
    /// middle of someone else's.
    pub(crate) fn find_help(&self) -> Option<JobRef> {
        self.deque.pop().or_else(|| self.steal_from_workers())
    }

    fn steal_from_workers(&self) -> Option<JobRef> {
        let registry = &*self.registry;
        let n = registry.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = (self.next_random() as usize) % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match registry.stealers[victim].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

fn worker_main(deque: Worker<JobRef>, index: usize, registry: Arc<Registry>) {
    let worker = WorkerThread {
        deque,
        index,
        registry,
        rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ ((index as u64 + 1) << 32 | 0xDEAD)),
    };
    WORKER.with(|w| w.set(&worker as *const WorkerThread));

    loop {
        if let Some(job) = worker.find_work() {
            // Jobs catch their own panics (StackJob) or are documented as
            // must-not-unwind (`ThreadPool::spawn`), so executing here
            // cannot unwind through the worker loop in normal operation.
            unsafe { job.execute() };
            continue;
        }
        if worker.registry.terminate.load(Ordering::SeqCst) {
            break;
        }
        // Sleep protocol (see sleep.rs): register, re-check, park.
        let ticket = worker.registry.sleep.start_looking();
        if let Some(job) = worker.find_work() {
            worker.registry.sleep.cancel();
            unsafe { job.execute() };
            continue;
        }
        if worker.registry.terminate.load(Ordering::SeqCst) {
            worker.registry.sleep.cancel();
            break;
        }
        worker.registry.sleep.sleep(ticket);
    }

    WORKER.with(|w| w.set(std::ptr::null()));
}

/// A work-stealing thread pool in the style of the PetaBricks runtime
/// (§3.2.3): thread-private LIFO deques, random-victim stealing, and
/// depth-first local execution.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (at least 1).
    ///
    /// # Panics
    /// Panics if `num_threads == 0` or if OS thread spawning fails.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "thread pool needs at least one worker");
        let deques: Vec<Worker<JobRef>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers = deques.iter().map(Worker::stealer).collect();
        let registry = Arc::new(Registry {
            injector: Injector::new(),
            stealers,
            sleep: Sleep::new(),
            terminate: AtomicBool::new(false),
            num_threads,
        });
        let mut handles = Vec::with_capacity(num_threads);
        for (index, deque) in deques.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("petamg-worker-{index}"))
                .spawn(move || worker_main(deque, index, registry))
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        ThreadPool {
            registry,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads
    }

    /// Run `op` inside the pool, blocking the calling thread until it
    /// completes. Nested `install` from a worker of this same pool runs
    /// inline (no deadlock).
    pub fn install<F, R>(&self, op: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(worker) = WorkerThread::current() {
            if Arc::ptr_eq(worker.registry(), &self.registry) {
                return op();
            }
        }
        let job = StackJob::<LockLatch, F, R>::new(op, LockLatch::new());
        // SAFETY: we block on the latch below, so the stack frame holding
        // `job` outlives its execution.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        job.latch().wait();
        job.into_result()
    }

    /// Inject a detached fire-and-forget job into this pool and return
    /// immediately. The job runs on whichever worker dequeues it (local
    /// pop or steal) — this is the submission path of the plan-serving
    /// engine in `petamg-serve`, which bounds admission itself before
    /// spawning.
    ///
    /// The closure must not unwind: a panic escaping a detached job
    /// kills the worker thread that happened to execute it (the pool
    /// keeps running with one fewer worker). Callers that cannot prove
    /// their closure panic-free should wrap it in
    /// `std::panic::catch_unwind`, as the serving engine does.
    pub fn spawn<F>(&self, op: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.registry.inject(crate::job::HeapJob::into_job_ref(op));
    }

    /// Run `body(i)` for every `i in 0..len` on this pool, splitting the
    /// range in half through [`crate::join`] until blocks are at most
    /// `grain` long (a `grain` of zero is treated as 1).
    // Pinned by `benchmark/src/probes.rs` (`runtime.parallel_for_empty_us`); delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub fn parallel_for<F>(&self, len: usize, grain: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        fn split<F: Fn(usize) + Sync>(lo: usize, hi: usize, grain: usize, body: &F) {
            if hi - lo <= grain {
                (lo..hi).for_each(body);
            } else {
                let mid = lo + (hi - lo) / 2;
                crate::join(
                    || split(lo, mid, grain, body),
                    || split(mid, hi, grain, body),
                );
            }
        }
        self.install(|| split(0, len, grain.max(1), &body));
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::SeqCst);
        // Wake everyone repeatedly until all workers observed termination
        // and exited. The backstop timeout in `sleep` guarantees progress
        // even if a tickle races a worker going to sleep.
        let mut handles = std::mem::take(&mut *self.handles.lock());
        for h in handles.drain(..) {
            self.registry.sleep.tickle();
            let _ = h.join();
        }
    }
}

/// Index of the current worker thread within its pool, if any. Useful for
/// per-thread scratch buffers in kernels.
pub fn current_worker_index() -> Option<usize> {
    WorkerThread::current().map(|w| w.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_spawns_and_drops_cleanly() {
        for _ in 0..4 {
            let pool = ThreadPool::new(3);
            assert_eq!(pool.num_threads(), 3);
            drop(pool);
        }
    }

    #[test]
    fn install_runs_on_worker() {
        let pool = ThreadPool::new(2);
        let on_worker = pool.install(|| WorkerThread::current().is_some());
        assert!(on_worker);
        assert!(WorkerThread::current().is_none());
    }

    #[test]
    fn nested_install_same_pool_is_inline() {
        let pool = ThreadPool::new(2);
        let x = pool.install(|| pool.install(|| pool.install(|| 5)));
        assert_eq!(x, 5);
    }

    #[test]
    fn install_propagates_panic() {
        let pool = ThreadPool::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("install panic"))
        }));
        assert!(res.is_err());
        // Pool must still be usable afterwards.
        assert_eq!(pool.install(|| 3), 3);
    }

    #[test]
    fn worker_index_in_range() {
        let pool = ThreadPool::new(4);
        let idx = pool.install(current_worker_index);
        assert!(idx.is_some());
        assert!(idx.unwrap() < 4);
        assert_eq!(current_worker_index(), None);
    }

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < 64 {
            assert!(
                std::time::Instant::now() < deadline,
                "spawned jobs must all run"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn heavy_concurrent_installs() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        static SUM: AtomicUsize = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..50 {
                        pool.install(|| {
                            SUM.fetch_add(t * i % 7 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert!(SUM.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = ThreadPool::new(3);
        for (len, grain) in [(1000, 16), (10, 0), (1, 8)] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(len, grain, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        pool.parallel_for(0, 8, |_| panic!("must not be called"));
    }
}
