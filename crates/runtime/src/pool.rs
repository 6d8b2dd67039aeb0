//! The thread pool: named workers over one locked job queue.

use parking_lot::{Condvar, Mutex};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A queued job. Detached jobs own everything they touch; a borrowed
/// job (a `join` half, an `install` body) is lifetime-erased by
/// [`Shared::fork`], which does not return until it has run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and its bookkeeping, behind one lock.
struct State {
    /// Jobs in arrival order, each with the ticket `push` gave it;
    /// workers take from the front.
    jobs: VecDeque<(u64, Job)>,
    next_ticket: u64,
    /// Workers parked on `Shared::work`.
    idle: usize,
    terminate: bool,
    /// `fork` callers blocked until a worker has run their job, which
    /// the tests' handshakes wait on.
    #[cfg(test)]
    parked_forks: usize,
}

/// What the pool's handle and its workers share.
pub(crate) struct Shared {
    state: Mutex<State>,
    work: Condvar,
}

/// A one-shot completion flag a `fork` caller blocks on.
#[derive(Default)]
struct Done {
    set: Mutex<bool>,
    signal: Condvar,
}

impl Done {
    fn set(&self) {
        *self.set.lock() = true;
        self.signal.notify_one();
    }

    fn wait(&self) {
        let mut set = self.set.lock();
        while !*set {
            self.signal.wait(&mut set);
        }
    }
}

impl Shared {
    /// Queue `job` and wake a parked worker if there is one. Returns
    /// the job's ticket.
    pub(crate) fn push(&self, job: Job) -> u64 {
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.jobs.push_back((ticket, job));
        let wake = state.idle > 0;
        drop(state);
        if wake {
            self.work.notify_one();
        }
        ticket
    }

    /// Remove the job `ticket` names if no worker has taken it yet.
    fn take_back(&self, ticket: u64) -> Option<Job> {
        let mut state = self.state.lock();
        let at = state.jobs.iter().rposition(|(t, _)| *t == ticket)?;
        state.jobs.remove(at).map(|(_, job)| job)
    }

    /// Queue `b` as a borrowed job and run `a` on the calling thread.
    /// Then, if `take_back` and no worker has taken `b`, run `b` here;
    /// otherwise block until the worker that took it has run it. The
    /// caller runs nothing else meanwhile. Each half's panic is caught
    /// and returned, and nothing returns or unwinds before `b` has run.
    pub(crate) fn fork<A, B, RA, RB>(
        &self,
        a: A,
        b: B,
        take_back: bool,
    ) -> (thread::Result<RA>, thread::Result<RB>)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let mut out_b = None;
        let done = Arc::new(Done::default());
        let job: Box<dyn FnOnce() + Send + '_> = {
            let (out_b, done) = (&mut out_b, Arc::clone(&done));
            Box::new(move || {
                *out_b = Some(panic::catch_unwind(AssertUnwindSafe(b)));
                done.set();
            })
        };
        // SAFETY: the job borrows `b`'s captures and `out_b`, which live
        // until this function returns. It returns only after the job has
        // run: taken back and run below, or run by the worker that took
        // it, which sets `done` as its last touch of borrowed data. `a`
        // cannot unwind past the wait, since its panic is caught.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        let ticket = self.push(job);
        let out_a = panic::catch_unwind(AssertUnwindSafe(a));
        match take_back.then(|| self.take_back(ticket)).flatten() {
            Some(job) => job(),
            None => {
                #[cfg(test)]
                {
                    self.state.lock().parked_forks += 1;
                }
                done.wait();
                #[cfg(test)]
                {
                    self.state.lock().parked_forks -= 1;
                }
            }
        }
        (
            out_a,
            out_b.expect("a forked job ran before its fork returned"),
        )
    }
}

/// The pool and index of the worker this thread is, if it is one.
struct Worker {
    shared: Arc<Shared>,
    index: usize,
}

thread_local! {
    static WORKER: OnceCell<Worker> = const { OnceCell::new() };
}

/// `f` of the calling thread's pool and worker index, `None` off a
/// pool.
pub(crate) fn with_worker<R>(f: impl FnOnce(Option<(&Arc<Shared>, usize)>) -> R) -> R {
    WORKER.with(|worker| f(worker.get().map(|w| (&w.shared, w.index))))
}

fn worker_main(shared: Arc<Shared>, index: usize) {
    WORKER.with(|worker| {
        let _ = worker.set(Worker {
            shared: Arc::clone(&shared),
            index,
        });
    });
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if let Some((_, job)) = state.jobs.pop_front() {
                    break job;
                }
                if state.terminate {
                    return;
                }
                state.idle += 1;
                shared.work.wait(&mut state);
                state.idle -= 1;
            }
        };
        // Borrowed jobs catch their own panics. A detached job's panic
        // ends here, so the worker goes on to the next job.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
    }
}

/// A pool of named worker threads that take jobs, oldest first, from
/// one locked queue. [`ThreadPool::spawn`] queues detached jobs,
/// [`ThreadPool::install`] runs a job on a worker and waits for it, and
/// [`crate::join`] on a worker lends its second half to any worker that
/// is free before its first half is done.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (at least 1).
    ///
    /// # Panics
    /// Panics if `num_threads == 0` or if OS thread spawning fails.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "thread pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                next_ticket: 0,
                idle: 0,
                terminate: false,
                #[cfg(test)]
                parked_forks: 0,
            }),
            work: Condvar::new(),
        });
        let handles = (0..num_threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("petamg-worker-{index}"))
                    .spawn(move || worker_main(shared, index))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Run `op` on a worker of this pool, blocking the calling thread
    /// until it completes, and re-raise its panic here. Nested
    /// `install` from a worker of this same pool runs inline (no
    /// deadlock).
    pub fn install<F, R>(&self, op: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let on_this_pool = with_worker(|worker| {
            worker.is_some_and(|(shared, _)| Arc::ptr_eq(shared, &self.shared))
        });
        if on_this_pool {
            return op();
        }
        match self.shared.fork(|| (), op, false).1 {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Queue a detached fire-and-forget job on this pool and return
    /// immediately. The job runs on the first worker free after the
    /// jobs queued before it — this is the submission path of the
    /// plan-serving engine in `petamg-serve`, which bounds admission
    /// itself before spawning.
    ///
    /// A panic escaping the job is caught on the worker that ran it,
    /// which goes on to the next job; nobody else sees it beyond the
    /// panic hook's message. A caller that needs to know wraps its
    /// closure in `std::panic::catch_unwind`, as the serving engine
    /// does.
    pub fn spawn<F>(&self, op: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.push(Box::new(op));
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
    /// Let the workers drain the queue, then stop and join them.
    fn drop(&mut self) {
        self.shared.state.lock().terminate = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// `fork` callers of the calling worker's pool blocked on their job,
/// and the jobs its queue holds.
#[cfg(test)]
pub(crate) fn parked_forks_and_queued_jobs() -> (usize, usize) {
    with_worker(|worker| {
        let state = worker.expect("called on a worker").0.state.lock();
        (state.parked_forks, state.jobs.len())
    })
}

/// Index of the current worker thread within its pool, if any. Useful for
/// per-thread scratch buffers in kernels.
pub fn current_worker_index() -> Option<usize> {
    with_worker(|worker| worker.map(|(_, index)| index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// How long a test waits on an event another thread owes it before
    /// it calls the event lost.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Block until `count` of `pool`'s workers are parked on its queue.
    fn await_idle(pool: &ThreadPool, count: usize) {
        let deadline = std::time::Instant::now() + PATIENCE;
        while pool.shared.state.lock().idle < count {
            assert!(
                std::time::Instant::now() < deadline,
                "{count} workers never parked"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn pool_spawns_and_drops_cleanly() {
        for _ in 0..4 {
            let pool = ThreadPool::new(3);
            assert_eq!(pool.handles.len(), 3);
            drop(pool);
        }
    }

    #[test]
    fn dropping_the_pool_runs_what_is_queued() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(1);
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn install_runs_on_worker() {
        let pool = ThreadPool::new(2);
        let on_worker = pool.install(|| current_worker_index().is_some());
        assert!(on_worker);
        assert_eq!(current_worker_index(), None);
    }

    #[test]
    fn nested_install_same_pool_is_inline() {
        let pool = ThreadPool::new(2);
        let outer = pool.install(|| {
            let me = thread::current().id();
            pool.install(|| pool.install(|| thread::current().id() == me))
        });
        assert!(outer);
    }

    #[test]
    fn install_propagates_panic() {
        let pool = ThreadPool::new(2);
        let res = panic::catch_unwind(AssertUnwindSafe(|| {
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
        let (tx, rx) = mpsc::channel();
        for k in 0..64 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(k).unwrap());
        }
        let mut ran: Vec<usize> = (0..64)
            .map(|_| {
                rx.recv_timeout(PATIENCE)
                    .expect("spawned jobs must all run")
            })
            .collect();
        ran.sort_unstable();
        assert_eq!(ran, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_concurrent_installs() {
        let pool = Arc::new(ThreadPool::new(2));
        static SUM: AtomicUsize = AtomicUsize::new(0);
        thread::scope(|s| {
            for t in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..50 {
                        pool.install(|| {
                            SUM.fetch_add(t * i % 7 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        let expected: usize = (0..8)
            .map(|t| (0..50).map(|i| t * i % 7 + 1).sum::<usize>())
            .sum();
        assert_eq!(SUM.load(Ordering::Relaxed), expected);
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

    /// A detached job's panic is caught on its worker: a pool of one
    /// still runs what comes after it.
    #[test]
    fn a_panicking_spawned_job_keeps_its_worker() {
        let pool = Arc::new(ThreadPool::new(1));
        pool.spawn(|| panic!("a detached job panics"));
        let (answer, answered) = mpsc::channel();
        let caller = Arc::clone(&pool);
        thread::spawn(move || answer.send(caller.install(|| 42)).unwrap());
        let got = answered.recv_timeout(PATIENCE);
        assert_eq!(got, Ok(42), "the pool's only worker died with the job");
    }

    /// With no free worker — a pool of one, or the other worker held
    /// until the `join` returns — nobody takes `b` before `a` is done,
    /// so the caller takes it back and runs it itself.
    #[test]
    fn with_no_free_worker_b_runs_on_the_caller() {
        let one = ThreadPool::new(1);
        let (a, b) =
            one.install(|| crate::join(|| thread::current().id(), || thread::current().id()));
        assert_eq!(a, b, "pool of one");

        let two = ThreadPool::new(2);
        let (held, release) = mpsc::channel::<()>();
        let (holding, is_holding) = mpsc::channel();
        two.spawn(move || {
            holding.send(current_worker_index()).unwrap();
            release.recv_timeout(PATIENCE).expect("released");
        });
        let other = is_holding
            .recv_timeout(PATIENCE)
            .expect("the holder started");
        let (a, b) = two.install(|| {
            crate::join(
                || (thread::current().id(), current_worker_index()),
                || (thread::current().id(), current_worker_index()),
            )
        });
        held.send(()).unwrap();
        assert_eq!(a, b, "the other worker was held");
        assert_ne!(a.1, other);
    }

    /// A worker parked on the queue takes `b`. `a` does not return
    /// until `b` has started, so `b` cannot have been taken back.
    #[test]
    fn a_parked_worker_takes_b() {
        let pool = ThreadPool::new(2);
        let (a_on, b_on) = pool.install(|| {
            await_idle(&pool, 1);
            let (started, b_has_started) = mpsc::channel();
            crate::join(
                move || {
                    b_has_started
                        .recv_timeout(PATIENCE)
                        .expect("`b` never started on the parked worker");
                    current_worker_index()
                },
                move || {
                    started.send(()).unwrap();
                    current_worker_index()
                },
            )
        });
        assert!(a_on.is_some() && b_on.is_some());
        assert_ne!(a_on, b_on);
    }
}
