//! Type-erased jobs.
//!
//! A [`JobRef`] is a fat-pointer-free erased reference to a job living
//! either on a blocked caller's stack ([`StackJob`], used by `join` and
//! `install`) or on the heap ([`HeapJob`], used by `ThreadPool::spawn`).
//!
//! # Safety model
//!
//! `JobRef` erases lifetimes. The soundness argument is the one rayon
//! uses: whoever creates a `JobRef` from a stack job must not pop that
//! stack frame until the job's latch is set, and a heap job owns its
//! closure and frees it on execution. All `unsafe` in this crate funnels
//! through these two invariants.

use crate::latch::Latch;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};

/// A trait for types that can be executed through an erased pointer.
pub(crate) trait Job {
    /// Execute the job.
    ///
    /// # Safety
    /// `this` must point to a live instance, and each instance must be
    /// executed at most once.
    unsafe fn execute(this: *const Self);
}

/// An erased, sendable reference to a job.
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever created for jobs whose closures are Send
// (enforced by the public API bounds on join/install/spawn), and the
// pointed-to memory is kept alive by the latch protocol described above.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// See the module-level safety model: `data` must outlive the job's
    /// execution and be executed exactly once.
    pub(crate) unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef {
            pointer: data as *const (),
            // SAFETY: `ptr` is the `data` this JobRef was made from, so
            // the caller of `new` keeps it live for the one execution.
            execute_fn: |ptr| unsafe { T::execute(ptr as *const T) },
        }
    }

    /// # Safety
    /// Must be called at most once per underlying job instance.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: `execute_fn` was built for `pointer` in `new`; the
        // caller runs each job at most once.
        unsafe { (self.execute_fn)(self.pointer) }
    }
}

/// Outcome slot of a [`StackJob`].
pub(crate) enum JobResult<R> {
    /// Not yet executed.
    None,
    Ok(R),
    Panic(Box<dyn Any + Send>),
}

/// A job allocated on the stack of a blocked caller.
///
/// The caller keeps the instance alive and waits on `latch` before
/// reading `result`.
pub(crate) struct StackJob<L: Latch, F, R>
where
    F: FnOnce() -> R,
{
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

// SAFETY: access to `func`/`result` is serialized by the latch protocol:
// the executing thread writes them before `latch.set()` (release) and the
// owner reads them only after `probe()` (acquire) returns true.
unsafe impl<L: Latch + Sync, F: FnOnce() -> R + Send, R: Send> Sync for StackJob<L, F, R> {}

impl<L: Latch, F, R> StackJob<L, F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    pub(crate) fn latch(&self) -> &L {
        &self.latch
    }

    /// # Safety
    /// The returned `JobRef` must not outlive `self`, and `self` must not
    /// be dropped until the latch is set.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef
    where
        L: Sync,
    {
        // SAFETY: forwarded contract: `self` outlives the JobRef's
        // execution and is executed at most once.
        unsafe { JobRef::new(self as *const Self) }
    }

    /// Take the result. Must only be called after the latch is set.
    /// Propagates the job's panic, if any.
    pub(crate) fn into_result(self) -> R {
        match self.result.into_inner() {
            JobResult::None => unreachable!("job result taken before execution"),
            JobResult::Ok(r) => r,
            JobResult::Panic(payload) => panic::resume_unwind(payload),
        }
    }
}

impl<L: Latch, F, R> Job for StackJob<L, F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const Self) {
        // SAFETY: the caller passes a live instance (the owner waits on
        // the latch before popping its frame).
        let this = unsafe { &*this };
        // SAFETY: execute-at-most-once means we are the only accessor of
        // `func` and `result` until the latch is set.
        let func = unsafe { (*this.func.get()).take() }.expect("StackJob executed twice");
        let outcome = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(payload) => JobResult::Panic(payload),
        };
        // SAFETY: as for `func` above: no other accessor until the
        // latch is set.
        unsafe {
            *this.result.get() = outcome;
        }
        // The latch store is the last touch of `this`: the instant it is
        // visible, the owning stack frame may be popped.
        this.latch.set();
    }
}

/// A heap-allocated fire-and-forget job, used by `ThreadPool::spawn`.
/// Completion accounting (and panic capture) is the closure's own
/// responsibility; executing the job frees the allocation.
pub(crate) struct HeapJob<F>
where
    F: FnOnce() + Send,
{
    func: F,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    /// Allocates the job and returns an owning `JobRef`.
    pub(crate) fn into_job_ref(func: F) -> JobRef {
        let boxed = Box::new(HeapJob { func });
        // SAFETY: the Box is leaked here and reconstituted exactly once in
        // `execute`, which is called at most once per JobRef.
        unsafe { JobRef::new(Box::into_raw(boxed)) }
    }
}

impl<F> Job for HeapJob<F>
where
    F: FnOnce() + Send,
{
    unsafe fn execute(this: *const Self) {
        // SAFETY: `this` came from `Box::into_raw` in `into_job_ref`, and
        // a job executes at most once, so the box is rebuilt once.
        let boxed = unsafe { Box::from_raw(this as *mut Self) };
        (boxed.func)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::SpinLatch;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stack_job_roundtrip() {
        let job = StackJob::<SpinLatch, _, _>::new(|| 6 * 7, SpinLatch::new());
        // SAFETY: `job` lives to the end of the test, past its latch.
        let job_ref = unsafe { job.as_job_ref() };
        // SAFETY: the one execution of `job`.
        unsafe { job_ref.execute() };
        assert!(job.latch().probe());
        assert_eq!(job.into_result(), 42);
    }

    #[test]
    fn stack_job_captures_panic() {
        let job: StackJob<SpinLatch, _, ()> = StackJob::new(|| panic!("inner"), SpinLatch::new());
        // SAFETY: `job` lives to the end of the test, past its latch.
        let job_ref = unsafe { job.as_job_ref() };
        // SAFETY: the one execution of `job`.
        unsafe { job_ref.execute() };
        assert!(job.latch().probe());
        let res = panic::catch_unwind(AssertUnwindSafe(move || job.into_result()));
        assert!(res.is_err());
    }

    #[test]
    fn heap_job_runs_and_frees() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let job_ref = HeapJob::into_job_ref(|| {
            COUNT.fetch_add(1, Ordering::SeqCst);
        });
        // SAFETY: the one execution of the heap job.
        unsafe { job_ref.execute() };
        assert_eq!(COUNT.load(Ordering::SeqCst), 1);
    }
}
