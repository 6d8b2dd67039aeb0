//! API-compatible shim for the subset of `parking_lot` this workspace
//! uses: `Mutex` (non-poisoning `lock()` returning a guard directly) and
//! `Condvar` (`wait(&mut guard)` / `wait_for(&mut guard, timeout)`, and
//! `notify_one` reporting whether a thread was waiting).
//!
//! Implemented over `std::sync`; a poisoned std mutex (a thread panicked
//! while holding it) is transparently recovered, matching parking_lot's
//! no-poisoning semantics.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// Non-poisoning mutex with `parking_lot`'s `lock()` signature.
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Wraps the std guard in an `Option`
/// so [`Condvar`] can temporarily take ownership during a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// New mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquire the lock (recovers from std poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

/// Result of a timed wait; mirrors `parking_lot::WaitTimeoutResult`.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable with `parking_lot`'s `&mut guard` wait signature.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads inside `wait` / `wait_for`. A waiter counts itself while
    /// it still holds the lock, so a notifier holding the same lock
    /// always sees it.
    waiters: AtomicUsize,
}

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, releasing the guard's lock while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(g);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter, and return whether a thread was waiting. A
    /// thread counts as waiting from the moment it releases the lock in
    /// `wait` until it holds it again.
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        self.waiters.load(Ordering::SeqCst) > 0
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakeup() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut done = m.lock();
            *done = true;
            c.notify_all();
        });
        let (m, c) = &*pair;
        let mut done = m.lock();
        while !*done {
            c.wait(&mut done);
        }
        drop(done);
        h.join().unwrap();
    }

    #[test]
    fn notify_one_reports_whether_a_thread_was_waiting() {
        let c = Condvar::new();
        assert!(!c.notify_one());
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let res = c.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }
}
