//! Request-phase spans: a preallocated ring of timing records.
//!
//! Spans are the narrative counterpart of histograms: where a
//! histogram says "queue waits are mostly under 8 µs", a span says
//! "*this* request waited 6 µs, resolved its plan from the cache in
//! 2 µs, and solved on rung 0 for 1.4 ms on worker 3". The ring is
//! sized at construction and overwritten in place once full, so the
//! record path never allocates in steady state; all strings are
//! `&'static str` so there is nothing to allocate per record either.
//!
//! Recording is the caller's responsibility to gate (on
//! [`crate::trace_enabled`]) — the ring itself is mode-agnostic so
//! tests can drive it directly.

use parking_lot_free::Mutex;

/// The obs crate stays a leaf (serde shims only), so it uses std's
/// mutex under a thin non-poisoning wrapper rather than pulling in the
/// `parking_lot` shim.
mod parking_lot_free {
    /// Non-poisoning wrapper over [`std::sync::Mutex`].
    pub(super) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub(super) const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        pub(super) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }
}

/// One completed phase of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`"queue_wait"`, `"plan_resolve"`, `"solve"`, ...).
    pub name: &'static str,
    /// Category for trace viewers (`"serve"`, `"solve"`, ...).
    pub cat: &'static str,
    /// A static qualifier: plan source, serving rung, ... (`""` when
    /// there is nothing to say).
    pub detail: &'static str,
    /// Start, microseconds since the process epoch ([`crate::now_us`]).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Dense thread index of the recording thread
    /// (`crate::thread_index`).
    pub tid: u64,
}

struct RingInner {
    /// Preallocated to capacity; pushes past capacity overwrite the
    /// oldest record at `next`.
    buf: Vec<SpanRecord>,
    next: usize,
}

/// A bounded ring of span records. Recording past capacity overwrites
/// the oldest spans, so a long-running service holds the most recent
/// window of activity without unbounded growth — and without
/// steady-state allocation.
pub struct SpanRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl SpanRing {
    /// A ring holding up to `capacity` spans (≥ 1), fully preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing {
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                next: 0,
            }),
            capacity,
        }
    }

    /// Record one span. Never allocates: the buffer was preallocated
    /// to capacity and overwrites wrap in place.
    pub fn record(&self, span: SpanRecord) {
        let mut inner = self.inner.lock();
        if inner.buf.len() < self.capacity {
            inner.buf.push(span);
        } else {
            let at = inner.next;
            inner.buf[at] = span;
            inner.next = (at + 1) % self.capacity;
        }
    }

    /// Convenience: record a span that started at `start_us` and ends
    /// now, on the calling thread.
    pub fn record_since(
        &self,
        name: &'static str,
        cat: &'static str,
        detail: &'static str,
        start_us: u64,
    ) {
        let end = crate::now_us();
        self.record(SpanRecord {
            name,
            cat,
            detail,
            start_us,
            dur_us: end.saturating_sub(start_us),
            tid: crate::thread_index(),
        });
    }

    /// Copy out the retained spans in chronological order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.buf.len());
        // Oldest first: the ring's tail starts at `next` once wrapped.
        out.extend_from_slice(&inner.buf[inner.next..]);
        out.extend_from_slice(&inner.buf[..inner.next]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64) -> SpanRecord {
        SpanRecord {
            name: "phase",
            cat: "test",
            detail: "",
            start_us,
            dur_us: 1,
            tid: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_past_capacity() {
        let ring = SpanRing::with_capacity(3);
        for t in 0..5 {
            ring.record(span(t));
        }
        let starts: Vec<u64> = ring.spans().iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest two overwritten, order kept");
    }
}
