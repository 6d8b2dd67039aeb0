//! Steady-state allocation guarantees, enforced with a counting
//! global allocator.
//!
//! The telemetry contract is that the *record* paths — counter bumps,
//! histogram samples, span writes into a pre-sized ring — are safe to
//! leave in a serving hot loop: after first-touch warmup (the TLS
//! thread index, lazy ring growth to capacity) they perform zero heap
//! allocations. All allocation is deferred to *snapshot* time, which
//! the operator calls off the hot path. This test pins both halves.
//!
//! Allocations are counted **per thread**: the harness runs these
//! tests on parallel threads (and allocates on its own), so a
//! process-wide count would test the scheduler, not the guarantee.

use petamg_obs::{Counter, Gauge, Histogram, Registry, SpanRecord, SpanRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown must not panic
    // inside the allocator.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the only addition
// is a bump of a plain thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performs while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn record_paths_are_allocation_free_after_warmup() {
    let registry = Registry::new();
    let requests = registry.counter("petamg_requests_total", &[]);
    let in_flight = registry.gauge("petamg_in_flight", &[]);
    let latency = registry.histogram("petamg_queue_wait_seconds", &[("rung", "tuned")]);
    let spans = SpanRing::with_capacity(64);

    let span_at = |start_us: u64| SpanRecord {
        name: "solve",
        cat: "serve",
        detail: "rung=tuned",
        start_us,
        dur_us: 12,
        tid: 0,
    };

    // Warmup: touch the TLS thread index, fill the span ring past its
    // capacity so subsequent records overwrite in place.
    latency.record_ns(1);
    for i in 0..70 {
        spans.record(span_at(i));
    }

    let steady = allocations_during(|| {
        for i in 0..10_000u64 {
            requests.inc();
            in_flight.set(i % 7);
            latency.record_ns(i * 37);
            spans.record(span_at(i));
        }
    });
    assert_eq!(
        steady, 0,
        "counter/gauge/histogram/span record paths must not allocate \
         in steady state ({steady} allocations observed)"
    );
}

#[test]
fn snapshot_is_where_the_allocation_lives() {
    let registry = Registry::new();
    registry.counter("petamg_requests_total", &[]).add(3);
    registry
        .histogram("petamg_solve_seconds", &[])
        .record_ns(1_000);

    let during_snapshot = allocations_during(|| {
        let snap = registry.snapshot();
        assert_eq!(snap.counter("petamg_requests_total", &[]), 3);
    });
    assert!(
        during_snapshot > 0,
        "snapshot assembles owned samples, so it must allocate"
    );
}

#[test]
fn detached_handles_record_without_allocating() {
    let c = Counter::detached();
    let g = Gauge::detached();
    let h = Histogram::new();
    h.record_ns(1); // TLS warmup
    let steady = allocations_during(|| {
        for i in 0..1_000u64 {
            c.add(2);
            g.set(i);
            h.record_seconds(1e-6);
        }
    });
    assert_eq!(steady, 0, "detached handles allocate nothing per record");
}
