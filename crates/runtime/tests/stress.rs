//! Stress and failure-injection tests for the work-stealing runtime.

use petamg_runtime::{
    current_worker_index, join, parallel_for, parallel_for_reduce_sum, ThreadPool,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn pool_survives_repeated_panics() {
    let pool = ThreadPool::new(2);
    for round in 0..20 {
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                if round % 2 == 0 {
                    join(|| panic!("a{round}"), || 1)
                } else {
                    join(|| 1, || panic!("b{round}"))
                }
            })
        }));
        assert!(res.is_err());
        // Pool still functional after each panic.
        assert_eq!(pool.install(|| 7 * round), 7 * round);
    }
}

#[test]
fn deep_nesting_does_not_deadlock() {
    let pool = ThreadPool::new(2);
    fn nest(depth: usize) -> usize {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join(|| nest(depth - 1), || nest(depth - 1));
        a + b
    }
    let total = pool.install(|| nest(10));
    assert_eq!(total, 1 << 10);
}

#[test]
fn parallel_for_panic_propagates_and_pool_survives() {
    let pool = ThreadPool::new(2);
    let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            parallel_for(1000, 8, &|i| {
                if i == 613 {
                    panic!("injected failure at {i}");
                }
            })
        })
    }));
    assert!(res.is_err());
    // Other indices may or may not have run; the pool must still work.
    let hits = AtomicUsize::new(0);
    pool.install(|| {
        parallel_for(100, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert_eq!(hits.load(Ordering::Relaxed), 100);
}

#[test]
fn many_pools_coexist() {
    let pools: Vec<_> = (1..=4).map(ThreadPool::new).collect();
    std::thread::scope(|s| {
        for (i, pool) in pools.iter().enumerate() {
            s.spawn(move || {
                let sum = pool.install(|| parallel_for_reduce_sum(10_000, 64, &|j| j as f64));
                assert_eq!(sum, (0..10_000u64).sum::<u64>() as f64, "pool {i}");
            });
        }
    });
}

#[test]
fn work_actually_distributes_across_threads() {
    let pool = ThreadPool::new(4);
    let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
    let started_elsewhere =
        |me: usize| (0..4).any(|w| w != me && seen[w].load(Ordering::Acquire) > 0);
    pool.install(|| {
        parallel_for(4_000, 1, &|_| {
            let idx = current_worker_index().expect("runs on a worker");
            // The first task on each worker holds it until a task has
            // started on another worker, so a thief always gets to steal
            // before one worker drains the whole range. Bounded, so a
            // scheduler that never distributes fails the assertion below
            // rather than hanging.
            if seen[idx].fetch_add(1, Ordering::AcqRel) == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !started_elsewhere(idx) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            std::hint::black_box((0..100).sum::<usize>());
        })
    });
    let active = seen
        .iter()
        .filter(|c| c.load(Ordering::Relaxed) > 0)
        .count();
    assert!(
        active >= 2,
        "expected at least 2 workers to participate, got {active}"
    );
    let total: usize = seen.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total, 4_000);
}

#[test]
fn reduce_stays_deterministic_under_contention() {
    let pool = ThreadPool::new(4);
    let run = || pool.install(|| parallel_for_reduce_sum(100_000, 128, &|i| (i as f64).sqrt()));
    let first = run();
    for _ in 0..5 {
        assert_eq!(first.to_bits(), run().to_bits());
    }
}
