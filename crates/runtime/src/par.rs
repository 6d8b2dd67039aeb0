//! Grain-controlled parallel loops built from `join` by recursive range
//! splitting — the shape the PetaBricks compiler generates for data
//! parallel rules (block sizes being one of its tunable parameters).

use crate::join;

/// Run `body(i)` for every `i in 0..len`, splitting the index space in
/// half recursively until blocks are at most `grain` long.
///
/// `grain` trades scheduling overhead against load balance; it maps onto
/// the PetaBricks "block size" tunable. A `grain` of zero is treated as 1.
pub fn parallel_for<F>(len: usize, grain: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_range(0, len, grain.max(1), body);
}

fn parallel_for_range<F>(lo: usize, hi: usize, grain: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    if hi - lo <= grain {
        for i in lo..hi {
            body(i);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(
        || parallel_for_range(lo, mid, grain, body),
        || parallel_for_range(mid, hi, grain, body),
    );
}

/// Parallel fold + reduce over `0..len`: each block folds locally with
/// `fold`, block results combine with `reduce`. Deterministic shape
/// (the reduction tree mirrors the splitting tree), so floating-point
/// reductions are reproducible run-to-run for a fixed `grain`.
fn parallel_reduce<T, F, R>(len: usize, grain: usize, identity: T, fold: &F, reduce: &R) -> T
where
    T: Send + Sync + Clone,
    F: Fn(T, usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    parallel_reduce_range(0, len, grain.max(1), &identity, fold, reduce)
}

fn parallel_reduce_range<T, F, R>(
    lo: usize,
    hi: usize,
    grain: usize,
    identity: &T,
    fold: &F,
    reduce: &R,
) -> T
where
    T: Send + Sync + Clone,
    F: Fn(T, usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    if hi - lo <= grain {
        let mut acc = identity.clone();
        for i in lo..hi {
            acc = fold(acc, i);
        }
        return acc;
    }
    let mid = lo + (hi - lo) / 2;
    let (left, right) = join(
        || parallel_reduce_range(lo, mid, grain, identity, fold, reduce),
        || parallel_reduce_range(mid, hi, grain, identity, fold, reduce),
    );
    reduce(left, right)
}

/// Sum `f(i)` over `0..len` with a deterministic reduction tree.
pub fn parallel_for_reduce_sum<F>(len: usize, grain: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    parallel_reduce(len, grain, 0.0f64, &|acc, i| acc + f(i), &|a, b| a + b)
}

/// Max of `f(i)` over `0..len` (NEG_INFINITY for the empty range).
pub fn parallel_for_reduce_max<F>(len: usize, grain: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    parallel_reduce(
        len,
        grain,
        f64::NEG_INFINITY,
        &|acc: f64, i| acc.max(f(i)),
        &|a, b| a.max(b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            parallel_for(1000, 16, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_and_tiny() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            parallel_for(0, 8, &|_| panic!("must not be called"));
            let hit = AtomicUsize::new(0);
            parallel_for(1, 8, &|i| {
                assert_eq!(i, 0);
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hit.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn parallel_reduce_sums_correctly() {
        let pool = ThreadPool::new(2);
        let total = pool
            .install(|| parallel_reduce(10_001, 64, 0u64, &|acc, i| acc + i as u64, &|a, b| a + b));
        assert_eq!(total, (0..10_001u64).sum::<u64>());
    }

    #[test]
    fn parallel_reduce_deterministic_shape() {
        // Floating point: same grain -> bit-identical result across runs.
        let pool = ThreadPool::new(4);
        let run = || {
            pool.install(|| {
                parallel_reduce(
                    4096,
                    32,
                    0.0f64,
                    &|acc, i| acc + 1.0 / (1.0 + i as f64),
                    &|a, b| a + b,
                )
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn grain_zero_is_sanitized() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.install(|| {
            parallel_for(10, 0, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }
}
