//! The "Solve directly" algorithmic choice, with factor caching.
//!
//! The paper's tuned algorithms call the direct solver at the multigrid
//! base case and wherever the tuner decides a shortcut is cheaper. The
//! Cholesky factor of an operator's interior system depends only on the
//! grid size and the operator's content, so we factor once per
//! `(size, operator)` and reuse it across calls (LAPACK's `DPBSV`
//! refactors every call).
//!
//! "Once" holds under concurrency too: the factors live in a
//! [`SingleFlight`] keyed by `(size, operator)`. The first caller to
//! miss a key factors it and lands the factor; callers that arrive for
//! the same key meanwhile wait for that landing and share the factor,
//! while callers for other keys proceed in parallel.

use petamg_grid::Grid2d;
use petamg_linalg::LinalgError;
use petamg_problems::{OpDirect, StencilOp};
use petamg_runtime::{Role, SingleFlight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound on the number of factors a [`DirectSolverCache`]
/// retains. Factor memory grows as `O(N^1.5)` per entry, so an
/// unbounded cache shared across a serving workload would grow without
/// limit; 64 distinct `(size, operator)` pairs is far beyond what any
/// single tuning run or serving mix touches.
pub const DEFAULT_FACTOR_CAPACITY: usize = 64;

/// A thread-safe cache of band-Cholesky factors keyed by
/// `(size, operator content)`; constant-coefficient Poisson is one
/// operator among the families of `petamg-problems`.
///
/// The cache is **bounded**: it holds at most `capacity` factors
/// (default [`DEFAULT_FACTOR_CAPACITY`]) and evicts the
/// least-recently-used factor when full, so a long-running serving
/// process that touches many `(size, operator)` pairs cannot grow the
/// cache without limit. Eviction only drops the cache's reference —
/// outstanding `Arc`s held by in-flight solves stay valid.
pub struct DirectSolverCache {
    /// Keyed by `(n, StencilOp::cache_key())`.
    factors: SingleFlight<Arc<OpDirect>, (usize, u64)>,
    evictions: AtomicU64,
    factorizations: AtomicU64,
}

impl Default for DirectSolverCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FACTOR_CAPACITY)
    }
}

impl DirectSolverCache {
    /// Empty cache with the default capacity bound
    /// ([`DEFAULT_FACTOR_CAPACITY`] factors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache retaining at most `capacity` factors (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        DirectSolverCache {
            factors: SingleFlight::with_capacity(capacity),
            evictions: AtomicU64::new(0),
            factorizations: AtomicU64::new(0),
        }
    }

    /// How many factors have been evicted to honour the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// How many factorisations this cache has run, failed ones
    /// included: one per key, however many callers missed together,
    /// plus one per re-factor after an eviction or a failure. A key is
    /// an operator at a size, not a problem fingerprint: a plan whose
    /// recursion bottoms out in the n = 3 direct base case factors that
    /// too, so one fingerprint's first requests can count 2.
    pub fn factorizations(&self) -> u64 {
        self.factorizations.load(Ordering::Relaxed)
    }

    /// Get (or build) the factored solver for operator `op` on `n×n`
    /// grids.
    ///
    /// # Panics
    /// Panics if the operator fails to factor — impossible for the SPD
    /// operators `petamg-problems` produces.
    pub fn get_op(&self, n: usize, op: &StencilOp) -> Arc<OpDirect> {
        self.try_get_op(n, op)
            .expect("operator-family systems are SPD and must factor")
    }

    /// Fallible variant of [`DirectSolverCache::get_op`]: returns the
    /// factorization error instead of panicking, so callers on a
    /// degradation path (e.g. the guarded-solve ladder) can convert a
    /// failed factor into a typed failure. A fault-injection hook in
    /// `petamg-core` drives the error arm in chaos tests.
    ///
    /// Callers that miss the same key together share one factorisation.
    /// If it fails, nothing is cached: its caller gets the error, and
    /// each caller that waited on it factors again, so every one of
    /// them gets an error of its own.
    pub fn try_get_op(&self, n: usize, op: &StencilOp) -> Result<Arc<OpDirect>, LinalgError> {
        self.get_or_fill((n, op.cache_key()), || {
            self.factorizations.fetch_add(1, Ordering::Relaxed);
            OpDirect::new(op.clone(), n).map(Arc::new)
        })
    }

    /// [`DirectSolverCache::try_get_op`], except that a factor `donor`
    /// has already finished for the same key is filed here as it is
    /// instead of being factored again; adopting counts no
    /// factorisation. A tuner's cache is the donor when its plan goes
    /// into service.
    pub fn adopt_op(
        &self,
        n: usize,
        op: &StencilOp,
        donor: &DirectSolverCache,
    ) -> Result<Arc<OpDirect>, LinalgError> {
        let key = (n, op.cache_key());
        match donor.factors.get(&key) {
            Some(factor) => self.get_or_fill(key, || Ok(factor)),
            None => self.try_get_op(n, op),
        }
    }

    /// The factor under `key`, running `fill` for it when this caller
    /// leads the key's flight (see [`DirectSolverCache::try_get_op`]).
    fn get_or_fill(
        &self,
        key: (usize, u64),
        fill: impl FnOnce() -> Result<Arc<OpDirect>, LinalgError>,
    ) -> Result<Arc<OpDirect>, LinalgError> {
        loop {
            match self.factors.join(key) {
                Role::Follower(Some(factor)) => return Ok(factor),
                // The flight this caller waited on failed: go again.
                Role::Follower(None) => continue,
                // Factor outside the map lock, so first requests for
                // *other* keys don't serialize behind this one.
                Role::Leader(flight) => {
                    let factor = fill()?;
                    let evicted = flight.file(Arc::clone(&factor));
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    return Ok(factor);
                }
            }
        }
    }

    /// Solve `A x = b` for operator `op` via the cached factor
    /// (boundary-aware; see [`OpDirect::solve`]).
    pub fn solve_op(&self, x: &mut Grid2d, b: &Grid2d, op: &StencilOp) {
        self.get_op(x.n(), op).solve(x, b);
    }

    /// Pre-factor `op` at size `n`, so a later
    /// [`DirectSolverCache::solve_op`] pays no factorization inside a
    /// timed region.
    pub fn warm_op(&self, n: usize, op: &StencilOp) {
        let _ = self.get_op(n, op);
    }

    /// Number of factors currently cached.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_problems::Problem;

    /// One operator per `StencilOp` variant, bound to size `n`.
    fn mixed_ops(n: usize) -> [StencilOp; 3] {
        [
            StencilOp::Poisson,
            Problem::anisotropic(0.5).op_for(n),
            Problem::jump_inclusion(n).op_for(n),
        ]
    }

    #[test]
    fn cache_reuses_factor_per_size_and_operator() {
        let cache = DirectSolverCache::new();
        for (count, op) in mixed_ops(9).iter().enumerate() {
            let f1 = cache.get_op(9, op);
            let f2 = cache.get_op(9, op);
            assert!(Arc::ptr_eq(&f1, &f2));
            assert_eq!(cache.len(), count + 1);
        }
        let _ = cache.get_op(17, &StencilOp::Poisson);
        assert_eq!(cache.len(), 4);
    }

    /// `solve_op` and `get_op` are one lookup family over one map: a
    /// Poisson solve leaves the factor a later `get_op` hits.
    #[test]
    fn solve_op_and_get_op_share_one_poisson_factor() {
        let cache = DirectSolverCache::new();
        let b = Grid2d::from_fn(9, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let mut x1 = Grid2d::zeros(9);
        x1.set_boundary(|i, j| (i + j) as f64);
        let mut x2 = x1.clone();
        cache.solve_op(&mut x1, &b, &StencilOp::Poisson);
        let factor = cache.get_op(9, &StencilOp::Poisson);
        assert_eq!(cache.len(), 1);
        factor.solve(&mut x2, &b);
        assert_eq!(x1.as_slice(), x2.as_slice());
        cache.warm_op(9, &StencilOp::Poisson);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = DirectSolverCache::with_capacity(2);
        let [poisson, aniso, jump] = mixed_ops(9);
        let f_poisson = cache.get_op(9, &poisson);
        let _f_aniso = cache.get_op(9, &aniso);
        assert_eq!(cache.len(), 2);
        // Touch Poisson so aniso becomes the LRU victim, then insert a
        // third operator.
        let again = cache.get_op(9, &poisson);
        assert!(Arc::ptr_eq(&f_poisson, &again), "touch must not refactor");
        let f_jump = cache.get_op(9, &jump);
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.evictions(), 1);
        // Poisson (recently touched) and jump survived; aniso was
        // evicted and refactors.
        assert!(Arc::ptr_eq(&f_poisson, &cache.get_op(9, &poisson)));
        assert!(Arc::ptr_eq(&f_jump, &cache.get_op(9, &jump)));
        assert_eq!(cache.evictions(), 1);
        let _ = cache.get_op(9, &aniso);
        assert_eq!(cache.evictions(), 2);
    }

    /// Negative face weights: symmetric, consistent, not SPD.
    fn indefinite_op() -> StencilOp {
        StencilOp::ConstFive {
            cw: -1.0,
            ce: -1.0,
            cn: -1.0,
            cs: -1.0,
            cc: -4.0,
            inv_cc: -0.25,
        }
    }

    /// `threads` callers released together onto one cold key.
    fn race_on_one_key(
        cache: &DirectSolverCache,
        threads: usize,
        n: usize,
        op: &StencilOp,
    ) -> Vec<Result<Arc<OpDirect>, LinalgError>> {
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.try_get_op(n, op)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn failed_factorization_is_an_error_and_caches_nothing() {
        let cache = DirectSolverCache::new();
        assert!(cache.try_get_op(9, &indefinite_op()).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn raced_first_use_factors_once_and_shares_one_factor() {
        let cache = DirectSolverCache::new();
        let op = Problem::jump_inclusion(33).op_for(33);
        let got = race_on_one_key(&cache, 8, 33, &op);
        let first = got[0].as_ref().expect("SPD operator factors");
        for other in &got {
            assert!(Arc::ptr_eq(first, other.as_ref().unwrap()));
        }
        assert_eq!(cache.factorizations(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn raced_failure_reaches_every_waiter_and_the_next_call_retries() {
        let cache = DirectSolverCache::new();
        let op = indefinite_op();
        for got in race_on_one_key(&cache, 8, 33, &op) {
            assert_eq!(got.unwrap_err(), LinalgError::NotPositiveDefinite(0));
        }
        // The failed flight left nothing behind, so the key factors
        // (and fails) afresh instead of replaying a cached error.
        assert_eq!(cache.len(), 0);
        let before = cache.factorizations();
        assert!((1..=8).contains(&before));
        assert!(cache.try_get_op(33, &op).is_err());
        assert_eq!(cache.factorizations(), before + 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn adopting_files_the_donors_factor_and_counts_no_factorisation() {
        let [poisson, aniso, _] = mixed_ops(9);
        let donor = DirectSolverCache::new();
        let donated = donor.get_op(9, &aniso);
        let cache = DirectSolverCache::new();
        let adopted = cache.adopt_op(9, &aniso, &donor).unwrap();
        assert!(Arc::ptr_eq(&donated, &adopted));
        assert!(Arc::ptr_eq(&adopted, &cache.get_op(9, &aniso)));
        assert_eq!(cache.factorizations(), 0);
        // A key the donor never factored is factored here.
        cache.adopt_op(9, &poisson, &donor).unwrap();
        assert_eq!((cache.factorizations(), cache.len()), (1, 2));
    }

    #[test]
    fn evicted_factors_stay_usable_through_outstanding_arcs() {
        let cache = DirectSolverCache::with_capacity(1);
        let [_, aniso, jump] = mixed_ops(9);
        let held = cache.get_op(9, &aniso);
        let _ = cache.get_op(9, &jump); // evicts aniso from the cache
        assert_eq!(cache.len(), 1);
        // The Arc we hold is unaffected by eviction.
        let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
        let mut x = Grid2d::zeros(9);
        held.solve(&mut x, &b);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn concurrent_first_use_is_safe_and_factors_each_key_once() {
        let cache = Arc::new(DirectSolverCache::new());
        let ops = mixed_ops(9);
        let firsts: Vec<Arc<OpDirect>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let op = &ops[t % 3];
                    s.spawn(move || {
                        let b = Grid2d::from_fn(9, |i, j| (i + j + t) as f64);
                        let mut x = Grid2d::zeros(9);
                        for _ in 0..10 {
                            cache.solve_op(&mut x, &b, op);
                        }
                        cache.get_op(9, op)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.factorizations(), 3);
        // Threads racing on one key end up sharing one factor.
        for t in 0..3 {
            assert!(Arc::ptr_eq(&firsts[t], &firsts[t + 3]));
        }
    }
}
