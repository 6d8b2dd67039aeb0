//! Execution policies for grid sweeps.
//!
//! The PetaBricks compiler decides, per rule, whether to run data-parallel
//! sweeps sequentially or across the runtime's work-stealing pool (with a
//! tunable block size). [`Exec`] reifies that decision so every kernel in
//! this workspace can be driven sequentially (deterministic, used in
//! tests and modeled-cost tuning) or on the in-house pool.
//!
//! Alongside the scheduling backend, every policy carries the resolved
//! [`SimdMode`] for the row kernels — the scalar-vs-vector execution
//! path (see [`crate::simd`]). Stencil results are bitwise identical in
//! either mode, so the mode (like the grain, band, and thread count) is
//! a pure performance knob.

use crate::simd::{SimdMode, SimdPolicy};
use petamg_runtime::ThreadPool;
use std::sync::Arc;

/// Default number of rows each parallel task processes before splitting
/// stops. Row sweeps on an `N×N` grid do `O(N)` work per row, so a small
/// grain already amortizes scheduling overhead.
pub const DEFAULT_ROW_GRAIN: usize = 8;

/// Default number of rows per block-cursor band (see
/// [`Exec::for_row_bands`]). Sized so a band of `f64` rows plus its
/// three-row stencil window stays cache-resident on typical L2 sizes
/// while still exposing enough bands to balance load.
pub const DEFAULT_BAND_ROWS: usize = 32;

/// The scheduling backend of an [`Exec`] policy.
#[derive(Clone)]
enum Backend {
    /// Plain sequential loops. Bit-deterministic.
    Seq,
    /// The `petamg-runtime` work-stealing pool (the PetaBricks runtime
    /// stand-in), splitting row ranges down to `grain` rows and
    /// block-cursor sweeps into `band`-row bands.
    Pbrt {
        pool: Arc<ThreadPool>,
        grain: usize,
        band: usize,
    },
}

/// How a grid sweep is executed: a scheduling backend (sequential or the
/// in-house pool) plus the resolved SIMD mode for the row kernels.
#[derive(Clone)]
pub struct Exec {
    backend: Backend,
    simd: SimdMode,
}

impl std::fmt::Debug for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let simd = self.simd.name();
        match &self.backend {
            Backend::Seq => write!(f, "Exec::Seq(simd={simd})"),
            Backend::Pbrt { pool, grain, band } => write!(
                f,
                "Exec::Pbrt(threads={}, grain={grain}, band={band}, simd={simd})",
                pool.num_threads(),
            ),
        }
    }
}

impl Exec {
    fn with_backend(backend: Backend) -> Self {
        Exec {
            backend,
            simd: SimdPolicy::Auto.resolve(),
        }
    }

    /// Sequential execution.
    pub fn seq() -> Self {
        Exec::with_backend(Backend::Seq)
    }

    /// A fresh work-stealing pool with `threads` workers and the default
    /// row grain and band height.
    pub fn pbrt(threads: usize) -> Self {
        Exec::with_backend(Backend::Pbrt {
            pool: Arc::new(ThreadPool::new(threads)),
            grain: DEFAULT_ROW_GRAIN,
            band: DEFAULT_BAND_ROWS,
        })
    }

    /// Whether this policy runs sequentially.
    pub fn is_seq(&self) -> bool {
        matches!(self.backend, Backend::Seq)
    }

    /// Number of threads this policy can use.
    pub fn threads(&self) -> usize {
        match &self.backend {
            Backend::Seq => 1,
            Backend::Pbrt { pool, .. } => pool.num_threads(),
        }
    }

    /// Replace the grain size (no-op for `Seq`).
    pub fn with_grain(mut self, grain: usize) -> Self {
        match &mut self.backend {
            Backend::Seq => {}
            Backend::Pbrt { grain: g, .. } => *g = grain.max(1),
        }
        self
    }

    /// The row grain of [`Exec::for_rows`] sweeps, or `None` for `Seq`.
    pub fn grain(&self) -> Option<usize> {
        match &self.backend {
            Backend::Seq => None,
            Backend::Pbrt { grain, .. } => Some(*grain),
        }
    }

    /// Replace the block-cursor band height (no-op for `Seq`, which
    /// always runs one band spanning the whole range). A band height of
    /// 1 degenerates to one task per row — the pre-block-cursor
    /// behaviour, kept reachable as the tuner's baseline.
    pub fn with_band(mut self, band: usize) -> Self {
        match &mut self.backend {
            Backend::Seq => {}
            Backend::Pbrt { band: b, .. } => *b = band.max(1),
        }
        self
    }

    /// The band height [`Exec::for_row_bands`] splits at, or `None` for
    /// `Seq` (one band spanning the whole range).
    pub fn band(&self) -> Option<usize> {
        match &self.backend {
            Backend::Seq => None,
            Backend::Pbrt { band, .. } => Some(*band),
        }
    }

    /// Resolve `policy` against the running machine and carry the
    /// result: every row kernel driven by this policy takes the scalar
    /// or vector path accordingly. Works on every backend, including
    /// `Seq`.
    pub fn with_simd(mut self, policy: SimdPolicy) -> Self {
        self.simd = policy.resolve();
        self
    }

    /// The resolved SIMD mode row kernels run under.
    pub fn simd(&self) -> SimdMode {
        self.simd
    }

    /// Block-cursor sweep: partition `lo..hi` into contiguous bands of
    /// at most [`Exec::band`] rows and run `body(band_lo, band_hi)` once
    /// per band — in parallel across bands, strictly ascending within a
    /// band.
    ///
    /// This is the execution shape for kernels that carry a **rolling
    /// window** (e.g. three residual rows shared by adjacent coarse
    /// rows): the window lives for a whole band, so the sequential
    /// reuse pattern survives parallel execution and only the band
    /// boundaries pay a window re-prime. `Seq` runs one band covering
    /// the entire range; bands partition `lo..hi` exactly, each
    /// non-empty, and `body` must tolerate any execution order *across*
    /// bands.
    #[inline]
    pub fn for_row_bands<F>(&self, lo: usize, hi: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if hi <= lo {
            return;
        }
        let len = hi - lo;
        match &self.backend {
            Backend::Seq => body(lo, hi),
            Backend::Pbrt { pool, band, .. } => {
                let band = (*band).max(1);
                let nbands = len.div_ceil(band);
                if nbands <= 1 {
                    body(lo, hi);
                } else {
                    pool.parallel_for(nbands, 1, |k| {
                        let b_lo = lo + k * band;
                        body(b_lo, (b_lo + band).min(hi));
                    });
                }
            }
        }
    }

    /// Run `body(i)` for each `i` in `lo..hi` (typically a row index).
    /// `body` must tolerate any execution order across indices.
    #[inline]
    pub fn for_rows<F>(&self, lo: usize, hi: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if hi <= lo {
            return;
        }
        match &self.backend {
            Backend::Seq => {
                for i in lo..hi {
                    body(i);
                }
            }
            Backend::Pbrt { pool, grain, .. } => {
                let len = hi - lo;
                // Skip pool dispatch entirely for sweeps smaller than one
                // grain: coarse multigrid levels live here.
                if len <= *grain {
                    for i in lo..hi {
                        body(i);
                    }
                } else {
                    pool.parallel_for(len, *grain, |i| body(lo + i));
                }
            }
        }
    }

    /// Fold `f(i)` over `lo..hi` and combine with `+`. The parallel
    /// reduction tree is deterministic for a fixed policy and grain.
    #[inline]
    pub fn sum_rows<F>(&self, lo: usize, hi: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        if hi <= lo {
            return 0.0;
        }
        match &self.backend {
            Backend::Seq => (lo..hi).map(f).sum(),
            Backend::Pbrt { pool, grain, .. } => {
                let len = hi - lo;
                if len <= *grain {
                    (lo..hi).map(f).sum()
                } else {
                    pool.install(|| {
                        petamg_runtime::parallel_for_reduce_sum(len, *grain, &|i| f(lo + i))
                    })
                }
            }
        }
    }

    /// Fold `f(i)` over `lo..hi` and combine with `max`.
    #[inline]
    pub fn max_rows<F>(&self, lo: usize, hi: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        if hi <= lo {
            return f64::NEG_INFINITY;
        }
        match &self.backend {
            Backend::Seq => (lo..hi).map(f).fold(f64::NEG_INFINITY, f64::max),
            Backend::Pbrt { pool, grain, .. } => {
                let len = hi - lo;
                if len <= *grain {
                    (lo..hi).map(f).fold(f64::NEG_INFINITY, f64::max)
                } else {
                    pool.install(|| {
                        petamg_runtime::parallel_for_reduce_max(len, *grain, &|i| f(lo + i))
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn policies() -> Vec<Exec> {
        vec![Exec::seq(), Exec::pbrt(2), Exec::pbrt(3)]
    }

    #[test]
    fn for_rows_covers_range_once() {
        for exec in policies() {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            exec.for_rows(5, 95, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                let expected = usize::from((5..95).contains(&i));
                assert_eq!(h.load(Ordering::Relaxed), expected, "index {i} ({exec:?})");
            }
        }
    }

    #[test]
    fn empty_range_is_noop() {
        for exec in policies() {
            exec.for_rows(5, 5, |_| panic!("must not run"));
            exec.for_rows(7, 3, |_| panic!("must not run"));
            assert_eq!(exec.sum_rows(5, 5, |_| 1.0), 0.0);
        }
    }

    #[test]
    fn sum_rows_matches_sequential() {
        let reference: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
        for exec in policies() {
            let s = exec.sum_rows(0, 1000, |i| (i as f64).sqrt());
            assert!(
                (s - reference).abs() < 1e-9 * reference.abs(),
                "{exec:?}: {s} vs {reference}"
            );
        }
    }

    #[test]
    fn max_rows_matches_sequential() {
        let vals: Vec<f64> = (0..500).map(|i| ((i * 7919) % 1000) as f64).collect();
        let reference = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for exec in policies() {
            let m = exec.max_rows(0, vals.len(), |i| vals[i]);
            assert_eq!(m, reference, "{exec:?}");
        }
    }

    #[test]
    fn pbrt_sum_is_deterministic() {
        let exec = Exec::pbrt(3);
        let run = || exec.sum_rows(0, 4096, |i| 1.0 / (1.0 + i as f64));
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn with_grain_clamps_to_one() {
        let exec = Exec::pbrt(2).with_grain(0);
        assert_eq!(exec.grain(), Some(1));
        assert_eq!(Exec::seq().grain(), None);
    }

    #[test]
    fn threads_reporting() {
        assert_eq!(Exec::seq().threads(), 1);
        assert_eq!(Exec::pbrt(3).threads(), 3);
    }

    #[test]
    fn simd_mode_is_carried_and_defaults_to_auto() {
        for exec in policies() {
            assert_eq!(exec.simd(), SimdPolicy::Auto.resolve(), "{exec:?}");
            assert_eq!(
                exec.clone().with_simd(SimdPolicy::Scalar).simd(),
                SimdMode::Scalar
            );
            assert_eq!(
                exec.clone().with_simd(SimdPolicy::Vector).simd(),
                SimdMode::Vector
            );
            // Scheduling knobs leave the mode alone.
            assert_eq!(
                exec.with_simd(SimdPolicy::Vector)
                    .with_grain(3)
                    .with_band(9)
                    .simd(),
                SimdMode::Vector
            );
        }
    }

    #[test]
    fn bands_partition_range_exactly() {
        for exec in [
            Exec::seq(),
            Exec::pbrt(2).with_band(1),
            Exec::pbrt(2).with_band(7),
            Exec::pbrt(3).with_band(64),
            Exec::pbrt(3).with_band(5),
        ] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            exec.for_row_bands(3, 97, |b_lo, b_hi| {
                assert!(b_lo < b_hi, "bands must be non-empty ({exec:?})");
                if let Some(band) = exec.band() {
                    assert!(b_hi - b_lo <= band, "band too tall ({exec:?})");
                }
                for h in &hits[b_lo..b_hi] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                let expected = usize::from((3..97).contains(&i));
                assert_eq!(h.load(Ordering::Relaxed), expected, "index {i} ({exec:?})");
            }
        }
    }

    #[test]
    fn seq_runs_a_single_band() {
        let bands = AtomicUsize::new(0);
        Exec::seq().for_row_bands(1, 50, |lo, hi| {
            assert_eq!((lo, hi), (1, 50));
            bands.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(bands.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_band_range_is_noop() {
        for exec in policies() {
            exec.for_row_bands(5, 5, |_, _| panic!("must not run"));
            exec.for_row_bands(9, 2, |_, _| panic!("must not run"));
        }
    }

    #[test]
    fn with_band_clamps_to_one_and_reports() {
        let exec = Exec::pbrt(2).with_band(0);
        assert_eq!(exec.band(), Some(1));
        assert_eq!(Exec::seq().band(), None);
        // Grain and band are independent knobs.
        let exec = Exec::pbrt(2).with_grain(3).with_band(17);
        assert_eq!(exec.grain(), Some(3));
        assert_eq!(exec.band(), Some(17));
    }
}
