//! The level-workspace arena: reusable per-level scratch grids and row
//! buffers.
//!
//! Every multigrid cycle needs coarse-grid scratch (`b_c`, `e_c`) at
//! every recursion level, and the fused kernels need three-row residual
//! buffers. Allocating those fresh per cycle puts the allocator in the
//! hot path and dominates measured cost on small grids — exactly the
//! noise an empirical autotuner must not measure. A [`Workspace`] owns
//! pools of grids (keyed by side length) and row buffers (keyed by
//! length); steady-state V/W/FMG cycles and tuner training runs acquire
//! from the pools and perform **zero** heap allocations once warm.
//!
//! [`Workspace::stats`] exposes allocation/reuse counters so tests can
//! assert the zero-allocation property directly.

use crate::Grid2d;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache-line alignment of every pooled row buffer: vector loads on
/// leased scratch start on a 64-byte boundary, so a four-lane `f64`
/// load at the buffer base never straddles cache lines. (Grid leases
/// keep `Vec`-backed storage: stencil rows have odd lengths, so their
/// row bases are unaligned regardless of the allocation base, and the
/// vector kernels use unaligned loads throughout.)
pub(crate) const BUFFER_ALIGN: usize = 64;

/// A heap allocation of `f64`s aligned to [`BUFFER_ALIGN`] bytes — the
/// storage behind pooled row buffers. `Vec<f64>` only guarantees
/// 8-byte alignment, so the arena owns its allocations directly.
struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedBuf exclusively owns its allocation; moving it across
// threads moves ownership exactly like Vec<f64>.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len * std::mem::size_of::<f64>(), BUFFER_ALIGN)
            .expect("buffer layout fits isize")
    }

    /// A zero-filled aligned allocation of `len` values.
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf {
                ptr: NonNull::<f64>::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: len > 0, so the layout has non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) } as *mut f64;
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        AlignedBuf { ptr, len }
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        // SAFETY: ptr/len describe this allocation (or a dangling,
        // well-aligned pointer with len 0, which is a valid empty
        // slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: exclusively owned; see Deref.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed` with exactly this layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
        }
    }
}

/// Monotonic counters describing pool behaviour since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Fresh heap allocations performed (pool misses).
    pub allocations: u64,
    /// Acquisitions served from the pool (pool hits).
    pub reuses: u64,
}

#[derive(Default)]
struct Pools {
    /// Scratch grids keyed by side length `n`.
    grids: HashMap<usize, Vec<Grid2d>>,
    /// Scratch row buffers keyed by length (64-byte-aligned storage).
    buffers: HashMap<usize, Vec<AlignedBuf>>,
}

/// A pool of reusable scratch grids and row buffers.
///
/// Thread-safe: acquisitions lock briefly to pop from the pool; the
/// leased storage itself is exclusively owned until dropped, when it
/// returns to the pool.
///
/// The leasing model: [`Workspace::acquire`] hands out an exclusively
/// owned [`GridLease`] (deref to [`Grid2d`]); dropping the lease
/// returns the storage to the pool, so the second acquisition of any
/// size is allocation-free:
///
/// ```
/// use petamg_grid::Workspace;
///
/// let ws = Workspace::new();
/// {
///     let mut g = ws.acquire(9); // zeroed 9×9 scratch grid
///     g.set(4, 4, 1.0);
/// } // lease drops here → the grid returns to the pool
/// let g2 = ws.acquire(9); // pool hit: reused, re-zeroed, no allocation
/// assert_eq!(g2.at(4, 4), 0.0);
/// assert_eq!(ws.stats().allocations, 1);
/// assert_eq!(ws.stats().reuses, 1);
/// ```
#[derive(Default)]
pub struct Workspace {
    pools: Mutex<Pools>,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease an all-zero `n`×`n` grid, reusing pooled storage when
    /// available. The lease returns the grid to the pool on drop.
    pub fn acquire(&self, n: usize) -> GridLease<'_> {
        let pooled = lock(&self.pools).grids.get_mut(&n).and_then(Vec::pop);
        let grid = match pooled {
            Some(mut g) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                g.fill_zero();
                g
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Grid2d::zeros(n)
            }
        };
        GridLease {
            ws: self,
            grid: Some(grid),
        }
    }

    /// Lease an `n`×`n` grid **without** clearing pooled contents (fresh
    /// allocations are still zeroed). For scratch that is fully
    /// overwritten before any read — e.g. the guarded solver's restore
    /// snapshot, which `copy_from` fills immediately — the zeroing of
    /// [`Workspace::acquire`] would be a dead memset.
    pub fn acquire_unzeroed(&self, n: usize) -> GridLease<'_> {
        let pooled = lock(&self.pools).grids.get_mut(&n).and_then(Vec::pop);
        let grid = match pooled {
            Some(g) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                g
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Grid2d::zeros(n)
            }
        };
        GridLease {
            ws: self,
            grid: Some(grid),
        }
    }

    /// Lease a row buffer of `len` values **without** clearing pooled
    /// contents (fresh allocations are still zeroed). For kernels that
    /// overwrite every position they later read — e.g. the fused
    /// residual rows — zeroing would be a dead memset on the hot path.
    pub fn acquire_buffer_unzeroed(&self, len: usize) -> BufferLease<'_> {
        let pooled = lock(&self.pools).buffers.get_mut(&len).and_then(Vec::pop);
        let buf = match pooled {
            Some(b) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                AlignedBuf::zeroed(len)
            }
        };
        BufferLease {
            ws: self,
            buf: Some(buf),
        }
    }

    /// Allocation/reuse counters so far.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }

    fn release_grid(&self, grid: Grid2d) {
        lock(&self.pools)
            .grids
            .entry(grid.n())
            .or_default()
            .push(grid);
    }

    fn release_buffer(&self, buf: AlignedBuf) {
        lock(&self.pools)
            .buffers
            .entry(buf.len())
            .or_default()
            .push(buf);
    }
}

fn lock(m: &Mutex<Pools>) -> std::sync::MutexGuard<'_, Pools> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An exclusively-owned scratch grid; returns to its [`Workspace`] on
/// drop.
pub struct GridLease<'a> {
    ws: &'a Workspace,
    grid: Option<Grid2d>,
}

impl Deref for GridLease<'_> {
    type Target = Grid2d;
    fn deref(&self) -> &Grid2d {
        self.grid.as_ref().expect("grid present until drop")
    }
}

impl DerefMut for GridLease<'_> {
    fn deref_mut(&mut self) -> &mut Grid2d {
        self.grid.as_mut().expect("grid present until drop")
    }
}

impl Drop for GridLease<'_> {
    fn drop(&mut self) {
        if let Some(g) = self.grid.take() {
            self.ws.release_grid(g);
        }
    }
}

/// An exclusively-owned scratch row buffer; returns to its
/// [`Workspace`] on drop.
pub struct BufferLease<'a> {
    ws: &'a Workspace,
    buf: Option<AlignedBuf>,
}

impl Deref for BufferLease<'_> {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for BufferLease<'_> {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for BufferLease<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.buf.take() {
            self.ws.release_buffer(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_released_grids() {
        let ws = Workspace::new();
        {
            let _a = ws.acquire(9);
            let _b = ws.acquire(9);
        }
        assert_eq!(
            ws.stats(),
            WorkspaceStats {
                allocations: 2,
                reuses: 0
            }
        );
        {
            let _a = ws.acquire(9);
            let _b = ws.acquire(9);
            let _c = ws.acquire(9); // pool only has two
        }
        assert_eq!(
            ws.stats(),
            WorkspaceStats {
                allocations: 3,
                reuses: 2
            }
        );
    }

    #[test]
    fn leased_grids_are_zeroed() {
        let ws = Workspace::new();
        {
            let mut g = ws.acquire(5);
            g.set(2, 2, 7.0);
            g.set(0, 0, -3.0);
        }
        let g = ws.acquire(5);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn distinct_sizes_pool_separately() {
        let ws = Workspace::new();
        {
            let _a = ws.acquire(5);
        }
        {
            let _b = ws.acquire(9);
        }
        assert_eq!(ws.stats().allocations, 2);
        {
            let _a = ws.acquire(5);
            let _b = ws.acquire(9);
        }
        assert_eq!(ws.stats().allocations, 2);
        assert_eq!(ws.stats().reuses, 2);
    }

    #[test]
    fn unzeroed_buffers_skip_the_clear_but_still_pool() {
        let ws = Workspace::new();
        {
            let mut b = ws.acquire_buffer_unzeroed(8);
            b[2] = 5.0;
        }
        {
            let b = ws.acquire_buffer_unzeroed(8);
            assert_eq!(b.len(), 8);
            assert_eq!(b[2], 5.0, "stale pool contents are kept");
        }
        assert_eq!(ws.stats().reuses, 1);
        // A fresh unzeroed allocation still starts zeroed.
        let b = ws.acquire_buffer_unzeroed(16);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unzeroed_grids_skip_the_clear_but_still_pool() {
        let ws = Workspace::new();
        {
            let mut g = ws.acquire(5);
            g.set(2, 2, 7.0);
        }
        {
            let g = ws.acquire_unzeroed(5);
            assert_eq!(g.at(2, 2), 7.0, "stale pool contents are kept");
        }
        assert_eq!(ws.stats().reuses, 1);
        // A fresh unzeroed allocation still starts zeroed.
        let g = ws.acquire_unzeroed(7);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn leased_buffers_are_cache_line_aligned() {
        // Vector loads on leased scratch must never straddle a cache
        // line at the buffer base: every allocation — fresh or pooled,
        // zeroed or not — starts on a 64-byte boundary.
        let ws = Workspace::new();
        for len in [1usize, 3, 8, 33, 99, 3 * 129] {
            {
                let b = ws.acquire_buffer_unzeroed(len);
                assert_eq!(b.as_ptr() as usize % BUFFER_ALIGN, 0, "fresh len={len}");
            }
            // Pool round trip: the reused storage keeps its alignment.
            let b = ws.acquire_buffer_unzeroed(len);
            assert_eq!(b.as_ptr() as usize % BUFFER_ALIGN, 0, "pooled len={len}");
        }
    }

    #[test]
    fn concurrent_acquire_is_safe() {
        let ws = Workspace::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let g = ws.acquire(9);
                        assert_eq!(g.n(), 9);
                    }
                });
            }
        });
        let st = ws.stats();
        assert_eq!(st.allocations + st.reuses, 200);
    }
}
