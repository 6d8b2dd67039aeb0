//! Batched multi-RHS grids: `width` systems marching through one
//! V-cycle together, vectorized **across systems**.
//!
//! A [`BatchGrid`] stores the same `n × n` mesh as a [`Grid2d`], but
//! every grid point holds `width` consecutive `f64` lanes — lane `k`
//! is grid point `(i, j)` of system `k` (an *interleaved* layout,
//! `data[(i·n + j)·width + k]`). The width is a **runtime property**
//! of the batch — 4 (AVX2/NEON/portable) or 8 (AVX-512), resolved by
//! [`crate::batch_width`] — not a compile-time constant. Under this
//! layout every stencil operand of every kernel — including the
//! stride-2 column walk of red/black SOR — becomes one contiguous
//! `width`-lane load at element offset `width·j`, so the batched
//! kernels need only the plain `splat/load/store` + arithmetic subset
//! of the lane seam: no deinterleaving, no permutes, and **no
//! cross-lane operations anywhere**. Lanes never mix.
//!
//! ## Determinism
//!
//! Each lane of every batched kernel evaluates the solo scalar
//! expression of the same kernel in the same IEEE-754 association
//! order. Since the solo vector/fused/blocked paths are all bitwise
//! identical to the solo scalar reference, a batched solve is bitwise
//! identical **per lane** to the corresponding solo solve under every
//! backend, SIMD mode, knob setting, *and batch width* — the width is
//! a locator for amortization, never identity. Unused lanes (batches
//! narrower than `width`) carry zeros: all-zero data stays finite
//! under the stencil arithmetic and is never read out.

use crate::simd::{self, Five, SimdMode, Weight};
use crate::{coarse_size, Exec, Grid2d};

/// The widest batch any backend drives: the AVX-512 `f64` lane count.
/// The width actually used at runtime is [`crate::batch_width`] (4 or
/// 8); this constant only bounds it.
pub const MAX_BATCH_WIDTH: usize = 8;

fn assert_width(width: usize) {
    assert!(
        width == 4 || width == 8,
        "batch width must be 4 or 8, got {width}"
    );
}

/// An `n × n` mesh of `width`-lane grid points — the working state of
/// a batched multi-RHS solve. Lane `k` of every point belongs to
/// system `k`.
#[derive(Clone, Debug)]
pub struct BatchGrid {
    n: usize,
    width: usize,
    data: Vec<f64>,
}

impl BatchGrid {
    /// An all-zero batch of `width` lanes over an `n × n` mesh.
    ///
    /// # Panics
    /// Panics if `n < 3` (no interior) or `width` is not 4 or 8.
    pub fn zeros(n: usize, width: usize) -> Self {
        assert!(n >= 3, "grid must have an interior (n >= 3), got {n}");
        assert_width(width);
        BatchGrid {
            n,
            width,
            data: vec![0.0; n * n * width],
        }
    }

    /// Mesh side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lanes per grid point (4 or 8).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh spacing `h = 1/(n-1)` on the unit square.
    #[inline]
    pub fn h(&self) -> f64 {
        1.0 / (self.n as f64 - 1.0)
    }

    /// `1/h²`, the stencil scaling (identical expression to
    /// [`Grid2d::inv_h2`]).
    #[inline]
    pub fn inv_h2(&self) -> f64 {
        let nm1 = self.n as f64 - 1.0;
        nm1 * nm1
    }

    /// The full interleaved buffer (`n · n · width` values).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the full interleaved buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Batch row `i`: `n · width` values, point `j` at
    /// `[width·j..width·(j+1)]`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.n * self.width;
        &self.data[i * w..(i + 1) * w]
    }

    /// Lane `k` of point `(i, j)`.
    #[inline]
    pub fn lane_at(&self, i: usize, j: usize, k: usize) -> f64 {
        debug_assert!(k < self.width);
        self.data[(i * self.n + j) * self.width + k]
    }

    /// Zero every lane of every point.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy a solo grid into lane `k` (all points, boundary included).
    ///
    /// # Panics
    /// Panics on size mismatch or `k >= width`.
    pub fn load_lane(&mut self, k: usize, src: &Grid2d) {
        assert_eq!(self.n, src.n(), "size mismatch in load_lane");
        assert!(k < self.width, "lane {k} out of range");
        let s = src.as_slice();
        for (p, &v) in s.iter().enumerate() {
            self.data[p * self.width + k] = v;
        }
    }

    /// Copy lane `k` out into a solo grid (all points).
    ///
    /// # Panics
    /// Panics on size mismatch or `k >= width`.
    pub fn store_lane(&self, k: usize, dst: &mut Grid2d) {
        assert_eq!(self.n, dst.n(), "size mismatch in store_lane");
        assert!(k < self.width, "lane {k} out of range");
        let d = dst.as_mut_slice();
        for (p, v) in d.iter_mut().enumerate() {
            *v = self.data[p * self.width + k];
        }
    }

    /// Overwrite lane `k` from the same lane of `src` (the freeze
    /// restore of a converged system: the lane's recomputed values are
    /// discarded and its snapshot reinstated after every cycle).
    ///
    /// # Panics
    /// Panics on size or width mismatch or `k >= width`.
    pub fn copy_lane_from(&mut self, k: usize, src: &BatchGrid) {
        assert_eq!(self.n, src.n, "size mismatch in copy_lane_from");
        assert_eq!(self.width, src.width, "width mismatch in copy_lane_from");
        assert!(k < self.width, "lane {k} out of range");
        for p in 0..self.n * self.n {
            self.data[p * self.width + k] = src.data[p * self.width + k];
        }
    }
}

/// An unchecked, shareable pointer into a batch buffer, the
/// [`crate::GridPtr`] analogue for batched sweeps (rows are
/// `n · width` long).
///
/// # Safety contract for users
/// Same as [`crate::GridPtr`]: concurrent tasks must never write the
/// same cell and never read a cell another task may be writing in the
/// same parallel region.
#[derive(Clone, Copy)]
pub struct BatchPtr {
    ptr: *mut f64,
    n: usize,
    width: usize,
}

// SAFETY: a pointer + size; aliasing discipline is delegated to call
// sites exactly like GridPtr.
unsafe impl Send for BatchPtr {}
unsafe impl Sync for BatchPtr {}

impl BatchPtr {
    /// Shared mutable view of a batch (valid while `g` lives).
    pub fn new(g: &mut BatchGrid) -> Self {
        BatchPtr {
            n: g.n,
            width: g.width,
            ptr: g.data.as_mut_ptr(),
        }
    }

    /// Read-only view (never write through it).
    pub fn new_read(g: &BatchGrid) -> Self {
        BatchPtr {
            n: g.n,
            width: g.width,
            ptr: g.data.as_ptr() as *mut f64,
        }
    }

    /// Lanes per grid point of the underlying batch.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raw batch-row pointer (read).
    ///
    /// # Safety
    /// `i` must be a valid row and the row not concurrently written.
    #[inline(always)]
    pub unsafe fn row(&self, i: usize) -> *const f64 {
        debug_assert!(i < self.n);
        unsafe { self.ptr.add(i * self.n * self.width) }
    }

    /// Raw mutable batch-row pointer.
    ///
    /// # Safety
    /// `i` must be a valid row; no other task may access row `i` while
    /// the pointer is live.
    #[inline(always)]
    pub unsafe fn row_mut(&self, i: usize) -> *mut f64 {
        debug_assert!(i < self.n);
        unsafe { self.ptr.add(i * self.n * self.width) }
    }
}

/// Zero every lane of the boundary ring — the batched
/// [`crate::zero_boundary_ring`] (residuals vanish on the Dirichlet
/// boundary in every lane).
pub fn batch_zero_boundary_ring(g: &mut BatchGrid) {
    let n = g.n;
    let width = g.width;
    let w = n * width;
    let data = g.as_mut_slice();
    data[..w].fill(0.0);
    data[(n - 1) * w..].fill(0.0);
    for i in 1..n - 1 {
        data[i * w..i * w + width].fill(0.0);
        data[(i + 1) * w - width..(i + 1) * w].fill(0.0);
    }
}

#[allow(clippy::too_many_arguments)]
impl<W: Weight, D: Weight> Five<W, D> {
    /// Batched (multi-RHS) [`Five::residual_row_into`]: every slice is
    /// a *batch* row of `n · width` values (lane `k` of point `j` at
    /// `[width·j + k]`, `width` 4 or 8). Writes points `1..n-1` of
    /// `out`; boundary points untouched. Per lane this is the solo
    /// `Five::residual_at` bit for bit — the operator is shared
    /// across lanes, so per-cell weight rows stay solo-stride (`n`
    /// values) and are splatted per point.
    ///
    /// # Panics
    /// Panics unless all five batch rows are `mid.len()` long and every
    /// per-cell weight holds `mid.len() / width` values.
    #[inline]
    pub fn batch_residual_row_into(
        self,
        width: usize,
        up: &[f64],
        mid: &[f64],
        dn: &[f64],
        brow: &[f64],
        inv_h2: f64,
        out: &mut [f64],
        mode: SimdMode,
    ) {
        assert_width(width);
        let len = mid.len();
        let n = len / width;
        assert!(
            len == n * width
                && up.len() == len
                && dn.len() == len
                && brow.len() == len
                && out.len() == len
                && self.covers(n),
            "batched residual row: rows must hold {len} values and weights {n}"
        );
        match mode {
            SimdMode::Vector => {
                // SAFETY: all batch rows hold `width·n` values and the
                // per-cell weights `n` (asserted above); every access is
                // a `width`-lane load/store at element offset `width·j`,
                // `j` in `1..n-1`; `out` (a distinct `&mut`) aliases
                // nothing.
                unsafe {
                    simd::batch_residual_row(
                        width,
                        self,
                        up.as_ptr(),
                        mid.as_ptr(),
                        dn.as_ptr(),
                        brow.as_ptr(),
                        inv_h2,
                        out.as_mut_ptr(),
                        n,
                    );
                }
            }
            SimdMode::Scalar => {
                for j in 1..n - 1 {
                    for k in 0..width {
                        let e = j * width + k;
                        let x = [up[e], mid[e - width], mid[e], mid[e + width], dn[e]];
                        out[e] = self.residual_at(j, x, brow[e], inv_h2);
                    }
                }
            }
        }
    }

    /// Batched (multi-RHS) [`Five::sor_row_update`] over batch rows of
    /// `n · width` values: every color cell updates all `width` lanes
    /// at once, each with the solo `Five::relaxed_at`.
    ///
    /// # Safety
    /// `width` must be 4 or 8, all four pointers valid for `n · width`
    /// reads (`mid` for writes), `j0 >= 1`, and no other task may
    /// concurrently write the cells read here.
    ///
    /// # Panics
    /// Panics unless every per-cell weight is `n` long.
    #[inline]
    pub unsafe fn batch_sor_row_update(
        self,
        width: usize,
        up: *const f64,
        mid: *mut f64,
        dn: *const f64,
        brow: *const f64,
        n: usize,
        h2: f64,
        omega: f64,
        j0: usize,
        mode: SimdMode,
    ) {
        assert!(
            self.covers(n),
            "batched SOR row: weights must hold {n} values"
        );
        match mode {
            SimdMode::Vector => {
                // SAFETY: forwarded contract; the weights cover `n`.
                unsafe { simd::batch_sor_row(width, self, up, mid, dn, brow, n, h2, omega, j0) };
            }
            SimdMode::Scalar => {
                let mut j = j0;
                while j < n - 1 {
                    for k in 0..width {
                        let e = j * width + k;
                        // SAFETY: forwarded contract; j in 1..n-1.
                        unsafe {
                            let x = simd::star(up, mid, dn, e, width, |p| *p);
                            *mid.add(e) = self.relaxed_at(j, x, *brow.add(e), h2, omega);
                        }
                    }
                    j += 2;
                }
            }
        }
    }
}

/// Combine three fine batch rows into one coarse batch row by full
/// weighting (`coarse_row` points `1..nc-1`). Per lane this is exactly
/// [`crate::restrict_rows_into`]'s scalar expression.
pub fn batch_restrict_rows_into(
    width: usize,
    r_up: &[f64],
    r_mid: &[f64],
    r_dn: &[f64],
    coarse_row: &mut [f64],
    mode: SimdMode,
) {
    let nc = coarse_row.len() / width;
    match mode {
        SimdMode::Vector => {
            debug_assert!(r_mid.len() > (2 * (nc - 1)) * width);
            // SAFETY: the fine batch rows hold at least
            // `width·(2(nc-1)+1)` values and `coarse_row` (a distinct
            // `&mut`) holds `width·nc`.
            unsafe {
                simd::batch_restrict_row(
                    width,
                    r_up.as_ptr(),
                    r_mid.as_ptr(),
                    r_dn.as_ptr(),
                    coarse_row.as_mut_ptr(),
                    nc,
                );
            }
        }
        SimdMode::Scalar => {
            for jc in 1..nc - 1 {
                let fj = 2 * jc;
                for k in 0..width {
                    let e = fj * width + k;
                    let (l, r) = (e - width, e + width);
                    let center = r_mid[e];
                    let edges = r_up[e] + r_dn[e] + r_mid[l] + r_mid[r];
                    let corners = r_up[l] + r_up[r] + r_dn[l] + r_dn[r];
                    coarse_row[jc * width + k] = (4.0 * center + 2.0 * edges + corners) / 16.0;
                }
            }
        }
    }
}

/// Add the bilinear interpolation of a coarse batch into one interior
/// fine batch row. `cs` is the coarse batch's full buffer
/// (`nc · nc · width` values); `frow` is the fine batch row
/// (`(2(nc-1)+1) · width` values, boundary points untouched). Per lane
/// this is exactly [`crate::interpolate_correct_row`].
pub fn batch_interpolate_correct_row(
    width: usize,
    fi: usize,
    cs: &[f64],
    nc: usize,
    frow: &mut [f64],
    mode: SimdMode,
) {
    let w = nc * width;
    let ic = fi / 2;
    let c0 = &cs[ic * w..(ic + 1) * w];
    if fi.is_multiple_of(2) {
        match mode {
            SimdMode::Vector => {
                // SAFETY: `c0` holds `width·nc` values, `frow` (a
                // distinct `&mut`) the full fine batch row.
                unsafe { simd::batch_interp_row_even(width, c0.as_ptr(), frow.as_mut_ptr(), nc) }
            }
            SimdMode::Scalar => {
                for k in 0..width {
                    frow[width + k] += 0.5 * (c0[k] + c0[width + k]);
                }
                for jc in 1..nc - 1 {
                    for k in 0..width {
                        let c = jc * width + k;
                        frow[2 * jc * width + k] += c0[c];
                        frow[(2 * jc + 1) * width + k] += 0.5 * (c0[c] + c0[c + width]);
                    }
                }
            }
        }
    } else {
        let c1 = &cs[(ic + 1) * w..(ic + 2) * w];
        match mode {
            SimdMode::Vector => {
                // SAFETY: both coarse batch rows are in bounds.
                unsafe {
                    simd::batch_interp_row_odd(
                        width,
                        c0.as_ptr(),
                        c1.as_ptr(),
                        frow.as_mut_ptr(),
                        nc,
                    )
                }
            }
            SimdMode::Scalar => {
                for k in 0..width {
                    frow[width + k] += 0.25 * (c0[k] + c0[width + k] + c1[k] + c1[width + k]);
                }
                for jc in 1..nc - 1 {
                    for k in 0..width {
                        let c = jc * width + k;
                        frow[2 * jc * width + k] += 0.5 * (c0[c] + c1[c]);
                        frow[(2 * jc + 1) * width + k] +=
                            0.25 * (c0[c] + c0[c + width] + c1[c] + c1[c + width]);
                    }
                }
            }
        }
    }
}

/// Full-weighting restriction of a fine batch into a coarse batch
/// (overwrite; coarse boundary ring zeroed in every lane) — the
/// batched [`crate::restrict_full_weighting`].
///
/// # Panics
/// Panics if the sizes are not a coarse/fine pair or the widths differ.
pub fn batch_restrict_full_weighting(fine: &BatchGrid, coarse: &mut BatchGrid, exec: &Exec) {
    let nc = coarse.n();
    let nf = fine.n();
    assert_eq!(
        nc,
        coarse_size(nf),
        "coarse grid size mismatch in batch restriction"
    );
    assert_eq!(
        fine.width(),
        coarse.width(),
        "width mismatch in batch restriction"
    );
    let width = fine.width();
    let cp = BatchPtr::new(coarse);
    let w = nf * width;
    let fs = fine.as_slice();
    let mode = exec.simd();
    exec.for_rows(1, nc - 1, |ic| {
        let fi = 2 * ic;
        let f_up = &fs[(fi - 1) * w..fi * w];
        let f_mid = &fs[fi * w..(fi + 1) * w];
        let f_dn = &fs[(fi + 1) * w..(fi + 2) * w];
        // SAFETY: each task writes one distinct coarse batch row;
        // `fine` is read-only.
        let crow = unsafe { std::slice::from_raw_parts_mut(cp.row_mut(ic), nc * width) };
        batch_restrict_rows_into(width, f_up, f_mid, f_dn, crow, mode);
    });
    batch_zero_boundary_ring(coarse);
}

/// Bilinear interpolation of a coarse batch **added** into a fine
/// batch's interior (`x += P e`, per lane) — the batched
/// [`crate::interpolate_correct`].
///
/// # Panics
/// Panics if the sizes are not a coarse/fine pair or the widths differ.
pub fn batch_interpolate_correct(coarse: &BatchGrid, fine: &mut BatchGrid, exec: &Exec) {
    let nf = fine.n();
    let nc = coarse.n();
    assert_eq!(
        nc,
        coarse_size(nf),
        "grid size mismatch in batch interpolation"
    );
    assert_eq!(
        fine.width(),
        coarse.width(),
        "width mismatch in batch interpolation"
    );
    let width = fine.width();
    let fp = BatchPtr::new(fine);
    let cs = coarse.as_slice();
    let mode = exec.simd();
    exec.for_row_bands(1, nf - 1, |b_lo, b_hi| {
        for fi in b_lo..b_hi {
            // SAFETY: bands partition the fine interior, so each fine
            // batch row is written by exactly one task; `coarse` is
            // read-only.
            let frow = unsafe { std::slice::from_raw_parts_mut(fp.row_mut(fi), nf * width) };
            batch_interpolate_correct_row(width, fi, cs, nc, frow, mode);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        interpolate_correct, residual, restrict_full_weighting, zero_boundary_ring, Grid2d,
    };

    fn lanes(n: usize, width: usize, seed: usize) -> Vec<Grid2d> {
        (0..width)
            .map(|k| {
                Grid2d::from_fn(n, |i, j| {
                    ((i * 31 + j * 17 + k * 7 + seed) % 101) as f64 / 9.0 - 5.0
                })
            })
            .collect()
    }

    const WIDTHS: [usize; 2] = [4, 8];

    #[test]
    fn lane_roundtrip() {
        for width in WIDTHS {
            let gs = lanes(9, width, 3);
            let mut b = BatchGrid::zeros(9, width);
            for (k, g) in gs.iter().enumerate() {
                b.load_lane(k, g);
            }
            for (k, g) in gs.iter().enumerate() {
                let mut out = Grid2d::zeros(9);
                b.store_lane(k, &mut out);
                assert_eq!(out.as_slice(), g.as_slice(), "width={width} lane {k}");
            }
        }
    }

    #[test]
    fn batched_residual_matches_solo_bitwise() {
        for width in WIDTHS {
            for n in [5usize, 9, 17, 33] {
                let xs = lanes(n, width, 1);
                let bs = lanes(n, width, 2);
                for mode in [SimdMode::Scalar, SimdMode::Vector] {
                    let mut xb = BatchGrid::zeros(n, width);
                    let mut bb = BatchGrid::zeros(n, width);
                    for k in 0..width {
                        xb.load_lane(k, &xs[k]);
                        bb.load_lane(k, &bs[k]);
                    }
                    let mut rb = BatchGrid::zeros(n, width);
                    let inv_h2 = xb.inv_h2();
                    for i in 1..n - 1 {
                        let w = n * width;
                        let (head, tail) = rb.as_mut_slice().split_at_mut(i * w);
                        let _ = head;
                        let out = &mut tail[..w];
                        let xs_all = xb.as_slice();
                        Five::POISSON.batch_residual_row_into(
                            width,
                            &xs_all[(i - 1) * w..i * w],
                            &xs_all[i * w..(i + 1) * w],
                            &xs_all[(i + 1) * w..(i + 2) * w],
                            bb.row(i),
                            inv_h2,
                            out,
                            mode,
                        );
                    }
                    batch_zero_boundary_ring(&mut rb);
                    for k in 0..width {
                        let mut want = Grid2d::zeros(n);
                        residual(&xs[k], &bs[k], &mut want, &Exec::seq());
                        let mut got = Grid2d::zeros(n);
                        rb.store_lane(k, &mut got);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "width={width} n={n} lane={k} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_restrict_matches_solo_bitwise() {
        for width in WIDTHS {
            for nf in [5usize, 9, 17, 33] {
                let nc = coarse_size(nf);
                let rs = lanes(nf, width, 4);
                for mode in [SimdMode::Scalar, SimdMode::Vector] {
                    let mut rb = BatchGrid::zeros(nf, width);
                    for (k, r) in rs.iter().enumerate() {
                        rb.load_lane(k, r);
                    }
                    let mut cb = BatchGrid::zeros(nc, width);
                    let policy = match mode {
                        SimdMode::Scalar => crate::SimdPolicy::Scalar,
                        SimdMode::Vector => crate::SimdPolicy::Vector,
                    };
                    let exec = Exec::seq().with_simd(policy);
                    batch_restrict_full_weighting(&rb, &mut cb, &exec);
                    for (k, r) in rs.iter().enumerate() {
                        let mut want = Grid2d::zeros(nc);
                        restrict_full_weighting(r, &mut want, &exec);
                        let mut got = Grid2d::zeros(nc);
                        cb.store_lane(k, &mut got);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "width={width} nf={nf} lane={k} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_interpolate_matches_solo_bitwise() {
        for width in WIDTHS {
            for nf in [5usize, 9, 17, 33] {
                let nc = coarse_size(nf);
                let cs = lanes(nc, width, 5);
                let fs = lanes(nf, width, 6);
                for policy in [crate::SimdPolicy::Scalar, crate::SimdPolicy::Vector] {
                    let exec = Exec::seq().with_simd(policy);
                    let mut cb = BatchGrid::zeros(nc, width);
                    let mut fb = BatchGrid::zeros(nf, width);
                    for k in 0..width {
                        cb.load_lane(k, &cs[k]);
                        fb.load_lane(k, &fs[k]);
                    }
                    batch_interpolate_correct(&cb, &mut fb, &exec);
                    for k in 0..width {
                        let mut want = fs[k].clone();
                        interpolate_correct(&cs[k], &mut want, &exec);
                        let mut got = Grid2d::zeros(nf);
                        fb.store_lane(k, &mut got);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "width={width} nf={nf} lane={k} {policy:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_ring_zeroes_every_lane() {
        for width in WIDTHS {
            let gs = lanes(9, width, 7);
            let mut b = BatchGrid::zeros(9, width);
            for (k, g) in gs.iter().enumerate() {
                b.load_lane(k, g);
            }
            batch_zero_boundary_ring(&mut b);
            for (k, g) in gs.iter().enumerate() {
                let mut out = Grid2d::zeros(9);
                b.store_lane(k, &mut out);
                let mut want = g.clone();
                zero_boundary_ring(&mut want);
                assert_eq!(out.as_slice(), want.as_slice(), "width={width} lane {k}");
            }
        }
    }
}
