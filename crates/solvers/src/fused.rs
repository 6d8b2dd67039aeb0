//! Temporally blocked relaxation and fused cycle-edge kernels.
//!
//! A Red-Black SOR sweep is two grid traversals (red half-sweep, then
//! black), and a multigrid cycle brackets its transfer kernels with
//! such sweeps — so the memory system streams the solution grid many
//! times per cycle while each traversal does only a handful of flops
//! per value. This module collapses those traversals:
//!
//! * [`sor_sweeps_blocked`] runs `d` full sweeps (`2d` half-sweeps) in
//!   **one traversal** using a wavefront of lagged rows;
//! * [`relax_residual_restrict`] additionally chains the fused
//!   residual + full-weighting restriction behind the wavefront (the
//!   pre-relaxation edge of a V cycle, `RECURSE` lines 4–5 of the
//!   paper);
//! * [`interpolate_correct_relax`] runs the interpolation correction in
//!   front of the wavefront (the post-relaxation edge, `RECURSE` lines
//!   7–8).
//!
//! ## The wavefront
//!
//! A black update of row `i` reads red values of rows `i-1..=i+1`, all
//! of which exist once the red stage has passed row `i+1`. The same
//! holds for every later half-sweep, so a single cursor `t` can carry
//! all `2d` half-sweeps at once, stage `s` trailing `s` rows behind:
//!
//! ```text
//! cursor t:  red₁(t)  black₁(t-1)  red₂(t-2)  black₂(t-3)  ...
//! ```
//!
//! Each row update is the *same* row body as the staged reference
//! ([`sor_half_sweep`](crate::relax::sor_half_sweep) shares it), reads
//! the same values in the same state, and therefore produces **bitwise
//! identical** results — property-tested in this crate under every
//! [`Exec`] backend. The residual hook trails the last half-sweep by
//! one more row (its three-row stencil needs fully relaxed neighbors),
//! streaming rows into the same rolling three-row window the fused
//! [`petamg_grid::residual_restrict`] uses.
//!
//! ## Parallel execution: overlapped bands
//!
//! The wavefront couples adjacent rows, so parallel backends use
//! **overlapped temporal tiling** over the block cursor
//! ([`Exec::for_row_bands`]): the pre-sweep solution is snapshotted
//! into a [`Workspace`]-leased grid, and each band copies its rows plus
//! a halo of `2d` rows per side into private scratch, runs the whole
//! wavefront there (all traversals cache-resident), and writes back
//! only the rows it owns. Halo rows are recomputed redundantly rather
//! than shared, which keeps bands independent — and keeps every written
//! value the product of exactly the reference dependency cone, i.e.
//! bitwise identical again. The redundant work is `O(d²)` rows per band
//! against `O(d·band)` useful rows, so the band height (the
//! [`Exec::with_band`] knob) and the temporal depth `d` (the `tblock`
//! knob in [`MgConfig`](crate::MgConfig) and the tuner) trade off
//! against each other — exactly the kind of machine-dependent choice
//! the autotuner is for.

use petamg_grid::{
    coarse_size, interpolate_correct, interpolate_correct_row, restrict_rows_into,
    zero_boundary_ring, Exec, Grid2d, GridPtr, SimdMode, Workspace,
};
use petamg_problems::{residual_restrict_op, StencilOp};

/// One cursor step of the red/black wavefront over a row-major buffer.
///
/// Buffer row `r` is global row `row0 + r`; rows `lo..hi` (buffer
/// coordinates) are updatable, everything else is read-only halo.
/// Stage `s` (0-based, color `s % 2`) processes buffer row `t - s`.
///
/// # Safety
/// `buf` must hold at least `(hi + 1) * n` values with `lo >= 1` (the
/// stencil reads one row on each side of every updated row), `bs` must
/// be the global right-hand-side buffer of the same width, and no other
/// task may concurrently access the touched rows.
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn wavefront_step(
    op: &StencilOp,
    buf: *mut f64,
    bs: *const f64,
    n: usize,
    row0: usize,
    lo: usize,
    hi: usize,
    h2: f64,
    omega: f64,
    half_sweeps: usize,
    t: usize,
    mode: SimdMode,
) {
    for s in 0..half_sweeps {
        if t < lo + s {
            break;
        }
        let r = t - s;
        if r >= hi {
            continue;
        }
        let i = row0 + r;
        // SAFETY: lo >= 1 and r < hi <= rows-1, so rows r-1 and r+1 are
        // in-buffer; disjointness is the caller's contract.
        unsafe {
            op.sor_row_update(
                i,
                buf.add((r - 1) * n),
                buf.add(r * n),
                buf.add((r + 1) * n),
                bs.add(i * n),
                n,
                h2,
                omega,
                s % 2,
                mode,
            );
        }
    }
}

/// Run the full wavefront: `half_sweeps` half-sweeps over buffer rows
/// `lo..hi` in one traversal.
///
/// # Safety
/// Same contract as [`wavefront_step`].
#[allow(clippy::too_many_arguments)]
unsafe fn wavefront_sor(
    op: &StencilOp,
    buf: *mut f64,
    bs: *const f64,
    n: usize,
    row0: usize,
    lo: usize,
    hi: usize,
    h2: f64,
    omega: f64,
    half_sweeps: usize,
    mode: SimdMode,
) {
    if hi <= lo || half_sweeps == 0 {
        return;
    }
    for t in lo..hi + half_sweeps - 1 {
        // SAFETY: forwarded contract.
        unsafe {
            wavefront_step(
                op,
                buf,
                bs,
                n,
                row0,
                lo,
                hi,
                h2,
                omega,
                half_sweeps,
                t,
                mode,
            )
        };
    }
}

/// Scratch geometry of one overlapped band: global rows `[g0, g1)` are
/// copied into private scratch so that rows `[g0 + margin, g1 - margin)`
/// (clipped at true boundaries) come out exactly equal to the
/// reference after `margin` half-sweeps.
struct BandScratch {
    g0: usize,
    g1: usize,
}

impl BandScratch {
    /// Halo the exact range `[e_lo, e_hi)` by `margin` rows per side,
    /// clipped to the grid.
    fn new(e_lo: usize, e_hi: usize, margin: usize, n: usize) -> Self {
        BandScratch {
            g0: e_lo.saturating_sub(margin),
            g1: (e_hi + margin).min(n),
        }
    }

    fn rows(&self) -> usize {
        self.g1 - self.g0
    }
}

/// `sweeps` Red-Black SOR sweeps for `A_h x = b`, temporally blocked:
/// all `2·sweeps` half-sweeps advance together in one wavefront
/// traversal instead of `2·sweeps` separate passes over the grid.
///
/// Bitwise identical to the staged reference
/// [`sor_sweeps`](crate::relax::sor_sweeps) under every [`Exec`]
/// policy. Sequentially the wavefront runs in place; parallel backends
/// snapshot `x` into `ws` and run overlapped bands (see the module
/// docs), so all scratch is workspace-leased and steady-state calls
/// allocate nothing.
///
/// ```
/// use petamg_grid::{Exec, Grid2d, Workspace};
/// use petamg_solvers::{relax::sor_sweeps, fused::sor_sweeps_blocked};
///
/// let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
/// let mut blocked = Grid2d::zeros(9);
/// let mut staged = blocked.clone();
/// let ws = Workspace::new();
/// sor_sweeps_blocked(&mut blocked, &b, 1.15, 3, &ws, &Exec::seq());
/// sor_sweeps(&mut staged, &b, 1.15, 3, &Exec::seq());
/// assert_eq!(blocked.as_slice(), staged.as_slice());
/// ```
///
/// # Panics
/// Panics if grid sizes differ.
pub fn sor_sweeps_blocked(
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    sor_sweeps_blocked_op(&StencilOp::Poisson, x, b, omega, sweeps, ws, exec);
}

/// [`sor_sweeps_blocked`] for an arbitrary operator: `sweeps` Red-Black
/// SOR sweeps of `op`, temporally blocked into one wavefront traversal.
/// Bitwise identical to the staged
/// [`sor_sweeps_op`](crate::relax::sor_sweeps_op) under every [`Exec`]
/// policy; with [`StencilOp::Poisson`] it *is* [`sor_sweeps_blocked`].
///
/// # Panics
/// Panics if grid sizes differ or the operator is bound to another
/// size.
pub fn sor_sweeps_blocked_op(
    op: &StencilOp,
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    assert_eq!(x.n(), b.n(), "size mismatch in sor_sweeps_blocked");
    op.assert_n(x.n());
    if sweeps == 0 {
        return;
    }
    let n = x.n();
    let h2 = {
        let h = x.h();
        h * h
    };
    let half = 2 * sweeps;
    let bs = b.as_slice().as_ptr();
    let mode = exec.simd();

    if exec.is_seq() {
        // In place: the wavefront is a single pass over the grid.
        let buf = x.as_mut_slice().as_mut_ptr();
        // SAFETY: sequential — no concurrent access; rows 1..n-1
        // are interior, so the stencil stays in bounds.
        unsafe { wavefront_sor(op, buf, bs, n, 0, 1, n - 1, h2, omega, half, mode) };
    } else {
        // Overlapped bands: tasks read the snapshot, write disjoint
        // row ranges of `x`, and never read `x` itself.
        let mut snap = ws.acquire_unzeroed(n);
        snap.copy_from(x);
        let snap: &Grid2d = &snap;
        let xp = GridPtr::new(x);
        exec.for_row_bands(1, n - 1, |r_lo, r_hi| {
            let bs = b.as_slice().as_ptr();
            let g = BandScratch::new(r_lo, r_hi, half, n);
            let rows = g.rows();
            let mut scratch = ws.acquire_buffer_unzeroed(rows * n);
            scratch.copy_from_slice(&snap.as_slice()[g.g0 * n..g.g1 * n]);
            // SAFETY: scratch is private to this task; after the
            // wavefront, rows r_lo..r_hi carry exact final values
            // (the halo absorbs all contamination), and bands
            // partition the interior so each row of `x` is written
            // by exactly one task.
            unsafe {
                wavefront_sor(
                    op,
                    scratch.as_mut_ptr(),
                    bs,
                    n,
                    g.g0,
                    1,
                    rows - 1,
                    h2,
                    omega,
                    half,
                    mode,
                );
                for r in r_lo..r_hi {
                    let src = &scratch[(r - g.g0) * n..(r - g.g0 + 1) * n];
                    std::slice::from_raw_parts_mut(xp.row_mut(r), n).copy_from_slice(src);
                }
            }
        });
    }
}

/// The fused pre-relaxation cycle edge: `sweeps` SOR sweeps on
/// `A_h x = b` **and** the fused residual + full-weighting restriction
/// into `coarse`, all in one wavefront traversal — the residual stage
/// trails the last half-sweep by one row, feeding the same rolling
/// three-row window as [`petamg_grid::residual_restrict`].
///
/// Bitwise identical to
/// [`sor_sweeps`](crate::relax::sor_sweeps) followed by
/// [`petamg_grid::residual_restrict`] under every [`Exec`] policy; with
/// `sweeps == 0` it *is* [`petamg_grid::residual_restrict`]. Parallel backends run
/// overlapped bands of coarse rows (each band owns the fine rows under
/// its coarse rows and recomputes halo rows privately).
///
/// # Panics
/// Panics if sizes differ or are not a coarse/fine pair.
pub fn relax_residual_restrict(
    x: &mut Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    relax_residual_restrict_op(&StencilOp::Poisson, x, b, coarse, omega, sweeps, ws, exec);
}

/// [`relax_residual_restrict`] for an arbitrary operator: the fused
/// pre-relaxation cycle edge of `op`. Bitwise identical to
/// [`sor_sweeps_op`](crate::relax::sor_sweeps_op) followed by
/// [`residual_restrict_op`] under every [`Exec`] policy; with
/// `sweeps == 0` it *is* [`residual_restrict_op`], and with
/// [`StencilOp::Poisson`] it *is* [`relax_residual_restrict`].
///
/// # Panics
/// Panics if sizes differ, are not a coarse/fine pair, or the operator
/// is bound to another size.
#[allow(clippy::too_many_arguments)]
pub fn relax_residual_restrict_op(
    op: &StencilOp,
    x: &mut Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    assert_eq!(x.n(), b.n(), "size mismatch in relax_residual_restrict");
    op.assert_n(x.n());
    let n = x.n();
    let nc = coarse.n();
    assert_eq!(
        nc,
        coarse_size(n),
        "coarse grid size mismatch in relax_residual_restrict"
    );
    if sweeps == 0 {
        residual_restrict_op(op, x, b, coarse, ws, exec);
        return;
    }
    let h2 = {
        let h = x.h();
        h * h
    };
    let inv_h2 = x.inv_h2();
    let half = 2 * sweeps;
    let bs = b.as_slice().as_ptr();
    let mode = exec.simd();

    if exec.is_seq() {
        let mut wbuf = ws.acquire_buffer_unzeroed(3 * n);
        let (wa, rest) = wbuf.split_at_mut(n);
        let (wb, wc) = rest.split_at_mut(n);
        let win = [wa, wb, wc];
        let buf = x.as_mut_slice().as_mut_ptr();
        for t in 1..n - 1 + half {
            // SAFETY: sequential; interior rows only.
            unsafe { wavefront_step(op, buf, bs, n, 0, 1, n - 1, h2, omega, half, t, mode) };
            // Residual row r = t - 2d: rows r-1..=r+1 finished their
            // last half-sweep at cursors <= t, so they are final.
            if t > half {
                let r = t - half;
                // SAFETY: rows r-1..r+1 are no longer written by any
                // remaining stage (the wavefront has passed them).
                let (up, mid, dn) = unsafe {
                    (
                        std::slice::from_raw_parts(buf.add((r - 1) * n), n),
                        std::slice::from_raw_parts(buf.add(r * n), n),
                        std::slice::from_raw_parts(buf.add((r + 1) * n), n),
                    )
                };
                op.residual_row_into(r, up, mid, dn, b.row(r), inv_h2, win[r % 3], mode);
                if r % 2 == 1 && r >= 3 {
                    let ic = (r - 1) / 2;
                    let crow = &mut coarse.as_mut_slice()[ic * nc..(ic + 1) * nc];
                    restrict_rows_into(win[(r - 2) % 3], win[(r - 1) % 3], win[r % 3], crow, mode);
                }
            }
        }
    } else {
        let mut snap = ws.acquire_unzeroed(n);
        snap.copy_from(x);
        let snap: &Grid2d = &snap;
        let xp = GridPtr::new(x);
        let cp = GridPtr::new(coarse);
        exec.for_row_bands(1, nc - 1, |c_lo, c_hi| {
            let bs = b.as_slice().as_ptr();
            // Fine rows owned by this band of coarse rows; the last
            // band also owns the final interior fine row, so bands
            // partition 1..n-1 exactly.
            let f_lo = 2 * c_lo - 1;
            let f_hi = if c_hi == nc - 1 { n - 1 } else { 2 * c_hi - 1 };
            // Rows that must come out exactly final: the owned fine
            // rows plus the residual stencils of the owned coarse
            // rows (fine rows 2c_lo-2 ..= 2c_hi).
            let g = BandScratch::new(2 * c_lo - 2, 2 * c_hi + 1, half, n);
            let rows = g.rows();
            let mut scratch = ws.acquire_buffer_unzeroed(rows * n);
            scratch.copy_from_slice(&snap.as_slice()[g.g0 * n..g.g1 * n]);
            // SAFETY: private scratch; owned fine rows and the
            // residual stencil rows sit `half` rows inside the halo,
            // so their final values are exact; bands write disjoint
            // fine and coarse rows.
            unsafe {
                wavefront_sor(
                    op,
                    scratch.as_mut_ptr(),
                    bs,
                    n,
                    g.g0,
                    1,
                    rows - 1,
                    h2,
                    omega,
                    half,
                    mode,
                );
                for r in f_lo..f_hi {
                    let src = &scratch[(r - g.g0) * n..(r - g.g0 + 1) * n];
                    std::slice::from_raw_parts_mut(xp.row_mut(r), n).copy_from_slice(src);
                }
            }
            // Fused residual + restriction over the relaxed scratch,
            // rolling window keyed by fine row mod 3.
            let mut wbuf = ws.acquire_buffer_unzeroed(3 * n);
            let (wa, rest) = wbuf.split_at_mut(n);
            let (wb, wc) = rest.split_at_mut(n);
            let win = [wa, wb, wc];
            let srow = |fi: usize| &scratch[(fi - g.g0) * n..(fi - g.g0 + 1) * n];
            for fi in 2 * c_lo - 1..2 * c_hi {
                op.residual_row_into(
                    fi,
                    srow(fi - 1),
                    srow(fi),
                    srow(fi + 1),
                    b.row(fi),
                    inv_h2,
                    win[fi % 3],
                    mode,
                );
                if fi % 2 == 1 && fi > 2 * c_lo {
                    let ic = (fi - 1) / 2;
                    // SAFETY: each coarse row belongs to one band.
                    let crow = unsafe { std::slice::from_raw_parts_mut(cp.row_mut(ic), nc) };
                    restrict_rows_into(
                        win[(fi - 2) % 3],
                        win[(fi - 1) % 3],
                        win[fi % 3],
                        crow,
                        mode,
                    );
                }
            }
        });
    }
    zero_boundary_ring(coarse);
}

/// The fused post-relaxation cycle edge: add the bilinear interpolation
/// of `coarse` into `x` (`x += P e`) **and** run `sweeps` SOR sweeps on
/// `A_h x = b`, in one wavefront traversal — the correction stage leads
/// and the half-sweeps trail it row by row.
///
/// Bitwise identical to [`interpolate_correct`] followed by
/// [`sor_sweeps`](crate::relax::sor_sweeps) under every [`Exec`]
/// policy; with `sweeps == 0` it *is* [`interpolate_correct`].
///
/// # Panics
/// Panics if sizes differ or are not a coarse/fine pair.
pub fn interpolate_correct_relax(
    coarse: &Grid2d,
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    interpolate_correct_relax_op(&StencilOp::Poisson, coarse, x, b, omega, sweeps, ws, exec);
}

/// [`interpolate_correct_relax`] for an arbitrary operator: the fused
/// post-relaxation cycle edge of `op` (the interpolation itself is
/// operator-independent; the trailing half-sweeps relax `A x = b` for
/// `op`). With [`StencilOp::Poisson`] it *is*
/// [`interpolate_correct_relax`], bit for bit.
///
/// # Panics
/// Panics if sizes differ, are not a coarse/fine pair, or the operator
/// is bound to another size.
#[allow(clippy::too_many_arguments)]
pub fn interpolate_correct_relax_op(
    op: &StencilOp,
    coarse: &Grid2d,
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    assert_eq!(x.n(), b.n(), "size mismatch in interpolate_correct_relax");
    op.assert_n(x.n());
    let n = x.n();
    let nc = coarse.n();
    assert_eq!(
        nc,
        coarse_size(n),
        "coarse grid size mismatch in interpolate_correct_relax"
    );
    if sweeps == 0 {
        interpolate_correct(coarse, x, exec);
        return;
    }
    let h2 = {
        let h = x.h();
        h * h
    };
    let half = 2 * sweeps;
    let bs = b.as_slice().as_ptr();
    let cs = coarse.as_slice();
    let mode = exec.simd();

    if exec.is_seq() {
        let buf = x.as_mut_slice().as_mut_ptr();
        // Cursor: correction at lag 0, half-sweep s at lag s.
        for t in 1..n - 1 + half {
            if t < n - 1 {
                // SAFETY: sequential; the correction only touches
                // row t, which no trailing stage has reached yet.
                let frow = unsafe { std::slice::from_raw_parts_mut(buf.add(t * n), n) };
                interpolate_correct_row(t, cs, nc, frow, mode);
            }
            for s in 1..=half {
                if t < 1 + s {
                    break;
                }
                let r = t - s;
                if r >= n - 1 {
                    continue;
                }
                // SAFETY: sequential; rows r-1..=r+1 are corrected
                // (lag 0 passed them) and at half-sweep depth s-1.
                unsafe {
                    op.sor_row_update(
                        r,
                        buf.add((r - 1) * n),
                        buf.add(r * n),
                        buf.add((r + 1) * n),
                        bs.add(r * n),
                        n,
                        h2,
                        omega,
                        (s - 1) % 2,
                        mode,
                    );
                }
            }
        }
    } else {
        let mut snap = ws.acquire_unzeroed(n);
        snap.copy_from(x);
        let snap: &Grid2d = &snap;
        let xp = GridPtr::new(x);
        exec.for_row_bands(1, n - 1, |r_lo, r_hi| {
            let bs = b.as_slice().as_ptr();
            let g = BandScratch::new(r_lo, r_hi, half, n);
            let rows = g.rows();
            let mut scratch = ws.acquire_buffer_unzeroed(rows * n);
            scratch.copy_from_slice(&snap.as_slice()[g.g0 * n..g.g1 * n]);
            // The correction is pointwise in `coarse`, so it is
            // exact on every scratch row — including the halo edges,
            // which the relaxation cone then consumes.
            for r in 0..rows {
                let i = g.g0 + r;
                if i >= 1 && i < n - 1 {
                    interpolate_correct_row(i, cs, nc, &mut scratch[r * n..(r + 1) * n], mode);
                }
            }
            // SAFETY: private scratch; owned rows sit `half` rows
            // inside the halo; bands write disjoint rows of `x`.
            unsafe {
                wavefront_sor(
                    op,
                    scratch.as_mut_ptr(),
                    bs,
                    n,
                    g.g0,
                    1,
                    rows - 1,
                    h2,
                    omega,
                    half,
                    mode,
                );
                for r in r_lo..r_hi {
                    let src = &scratch[(r - g.g0) * n..(r - g.g0 + 1) * n];
                    std::slice::from_raw_parts_mut(xp.row_mut(r), n).copy_from_slice(src);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::{sor_sweep, sor_sweeps};
    use petamg_grid::{residual_restrict, restrict_full_weighting};

    fn test_problem(n: usize) -> (Grid2d, Grid2d) {
        let mut x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
        (x, b)
    }

    fn backends() -> Vec<Exec> {
        vec![
            Exec::seq(),
            Exec::pbrt(2).with_band(1),
            Exec::pbrt(2).with_band(3),
            Exec::pbrt(3).with_band(8),
            Exec::pbrt(3).with_band(4),
        ]
    }

    #[test]
    fn blocked_sweeps_bitwise_equal_staged() {
        let ws = Workspace::new();
        for n in [5usize, 9, 17, 33] {
            for sweeps in [1usize, 2, 3] {
                let (x0, b) = test_problem(n);
                let mut want = x0.clone();
                sor_sweeps(&mut want, &b, 1.15, sweeps, &Exec::seq());
                for exec in backends() {
                    let mut got = x0.clone();
                    sor_sweeps_blocked(&mut got, &b, 1.15, sweeps, &ws, &exec);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "n={n} sweeps={sweeps} {exec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_zero_sweeps_is_identity() {
        let ws = Workspace::new();
        let (x0, b) = test_problem(9);
        let mut x = x0.clone();
        sor_sweeps_blocked(&mut x, &b, 1.15, 0, &ws, &Exec::seq());
        assert_eq!(x.as_slice(), x0.as_slice());
    }

    #[test]
    fn fused_pre_edge_bitwise_equal_unfused() {
        let ws = Workspace::new();
        for n in [5usize, 9, 17, 33] {
            let nc = coarse_size(n);
            for sweeps in [0usize, 1, 2] {
                let (x0, b) = test_problem(n);
                let mut x_want = x0.clone();
                sor_sweeps(&mut x_want, &b, 1.15, sweeps, &Exec::seq());
                let mut c_want = Grid2d::zeros(nc);
                residual_restrict(&x_want, &b, &mut c_want, &ws, &Exec::seq());

                for exec in backends() {
                    let mut x_got = x0.clone();
                    let mut c_got = Grid2d::from_fn(nc, |_, _| 42.0);
                    relax_residual_restrict(&mut x_got, &b, &mut c_got, 1.15, sweeps, &ws, &exec);
                    assert_eq!(
                        x_got.as_slice(),
                        x_want.as_slice(),
                        "x: n={n} sweeps={sweeps} {exec:?}"
                    );
                    assert_eq!(
                        c_got.as_slice(),
                        c_want.as_slice(),
                        "coarse: n={n} sweeps={sweeps} {exec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_post_edge_bitwise_equal_unfused() {
        let ws = Workspace::new();
        for n in [5usize, 9, 17, 33] {
            let nc = coarse_size(n);
            let correction = Grid2d::from_fn(nc, |i, j| {
                if i == 0 || j == 0 || i == nc - 1 || j == nc - 1 {
                    0.0
                } else {
                    ((i * 7 + j * 3) % 11) as f64 / 4.0 - 1.0
                }
            });
            for sweeps in [0usize, 1, 2] {
                let (x0, b) = test_problem(n);
                let mut x_want = x0.clone();
                interpolate_correct(&correction, &mut x_want, &Exec::seq());
                sor_sweeps(&mut x_want, &b, 1.15, sweeps, &Exec::seq());

                for exec in backends() {
                    let mut x_got = x0.clone();
                    interpolate_correct_relax(
                        &correction,
                        &mut x_got,
                        &b,
                        1.15,
                        sweeps,
                        &ws,
                        &exec,
                    );
                    assert_eq!(
                        x_got.as_slice(),
                        x_want.as_slice(),
                        "n={n} sweeps={sweeps} {exec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_pre_edge_matches_sweep_plus_reference_restriction() {
        // Cross-check against the *unfused* reference composition, not
        // just residual_restrict.
        let ws = Workspace::new();
        let n = 17;
        let nc = coarse_size(n);
        let (x0, b) = test_problem(n);
        let mut x_ref = x0.clone();
        sor_sweep(&mut x_ref, &b, 1.15, &Exec::seq());
        let mut r = Grid2d::zeros(n);
        petamg_grid::residual(&x_ref, &b, &mut r, &Exec::seq());
        let mut c_ref = Grid2d::zeros(nc);
        restrict_full_weighting(&r, &mut c_ref, &Exec::seq());

        let mut x = x0.clone();
        let mut c = Grid2d::zeros(nc);
        relax_residual_restrict(&mut x, &b, &mut c, 1.15, 1, &ws, &Exec::seq());
        assert_eq!(x.as_slice(), x_ref.as_slice());
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn boundary_rows_never_modified() {
        let ws = Workspace::new();
        let (x0, b) = test_problem(17);
        for exec in backends() {
            let mut x = x0.clone();
            sor_sweeps_blocked(&mut x, &b, 1.3, 2, &ws, &exec);
            for k in 0..17 {
                for edge in [0usize, 16] {
                    assert_eq!(x.at(edge, k), x0.at(edge, k), "{exec:?}");
                    assert_eq!(x.at(k, edge), x0.at(k, edge), "{exec:?}");
                }
            }
        }
    }

    #[test]
    fn steady_state_blocked_sweeps_allocate_nothing() {
        let ws = Workspace::new();
        let (x0, b) = test_problem(33);
        for exec in [Exec::seq(), Exec::pbrt(2).with_band(4)] {
            let mut x = x0.clone();
            sor_sweeps_blocked(&mut x, &b, 1.15, 2, &ws, &exec);
            let warm = ws.stats().allocations;
            for _ in 0..5 {
                sor_sweeps_blocked(&mut x, &b, 1.15, 2, &ws, &exec);
            }
            if exec.is_seq() {
                assert_eq!(
                    ws.stats().allocations,
                    warm,
                    "steady-state Seq must not allocate"
                );
            } else {
                // Parallel lease counts depend on task interleaving;
                // the pool still bounds them (no per-iteration growth).
                let after = ws.stats();
                assert!(after.reuses > 0, "pool must be reused");
            }
        }
    }
}
