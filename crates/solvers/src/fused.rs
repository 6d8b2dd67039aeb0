//! Temporally blocked relaxation and fused cycle-edge kernels.
//!
//! A Red-Black SOR sweep is two grid traversals (red half-sweep, then
//! black), and a multigrid cycle brackets its transfer kernels with
//! such sweeps — so the memory system streams the solution grid many
//! times per cycle while each traversal does only a handful of flops
//! per value. This module collapses those traversals:
//!
//! * [`sor_sweeps_blocked_op`] runs `d` full sweeps (`2d` half-sweeps) in
//!   **one traversal** using a wavefront of lagged rows;
//! * [`relax_residual_restrict`] additionally chains the fused
//!   residual + full-weighting restriction behind the wavefront (the
//!   pre-relaxation edge of a V cycle, `RECURSE` lines 4–5 of the
//!   paper);
//! * [`interpolate_correct_relax`] runs the interpolation correction in
//!   front of the wavefront (the post-relaxation edge, `RECURSE` lines
//!   7–8);
//! * [`interpolate_relax_residual_restrict_op`] is both at once: the
//!   **step boundary** between two `RECURSE` applications at one level,
//!   where step `k`'s post edge and step `k + 1`'s pre edge meet. The
//!   correction leads, the half-sweeps of both edges trail it, and the
//!   residual and its restriction trail those — one traversal where
//!   the two edges took two.
//!
//! ## The wavefront
//!
//! A black update of row `i` reads red values of rows `i-1..=i+1`, all
//! of which exist once the red stage has passed row `i+1`. The same
//! holds for every later half-sweep, so a single cursor `t` can carry
//! all `2d` half-sweeps at once, stage `s` trailing `s` rows behind:
//!
//! ```text
//! cursor t:  correct(t)  red₁(t-1)  black₁(t-2)  ...  stage 2d(t-2d)  residual(t-2d-1)
//! ```
//!
//! Each row update is the *same* row body as the staged reference
//! ([`sor_sweep_op`](crate::relax::sor_sweep_op) shares it), reads
//! the same values in the same state, and therefore produces **bitwise
//! identical** results — property-tested in this crate in both SIMD
//! modes. The correction of row `t` precedes every update
//! that reads it; the residual hook trails the last half-sweep by one
//! more row (its three-row stencil needs fully relaxed neighbors),
//! streaming rows into the same rolling three-row window the fused
//! [`petamg_grid::residual_restrict`] uses. Every edge kernel is this
//! one traversal with the correction, the residual, or both left out.
//!
//! ## The staged compositions
//!
//! Each edge is bitwise equal to the staged composition it fuses:
//! [`interpolate_correct`] first for an edge that corrects, then one
//! [`sor_sweep_op`](crate::relax::sor_sweep_op) per sweep, then
//! [`residual_restrict_op`] for an edge that restricts. An edge with no
//! sweeps runs exactly that composition. The tests hold every fused
//! edge to it: this crate's proptests against the Poisson
//! [`sor_sweeps`](crate::relax::sor_sweeps), the workspace conformance
//! suite against `sor_sweep_op` for every operator family.

use petamg_grid::{
    coarse_size, interpolate_correct, interpolate_correct_row, restrict_rows_into,
    zero_boundary_ring, Exec, Grid2d, SimdMode, Workspace,
};
use petamg_problems::{residual_restrict_op, StencilOp};

/// One cursor step of the red/black wavefront over the interior rows
/// `1..n-1` of `x`: stage `s` (color `s % 2`) updates row `t - s`, so
/// stage 0 leads at the cursor and the last of the `half_sweeps` stages
/// trails it by `half_sweeps - 1` rows.
#[allow(clippy::too_many_arguments)]
#[inline]
fn wavefront_step(
    op: &StencilOp,
    x: &mut Grid2d,
    b: &Grid2d,
    h2: f64,
    omega: f64,
    half_sweeps: usize,
    t: usize,
    mode: SimdMode,
) {
    for s in 0..half_sweeps.min(t) {
        let r = t - s;
        if r < x.n() - 1 {
            let (up, mid, dn) = x.rows3_mut(r);
            op.sor_row_update(r, up, mid, dn, b.row(r), h2, omega, s % 2, mode);
        }
    }
}

/// The one sequential traversal behind every edge kernel of this
/// module. At cursor `t` the interpolation of `correction` (if any) is
/// added to row `t`, half-sweep `s` (0-based) updates row `t − 1 − s`,
/// and the residual of row `r = t − 1 − 2·sweeps` goes into the rolling
/// three-row window from which each odd `r ≥ 3` restricts coarse row
/// `(r − 1)/2` of `coarse` (if any). The window is the only scratch,
/// leased from `ws` only when there is a `coarse` to restrict into.
#[allow(clippy::too_many_arguments)]
fn wavefront(
    op: &StencilOp,
    correction: Option<&Grid2d>,
    x: &mut Grid2d,
    b: &Grid2d,
    coarse: Option<&mut Grid2d>,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    mode: SimdMode,
) {
    let n = x.n();
    let h2 = {
        let h = x.h();
        h * h
    };
    let inv_h2 = x.inv_h2();
    let half = 2 * sweeps;
    // Unzeroed lease: each residual row writes columns 1..n-1 of its
    // third and the restriction reads only those.
    let mut window = coarse.map(|c| (c, ws.acquire_buffer_unzeroed(3 * n)));
    let third = |r: usize| r % 3 * n..(r % 3 + 1) * n;
    for t in 1..n + half {
        if let Some(c) = correction {
            if t < n - 1 {
                let row = &mut x.as_mut_slice()[t * n..(t + 1) * n];
                interpolate_correct_row(t, c.as_slice(), c.n(), row, mode);
            }
        }
        wavefront_step(op, x, b, h2, omega, half, t - 1, mode);
        // Residual row r: rows r-1..=r+1 finished their last half-sweep
        // at cursors <= t, so they are final.
        let r = (t - 1).checked_sub(half).filter(|&r| r > 0);
        if let (Some((coarse, buf)), Some(r)) = (window.as_mut(), r) {
            op.residual_row_into(
                r,
                x.row(r - 1),
                x.row(r),
                x.row(r + 1),
                b.row(r),
                inv_h2,
                &mut buf[third(r)],
                mode,
            );
            if r % 2 == 1 && r >= 3 {
                let (ic, nc) = ((r - 1) / 2, coarse.n());
                let crow = &mut coarse.as_mut_slice()[ic * nc..(ic + 1) * nc];
                restrict_rows_into(
                    &buf[third(r - 2)],
                    &buf[third(r - 1)],
                    &buf[third(r)],
                    crow,
                    mode,
                );
            }
        }
    }
    if let Some((coarse, _)) = window {
        zero_boundary_ring(coarse);
    }
}

/// Panic unless `x` and `b` share a size `op` serves and, for an edge
/// that transfers, `nc` is the next coarser size.
fn assert_sizes(op: &StencilOp, x: &Grid2d, b: &Grid2d, nc: Option<usize>, kernel: &str) {
    assert_eq!(x.n(), b.n(), "size mismatch in {kernel}");
    op.assert_n(x.n());
    if let Some(nc) = nc {
        assert_eq!(
            nc,
            coarse_size(x.n()),
            "coarse grid size mismatch in {kernel}"
        );
    }
}

/// `sweeps` Red-Black SOR sweeps of `op`, temporally blocked: all
/// `2·sweeps` half-sweeps advance together in one wavefront traversal
/// instead of `2·sweeps` separate passes over the grid.
///
/// Bitwise identical to `sweeps` staged
/// [`sor_sweep_op`](crate::relax::sor_sweep_op) calls in both SIMD
/// modes — with [`StencilOp::Poisson`], to
/// [`sor_sweeps`](crate::relax::sor_sweeps). The wavefront runs in
/// place and leases no scratch: `ws` only keeps the edge kernels'
/// signatures alike.
///
/// ```
/// use petamg_grid::{Exec, Grid2d, Workspace};
/// use petamg_problems::StencilOp;
/// use petamg_solvers::{fused::sor_sweeps_blocked_op, relax::sor_sweeps};
///
/// let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
/// let mut blocked = Grid2d::zeros(9);
/// let mut staged = blocked.clone();
/// let ws = Workspace::new();
/// let poisson = StencilOp::Poisson;
/// sor_sweeps_blocked_op(&poisson, &mut blocked, &b, 1.15, 3, &ws, &Exec::seq());
/// sor_sweeps(&mut staged, &b, 1.15, 3, &Exec::seq());
/// assert_eq!(blocked.as_slice(), staged.as_slice());
/// ```
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
    assert_sizes(op, x, b, None, "sor_sweeps_blocked_op");
    if sweeps == 0 {
        return;
    }
    wavefront(op, None, x, b, None, omega, sweeps, ws, exec.simd());
}

/// The fused pre-relaxation cycle edge: `sweeps` SOR sweeps on
/// `A_h x = b` **and** the fused residual + full-weighting restriction
/// into `coarse`, all in one wavefront traversal — the residual stage
/// trails the last half-sweep by one row, feeding the same rolling
/// three-row window as [`petamg_grid::residual_restrict`].
///
/// Bitwise identical to
/// [`sor_sweeps`](crate::relax::sor_sweeps) followed by
/// [`petamg_grid::residual_restrict`]; with `sweeps == 0` it *is*
/// [`petamg_grid::residual_restrict`].
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
/// pre-relaxation cycle edge of `op`. Bitwise identical to `sweeps`
/// [`sor_sweep_op`](crate::relax::sor_sweep_op) calls
/// followed by [`residual_restrict_op`]; with
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
    assert_sizes(op, x, b, Some(coarse.n()), "relax_residual_restrict");
    if sweeps == 0 {
        residual_restrict_op(op, x, b, coarse, ws, exec);
        return;
    }
    wavefront(op, None, x, b, Some(coarse), omega, sweeps, ws, exec.simd());
}

/// The fused post-relaxation cycle edge: add the bilinear interpolation
/// of `coarse` into `x` (`x += P e`) **and** run `sweeps` SOR sweeps on
/// `A_h x = b`, in one wavefront traversal — the correction stage leads
/// and the half-sweeps trail it row by row.
///
/// Bitwise identical to [`interpolate_correct`] followed by
/// [`sor_sweeps`](crate::relax::sor_sweeps); with `sweeps == 0` it
/// *is* [`interpolate_correct`]. Neither path leases scratch: `ws` only
/// keeps the edge kernels' signatures alike.
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
    assert_sizes(op, x, b, Some(coarse.n()), "interpolate_correct_relax");
    if sweeps == 0 {
        interpolate_correct(coarse, x, exec);
        return;
    }
    wavefront(op, Some(coarse), x, b, None, omega, sweeps, ws, exec.simd());
}

/// The fused step boundary between two `RECURSE` applications at one
/// level: add the interpolation of `correction` into `x`, run `sweeps`
/// SOR sweeps of `op` (the first step's post-relaxation and the next
/// step's pre-relaxation together), and residual-restrict the result
/// into `coarse` — one wavefront traversal where the post edge
/// ([`interpolate_correct_relax_op`]) and the pre edge
/// ([`relax_residual_restrict_op`]) took two.
///
/// Bitwise identical to [`interpolate_correct`], `sweeps`
/// [`sor_sweep_op`](crate::relax::sor_sweep_op) calls and
/// [`residual_restrict_op`] in turn — and so to the post edge with any
/// `k ≤ sweeps` sweeps followed by the pre edge with the other
/// `sweeps − k`. With `sweeps == 0` it runs that staged composition.
///
/// # Panics
/// Panics if sizes differ, `correction` and `coarse` are not the next
/// coarser size, or the operator is bound to another size.
#[allow(clippy::too_many_arguments)]
pub fn interpolate_relax_residual_restrict_op(
    op: &StencilOp,
    correction: &Grid2d,
    x: &mut Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    let kernel = "interpolate_relax_residual_restrict";
    assert_sizes(op, x, b, Some(correction.n()), kernel);
    assert_sizes(op, x, b, Some(coarse.n()), kernel);
    if sweeps == 0 {
        interpolate_correct(correction, x, exec);
        residual_restrict_op(op, x, b, coarse, ws, exec);
        return;
    }
    wavefront(
        op,
        Some(correction),
        x,
        b,
        Some(coarse),
        omega,
        sweeps,
        ws,
        exec.simd(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::{sor_sweep, sor_sweeps};
    use petamg_grid::{residual_restrict, restrict_full_weighting};
    use petamg_problems::{CoeffProfile, StencilCoeffs};
    use std::sync::Arc;

    fn test_problem(n: usize) -> (Grid2d, Grid2d) {
        let mut x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
        (x, b)
    }

    /// A coarse correction with a zero boundary ring.
    fn test_correction(nc: usize) -> Grid2d {
        Grid2d::from_fn(nc, |i, j| {
            if i == 0 || j == 0 || i == nc - 1 || j == nc - 1 {
                0.0
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 4.0 - 1.0
            }
        })
    }

    /// Poisson and a ×1000-jump variable-coefficient operator at `n`.
    fn test_ops(n: usize) -> [StencilOp; 2] {
        let field = CoeffProfile::JumpInclusion { ratio: 1000.0 }.vertex_field(n);
        let var = StencilCoeffs::from_vertex_field(n, &field);
        [StencilOp::Poisson, StencilOp::Var(Arc::new(var))]
    }

    /// The sequential executor in both SIMD modes.
    fn modes() -> [Exec; 2] {
        [SimdMode::Scalar, SimdMode::Vector].map(|mode| Exec::seq().with_simd(mode))
    }

    #[test]
    fn blocked_sweeps_bitwise_equal_staged() {
        let ws = Workspace::new();
        for n in [5usize, 9, 17, 33] {
            for sweeps in [1usize, 2, 3] {
                let (x0, b) = test_problem(n);
                let mut want = x0.clone();
                sor_sweeps(&mut want, &b, 1.15, sweeps, &Exec::seq());
                for exec in modes() {
                    let mut got = x0.clone();
                    sor_sweeps_blocked_op(
                        &StencilOp::Poisson,
                        &mut got,
                        &b,
                        1.15,
                        sweeps,
                        &ws,
                        &exec,
                    );
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
        sor_sweeps_blocked_op(&StencilOp::Poisson, &mut x, &b, 1.15, 0, &ws, &Exec::seq());
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

                for exec in modes() {
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
            let correction = test_correction(nc);
            for sweeps in [0usize, 1, 2] {
                let (x0, b) = test_problem(n);
                let mut x_want = x0.clone();
                interpolate_correct(&correction, &mut x_want, &Exec::seq());
                sor_sweeps(&mut x_want, &b, 1.15, sweeps, &Exec::seq());

                for exec in modes() {
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

    /// The step boundary equals a post edge of `post` sweeps followed
    /// by a pre edge of `pre` sweeps, for every split of its sweeps, in
    /// both SIMD modes, for Poisson and a variable-coefficient operator.
    #[test]
    fn fused_step_boundary_bitwise_equal_post_then_pre_edge() {
        let ws = Workspace::new();
        let seq = Exec::seq();
        for n in [5usize, 9, 17, 33] {
            let nc = coarse_size(n);
            let correction = test_correction(nc);
            let (x0, b) = test_problem(n);
            for op in test_ops(n) {
                for (post, pre) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1), (2, 0), (1, 2)] {
                    let mut x_want = x0.clone();
                    let mut c_want = Grid2d::zeros(nc);
                    interpolate_correct_relax_op(
                        &op,
                        &correction,
                        &mut x_want,
                        &b,
                        1.15,
                        post,
                        &ws,
                        &seq,
                    );
                    relax_residual_restrict_op(
                        &op,
                        &mut x_want,
                        &b,
                        &mut c_want,
                        1.15,
                        pre,
                        &ws,
                        &seq,
                    );

                    for exec in modes() {
                        let mut x_got = x0.clone();
                        let mut c_got = Grid2d::from_fn(nc, |_, _| 42.0);
                        interpolate_relax_residual_restrict_op(
                            &op,
                            &correction,
                            &mut x_got,
                            &b,
                            &mut c_got,
                            1.15,
                            post + pre,
                            &ws,
                            &exec,
                        );
                        let case =
                            format!("{} n={n} post={post} pre={pre} {exec:?}", op.describe());
                        assert_eq!(x_got.as_slice(), x_want.as_slice(), "x: {case}");
                        assert_eq!(c_got.as_slice(), c_want.as_slice(), "coarse: {case}");
                    }
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
        for exec in modes() {
            let mut x = x0.clone();
            sor_sweeps_blocked_op(&StencilOp::Poisson, &mut x, &b, 1.3, 2, &ws, &exec);
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
        let exec = Exec::seq();
        let mut x = x0.clone();
        sor_sweeps_blocked_op(&StencilOp::Poisson, &mut x, &b, 1.15, 2, &ws, &exec);
        let warm = ws.stats().allocations;
        for _ in 0..5 {
            sor_sweeps_blocked_op(&StencilOp::Poisson, &mut x, &b, 1.15, 2, &ws, &exec);
        }
        assert_eq!(
            ws.stats().allocations,
            warm,
            "steady-state sweeps must not allocate"
        );
    }
}
