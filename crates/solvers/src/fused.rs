//! Temporally blocked relaxation and fused cycle-edge kernels.
//!
//! A Red-Black SOR sweep is two grid traversals (red half-sweep, then
//! black), and a multigrid cycle brackets its transfer kernels with
//! such sweeps — so the memory system streams the solution grid many
//! times per cycle while each traversal does only a handful of flops
//! per value. This module collapses those traversals into one entry
//! point, [`cycle_edge`], whose arguments give its shape: an optional
//! interpolation correction leading, `d` full sweeps (`2d` half-sweeps)
//! in **one traversal** using a wavefront of lagged rows, and an
//! optional fused residual + full-weighting restriction trailing. That
//! covers every traversal a cycle makes:
//!
//! * no correction, no restriction — `d` temporally blocked sweeps (an
//!   SOR solve);
//! * restriction only — the pre-relaxation edge of a V cycle
//!   (`RECURSE` lines 4–5 of the paper);
//! * correction only — the post-relaxation edge (`RECURSE` lines 7–8);
//! * both — the **step boundary** between two `RECURSE` applications
//!   at one level, where step `k`'s post edge and step `k + 1`'s pre
//!   edge meet: one traversal where the two edges took two.
//!
//! `relax_residual_restrict` and `interpolate_correct_relax` are its
//! Poisson pre and post edges, kept only for the benchmark's probes.
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
//! [`petamg_grid::residual_restrict`] uses.
//!
//! ## The staged compositions
//!
//! Every edge is bitwise equal to the staged composition it fuses:
//! [`interpolate_correct`] first for an edge that corrects, then one
//! [`sor_sweep_op`](crate::relax::sor_sweep_op) per sweep, then
//! [`residual_restrict_op`] for an edge that restricts. An edge with no
//! sweeps runs exactly that composition. The staged kernels stay as
//! the oracles the tests hold every shape to: this crate's tests and
//! proptests against the Poisson
//! [`sor_sweeps`](crate::relax::sor_sweeps) and `sor_sweep_op`, the
//! workspace conformance suite against `sor_sweep_op` for every
//! operator family.

use petamg_grid::{
    coarse_size, interpolate_correct, interpolate_correct_row, restrict_rows_into,
    zero_boundary_ring, Grid2d, SimdMode, Workspace,
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

/// The one sequential traversal behind [`cycle_edge`]. At cursor `t`
/// the interpolation of `correction` (if any) is added to row `t`,
/// half-sweep `s` (0-based) updates row `t − 1 − s`,
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

/// The fused cycle edge of `op`: add the bilinear interpolation of
/// `correction` (if any) into `x`, run `sweeps` Red-Black SOR(`omega`)
/// sweeps on `A x = b`, and residual-restrict the result into `coarse`
/// (if any), all in one wavefront traversal. Its arguments give its
/// shape:
///
/// * no correction and no `coarse` — `sweeps` temporally blocked
///   sweeps (an SOR solve runs one per traversal);
/// * `coarse` only — the pre-relaxation edge of a `RECURSE` step (the
///   residual stage trails the last half-sweep by one row, feeding the
///   rolling three-row window of [`petamg_grid::residual_restrict`]);
/// * `correction` only — the post-relaxation edge (the correction
///   leads, the half-sweeps trail it row by row);
/// * both — the step boundary between two `RECURSE` steps at one level:
///   one step's post edge and the next step's pre edge in one traversal,
///   `sweeps` counting both edges' sweeps.
///
/// Bitwise identical, in both SIMD modes, to its staged composition:
/// [`interpolate_correct`] if it corrects, `sweeps`
/// [`sor_sweep_op`](crate::relax::sor_sweep_op) calls, then
/// [`residual_restrict_op`] if it restricts. With `sweeps == 0` it runs
/// that composition. Only a restricting edge leases scratch from `ws`
/// (its three-row window).
///
/// ```
/// use petamg_grid::{Grid2d, SimdMode, Workspace};
/// use petamg_problems::StencilOp;
/// use petamg_solvers::{fused::cycle_edge, relax::sor_sweeps};
///
/// let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
/// let mut blocked = Grid2d::zeros(9);
/// let mut staged = blocked.clone();
/// let ws = Workspace::new();
/// let poisson = StencilOp::Poisson;
/// cycle_edge(&poisson, None, &mut blocked, &b, None, 1.15, 3, &ws, SimdMode::host());
/// sor_sweeps(&mut staged, &b, 1.15, 3, SimdMode::host());
/// assert_eq!(blocked.as_slice(), staged.as_slice());
/// ```
///
/// # Panics
/// Panics if `x` and `b` differ in size, `correction` or `coarse` is
/// not the next coarser size, or the operator is bound to another size.
#[allow(clippy::too_many_arguments)]
pub fn cycle_edge(
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
    assert_eq!(x.n(), b.n(), "size mismatch in cycle_edge");
    op.assert_n(x.n());
    let coarse_sizes = correction.map(Grid2d::n).into_iter();
    for nc in coarse_sizes.chain(coarse.as_deref().map(Grid2d::n)) {
        assert_eq!(nc, coarse_size(x.n()), "coarse size mismatch in cycle_edge");
    }
    if sweeps > 0 {
        wavefront(op, correction, x, b, coarse, omega, sweeps, ws, mode);
        return;
    }
    if let Some(correction) = correction {
        interpolate_correct(correction, x, &mode);
    }
    if let Some(coarse) = coarse {
        residual_restrict_op(op, x, b, coarse, ws, mode);
    }
}

// Pinned by `benchmark/src/probes.rs` (`solvers.relax_residual_restrict_us.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub fn relax_residual_restrict(
    x: &mut Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    mode: &SimdMode,
) {
    let poisson = &StencilOp::Poisson;
    cycle_edge(poisson, None, x, b, Some(coarse), omega, sweeps, ws, *mode);
}

// Pinned by `benchmark/src/probes.rs` (`solvers.interpolate_correct_relax_us.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub fn interpolate_correct_relax(
    coarse: &Grid2d,
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    mode: &SimdMode,
) {
    let poisson = &StencilOp::Poisson;
    cycle_edge(poisson, Some(coarse), x, b, None, omega, sweeps, ws, *mode);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::{sor_sweep, sor_sweep_op};
    use petamg_grid::restrict_full_weighting;
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

    /// Every shape of the edge — with or without a correction, with or
    /// without a restriction, at every depth — equals its staged
    /// composition bit for bit, for Poisson and a variable-coefficient
    /// operator, in both SIMD modes.
    #[test]
    fn every_edge_shape_bitwise_equals_its_staged_composition() {
        let ws = Workspace::new();
        let seq = SimdMode::host();
        for n in [5usize, 9, 17, 33] {
            let nc = coarse_size(n);
            let (x0, b) = test_problem(n);
            let e = test_correction(nc);
            for op in test_ops(n) {
                for (correction, restricts, sweeps) in [None, Some(&e)]
                    .into_iter()
                    .flat_map(|c| [false, true].map(|r| (c, r)))
                    .flat_map(|(c, r)| [0usize, 1, 2, 3].map(|d| (c, r, d)))
                {
                    let mut x_want = x0.clone();
                    if let Some(e) = correction {
                        interpolate_correct(e, &mut x_want, &seq);
                    }
                    for _ in 0..sweeps {
                        sor_sweep_op(&op, &mut x_want, &b, 1.15, &seq);
                    }
                    let mut c_want = Grid2d::from_fn(nc, |_, _| 42.0);
                    if restricts {
                        residual_restrict_op(&op, &x_want, &b, &mut c_want, &ws, seq);
                    }
                    for mode in [SimdMode::Scalar, SimdMode::Vector] {
                        let mut x_got = x0.clone();
                        let mut c_got = Grid2d::from_fn(nc, |_, _| 42.0);
                        let coarse = restricts.then_some(&mut c_got);
                        cycle_edge(
                            &op, correction, &mut x_got, &b, coarse, 1.15, sweeps, &ws, mode,
                        );
                        let case = format!(
                            "{} n={n} corrects={} restricts={restricts} sweeps={sweeps} {mode:?}",
                            op.describe(),
                            correction.is_some()
                        );
                        assert_eq!(x_got.as_slice(), x_want.as_slice(), "x: {case}");
                        assert_eq!(c_got.as_slice(), c_want.as_slice(), "coarse: {case}");
                    }
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
        let seq = SimdMode::host();
        for n in [5usize, 9, 17, 33] {
            let nc = coarse_size(n);
            let correction = test_correction(nc);
            let (x0, b) = test_problem(n);
            for op in test_ops(n) {
                for (post, pre) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1), (2, 0), (1, 2)] {
                    let mut x_want = x0.clone();
                    let mut c_want = Grid2d::zeros(nc);
                    cycle_edge(
                        &op,
                        Some(&correction),
                        &mut x_want,
                        &b,
                        None,
                        1.15,
                        post,
                        &ws,
                        seq,
                    );
                    cycle_edge(
                        &op,
                        None,
                        &mut x_want,
                        &b,
                        Some(&mut c_want),
                        1.15,
                        pre,
                        &ws,
                        seq,
                    );

                    for mode in [SimdMode::Scalar, SimdMode::Vector] {
                        let mut x_got = x0.clone();
                        let mut c_got = Grid2d::from_fn(nc, |_, _| 42.0);
                        cycle_edge(
                            &op,
                            Some(&correction),
                            &mut x_got,
                            &b,
                            Some(&mut c_got),
                            1.15,
                            post + pre,
                            &ws,
                            mode,
                        );
                        let case =
                            format!("{} n={n} post={post} pre={pre} {mode:?}", op.describe());
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
        sor_sweep(&mut x_ref, &b, 1.15, &SimdMode::host());
        let mut r = Grid2d::zeros(n);
        petamg_grid::residual(&x_ref, &b, &mut r, &SimdMode::host());
        let mut c_ref = Grid2d::zeros(nc);
        restrict_full_weighting(&r, &mut c_ref, SimdMode::host());

        let mut x = x0.clone();
        let mut c = Grid2d::zeros(nc);
        relax_residual_restrict(&mut x, &b, &mut c, 1.15, 1, &ws, &SimdMode::host());
        assert_eq!(x.as_slice(), x_ref.as_slice());
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn boundary_rows_never_modified() {
        let ws = Workspace::new();
        let (x0, b) = test_problem(17);
        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut x = x0.clone();
            cycle_edge(
                &StencilOp::Poisson,
                None,
                &mut x,
                &b,
                None,
                1.3,
                2,
                &ws,
                mode,
            );
            for k in 0..17 {
                for edge in [0usize, 16] {
                    assert_eq!(x.at(edge, k), x0.at(edge, k), "{mode:?}");
                    assert_eq!(x.at(k, edge), x0.at(k, edge), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn steady_state_blocked_sweeps_allocate_nothing() {
        let ws = Workspace::new();
        let (x0, b) = test_problem(33);
        let mode = SimdMode::host();
        let mut x = x0.clone();
        cycle_edge(
            &StencilOp::Poisson,
            None,
            &mut x,
            &b,
            None,
            1.15,
            2,
            &ws,
            mode,
        );
        let warm = ws.stats().allocations;
        for _ in 0..5 {
            cycle_edge(
                &StencilOp::Poisson,
                None,
                &mut x,
                &b,
                None,
                1.15,
                2,
                &ws,
                mode,
            );
        }
        assert_eq!(
            ws.stats().allocations,
            warm,
            "steady-state sweeps must not allocate"
        );
    }
}
