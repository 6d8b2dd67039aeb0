//! Grid-level operator kernels: the staged residual/operator sweeps and
//! the fused residual + restriction pass, parameterized by
//! [`StencilOp`].
//!
//! [`residual_op`], [`residual_norm_op`] and [`residual_restrict_op`]
//! *are* the Poisson traversals of `petamg-grid` —
//! `petamg_grid::residual_with`, `petamg_grid::residual_norm_with` and
//! `petamg_grid::residual_restrict_with` — handed the operator's
//! per-row weights, matched once per sweep. So the fused and staged
//! paths are **bitwise identical** in both
//! [`SimdMode`](petamg_grid::SimdMode)s for every operator variant, and
//! with [`StencilOp::Poisson`] they are `petamg_grid::residual` /
//! `petamg_grid::residual_restrict` themselves.

use crate::op::{with_weights, StencilOp};
use petamg_grid::{
    residual_norm_with, residual_restrict_with, residual_with, Exec, Grid2d, Workspace,
};

/// `out = A x` on the interior for operator `op`; `out`'s boundary ring
/// is zeroed.
///
/// This is the scalar **oracle** form of the operator (per-cell
/// [`StencilOp::weights_at`] lookups, no SIMD dispatch): the tests use
/// it to cross-check the streaming kernels. Hot paths go through
/// [`residual_op`] / [`residual_restrict_op`] instead, which stream
/// whole rows in both SIMD modes.
///
/// # Panics
/// Panics if sizes differ or the operator is bound to another size.
#[cfg(test)]
pub(crate) fn apply_operator_op(op: &StencilOp, x: &Grid2d, out: &mut Grid2d) {
    assert_eq!(x.n(), out.n(), "size mismatch in apply_operator_op");
    op.assert_n(x.n());
    let n = x.n();
    let inv_h2 = x.inv_h2();
    let interior = out.as_mut_slice().chunks_exact_mut(n).enumerate();
    for (i, out_row) in interior.take(n - 1).skip(1) {
        let (up, mid, dn) = (x.row(i - 1), x.row(i), x.row(i + 1));
        for j in 1..n - 1 {
            let (cw, ce, cn, cs, cc) = op.weights_at(i, j);
            let v = cc * mid[j] - cn * up[j] - cs * dn[j] - cw * mid[j - 1] - ce * mid[j + 1];
            out_row[j] = v * inv_h2;
        }
    }
    petamg_grid::zero_boundary_ring(out);
}

/// `r = b − A x` on the interior for operator `op`; `r`'s boundary ring
/// is zeroed.
///
/// # Panics
/// Panics if sizes differ or the operator is bound to another size.
pub fn residual_op(op: &StencilOp, x: &Grid2d, b: &Grid2d, r: &mut Grid2d, exec: &Exec) {
    op.assert_n(x.n());
    with_weights!(op, residual, |weights| residual_with(
        weights, x, b, r, exec
    ))
}

/// `‖b − A x‖₂` over the interior for operator `op`, without a
/// residual grid (each row goes through a buffer leased from `ws`).
/// Bitwise [`residual_op`] followed by
/// [`petamg_grid::l2_norm_interior`] under the same `exec`.
///
/// # Panics
/// Panics if sizes differ or the operator is bound to another size.
pub fn residual_norm_op(
    op: &StencilOp,
    x: &Grid2d,
    b: &Grid2d,
    ws: &Workspace,
    exec: &Exec,
) -> f64 {
    op.assert_n(x.n());
    with_weights!(op, residual, |weights| residual_norm_with(
        weights, x, b, ws, exec
    ))
}

/// Fused kernel for operator `op`: compute the residual `r = b − A x`
/// and full-weighting restrict it into `coarse` in a single traversal,
/// never materializing the fine-grid residual. `coarse`'s boundary ring
/// is zeroed.
///
/// Bitwise identical to [`residual_op`] +
/// `petamg_grid::restrict_full_weighting`; with [`StencilOp::Poisson`] it is
/// [`petamg_grid::residual_restrict`].
///
/// # Panics
/// Panics if sizes differ, are not a coarse/fine pair, or the operator
/// is bound to another size.
pub fn residual_restrict_op(
    op: &StencilOp,
    x: &Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    ws: &Workspace,
    exec: &Exec,
) {
    op.assert_n(x.n());
    with_weights!(op, residual, |weights| residual_restrict_with(
        weights, x, b, coarse, ws, exec
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;
    use petamg_grid::{residual, residual_restrict, restrict_full_weighting, SimdMode};

    fn test_grids(n: usize) -> (Grid2d, Grid2d) {
        let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
        (x, b)
    }

    #[test]
    fn poisson_op_residual_bitwise_equals_grid_kernel() {
        let (x, b) = test_grids(33);
        let e = Exec::seq();
        let mut want = Grid2d::zeros(33);
        residual(&x, &b, &mut want, &e);
        let mut got = Grid2d::from_fn(33, |_, _| 9.0);
        residual_op(&StencilOp::Poisson, &x, &b, &mut got, &e);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn poisson_op_fused_bitwise_equals_grid_fused() {
        let ws = Workspace::new();
        let (x, b) = test_grids(33);
        let e = Exec::seq();
        let mut want = Grid2d::zeros(17);
        residual_restrict(&x, &b, &mut want, &ws, &e);
        let mut got = Grid2d::from_fn(17, |_, _| 3.0);
        residual_restrict_op(&StencilOp::Poisson, &x, &b, &mut got, &ws, &e);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn fused_equals_staged_for_every_family_and_simd_mode() {
        let ws = Workspace::new();
        let n = 33;
        let (x, b) = test_grids(n);
        let problems = [
            Problem::poisson(),
            Problem::anisotropic_canonical(),
            Problem::smooth_sinusoidal(n),
            Problem::jump_inclusion(n),
        ];
        for p in &problems {
            let op = p.op_for(n);
            let e = Exec::seq();
            let mut r = Grid2d::zeros(n);
            residual_op(&op, &x, &b, &mut r, &e);
            let mut want = Grid2d::zeros(17);
            restrict_full_weighting(&r, &mut want, &e);
            for mode in [SimdMode::Scalar, SimdMode::Vector] {
                let exec = Exec::seq().with_simd(mode);
                let mut got = Grid2d::from_fn(17, |_, _| 1.5);
                residual_restrict_op(&op, &x, &b, &mut got, &ws, &exec);
                assert_eq!(got.as_slice(), want.as_slice(), "{} {exec:?}", p.describe());
            }
        }
    }

    /// The residual check's norm equals the residual grid's norm bit
    /// for bit, for every family, both SIMD modes, and sizes that hit
    /// every tail of the four-lane row chunks.
    #[test]
    fn residual_norm_equals_residual_then_norm_bit_for_bit() {
        use crate::{CoeffProfile, StencilCoeffs};
        use petamg_grid::l2_norm_interior;
        use std::sync::Arc;
        let ws = Workspace::new();
        // The variable families' levels built straight from their
        // fields, so sizes that are not 2^k + 1 run them too.
        let var = |profile: CoeffProfile, n: usize| {
            let field = profile.vertex_field(n);
            StencilOp::Var(Arc::new(StencilCoeffs::from_vertex_field(n, &field)))
        };
        for n in [3usize, 5, 6, 7, 9, 17, 33] {
            let (x, b) = test_grids(n);
            let ops = [
                StencilOp::Poisson,
                Problem::anisotropic_canonical().op_for(n),
                var(CoeffProfile::SmoothSinusoidal { amplitude: 0.9 }, n),
                var(CoeffProfile::JumpInclusion { ratio: 1000.0 }, n),
            ];
            for op in &ops {
                for mode in [SimdMode::Scalar, SimdMode::Vector] {
                    let exec = Exec::seq().with_simd(mode);
                    let mut r = Grid2d::zeros(n);
                    residual_op(op, &x, &b, &mut r, &exec);
                    let want = l2_norm_interior(&r, &exec);
                    let got = residual_norm_op(op, &x, &b, &ws, &exec);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} n={n} {exec:?}",
                        op.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn apply_operator_matches_residual_identity() {
        // r = b − A x  ⇒  A x = b − r, for every family.
        let n = 17;
        let (x, b) = test_grids(n);
        let e = Exec::seq();
        for p in [
            Problem::poisson(),
            Problem::anisotropic(0.25),
            Problem::jump_inclusion(n),
        ] {
            let op = p.op_for(n);
            let mut ax = Grid2d::zeros(n);
            apply_operator_op(&op, &x, &mut ax);
            let mut r = Grid2d::zeros(n);
            residual_op(&op, &x, &b, &mut r, &e);
            for (i, j) in x.interior() {
                let lhs = ax.at(i, j);
                let rhs = b.at(i, j) - r.at(i, j);
                assert!(
                    (lhs - rhs).abs() <= 1e-9 * lhs.abs().max(1.0),
                    "{} at ({i},{j}): {lhs} vs {rhs}",
                    p.describe()
                );
            }
        }
    }
}
