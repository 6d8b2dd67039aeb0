//! Property tests pinning the operator-family determinism contract:
//!
//! * `a ≡ 1` variable coefficients ≡ Poisson, **bitwise**, in both SIMD
//!   modes (the conformance anchor of the whole subsystem);
//! * unit-weight anisotropic ≡ Poisson, bitwise;
//! * a constant coefficient field ≡ the constant stencil of its
//!   weights, bitwise — with the two above, the three weight kinds of
//!   `petamg_grid::Five` agree pairwise;
//! * vector ≡ scalar for every weighted kernel, including 0–3 lane
//!   tails (grid sizes 5..=16 sweep every tail length);
//! * fused residual+restrict ≡ staged, bitwise, per operator;
//! * coefficient coarsening stays inside the fine field's range.

use crate::coeffs::{coarsen_vertex_field, StencilCoeffs};
use crate::kernels::{residual_op, residual_restrict_op};
use crate::op::StencilOp;
use crate::Problem;
use petamg_grid::{restrict_full_weighting, Exec, Grid2d, SimdMode, Workspace};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: an arbitrary full grid (boundary included).
fn any_grid(n: usize, scale: f64) -> impl Strategy<Value = Grid2d> {
    prop::collection::vec(-scale..scale, n * n).prop_map(move |vals| Grid2d::from_vec(n, vals))
}

/// Strategy: a strictly positive coefficient field with jumps up to
/// three orders of magnitude.
fn coeff_field(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..50.0, n * n)
}

fn exec(mode: SimdMode) -> Exec {
    Exec::seq().with_simd(mode)
}

/// One full red/black SOR sweep driven row-by-row through
/// [`StencilOp::sor_row_update`] (the canonical row body).
fn op_sor_sweep(op: &StencilOp, x: &mut Grid2d, b: &Grid2d, omega: f64, mode: SimdMode) {
    let n = x.n();
    let h2 = {
        let h = x.h();
        h * h
    };
    for color in 0..2 {
        for i in 1..n - 1 {
            let (up, mid, dn) = x.rows3_mut(i);
            op.sor_row_update(i, up, mid, dn, b.row(i), h2, omega, color, mode);
        }
    }
}

/// The constant coefficient field `a` at size `n` as a
/// [`StencilOp::Var`], and the [`StencilOp::ConstFive`] carrying the
/// very weights that field derives (every interior cell has the same).
fn constant_field_ops(n: usize, a: f64) -> (StencilOp, StencilOp) {
    let cf = StencilCoeffs::from_vertex_field(n, &vec![a; n * n]);
    let constant = StencilOp::ConstFive {
        cw: cf.w_row(1)[1],
        ce: cf.e_row(1)[1],
        cn: cf.n_row(1)[1],
        cs: cf.s_row(1)[1],
        cc: cf.diagonal_row(1).at(1),
        inv_cc: cf.ic_row(1)[1],
    };
    (constant, StencilOp::Var(Arc::new(cf)))
}

/// `StencilOp::Var` with `a ≡ 1` at size `n`.
fn unit_var_op(n: usize) -> StencilOp {
    StencilOp::Var(Arc::new(StencilCoeffs::from_vertex_field(
        n,
        &vec![1.0; n * n],
    )))
}

/// `StencilOp::ConstFive` with unit weights.
fn unit_const_five() -> StencilOp {
    StencilOp::ConstFive {
        cw: 1.0,
        ce: 1.0,
        cn: 1.0,
        cs: 1.0,
        cc: 4.0,
        inv_cc: 0.25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The variable-coefficient operator with `a ≡ 1` matches the
    /// Poisson kernels **bitwise** — residual and SOR — in both SIMD
    /// modes (the conformance anchor), and so does the unit constant
    /// stencil; a constant coefficient field matches the constant
    /// stencil of its weights. Together: a unit weight, an `f64` weight
    /// and a per-cell weight row agree pairwise wherever they carry the
    /// same value. Sizes 17 and 33 run the SOR body through several
    /// 8-column chunks plus a tail.
    #[test]
    fn unit_coefficients_match_poisson_bitwise(
        xs in prop::collection::vec(-50.0f64..50.0, 33 * 33),
        bs in prop::collection::vec(-50.0f64..50.0, 33 * 33),
        omega in 0.8f64..1.9,
        a in 0.05f64..50.0,
    ) {
        for n in [17usize, 33] {
            let x = Grid2d::from_vec(n, xs[..n * n].to_vec());
            let b = Grid2d::from_vec(n, bs[..n * n].to_vec());
            let (constant_a, var_a) = constant_field_ops(n, a);
            // (reference, operators that must reproduce its bits).
            let groups = [
                (StencilOp::Poisson, vec![unit_var_op(n), unit_const_five()]),
                (constant_a, vec![var_a]),
            ];
            for mode in [SimdMode::Scalar, SimdMode::Vector] {
                let e = exec(mode);
                let mode = e.simd();
                for (reference, twins) in &groups {
                    for op in twins {
                        // Residual.
                        let mut r_ref = Grid2d::zeros(n);
                        residual_op(reference, &x, &b, &mut r_ref, &e);
                        let mut r_op = Grid2d::from_fn(n, |_, _| 7.0);
                        residual_op(op, &x, &b, &mut r_op, &e);
                        prop_assert_eq!(r_op.as_slice(), r_ref.as_slice());

                        // SOR (two sweeps to mix colors and rows).
                        let mut x_ref = x.clone();
                        let mut x_op = x.clone();
                        for _ in 0..2 {
                            op_sor_sweep(reference, &mut x_ref, &b, omega, mode);
                            op_sor_sweep(op, &mut x_op, &b, omega, mode);
                        }
                        prop_assert_eq!(x_op.as_slice(), x_ref.as_slice());

                    }
                }
            }
        }
    }

    /// Vector and scalar paths are bitwise identical for random
    /// coefficient fields. Sizes 5..=16 sweep every remainder-tail
    /// length (0–3 lanes) of the vector kernels.
    #[test]
    fn vector_equals_scalar_for_random_coefficients(
        n in 5usize..=16,
        seed in 0u64..1000,
        omega in 0.8f64..1.9,
    ) {
        let field: Vec<f64> = (0..n * n)
            .map(|k| 0.1 + ((k as u64 * 2654435761 + seed * 97) % 1000) as f64 / 10.0)
            .collect();
        let var = StencilOp::Var(Arc::new(StencilCoeffs::from_vertex_field(n, &field)));
        let aniso = StencilOp::anisotropic(0.01 + (seed % 90) as f64 / 100.0);
        let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17 + seed as usize) % 103) as f64 / 7.0 - 5.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);

        for op in [var, aniso] {
            let mut r_s = Grid2d::zeros(n);
            residual_op(&op, &x, &b, &mut r_s, &exec(SimdMode::Scalar));
            let mut r_v = Grid2d::zeros(n);
            residual_op(&op, &x, &b, &mut r_v, &exec(SimdMode::Vector));
            prop_assert_eq!(r_s.as_slice(), r_v.as_slice());

            let mut x_s = x.clone();
            op_sor_sweep(&op, &mut x_s, &b, omega, SimdMode::Scalar);
            let mut x_v = x.clone();
            op_sor_sweep(&op, &mut x_v, &b, omega, SimdMode::Vector);
            prop_assert_eq!(x_s.as_slice(), x_v.as_slice());
        }
    }

    /// The fused residual+restriction pass is bitwise identical to the
    /// staged composition for random coefficient fields, in both SIMD
    /// modes.
    #[test]
    fn fused_residual_restrict_bitwise_equals_staged(
        field in coeff_field(17),
        x in any_grid(17, 50.0),
        b in any_grid(17, 50.0),
    ) {
        let n = 17;
        let ws = Workspace::new();
        let op = StencilOp::Var(Arc::new(StencilCoeffs::from_vertex_field(n, &field)));
        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let e = exec(mode);
            let mut r = Grid2d::zeros(n);
            residual_op(&op, &x, &b, &mut r, &e);
            let mut want = Grid2d::zeros(9);
            restrict_full_weighting(&r, &mut want, &e);
            let mut got = Grid2d::from_fn(9, |_, _| 4.5);
            residual_restrict_op(&op, &x, &b, &mut got, &ws, &e);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// Coefficient coarsening is an average: every coarse vertex value
    /// stays within the fine field's [min, max].
    #[test]
    fn coarsening_stays_in_range(field in coeff_field(17)) {
        let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (mut n, mut level) = (17, field);
        while n > 3 {
            level = coarsen_vertex_field(n, &level);
            n = (n - 1) / 2 + 1;
            prop_assert_eq!(level.len(), n * n);
            for v in &level {
                prop_assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12,
                    "coarse value {} outside [{}, {}]", v, lo, hi);
            }
        }
    }

    /// The canonical problems' fingerprints are stable across
    /// construction (same inputs → same fingerprint, different n →
    /// different fingerprint).
    #[test]
    fn fingerprints_are_deterministic(k in 2usize..=5) {
        let n = (1usize << k) + 1;
        let a = Problem::jump_inclusion(n);
        let b = Problem::jump_inclusion(n);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        if n > 5 {
            let c = Problem::jump_inclusion((n - 1) / 2 + 1);
            prop_assert!(a.fingerprint() != c.fingerprint());
        }
    }
}
