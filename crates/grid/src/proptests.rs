//! Property-based tests for the grid substrate invariants that the
//! multigrid theory relies on.

use crate::ops::apply_operator;
use crate::*;
use proptest::prelude::*;

/// Strategy: a grid of side `n` with entries in [-scale, scale] and zero
/// boundary (residual-like data).
fn zero_boundary_grid(n: usize, scale: f64) -> impl Strategy<Value = Grid2d> {
    prop::collection::vec(-scale..scale, (n - 2) * (n - 2)).prop_map(move |vals| {
        let mut g = Grid2d::zeros(n);
        let mut it = vals.into_iter();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                g.set(i, j, it.next().unwrap());
            }
        }
        g
    })
}

/// Interior dot product `Σ a(i,j)·b(i,j)`, for the variational and
/// symmetry properties below.
fn dot_interior(a: &Grid2d, b: &Grid2d) -> f64 {
    a.interior().map(|(i, j)| a.at(i, j) * b.at(i, j)).sum()
}

/// Strategy: an arbitrary full grid (boundary included).
fn any_grid(n: usize, scale: f64) -> impl Strategy<Value = Grid2d> {
    prop::collection::vec(-scale..scale, n * n).prop_map(move |vals| Grid2d::from_vec(n, vals))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Restriction is linear: R(αa + βb) = αR(a) + βR(b).
    #[test]
    fn restriction_is_linear(
        a in zero_boundary_grid(17, 100.0),
        b in zero_boundary_grid(17, 100.0),
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
    ) {
        let e = SimdMode::host();
        let mut combo = Grid2d::zeros(17);
        for i in 0..17 { for j in 0..17 {
            combo.set(i, j, alpha * a.at(i, j) + beta * b.at(i, j));
        }}
        let mut r_combo = Grid2d::zeros(9);
        restrict_full_weighting(&combo, &mut r_combo, e);

        let mut ra = Grid2d::zeros(9);
        let mut rb = Grid2d::zeros(9);
        restrict_full_weighting(&a, &mut ra, e);
        restrict_full_weighting(&b, &mut rb, e);
        for (i, j) in r_combo.interior() {
            let lin = alpha * ra.at(i, j) + beta * rb.at(i, j);
            prop_assert!((r_combo.at(i, j) - lin).abs() < 1e-9,
                "nonlinear at ({},{}): {} vs {}", i, j, r_combo.at(i, j), lin);
        }
    }

    /// Variational property: full weighting is the scaled transpose of
    /// bilinear interpolation, <R f, c> = ¼ <f, P c>.
    #[test]
    fn restriction_is_quarter_transpose_of_interpolation(
        f in zero_boundary_grid(17, 100.0),
        c in zero_boundary_grid(9, 100.0),
    ) {
        let e = SimdMode::host();
        let mut rf = Grid2d::zeros(9);
        restrict_full_weighting(&f, &mut rf, e);
        let mut pc = Grid2d::zeros(17);
        interpolate_into(&c, &mut pc);
        let lhs = dot_interior(&rf, &c);
        let rhs = dot_interior(&f, &pc) / 4.0;
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() < 1e-9 * scale, "{} vs {}", lhs, rhs);
    }

    /// R·P preserves constants in the deep interior (both operators are
    /// partitions of unity), and its delta response has the known 9/16
    /// center weight. (R·P is *not* the identity — it is a smoother.)
    #[test]
    fn restrict_after_interpolate_preserves_constants(v in -50.0f64..50.0) {
        let e = SimdMode::host();
        let mut c = Grid2d::zeros(9);
        for (i, j) in c.clone().interior() { c.set(i, j, v); }
        let mut fine = Grid2d::zeros(17);
        interpolate_into(&c, &mut fine);
        let mut back = Grid2d::zeros(9);
        restrict_full_weighting(&fine, &mut back, e);
        // Deep interior: the 3x3 fine halo of these coarse points is
        // produced entirely from constant-v coarse points.
        for i in 2..7 { for j in 2..7 {
            prop_assert!((back.at(i, j) - v).abs() < 1e-9 * v.abs().max(1.0),
                "RP(const) != const at ({},{}): {} vs {}", i, j, back.at(i, j), v);
        }}
    }

    /// R·P delta response: a unit coarse delta comes back with weight
    /// 9/16 at its own location and 3/32 at edge neighbors.
    #[test]
    fn restrict_after_interpolate_delta_response(v in 0.5f64..50.0) {
        let e = SimdMode::host();
        let mut c = Grid2d::zeros(9);
        c.set(4, 4, v);
        let mut fine = Grid2d::zeros(17);
        interpolate_into(&c, &mut fine);
        let mut back = Grid2d::zeros(9);
        restrict_full_weighting(&fine, &mut back, e);
        prop_assert!((back.at(4, 4) - 9.0 / 16.0 * v).abs() < 1e-12 * v);
        prop_assert!((back.at(4, 3) - 3.0 / 32.0 * v).abs() < 1e-12 * v);
        prop_assert!((back.at(3, 4) - 3.0 / 32.0 * v).abs() < 1e-12 * v);
    }

    /// The residual is affine in x: r(x) = b − A x, so
    /// r(x1) − r(x2) = −A(x1 − x2).
    #[test]
    fn residual_affine_in_x(
        x1 in any_grid(9, 10.0),
        x2 in any_grid(9, 10.0),
        b in any_grid(9, 10.0),
    ) {
        let e = SimdMode::host();
        let (mut r1, mut r2) = (Grid2d::zeros(9), Grid2d::zeros(9));
        residual(&x1, &b, &mut r1, &e);
        residual(&x2, &b, &mut r2, &e);
        let mut dx = Grid2d::zeros(9);
        for i in 0..9 { for j in 0..9 {
            dx.set(i, j, x1.at(i, j) - x2.at(i, j));
        }}
        let mut adx = Grid2d::zeros(9);
        apply_operator(&dx, &mut adx);
        for (i, j) in r1.interior() {
            let lhs = r1.at(i, j) - r2.at(i, j);
            let rhs = -adx.at(i, j);
            let scale = lhs.abs().max(rhs.abs()).max(1.0);
            prop_assert!((lhs - rhs).abs() < 1e-8 * scale);
        }
    }

    /// The operator is symmetric on zero-boundary data:
    /// <A u, v> = <u, A v>.
    #[test]
    fn operator_symmetric(
        u in zero_boundary_grid(9, 10.0),
        v in zero_boundary_grid(9, 10.0),
    ) {
        let (mut au, mut av) = (Grid2d::zeros(9), Grid2d::zeros(9));
        apply_operator(&u, &mut au);
        apply_operator(&v, &mut av);
        let lhs = dot_interior(&au, &v);
        let rhs = dot_interior(&u, &av);
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() < 1e-8 * scale, "{} vs {}", lhs, rhs);
    }

    /// The operator is positive definite on zero-boundary data:
    /// <A u, u> > 0 for u != 0.
    #[test]
    fn operator_positive_definite(u in zero_boundary_grid(9, 10.0)) {
        let e = SimdMode::host();
        prop_assume!(l2_norm_interior(&u, &e) > 1e-6);
        let mut au = Grid2d::zeros(9);
        apply_operator(&u, &mut au);
        prop_assert!(dot_interior(&au, &u) > 0.0);
    }

    /// Fused residual+restriction is bitwise equal to the unfused
    /// composition under sequential execution.
    #[test]
    fn fused_residual_restrict_matches_unfused_seq(
        x in any_grid(17, 100.0),
        b in any_grid(17, 100.0),
    ) {
        let e = SimdMode::host();
        let ws = Workspace::new();
        let mut r = Grid2d::zeros(17);
        residual(&x, &b, &mut r, &e);
        let mut want = Grid2d::zeros(9);
        restrict_full_weighting(&r, &mut want, e);

        let mut got = Grid2d::zeros(9);
        residual_restrict(&x, &b, &mut got, &ws, &e);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    /// Fused residual+restriction stays within 1e-13 relative of the
    /// sequential unfused scalar composition in both SIMD modes. (The
    /// kernels are in fact bitwise equal, so this documents the
    /// guaranteed tolerance.)
    #[test]
    fn fused_residual_restrict_within_tolerance_in_both_modes(
        x in any_grid(33, 100.0),
        b in any_grid(33, 100.0),
    ) {
        let e = SimdMode::Scalar;
        let ws = Workspace::new();
        let mut r = Grid2d::zeros(33);
        residual(&x, &b, &mut r, &e);
        let mut want = Grid2d::zeros(17);
        restrict_full_weighting(&r, &mut want, e);
        let scale = want.interior().map(|(i, j)| want.at(i, j).abs()).fold(1.0, f64::max);

        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut got = Grid2d::zeros(17);
            residual_restrict(&x, &b, &mut got, &ws, &mode);
            let err = l2_diff(&got, &want, e);
            prop_assert!(err <= 1e-13 * scale, "{:?}: err {} scale {}", mode, err, scale);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// Fused interpolate-correct is bitwise equal to the reference
    /// interpolate-add under sequential execution.
    #[test]
    fn fused_interpolate_correct_matches_add_seq(
        c in zero_boundary_grid(9, 100.0),
        base in any_grid(17, 100.0),
    ) {
        let e = SimdMode::host();
        let mut want = base.clone();
        interpolate_add(&c, &mut want);
        let mut got = base.clone();
        interpolate_correct(&c, &mut got, &e);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    /// Fused interpolate-correct stays within 1e-13 relative of the
    /// sequential scalar reference in both SIMD modes (bitwise, in
    /// fact).
    #[test]
    fn fused_interpolate_correct_within_tolerance_in_both_modes(
        c in zero_boundary_grid(17, 100.0),
        base in any_grid(33, 100.0),
    ) {
        let e = SimdMode::Scalar;
        let mut want = base.clone();
        interpolate_add(&c, &mut want);
        let scale = want.interior().map(|(i, j)| want.at(i, j).abs()).fold(1.0, f64::max);

        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut got = base.clone();
            interpolate_correct(&c, &mut got, &mode);
            let err = l2_diff(&got, &want, e);
            prop_assert!(err <= 1e-13 * scale, "{:?}: err {} scale {}", mode, err, scale);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// L2 norm obeys the triangle inequality and absolute homogeneity.
    #[test]
    fn l2_norm_is_a_norm(
        a in zero_boundary_grid(9, 100.0),
        b in zero_boundary_grid(9, 100.0),
        alpha in -5.0f64..5.0,
    ) {
        let e = SimdMode::host();
        let na = l2_norm_interior(&a, &e);
        let nb = l2_norm_interior(&b, &e);
        let mut sum = a.clone();
        sum.axpy(1.0, &b);
        let ns = l2_norm_interior(&sum, &e);
        prop_assert!(ns <= na + nb + 1e-9 * (na + nb).max(1.0));

        let mut scaled = Grid2d::zeros(9);
        for i in 0..9 { for j in 0..9 { scaled.set(i, j, alpha * a.at(i, j)); } }
        let nsc = l2_norm_interior(&scaled, &e);
        prop_assert!((nsc - alpha.abs() * na).abs() < 1e-9 * nsc.max(1.0));
    }
}

/// Strategy: a flat pool of values the SIMD twins tests slice
/// arbitrary-length rows out of (the shim proptest has no flat_map, so
/// lengths are sampled separately and the pool is truncated).
fn value_pool() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vector residual row is bitwise equal to its scalar twin on
    /// arbitrary row lengths (tails of 0–3 elements included).
    #[test]
    fn residual_row_vector_bitwise_equals_scalar(
        pool in value_pool(),
        n in 3usize..48,
        inv_h2 in 1.0f64..1e6,
    ) {
        let row = |k: usize| pool[k * n..(k + 1) * n].to_vec();
        let (up, mid, dn, brow) = (row(0), row(1), row(2), row(3));
        let mut out_s = vec![7.0; n];
        let mut out_v = vec![7.0; n];
        let f = Five::POISSON;
        f.residual_row_into(&up, &mid, &dn, &brow, inv_h2, &mut out_s, SimdMode::Scalar);
        f.residual_row_into(&up, &mid, &dn, &brow, inv_h2, &mut out_v, SimdMode::Vector);
        prop_assert_eq!(out_s, out_v);
    }

    /// The vector full-weighting restriction row is bitwise equal to
    /// its scalar twin for every coarse width.
    #[test]
    fn restrict_row_vector_bitwise_equals_scalar(
        pool in value_pool(),
        nc in 3usize..32,
    ) {
        let nf = 2 * (nc - 1) + 1;
        let row = |k: usize| pool[k * nf..(k + 1) * nf].to_vec();
        let (r_up, r_mid, r_dn) = (row(0), row(1), row(2));
        let mut out_s = vec![3.0; nc];
        let mut out_v = vec![3.0; nc];
        restrict_rows_into(&r_up, &r_mid, &r_dn, &mut out_s, SimdMode::Scalar);
        restrict_rows_into(&r_up, &r_mid, &r_dn, &mut out_v, SimdMode::Vector);
        prop_assert_eq!(out_s, out_v);
    }

    /// The vector interpolation-correction row is bitwise equal to its
    /// scalar twin, on both coincident and midpoint rows.
    #[test]
    fn interpolate_row_vector_bitwise_equals_scalar(
        pool in value_pool(),
        nc in 3usize..24,
        fi_half in 1usize..8,
    ) {
        let nf = 2 * (nc - 1) + 1;
        let cs: Vec<f64> = pool[..nc * nc].to_vec();
        let base: Vec<f64> = pool[nc * nc..nc * nc + nf].to_vec();
        // One coincident and one midpoint row inside the fine interior.
        for fi in [2 * (fi_half % (nc - 1)).max(1), (2 * (fi_half % (nc - 1)) + 1).min(nf - 2)] {
            let mut f_s = base.clone();
            let mut f_v = base.clone();
            interpolate_correct_row(fi, &cs, nc, &mut f_s, SimdMode::Scalar);
            interpolate_correct_row(fi, &cs, nc, &mut f_v, SimdMode::Vector);
            prop_assert_eq!(&f_s, &f_v);
        }
    }

    /// Whole-kernel parity: every public grid kernel produces identical
    /// bits under forced-scalar and forced-vector policies, across
    /// grid sizes that exercise every remainder-tail class.
    #[test]
    fn grid_kernels_mode_invariant(
        x in any_grid(17, 50.0),
        b in any_grid(17, 50.0),
    ) {
        let ws = Workspace::new();
        let e_s = SimdMode::Scalar;
        let e_v = SimdMode::Vector;

        let (mut r_s, mut r_v) = (Grid2d::zeros(17), Grid2d::zeros(17));
        residual(&x, &b, &mut r_s, &e_s);
        residual(&x, &b, &mut r_v, &e_v);
        prop_assert_eq!(r_s.as_slice(), r_v.as_slice());

        let (mut c_s, mut c_v) = (Grid2d::zeros(9), Grid2d::zeros(9));
        restrict_full_weighting(&r_s, &mut c_s, e_s);
        restrict_full_weighting(&r_v, &mut c_v, e_v);
        prop_assert_eq!(c_s.as_slice(), c_v.as_slice());

        let (mut f_s, mut f_v) = (x.clone(), x.clone());
        interpolate_correct(&c_s, &mut f_s, &e_s);
        interpolate_correct(&c_v, &mut f_v, &e_v);
        prop_assert_eq!(f_s.as_slice(), f_v.as_slice());

        let (mut rr_s, mut rr_v) = (Grid2d::zeros(9), Grid2d::zeros(9));
        residual_restrict(&x, &b, &mut rr_s, &ws, &e_s);
        residual_restrict(&x, &b, &mut rr_v, &ws, &e_v);
        prop_assert_eq!(rr_s.as_slice(), rr_v.as_slice());

        // Norms: both modes run the fixed-lane tree — identical bits.
        prop_assert_eq!(l2_diff(&x, &b, e_s).to_bits(), l2_diff(&x, &b, e_v).to_bits());
    }
}
