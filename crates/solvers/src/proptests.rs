//! Property tests for the temporally blocked kernels: on random grids
//! and random temporal depths, every fused path must be **bitwise
//! identical** to its staged reference composition in both SIMD modes.

use crate::fused::{cycle_edge, interpolate_correct_relax, relax_residual_restrict};
use crate::relax::sor_sweeps;
use petamg_grid::{
    coarse_size, interpolate_correct, residual_restrict, Grid2d, SimdMode, Workspace,
};
use petamg_problems::StencilOp;
use proptest::prelude::*;

/// Strategy: an arbitrary full grid (boundary included).
fn any_grid(n: usize, scale: f64) -> impl Strategy<Value = Grid2d> {
    prop::collection::vec(-scale..scale, n * n).prop_map(move |vals| Grid2d::from_vec(n, vals))
}

/// Strategy: a coarse correction grid with zero boundary.
fn correction_grid(nc: usize, scale: f64) -> impl Strategy<Value = Grid2d> {
    prop::collection::vec(-scale..scale, nc * nc).prop_map(move |vals| {
        let mut g = Grid2d::from_vec(nc, vals);
        g.set_boundary(|_, _| 0.0);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Temporally blocked SOR equals the staged reference bitwise in
    /// both SIMD modes and at every depth.
    #[test]
    fn blocked_sor_bitwise_equal(
        x in any_grid(17, 100.0),
        b in any_grid(17, 100.0),
        sweeps in 1usize..4,
    ) {
        let ws = Workspace::new();
        let mut want = x.clone();
        sor_sweeps(&mut want, &b, 1.15, sweeps, SimdMode::host());
        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut got = x.clone();
            cycle_edge(&StencilOp::Poisson, None, &mut got, &b, None, 1.15, sweeps, &ws, mode);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// The fused pre-relaxation edge (relax + residual + restrict in one
    /// traversal) equals the staged composition bitwise.
    #[test]
    fn fused_pre_edge_bitwise_equal(
        x in any_grid(17, 100.0),
        b in any_grid(17, 100.0),
        sweeps in 0usize..3,
    ) {
        let ws = Workspace::new();
        let nc = coarse_size(17);
        let mut x_want = x.clone();
        sor_sweeps(&mut x_want, &b, 1.15, sweeps, SimdMode::host());
        let mut c_want = Grid2d::zeros(nc);
        residual_restrict(&x_want, &b, &mut c_want, &ws, &SimdMode::host());

        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut x_got = x.clone();
            let mut c_got = Grid2d::zeros(nc);
            relax_residual_restrict(&mut x_got, &b, &mut c_got, 1.15, sweeps, &ws, &mode);
            prop_assert_eq!(x_got.as_slice(), x_want.as_slice());
            prop_assert_eq!(c_got.as_slice(), c_want.as_slice());
        }
    }

    /// The fused post-relaxation edge (interpolate-correct + relax in
    /// one traversal) equals the staged composition bitwise.
    #[test]
    fn fused_post_edge_bitwise_equal(
        x in any_grid(17, 100.0),
        b in any_grid(17, 100.0),
        e in correction_grid(9, 50.0),
        sweeps in 0usize..3,
    ) {
        let ws = Workspace::new();
        let mut want = x.clone();
        interpolate_correct(&e, &mut want, &SimdMode::host());
        sor_sweeps(&mut want, &b, 1.15, sweeps, SimdMode::host());

        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let mut got = x.clone();
            interpolate_correct_relax(&e, &mut got, &b, 1.15, sweeps, &ws, &mode);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The vector SOR row (stride-2 deinterleave/masked-store path) is
    /// bitwise equal to the scalar color walk: whole red-black sweeps
    /// under forced-vector and forced-scalar policies produce identical
    /// bits, across sizes covering every remainder-tail class.
    #[test]
    fn sor_sweep_vector_bitwise_equals_scalar(
        vals in prop::collection::vec(-100.0f64..100.0, 2 * 19 * 19),
        n_idx in 0usize..6,
        sweeps in 1usize..4,
        omega in 0.8f64..1.9,
    ) {
        let n = [5usize, 7, 9, 11, 17, 19][n_idx];
        let x0 = Grid2d::from_vec(n, vals[..n * n].to_vec());
        let b = Grid2d::from_vec(n, vals[n * n..2 * n * n].to_vec());
        let e_s = SimdMode::Scalar;
        let e_v = SimdMode::Vector;
        let mut x_s = x0.clone();
        let mut x_v = x0.clone();
        sor_sweeps(&mut x_s, &b, omega, sweeps, e_s);
        sor_sweeps(&mut x_v, &b, omega, sweeps, e_v);
        prop_assert_eq!(x_s.as_slice(), x_v.as_slice());

        // The wavefront-blocked kernel shares the same row body; the
        // mode must not break its bitwise equality either.
        let ws = Workspace::new();
        let mut x_bv = x0.clone();
        cycle_edge(&StencilOp::Poisson, None, &mut x_bv, &b, None, omega, sweeps, &ws, e_v);
        prop_assert_eq!(x_s.as_slice(), x_bv.as_slice());
    }

    /// Full fused cycle edges are mode-invariant: forced-vector runs
    /// match the forced-scalar reference bitwise.
    #[test]
    fn fused_edges_mode_invariant(
        x in any_grid(17, 100.0),
        b in any_grid(17, 100.0),
        c in correction_grid(9, 50.0),
        sweeps in 0usize..3,
    ) {
        let ws = Workspace::new();
        let nc = coarse_size(17);
        let e_s = SimdMode::Scalar;

        let mut x_want = x.clone();
        let mut c_want = Grid2d::zeros(nc);
        relax_residual_restrict(&mut x_want, &b, &mut c_want, 1.15, sweeps, &ws, &e_s);
        let mut x2_want = x.clone();
        interpolate_correct_relax(&c, &mut x2_want, &b, 1.15, sweeps, &ws, &e_s);

        let e_v = SimdMode::Vector;
        let mut x_got = x.clone();
        let mut c_got = Grid2d::zeros(nc);
        relax_residual_restrict(&mut x_got, &b, &mut c_got, 1.15, sweeps, &ws, &e_v);
        prop_assert_eq!(x_got.as_slice(), x_want.as_slice());
        prop_assert_eq!(c_got.as_slice(), c_want.as_slice());

        let mut x2_got = x.clone();
        interpolate_correct_relax(&c, &mut x2_got, &b, 1.15, sweeps, &ws, &e_v);
        prop_assert_eq!(x2_got.as_slice(), x2_want.as_slice());
    }
}
