//! Relaxation sweeps.
//!
//! The paper fixes Red-Black SOR as the iteration function (§2.3):
//! ω = ω_opt for standalone iteration (`MULTIGRID-Vi` line 3) and
//! ω = 1.15 inside cycles (`RECURSEi` lines 4/8).
//!
//! In red-black ordering a red cell `(i+j even)` reads only black
//! neighbors and vice versa, so a half-sweep's result does not depend on
//! the order its rows are visited in.

use petamg_grid::{BatchGrid, Grid2d, SimdMode};
use petamg_problems::StencilOp;

/// The SOR weight inside tuned/reference cycles, fixed by the paper to
/// 1.15 ("chosen by experimentation to be a good parameter when used in
/// multigrid").
pub const OMEGA_CYCLE: f64 = 1.15;

/// Optimal SOR weight for the 2D discrete Poisson equation with fixed
/// boundaries on an `n×n` grid: `ω_opt = 2 / (1 + sin(π h))`, `h = 1/(n-1)`
/// (Demmel, *Applied Numerical Linear Algebra*).
pub fn omega_opt(n: usize) -> f64 {
    let h = 1.0 / (n as f64 - 1.0);
    2.0 / (1.0 + (std::f64::consts::PI * h).sin())
}

/// One Red-Black SOR sweep (red half-sweep then black half-sweep) for
/// `A_h x = b`: `x_ij ← (1-ω)·x_ij + ω·(Σ neighbors + h²·b_ij)/4`.
///
/// # Panics
/// Panics if grid sizes differ.
// `&SimdMode` pinned by benchmark/src/probes.rs; ROADMAP 1(i) makes it by value.
pub fn sor_sweep(x: &mut Grid2d, b: &Grid2d, omega: f64, mode: &SimdMode) {
    sor_sweep_op(&StencilOp::Poisson, x, b, omega, mode);
}

/// One Red-Black SOR sweep for operator `op` (`A x = b`): the
/// operator-family generalization of [`sor_sweep`]. With
/// [`StencilOp::Poisson`] it *is* [`sor_sweep`], bit for bit.
///
/// # Panics
/// Panics if grid sizes differ or the operator is bound to another
/// size.
// `&SimdMode` pinned by benchmark/src/probes.rs; ROADMAP 1(i) makes it by value.
pub fn sor_sweep_op(op: &StencilOp, x: &mut Grid2d, b: &Grid2d, omega: f64, mode: &SimdMode) {
    assert_eq!(x.n(), b.n(), "size mismatch in sor_sweep");
    sor_half_sweep_op(op, x, b, omega, 0, *mode); // red: (i + j) % 2 == 0
    sor_half_sweep_op(op, x, b, omega, 1, *mode); // black
}

// Pinned by `benchmark/src/probes.rs` (`solvers.batch_sor_sweep_us_per_system.n129`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub fn batch_sor_sweep_op(
    op: &StencilOp,
    x: &mut BatchGrid,
    b: &BatchGrid,
    omega: f64,
    mode: &SimdMode,
) {
    for (x, b) in x.0.iter_mut().zip(&b.0) {
        sor_sweep_op(op, x, b, omega, mode);
    }
}

/// One half-sweep of operator `op` updating only cells of `color`
/// (`(i+j) % 2 == color`).
///
/// Each row runs through [`StencilOp::sor_row_update`] — **the** SOR
/// row body shared with the temporally blocked wavefront kernels in
/// [`crate::fused`] — so blocked, staged, scalar, and vector paths stay
/// bitwise identical per operator.
pub(crate) fn sor_half_sweep_op(
    op: &StencilOp,
    x: &mut Grid2d,
    b: &Grid2d,
    omega: f64,
    color: usize,
    mode: SimdMode,
) {
    assert!(color < 2);
    assert_eq!(x.n(), b.n(), "size mismatch in sor_half_sweep_op");
    op.assert_n(x.n());
    let n = x.n();
    let h2 = {
        let h = x.h();
        h * h
    };
    for i in 1..n - 1 {
        let (up, mid, dn) = x.rows3_mut(i);
        op.sor_row_update(i, up, mid, dn, b.row(i), h2, omega, color, mode);
    }
}

/// `sweeps` Red-Black SOR sweeps in the staged reference order: the
/// behavioural baseline the temporally blocked
/// [`crate::fused::cycle_edge`] is property-tested against.
pub fn sor_sweeps(x: &mut Grid2d, b: &Grid2d, omega: f64, sweeps: usize, mode: SimdMode) {
    for _ in 0..sweeps {
        sor_sweep(x, b, omega, &mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_grid::{l2_diff, l2_norm_interior, residual};
    use petamg_problems::OpDirect;

    fn test_problem(n: usize) -> (Grid2d, Grid2d, Grid2d) {
        // (x0, b, x_opt): random-ish boundary + rhs, exact solution by
        // direct solve.
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 10.0 - 140.0);
        let mut x_opt = x.clone();
        OpDirect::new(StencilOp::Poisson, n)
            .unwrap()
            .solve(&mut x_opt, &b);
        (x, b, x_opt)
    }

    #[test]
    fn omega_opt_known_values() {
        // h = 1/4 -> omega = 2/(1+sin(pi/4)) ≈ 1.17157...
        let w = omega_opt(5);
        assert!((w - 2.0 / (1.0 + (std::f64::consts::PI / 4.0).sin())).abs() < 1e-14);
        // Larger grids push omega toward 2.
        assert!(omega_opt(1025) > 1.99);
        assert!(omega_opt(5) < omega_opt(9));
        // n = 3: h = 1/2, sin(π/2) = 1 -> ω_opt = 1 exactly (plain GS).
        assert!((omega_opt(3) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sor_monotonically_reduces_error() {
        let (mut x, b, x_opt) = test_problem(17);
        let e = SimdMode::host();
        let mut prev = l2_diff(&x, &x_opt, e);
        for _ in 0..30 {
            sor_sweep(&mut x, &b, omega_opt(17), &e);
            let now = l2_diff(&x, &x_opt, e);
            assert!(now <= prev * 1.0001, "error grew: {prev} -> {now}");
            prev = now;
        }
        assert!(prev < 1e-2 * l2_diff(&Grid2d::zeros(17), &x_opt, e));
    }

    #[test]
    fn sor_converges_to_exact_solution() {
        let (mut x, b, x_opt) = test_problem(9);
        let e = SimdMode::host();
        for _ in 0..500 {
            sor_sweep(&mut x, &b, omega_opt(9), &e);
        }
        assert!(l2_diff(&x, &x_opt, e) < 1e-10 * l2_norm_interior(&x_opt, &e).max(1.0));
    }

    #[test]
    fn exact_solution_is_fixed_point() {
        let (_, b, x_opt) = test_problem(17);
        let e = SimdMode::host();
        let mut x = x_opt.clone();
        sor_sweep(&mut x, &b, 1.3, &e);
        assert!(l2_diff(&x, &x_opt, e) < 1e-9);
    }

    #[test]
    fn red_pass_only_touches_red_cells() {
        let (x0, b, _) = test_problem(9);
        let mut x = x0.clone();
        sor_half_sweep_op(&StencilOp::Poisson, &mut x, &b, 1.15, 0, SimdMode::host());
        for (i, j) in x0.interior() {
            if (i + j) % 2 == 1 {
                assert_eq!(x.at(i, j), x0.at(i, j), "black cell ({i},{j}) changed");
            }
        }
        let mut x2 = x0.clone();
        sor_half_sweep_op(&StencilOp::Poisson, &mut x2, &b, 1.15, 1, SimdMode::host());
        for (i, j) in x0.interior() {
            if (i + j) % 2 == 0 {
                assert_eq!(x2.at(i, j), x0.at(i, j), "red cell ({i},{j}) changed");
            }
        }
    }

    #[test]
    fn boundary_never_modified() {
        let (x0, b, _) = test_problem(9);
        let mut x = x0.clone();
        let e = SimdMode::host();
        for _ in 0..5 {
            sor_sweep(&mut x, &b, 1.5, &e);
        }
        for i in 0..9 {
            for j in [0, 8] {
                assert_eq!(x.at(i, j), x0.at(i, j));
                assert_eq!(x.at(j, i), x0.at(j, i));
            }
        }
    }

    #[test]
    fn gs_residual_decreases() {
        let (mut x, b, _) = test_problem(17);
        let e = SimdMode::host();
        let mut r = Grid2d::zeros(17);
        residual(&x, &b, &mut r, &e);
        let r0 = l2_norm_interior(&r, &e);
        for _ in 0..20 {
            sor_sweep(&mut x, &b, 1.0, &e); // ω = 1: plain Gauss-Seidel
        }
        residual(&x, &b, &mut r, &e);
        let r1 = l2_norm_interior(&r, &e);
        assert!(r1 < 0.5 * r0, "residual {r0} -> {r1}");
    }
}
