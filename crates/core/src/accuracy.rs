//! The accuracy metric of §2.2.
//!
//! > "We define an algorithm's accuracy level to be the ratio between
//! > the error norm of its input x_in versus the error norm of its
//! > output x_out compared to the optimal solution x_opt:
//! > ‖x_in − x_opt‖₂ / ‖x_out − x_opt‖₂."
//!
//! Higher is better. The "optimal solution" is the exact solution of the
//! *discrete* system `A_h x = b` (not the PDE), obtained from the direct
//! solver at small sizes and from a far-converged multigrid solve at
//! large sizes.

use crate::plan::{simple_v_family, ExecCtx};
use petamg_grid::{
    coarse_size, interpolate_into, l2_diff, l2_norm_interior, restrict_full_weighting,
    restrict_inject, size_level, Grid2d, SimdMode,
};
use petamg_problems::{residual_norm_op, Problem};
use petamg_solvers::DirectSolverCache;
use std::sync::Arc;

/// Cap reported accuracy ratios (direct solves produce zero error up to
/// roundoff; their ratio is "infinite"). Any ratio at or above this value
/// means "exact for all tuning purposes".
pub(crate) const ACC_CAP: f64 = 1e30;

/// Largest grid size solved exactly by band Cholesky when building
/// reference solutions; beyond this, a deeply-converged multigrid solve
/// is used instead (factor memory/time grows as N⁴).
pub(crate) const DIRECT_REFERENCE_MAX_N: usize = 129;

/// The accuracy level achieved going from `x_in` to `x_out` against the
/// optimal solution `x_opt` (capped at 1e30: at or above it means
/// "exact for all tuning purposes").
///
/// Edge cases: if the input error is zero the ratio is the cap (nothing
/// to improve); if only the output error is zero the solve was exact,
/// also the cap.
pub fn error_ratio(x_in: &Grid2d, x_out: &Grid2d, x_opt: &Grid2d, mode: SimdMode) -> f64 {
    let e_in = l2_diff(x_in, x_opt, mode);
    let e_out = l2_diff(x_out, x_opt, mode);
    ratio_of_errors(e_in, e_out)
}

/// The same metric from precomputed error norms.
pub(crate) fn ratio_of_errors(e_in: f64, e_out: f64) -> f64 {
    if e_in == 0.0 {
        return ACC_CAP;
    }
    if e_out == 0.0 {
        return ACC_CAP;
    }
    (e_in / e_out).min(ACC_CAP)
}

/// The exact solution of `A x = b` for the posed problem's operator,
/// with the Dirichlet boundary taken from `x0`.
///
/// Small grids (≤ [`DIRECT_REFERENCE_MAX_N`]) use the exact band-Cholesky
/// solve; larger grids run one [`reference_fmg`] pass and then
/// `MULTIGRID-V-SIMPLE` cycles until the residual stalls at the
/// round-off floor.
pub(crate) fn reference_solution_for(
    problem: &Problem,
    x0: &Grid2d,
    b: &Grid2d,
    mode: SimdMode,
    cache: &Arc<DirectSolverCache>,
) -> Grid2d {
    let n = x0.n();
    let mut x = x0.clone();
    x.zero_interior();
    if n <= DIRECT_REFERENCE_MAX_N {
        cache.solve_op(&mut x, b, &problem.op_for(n));
        return x;
    }
    let level = size_level(n).expect("reference grids are 2^k + 1 wide");
    let v = simple_v_family(level, &[1.0]);
    let mut ctx = ExecCtx::with_cache(mode, Arc::clone(cache)).with_problem(problem.clone());
    let op = problem.op_for(n);
    // Converge until the residual norm stops improving (round-off floor)
    // or drops below a scale-relative epsilon. Non-Poisson operators
    // converge slower per cycle, so the iteration cap is generous and
    // the stall test adaptive.
    let bnorm = l2_norm_interior(b, &mode).max(1e-300);
    reference_fmg(level, &mut x, b, &mut ctx);
    let mut prev = f64::INFINITY;
    for _ in 0..200 {
        let rnorm = residual_norm_op(&op, &x, b, &ctx.workspace, mode);
        if rnorm <= 1e-14 * bnorm || rnorm >= prev * 0.9 {
            break;
        }
        prev = rnorm;
        v.run(level, 0, &mut x, b, &mut ctx);
    }
    x
}

/// One standard full-multigrid pass (Fig 3, "Reference Full MG") at
/// `level`: restrict the whole problem down to the 3×3 base case, solve
/// it directly, then interpolate the coarse *solution* up and run one
/// `MULTIGRID-V-SIMPLE` cycle per level. Overwrites `x`'s interior
/// (its boundary ring is the Dirichlet data); every kernel runs the
/// operator, cache and workspace `ctx` carries.
///
/// The right-hand side moves down by **full weighting** (boundary data
/// by injection): on rough right-hand sides, injection would alias all
/// high-frequency energy onto the coarse problem and destroy the
/// estimate's value. This nested iteration is not the tuned
/// `ESTIMATE_j`, which restricts a residual and corrects.
pub fn reference_fmg(level: usize, x: &mut Grid2d, b: &Grid2d, ctx: &mut ExecCtx) {
    if level > 1 {
        let nc = coarse_size(x.n());
        let ws = Arc::clone(&ctx.workspace);
        let mut xc = ws.acquire(nc);
        let mut bc = ws.acquire(nc);
        restrict_inject(x, &mut xc); // boundary ring
        restrict_full_weighting(b, &mut bc, ctx.mode);
        xc.zero_interior();
        reference_fmg(level - 1, &mut xc, &bc, ctx);
        interpolate_into(&xc, x);
    }
    simple_v_family(level, &[1.0]).run(level, 0, x, b, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_grid::{level_size, SimdMode};

    fn problem(n: usize) -> (Grid2d, Grid2d) {
        let mut x0 = Grid2d::zeros(n);
        x0.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 * 100.0 - 900.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 1e4 - 1.4e5);
        (x0, b)
    }

    /// `cycles` Poisson `MULTIGRID-V-SIMPLE` cycles on `x`.
    fn v_cycles(x: &mut Grid2d, b: &Grid2d, cycles: usize, cache: Arc<DirectSolverCache>) {
        let level = size_level(x.n()).unwrap();
        let v = simple_v_family(level, &[1.0]);
        let mut ctx = ExecCtx::with_cache(SimdMode::host(), cache);
        for _ in 0..cycles {
            v.run(level, 0, x, b, &mut ctx);
        }
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(ratio_of_errors(0.0, 0.0), ACC_CAP);
        assert_eq!(ratio_of_errors(0.0, 1.0), ACC_CAP);
        assert_eq!(ratio_of_errors(1.0, 0.0), ACC_CAP);
        assert_eq!(ratio_of_errors(10.0, 1.0), 10.0);
        assert_eq!(ratio_of_errors(1.0, 10.0), 0.1);
        assert_eq!(ratio_of_errors(1e300, 1e-300), ACC_CAP);
    }

    #[test]
    fn higher_ratio_means_better_solve() {
        let (x0, b) = problem(17);
        let mode = SimdMode::host();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution_for(&Problem::poisson(), &x0, &b, mode, &cache);

        // A poor solve: one SOR sweep. A good solve: five V cycles.
        let mut x_poor = x0.clone();
        petamg_solvers::sor_sweep(&mut x_poor, &b, 1.15, &mode);
        let mut x_good = x0.clone();
        v_cycles(&mut x_good, &b, 5, cache);
        let poor = error_ratio(&x0, &x_poor, &x_opt, mode);
        let good = error_ratio(&x0, &x_good, &x_opt, mode);
        assert!(poor > 1.0, "any SOR sweep improves: {poor}");
        assert!(
            good > 1e4 * poor,
            "five V cycles crush one sweep: {good} vs {poor}"
        );
    }

    #[test]
    fn direct_solve_reports_capped_accuracy() {
        let (x0, b) = problem(9);
        let mode = SimdMode::host();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution_for(&Problem::poisson(), &x0, &b, mode, &cache);
        // Solving with the same direct solver gives x == x_opt bitwise.
        let mut x = x0.clone();
        x.zero_interior();
        cache.solve_op(&mut x, &b, &petamg_problems::StencilOp::Poisson);
        assert_eq!(error_ratio(&x0, &x, &x_opt, mode), ACC_CAP);
    }

    #[test]
    fn large_grid_reference_has_tiny_residual() {
        let (x0, b) = problem(257); // above DIRECT_REFERENCE_MAX_N
        let mode = SimdMode::host();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution_for(&Problem::poisson(), &x0, &b, mode, &cache);
        let mut r = Grid2d::zeros(257);
        petamg_grid::residual(&x_opt, &b, &mut r, &mode);
        let rel = l2_norm_interior(&r, &mode) / l2_norm_interior(&b, &mode);
        assert!(rel < 1e-10, "relative residual {rel}");
        // Boundary preserved.
        assert_eq!(x_opt.at(0, 5), x0.at(0, 5));
    }

    /// 64-bit FNV-1a over the grid's `f64::to_bits`: a hash whose
    /// algorithm is fixed, unlike `DefaultHasher`'s.
    fn fnv1a(x: &Grid2d) -> u64 {
        x.as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn multigrid_reference_solution_keeps_its_bits() {
        // n = 257 is the smallest size on the multigrid path. The
        // constants were recorded on the reference cycles' own recursive
        // executor, before they ran as the fixed `MULTIGRID-V-SIMPLE`
        // plan; any change to the stall loop, the FMG pass or a kernel
        // moves them.
        let n = 257;
        let (x0, b) = problem(n);
        for (problem, pin) in [
            (Problem::poisson(), 0xf35b_434e_ee4d_c7ceu64),
            (Problem::smooth_sinusoidal(n), 0xfbfc_09bd_fcb2_d26b),
        ] {
            for mode in [SimdMode::Scalar, SimdMode::Vector] {
                let cache = Arc::new(DirectSolverCache::new());
                let x_opt = reference_solution_for(&problem, &x0, &b, mode, &cache);
                assert_eq!(
                    fnv1a(&x_opt),
                    pin,
                    "{} on {mode:?}: {:#018x}",
                    problem.describe(),
                    fnv1a(&x_opt)
                );
            }
        }
    }

    #[test]
    fn small_and_large_paths_agree_at_the_boundary_size() {
        // At n = 65 (direct path) vs V-cycle converged: same answer.
        let (x0, b) = problem(65);
        let mode = SimdMode::host();
        let cache = Arc::new(DirectSolverCache::new());
        let direct = reference_solution_for(&Problem::poisson(), &x0, &b, mode, &cache);

        let mut mg = x0.clone();
        v_cycles(&mut mg, &b, 40, cache);
        let rel = l2_diff(&direct, &mg, mode) / l2_norm_interior(&direct, &mode);
        assert!(rel < 1e-11, "paths disagree: {rel}");
    }

    #[test]
    fn one_fmg_pass_beats_the_zero_guess_and_keeps_the_boundary() {
        // One pass already beats the zero guess by tens of x. (On rough
        // right-hand sides the coarse estimate carries less information
        // than the smooth-data theory assumes, so not the asymptotic
        // O(truncation) of smooth problems.)
        let level = 6;
        let n = level_size(level);
        let (x0, b) = problem(n);
        let mode = SimdMode::host();
        for (problem, factor) in [
            (Problem::poisson(), 0.05),
            (Problem::smooth_sinusoidal(n), 0.1),
        ] {
            let cache = Arc::new(DirectSolverCache::new());
            let x_opt = reference_solution_for(&problem, &x0, &b, mode, &cache);
            let mut ctx = ExecCtx::with_cache(mode, cache).with_problem(problem.clone());
            let mut x = x0.clone();
            reference_fmg(level, &mut x, &b, &mut ctx);
            let err = l2_diff(&x, &x_opt, mode);
            let zero_err = l2_diff(&x0, &x_opt, mode);
            assert!(
                err < factor * zero_err,
                "{}: FMG error {err} vs initial {zero_err}",
                problem.describe()
            );
            for i in 0..n {
                for j in [0, n - 1] {
                    assert_eq!(x.at(i, j), x0.at(i, j));
                    assert_eq!(x.at(j, i), x0.at(j, i));
                }
            }
        }
    }

    #[test]
    fn warm_fmg_passes_allocate_nothing() {
        let level = 6;
        let (x0, b) = problem(level_size(level));
        let mut ctx = ExecCtx::new(SimdMode::host());
        let mut x = x0.clone();
        reference_fmg(level, &mut x, &b, &mut ctx);
        let warm = ctx.workspace.stats().allocations;
        assert!(warm > 0, "warm-up must have populated the pools");
        for _ in 0..3 {
            reference_fmg(level, &mut x, &b, &mut ctx);
        }
        let after = ctx.workspace.stats();
        assert_eq!(after.allocations, warm, "a warm FMG pass must not allocate");
        assert!(after.reuses > 0, "pools must actually be reused");
    }
}
