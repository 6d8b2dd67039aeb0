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

use petamg_grid::{l2_diff, l2_norm_interior, Exec, Grid2d};
use petamg_problems::{residual_norm_op, Problem};
use petamg_solvers::{DirectSolverCache, MgConfig, ReferenceSolver};
use std::sync::Arc;

/// Cap reported accuracy ratios (direct solves produce zero error up to
/// roundoff; their ratio is "infinite"). Any ratio at or above this value
/// means "exact for all tuning purposes".
pub const ACC_CAP: f64 = 1e30;

/// Largest grid size solved exactly by band Cholesky when building
/// reference solutions; beyond this, a deeply-converged multigrid solve
/// is used instead (factor memory/time grows as N⁴).
pub const DIRECT_REFERENCE_MAX_N: usize = 129;

/// The accuracy level achieved going from `x_in` to `x_out` against the
/// optimal solution `x_opt` (capped at [`ACC_CAP`]).
///
/// Edge cases: if the input error is zero the ratio is defined as
/// [`ACC_CAP`] (nothing to improve); if only the output error is zero the
/// solve was exact, also [`ACC_CAP`].
pub fn error_ratio(x_in: &Grid2d, x_out: &Grid2d, x_opt: &Grid2d, exec: &Exec) -> f64 {
    let e_in = l2_diff(x_in, x_opt, exec);
    let e_out = l2_diff(x_out, x_opt, exec);
    ratio_of_errors(e_in, e_out)
}

/// The same metric from precomputed error norms.
pub fn ratio_of_errors(e_in: f64, e_out: f64) -> f64 {
    if e_in == 0.0 {
        return ACC_CAP;
    }
    if e_out == 0.0 {
        return ACC_CAP;
    }
    (e_in / e_out).min(ACC_CAP)
}

/// Result of an accuracy evaluation.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyReport {
    /// Error norm before the solve.
    pub error_in: f64,
    /// Error norm after the solve.
    pub error_out: f64,
    /// The accuracy level `error_in / error_out` (capped).
    pub ratio: f64,
}

impl AccuracyReport {
    /// Evaluate the metric for a finished solve.
    pub fn evaluate(x_in: &Grid2d, x_out: &Grid2d, x_opt: &Grid2d, exec: &Exec) -> Self {
        let error_in = l2_diff(x_in, x_opt, exec);
        let error_out = l2_diff(x_out, x_opt, exec);
        AccuracyReport {
            error_in,
            error_out,
            ratio: ratio_of_errors(error_in, error_out),
        }
    }
}

/// Compute the reference ("optimal") solution of `A_h x = b` with the
/// Dirichlet boundary taken from `x0`.
///
/// Small grids (≤ [`DIRECT_REFERENCE_MAX_N`]) use the exact band-Cholesky
/// solve; larger grids run FMG + V cycles until the residual stalls at
/// the round-off floor.
pub fn reference_solution(
    x0: &Grid2d,
    b: &Grid2d,
    exec: &Exec,
    cache: &Arc<DirectSolverCache>,
) -> Grid2d {
    reference_solution_for(&Problem::poisson(), x0, b, exec, cache)
}

/// [`reference_solution`] for an arbitrary posed problem: the exact
/// solution of `A x = b` for the problem's operator (banded direct for
/// small sizes, far-converged operator-aware multigrid above
/// [`DIRECT_REFERENCE_MAX_N`]).
pub fn reference_solution_for(
    problem: &Problem,
    x0: &Grid2d,
    b: &Grid2d,
    exec: &Exec,
    cache: &Arc<DirectSolverCache>,
) -> Grid2d {
    let n = x0.n();
    let mut x = x0.clone();
    x.zero_interior();
    if n <= DIRECT_REFERENCE_MAX_N {
        cache.solve_op(&mut x, b, &problem.op_for(n));
        return x;
    }
    let solver = ReferenceSolver::with_cache(
        MgConfig {
            exec: exec.clone(),
            problem: problem.clone(),
            ..MgConfig::default()
        },
        Arc::clone(cache),
    );
    let op = problem.op_for(n);
    // Converge until the residual norm stops improving (round-off floor)
    // or drops below a scale-relative epsilon. Non-Poisson operators
    // converge slower per cycle, so the iteration cap is generous and
    // the stall test adaptive.
    let bnorm = l2_norm_interior(b, exec).max(1e-300);
    solver.fmg(&mut x, b);
    let mut prev = f64::INFINITY;
    for _ in 0..200 {
        let rnorm = residual_norm_op(&op, &x, b, solver.workspace(), exec);
        if rnorm <= 1e-14 * bnorm || rnorm >= prev * 0.9 {
            break;
        }
        prev = rnorm;
        solver.vcycle(&mut x, b);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(n: usize) -> (Grid2d, Grid2d) {
        let mut x0 = Grid2d::zeros(n);
        x0.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 * 100.0 - 900.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 1e4 - 1.4e5);
        (x0, b)
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
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution(&x0, &b, &exec, &cache);

        // A poor solve: one SOR sweep. A good solve: five V cycles.
        let mut x_poor = x0.clone();
        petamg_solvers::sor_sweep(&mut x_poor, &b, 1.15, &exec);
        let solver = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
        let mut x_good = x0.clone();
        for _ in 0..5 {
            solver.vcycle(&mut x_good, &b);
        }
        let poor = error_ratio(&x0, &x_poor, &x_opt, &exec);
        let good = error_ratio(&x0, &x_good, &x_opt, &exec);
        assert!(poor > 1.0, "any SOR sweep improves: {poor}");
        assert!(
            good > 1e4 * poor,
            "five V cycles crush one sweep: {good} vs {poor}"
        );
    }

    #[test]
    fn direct_solve_reports_capped_accuracy() {
        let (x0, b) = problem(9);
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution(&x0, &b, &exec, &cache);
        // Solving with the same direct solver gives x == x_opt bitwise.
        let mut x = x0.clone();
        x.zero_interior();
        cache.solve_op(&mut x, &b, &petamg_problems::StencilOp::Poisson);
        assert_eq!(error_ratio(&x0, &x, &x_opt, &exec), ACC_CAP);
    }

    #[test]
    fn large_grid_reference_has_tiny_residual() {
        let (x0, b) = problem(257); // above DIRECT_REFERENCE_MAX_N
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        let x_opt = reference_solution(&x0, &b, &exec, &cache);
        let mut r = Grid2d::zeros(257);
        petamg_grid::residual(&x_opt, &b, &mut r, &exec);
        let rel = l2_norm_interior(&r, &exec) / l2_norm_interior(&b, &exec);
        assert!(rel < 1e-10, "relative residual {rel}");
        // Boundary preserved.
        assert_eq!(x_opt.at(0, 5), x0.at(0, 5));
    }

    #[test]
    fn small_and_large_paths_agree_at_the_boundary_size() {
        // At n = 65 (direct path) vs multigrid-converged: same answer.
        let (x0, b) = problem(65);
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        let direct = reference_solution(&x0, &b, &exec, &cache);

        let solver = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
        let mut mg = x0.clone();
        for _ in 0..40 {
            solver.vcycle(&mut mg, &b);
        }
        let rel = l2_diff(&direct, &mg, &exec) / l2_norm_interior(&direct, &exec);
        assert!(rel < 1e-11, "paths disagree: {rel}");
    }
}
