//! Reference multigrid algorithms.
//!
//! These are the algorithmically *static* baselines of the paper:
//!
//! * `MULTIGRID-V-SIMPLE` (§2.1): a fixed V cycle — one pre-relaxation,
//!   restrict the residual, recurse, interpolate-correct, one
//!   post-relaxation, direct solve at the base case;
//! * "Reference V" (§4.2.2): iterate V cycles until the accuracy target
//!   is met;
//! * "Reference Full MG" (§4.2.2, Fig 3): one standard full multigrid
//!   pass (estimate phase) followed by V cycles until the target is met;
//! * W cycles via `gamma = 2`.

use crate::direct::DirectSolverCache;
use crate::fused::{
    interpolate_correct_relax_op, relax_residual_restrict_op, sor_sweeps_blocked_op,
};
use crate::guard::{GuardFailure, GuardVerdict, SolveGuard, SolveStatus};
use crate::relax::OMEGA_CYCLE;
use petamg_grid::{
    coarse_size, interpolate_into, l2_norm_interior, restrict_full_weighting, restrict_inject,
    Exec, Grid2d, Workspace,
};
use petamg_problems::{residual_norm_op, Problem};
use std::sync::Arc;

/// Configuration for the reference cycles.
#[derive(Clone, Debug)]
pub struct MgConfig {
    /// Pre-smoothing sweeps (paper: 1).
    pub pre_sweeps: usize,
    /// Post-smoothing sweeps (paper: 1).
    pub post_sweeps: usize,
    /// SOR weight inside cycles (paper: 1.15).
    pub omega: f64,
    /// Grid size at which recursion bottoms out into the direct solver
    /// (paper's `MULTIGRID-V-SIMPLE`: 3).
    pub base_n: usize,
    /// Recursive calls per level: 1 = V cycle, 2 = W cycle.
    pub gamma: usize,
    /// Temporal-block depth: how many SOR sweeps fuse into one
    /// wavefront traversal on a sequential executor (see
    /// [`crate::fused`]); a pool runs the sweeps staged. Every value
    /// yields bitwise identical results; it only moves memory traffic,
    /// which is why it is a tuner axis.
    pub tblock: usize,
    /// Execution policy for all sweeps (its band height is the second
    /// kernel-execution tuner axis).
    pub exec: Exec,
    /// The posed problem (which PDE the cycles solve). Defaults to the
    /// constant-coefficient Poisson equation; every level of the cycle
    /// runs the operator [`Problem::op_for`] returns for its size.
    pub problem: Problem,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            pre_sweeps: 1,
            post_sweeps: 1,
            omega: OMEGA_CYCLE,
            base_n: 3,
            gamma: 1,
            tblock: 1,
            exec: Exec::seq(),
            problem: Problem::poisson(),
        }
    }
}

/// Reference (non-autotuned) multigrid solver with a shared direct-solve
/// cache and a per-level scratch workspace.
///
/// Cycles run through the temporally blocked cycle-edge kernels
/// ([`relax_residual_restrict_op`] / [`interpolate_correct_relax_op`]) and
/// lease all coarse-grid scratch from the [`Workspace`], so
/// steady-state cycling performs zero heap allocations.
pub struct ReferenceSolver {
    cfg: MgConfig,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
}

impl ReferenceSolver {
    /// Build a solver from a configuration (fresh factor cache).
    pub fn new(cfg: MgConfig) -> Self {
        Self::with_cache(cfg, Arc::new(DirectSolverCache::new()))
    }

    /// Build with a shared factor cache.
    pub fn with_cache(cfg: MgConfig, cache: Arc<DirectSolverCache>) -> Self {
        ReferenceSolver {
            cfg,
            cache,
            workspace: Arc::new(Workspace::new()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MgConfig {
        &self.cfg
    }

    /// The factor cache (shared with tuned solvers in benches).
    pub fn cache(&self) -> &Arc<DirectSolverCache> {
        &self.cache
    }

    /// The scratch workspace (exposed so tests and benches can assert
    /// its allocation behaviour).
    pub fn workspace(&self) -> &Arc<Workspace> {
        &self.workspace
    }

    /// One multigrid cycle (`MULTIGRID-V-SIMPLE` for `gamma = 1`,
    /// W cycle for `gamma = 2`): improves `x` in place for `A_h x = b`.
    ///
    /// The cycle edges run through the temporally blocked kernels of
    /// [`crate::fused`]: up to `tblock` pre-relaxation sweeps fuse with
    /// the residual + restriction into one traversal, and the
    /// interpolation correction fuses with up to `tblock` post-sweeps.
    /// Results are bitwise identical for every `tblock` and every
    /// [`Exec`] policy.
    pub fn vcycle(&self, x: &mut Grid2d, b: &Grid2d) {
        let n = x.n();
        assert_eq!(n, b.n(), "size mismatch in vcycle");
        let op = self.cfg.problem.op_for(n);
        if n <= self.cfg.base_n {
            self.cache.solve_op(x, b, &op);
            return;
        }
        let exec = &self.cfg.exec;
        let ws = &*self.workspace;
        let omega = self.cfg.omega;
        let depth = self.cfg.tblock.max(1);
        // Pre-relaxation: the last `edge` sweeps fuse with the residual
        // + restriction pass; any earlier sweeps run in blocked chunks.
        let edge = self.cfg.pre_sweeps.min(depth);
        let mut left = self.cfg.pre_sweeps - edge;
        while left > 0 {
            let chunk = left.min(depth);
            sor_sweeps_blocked_op(&op, x, b, omega, chunk, ws, exec);
            left -= chunk;
        }
        // Coarse-grid correction: A e = r, zero boundary, zero initial
        // guess. The residual is restricted in one fused pass (never
        // materialized) and all coarse scratch is leased from the
        // workspace.
        let nc = coarse_size(n);
        let mut bc = self.workspace.acquire(nc);
        relax_residual_restrict_op(&op, x, b, &mut bc, omega, edge, ws, exec);
        let mut ec = self.workspace.acquire(nc);
        for _ in 0..self.cfg.gamma.max(1) {
            self.vcycle(&mut ec, &bc);
        }
        // Post-relaxation: the first `edge2` sweeps fuse with the
        // interpolation correction.
        let edge2 = self.cfg.post_sweeps.min(depth);
        interpolate_correct_relax_op(&op, &ec, x, b, omega, edge2, ws, exec);
        let mut left = self.cfg.post_sweeps - edge2;
        while left > 0 {
            let chunk = left.min(depth);
            sor_sweeps_blocked_op(&op, x, b, omega, chunk, ws, exec);
            left -= chunk;
        }
    }

    /// One standard full-multigrid pass (Fig 3): restrict the whole
    /// problem to the base case, solve there, then interpolate up and
    /// run one cycle per level. Overwrites `x`'s interior (uses `x`'s
    /// boundary ring as Dirichlet data).
    ///
    /// The right-hand side moves to the coarse grid by **full
    /// weighting** (boundary data by injection): on rough right-hand
    /// sides, injection would alias all high-frequency energy onto the
    /// coarse problem and destroy the estimate's value.
    pub fn fmg(&self, x: &mut Grid2d, b: &Grid2d) {
        let n = x.n();
        assert_eq!(n, b.n(), "size mismatch in fmg");
        if n <= self.cfg.base_n {
            let op = self.cfg.problem.op_for(n);
            self.cache.solve_op(x, b, &op);
            return;
        }
        let nc = coarse_size(n);
        let mut xc = self.workspace.acquire(nc);
        let mut bc = self.workspace.acquire(nc);
        restrict_inject(x, &mut xc); // boundary ring
        restrict_full_weighting(b, &mut bc, &self.cfg.exec);
        xc.zero_interior();
        self.fmg(&mut xc, &bc);
        // Lift the coarse solution (boundary stays fine-grid data).
        interpolate_into(&xc, x, &self.cfg.exec);
        self.vcycle(x, b);
    }

    /// Iterate cycles until `done(x)` or `max_iters`; `done` is checked
    /// after each cycle. The returned [`SolveStatus`] distinguishes
    /// converging on exactly the last budgeted cycle from running out
    /// of budget — the old bare-`usize` return conflated the two.
    pub fn solve_v_until(
        &self,
        x: &mut Grid2d,
        b: &Grid2d,
        max_iters: usize,
        mut done: impl FnMut(&Grid2d) -> bool,
    ) -> SolveStatus {
        for it in 1..=max_iters {
            self.vcycle(x, b);
            if done(x) {
                return SolveStatus::Converged { cycles: it };
            }
        }
        SolveStatus::BudgetExhausted { cycles: max_iters }
    }

    /// One FMG pass, then V cycles until `done(x)` or `max_iters`; the
    /// status counts total passes (FMG counts as one).
    pub fn solve_fmg_until(
        &self,
        x: &mut Grid2d,
        b: &Grid2d,
        max_iters: usize,
        mut done: impl FnMut(&Grid2d) -> bool,
    ) -> SolveStatus {
        self.fmg(x, b);
        if done(x) {
            return SolveStatus::Converged { cycles: 1 };
        }
        for it in 2..=max_iters {
            self.vcycle(x, b);
            if done(x) {
                return SolveStatus::Converged { cycles: it };
            }
        }
        SolveStatus::BudgetExhausted { cycles: max_iters }
    }

    /// The relative residual `‖b − A x‖₂ / ‖b‖₂` of the posed
    /// operator's system (row buffers leased from the workspace; the
    /// norm scale is clamped so an all-zero `b` cannot divide by zero).
    pub fn rel_residual(&self, x: &Grid2d, b: &Grid2d) -> f64 {
        let op = self.cfg.problem.op_for(x.n());
        residual_norm_op(&op, x, b, &self.workspace, &self.cfg.exec)
            / l2_norm_interior(b, &self.cfg.exec).max(f64::MIN_POSITIVE)
    }

    /// Iterate guarded V cycles: after every cycle the relative
    /// residual is fed to `guard`, which detects NaN/Inf, divergence,
    /// stagnation, and budget exhaustion (see [`crate::guard`]). On
    /// success the converged status is returned; on failure the typed
    /// [`GuardFailure`] is — `x` then holds the last (possibly bad)
    /// iterate, and the guard's history holds the full residual
    /// trajectory either way.
    pub fn solve_v_guarded(
        &self,
        x: &mut Grid2d,
        b: &Grid2d,
        guard: &mut SolveGuard,
    ) -> Result<SolveStatus, GuardFailure> {
        loop {
            self.vcycle(x, b);
            match guard.observe(self.rel_residual(x, b)) {
                GuardVerdict::Continue => {}
                GuardVerdict::Converged => {
                    return Ok(SolveStatus::Converged {
                        cycles: guard.cycles(),
                    })
                }
                GuardVerdict::Fail(f) => return Err(f),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardConfig;
    use petamg_grid::{l2_diff, l2_norm_interior};
    use petamg_problems::{OpDirect, StencilOp};

    fn test_problem(n: usize) -> (Grid2d, Grid2d, Grid2d) {
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 * 100.0 - 900.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 1e4 - 1.4e5);
        let mut x_opt = x.clone();
        OpDirect::new(StencilOp::Poisson, n)
            .unwrap()
            .solve(&mut x_opt, &b);
        (x, b, x_opt)
    }

    #[test]
    fn vcycle_contracts_error_strongly() {
        let (mut x, b, x_opt) = test_problem(33);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        let e0 = l2_diff(&x, &x_opt, &e);
        solver.vcycle(&mut x, &b);
        let e1 = l2_diff(&x, &x_opt, &e);
        assert!(
            e1 < 0.2 * e0,
            "one V cycle should reduce error by >5x: {e0} -> {e1}"
        );
    }

    #[test]
    fn vcycle_converges_to_machine_precision() {
        let (mut x, b, x_opt) = test_problem(17);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        for _ in 0..30 {
            solver.vcycle(&mut x, &b);
        }
        let rel = l2_diff(&x, &x_opt, &e) / l2_norm_interior(&x_opt, &e).max(1.0);
        assert!(rel < 1e-12, "rel err {rel}");
    }

    #[test]
    fn exact_solution_is_fixed_point_of_vcycle() {
        let (_, b, x_opt) = test_problem(17);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        let mut x = x_opt.clone();
        solver.vcycle(&mut x, &b);
        let scale = l2_norm_interior(&x_opt, &e).max(1.0);
        assert!(l2_diff(&x, &x_opt, &e) < 1e-10 * scale);
    }

    #[test]
    fn base_case_is_direct_solve() {
        let (mut x, b, x_opt) = test_problem(3);
        let solver = ReferenceSolver::new(MgConfig::default());
        solver.vcycle(&mut x, &b);
        assert!((x.at(1, 1) - x_opt.at(1, 1)).abs() < 1e-10);
    }

    #[test]
    fn wcycle_contracts_at_least_as_well_as_v() {
        let (x0, b, x_opt) = test_problem(33);
        let e = Exec::seq();
        let v = ReferenceSolver::new(MgConfig::default());
        let w = ReferenceSolver::new(MgConfig {
            gamma: 2,
            ..MgConfig::default()
        });
        let mut xv = x0.clone();
        let mut xw = x0.clone();
        v.vcycle(&mut xv, &b);
        w.vcycle(&mut xw, &b);
        let ev = l2_diff(&xv, &x_opt, &e);
        let ew = l2_diff(&xw, &x_opt, &e);
        assert!(
            ew <= ev * 1.05,
            "W cycle ({ew}) should contract at least as well as V ({ev})"
        );
    }

    #[test]
    fn fmg_single_pass_hits_good_accuracy() {
        let (mut x, b, x_opt) = test_problem(65);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        let zero_err = l2_diff(&Grid2d::zeros(65), &x_opt, &e);
        solver.fmg(&mut x, &b);
        let err = l2_diff(&x, &x_opt, &e);
        // One FMG pass should already beat the zero guess substantially.
        // (On *rough* random right-hand sides the coarse estimate carries
        // less information than in the smooth-data theory, so expect
        // tens-of-x, not the asymptotic O(truncation) of smooth problems.)
        assert!(
            err < 0.05 * zero_err,
            "FMG error {err} vs initial {zero_err}"
        );
    }

    #[test]
    fn fmg_preserves_boundary() {
        let (x0, b, _) = test_problem(17);
        let mut x = x0.clone();
        let solver = ReferenceSolver::new(MgConfig::default());
        solver.fmg(&mut x, &b);
        for i in 0..17 {
            for j in [0usize, 16] {
                assert_eq!(x.at(i, j), x0.at(i, j));
                assert_eq!(x.at(j, i), x0.at(j, i));
            }
        }
    }

    #[test]
    fn solve_until_counts_iterations() {
        let (mut x, b, x_opt) = test_problem(33);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        let e0 = l2_diff(&x, &x_opt, &e);
        let status = solver.solve_v_until(&mut x, &b, 100, |x| l2_diff(x, &x_opt, &e) <= e0 / 1e5);
        assert!(status.converged());
        let iters = status.cycles();
        assert!(iters > 1 && iters < 20, "iters = {iters}");
        assert!(l2_diff(&x, &x_opt, &e) <= e0 / 1e5);
    }

    #[test]
    fn solve_until_reports_budget_exhaustion() {
        let (mut x, b, _) = test_problem(17);
        let solver = ReferenceSolver::new(MgConfig::default());
        let status = solver.solve_v_until(&mut x, &b, 3, |_| false);
        assert_eq!(status, SolveStatus::BudgetExhausted { cycles: 3 });
        assert!(!status.converged());
    }

    #[test]
    fn convergence_on_the_last_budgeted_cycle_is_distinguishable() {
        // The historical bug this status enum fixes: converging on
        // exactly cycle `max_iters` used to return the same bare count
        // as never converging at all.
        let (x0, b, _) = test_problem(17);
        let solver = ReferenceSolver::new(MgConfig::default());
        let mut calls = 0usize;
        let mut x = x0.clone();
        let status = solver.solve_v_until(&mut x, &b, 3, |_| {
            calls += 1;
            calls == 3
        });
        assert_eq!(status, SolveStatus::Converged { cycles: 3 });
        let mut x = x0.clone();
        let status = solver.solve_v_until(&mut x, &b, 3, |_| false);
        assert_eq!(status, SolveStatus::BudgetExhausted { cycles: 3 });
    }

    #[test]
    fn guarded_solve_converges_on_poisson() {
        let (mut x, b, _) = test_problem(33);
        let solver = ReferenceSolver::new(MgConfig::default());
        let mut guard = SolveGuard::new(GuardConfig::default(), 1e-10);
        let status = solver
            .solve_v_guarded(&mut x, &b, &mut guard)
            .expect("Poisson V cycles converge well inside the budget");
        assert!(status.converged());
        assert!(status.cycles() < 20, "cycles = {}", status.cycles());
        assert!(solver.rel_residual(&x, &b) <= 1e-10);
        // The guard kept the whole residual trajectory.
        assert_eq!(guard.history().len(), status.cycles());
    }

    #[test]
    fn guarded_solve_detects_weak_smoothing_on_strong_anisotropy() {
        // Point relaxation + full coarsening is known-weak on
        // eps = 0.01 anisotropy: the guard must convert that into a
        // typed failure (stagnation, or a budget that is or will be
        // exhausted), not spin forever or return an unconverged x as
        // if it were fine.
        use petamg_problems::Problem;
        let n = 33;
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 10.0 - 140.0);
        let solver = ReferenceSolver::new(MgConfig {
            problem: Problem::anisotropic(0.01),
            ..MgConfig::default()
        });
        let mut guard = SolveGuard::new(
            GuardConfig {
                max_cycles: 25,
                ..GuardConfig::default()
            },
            1e-12,
        );
        let failure = solver
            .solve_v_guarded(&mut x, &b, &mut guard)
            .expect_err("eps=0.01 cannot reach 1e-12 in 25 point-relaxation cycles");
        assert!(
            matches!(
                failure,
                GuardFailure::Stagnated { .. }
                    | GuardFailure::BudgetExhausted { .. }
                    | GuardFailure::BudgetUnreachable { .. }
            ),
            "got {failure}"
        );
    }

    #[test]
    fn guarded_solve_detects_injected_nan() {
        let (mut x, b, _) = test_problem(17);
        let solver = ReferenceSolver::new(MgConfig::default());
        let n = x.n();
        x.set(n / 2, n / 2, f64::NAN);
        let mut guard = SolveGuard::new(GuardConfig::default(), 1e-10);
        let failure = solver
            .solve_v_guarded(&mut x, &b, &mut guard)
            .expect_err("a poisoned iterate must be detected");
        assert!(
            matches!(failure, GuardFailure::NonFinite { cycle: 1 }),
            "got {failure}"
        );
    }

    #[test]
    fn fmg_then_v_reaches_target_faster_than_v_alone() {
        let (x0, b, x_opt) = test_problem(65);
        let e = Exec::seq();
        let solver = ReferenceSolver::new(MgConfig::default());
        let e0 = l2_diff(&x0, &x_opt, &e);
        let target = e0 / 1e7;

        let mut xv = x0.clone();
        let v_iters = solver
            .solve_v_until(&mut xv, &b, 100, |x| l2_diff(x, &x_opt, &e) <= target)
            .cycles();
        let mut xf = x0.clone();
        let f_iters = solver
            .solve_fmg_until(&mut xf, &b, 100, |x| l2_diff(x, &x_opt, &e) <= target)
            .cycles();
        assert!(
            f_iters <= v_iters,
            "FMG ({f_iters}) should need no more passes than V ({v_iters})"
        );
    }

    #[test]
    fn parallel_vcycle_bitwise_equals_sequential() {
        let (x0, b, _) = test_problem(33);
        let seq = ReferenceSolver::new(MgConfig::default());
        let par = ReferenceSolver::new(MgConfig {
            exec: Exec::pbrt(2).with_grain(2),
            ..MgConfig::default()
        });
        let mut xs = x0.clone();
        let mut xp = x0.clone();
        seq.vcycle(&mut xs, &b);
        par.vcycle(&mut xp, &b);
        assert_eq!(xs.as_slice(), xp.as_slice());
    }

    #[test]
    fn tblock_and_band_knobs_do_not_change_results() {
        // The kernel-execution knobs are pure performance axes: every
        // (tblock, band, backend, sweep-count) combination must produce
        // the same bits.
        let (x0, b, _) = test_problem(33);
        let reference = ReferenceSolver::new(MgConfig {
            pre_sweeps: 3,
            post_sweeps: 2,
            ..MgConfig::default()
        });
        let mut x_ref = x0.clone();
        reference.vcycle(&mut x_ref, &b);
        for tblock in [1usize, 2, 3, 5] {
            for exec in [
                Exec::seq(),
                Exec::pbrt(2).with_band(1),
                Exec::pbrt(2).with_band(4),
            ] {
                let solver = ReferenceSolver::new(MgConfig {
                    pre_sweeps: 3,
                    post_sweeps: 2,
                    tblock,
                    exec: exec.clone(),
                    ..MgConfig::default()
                });
                let mut x = x0.clone();
                solver.vcycle(&mut x, &b);
                assert_eq!(x.as_slice(), x_ref.as_slice(), "tblock={tblock} {exec:?}");
            }
        }
    }

    #[test]
    fn steady_state_cycles_allocate_nothing() {
        // After one warm-up cycle the workspace pools hold every scratch
        // grid and row buffer a cycle needs; V, W and FMG cycling must
        // then be allocation-free.
        let (x0, b, _) = test_problem(65);
        for gamma in [1usize, 2] {
            let solver = ReferenceSolver::new(MgConfig {
                gamma,
                ..MgConfig::default()
            });
            let mut x = x0.clone();
            solver.vcycle(&mut x, &b);
            let warm = solver.workspace().stats().allocations;
            assert!(warm > 0, "warm-up must have populated the pools");
            for _ in 0..5 {
                solver.vcycle(&mut x, &b);
            }
            let after = solver.workspace().stats();
            assert_eq!(
                after.allocations, warm,
                "steady-state cycles (gamma={gamma}) must not allocate"
            );
            assert!(after.reuses > 0, "pools must actually be reused");
        }

        let solver = ReferenceSolver::new(MgConfig::default());
        let mut x = x0.clone();
        solver.fmg(&mut x, &b);
        let warm = solver.workspace().stats().allocations;
        for _ in 0..3 {
            solver.fmg(&mut x, &b);
        }
        assert_eq!(
            solver.workspace().stats().allocations,
            warm,
            "steady-state FMG passes must not allocate"
        );
    }

    #[test]
    fn vcycles_converge_for_every_operator_family() {
        // The coefficient-aware cycle must actually solve the posed
        // operator's system: iterate V cycles and compare against the
        // operator's own direct solution. Anisotropic and jump
        // problems converge slower than Poisson (that is exactly the
        // per-problem behaviour the tuner exploits), so give them more
        // cycles and a looser target.
        use petamg_problems::{OpDirect, Problem};
        let n = 33;
        let e = Exec::seq();
        for (problem, cycles, tol) in [
            (Problem::poisson(), 12, 1e-10),
            (Problem::anisotropic(0.1), 60, 1e-8),
            (Problem::smooth_sinusoidal(n), 20, 1e-10),
            (Problem::jump_inclusion(n), 80, 1e-7),
        ] {
            let op = problem.op_for(n);
            let mut x = Grid2d::zeros(n);
            x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 10.0 - 140.0);
            let mut x_opt = x.clone();
            OpDirect::new(op, n).unwrap().solve(&mut x_opt, &b);

            let solver = ReferenceSolver::new(MgConfig {
                problem: problem.clone(),
                ..MgConfig::default()
            });
            for _ in 0..cycles {
                solver.vcycle(&mut x, &b);
            }
            let rel = l2_diff(&x, &x_opt, &e) / l2_norm_interior(&x_opt, &e).max(1.0);
            assert!(rel < tol, "{}: rel err {rel}", problem.describe());
        }
    }

    #[test]
    fn nonconstant_cycles_are_knob_invariant_bitwise() {
        // tblock/band/backends stay pure performance knobs for every
        // operator family.
        use petamg_problems::Problem;
        let n = 33;
        let problem = Problem::jump_inclusion(n);
        let mut x0 = Grid2d::zeros(n);
        x0.set_boundary(|i, j| ((i * 7 + j * 3) % 11) as f64);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);

        let reference = ReferenceSolver::new(MgConfig {
            pre_sweeps: 2,
            post_sweeps: 2,
            problem: problem.clone(),
            ..MgConfig::default()
        });
        let mut x_ref = x0.clone();
        reference.vcycle(&mut x_ref, &b);
        for tblock in [1usize, 2, 3] {
            for exec in [
                Exec::seq(),
                Exec::pbrt(2).with_band(2),
                Exec::pbrt(3).with_band(5),
            ] {
                let solver = ReferenceSolver::new(MgConfig {
                    pre_sweeps: 2,
                    post_sweeps: 2,
                    tblock,
                    exec: exec.clone(),
                    problem: problem.clone(),
                    ..MgConfig::default()
                });
                let mut x = x0.clone();
                solver.vcycle(&mut x, &b);
                assert_eq!(x.as_slice(), x_ref.as_slice(), "tblock={tblock} {exec:?}");
            }
        }
    }

    #[test]
    fn fmg_works_for_variable_coefficients() {
        use petamg_problems::{OpDirect, Problem};
        let n = 65;
        let e = Exec::seq();
        let problem = Problem::smooth_sinusoidal(n);
        let op = problem.op_for(n);
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 * 10.0 - 90.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 100.0 - 1400.0);
        let mut x_opt = x.clone();
        OpDirect::new(op, n).unwrap().solve(&mut x_opt, &b);
        let zero_err = l2_diff(&x, &x_opt, &e);

        let solver = ReferenceSolver::new(MgConfig {
            problem,
            ..MgConfig::default()
        });
        solver.fmg(&mut x, &b);
        let err = l2_diff(&x, &x_opt, &e);
        assert!(
            err < 0.1 * zero_err,
            "FMG error {err} vs initial {zero_err}"
        );
    }

    #[test]
    fn deeper_base_case_still_converges() {
        let (mut x, b, x_opt) = test_problem(33);
        let e = Exec::seq();
        // Direct shortcut at 9x9 instead of 3x3.
        let solver = ReferenceSolver::new(MgConfig {
            base_n: 9,
            ..MgConfig::default()
        });
        for _ in 0..12 {
            solver.vcycle(&mut x, &b);
        }
        let rel = l2_diff(&x, &x_opt, &e) / l2_norm_interior(&x_opt, &e).max(1.0);
        assert!(rel < 1e-10, "rel err {rel}");
    }
}
