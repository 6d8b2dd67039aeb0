//! One request's trip down the ladder: the three rungs, the one path
//! every attempt at a rung takes, and the per-cycle residual check.

use super::memory::Admission;
use super::select::{MemberWalk, Trajectory};
use super::{
    replays_identically, Degradation, FailureKind, GuardedReport, GuardedSolver, LadderRung,
    SolveError,
};
use crate::faults;
use crate::plan::{simple_v_family, ExecCtx, TunedFamily, MAX_TIMED_LEVELS, PAPER_ACCURACIES};
use crate::trace::CycleEvent;
use petamg_grid::{l2_norm_interior, Grid2d, GridLease, SimdMode, Workspace};
use petamg_problems::{residual_norm_op, StencilOp};
use petamg_solvers::{GuardFailure, GuardVerdict, SolveGuard};
use std::sync::Arc;

impl GuardedSolver {
    /// The execution context of one guarded solve.
    fn exec_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::with_cache(self.mode, Arc::clone(&self.cache))
            .with_workspace(Arc::clone(&self.workspace))
            .with_problem(self.problem.clone());
        if self.tracing {
            ctx = ctx.tracing();
        }
        if self.active_telemetry().is_some() {
            // Clock every level's kernels for the per-level histograms
            // (two timestamps per kernel call — only paid when the
            // telemetry gate is open).
            ctx.kernel_seconds = Some([0.0; MAX_TIMED_LEVELS]);
        }
        ctx
    }

    /// One request's trip down the ladder, entered as `admission` says.
    pub(super) fn walk(
        &self,
        x: &mut Grid2d,
        b: &Grid2d,
        tol: f64,
        level: usize,
        admission: Admission,
    ) -> Result<GuardedReport, SolveError> {
        let n = x.n();
        // The restore snapshot is leased from the shared arena (and
        // fully overwritten before any read), so a warm solver performs
        // zero steady-state grid allocations per request.
        let mut x0 = self.workspace.acquire_unzeroed(n);
        x0.copy_from(x);
        let ctx = self.exec_ctx();
        let start = std::time::Instant::now();
        let op = self.problem.op_for(n);
        let mut w = Walk {
            level,
            tol,
            x0,
            ctx,
            check: ResidualCheck::new(&op, b),
            degradations: Vec::new(),
        };

        // The rungs the memory knows to fail are listed, not run.
        let mut first = 0;
        if let Admission::StartAt(rung, verdicts) = admission {
            first = rung.index();
            for (rung, verdict) in LadderRung::ALL
                .into_iter()
                .zip(verdicts.into_iter().flatten())
            {
                w.failed(rung, FailureKind::KnownToFail(verdict), 0.0);
            }
        }
        let mut served = self.descend(&mut w, x, first..LadderRung::ALL.len());
        if served.is_none() && first > 0 {
            // The remembered rung and everything below it failed: what
            // was known no longer holds, and an error may only say
            // "every rung failed" of rungs that ran.
            w.degradations
                .retain(|d| !matches!(d.reason, FailureKind::KnownToFail(_)));
            served = self.descend(&mut w, x, 0..first);
            w.degradations.sort_by_key(|d| d.rung.index());
        }
        if let (Some(telemetry), Some(seconds)) = (self.active_telemetry(), &w.ctx.kernel_seconds) {
            telemetry.observe_kernels(seconds);
        }
        match served {
            Some((rung, trajectory, rung_seconds)) => {
                Ok(self.report(rung, trajectory, start, rung_seconds, w))
            }
            None => {
                let err = SolveError {
                    degradations: w.degradations,
                };
                if let Some(telemetry) = self.active_telemetry() {
                    telemetry.observe_error(&err);
                }
                Err(err)
            }
        }
    }

    /// Try `rungs` (indices into ladder order) one after the other
    /// until one serves: its trajectory and the seconds its attempt
    /// took. This is the one path every attempt takes: it is timed, its
    /// residual checks are clocked from zero, and a rung that fails is
    /// recorded in `w` and leaves `x` the initial guess. A skipped rung
    /// ran nothing and is recorded with zero seconds.
    fn descend(
        &self,
        w: &mut Walk,
        x: &mut Grid2d,
        rungs: std::ops::Range<usize>,
    ) -> Option<(LadderRung, Trajectory, f64)> {
        LadderRung::ALL[rungs].iter().find_map(|&rung| {
            let rung_start = std::time::Instant::now();
            w.check.seconds = 0.0;
            let attempt = match rung {
                // Without a tuned plan there is no tuned rung to try.
                LadderRung::TunedPlan => self.try_tuned(self.plan.as_deref()?, w, x),
                LadderRung::HeuristicPlan => self.try_heuristic(w, x),
                LadderRung::Direct => self.try_direct(w, x),
            };
            let seconds = rung_start.elapsed().as_secs_f64();
            match attempt {
                Ok(trajectory) => return Some((rung, trajectory, seconds)),
                Err(reason) if reason.is_skip() => w.failed(rung, reason, 0.0),
                Err(reason) => {
                    x.copy_from(&w.x0);
                    w.failed(rung, reason, seconds);
                }
            }
            None
        })
    }

    /// Whether `fam` may serve this solver's problem at `level`.
    fn admit_plan(&self, fam: &TunedFamily, level: usize) -> Result<(), String> {
        fam.ensure_problem(self.problem.fingerprint())
            .map_err(|e| e.to_string())?;
        fam.validate()?;
        if level > fam.max_level {
            return Err(format!(
                "instance level {level} exceeds tuned max level {}",
                fam.max_level
            ));
        }
        Ok(())
    }

    /// Rung 0: the tuned plan, if it matches.
    fn try_tuned(
        &self,
        fam: &TunedFamily,
        w: &mut Walk,
        x: &mut Grid2d,
    ) -> Result<Trajectory, FailureKind> {
        self.admit_plan(fam, w.level)
            .map_err(FailureKind::PlanRejected)?;
        self.run_family_guarded(fam, w, x)
            .map_err(FailureKind::Guard)
    }

    /// Rung 1: the hand-built MULTIGRID-V-SIMPLE family — unless the
    /// tuned rung just ran that very schedule (same restored `x`) into a
    /// verdict the arithmetic alone decides.
    fn try_heuristic(&self, w: &mut Walk, x: &mut Grid2d) -> Result<Trajectory, FailureKind> {
        let heuristic = simple_v_family(w.level.max(1), &PAPER_ACCURACIES);
        // Only the tuned rung is tried just before this one.
        let last_failure = w.degradations.last().map(|d| &d.reason);
        if let (Some(fam), Some(&FailureKind::Guard(g))) = (&self.plan, last_failure) {
            if replays_identically(&g)
                && fam.accuracies == heuristic.accuracies
                && fam.plans[..=w.level] == heuristic.plans[..=w.level]
            {
                return Err(FailureKind::SameScheduleAsFailed(g));
            }
        }
        self.run_family_guarded(&heuristic, w, x)
            .map_err(FailureKind::Guard)
    }

    /// Rung 2: unconditional full-size direct solve.
    fn try_direct(&self, w: &mut Walk, x: &mut Grid2d) -> Result<Trajectory, FailureKind> {
        let n = x.n();
        let factor = if faults::fail_direct(n) {
            Err("injected factorization fault".to_string())
        } else {
            self.cache
                .try_get_op(n, w.check.op)
                .map_err(|e| format!("{e:?}"))
        };
        let direct = factor.map_err(FailureKind::DirectFactorization)?;
        let events = [CycleEvent::Direct { level: w.level }];
        w.ctx
            .kernel(w.level, x, events, |_, x| direct.solve(x, w.check.b));
        let rel = w.check.rel(x, &w.ctx.workspace, w.ctx.mode);
        if rel.is_finite() && rel <= w.tol {
            Ok(Trajectory {
                history: vec![rel],
                members: Vec::new(),
            })
        } else {
            Err(FailureKind::ToleranceNotMet { rel_residual: rel })
        }
    }

    /// Iterate `fam` under guard until the walk's `tol` or failure, each
    /// cycle on the member its [`MemberWalk`] selects.
    fn run_family_guarded(
        &self,
        fam: &TunedFamily,
        w: &mut Walk,
        x: &mut Grid2d,
    ) -> Result<Trajectory, GuardFailure> {
        let mut guard = SolveGuard::new(w.tol);
        let mut walk = MemberWalk::default();
        loop {
            let member = walk.next(fam, &guard);
            fam.run(w.level, member, x, w.check.b, &mut w.ctx);
            let rel = w.check.rel(x, &w.ctx.workspace, w.ctx.mode);
            match walk.observe(fam, &mut guard, member, rel) {
                GuardVerdict::Continue => {}
                GuardVerdict::Converged => return Ok(walk.finish(&guard)),
                GuardVerdict::Fail(f) => return Err(f),
            }
        }
    }

    fn report(
        &self,
        rung: LadderRung,
        trajectory: Trajectory,
        start: std::time::Instant,
        rung_seconds: f64,
        w: Walk,
    ) -> GuardedReport {
        let report = GuardedReport {
            rung,
            rel_residual: trajectory.history.last().copied().unwrap_or(f64::NAN),
            residual_history: trajectory.history,
            members: trajectory.members,
            degradations: w.degradations,
            seconds: start.elapsed().as_secs_f64(),
            rung_seconds,
            residual_check_seconds: w.check.seconds,
            ops: w.ctx.ops,
            events: w.ctx.events.unwrap_or_default(),
        };
        if let Some(telemetry) = self.active_telemetry() {
            telemetry.observe_report(&report);
        }
        report
    }
}

/// What one walk down the ladder carries from rung to rung.
struct Walk<'a> {
    level: usize,
    tol: f64,
    /// The initial guess, put back into `x` after every failed attempt.
    x0: GridLease<'a>,
    ctx: ExecCtx,
    check: ResidualCheck<'a>,
    degradations: Vec<Degradation>,
}

impl Walk<'_> {
    /// Record that `rung` failed (or was skipped) after `seconds`.
    fn failed(&mut self, rung: LadderRung, reason: FailureKind, seconds: f64) {
        self.degradations.push(Degradation {
            rung,
            reason,
            seconds,
        });
    }
}

/// What the per-cycle relative-residual check `‖b − A x‖₂ / ‖b‖₂`
/// needs that does not change from cycle to cycle: the posed operator
/// and the norm scale (clamped so an all-zero `b` cannot divide by
/// zero), resolved once per system instead of once per observation.
/// The scale is taken at the first observation, not up front, so a
/// one-cycle solve does exactly the work it always did.
struct ResidualCheck<'a> {
    op: &'a StencilOp,
    b: &'a Grid2d,
    b_norm: Option<f64>,
    /// Wall time of the checks since the current rung's attempt began.
    seconds: f64,
}

impl<'a> ResidualCheck<'a> {
    fn new(op: &'a StencilOp, b: &'a Grid2d) -> Self {
        ResidualCheck {
            op,
            b,
            b_norm: None,
            seconds: 0.0,
        }
    }

    /// Relative residual of `x`. The residual is reduced row by row
    /// (row buffers leased from `ws`), never stored as a grid.
    fn rel(&mut self, x: &Grid2d, ws: &Workspace, mode: SimdMode) -> f64 {
        let check_start = std::time::Instant::now();
        let r_norm = residual_norm_op(self.op, x, self.b, ws, mode);
        let b = self.b;
        let b_norm = self
            .b_norm
            .get_or_insert_with(|| l2_norm_interior(b, &mode).max(f64::MIN_POSITIVE));
        let rel = r_norm / *b_norm;
        self.seconds += check_start.elapsed().as_secs_f64();
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::tests::{instance, jump_with_simple_plan};
    use crate::guard::LadderMemory;
    use crate::plan::Choice;
    use petamg_problems::Problem;

    /// A warm plan whose members run `RECURSE_0×3` (two fused step
    /// boundaries per cycle) and the guard's per-cycle residual checks
    /// lease every grid and row buffer from the solver's arena: once
    /// warm, a solve allocates nothing.
    #[test]
    fn warm_step_boundaries_and_residual_checks_allocate_nothing() {
        faults::clear();
        let level = 5;
        let problem = Problem::smooth_sinusoidal(petamg_grid::level_size(level));
        let mut fam = simple_v_family(level, &PAPER_ACCURACIES);
        fam.problem = problem.fingerprint().clone();
        fam.plans[level].fill(Choice::Recurse {
            sub_accuracy: 0,
            iterations: 3,
        });
        let workspace = Arc::new(Workspace::new());
        let solver = GuardedSolver::new(problem.clone())
            .with_plan(fam)
            .with_workspace(Arc::clone(&workspace));
        let inst = instance(level, &problem);
        let solve = || {
            let mut x = inst.working_grid();
            let report = solver.solve(&mut x, &inst.b, 1e-9).expect("must serve");
            assert_eq!(report.rung, LadderRung::TunedPlan);
            let cycles = report.residual_history.len() as u64;
            assert!(cycles >= 2, "{cycles} guarded cycles");
            assert_eq!(report.ops.per_level[level].restricts, 3 * cycles);
        };
        solve();
        let warm = workspace.stats().allocations;
        for _ in 0..3 {
            solve();
        }
        assert_eq!(workspace.stats().allocations, warm);
    }

    /// A report's clocks nest: the serving rung's residual checks lie
    /// inside its attempt, every attempt inside the whole walk, and a
    /// skipped rung ran nothing. They are intervals of one monotonic
    /// clock, not speed bounds, so they hold under any load. Checked on
    /// a healthy solve, a degraded one, and one the ladder memory
    /// starts at the direct rung.
    #[test]
    fn residual_checks_count_the_serving_rung_alone() {
        faults::clear();
        let level = 5;
        let poisson = Problem::poisson();
        let inst = instance(level, &poisson);
        let mut x = inst.working_grid();
        let healthy = GuardedSolver::new(poisson)
            .with_plan(simple_v_family(level, &PAPER_ACCURACIES))
            .solve(&mut x, &inst.b, 1e-9)
            .expect("must serve");
        assert!(!healthy.degraded());

        let (jump, fam) = jump_with_simple_plan(level);
        let memory = Arc::new(LadderMemory::new());
        let solver = GuardedSolver::new(jump.clone())
            .with_plan(fam)
            .with_ladder_memory(Arc::clone(&memory));
        let inst = instance(level, &jump);
        let mut walks: Vec<GuardedReport> = (0..4)
            .map(|_| {
                let mut x = inst.working_grid();
                solver.solve(&mut x, &inst.b, 1e-8).expect("direct serves")
            })
            .collect();
        let started_low = walks.pop().expect("four solves");
        let degraded = walks.pop().expect("three full walks");
        assert!(matches!(
            degraded.degradations[0].reason,
            FailureKind::Guard(_)
        ));
        assert!(started_low
            .degradations
            .iter()
            .all(|d| matches!(d.reason, FailureKind::KnownToFail(_))));

        for report in [healthy, degraded, started_low] {
            assert!(
                report.residual_check_seconds <= report.rung_seconds,
                "{report:?}"
            );
            let failed: f64 = report.degradations.iter().map(|d| d.seconds).sum();
            assert!(report.rung_seconds + failed <= report.seconds, "{report:?}");
            for d in report.degradations.iter().filter(|d| d.reason.is_skip()) {
                assert_eq!(d.seconds, 0.0, "{}", d.reason);
            }
        }
    }
}
