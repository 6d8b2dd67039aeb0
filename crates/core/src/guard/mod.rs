//! Guarded solves: the degradation ladder.
//!
//! The ROADMAP's north star is a plan-serving engine, and a serving
//! engine must never turn a bad plan into a panic or a silent wrong
//! answer. [`GuardedSolver`] wraps plan execution in the per-cycle
//! [`SolveGuard`](petamg_solvers::SolveGuard) checks from
//! `petamg-solvers` and walks a three-rung **degradation ladder** when
//! anything misbehaves:
//!
//! 1. [`LadderRung::TunedPlan`] — the caller-supplied tuned plan,
//!    iterated under guard (NaN/Inf, divergence, stagnation, budget);
//!    rejected up front on a problem-fingerprint mismatch or an
//!    invalid plan table.
//! 2. [`LadderRung::HeuristicPlan`] — the hand-built
//!    `MULTIGRID-V-SIMPLE` family ([`crate::plan::simple_v_family`]),
//!    same
//!    guard. Known-good for the paper's operators, no tuning required.
//! 3. [`LadderRung::Direct`] — a full-size band-Cholesky solve.
//!    Asymptotically the wrong tool (that is the paper's whole point)
//!    but unconditionally accurate when it factors.
//!
//! A rung is never run when its schedule and input are those of a rung
//! that just failed deterministically: if the tuned plan *is*
//! the `MULTIGRID-V-SIMPLE` schedule (the default serving policy stamps
//! exactly that family) and the guard failed it on the arithmetic
//! alone, the heuristic rung would replay the same cycles bit for bit
//! to the same verdict. It is recorded as
//! [`FailureKind::SameScheduleAsFailed`] with zero seconds and the walk
//! goes straight to the direct rung. Every guard verdict but
//! `NonFinite` is decided on the arithmetic alone: the guard is one
//! fixed policy, with constant thresholds and no clock, so its verdict
//! is a pure function of the residuals the rung observed. `NonFinite`
//! is how one-shot faults surface, and a replay may well be clean.
//!
//! # What the service remembers
//!
//! A plan that fails its tuned rung on the arithmetic alone fails it
//! for the next right-hand side too, so a solver given a
//! [`LadderMemory`] ([`GuardedSolver::with_ladder_memory`] — the
//! serving engine keeps one in each resident plan's library entry, so a
//! re-tuned, re-inserted or reloaded plan starts with none) stops
//! re-proving it.
//! Per level, once `KNOWN_AFTER` (3) consecutive requests ended on the
//! same rung below the tuned one, with nothing but verdicts that
//! [replay identically](FailureKind::SameScheduleAsFailed) above it, a
//! later request starts at that rung and lists the rungs above as
//! [`FailureKind::KnownToFail`]: zero seconds, skipped, not attempted.
//! The rules that keep this honest:
//!
//! * **Coverage.** A failure at `tol` says nothing about a looser
//!   request: the memory holds the tightest `tol` of its streak, and a
//!   request looser than that walks the whole ladder and neither reads
//!   nor writes the memory.
//! * **Bypass.** A traced solve, or one entered with a fault armed on
//!   its thread, does the same — drills and traces see the full walk.
//! * **Re-probe.** Every `REPROBE_EVERY`-th (64th) request that would
//!   have started low walks the whole ladder instead, and any request
//!   the tuned rung serves closes the memory.
//! * **Never fail untried.** If the remembered rung itself fails, the
//!   memory closes and that request attempts the rungs it had skipped
//!   before a [`SolveError`] is returned.
//! * **Same bits.** A failed rung restores `x` before the next one
//!   runs, so an answer served from memory is bit for bit the full
//!   walk's whenever the full walk ends on the same rung.
//!
//! Both numbers are constants, not settings: they trade a bounded share
//! of wasted attempts (3 to learn, 1 in 64 to re-check) against how
//! soon a change is noticed, and no caller has a reason to trade them
//! differently. A solver without a memory walks every rung every time.
//!
//! Every failed rung is recorded as a [`Degradation`]; the rung that
//! produced the returned solution is recorded in the
//! [`GuardedReport`]. If the whole
//! ladder is exhausted the caller gets a typed [`SolveError`] carrying
//! the full failure history — never a panic, never an unflagged bad
//! iterate.
//!
//! Convergence here is judged by the *relative residual*
//! `‖b − A x‖₂ / ‖b‖₂`, which unlike the tuner's error-ratio metric
//! needs no reference solution and is therefore computable while
//! serving.

mod memory;
mod select;
mod walk;

pub use memory::LadderMemory;
#[cfg(test)]
pub(crate) use select::select_member;

use crate::faults;
use crate::plan::TunedFamily;
use crate::telemetry::SolveTelemetry;
use crate::trace::CycleEvent;
use crate::OpCounts;
use memory::Admission;
use petamg_grid::{Grid2d, SimdMode, Workspace};
use petamg_problems::Problem;
use petamg_solvers::{DirectSolverCache, GuardFailure};
use std::sync::Arc;

/// A rung of the degradation ladder: the strategies tried in order
/// when a solve misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderRung {
    /// The caller-supplied tuned plan (fastest; first choice).
    TunedPlan,
    /// The default heuristic V-cycle plan (`plan::simple_v_family`).
    HeuristicPlan,
    /// A full-size direct band-Cholesky solve (slow but unconditional).
    Direct,
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LadderRung::TunedPlan => "tuned plan",
            LadderRung::HeuristicPlan => "heuristic plan",
            LadderRung::Direct => "direct solve",
        })
    }
}

impl LadderRung {
    /// The rungs in ladder order, which is their declaration order.
    pub(crate) const ALL: [LadderRung; 3] = [
        LadderRung::TunedPlan,
        LadderRung::HeuristicPlan,
        LadderRung::Direct,
    ];

    /// The rung's position in [`LadderRung::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The Prometheus-style label value for the rung.
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::TunedPlan => "tuned",
            LadderRung::HeuristicPlan => "heuristic",
            LadderRung::Direct => "direct",
        }
    }
}

/// Why a ladder rung failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The per-cycle guard tripped (NaN/Inf, divergence, stagnation,
    /// or a cycle budget exhausted or projected out of reach).
    Guard(GuardFailure),
    /// The rung's plan was rejected before execution (fingerprint
    /// mismatch, invalid table, or level out of range).
    PlanRejected(String),
    /// The direct factorization failed (or was fault-injected to).
    DirectFactorization(String),
    /// The rung ran to completion but its solution misses `tol`.
    ToleranceNotMet {
        /// Relative residual the rung achieved.
        rel_residual: f64,
    },
    /// The rung was not run: its schedule and input equal those of the
    /// rung above it, which just failed with this verdict — a
    /// verdict that is a pure function of the arithmetic, so the replay
    /// could only reproduce it.
    SameScheduleAsFailed(GuardFailure),
    /// The rung was not run: the solver's [`LadderMemory`] holds this
    /// verdict for it from the requests before, and started this one on
    /// the rung that served them.
    KnownToFail(GuardFailure),
}

impl FailureKind {
    /// Whether the rung was skipped rather than attempted.
    pub(crate) fn is_skip(&self) -> bool {
        matches!(
            self,
            FailureKind::SameScheduleAsFailed(_) | FailureKind::KnownToFail(_)
        )
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Guard(g) => write!(f, "{g}"),
            FailureKind::PlanRejected(why) => write!(f, "plan rejected: {why}"),
            FailureKind::DirectFactorization(why) => {
                write!(f, "direct factorization failed: {why}")
            }
            FailureKind::ToleranceNotMet { rel_residual } => {
                write!(f, "tolerance not met (rel residual {rel_residual:.3e})")
            }
            FailureKind::SameScheduleAsFailed(g) => {
                write!(
                    f,
                    "skipped: same schedule as the rung that just failed ({g})"
                )
            }
            FailureKind::KnownToFail(g) => {
                write!(f, "skipped: known to fail from the requests before ({g})")
            }
        }
    }
}

/// One recorded step down the ladder: which rung failed, why, and how
/// long the failed attempt ran before the guard rejected it (zero for a
/// skipped rung, see `FailureKind::is_skip`).
#[derive(Clone, Debug)]
pub struct Degradation {
    /// The rung that failed.
    pub rung: LadderRung,
    /// Why it failed.
    pub reason: FailureKind,
    /// Wall-clock seconds the failed attempt consumed.
    pub seconds: f64,
}

/// Terminal failure: every rung of the ladder failed. The degradation
/// history says what happened at each rung, in order.
#[derive(Clone, Debug)]
pub struct SolveError {
    /// Every rung failure, in ladder order.
    pub degradations: Vec<Degradation>,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all degradation-ladder rungs failed:")?;
        for d in &self.degradations {
            write!(f, " [{}: {}]", d.rung, d.reason)?;
        }
        Ok(())
    }
}

impl std::error::Error for SolveError {}

/// Outcome of a successful [`GuardedSolver::solve`].
#[derive(Clone, Debug)]
pub struct GuardedReport {
    /// The rung that produced the returned solution.
    pub rung: LadderRung,
    /// Final relative residual `‖b − A x‖₂ / ‖b‖₂`.
    pub rel_residual: f64,
    /// Per-cycle relative residuals observed at the serving rung (a
    /// single entry for a direct solve); its length is the number of
    /// cycles the serving rung ran.
    pub residual_history: Vec<f64>,
    /// The family member (accuracy index) each cycle of the serving
    /// rung ran, parallel to `residual_history`: the top member first,
    /// then the cheapest member whose tuned accuracy covers what was
    /// left. Empty for the direct rung.
    pub members: Vec<u8>,
    /// Rungs that failed before the serving rung, with reasons.
    pub degradations: Vec<Degradation>,
    /// Wall time of the whole ladder walk.
    pub seconds: f64,
    /// Wall time of the serving rung's attempt alone (equals
    /// `seconds` minus the failed attempts above it).
    pub rung_seconds: f64,
    /// Wall time spent in per-cycle residual checks at the serving
    /// rung (the guard's observation cost, separated from kernel
    /// time).
    pub residual_check_seconds: f64,
    /// Operation counts across all rungs tried.
    pub ops: OpCounts,
    /// The operations every rung ran, in order (empty unless
    /// [`GuardedSolver::with_tracing`] was requested).
    pub events: Vec<CycleEvent>,
}

impl GuardedReport {
    /// Whether the solve degraded off the tuned plan.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// A solver that executes tuned plans under guard and degrades down
/// the ladder instead of panicking. See the module docs.
pub struct GuardedSolver {
    problem: Problem,
    plan: Option<Arc<TunedFamily>>,
    mode: SimdMode,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
    tracing: bool,
    telemetry: Option<Arc<SolveTelemetry>>,
    memory: Option<Arc<LadderMemory>>,
}

impl GuardedSolver {
    /// A guarded solver for `problem`: the host's [`SimdMode`], fresh
    /// factor cache, no tuned plan (the ladder starts at the heuristic
    /// rung until [`GuardedSolver::with_plan`] supplies one).
    pub fn new(problem: Problem) -> Self {
        GuardedSolver {
            problem,
            plan: None,
            mode: SimdMode::host(),
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
            tracing: false,
            telemetry: None,
            memory: None,
        }
    }

    /// Serve `plan` as the ladder's first rung. An already-shared
    /// `Arc` is taken without cloning the family: that is the
    /// serving-engine path, where one plan from the library serves any
    /// number of concurrent requests.
    pub fn with_plan(mut self, plan: impl Into<Arc<TunedFamily>>) -> Self {
        self.plan = Some(plan.into());
        self
    }

    /// Share a band-Cholesky factor cache across solves.
    pub fn with_cache(mut self, cache: Arc<DirectSolverCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Share a scratch arena across solves. Every grid and row buffer
    /// this solver needs per call — the restore snapshot, the residual
    /// check's row buffers, and all of plan execution's coarse-level
    /// leases — comes from this arena, so repeated solves through one
    /// solver (or one serving worker) allocate nothing once the arena is
    /// warm.
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.workspace = workspace;
        self
    }

    /// Keep the operations every rung ran in the report's events.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Feed solve phases (rung attempts, residual checks, per-level
    /// kernel time) into `telemetry`. The feed — and the per-kernel
    /// clocking behind the per-level histograms — only runs when the
    /// process telemetry gate ([`petamg_obs::enabled`]) is open, so an
    /// attached-but-gated-off feed costs one relaxed atomic load per
    /// solve.
    pub fn with_telemetry(mut self, telemetry: Arc<SolveTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Start requests at the rung `memory` has seen serve this plan
    /// (see "What the service remembers" in the module docs). The
    /// memory must belong to the plan this solver serves; without a
    /// plan it is ignored.
    pub fn with_ladder_memory(mut self, memory: Arc<LadderMemory>) -> Self {
        self.memory = Some(memory);
        self
    }

    /// The ladder memory this solve may read and write: none without a
    /// plan, under tracing, or while a fault is armed on this thread —
    /// traced requests and chaos drills see the whole walk.
    fn usable_memory(&self) -> Option<&LadderMemory> {
        match &self.memory {
            Some(memory) if self.plan.is_some() && !self.tracing && !faults::armed() => {
                Some(memory)
            }
            _ => None,
        }
    }

    /// The telemetry feed, when one is attached *and* the process gate
    /// is open.
    fn active_telemetry(&self) -> Option<&SolveTelemetry> {
        match &self.telemetry {
            Some(t) if petamg_obs::enabled() => Some(t),
            _ => None,
        }
    }

    /// The configured problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Solve `A x = b` to relative residual `tol`, walking the ladder
    /// on any failure. On success `x` holds the solution of the
    /// reported rung; on [`SolveError`] `x` holds the initial guess
    /// again (never a poisoned iterate).
    pub fn solve(&self, x: &mut Grid2d, b: &Grid2d, tol: f64) -> Result<GuardedReport, SolveError> {
        let level = level_of(x.n());
        self.remembering(level, tol, |admission| {
            self.walk(x, b, tol, level, admission)
        })
    }

    /// Run one request's `walk` entered as the ladder memory admits it,
    /// and let the memory take in how it ended.
    fn remembering(
        &self,
        level: usize,
        tol: f64,
        walk: impl FnOnce(Admission) -> Result<GuardedReport, SolveError>,
    ) -> Result<GuardedReport, SolveError> {
        let Some(memory) = self.usable_memory() else {
            return walk(Admission::Unremembered);
        };
        let admission = memory.admit(level, tol);
        let result = walk(admission);
        let open = memory.settle(level, tol, admission, result.as_ref());
        if let (Admission::Reprobe, Some(telemetry)) = (admission, self.active_telemetry()) {
            telemetry.observe_reprobe(open);
        }
        result
    }
}

/// Whether re-running the same schedule from the same input must end
/// in the same guard verdict. Every verdict is a pure function of the
/// residuals, so only `NonFinite` is excluded: it is how one-shot
/// faults (an injected poison, a transient bad read) surface, and the
/// replay may well be clean.
fn replays_identically(g: &GuardFailure) -> bool {
    !matches!(g, GuardFailure::NonFinite { .. })
}

/// The multigrid level of an `n`×`n` grid (`n = 2^k + 1` → `k`).
///
/// # Panics
/// Panics if `n` is not of the form `2^k + 1` with `k ≥ 1` — such a
/// grid cannot enter the multigrid hierarchy at all, which is a caller
/// bug rather than a runtime failure the ladder could absorb.
pub(crate) fn level_of(n: usize) -> usize {
    match petamg_grid::size_level(n) {
        Some(k) if k >= 1 => k,
        _ => panic!("grid size {n} is not 2^k + 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use crate::plan::{simple_v_family, Choice, ExecCtx, PAPER_ACCURACIES};
    use crate::training::{Distribution, ProblemInstance};
    use petamg_grid::l2_norm_interior;
    use petamg_problems::residual_op;

    /// The rungs a solve degraded past, in order.
    fn rungs(report: &GuardedReport) -> Vec<LadderRung> {
        report.degradations.iter().map(|d| d.rung).collect()
    }

    pub(super) fn instance(level: usize, problem: &Problem) -> ProblemInstance {
        ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, 7)
    }

    #[test]
    fn level_of_round_trips() {
        assert_eq!(level_of(3), 1);
        assert_eq!(level_of(5), 2);
        assert_eq!(level_of(65), 6);
    }

    #[test]
    #[should_panic(expected = "not 2^k + 1")]
    fn level_of_rejects_bad_sizes() {
        level_of(10);
    }

    #[test]
    fn healthy_solve_serves_the_tuned_rung() {
        faults::clear();
        let inst = instance(5, &Problem::poisson());
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(fam)
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-9).expect("must serve");
        assert_eq!(report.rung, LadderRung::TunedPlan);
        assert!(!report.degraded());
        assert!(report.rel_residual <= 1e-9);
        assert!(rungs(&report).is_empty());
    }

    #[test]
    fn fingerprint_mismatch_degrades_to_heuristic() {
        faults::clear();
        let aniso = Problem::anisotropic(0.5);
        let inst = instance(5, &aniso);
        // A plan tuned (nominally) for Poisson must not serve aniso.
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let solver = GuardedSolver::new(aniso).with_plan(fam).with_tracing();
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-9).expect("must serve");
        assert_eq!(report.rung, LadderRung::HeuristicPlan);
        assert_eq!(report.degradations.len(), 1);
        assert!(matches!(
            report.degradations[0].reason,
            FailureKind::PlanRejected(_)
        ));
        assert_eq!(rungs(&report), vec![LadderRung::TunedPlan]);
        assert!(report.rel_residual <= 1e-9);
    }

    #[test]
    fn injected_nan_degrades_and_still_converges() {
        faults::clear();
        let inst = instance(5, &Problem::poisson());
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(fam)
            .with_tracing();
        let mut x = inst.working_grid();
        faults::inject(Fault::PoisonLevel { level: 5 });
        let report = solver.solve(&mut x, &inst.b, 1e-9).expect("must serve");
        assert_eq!(report.rung, LadderRung::HeuristicPlan);
        assert!(matches!(
            report.degradations[0].reason,
            FailureKind::Guard(GuardFailure::NonFinite { .. })
        ));
        assert!(report.rel_residual <= 1e-9);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ladder_exhaustion_is_a_typed_error_and_restores_x() {
        faults::clear();
        let inst = instance(4, &Problem::poisson());
        let solver = GuardedSolver::new(Problem::poisson());
        let mut x = inst.working_grid();
        let x0 = x.clone();
        // Poison the heuristic rung (the base direct solve runs exactly
        // once per cycle, so one fault = one poisoned cycle) and make
        // the full-size direct factorization fail.
        faults::inject(Fault::PoisonLevel { level: 1 });
        faults::inject(Fault::FailDirect { n: 17 });
        let err = solver
            .solve(&mut x, &inst.b, 1e-9)
            .expect_err("every rung was sabotaged");
        assert_eq!(err.degradations.len(), 2, "no tuned rung: {err}");
        assert!(matches!(
            err.degradations[1].reason,
            FailureKind::DirectFactorization(_)
        ));
        assert_eq!(x.as_slice(), x0.as_slice(), "x restored on failure");
        faults::clear();
    }

    #[test]
    fn direct_rung_serves_when_both_plans_are_poisoned() {
        faults::clear();
        let inst = instance(4, &Problem::poisson());
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(fam)
            .with_tracing();
        let mut x = inst.working_grid();
        // The level-1 base direct solve runs exactly once per family
        // cycle, so one fault per guarded rung poisons each rung's
        // first cycle.
        faults::inject(Fault::PoisonLevel { level: 1 });
        faults::inject(Fault::PoisonLevel { level: 1 });
        let report = solver.solve(&mut x, &inst.b, 1e-9).expect("direct serves");
        assert_eq!(report.rung, LadderRung::Direct);
        assert_eq!(
            rungs(&report),
            vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan]
        );
        assert!(report.rel_residual <= 1e-9);
        assert_eq!(report.residual_history.len(), 1);
    }

    /// The jump-coefficient profile at `level`, with the stamped
    /// `MULTIGRID-V-SIMPLE` family the default serving policy hands out.
    pub(super) fn jump_with_simple_plan(level: usize) -> (Problem, TunedFamily) {
        let problem = Problem::jump_inclusion(petamg_grid::level_size(level));
        let mut fam = simple_v_family(level, &PAPER_ACCURACIES);
        fam.problem = problem.fingerprint().clone();
        (problem, fam)
    }

    /// The tuned rung runs the simple schedule into a deterministic
    /// verdict, so the heuristic rung — the same schedule and restored
    /// `x` — is recorded as skipped and direct serves. The
    /// answer is the one the ladder gave when it did replay.
    #[test]
    fn replayed_heuristic_rung_is_skipped() {
        faults::clear();
        let level = 6;
        let (problem, fam) = jump_with_simple_plan(level);
        let inst = instance(level, &problem);
        let solver = GuardedSolver::new(problem.clone())
            .with_plan(fam)
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-8).expect("direct serves");
        assert_eq!(report.rung, LadderRung::Direct);
        assert!(report.degraded());
        assert_eq!(report.degradations.len(), 2);
        let tuned_verdict = match &report.degradations[0].reason {
            FailureKind::Guard(g) => *g,
            other => panic!("tuned rung must fail on a guard verdict, got {other}"),
        };
        assert!(
            matches!(tuned_verdict, GuardFailure::BudgetUnreachable { .. }),
            "{tuned_verdict}"
        );
        assert_eq!(report.degradations[1].rung, LadderRung::HeuristicPlan);
        assert!(
            matches!(&report.degradations[1].reason,
                FailureKind::SameScheduleAsFailed(g) if *g == tuned_verdict),
            "{}",
            report.degradations[1].reason
        );
        assert_eq!(report.degradations[1].seconds, 0.0);
        assert_eq!(
            rungs(&report),
            vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan]
        );
        let top_level_cycles = report.ops.per_level[level].restricts;
        assert!(
            (5..50).contains(&top_level_cycles),
            "one abandoned attempt, not two budgets: {top_level_cycles} cycles"
        );

        // Plan-less ladder: heuristic (runs, fails the same way) → direct.
        let mut want = inst.working_grid();
        let planless = GuardedSolver::new(problem)
            .solve(&mut want, &inst.b, 1e-8)
            .expect("direct serves");
        assert_eq!(planless.rung, LadderRung::Direct);
        assert!(matches!(
            &planless.degradations[0].reason,
            FailureKind::Guard(g) if *g == tuned_verdict
        ));
        assert_eq!(x.as_slice(), want.as_slice());
    }

    /// One slot off the simple schedule and the heuristic rung is a
    /// different iteration: it must run.
    #[test]
    fn a_plan_that_differs_in_one_slot_still_runs_the_heuristic_rung() {
        faults::clear();
        let level = 6;
        let (problem, mut fam) = jump_with_simple_plan(level);
        let last = fam.num_accuracies() - 1;
        fam.plans[level][last] = Choice::Recurse {
            sub_accuracy: (last - 1) as u8,
            iterations: 1,
        };
        let inst = instance(level, &problem);
        let solver = GuardedSolver::new(problem).with_plan(fam);
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-8).expect("direct serves");
        assert_eq!(report.rung, LadderRung::Direct);
        assert_eq!(report.degradations.len(), 2);
        for d in &report.degradations {
            assert!(matches!(d.reason, FailureKind::Guard(_)), "{}", d.reason);
        }
        assert!(report.degradations[1].seconds > 0.0);
    }

    /// Two end-to-end ladder walks, exactly: the jump profile under the
    /// stamped simple schedule projects its budget unreachable, skips
    /// the replay and is served direct; Poisson under the same family
    /// serves itself. Each served trajectory is pinned by the FNV-1a
    /// hash of its bits.
    #[test]
    fn ladder_verdicts_are_pinned() {
        use petamg_problems::field_hash;
        faults::clear();
        let level = 6;
        let (problem, fam) = jump_with_simple_plan(level);
        let inst = instance(level, &problem);
        let mut x = inst.working_grid();
        let report = GuardedSolver::new(problem)
            .with_plan(fam)
            .solve(&mut x, &inst.b, 1e-8)
            .expect("direct serves");
        let verdict = GuardFailure::BudgetUnreachable {
            cycle: 6,
            needed: 56,
        };
        let [tuned, heuristic] = &report.degradations[..] else {
            panic!("two rungs above direct: {:?}", report.degradations);
        };
        assert_eq!(tuned.rung, LadderRung::TunedPlan);
        assert!(
            matches!(tuned.reason, FailureKind::Guard(g) if g == verdict),
            "{}",
            tuned.reason
        );
        assert_eq!(heuristic.rung, LadderRung::HeuristicPlan);
        assert!(
            matches!(heuristic.reason, FailureKind::SameScheduleAsFailed(g) if g == verdict),
            "{}",
            heuristic.reason
        );
        assert_eq!(report.rung, LadderRung::Direct);
        assert_eq!(
            field_hash(&report.residual_history),
            0x84af_af1c_27df_c018,
            "{:?}",
            report.residual_history
        );

        let level = 5;
        let problem = Problem::poisson();
        let inst = instance(level, &problem);
        let mut x = inst.working_grid();
        let report = GuardedSolver::new(problem)
            .with_plan(simple_v_family(level, &PAPER_ACCURACIES))
            .solve(&mut x, &inst.b, 1e-9)
            .expect("must serve");
        assert_eq!(report.rung, LadderRung::TunedPlan);
        assert!(!report.degraded());
        assert_eq!(report.members, [4, 4, 4, 3, 4, 4, 4, 4]);
        assert_eq!(
            field_hash(&report.residual_history),
            0x7853_9a70_b654_677e,
            "{:?}",
            report.residual_history
        );
    }

    /// A `QuickTune`-style plan for `problem`, stamped for it.
    fn quick_plan(problem: &Problem, level: usize) -> TunedFamily {
        use crate::tuner::{TunerOptions, VTuner};
        let opts =
            TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem.clone());
        let mut fam = VTuner::new(opts).tune();
        fam.problem = problem.fingerprint().clone();
        fam
    }

    /// The issue's case: the top member of the quick Poisson plan at
    /// level 7 leaves 1e-8 about 10x short, and the follow-up cycle is
    /// one or two V cycles instead of seven more.
    #[test]
    fn follow_up_cycle_runs_the_cheapest_member_that_covers_the_rest() {
        faults::clear();
        let level = 7;
        let problem = Problem::poisson();
        let fam = quick_plan(&problem, level);
        let top = (fam.num_accuracies() - 1) as u8;
        let solver = GuardedSolver::new(problem.clone()).with_plan(fam);
        for seed in [1u64, 2, 3] {
            let inst =
                ProblemInstance::random_for(&problem, level, Distribution::UnbiasedUniform, seed);
            let mut x = inst.working_grid();
            let report = solver.solve(&mut x, &inst.b, 1e-8).expect("must serve");
            assert_eq!(report.rung, LadderRung::TunedPlan);
            assert!(!report.degraded());
            assert_eq!(report.residual_history.len(), 2);
            assert!(
                report.members == [top, 0] || report.members == [top, 1],
                "seed {seed}: {:?}",
                report.members
            );
            let sweeps = report.ops.per_level[level].relax_sweeps;
            assert!(
                sweeps == 16 || sweeps == 18,
                "seed {seed}: {sweeps} finest-level sweeps (top member every cycle: 28)"
            );
            // Independent residual check of the returned answer.
            let mut r = Grid2d::zeros(x.n());
            let mode = SimdMode::host();
            residual_op(&problem.op_for(x.n()), &x, &inst.b, &mut r, &mode);
            let rel = l2_norm_interior(&r, &mode) / l2_norm_interior(&inst.b, &mode);
            assert!(rel <= 1e-8, "seed {seed}: {rel:e}");
            assert_eq!(rel, report.rel_residual);
        }
    }

    /// A solve the top member finishes alone does exactly the work of
    /// one bare top-member cycle: same bits, same operation counts.
    #[test]
    fn one_cycle_solves_are_one_bare_top_member_cycle() {
        faults::clear();
        for (problem, level) in [
            (Problem::smooth_sinusoidal(65), 6),
            (Problem::jump_inclusion(129), 7),
        ] {
            let fam = quick_plan(&problem, level);
            let top = fam.num_accuracies() - 1;
            let inst =
                ProblemInstance::random_for(&problem, level, Distribution::UnbiasedUniform, 5);
            let mut want = inst.working_grid();
            let mut ctx = ExecCtx::new(SimdMode::host()).with_problem(problem.clone());
            fam.run(level, top, &mut want, &inst.b, &mut ctx);

            let solver = GuardedSolver::new(problem.clone()).with_plan(fam);
            let mut x = inst.working_grid();
            let report = solver.solve(&mut x, &inst.b, 1e-8).expect("must serve");
            assert_eq!(report.residual_history.len(), 1);
            assert_eq!(report.members, [top as u8]);
            assert_eq!(x.as_slice(), want.as_slice(), "{}", problem.describe());
            assert_eq!(report.ops, ctx.ops);
        }
    }

    /// A family whose sub-top members are useless (one SOR sweep) and
    /// whose top member is a real V cycle.
    fn useless_sub_top_family(level: usize) -> TunedFamily {
        let mut fam = simple_v_family(level, &PAPER_ACCURACIES);
        let top = fam.num_accuracies() - 1;
        for row in fam.plans.iter_mut().skip(2) {
            for choice in &mut row[..top] {
                *choice = Choice::Sor { iterations: 1 };
            }
        }
        fam.validate().unwrap();
        fam
    }

    /// Useless sub-top members cost at most one cheap cycle each: the
    /// walk asks each at most once, in ascending order, then stays on
    /// the top member; the solve still converges on the tuned rung.
    #[test]
    fn a_member_that_missed_is_not_asked_again() {
        faults::clear();
        let level = 5;
        let problem = Problem::poisson();
        let fam = useless_sub_top_family(level);
        let top = fam.num_accuracies() - 1;
        let inst = instance(level, &problem);
        // What the top member alone does (the walk before selection).
        let mut x = inst.working_grid();
        let top_only = GuardedSolver::new(problem.clone())
            .with_plan(simple_v_family(level, &PAPER_ACCURACIES))
            .solve(&mut x, &inst.b, 1e-12)
            .expect("must serve")
            .residual_history;
        let rel1 = top_only[0];
        let solver = GuardedSolver::new(problem.clone()).with_plan(fam);

        // Cycle 1 leaves less than 10x to do: member 0 is asked first.
        let tol = rel1 / 9.5;
        let cycles_before = top_only.iter().position(|&r| r <= tol).unwrap() + 1;
        assert_eq!(cycles_before, 2);
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, tol).expect("must serve");
        assert_eq!(report.rung, LadderRung::TunedPlan);
        assert!(!report.degraded());
        assert_eq!(report.members, [4, 0, 1, 2, 3, 4]);
        assert!(report.members.len() <= cycles_before + top);

        // Cycle 1 leaves ~5000x to do: members 0 and 1 are never asked.
        let tol = rel1 / 5e3;
        let mut x = inst.working_grid();
        let report = GuardedSolver::new(problem)
            .with_plan(useless_sub_top_family(level))
            .solve(&mut x, &inst.b, tol)
            .expect("must serve");
        assert!(!report.degraded());
        assert_eq!(report.members[..4], [4, 2, 3, 4]);
        assert!(report.members[4..].iter().all(|&m| m == 4));
    }

    // -----------------------------------------------------------------
    // Ladder memory.
    // -----------------------------------------------------------------

    /// A solver for `problem` serving `fam` over `memory`.
    pub(super) fn remembering_solver(
        problem: &Problem,
        fam: &TunedFamily,
        memory: &Arc<LadderMemory>,
    ) -> GuardedSolver {
        GuardedSolver::new(problem.clone())
            .with_plan(fam.clone())
            .with_ladder_memory(Arc::clone(memory))
    }

    /// Serve instances `seeds` one after the other, each from its own
    /// initial guess.
    fn serve_each(
        solver: &GuardedSolver,
        problem: &Problem,
        level: usize,
        seeds: std::ops::Range<u64>,
        tol: f64,
    ) -> Vec<(Grid2d, GuardedReport)> {
        seeds
            .map(|seed| {
                let inst = ProblemInstance::random_for(
                    problem,
                    level,
                    Distribution::UnbiasedUniform,
                    seed,
                );
                let mut x = inst.working_grid();
                let report = solver.solve(&mut x, &inst.b, tol).expect("must serve");
                (x, report)
            })
            .collect()
    }

    /// Rules 5 and 6: three walks that end on the direct rung the same
    /// way open the memory; the fourth request lists both plan rungs as
    /// known to fail — skipped, zero seconds — and its answer is the
    /// full walk's, bit for bit.
    #[test]
    fn fourth_request_starts_at_the_rung_that_served_the_first_three() {
        faults::clear();
        let level = 5;
        let (problem, fam) = jump_with_simple_plan(level);
        let memory = Arc::new(LadderMemory::new());
        let solver = remembering_solver(&problem, &fam, &memory);
        let served = serve_each(&solver, &problem, level, 40..44, 1e-8);
        let mut verdict = None;
        for (_, report) in &served[..3] {
            assert_eq!(report.rung, LadderRung::Direct);
            let [tuned, heuristic] = &report.degradations[..] else {
                panic!("two rungs above direct: {:?}", report.degradations);
            };
            match (&tuned.reason, &heuristic.reason) {
                (FailureKind::Guard(g), FailureKind::SameScheduleAsFailed(h)) if g == h => {
                    assert!(replays_identically(g), "{g}");
                    verdict = Some(*g);
                }
                other => panic!("expected a replayed guard verdict, got {other:?}"),
            }
            assert!(tuned.seconds > 0.0);
        }
        assert!(memory.is_open());

        let (x, fourth) = &served[3];
        assert_eq!(fourth.rung, LadderRung::Direct);
        assert!(fourth.degraded());
        assert_eq!(fourth.degradations.len(), 2);
        for (d, rung) in fourth
            .degradations
            .iter()
            .zip([LadderRung::TunedPlan, LadderRung::HeuristicPlan])
        {
            assert_eq!(d.rung, rung);
            assert!(
                matches!(d.reason, FailureKind::KnownToFail(g) if Some(g) == verdict),
                "{}",
                d.reason
            );
            assert!(d.reason.is_skip());
            assert_eq!(d.seconds, 0.0);
        }
        assert_eq!(
            fourth.ops.per_level[level].restricts, 0,
            "no plan cycle ran"
        );
        assert!(fourth.rel_residual <= 1e-8);

        let plain = GuardedSolver::new(problem.clone()).with_plan(fam);
        let (want, full_walk) = serve_each(&plain, &problem, level, 43..44, 1e-8).remove(0);
        assert!(matches!(
            full_walk.degradations[0].reason,
            FailureKind::Guard(_)
        ));
        assert_eq!(x.as_slice(), want.as_slice());
        assert_eq!(fourth.residual_history, full_walk.residual_history);
    }

    /// Rule 4: a covered request the remembered rung cannot serve
    /// (1e-18 is below what the band solve delivers) attempts the rungs
    /// it had skipped before it fails, and closes the memory.
    #[test]
    fn a_failing_remembered_rung_tries_the_skipped_rungs_before_the_error() {
        faults::clear();
        let level = 5;
        let (problem, fam) = jump_with_simple_plan(level);
        let memory = Arc::new(LadderMemory::new());
        let solver = remembering_solver(&problem, &fam, &memory);
        serve_each(&solver, &problem, level, 50..53, 1e-8);
        assert!(memory.is_open());

        let inst = instance(level, &problem);
        let mut x = inst.working_grid();
        let err = solver
            .solve(&mut x, &inst.b, 1e-18)
            .expect_err("no rung reaches 1e-18");
        let rungs: Vec<LadderRung> = err.degradations.iter().map(|d| d.rung).collect();
        assert_eq!(rungs, LadderRung::ALL, "{err}");
        let [tuned, heuristic, direct] = &err.degradations[..] else {
            unreachable!()
        };
        assert!(
            matches!(tuned.reason, FailureKind::Guard(_)),
            "{}",
            tuned.reason
        );
        assert!(tuned.seconds > 0.0, "the tuned rung was attempted");
        assert!(
            !matches!(heuristic.reason, FailureKind::KnownToFail(_)),
            "{}",
            heuristic.reason
        );
        assert!(
            matches!(direct.reason, FailureKind::ToleranceNotMet { .. }),
            "{}",
            direct.reason
        );
        assert_eq!(x.as_slice(), inst.working_grid().as_slice(), "x restored");
        assert!(!memory.is_open());

        // What a solver without a memory reports for the same request.
        let mut x = inst.working_grid();
        let plain = GuardedSolver::new(problem)
            .with_plan(fam)
            .solve(&mut x, &inst.b, 1e-18)
            .expect_err("no rung reaches 1e-18");
        let reasons = |e: &SolveError| -> Vec<String> {
            e.degradations
                .iter()
                .map(|d| format!("{}: {}", d.rung, d.reason))
                .collect()
        };
        assert_eq!(reasons(&err), reasons(&plain));
    }

    /// Rule 2: a request looser than what the memory was opened at is
    /// not skipped for, and the tuned rung serving it does not close
    /// the memory.
    #[test]
    fn a_looser_request_neither_reads_nor_writes_the_memory() {
        faults::clear();
        let level = 5;
        let (problem, fam) = jump_with_simple_plan(level);
        let memory = Arc::new(LadderMemory::new());
        let solver = remembering_solver(&problem, &fam, &memory);
        serve_each(&solver, &problem, level, 60..63, 1e-8);
        assert!(memory.is_open());

        let (_, loose) = serve_each(&solver, &problem, level, 63..64, 1e-2).remove(0);
        assert_eq!(loose.rung, LadderRung::TunedPlan);
        assert!(!loose.degraded());
        assert!(memory.is_open(), "an uncovered success is not evidence");

        let (_, tight) = serve_each(&solver, &problem, level, 64..65, 1e-8).remove(0);
        assert!(matches!(
            tight.degradations[0].reason,
            FailureKind::KnownToFail(_)
        ));
    }

    /// Rule 3: a traced solve, and one entered with a fault armed,
    /// see the whole walk and leave the memory as it was.
    #[test]
    fn traced_and_fault_armed_solves_bypass_the_memory() {
        faults::clear();
        let level = 5;
        let (problem, fam) = jump_with_simple_plan(level);
        let memory = Arc::new(LadderMemory::new());
        let solver = remembering_solver(&problem, &fam, &memory);
        let traced = remembering_solver(&problem, &fam, &memory).with_tracing();

        // Neither kind of request counts towards opening it.
        for seed in 70..74 {
            serve_each(&traced, &problem, level, seed..seed + 1, 1e-8);
            faults::inject(Fault::FailDirect { n: 3 });
            serve_each(&solver, &problem, level, seed..seed + 1, 1e-8);
            faults::clear();
        }
        assert!(!memory.is_open());

        serve_each(&solver, &problem, level, 74..77, 1e-8);
        assert!(memory.is_open());
        let (_, report) = serve_each(&traced, &problem, level, 77..78, 1e-8).remove(0);
        assert!(matches!(
            report.degradations[0].reason,
            FailureKind::Guard(_)
        ));
        assert_eq!(
            rungs(&report),
            vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan]
        );
        // A poisoned tuned rung with the memory open: the drill sees
        // its NonFinite verdict, and that verdict is not taken in.
        faults::inject(Fault::PoisonLevel { level });
        let (_, report) = serve_each(&solver, &problem, level, 78..79, 1e-8).remove(0);
        assert!(matches!(
            report.degradations[0].reason,
            FailureKind::Guard(GuardFailure::NonFinite { .. })
        ));
        faults::clear();
        assert!(memory.is_open());
    }
}
