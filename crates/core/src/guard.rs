//! Guarded solves: the degradation ladder.
//!
//! The ROADMAP's north star is a plan-serving engine, and a serving
//! engine must never turn a bad plan into a panic or a silent wrong
//! answer. [`GuardedSolver`] wraps plan execution in the per-cycle
//! [`SolveGuard`] checks from `petamg-solvers` and walks a three-rung
//! **degradation ladder** when anything misbehaves:
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

use crate::faults;
use crate::plan::{simple_v_family, ExecCtx, TunedFamily, MAX_TIMED_LEVELS, PAPER_ACCURACIES};
use crate::telemetry::{rung_idx, SolveTelemetry, RUNGS};
use crate::trace::CycleEvent;
use crate::OpCounts;
use petamg_grid::{l2_norm_interior, Exec, Grid2d, GridLease, Workspace};
use petamg_problems::{residual_norm_op, Problem, StencilOp};
use petamg_solvers::{DirectSolverCache, GuardFailure, GuardVerdict, SolveGuard};
use std::sync::{Arc, Mutex};

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

/// Consecutive covered requests that must end on the same rung below
/// the tuned one before later requests start there.
const KNOWN_AFTER: u32 = 3;

/// While a level's memory is open, every this-many-th covered request
/// walks the whole ladder again.
const REPROBE_EVERY: u32 = 64;

/// The verdicts remembered for the two plan rungs (tuned, heuristic):
/// `Some` exactly for the rungs above the remembered one.
type Verdicts = [Option<GuardFailure>; 2];

/// What one level's recent requests showed.
#[derive(Clone, Copy)]
struct LevelMemory {
    /// Consecutive covered requests that ended on `rung` with only
    /// replayable verdicts above it; 0 when nothing is remembered.
    streak: u32,
    rung: LadderRung,
    verdicts: Verdicts,
    /// The tightest `tol` of the streak: what it covers.
    tol: f64,
    /// Covered requests since the memory opened or last re-probed.
    since_probe: u32,
}

impl LevelMemory {
    const EMPTY: LevelMemory = LevelMemory {
        streak: 0,
        rung: LadderRung::TunedPlan,
        verdicts: [None; 2],
        tol: f64::INFINITY,
        since_probe: 0,
    };

    fn open(&self) -> bool {
        self.streak >= KNOWN_AFTER
    }
}

/// How a request enters the ladder, as its solver's memory decides.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Admission {
    /// No memory, or a request looser than the streak: the whole
    /// ladder, and the memory is not told.
    Unremembered,
    /// The whole ladder; the outcome is remembered.
    Walk,
    /// The whole ladder although the memory is open; the outcome is
    /// remembered and counted as a re-probe.
    Reprobe,
    /// Start at this rung, the rungs above it known to fail.
    StartAt(LadderRung, Verdicts),
}

/// What a resident plan's ladder did for the requests before: per
/// level, the rung that served them and the deterministic verdicts of
/// the rungs above it. See "What the service remembers" in the module
/// docs. One memory belongs to one plan object and is shared by every
/// solver built over that plan.
#[derive(Default)]
pub struct LadderMemory {
    /// Indexed by level, grown on demand.
    levels: Mutex<Vec<LevelMemory>>,
}

impl LadderMemory {
    /// An empty memory: the next requests walk the whole ladder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether requests at some level currently start below the tuned
    /// rung.
    pub fn is_open(&self) -> bool {
        self.lock().iter().any(LevelMemory::open)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<LevelMemory>> {
        self.levels
            .lock()
            .expect("no code path panics while holding the ladder memory")
    }

    /// Decide how a request at `level` to `tol` enters the ladder.
    fn admit(&self, level: usize, tol: f64) -> Admission {
        let mut levels = self.lock();
        if levels.len() <= level {
            levels.resize(level + 1, LevelMemory::EMPTY);
        }
        let m = &mut levels[level];
        let covered = tol <= m.tol;
        if !covered {
            return Admission::Unremembered;
        }
        if !m.open() {
            return Admission::Walk;
        }
        m.since_probe += 1;
        if m.since_probe == REPROBE_EVERY {
            m.since_probe = 0;
            Admission::Reprobe
        } else {
            Admission::StartAt(m.rung, m.verdicts)
        }
    }

    /// Take in how the request admitted as `admission` ended. Returns
    /// whether the level's memory is open afterwards.
    fn settle(
        &self,
        level: usize,
        tol: f64,
        admission: Admission,
        result: Result<&GuardedReport, &SolveError>,
    ) -> bool {
        let mut levels = self.lock();
        let m = &mut levels[level];
        match admission {
            Admission::Unremembered => {}
            // The remembered rung served again: nothing new. Anything
            // else and what was remembered no longer holds.
            Admission::StartAt(rung, _) => {
                if !result.is_ok_and(|report| report.rung == rung) {
                    *m = LevelMemory::EMPTY;
                }
            }
            Admission::Walk | Admission::Reprobe => {
                match result.ok().and_then(replayable_outcome) {
                    Some((rung, verdicts)) if m.streak > 0 && m.rung == rung => {
                        m.streak = m.streak.saturating_add(1);
                        m.verdicts = verdicts;
                        m.tol = m.tol.min(tol);
                    }
                    Some((rung, verdicts)) => {
                        *m = LevelMemory {
                            streak: 1,
                            rung,
                            verdicts,
                            tol,
                            since_probe: 0,
                        }
                    }
                    None => *m = LevelMemory::EMPTY,
                }
            }
        }
        m.open()
    }
}

/// What a full walk's report leaves to remember: the serving rung and
/// the verdicts above it, when the rung is below the tuned one and
/// every rung above failed (or was skipped as the replay of a failure)
/// on a verdict that [`replays_identically`].
fn replayable_outcome(report: &GuardedReport) -> Option<(LadderRung, Verdicts)> {
    let mut verdicts = [None; 2];
    for d in &report.degradations {
        match d.reason {
            FailureKind::Guard(g) | FailureKind::SameScheduleAsFailed(g)
                if replays_identically(&g) =>
            {
                // Only the two plan rungs ever end on a guard verdict.
                verdicts[rung_idx(d.rung)] = Some(g);
            }
            _ => return None,
        }
    }
    (report.rung != LadderRung::TunedPlan).then_some((report.rung, verdicts))
}

/// A solver that executes tuned plans under guard and degrades down
/// the ladder instead of panicking. See the module docs.
pub struct GuardedSolver {
    problem: Problem,
    plan: Option<Arc<TunedFamily>>,
    exec: Exec,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
    tracing: bool,
    telemetry: Option<Arc<SolveTelemetry>>,
    memory: Option<Arc<LadderMemory>>,
}

impl GuardedSolver {
    /// A guarded solver for `problem`: sequential execution, fresh
    /// factor cache, no tuned plan (the ladder starts at the heuristic
    /// rung until [`GuardedSolver::with_plan`] supplies one).
    pub fn new(problem: Problem) -> Self {
        GuardedSolver {
            problem,
            plan: None,
            exec: Exec::seq(),
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
            tracing: false,
            telemetry: None,
            memory: None,
        }
    }

    /// Serve `plan` as the ladder's first rung.
    pub fn with_plan(mut self, plan: TunedFamily) -> Self {
        self.plan = Some(Arc::new(plan));
        self
    }

    /// Serve an already-shared `plan` as the ladder's first rung
    /// without cloning it. This is the serving-engine path: one plan
    /// from the library serves any number of concurrent requests.
    pub fn with_shared_plan(mut self, plan: Arc<TunedFamily>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Execution policy for all kernels.
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
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

    /// The execution context of one guarded solve.
    fn exec_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::with_cache(self.exec.clone(), Arc::clone(&self.cache))
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
    fn walk(
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
            resid_seconds: 0.0,
            degradations: Vec::new(),
            tuned_failure: None,
        };

        // The rungs the memory knows to fail are listed, not run.
        let mut first = 0;
        if let Admission::StartAt(rung, verdicts) = admission {
            first = rung_idx(rung);
            for (rung, verdict) in RUNGS.into_iter().zip(verdicts.into_iter().flatten()) {
                w.failed(rung, FailureKind::KnownToFail(verdict), 0.0);
            }
        }
        let mut served = self.descend(&mut w, x, first..RUNGS.len());
        if served.is_none() && first > 0 {
            // The remembered rung and everything below it failed: what
            // was known no longer holds, and an error may only say
            // "every rung failed" of rungs that ran.
            w.degradations
                .retain(|d| !matches!(d.reason, FailureKind::KnownToFail(_)));
            served = self.descend(&mut w, x, 0..first);
            w.degradations.sort_by_key(|d| rung_idx(d.rung));
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
    /// took. Every rung that fails is recorded in `w` and leaves `x`
    /// the initial guess.
    fn descend(
        &self,
        w: &mut Walk,
        x: &mut Grid2d,
        rungs: std::ops::Range<usize>,
    ) -> Option<(LadderRung, Trajectory, f64)> {
        RUNGS[rungs].iter().find_map(|&rung| {
            let served = match rung {
                LadderRung::TunedPlan => self.try_tuned(w, x),
                LadderRung::HeuristicPlan => self.try_heuristic(w, x),
                LadderRung::Direct => self.try_direct(w, x),
            };
            served.map(|(trajectory, seconds)| (rung, trajectory, seconds))
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

    /// Rung 0: the tuned plan, if one was supplied and it matches.
    fn try_tuned(&self, w: &mut Walk, x: &mut Grid2d) -> Option<(Trajectory, f64)> {
        let fam = self.plan.as_ref()?;
        let rung_start = std::time::Instant::now();
        let failure = match self.admit_plan(fam, w.level) {
            Err(why) => FailureKind::PlanRejected(why),
            Ok(()) => match self.run_family_guarded(fam, w, x) {
                Ok(trajectory) => return Some((trajectory, rung_start.elapsed().as_secs_f64())),
                Err(g) => {
                    x.copy_from(&w.x0);
                    w.tuned_failure = Some(g);
                    FailureKind::Guard(g)
                }
            },
        };
        w.failed(
            LadderRung::TunedPlan,
            failure,
            rung_start.elapsed().as_secs_f64(),
        );
        None
    }

    /// Rung 1: the hand-built MULTIGRID-V-SIMPLE family — unless the
    /// tuned rung just ran that very schedule (same restored `x`) into a
    /// verdict the arithmetic alone decides.
    fn try_heuristic(&self, w: &mut Walk, x: &mut Grid2d) -> Option<(Trajectory, f64)> {
        let heuristic = simple_v_family(w.level.max(1), &PAPER_ACCURACIES);
        let replayed = match (&self.plan, w.tuned_failure) {
            (Some(fam), Some(g))
                if replays_identically(&g)
                    && fam.accuracies == heuristic.accuracies
                    && fam.plans[..=w.level] == heuristic.plans[..=w.level] =>
            {
                Some(g)
            }
            _ => None,
        };
        if let Some(g) = replayed {
            w.failed(
                LadderRung::HeuristicPlan,
                FailureKind::SameScheduleAsFailed(g),
                0.0,
            );
            return None;
        }
        let rung_start = std::time::Instant::now();
        match self.run_family_guarded(&heuristic, w, x) {
            Ok(trajectory) => Some((trajectory, rung_start.elapsed().as_secs_f64())),
            Err(g) => {
                x.copy_from(&w.x0);
                w.failed(
                    LadderRung::HeuristicPlan,
                    FailureKind::Guard(g),
                    rung_start.elapsed().as_secs_f64(),
                );
                None
            }
        }
    }

    /// Rung 2: unconditional full-size direct solve.
    fn try_direct(&self, w: &mut Walk, x: &mut Grid2d) -> Option<(Trajectory, f64)> {
        let n = x.n();
        let rung_start = std::time::Instant::now();
        let factor = if faults::fail_direct(n) {
            Err("injected factorization fault".to_string())
        } else {
            self.cache
                .try_get_op(n, w.check.op)
                .map_err(|e| format!("{e:?}"))
        };
        let failure = match factor {
            Err(why) => FailureKind::DirectFactorization(why),
            Ok(direct) => {
                let events = [CycleEvent::Direct { level: w.level }];
                w.ctx
                    .kernel(w.level, x, &events, |_, x| direct.solve(x, w.check.b));
                let check_start = std::time::Instant::now();
                let rel = w.check.rel(x, &w.ctx.workspace, &w.ctx.exec);
                w.resid_seconds += check_start.elapsed().as_secs_f64();
                if rel.is_finite() && rel <= w.tol {
                    let trajectory = Trajectory {
                        history: vec![rel],
                        members: Vec::new(),
                    };
                    return Some((trajectory, rung_start.elapsed().as_secs_f64()));
                }
                x.copy_from(&w.x0);
                FailureKind::ToleranceNotMet { rel_residual: rel }
            }
        };
        w.failed(
            LadderRung::Direct,
            failure,
            rung_start.elapsed().as_secs_f64(),
        );
        None
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
            let check_start = std::time::Instant::now();
            let rel = w.check.rel(x, &w.ctx.workspace, &w.ctx.exec);
            w.resid_seconds += check_start.elapsed().as_secs_f64();
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
            residual_check_seconds: w.resid_seconds,
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
    /// Wall time of the per-cycle residual checks so far.
    resid_seconds: f64,
    degradations: Vec<Degradation>,
    /// The tuned rung's guard verdict, once it has failed on one.
    tuned_failure: Option<GuardFailure>,
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
}

impl<'a> ResidualCheck<'a> {
    fn new(op: &'a StencilOp, b: &'a Grid2d) -> Self {
        ResidualCheck {
            op,
            b,
            b_norm: None,
        }
    }

    /// Relative residual of `x`. The residual is reduced row by row
    /// (row buffers leased from `ws`), never stored as a grid.
    fn rel(&mut self, x: &Grid2d, ws: &Workspace, exec: &Exec) -> f64 {
        let r_norm = residual_norm_op(self.op, x, self.b, ws, exec);
        let b = self.b;
        let b_norm = self
            .b_norm
            .get_or_insert_with(|| l2_norm_interior(b, exec).max(f64::MIN_POSITIVE));
        r_norm / *b_norm
    }
}

/// The family member a follow-up cycle runs: the cheapest one whose
/// tuned accuracy `p_i` covers the reduction still `need`ed
/// (`rel / tol`), but no member below `floor` — and the top member when
/// nothing sub-top qualifies.
pub(crate) fn select_member(fam: &TunedFamily, need: f64, floor: usize) -> usize {
    fam.acc_index_for(need)
        .max(floor)
        .min(fam.num_accuracies() - 1)
}

/// A converged guarded iteration, as the serving rung's report carries
/// it: `members[c]` ran cycle `c` and left `history[c]`.
struct Trajectory {
    history: Vec<f64>,
    members: Vec<u8>,
}

/// Which member each cycle of one guarded iteration runs.
///
/// Cycle 1 runs the top member: no residual is known yet. Every later
/// cycle runs [`select_member`] of what the last observation left to
/// do. A sub-top member that was given the job and missed is not asked
/// again, nor is anything weaker (`floor`), so an iteration spends at
/// most `m − 1` sub-top cycles — each cheaper than a top cycle — before
/// it is back on the top member for good.
#[derive(Default)]
struct MemberWalk {
    floor: usize,
    members: Vec<u8>,
}

impl MemberWalk {
    /// The member the next cycle runs.
    fn next(&self, fam: &TunedFamily, guard: &SolveGuard) -> usize {
        match guard.history().last() {
            None => fam.num_accuracies() - 1,
            Some(rel) => select_member(fam, rel / guard.target(), self.floor),
        }
    }

    /// Record that `member` ran and left `rel`; the guard's verdict,
    /// except that a budget projection drawn from weaker members than
    /// the one about to run is not acted on. The projection's ρ is the
    /// best contraction of the last four cycles, which bounds the cycles
    /// still needed from below only while the cycles to come are no
    /// stronger than the ones observed.
    fn observe(
        &mut self,
        fam: &TunedFamily,
        guard: &mut SolveGuard,
        member: usize,
        rel: f64,
    ) -> GuardVerdict {
        self.members
            .push(u8::try_from(member).expect("an admitted family has at most 256 members"));
        let verdict = guard.observe(rel);
        if verdict != GuardVerdict::Converged && member + 1 < fam.num_accuracies() {
            self.floor = member + 1;
        }
        match verdict {
            GuardVerdict::Fail(GuardFailure::BudgetUnreachable { .. })
                if self.next(fam, guard) > member =>
            {
                GuardVerdict::Continue
            }
            verdict => verdict,
        }
    }

    /// The converged iteration's record.
    fn finish(self, guard: &SolveGuard) -> Trajectory {
        Trajectory {
            history: guard.history().to_vec(),
            members: self.members,
        }
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
    use crate::plan::Choice;
    use crate::training::{Distribution, ProblemInstance};
    use petamg_problems::residual_op;

    /// The rungs a solve degraded past, in order.
    fn rungs(report: &GuardedReport) -> Vec<LadderRung> {
        report.degradations.iter().map(|d| d.rung).collect()
    }

    fn instance(level: usize, problem: &Problem) -> ProblemInstance {
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

    /// The jump-coefficient profile at `level`, with the stamped
    /// `MULTIGRID-V-SIMPLE` family the default serving policy hands out.
    fn jump_with_simple_plan(level: usize) -> (Problem, TunedFamily) {
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
            let exec = Exec::seq();
            residual_op(&problem.op_for(x.n()), &x, &inst.b, &mut r, &exec);
            let rel = l2_norm_interior(&r, &exec) / l2_norm_interior(&inst.b, &exec);
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
            let mut ctx = ExecCtx::new(Exec::seq()).with_problem(problem.clone());
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

    /// A budget projection drawn from members weaker than the one about
    /// to run is not acted on; once the top member has run, it is. Fed
    /// the same trajectory — 9.5x above the target, then 1 % better per
    /// cycle — a bare guard projects its budget unreachable at cycle 5.
    #[test]
    fn a_projection_from_weaker_members_is_not_acted_on() {
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let tol = 1e-8;
        let trajectory: Vec<f64> = (0..6).map(|c| 9.5 * tol * 0.99f64.powi(c)).collect();
        let mut bare = SolveGuard::new(tol);
        let bare_verdicts: Vec<GuardVerdict> =
            trajectory.iter().map(|&rel| bare.observe(rel)).collect();
        assert!(
            matches!(
                bare_verdicts[4],
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle: 5, .. })
            ),
            "{bare_verdicts:?}"
        );

        let mut guard = SolveGuard::new(tol);
        let mut walk = MemberWalk::default();
        let verdicts: Vec<GuardVerdict> = trajectory
            .iter()
            .map(|&rel| {
                let member = walk.next(&fam, &guard);
                walk.observe(&fam, &mut guard, member, rel)
            })
            .collect();
        assert_eq!(walk.members, [4, 0, 1, 2, 3, 4]);
        assert_eq!(verdicts[..5], [GuardVerdict::Continue; 5]);
        assert_eq!(verdicts[5], bare_verdicts[5]);
        assert!(
            matches!(
                verdicts[5],
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle: 6, .. })
            ),
            "{verdicts:?}"
        );
    }

    // -----------------------------------------------------------------
    // Ladder memory.
    // -----------------------------------------------------------------

    /// A solver for `problem` serving `fam` over `memory`.
    fn remembering_solver(
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
        assert_eq!(rungs, RUNGS, "{err}");
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

    /// What each rung would do with one generated request, and the
    /// verdict a failing plan rung ends on.
    #[derive(Clone, Copy, Debug)]
    struct World {
        serves: [bool; 3],
        verdict: GuardFailure,
    }

    /// The ladder `GuardedSolver::walk` implements, with `world`
    /// standing in for the arithmetic.
    fn simulated_walk(world: World, admission: Admission) -> Result<GuardedReport, SolveError> {
        let mut degradations = Vec::new();
        let mut first = 0;
        if let Admission::StartAt(rung, verdicts) = admission {
            first = rung_idx(rung);
            for (rung, g) in RUNGS.into_iter().zip(verdicts.into_iter().flatten()) {
                degradations.push(Degradation {
                    rung,
                    reason: FailureKind::KnownToFail(g),
                    seconds: 0.0,
                });
            }
        }
        for i in (first..3).chain(0..first) {
            if i == 0 && first > 0 {
                degradations.retain(|d| !matches!(d.reason, FailureKind::KnownToFail(_)));
            }
            if world.serves[i] {
                return Ok(GuardedReport {
                    rung: RUNGS[i],
                    rel_residual: 0.0,
                    residual_history: Vec::new(),
                    members: Vec::new(),
                    degradations,
                    seconds: 0.0,
                    rung_seconds: 0.0,
                    residual_check_seconds: 0.0,
                    ops: OpCounts::default(),
                    events: Vec::new(),
                });
            }
            degradations.push(Degradation {
                rung: RUNGS[i],
                reason: if RUNGS[i] == LadderRung::Direct {
                    FailureKind::DirectFactorization("generated".into())
                } else {
                    FailureKind::Guard(world.verdict)
                },
                seconds: 1.0,
            });
        }
        Err(SolveError { degradations })
    }

    /// The reference model of one level's memory.
    struct Model {
        streak: u32,
        rung: LadderRung,
        tol: f64,
        since_probe: u32,
    }

    impl Model {
        const EMPTY: Model = Model {
            streak: 0,
            rung: LadderRung::TunedPlan,
            tol: f64::INFINITY,
            since_probe: 0,
        };

        /// The rung a request that may use the memory must be started
        /// at (`None`: the whole ladder), and whether that walk is a
        /// re-probe; then the state after it.
        fn step(&mut self, world: World, tol: f64) -> (Option<LadderRung>, bool) {
            if tol > self.tol {
                return (None, false);
            }
            let open = self.streak >= KNOWN_AFTER;
            if open {
                self.since_probe += 1;
            }
            let reprobe = open && self.since_probe == REPROBE_EVERY;
            if open && !reprobe {
                if !world.serves[rung_idx(self.rung)] {
                    *self = Model::EMPTY;
                    return (Some(LadderRung::TunedPlan), false);
                }
                return (Some(self.rung), false);
            }
            if reprobe {
                self.since_probe = 0;
            }
            let served = world.serves.iter().position(|&s| s);
            match served {
                Some(i) if i > 0 && replays_identically(&world.verdict) => {
                    if self.streak > 0 && self.rung == RUNGS[i] {
                        self.streak += 1;
                        self.tol = self.tol.min(tol);
                    } else {
                        *self = Model {
                            streak: 1,
                            rung: RUNGS[i],
                            tol,
                            since_probe: 0,
                        };
                    }
                }
                _ => *self = Model::EMPTY,
            }
            (None, reprobe)
        }
    }

    /// Runs of identical requests: (what the rungs do, tolerance,
    /// how the request is made, how many times).
    fn arb_traffic() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8, u8, u32)>> {
        use proptest::prelude::*;
        prop::collection::vec((0u8..12, 0u8..3, 0u8..6, 1u32..90), 1..10)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The memory against its model over generated traffic: which
        /// requests start low and where, which walk the whole ladder,
        /// which of those are re-probes, and whether the memory is open
        /// after each — with traced and fault-armed requests changing
        /// nothing.
        #[test]
        fn ladder_memory_follows_its_model(traffic in arb_traffic()) {
            use proptest::prelude::*;
            faults::clear();
            let level = 3;
            let memory = Arc::new(LadderMemory::new());
            let fam = simple_v_family(level, &PAPER_ACCURACIES);
            let solver = remembering_solver(&Problem::poisson(), &fam, &memory);
            let traced = remembering_solver(&Problem::poisson(), &fam, &memory).with_tracing();
            let mut model = Model::EMPTY;
            for (outcome, tol, how, repeat) in traffic {
                let world = match outcome {
                    0 => World { serves: [true; 3], verdict: GuardFailure::Stagnated { cycle: 9 } },
                    1 => World { serves: [false, true, true], verdict: GuardFailure::Diverged { cycle: 4, growth: 3.0 } },
                    2 => World { serves: [false, false, true], verdict: GuardFailure::NonFinite { cycle: 1 } },
                    3 => World { serves: [false; 3], verdict: GuardFailure::BudgetExhausted { cycles: 50 } },
                    _ => World { serves: [false, false, true], verdict: GuardFailure::BudgetUnreachable { cycle: 5, needed: 80 } },
                };
                let tol = [1e-6, 1e-8, 1e-10][usize::from(tol)];
                for _ in 0..repeat {
                    let mut admitted = None;
                    let walk = |admission| {
                        admitted = Some(admission);
                        simulated_walk(world, admission)
                    };
                    match how {
                        0 => {
                            let _ = traced.remembering(level, tol, walk);
                            prop_assert_eq!(admitted, Some(Admission::Unremembered));
                        }
                        1 => {
                            faults::inject(Fault::FailDirect { n: 3 });
                            let _ = solver.remembering(level, tol, walk);
                            faults::clear();
                            prop_assert_eq!(admitted, Some(Admission::Unremembered));
                        }
                        _ => {
                            let was_covered = tol <= model.tol;
                            let was_open = model.streak >= KNOWN_AFTER;
                            let (start, reprobe) = model.step(world, tol);
                            let result = solver.remembering(level, tol, walk);
                            match admitted.expect("the walk ran") {
                                Admission::Unremembered => prop_assert!(!was_covered),
                                Admission::Walk => prop_assert!(was_covered && !was_open),
                                Admission::Reprobe => prop_assert!(reprobe),
                                Admission::StartAt(rung, _) => {
                                    prop_assert!(was_open && !reprobe);
                                    // Served where the memory said, or
                                    // (rule 4) after every rung was tried.
                                    match start {
                                        Some(LadderRung::TunedPlan) => {
                                            prop_assert!(!world.serves[rung_idx(rung)]);
                                            if let Err(e) = &result {
                                                prop_assert_eq!(e.degradations.len(), 3);
                                                prop_assert!(e.degradations.iter().all(|d| !d.reason.is_skip()));
                                            }
                                        }
                                        other => {
                                            prop_assert_eq!(other, Some(rung));
                                            prop_assert_eq!(result.map(|r| r.rung).ok(), Some(rung));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    prop_assert_eq!(memory.is_open(), model.streak >= KNOWN_AFTER);
                }
            }
        }
    }

    /// The two constants, exactly: open after the third covered
    /// failure, re-probe on every 64th covered request from there.
    #[test]
    fn opens_after_three_and_reprobes_every_sixty_fourth() {
        faults::clear();
        let level = 3;
        let memory = Arc::new(LadderMemory::new());
        let fam = simple_v_family(level, &PAPER_ACCURACIES);
        let solver = remembering_solver(&Problem::poisson(), &fam, &memory);
        let world = World {
            serves: [false, false, true],
            verdict: GuardFailure::BudgetUnreachable {
                cycle: 5,
                needed: 80,
            },
        };
        let mut full_walks = Vec::new();
        for request in 1..=200u32 {
            solver
                .remembering(level, 1e-8, |admission| {
                    match admission {
                        Admission::Walk | Admission::Reprobe => full_walks.push(request),
                        Admission::StartAt(rung, _) => assert_eq!(rung, LadderRung::Direct),
                        Admission::Unremembered => panic!("every request is covered"),
                    }
                    simulated_walk(world, admission)
                })
                .expect("direct serves");
            assert_eq!(memory.is_open(), request >= 3, "request {request}");
        }
        assert_eq!(full_walks, [1, 2, 3, 3 + 64, 3 + 128, 3 + 192]);

        // The tuned rung serving a re-probe closes it.
        let healthy = World {
            serves: [true; 3],
            ..world
        };
        for _ in 0..REPROBE_EVERY {
            solver
                .remembering(level, 1e-8, |admission| simulated_walk(healthy, admission))
                .expect("serves");
        }
        assert!(!memory.is_open());
    }
}
