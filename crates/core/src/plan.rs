//! Tuned-plan representation and executor.
//!
//! A tuned family is the output of the DP autotuner: for every level `k`
//! and accuracy index `i`, the fastest [`Choice`] that achieves accuracy
//! `p_i` at grid size `2^k + 1`. Executing a plan reproduces the paper's
//! `MULTIGRID-V_i` / `RECURSE_i` pseudocode exactly:
//!
//! ```text
//! MULTIGRID-V_i(x, b):  either
//!   | Solve directly
//!   | Iterate SOR(ω_opt) until accuracy p_i       (tuned iteration count)
//!   | For some j, iterate RECURSE_j until p_i     (tuned j and count)
//!
//! RECURSE_j(x, b):
//!   one SOR(1.15) sweep; restrict residual; MULTIGRID-V_j one level
//!   down; interpolate-correct; one SOR(1.15) sweep
//! ```
//!
//! [`ExecCtx`] is the one code that runs and counts a multigrid
//! operation: the executor threads it through the recursion, and the
//! tuners price and walk their candidates through it. Every traversal
//! of a cycle is one `ExecCtx::edge` — the one fused cycle edge of
//! `petamg_solvers`, noting the operations its shape runs — and `t`
//! iterations of `RECURSE_j` are `ExecCtx::recurse`: the pre edge, `t −
//! 1` step boundaries (one step's post edge fused with the next one's
//! pre edge), the post edge. The context also keeps the cycle events
//! (for the renderer) and shares the direct-solver factor cache.

use crate::accuracy::error_ratio;
#[cfg(test)]
use crate::accuracy::ACC_CAP;
use crate::cost::OpCounts;
use crate::trace::CycleEvent;
use crate::training::ProblemInstance;
use crate::tuner::DefaultKnobs;
use petamg_grid::{
    coarse_size, l2_norm_interior, level_size, size_level, BatchGrid, Grid2d, SimdMode, Workspace,
};
use petamg_problems::{residual_norm_op, Problem, ProblemFingerprint, ProblemMismatch, StencilOp};
use petamg_solvers::fused::cycle_edge;
use petamg_solvers::relax::{omega_opt, OMEGA_CYCLE};
use petamg_solvers::{DirectSolverCache, SolveStatus};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The accuracy targets used throughout the paper:
/// `(p_i) = (10, 10³, 10⁵, 10⁷, 10⁹)`.
pub const PAPER_ACCURACIES: [f64; 5] = [1e1, 1e3, 1e5, 1e7, 1e9];

/// One algorithmic choice of `MULTIGRID-V_i` at a given level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Choice {
    /// Band-Cholesky direct solve (accuracy `ACC_CAP`).
    Direct,
    /// `iterations` sweeps of Red-Black SOR with ω_opt.
    Sor {
        /// Tuned sweep count.
        iterations: u32,
    },
    /// `iterations` applications of `RECURSE_{sub_accuracy}` (which
    /// recurses into `MULTIGRID-V_{sub_accuracy}` one level down).
    Recurse {
        /// Accuracy index `j` used for the recursive call.
        sub_accuracy: u8,
        /// Tuned cycle count.
        iterations: u32,
    },
}

impl Choice {
    /// Short display form, e.g. `Direct`, `SOR×12`, `RECURSE_2×3`.
    pub fn describe(&self) -> String {
        match self {
            Choice::Direct => "Direct".into(),
            Choice::Sor { iterations } => format!("SOR×{iterations}"),
            Choice::Recurse {
                sub_accuracy,
                iterations,
            } => format!("RECURSE_{sub_accuracy}×{iterations}"),
        }
    }
}

/// Deepest grid level the executor's kernel clock tells apart (deeper
/// levels accumulate into the last slot). Level 13 is already
/// n = 8193 — beyond every sweep in the workspace.
pub(crate) const MAX_TIMED_LEVELS: usize = 16;

/// Execution context threaded through plan execution.
pub struct ExecCtx {
    /// The SIMD mode of every grid sweep.
    pub mode: SimdMode,
    /// The posed problem: every kernel the executor runs applies the
    /// operator [`Problem::op_for`] returns for its level's size.
    /// Defaults to constant-coefficient Poisson (the legacy behaviour,
    /// bit for bit).
    pub problem: Problem,
    /// Shared band-Cholesky factor cache.
    pub cache: Arc<DirectSolverCache>,
    /// Shared per-level scratch arena. Recursion leases coarse grids
    /// (and the fused kernels their row buffers) from here, so repeated
    /// plan executions allocate nothing once warm.
    pub workspace: Arc<Workspace>,
    /// Accumulated operation counts.
    pub ops: OpCounts,
    /// The executed operations in order, when tracing
    /// ([`ExecCtx::tracing`]).
    pub events: Option<Vec<CycleEvent>>,
    /// Kernel seconds per level, when the kernels are clocked (the
    /// guarded solver arms this for the telemetry feed's per-level
    /// histograms).
    pub(crate) kernel_seconds: Option<[f64; MAX_TIMED_LEVELS]>,
}

impl ExecCtx {
    /// Context with a fresh cache, no tracing and no kernel clock.
    pub fn new(mode: SimdMode) -> Self {
        Self::with_cache(mode, Arc::new(DirectSolverCache::new()))
    }

    /// Context sharing an existing factor cache.
    pub fn with_cache(mode: SimdMode, cache: Arc<DirectSolverCache>) -> Self {
        ExecCtx {
            mode,
            problem: Problem::poisson(),
            cache,
            workspace: Arc::new(Workspace::new()),
            ops: OpCounts::default(),
            events: None,
            kernel_seconds: None,
        }
    }

    /// Pose a problem: every kernel this context drives runs the
    /// problem's operator at its level.
    pub fn with_problem(mut self, problem: Problem) -> Self {
        self.problem = problem;
        self
    }

    /// Replace the scratch arena with a shared one (tuners reuse one
    /// workspace across every candidate evaluation).
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.workspace = workspace;
        self
    }

    /// Keep the executed operations in [`ExecCtx::events`].
    pub fn tracing(mut self) -> Self {
        self.events = Some(Vec::new());
        self
    }

    /// Count one executed operation, and keep it when tracing.
    #[inline]
    fn note(&mut self, event: CycleEvent) {
        self.ops.note(event);
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Run one kernel at `level` whose output grid is `out`, then note
    /// the operations it performed. The kernel is clocked into
    /// `kernel_seconds` when that is armed. The kernel is
    /// also the fault point: when a
    /// [`crate::faults::Fault::PoisonLevel`] is armed for `level`, `out`
    /// gets a NaN at its center — an O(1) poke the guard's finiteness
    /// check must catch. Disabled cost is one thread-local flag read.
    #[inline]
    pub(crate) fn kernel(
        &mut self,
        level: usize,
        out: &mut Grid2d,
        events: impl IntoIterator<Item = CycleEvent>,
        run: impl FnOnce(&Self, &mut Grid2d),
    ) {
        let start = self.kernel_seconds.is_some().then(std::time::Instant::now);
        run(self, out);
        if let (Some(start), Some(seconds)) = (start, &mut self.kernel_seconds) {
            seconds[level.min(MAX_TIMED_LEVELS - 1)] += start.elapsed().as_secs_f64();
        }
        if crate::faults::poison_level(level) {
            let n = out.n();
            out.set(n / 2, n / 2, f64::NAN);
        }
        for event in events {
            self.note(event);
        }
    }

    /// One cycle edge at `level` ([`cycle_edge`]): add the interpolation
    /// of `correction` (if any) into `x`, run `sweeps` SOR(`omega`)
    /// sweeps, and residual-restrict into `coarse` (if any). It notes
    /// what that same shape runs: `Interpolate` if it corrects, `Relax`
    /// per sweep, then `Residual` and `Restrict` if it restricts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn edge(
        &mut self,
        level: usize,
        correction: Option<&Grid2d>,
        x: &mut Grid2d,
        b: &Grid2d,
        coarse: Option<&mut Grid2d>,
        sweeps: usize,
        omega: f64,
    ) {
        use CycleEvent::{Interpolate, Relax, Residual, Restrict};
        let restricts = coarse.is_some();
        let restrict = [Residual { level }, Restrict { from: level }];
        let events = correction
            .map(|_| Interpolate { to: level })
            .into_iter()
            .chain(std::iter::repeat_n(Relax { level }, sweeps))
            .chain(restrict.into_iter().filter(|_| restricts));
        self.kernel(level, x, events, |ctx, x| {
            ctx.traverse(correction, x, b, coarse, sweeps, omega)
        });
    }

    /// [`cycle_edge`] of the posed problem's operator on `x`: the one
    /// call of it in the executor, noting nothing.
    fn traverse(
        &self,
        correction: Option<&Grid2d>,
        x: &mut Grid2d,
        b: &Grid2d,
        coarse: Option<&mut Grid2d>,
        sweeps: usize,
        omega: f64,
    ) {
        let op = self.problem.op_for(x.n());
        let ws = &self.workspace;
        cycle_edge(&op, correction, x, b, coarse, omega, sweeps, ws, self.mode);
    }

    /// `t = iterations` applications of `RECURSE` at `level`, each
    /// coarse problem `(ec, bc)` solved by `coarse_solve`: the pre edge
    /// `(None, 1, Some)`, `t − 1` step boundaries `(Some, 2, Some)` and
    /// the post edge `(Some, 1, None)` — bitwise, count for count and
    /// event for event `t` single steps, in `t + 1` traversals of the
    /// grid at `level` instead of `2t`. At level 1 each is a direct solve.
    pub(crate) fn recurse(
        &mut self,
        level: usize,
        iterations: u32,
        x: &mut Grid2d,
        b: &Grid2d,
        mut coarse_solve: impl FnMut(&mut Self, &mut Grid2d, &Grid2d),
    ) {
        if level <= 1 {
            for _ in 0..iterations {
                self.direct(level, x, b);
            }
            return;
        }
        if iterations == 0 {
            return;
        }
        let nc = coarse_size(x.n());
        // The local Arc keeps the leases from borrowing `self`. Every
        // edge that writes `bc` overwrites all of it; `ec` is each
        // coarse solve's zero initial guess.
        let ws = Arc::clone(&self.workspace);
        let mut bc = ws.acquire_unzeroed(nc);
        let mut ec = ws.acquire(nc);
        self.edge(level, None, x, b, Some(&mut *bc), 1, OMEGA_CYCLE);
        for step in 1..=iterations {
            coarse_solve(self, &mut ec, &bc);
            if step == iterations {
                self.edge(level, Some(&*ec), x, b, None, 1, OMEGA_CYCLE);
            } else {
                self.edge(level, Some(&*ec), x, b, Some(&mut *bc), 2, OMEGA_CYCLE);
                ec.fill_zero();
            }
        }
    }

    /// A direct solve at `level`.
    pub(crate) fn direct(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d) {
        let op = self.problem.op_for(x.n());
        self.kernel(level, x, [CycleEvent::Direct { level }], |ctx, x| {
            ctx.cache.solve_op(x, b, &op)
        });
    }

    /// `iterations` SOR(ω_opt) sweeps at `level`, one wavefront
    /// traversal each — bitwise the staged
    /// [`petamg_solvers::relax::sor_sweep_op`]. Running all of them in
    /// one traversal measured no faster (ARCHITECTURE, `crates/solvers`).
    pub(crate) fn sor_solve(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d, iterations: u32) {
        let omega = omega_opt(x.n());
        let events = [CycleEvent::SorSolve { level, iterations }];
        self.kernel(level, x, events, |ctx, x| {
            for _ in 0..iterations {
                ctx.traverse(None, x, b, None, 1, omega);
            }
        });
    }
}

/// A tuned `MULTIGRID-V_i` family: the DP table of fastest choices.
/// `core::persist` writes and reads it as a plan file (schema v6).
#[derive(Clone, Debug)]
pub struct TunedFamily {
    /// Accuracy targets `p_i`, ascending.
    pub accuracies: Vec<f64>,
    /// Largest tuned level.
    pub max_level: usize,
    /// `plans[k][i]` = choice for level `k`, accuracy index `i`
    /// (`plans[0]` is unused padding; `plans[1]` is always `Direct`).
    pub plans: Vec<Vec<Choice>>,
    // Pinned by `benchmark/src/probes.rs` (`core.plan.cycle_us.*`); delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub knobs: DefaultKnobs,
    /// Fingerprint of the problem this family was tuned for.
    pub problem: ProblemFingerprint,
    /// Human-readable provenance (distribution, cost model, seed).
    pub provenance: String,
}

/// Outcome of [`TunedFamily::solve`].
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Accuracy level achieved (error-ratio metric, capped).
    pub achieved_accuracy: f64,
    /// Which `p_i` was requested.
    pub target_accuracy: f64,
    /// Accuracy index executed.
    pub acc_idx: usize,
    /// Wall time of the solve.
    pub seconds: f64,
    /// Operation counts of the solve.
    pub ops: OpCounts,
}

impl TunedFamily {
    /// Number of accuracy levels `m`.
    pub fn num_accuracies(&self) -> usize {
        self.accuracies.len()
    }

    /// The choice at `(level, acc_idx)`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn plan(&self, level: usize, acc_idx: usize) -> Choice {
        self.plans[level][acc_idx]
    }

    /// Check that this plan was tuned for `posed`'s problem; the typed
    /// [`ProblemMismatch`] error carries both fingerprints. Every
    /// `solve`/`solve_with` call enforces this, and
    /// `petamg::persist::load_plan_for` rejects mismatched files at
    /// load time.
    pub fn ensure_problem(&self, posed: &ProblemFingerprint) -> Result<(), ProblemMismatch> {
        if &self.problem == posed {
            Ok(())
        } else {
            Err(ProblemMismatch {
                plan: Box::new(self.problem.clone()),
                posed: Box::new(posed.clone()),
            })
        }
    }

    /// Smallest accuracy index whose target `p_i >= target` (last index
    /// if none).
    pub fn acc_index_for(&self, target: f64) -> usize {
        self.accuracies
            .iter()
            .position(|&p| p >= target)
            .unwrap_or(self.accuracies.len() - 1)
    }

    /// Structural validation (shape, index ranges, base level direct).
    pub fn validate(&self) -> Result<(), String> {
        let m = self.accuracies.len();
        if m == 0 {
            return Err("no accuracy levels".into());
        }
        if m > usize::from(u8::MAX) + 1 {
            return Err(format!("{m} accuracy levels: members are indexed by a u8"));
        }
        if !self.accuracies.windows(2).all(|w| w[0] < w[1]) {
            return Err("accuracies must be ascending".into());
        }
        if self.plans.len() != self.max_level + 1 {
            return Err(format!(
                "plans length {} != max_level+1 {}",
                self.plans.len(),
                self.max_level + 1
            ));
        }
        for (k, row) in self.plans.iter().enumerate().skip(1) {
            if row.len() != m {
                return Err(format!("level {k} has {} plans, want {m}", row.len()));
            }
            for (i, c) in row.iter().enumerate() {
                match c {
                    Choice::Recurse {
                        sub_accuracy,
                        iterations,
                    } => {
                        if k == 1 {
                            return Err("level 1 cannot recurse".into());
                        }
                        if *sub_accuracy as usize >= m {
                            return Err(format!(
                                "level {k} acc {i}: sub accuracy {sub_accuracy} out of range"
                            ));
                        }
                        if *iterations == 0 {
                            return Err(format!("level {k} acc {i}: zero iterations"));
                        }
                    }
                    Choice::Sor { iterations } => {
                        if *iterations == 0 {
                            return Err(format!("level {k} acc {i}: zero iterations"));
                        }
                    }
                    Choice::Direct => {}
                }
                if k == 1 && !matches!(c, Choice::Direct) {
                    return Err("level 1 must solve directly".into());
                }
            }
        }
        Ok(())
    }

    /// Execute `MULTIGRID-V_{acc_idx}` at `level` on `(x, b)`.
    ///
    /// # Panics
    /// Panics if `x` is not sized for `level` or indices are out of
    /// range.
    pub fn run(&self, level: usize, acc_idx: usize, x: &mut Grid2d, b: &Grid2d, ctx: &mut ExecCtx) {
        assert_eq!(x.n(), level_size(level), "grid does not match level");
        ctx.note(CycleEvent::EnterV { level, acc_idx });
        match self.plans[level][acc_idx] {
            Choice::Direct => ctx.direct(level, x, b),
            Choice::Sor { iterations } => ctx.sor_solve(level, x, b, iterations),
            Choice::Recurse {
                sub_accuracy,
                iterations,
            } => ctx.recurse(level, iterations, x, b, |ctx, ec, bc| {
                self.run(level - 1, sub_accuracy as usize, ec, bc, ctx)
            }),
        }
    }

    // Pinned by `benchmark/src/probes.rs` (`core.plan.batch_cycle_us_per_system.n129`); delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub fn run_batch(
        &self,
        level: usize,
        acc_idx: usize,
        x: &mut BatchGrid,
        b: &BatchGrid,
        ctx: &mut ExecCtx,
    ) {
        for (x, b) in x.0.iter_mut().zip(&b.0) {
            self.run(level, acc_idx, x, b, ctx);
        }
    }

    /// Solve `inst` to (at least) `target` accuracy using the family
    /// member tuned for the smallest `p_i >= target`. Computes the
    /// reference solution if needed (not included in the reported time).
    pub fn solve(&self, inst: &mut ProblemInstance, target: f64) -> SolveReport {
        let mode = SimdMode::host();
        self.solve_with(inst, target, mode, &Arc::new(DirectSolverCache::new()))
    }

    /// [`TunedFamily::solve`] with explicit policy and cache.
    pub fn solve_with(
        &self,
        inst: &mut ProblemInstance,
        target: f64,
        mode: SimdMode,
        cache: &Arc<DirectSolverCache>,
    ) -> SolveReport {
        Family::V(self).solve_with(inst, target, mode, cache)
    }

    /// The grid sizes whose direct factors member `acc_idx` at `level`
    /// solves with, finest first (a size may repeat).
    pub fn direct_sizes(&self, level: usize, acc_idx: usize) -> Vec<usize> {
        match self.plans[level][acc_idx] {
            Choice::Direct => vec![level_size(level)],
            Choice::Sor { .. } => Vec::new(),
            Choice::Recurse { .. } if level <= 1 => vec![level_size(level)],
            Choice::Recurse { sub_accuracy, .. } => {
                let mut sizes = if level - 1 == 1 {
                    vec![level_size(1)]
                } else {
                    Vec::new()
                };
                sizes.extend(self.direct_sizes(level - 1, sub_accuracy as usize));
                sizes
            }
        }
    }
}

/// Follow-up phase of a tuned `FULL-MULTIGRID_i` after the estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FollowUp {
    /// Iterate SOR(ω_opt).
    Sor {
        /// Tuned sweep count.
        iterations: u32,
    },
    /// Iterate `RECURSE_{sub_accuracy}` cycles (V-family recursion).
    Recurse {
        /// V-family accuracy index for the recursive calls.
        sub_accuracy: u8,
        /// Tuned cycle count.
        iterations: u32,
    },
}

/// One choice of `FULL-MULTIGRID_i` (paper §2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FmgChoice {
    /// Direct solve.
    Direct,
    /// `ESTIMATE_{estimate_accuracy}` (recursive FMG on the restricted
    /// problem) followed by the follow-up iteration.
    Estimate {
        /// FMG accuracy index `j` for the estimation phase.
        estimate_accuracy: u8,
        /// What runs after the estimate.
        follow: FollowUp,
    },
}

/// A tuned `FULL-MULTIGRID_i` family layered over a tuned V family.
#[derive(Clone, Debug)]
pub struct TunedFmgFamily {
    /// The underlying tuned `MULTIGRID-V` family (used by follow-up
    /// recursion).
    pub v: TunedFamily,
    /// `plans[k][i]` = FMG choice for level `k`, accuracy `i`.
    pub plans: Vec<Vec<FmgChoice>>,
}

impl TunedFmgFamily {
    /// Execute `FULL-MULTIGRID_{acc_idx}` at `level` on `(x, b)`.
    ///
    /// # Panics
    /// Panics on level/size mismatch.
    pub fn run(&self, level: usize, acc_idx: usize, x: &mut Grid2d, b: &Grid2d, ctx: &mut ExecCtx) {
        assert_eq!(x.n(), level_size(level), "grid does not match level");
        ctx.note(CycleEvent::EnterFmg { level, acc_idx });
        if level <= 1 {
            ctx.direct(level, x, b);
            return;
        }
        match self.plans[level][acc_idx] {
            FmgChoice::Direct => ctx.direct(level, x, b),
            FmgChoice::Estimate {
                estimate_accuracy,
                follow,
            } => {
                self.estimate(level, estimate_accuracy as usize, x, b, ctx);
                match follow {
                    FollowUp::Sor { iterations } => ctx.sor_solve(level, x, b, iterations),
                    FollowUp::Recurse {
                        sub_accuracy,
                        iterations,
                    } => ctx.recurse(level, iterations, x, b, |ctx, ec, bc| {
                        self.v.run(level - 1, sub_accuracy as usize, ec, bc, ctx)
                    }),
                }
            }
        }
    }

    /// `ESTIMATE_j` at `level` (paper §2.4): residual-restrict `x`'s
    /// residual, solve the coarse problem with `FULL-MULTIGRID_j`, and
    /// interpolate the correction back — two edges without sweeps. The
    /// FMG tuner prices and walks from exactly this.
    pub(crate) fn estimate(
        &self,
        level: usize,
        j: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        ctx: &mut ExecCtx,
    ) {
        let nc = coarse_size(x.n());
        let ws = Arc::clone(&ctx.workspace);
        let mut bc = ws.acquire(nc);
        ctx.edge(level, None, x, b, Some(&mut *bc), 0, OMEGA_CYCLE);
        let mut ec = ws.acquire(nc);
        self.run(level - 1, j, &mut ec, &bc, ctx);
        ctx.edge(level, Some(&*ec), x, b, None, 0, OMEGA_CYCLE);
    }

    /// Solve like [`TunedFamily::solve_with`], using FMG plans.
    pub fn solve_with(
        &self,
        inst: &mut ProblemInstance,
        target: f64,
        mode: SimdMode,
        cache: &Arc<DirectSolverCache>,
    ) -> SolveReport {
        Family::Fmg(self).solve_with(inst, target, mode, cache)
    }

    /// The grid sizes whose direct factors member `acc_idx` at `level`
    /// solves with: the estimate's, then the follow-up's (a size may
    /// repeat).
    pub fn direct_sizes(&self, level: usize, acc_idx: usize) -> Vec<usize> {
        if level <= 1 {
            return vec![level_size(level)];
        }
        match self.plans[level][acc_idx] {
            FmgChoice::Direct => vec![level_size(level)],
            FmgChoice::Estimate {
                estimate_accuracy,
                follow,
            } => {
                let mut sizes = self.direct_sizes(level - 1, estimate_accuracy as usize);
                if let FollowUp::Recurse {
                    sub_accuracy,
                    iterations: 1..,
                } = follow
                {
                    sizes.extend(self.v.direct_sizes(level - 1, sub_accuracy as usize));
                }
                sizes
            }
        }
    }
}

/// The family a timed solve runs a member of.
#[derive(Clone, Copy)]
enum Family<'a> {
    V(&'a TunedFamily),
    Fmg(&'a TunedFmgFamily),
}

impl Family<'_> {
    /// Solve `inst` to (at least) `target` accuracy with the member
    /// tuned for the smallest `p_i >= target`, timing only the run: the
    /// reference solution and the direct factors the member touches are
    /// made before the clock starts (plans reuse factors across solves,
    /// as does the paper's tuned binary).
    fn solve_with(
        self,
        inst: &mut ProblemInstance,
        target: f64,
        mode: SimdMode,
        cache: &Arc<DirectSolverCache>,
    ) -> SolveReport {
        let (v, max_level) = match self {
            Family::V(v) => (v, v.max_level),
            Family::Fmg(f) => (&f.v, f.plans.len() - 1),
        };
        assert!(
            inst.level <= max_level,
            "instance level {} exceeds tuned max level {max_level}",
            inst.level
        );
        // A plan tuned for one operator must never silently run
        // another: the typed mismatch is a hard error here.
        v.ensure_problem(inst.problem.fingerprint())
            .unwrap_or_else(|e| panic!("{e}"));
        let acc_idx = v.acc_index_for(target);
        inst.ensure_x_opt(mode, cache);
        self.warm_factors_for(&inst.problem, inst.level, acc_idx, cache);
        let mut ctx =
            ExecCtx::with_cache(mode, Arc::clone(cache)).with_problem(inst.problem.clone());
        let mut x = inst.working_grid();
        let start = std::time::Instant::now();
        match self {
            Family::V(v) => v.run(inst.level, acc_idx, &mut x, &inst.b, &mut ctx),
            Family::Fmg(f) => f.run(inst.level, acc_idx, &mut x, &inst.b, &mut ctx),
        }
        let seconds = start.elapsed().as_secs_f64();
        let x_opt = inst.x_opt().expect("ensured above");
        SolveReport {
            achieved_accuracy: error_ratio(&inst.x0, &x, x_opt, mode),
            target_accuracy: target,
            acc_idx,
            seconds,
            ops: ctx.ops,
        }
    }

    /// Pre-factor every `(grid size, operator)` member `acc_idx` at
    /// `level` solves directly with for the posed problem.
    fn warm_factors_for(
        self,
        problem: &Problem,
        level: usize,
        acc_idx: usize,
        cache: &DirectSolverCache,
    ) {
        let sizes = match self {
            Family::V(v) => v.direct_sizes(level, acc_idx),
            Family::Fmg(f) => f.direct_sizes(level, acc_idx),
        };
        for n in sizes {
            cache.warm_op(n, &problem.op_for(n));
        }
    }
}

/// Hand-build the family corresponding to `MULTIGRID-V-SIMPLE`: at every
/// level and accuracy, one `RECURSE` into the same accuracy one level
/// down (single iteration), direct at level 1. Useful as a baseline and
/// in tests.
pub fn simple_v_family(max_level: usize, accuracies: &[f64]) -> TunedFamily {
    let m = accuracies.len();
    let mut plans = vec![Vec::new(); max_level + 1];
    if max_level >= 1 {
        plans[1] = vec![Choice::Direct; m];
    }
    for row in plans.iter_mut().skip(2) {
        *row = (0..m)
            .map(|i| Choice::Recurse {
                sub_accuracy: i as u8,
                iterations: 1,
            })
            .collect();
    }
    TunedFamily {
        accuracies: accuracies.to_vec(),
        max_level,
        plans,
        knobs: DefaultKnobs,
        problem: ProblemFingerprint::poisson(),
        provenance: "hand-built MULTIGRID-V-SIMPLE".into(),
    }
}

// Pinned by `benchmark/src/probes.rs` (`solvers.reference_v.solve_ms.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub struct MgConfig {
    pub exec: SimdMode,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            exec: SimdMode::host(),
        }
    }
}

// Pinned by `benchmark/src/probes.rs` (`solvers.reference_v.solve_ms.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub struct ReferenceSolver {
    mode: SimdMode,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
}

impl ReferenceSolver {
    pub fn new(cfg: MgConfig) -> Self {
        ReferenceSolver {
            mode: cfg.exec,
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
        }
    }

    /// Poisson `MULTIGRID-V-SIMPLE` cycles until `done(x)` or `max_iters`.
    pub fn solve_v_until(
        &self,
        x: &mut Grid2d,
        b: &Grid2d,
        max_iters: usize,
        mut done: impl FnMut(&Grid2d) -> bool,
    ) -> SolveStatus {
        let level = size_level(x.n()).expect("grid is 2^k + 1 wide");
        let v = simple_v_family(level, &[1.0]);
        let mut ctx = ExecCtx::with_cache(self.mode, Arc::clone(&self.cache))
            .with_workspace(Arc::clone(&self.workspace));
        for cycle in 1..=max_iters {
            v.run(level, 0, x, b, &mut ctx);
            if done(x) {
                return SolveStatus::Converged { cycles: cycle };
            }
        }
        SolveStatus::BudgetExhausted { cycles: max_iters }
    }

    /// `‖b − A x‖₂ / ‖b‖₂` for the Poisson operator.
    pub fn rel_residual(&self, x: &Grid2d, b: &Grid2d) -> f64 {
        residual_norm_op(&StencilOp::Poisson, x, b, &self.workspace, self.mode)
            / l2_norm_interior(b, &self.mode).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Distribution;

    #[test]
    fn simple_family_validates() {
        let fam = simple_v_family(6, &PAPER_ACCURACIES);
        fam.validate().unwrap();
        assert_eq!(fam.plan(1, 0), Choice::Direct);
        assert_eq!(
            fam.plan(4, 2),
            Choice::Recurse {
                sub_accuracy: 2,
                iterations: 1
            }
        );
    }

    #[test]
    fn acc_index_selection() {
        let fam = simple_v_family(3, &PAPER_ACCURACIES);
        assert_eq!(fam.acc_index_for(5.0), 0);
        assert_eq!(fam.acc_index_for(10.0), 0);
        assert_eq!(fam.acc_index_for(11.0), 1);
        assert_eq!(fam.acc_index_for(1e5), 2);
        assert_eq!(fam.acc_index_for(1e20), 4, "falls back to the last");
    }

    #[test]
    fn validation_catches_bad_plans() {
        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.plans[1][0] = Choice::Sor { iterations: 3 };
        assert!(fam.validate().is_err());

        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.plans[2][1] = Choice::Recurse {
            sub_accuracy: 99,
            iterations: 1,
        };
        assert!(fam.validate().is_err());

        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.plans[3][0] = Choice::Sor { iterations: 0 };
        assert!(fam.validate().is_err());
    }

    #[test]
    fn simple_v_family_runs_the_paper_v_cycle_shape() {
        // `MULTIGRID-V-SIMPLE` at level 5: one sweep, residual and
        // restriction on the way down to level 2, a direct solve at
        // level 1, then interpolation and one sweep on the way back up.
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 3);
        let fam = simple_v_family(5, &[1e5]);
        let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
        let mut x = inst.working_grid();
        fam.run(5, 0, &mut x, &inst.b, &mut ctx);

        let mut shape = Vec::new();
        for level in (2..=5).rev() {
            shape.extend([
                CycleEvent::EnterV { level, acc_idx: 0 },
                CycleEvent::Relax { level },
                CycleEvent::Residual { level },
                CycleEvent::Restrict { from: level },
            ]);
        }
        shape.extend([
            CycleEvent::EnterV {
                level: 1,
                acc_idx: 0,
            },
            CycleEvent::Direct { level: 1 },
        ]);
        for level in 2..=5 {
            shape.extend([
                CycleEvent::Interpolate { to: level },
                CycleEvent::Relax { level },
            ]);
        }
        assert_eq!(ctx.events, Some(shape));
        // Op counts: 2 relaxations per level 2..=5, 1 direct at level 1.
        assert_eq!(ctx.ops.total_relax_sweeps(), 8);
        assert_eq!(ctx.ops.total_direct_solves(), 1);
    }

    /// FNV-1a of the per-level operation counts and of the operation
    /// events (their `Debug` form): algorithms fixed, unlike
    /// `DefaultHasher`'s.
    fn record_hashes<'a>(
        ops: &OpCounts,
        events: impl IntoIterator<Item = &'a CycleEvent>,
    ) -> (u64, u64) {
        fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(h, |h, &byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        let ops = ops.per_level.iter().fold(SEED, |h, l| {
            [
                l.relax_sweeps,
                l.residuals,
                l.restricts,
                l.interps,
                l.direct_solves,
            ]
            .iter()
            .fold(h, |h, count| fnv1a(h, &count.to_le_bytes()))
        });
        let events = events
            .into_iter()
            .fold(SEED, |h, e| fnv1a(h, format!("{e:?};").as_bytes()));
        (ops, events)
    }

    /// What the executor records of a run is pinned: the counts and the
    /// operation events of traced runs that together reach every kernel
    /// it has — every member of a quick level-6 V family, every member
    /// of a quick level-5 FMG family (both estimate edges), a hand-built
    /// family with an SOR solve and `RECURSE×3` (the step boundary), and
    /// a guarded jump walk the direct rung serves.
    #[test]
    fn executed_operations_keep_their_hashes() {
        use crate::tuner::{FmgTuner, TunerOptions, VTuner};
        let quick = |level| TunerOptions::quick(level, Distribution::UnbiasedUniform);
        let mut got = Vec::new();

        let v = VTuner::new(quick(6)).tune();
        let inst = ProblemInstance::random(6, Distribution::UnbiasedUniform, 41);
        let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
        for acc_idx in 0..v.num_accuracies() {
            let mut x = inst.working_grid();
            v.run(6, acc_idx, &mut x, &inst.b, &mut ctx);
        }
        got.push((
            "quick V",
            record_hashes(&ctx.ops, ctx.events.iter().flatten()),
        ));

        let fmg = FmgTuner::new(quick(5)).tune();
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 42);
        let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
        for acc_idx in 0..fmg.v.num_accuracies() {
            let mut x = inst.working_grid();
            fmg.run(5, acc_idx, &mut x, &inst.b, &mut ctx);
        }
        got.push((
            "quick FMG",
            record_hashes(&ctx.ops, ctx.events.iter().flatten()),
        ));

        let mut hand = simple_v_family(6, &[1e3, 1e5]);
        hand.plans[6][1] = Choice::Recurse {
            sub_accuracy: 0,
            iterations: 3,
        };
        hand.plans[5][0] = Choice::Recurse {
            sub_accuracy: 0,
            iterations: 2,
        };
        hand.plans[4][0] = Choice::Sor { iterations: 4 };
        let inst = ProblemInstance::random(6, Distribution::UnbiasedUniform, 43);
        let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
        let mut x = inst.working_grid();
        hand.run(6, 1, &mut x, &inst.b, &mut ctx);
        got.push((
            "hand-built",
            record_hashes(&ctx.ops, ctx.events.iter().flatten()),
        ));

        let jump = Problem::jump_inclusion(65);
        let mut plan = simple_v_family(6, &PAPER_ACCURACIES);
        plan.problem = jump.fingerprint().clone();
        let inst = ProblemInstance::random_for(&jump, 6, Distribution::UnbiasedUniform, 44);
        let mut x = inst.working_grid();
        let report = crate::guard::GuardedSolver::new(jump)
            .with_plan(plan)
            .with_tracing()
            .solve(&mut x, &inst.b, 1e-9)
            .expect("the direct rung serves");
        assert_eq!(report.rung, crate::guard::LadderRung::Direct);
        got.push(("guarded jump", record_hashes(&report.ops, &report.events)));

        assert_eq!(
            got,
            [
                ("quick V", (0x315e_9c04_89a3_5ae8, 0x7288_1bc0_ede3_e6bb)),
                ("quick FMG", (0x1c25_2b14_1d53_3663, 0xc56d_1a79_8f27_3302)),
                ("hand-built", (0x48af_fabd_4b4e_11b2, 0x2571_3870_4812_34b3)),
                (
                    "guarded jump",
                    (0xc6b6_33cf_8879_e04a, 0x948a_3309_9f21_5993)
                ),
            ]
        );
    }

    fn operator_families(n: usize) -> [Problem; 4] {
        [
            Problem::poisson(),
            Problem::anisotropic(0.1),
            Problem::smooth_sinusoidal(n),
            Problem::jump_inclusion(n),
        ]
    }

    #[test]
    fn simple_v_cycles_solve_every_operator_family() {
        // The fixed plan solves the posed operator's own system: its
        // exact solution is a fixed point, one cycle contracts the error
        // (more than 5x on Poisson), and iterated cycles reach it.
        // Anisotropic and jump problems converge slower than Poisson
        // (the per-problem behaviour the tuner exploits), so they get
        // more cycles and a looser target.
        let (level, n) = (5, 33);
        let fam = simple_v_family(level, &[1.0]);
        let e = SimdMode::host();
        for (problem, (first, cycles, tol)) in operator_families(n).into_iter().zip([
            (0.2, 12, 1e-10),
            (1.0, 60, 1e-8),
            (1.0, 20, 1e-10),
            (1.0, 80, 1e-7),
        ]) {
            let mut x = Grid2d::zeros(n);
            x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 10.0 - 140.0);
            let mut x_opt = x.clone();
            petamg_problems::OpDirect::new(problem.op_for(n), n)
                .unwrap()
                .solve(&mut x_opt, &b);
            let scale = petamg_grid::l2_norm_interior(&x_opt, &e).max(1.0);
            let mut ctx = ExecCtx::new(e).with_problem(problem.clone());

            let mut fixed = x_opt.clone();
            fam.run(level, 0, &mut fixed, &b, &mut ctx);
            let drift = petamg_grid::l2_diff(&fixed, &x_opt, e) / scale;
            assert!(drift < 1e-10, "{}: drift {drift}", problem.describe());

            let e0 = petamg_grid::l2_diff(&x, &x_opt, e);
            fam.run(level, 0, &mut x, &b, &mut ctx);
            let e1 = petamg_grid::l2_diff(&x, &x_opt, e);
            assert!(e1 < first * e0, "{}: {e0} -> {e1}", problem.describe());
            for _ in 1..cycles {
                fam.run(level, 0, &mut x, &b, &mut ctx);
            }
            let rel = petamg_grid::l2_diff(&x, &x_opt, e) / scale;
            assert!(rel < tol, "{}: rel err {rel}", problem.describe());
        }
    }

    #[test]
    fn simple_v_cycles_reach_machine_precision_on_poisson() {
        let (level, n) = (4, 17);
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 * 100.0 - 900.0);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 1e4 - 1.4e5);
        let mut x_opt = x.clone();
        petamg_problems::OpDirect::new(petamg_problems::StencilOp::Poisson, n)
            .unwrap()
            .solve(&mut x_opt, &b);
        let e = SimdMode::host();
        let fam = simple_v_family(level, &[1.0]);
        let mut ctx = ExecCtx::new(e);
        for _ in 0..30 {
            fam.run(level, 0, &mut x, &b, &mut ctx);
        }
        let rel = petamg_grid::l2_diff(&x, &x_opt, e)
            / petamg_grid::l2_norm_interior(&x_opt, &e).max(1.0);
        assert!(rel < 1e-12, "rel err {rel}");
    }

    #[test]
    fn simd_modes_keep_the_fixed_plan_bits() {
        // The SIMD mode is a pure performance setting for every
        // operator family. Level 3 runs an SOR solve.
        let (level, n) = (5, 33);
        let mut fam = simple_v_family(level, &[1.0]);
        fam.plans[3][0] = Choice::Sor { iterations: 5 };
        let mut x0 = Grid2d::zeros(n);
        x0.set_boundary(|i, j| ((i * 7 + j * 3) % 11) as f64);
        let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
        for problem in operator_families(n) {
            let run = |mode: SimdMode| {
                let mut ctx = ExecCtx::new(mode).with_problem(problem.clone());
                let mut x = x0.clone();
                fam.run(level, 0, &mut x, &b, &mut ctx);
                x
            };
            let reference = run(petamg_grid::SimdMode::Scalar);
            let vector = petamg_grid::SimdMode::Vector;
            assert_eq!(
                run(vector).as_slice(),
                reference.as_slice(),
                "{}",
                problem.describe()
            );
        }
    }

    /// `RECURSE_j×t` through `run` — one pre edge, `t − 1` fused step
    /// boundaries, one post edge — equals `t` one-step
    /// `ExecCtx::recurse` calls: same grid, same operation counts, same
    /// cycle events, for every problem family in both SIMD modes.
    #[test]
    fn recurse_steps_equal_repeated_recurse_step() {
        let level = 5;
        let n = level_size(level);
        let problems = [
            Problem::poisson(),
            Problem::anisotropic_canonical(),
            Problem::smooth_sinusoidal(n),
            Problem::jump_inclusion(n),
        ];
        for problem in &problems {
            let inst =
                ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, 5);
            for mode in [petamg_grid::SimdMode::Scalar, petamg_grid::SimdMode::Vector] {
                for t in [1u32, 2, 3, 7] {
                    let mut fam = simple_v_family(level, &[1e3, 1e5]);
                    fam.plans[level][1] = Choice::Recurse {
                        sub_accuracy: 0,
                        iterations: t,
                    };
                    let ctx = || ExecCtx::new(mode).with_problem(problem.clone()).tracing();
                    let mut fused = ctx();
                    let mut x_fused = inst.working_grid();
                    fam.run(level, 1, &mut x_fused, &inst.b, &mut fused);

                    let mut steps = ctx();
                    let mut x_steps = inst.working_grid();
                    steps.note(CycleEvent::EnterV { level, acc_idx: 1 });
                    for _ in 0..t {
                        steps.recurse(level, 1, &mut x_steps, &inst.b, |ctx, ec, bc| {
                            fam.run(level - 1, 0, ec, bc, ctx)
                        });
                    }

                    let case = format!("{} t={t} {mode:?}", problem.describe());
                    assert_eq!(x_fused.as_slice(), x_steps.as_slice(), "{case}");
                    assert_eq!(fused.ops, steps.ops, "{case}");
                    assert_eq!(fused.events, steps.events, "{case}");
                }
            }
        }
    }

    #[test]
    fn solve_meets_targets_with_enough_iterations() {
        // A generously-iterated hand plan must hit 1e5.
        let mut fam = simple_v_family(4, &[1e5]);
        fam.plans[4][0] = Choice::Recurse {
            sub_accuracy: 0,
            iterations: 8,
        };
        fam.plans[3][0] = Choice::Recurse {
            sub_accuracy: 0,
            iterations: 2,
        };
        let mut inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 17);
        let report = fam.solve(&mut inst, 1e5);
        assert!(
            report.achieved_accuracy >= 1e5,
            "achieved {}",
            report.achieved_accuracy
        );
        assert_eq!(report.acc_idx, 0);
    }

    #[test]
    fn direct_choice_gives_capped_accuracy() {
        let mut fam = simple_v_family(3, &[1e9]);
        fam.plans[3][0] = Choice::Direct;
        let mut inst = ProblemInstance::random(3, Distribution::BiasedUniform, 5);
        let report = fam.solve(&mut inst, 1e9);
        assert_eq!(report.achieved_accuracy, ACC_CAP);
        assert_eq!(report.ops.total_direct_solves(), 1);
        assert_eq!(report.ops.total_relax_sweeps(), 0);
    }

    #[test]
    fn sor_choice_counts_sweeps() {
        let mut fam = simple_v_family(3, &[1e1]);
        fam.plans[3][0] = Choice::Sor { iterations: 7 };
        let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 5);
        let report = fam.solve(&mut inst, 1e1);
        assert_eq!(report.ops.per_level[3].relax_sweeps, 7);
    }

    #[test]
    fn repeated_plan_execution_allocates_nothing() {
        // The executor leases all per-level scratch from the context's
        // workspace: after a warm-up run, repeated executions (as in
        // tuner training loops) must be allocation-free.
        let fam = simple_v_family(5, &[1e5]);
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 11);
        let mut ctx = ExecCtx::new(SimdMode::host());

        let mut x = inst.working_grid();
        fam.run(5, 0, &mut x, &inst.b, &mut ctx);
        let warm = ctx.workspace.stats().allocations;
        assert!(warm > 0, "warm-up must have populated the pools");

        for _ in 0..8 {
            let mut x = inst.working_grid();
            fam.run(5, 0, &mut x, &inst.b, &mut ctx);
        }
        let after = ctx.workspace.stats();
        assert_eq!(
            after.allocations, warm,
            "steady-state plan execution must not allocate grid scratch"
        );
        assert!(after.reuses >= 8, "pools must be reused across runs");
    }

    #[test]
    fn shared_workspace_survives_context_rebuilds() {
        // Tuners build a fresh counting context per candidate but share
        // one workspace; pooling must carry across contexts.
        let fam = simple_v_family(4, &[1e3]);
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 3);
        let ws = Arc::new(Workspace::new());
        let cache = Arc::new(DirectSolverCache::new());

        let mut ctx = ExecCtx::with_cache(SimdMode::host(), Arc::clone(&cache))
            .with_workspace(Arc::clone(&ws));
        let mut x = inst.working_grid();
        fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        let warm = ws.stats().allocations;

        for _ in 0..5 {
            let mut ctx = ExecCtx::with_cache(SimdMode::host(), Arc::clone(&cache))
                .with_workspace(Arc::clone(&ws));
            let mut x = inst.working_grid();
            fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        }
        assert_eq!(ws.stats().allocations, warm);
    }

    #[test]
    fn json_roundtrip_preserves_plans() {
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let json = fam.to_json();
        let fam2 = TunedFamily::from_json(&json).unwrap();
        assert_eq!(fam.plans, fam2.plans);
        assert_eq!(fam.accuracies, fam2.accuracies);
    }

    #[test]
    fn kernel_clock_times_the_levels_the_plan_runs() {
        // The per-level kernel clock (the telemetry feed) accumulates
        // at every level the plan runs kernels on and stays silent
        // below the floor; an untraced context keeps no events.
        let fam = simple_v_family(4, &[1e3]);
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 13);

        let mut ctx = ExecCtx::new(SimdMode::host());
        ctx.kernel_seconds = Some([0.0; MAX_TIMED_LEVELS]);
        let mut x = inst.working_grid();
        fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        let seconds = ctx.kernel_seconds.expect("armed above");
        assert!(seconds[4] > 0.0, "the top level accumulates kernel time");
        assert_eq!(seconds[0], 0.0, "levels never entered accumulate nothing");
        assert!(ctx.events.is_none(), "an untraced run keeps no events");
    }

    #[test]
    fn from_json_rejects_corrupt_plans() {
        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.plans[1][0] = Choice::Sor { iterations: 1 };
        let json = fam.to_json();
        assert!(TunedFamily::from_json(&json).is_err());
    }

    #[test]
    fn fmg_family_runs_and_solves() {
        // Hand-built FMG: estimate with the same accuracy, then one
        // recurse cycle at each level.
        let v = simple_v_family(4, &[1e3]);
        let mut plans = vec![Vec::new(); 5];
        for row in plans.iter_mut().skip(1) {
            *row = vec![FmgChoice::Estimate {
                estimate_accuracy: 0,
                follow: FollowUp::Recurse {
                    sub_accuracy: 0,
                    iterations: 2,
                },
            }];
        }
        let fam = TunedFmgFamily { v, plans };
        let mut inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 23);
        let mode = SimdMode::host();
        let cache = Arc::new(DirectSolverCache::new());
        let report = fam.solve_with(&mut inst, 1e3, mode, &cache);
        assert!(
            report.achieved_accuracy >= 1e3,
            "achieved {}",
            report.achieved_accuracy
        );
        // Estimation phase recorded restricts at every level >= 2.
        assert!(report.ops.per_level[4].restricts >= 1);
        assert!(report.ops.per_level[3].restricts >= 1);
    }

    #[test]
    fn fmg_warm_step_leaves_nothing_to_factor_inside_the_clock() {
        let fam = crate::tuner::FmgTuner::new(crate::tuner::TunerOptions::quick(
            5,
            Distribution::UnbiasedUniform,
        ))
        .tune();
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 31);
        for acc_idx in 0..fam.v.accuracies.len() {
            let cache = Arc::new(DirectSolverCache::new());
            Family::Fmg(&fam).warm_factors_for(&inst.problem, 5, acc_idx, &cache);
            let warmed = cache.factorizations();
            let mut ctx = ExecCtx::with_cache(SimdMode::host(), Arc::clone(&cache))
                .with_problem(inst.problem.clone());
            let mut x = inst.working_grid();
            fam.run(5, acc_idx, &mut x, &inst.b, &mut ctx);
            assert_eq!(
                cache.factorizations(),
                warmed,
                "member {acc_idx} ({:?}) factored inside the clock",
                fam.plans[5][acc_idx]
            );
        }
    }

    #[test]
    fn fmg_json_roundtrip() {
        let v = simple_v_family(3, &[1e3, 1e5]);
        let plans = vec![
            Vec::new(),
            vec![FmgChoice::Direct; 2],
            vec![
                FmgChoice::Estimate {
                    estimate_accuracy: 0,
                    follow: FollowUp::Sor { iterations: 3 },
                };
                2
            ],
            vec![
                FmgChoice::Estimate {
                    estimate_accuracy: 1,
                    follow: FollowUp::Recurse {
                        sub_accuracy: 0,
                        iterations: 2,
                    },
                };
                2
            ],
        ];
        let fam = TunedFmgFamily {
            v,
            plans: plans.clone(),
        };
        let fam2 = TunedFmgFamily::from_json(&fam.to_json()).unwrap();
        assert_eq!(fam2.plans, plans);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(Choice::Direct.describe(), "Direct");
        assert_eq!(Choice::Sor { iterations: 12 }.describe(), "SOR×12");
        assert_eq!(
            Choice::Recurse {
                sub_accuracy: 2,
                iterations: 3
            }
            .describe(),
            "RECURSE_2×3"
        );
    }
}
