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
//! `t` iterations of `RECURSE_j` run as one loop
//! (`TunedFamily::recurse_steps`): the opening pre-relaxation edge,
//! then `t − 1` step boundaries, each fusing one step's interpolate +
//! post-sweep with the next step's pre-sweep + residual + restrict into
//! a single traversal of the grid, then the closing post edge. Results,
//! operation counts and cycle events are those of `t` separate
//! `TunedFamily::recurse_step`s.
//!
//! The executor threads an [`ExecCtx`] through the recursion to count
//! operations (for modeled costs), record cycle events (for the cycle
//! renderer), and share the direct-solver factor cache.

use crate::accuracy::error_ratio;
#[cfg(test)]
use crate::accuracy::ACC_CAP;
use crate::cost::OpCounts;
use crate::trace::CycleEvent;
use crate::training::ProblemInstance;
use crate::tuner::DefaultKnobs;
use petamg_grid::{
    coarse_size, l2_norm_interior, level_size, size_level, BatchGrid, Exec, Grid2d, Workspace,
};
use petamg_problems::{residual_norm_op, Problem, ProblemFingerprint, ProblemMismatch, StencilOp};
use petamg_solvers::fused::{
    interpolate_correct_relax_op, interpolate_relax_residual_restrict_op,
    relax_residual_restrict_op, sor_sweeps_blocked_op,
};
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
    /// Execution policy for all grid sweeps.
    pub exec: Exec,
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
    pub fn new(exec: Exec) -> Self {
        Self::with_cache(exec, Arc::new(DirectSolverCache::new()))
    }

    /// Context sharing an existing factor cache.
    pub fn with_cache(exec: Exec, cache: Arc<DirectSolverCache>) -> Self {
        ExecCtx {
            exec,
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
        events: &[CycleEvent],
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
        for &event in events {
            self.note(event);
        }
    }

    /// Fused residual + restriction at `level` without relaxation (the
    /// FMG estimate edge): one residual plus one restrict, matching the
    /// unfused composition it replaces bitwise.
    fn residual_restrict_into(
        &mut self,
        level: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        bc: &mut Grid2d,
    ) {
        let op = self.problem.op_for(x.n());
        let events = [
            CycleEvent::Residual { level },
            CycleEvent::Restrict { from: level },
        ];
        self.kernel(level, x, &events, |ctx, x| {
            relax_residual_restrict_op(&op, x, b, bc, OMEGA_CYCLE, 0, &ctx.workspace, &ctx.exec)
        });
    }

    /// Interpolation correction at `to` without relaxation (the FMG
    /// estimate edge; the follow-up phase relaxes separately).
    fn interpolate(&mut self, to: usize, coarse: &Grid2d, fine: &mut Grid2d, b: &Grid2d) {
        let op = self.problem.op_for(fine.n());
        self.kernel(to, fine, &[CycleEvent::Interpolate { to }], |ctx, fine| {
            interpolate_correct_relax_op(
                &op,
                coarse,
                fine,
                b,
                OMEGA_CYCLE,
                0,
                &ctx.workspace,
                &ctx.exec,
            )
        });
    }

    /// One temporally blocked relax + fused residual + restriction at
    /// `level`: the pre-relaxation cycle edge in a single traversal,
    /// noted exactly like the staged composition it replaces bitwise
    /// (one relax, one residual, one restrict).
    fn relax_residual_restrict_into(
        &mut self,
        level: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        bc: &mut Grid2d,
        omega: f64,
    ) {
        let op = self.problem.op_for(x.n());
        let events = [
            CycleEvent::Relax { level },
            CycleEvent::Residual { level },
            CycleEvent::Restrict { from: level },
        ];
        self.kernel(level, x, &events, |ctx, x| {
            relax_residual_restrict_op(&op, x, b, bc, omega, 1, &ctx.workspace, &ctx.exec)
        });
    }

    /// The fused interpolation + post-relaxation cycle edge at `to`
    /// (one traversal; one interpolation and one relax).
    fn interpolate_relax(
        &mut self,
        to: usize,
        coarse: &Grid2d,
        fine: &mut Grid2d,
        b: &Grid2d,
        omega: f64,
    ) {
        let op = self.problem.op_for(fine.n());
        let events = [
            CycleEvent::Interpolate { to },
            CycleEvent::Relax { level: to },
        ];
        self.kernel(to, fine, &events, |ctx, fine| {
            interpolate_correct_relax_op(&op, coarse, fine, b, omega, 1, &ctx.workspace, &ctx.exec)
        });
    }

    /// The fused step boundary at `level`: the post edge of one
    /// `RECURSE` step (interpolate `ec` + one sweep) and the pre edge of
    /// the next (one sweep + residual + restrict into `bc`) in one
    /// traversal, noted exactly like the two edges it replaces bitwise;
    /// one fault point for the one kernel.
    #[allow(clippy::too_many_arguments)]
    fn interpolate_relax_residual_restrict(
        &mut self,
        level: usize,
        ec: &Grid2d,
        x: &mut Grid2d,
        b: &Grid2d,
        bc: &mut Grid2d,
        omega: f64,
    ) {
        let op = self.problem.op_for(x.n());
        let events = [
            CycleEvent::Interpolate { to: level },
            CycleEvent::Relax { level },
            CycleEvent::Relax { level },
            CycleEvent::Residual { level },
            CycleEvent::Restrict { from: level },
        ];
        self.kernel(level, x, &events, |ctx, x| {
            interpolate_relax_residual_restrict_op(
                &op,
                ec,
                x,
                b,
                bc,
                omega,
                2,
                &ctx.workspace,
                &ctx.exec,
            )
        });
    }

    fn direct(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d) {
        let op = self.problem.op_for(x.n());
        self.kernel(level, x, &[CycleEvent::Direct { level }], |ctx, x| {
            ctx.cache.solve_op(x, b, &op)
        });
    }

    fn sor_solve(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d, iterations: u32) {
        let omega = omega_opt(x.n());
        let op = self.problem.op_for(x.n());
        let events = [CycleEvent::SorSolve { level, iterations }];
        // One sweep per wavefront traversal: running all of them in one
        // traversal measured no faster (ARCHITECTURE, `crates/solvers`).
        self.kernel(level, x, &events, |ctx, x| {
            for _ in 0..iterations {
                sor_sweeps_blocked_op(&op, x, b, omega, 1, &ctx.workspace, &ctx.exec);
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
            } => self.recurse_steps(level, sub_accuracy as usize, iterations, x, b, ctx),
        }
    }

    /// One `RECURSE_j` application at `level` (j = `sub_acc`): pre-relax,
    /// coarse-grid correction through `MULTIGRID-V_j`, post-relax.
    pub(crate) fn recurse_step(
        &self,
        level: usize,
        sub_acc: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        ctx: &mut ExecCtx,
    ) {
        self.recurse_steps(level, sub_acc, 1, x, b, ctx);
    }

    /// `iterations` applications of `RECURSE_j` at `level` (j =
    /// `sub_acc`), bitwise, count for count and event for event the same
    /// as that many [`TunedFamily::recurse_step`]s. Between two steps the
    /// first's interpolate + post-relax and the second's pre-relax +
    /// residual + restrict run as one fused step boundary, so `t` steps
    /// cost `t + 1` traversals of the grid at `level` instead of `2t`.
    pub(crate) fn recurse_steps(
        &self,
        level: usize,
        sub_acc: usize,
        iterations: u32,
        x: &mut Grid2d,
        b: &Grid2d,
        ctx: &mut ExecCtx,
    ) {
        if level <= 1 {
            for _ in 0..iterations {
                ctx.direct(level, x, b);
            }
            return;
        }
        if iterations == 0 {
            return;
        }
        let n = level_size(level);
        let nc = coarse_size(n);
        // Lease coarse scratch from the shared arena (the local Arc
        // clone keeps the leases from borrowing `ctx`, which the
        // recursion needs mutably). Every edge that writes `bc`
        // overwrites all of it; `ec` is the zero initial guess of each
        // coarse solve.
        let ws = Arc::clone(&ctx.workspace);
        let mut bc = ws.acquire_unzeroed(nc);
        let mut ec = ws.acquire(nc);
        ctx.relax_residual_restrict_into(level, x, b, &mut bc, OMEGA_CYCLE);
        for step in 1..=iterations {
            self.run(level - 1, sub_acc, &mut ec, &bc, ctx);
            if step == iterations {
                ctx.interpolate_relax(level, &ec, x, b, OMEGA_CYCLE);
            } else {
                ctx.interpolate_relax_residual_restrict(level, &ec, x, b, &mut bc, OMEGA_CYCLE);
                ec.fill_zero();
            }
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
        let exec = Exec::seq();
        self.solve_with(inst, target, &exec, &Arc::new(DirectSolverCache::new()))
    }

    /// [`TunedFamily::solve`] with explicit policy and cache.
    pub fn solve_with(
        &self,
        inst: &mut ProblemInstance,
        target: f64,
        exec: &Exec,
        cache: &Arc<DirectSolverCache>,
    ) -> SolveReport {
        assert!(
            inst.level <= self.max_level,
            "instance level {} exceeds tuned max level {}",
            inst.level,
            self.max_level
        );
        // A plan tuned for one operator must never silently run
        // another: the typed mismatch is a hard error here.
        self.ensure_problem(inst.problem.fingerprint())
            .unwrap_or_else(|e| panic!("{e}"));
        let acc_idx = self.acc_index_for(target);
        inst.ensure_x_opt(exec, cache);
        // Warm the factor cache outside the timed region (plans reuse
        // factors across solves, as does the paper's tuned binary).
        self.warm_factors_for(&inst.problem, inst.level, acc_idx, cache);
        let mut ctx =
            ExecCtx::with_cache(exec.clone(), Arc::clone(cache)).with_problem(inst.problem.clone());
        let mut x = inst.working_grid();
        let start = std::time::Instant::now();
        self.run(inst.level, acc_idx, &mut x, &inst.b, &mut ctx);
        let seconds = start.elapsed().as_secs_f64();
        let x_opt = inst.x_opt().expect("ensured above");
        SolveReport {
            achieved_accuracy: error_ratio(&inst.x0, &x, x_opt, exec),
            target_accuracy: target,
            acc_idx,
            seconds,
            ops: ctx.ops,
        }
    }

    /// Pre-factor every `(grid size, operator)` this plan's direct
    /// solves touch for the posed problem.
    pub(crate) fn warm_factors_for(
        &self,
        problem: &Problem,
        level: usize,
        acc_idx: usize,
        cache: &Arc<DirectSolverCache>,
    ) {
        for n in self.direct_sizes(level, acc_idx) {
            cache.warm_op(n, &problem.op_for(n));
        }
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
                // ESTIMATE_j: fused residual+restrict, recurse FMG on
                // the coarse problem, interpolate the correction back.
                let n = level_size(level);
                let nc = coarse_size(n);
                let ws = Arc::clone(&ctx.workspace);
                let mut bc = ws.acquire(nc);
                ctx.residual_restrict_into(level, x, b, &mut bc);
                let mut ec = ws.acquire(nc);
                self.run(level - 1, estimate_accuracy as usize, &mut ec, &bc, ctx);
                ctx.interpolate(level, &ec, x, b);
                // Follow-up phase at this level.
                match follow {
                    FollowUp::Sor { iterations } => ctx.sor_solve(level, x, b, iterations),
                    FollowUp::Recurse {
                        sub_accuracy,
                        iterations,
                    } => self
                        .v
                        .recurse_steps(level, sub_accuracy as usize, iterations, x, b, ctx),
                }
            }
        }
    }

    /// Solve like [`TunedFamily::solve_with`], using FMG plans.
    pub fn solve_with(
        &self,
        inst: &mut ProblemInstance,
        target: f64,
        exec: &Exec,
        cache: &Arc<DirectSolverCache>,
    ) -> SolveReport {
        let acc_idx = self.v.acc_index_for(target);
        self.v
            .ensure_problem(inst.problem.fingerprint())
            .unwrap_or_else(|e| panic!("{e}"));
        inst.ensure_x_opt(exec, cache);
        // Warm the factor cache outside the timed region, as
        // `TunedFamily::solve_with` does.
        self.warm_factors_for(&inst.problem, inst.level, acc_idx, cache);
        let mut ctx =
            ExecCtx::with_cache(exec.clone(), Arc::clone(cache)).with_problem(inst.problem.clone());
        let mut x = inst.working_grid();
        let start = std::time::Instant::now();
        self.run(inst.level, acc_idx, &mut x, &inst.b, &mut ctx);
        let seconds = start.elapsed().as_secs_f64();
        let x_opt = inst.x_opt().expect("ensured above");
        SolveReport {
            achieved_accuracy: error_ratio(&inst.x0, &x, x_opt, exec),
            target_accuracy: target,
            acc_idx,
            seconds,
            ops: ctx.ops,
        }
    }

    /// Pre-factor every `(grid size, operator)` this plan's direct
    /// solves touch for the posed problem.
    pub(crate) fn warm_factors_for(
        &self,
        problem: &Problem,
        level: usize,
        acc_idx: usize,
        cache: &Arc<DirectSolverCache>,
    ) {
        for n in self.direct_sizes(level, acc_idx) {
            cache.warm_op(n, &problem.op_for(n));
        }
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
    pub exec: Exec,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig { exec: Exec::seq() }
    }
}

// Pinned by `benchmark/src/probes.rs` (`solvers.reference_v.solve_ms.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub struct ReferenceSolver {
    exec: Exec,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
}

impl ReferenceSolver {
    pub fn new(cfg: MgConfig) -> Self {
        ReferenceSolver {
            exec: cfg.exec,
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
        let mut ctx = ExecCtx::with_cache(self.exec.clone(), Arc::clone(&self.cache))
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
        residual_norm_op(&StencilOp::Poisson, x, b, &self.workspace, &self.exec)
            / l2_norm_interior(b, &self.exec).max(f64::MIN_POSITIVE)
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
        let mut ctx = ExecCtx::new(Exec::seq()).tracing();
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
        let mut ctx = ExecCtx::new(Exec::seq()).tracing();
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
        let mut ctx = ExecCtx::new(Exec::seq()).tracing();
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
        let mut ctx = ExecCtx::new(Exec::seq()).tracing();
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
        let e = Exec::seq();
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
            let mut ctx = ExecCtx::new(e.clone()).with_problem(problem.clone());

            let mut fixed = x_opt.clone();
            fam.run(level, 0, &mut fixed, &b, &mut ctx);
            let drift = petamg_grid::l2_diff(&fixed, &x_opt, &e) / scale;
            assert!(drift < 1e-10, "{}: drift {drift}", problem.describe());

            let e0 = petamg_grid::l2_diff(&x, &x_opt, &e);
            fam.run(level, 0, &mut x, &b, &mut ctx);
            let e1 = petamg_grid::l2_diff(&x, &x_opt, &e);
            assert!(e1 < first * e0, "{}: {e0} -> {e1}", problem.describe());
            for _ in 1..cycles {
                fam.run(level, 0, &mut x, &b, &mut ctx);
            }
            let rel = petamg_grid::l2_diff(&x, &x_opt, &e) / scale;
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
        let e = Exec::seq();
        let fam = simple_v_family(level, &[1.0]);
        let mut ctx = ExecCtx::new(e.clone());
        for _ in 0..30 {
            fam.run(level, 0, &mut x, &b, &mut ctx);
        }
        let rel = petamg_grid::l2_diff(&x, &x_opt, &e)
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
            let run = |exec: &Exec| {
                let mut ctx = ExecCtx::new(exec.clone()).with_problem(problem.clone());
                let mut x = x0.clone();
                fam.run(level, 0, &mut x, &b, &mut ctx);
                x
            };
            let reference = run(&Exec::seq().with_simd(petamg_grid::SimdMode::Scalar));
            let vector = Exec::seq().with_simd(petamg_grid::SimdMode::Vector);
            assert_eq!(
                run(&vector).as_slice(),
                reference.as_slice(),
                "{}",
                problem.describe()
            );
        }
    }

    /// `RECURSE_j×t` through `run` — one pre edge, `t − 1` fused step
    /// boundaries, one post edge — equals `t` separate `recurse_step`s:
    /// same grid, same operation counts, same cycle events, for every
    /// problem family in both SIMD modes.
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
                let exec = Exec::seq().with_simd(mode);
                for t in [1u32, 2, 3, 7] {
                    let mut fam = simple_v_family(level, &[1e3, 1e5]);
                    fam.plans[level][1] = Choice::Recurse {
                        sub_accuracy: 0,
                        iterations: t,
                    };
                    let ctx = || {
                        ExecCtx::new(exec.clone())
                            .with_problem(problem.clone())
                            .tracing()
                    };
                    let mut fused = ctx();
                    let mut x_fused = inst.working_grid();
                    fam.run(level, 1, &mut x_fused, &inst.b, &mut fused);

                    let mut steps = ctx();
                    let mut x_steps = inst.working_grid();
                    steps.note(CycleEvent::EnterV { level, acc_idx: 1 });
                    for _ in 0..t {
                        fam.recurse_step(level, 0, &mut x_steps, &inst.b, &mut steps);
                    }

                    let case = format!("{} t={t} {exec:?}", problem.describe());
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
        let mut ctx = ExecCtx::new(Exec::seq());

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

        let mut ctx =
            ExecCtx::with_cache(Exec::seq(), Arc::clone(&cache)).with_workspace(Arc::clone(&ws));
        let mut x = inst.working_grid();
        fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        let warm = ws.stats().allocations;

        for _ in 0..5 {
            let mut ctx = ExecCtx::with_cache(Exec::seq(), Arc::clone(&cache))
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

        let mut ctx = ExecCtx::new(Exec::seq());
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
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        let report = fam.solve_with(&mut inst, 1e3, &exec, &cache);
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
            fam.warm_factors_for(&inst.problem, 5, acc_idx, &cache);
            let warmed = cache.factorizations();
            let mut ctx = ExecCtx::with_cache(Exec::seq(), Arc::clone(&cache))
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
