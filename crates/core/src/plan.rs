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
//! ([`TunedFamily::recurse_steps`]): the opening pre-relaxation edge,
//! then `t − 1` step boundaries, each fusing one step's interpolate +
//! post-sweep with the next step's pre-sweep + residual + restrict into
//! a single traversal of the grid, then the closing post edge. Results,
//! operation counts and cycle events are those of `t` separate
//! [`TunedFamily::recurse_step`]s.
//!
//! The executor threads an [`ExecCtx`] through the recursion to count
//! operations (for modeled costs), record cycle events (for the cycle
//! renderer), and share the direct-solver factor cache.

use crate::accuracy::error_ratio;
#[cfg(test)]
use crate::accuracy::ACC_CAP;
use crate::cost::OpCounts;
use crate::knobs::{KernelKnobs, KnobTable};
use crate::trace::{CycleEvent, Tracer};
use crate::training::ProblemInstance;
use petamg_grid::{coarse_size, level_size, BatchGrid, Exec, Grid2d, Workspace};
use petamg_problems::{Problem, ProblemFingerprint, ProblemMismatch};
use petamg_solvers::fused::{
    interpolate_correct_relax_op, interpolate_relax_residual_restrict_op,
    relax_residual_restrict_op, sor_sweeps_blocked_op,
};
use petamg_solvers::relax::{omega_opt, OMEGA_CYCLE};
use petamg_solvers::DirectSolverCache;
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

/// Per-level record of the kernel knobs the executor actually applied
/// while walking a plan — the "exec stats" that let tests (and the
/// bench harness) assert that a tuned knob table really switches as the
/// cycle descends and ascends levels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KnobStats {
    /// `applied[k]` = knobs applied at level `k`; `None` means the
    /// level was never visited or no knob table was attached.
    pub applied: Vec<Option<KernelKnobs>>,
}

impl KnobStats {
    fn record(&mut self, level: usize, knobs: KernelKnobs) {
        if level >= self.applied.len() {
            self.applied.resize(level + 1, None);
        }
        self.applied[level] = Some(knobs);
    }

    /// The knobs applied at `level`, if the level executed with a table.
    pub fn applied_at(&self, level: usize) -> Option<KernelKnobs> {
        self.applied.get(level).copied().flatten()
    }

    /// Levels that executed with table-driven knobs.
    pub fn levels_touched(&self) -> Vec<usize> {
        self.applied
            .iter()
            .enumerate()
            .filter_map(|(k, a)| a.map(|_| k))
            .collect()
    }
}

/// Execution context threaded through plan execution.
pub struct ExecCtx {
    /// Execution policy for all grid sweeps (its band height is one of
    /// the kernel-execution tuner axes). When a [`KnobTable`] is
    /// attached, each level's band height comes from the table instead.
    pub exec: Exec,
    /// Temporal-block depth: SOR sweeps fused per wavefront traversal
    /// on a sequential executor (the other kernel-execution tuner axis;
    /// see `petamg_solvers::fused`); a pool runs the sweeps staged. Pure
    /// performance knob — results are bitwise identical for every
    /// value. When a [`KnobTable`] is attached, each level's depth
    /// comes from the table instead.
    pub tblock: usize,
    /// Optional per-level knob table. `None` keeps the legacy global
    /// behaviour (`exec` band + `tblock` at every level); `Some` makes
    /// the executor re-derive both knobs from the table at every level
    /// it enters.
    pub knobs: Option<KnobTable>,
    /// Which knobs the table actually applied, per level.
    pub knob_stats: KnobStats,
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
    /// Optional cycle-event recorder.
    pub tracer: Tracer,
}

impl ExecCtx {
    /// Context with a fresh cache and disabled tracer.
    pub fn new(exec: Exec) -> Self {
        Self::with_cache(exec, Arc::new(DirectSolverCache::new()))
    }

    /// Context sharing an existing factor cache.
    pub fn with_cache(exec: Exec, cache: Arc<DirectSolverCache>) -> Self {
        ExecCtx {
            exec,
            tblock: 1,
            knobs: None,
            knob_stats: KnobStats::default(),
            problem: Problem::poisson(),
            cache,
            workspace: Arc::new(Workspace::new()),
            ops: OpCounts::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a per-level knob table: every level the executor enters
    /// re-derives its band height and temporal-block depth from the
    /// table (instead of the global `exec` band / `tblock`).
    pub fn with_knob_table(mut self, table: KnobTable) -> Self {
        self.knobs = Some(table);
        self
    }

    /// Pose a problem: every kernel this context drives runs the
    /// problem's operator at its level.
    pub fn with_problem(mut self, problem: Problem) -> Self {
        self.problem = problem;
        self
    }

    /// The execution policy for sweeps at `level`: the base policy with
    /// the level's tabulated band height and SIMD policy when a table
    /// is attached.
    fn level_exec(&mut self, level: usize) -> Exec {
        match &self.knobs {
            None => self.exec.clone(),
            Some(table) => {
                let knobs = table.get(level);
                self.knob_stats.record(level, knobs);
                self.exec
                    .clone()
                    .with_band(knobs.band_rows)
                    .with_simd(knobs.simd)
            }
        }
    }

    /// The temporal-block depth for SOR solves at `level`.
    fn level_tblock(&mut self, level: usize) -> usize {
        match &self.knobs {
            None => self.tblock.max(1),
            Some(table) => {
                let knobs = table.get(level);
                self.knob_stats.record(level, knobs);
                knobs.tblock.max(1)
            }
        }
    }

    /// Replace the scratch arena with a shared one (tuners reuse one
    /// workspace across every candidate evaluation).
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.workspace = workspace;
        self
    }

    /// Replace the temporal-block depth (clamped to at least 1).
    pub fn with_tblock(mut self, tblock: usize) -> Self {
        self.tblock = tblock.max(1);
        self
    }

    /// Enable event tracing.
    pub fn tracing(mut self) -> Self {
        self.tracer = Tracer::enabled();
        self
    }

    /// Reset counters, knob stats, and trace (keeps cache, policy, and
    /// the tracer's configuration — event recording and armed kernel
    /// clocks survive with zeroed accumulators).
    pub fn reset_counters(&mut self) {
        self.ops = OpCounts::default();
        self.knob_stats = KnobStats::default();
        self.tracer = self.tracer.reconfigured();
    }

    /// Fault point shared by every kernel: when a
    /// [`crate::faults::Fault::PoisonLevel`] is armed for `level`, the
    /// kernel's output grid gets a NaN at its center — an O(1) poke the
    /// guard's finiteness check must catch. Disabled cost is one
    /// thread-local flag read per kernel call.
    #[inline]
    fn maybe_poison(&self, level: usize, out: &mut Grid2d) {
        if crate::faults::poison_level(level) {
            let n = out.n();
            out.set(n / 2, n / 2, f64::NAN);
        }
    }

    /// Fused residual + restriction at `level` without relaxation (the
    /// FMG estimate edge). Counted and traced as one residual plus one
    /// restrict, matching the unfused composition it replaces bitwise.
    fn residual_restrict_into(
        &mut self,
        level: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        bc: &mut Grid2d,
    ) {
        let op = self.problem.op_for(x.n());
        let exec = self.level_exec(level);
        let clock = self.tracer.start_kernel_clock(level);
        relax_residual_restrict_op(&op, x, b, bc, OMEGA_CYCLE, 0, &self.workspace, &exec);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(level, x);
        self.ops.level_mut(level).residuals += 1;
        self.ops.level_mut(level).restricts += 1;
        self.tracer.record(CycleEvent::Residual { level });
        self.tracer.record(CycleEvent::Restrict { from: level });
    }

    /// Interpolation correction at `to` without relaxation (the FMG
    /// estimate edge; the follow-up phase relaxes separately).
    fn interpolate(&mut self, to: usize, coarse: &Grid2d, fine: &mut Grid2d, b: &Grid2d) {
        let op = self.problem.op_for(fine.n());
        let exec = self.level_exec(to);
        let clock = self.tracer.start_kernel_clock(to);
        interpolate_correct_relax_op(&op, coarse, fine, b, OMEGA_CYCLE, 0, &self.workspace, &exec);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(to, fine);
        self.ops.level_mut(to).interps += 1;
        self.tracer.record(CycleEvent::Interpolate { to });
    }

    /// One temporally blocked relax + fused residual + restriction at
    /// `level`: the pre-relaxation cycle edge in a single traversal.
    /// Counted and traced exactly like the staged composition it
    /// replaces bitwise (one relax, one residual, one restrict).
    fn relax_residual_restrict_into(
        &mut self,
        level: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        bc: &mut Grid2d,
        omega: f64,
    ) {
        let op = self.problem.op_for(x.n());
        let exec = self.level_exec(level);
        let clock = self.tracer.start_kernel_clock(level);
        relax_residual_restrict_op(&op, x, b, bc, omega, 1, &self.workspace, &exec);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(level, x);
        self.ops.level_mut(level).relax_sweeps += 1;
        self.ops.level_mut(level).residuals += 1;
        self.ops.level_mut(level).restricts += 1;
        self.tracer.record(CycleEvent::Relax { level });
        self.tracer.record(CycleEvent::Residual { level });
        self.tracer.record(CycleEvent::Restrict { from: level });
    }

    /// The fused interpolation + post-relaxation cycle edge at `to`
    /// (one traversal; counted as one interpolation and one relax).
    fn interpolate_relax(
        &mut self,
        to: usize,
        coarse: &Grid2d,
        fine: &mut Grid2d,
        b: &Grid2d,
        omega: f64,
    ) {
        let op = self.problem.op_for(fine.n());
        let exec = self.level_exec(to);
        let clock = self.tracer.start_kernel_clock(to);
        interpolate_correct_relax_op(&op, coarse, fine, b, omega, 1, &self.workspace, &exec);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(to, fine);
        self.ops.level_mut(to).interps += 1;
        self.ops.level_mut(to).relax_sweeps += 1;
        self.tracer.record(CycleEvent::Interpolate { to });
        self.tracer.record(CycleEvent::Relax { level: to });
    }

    /// The fused step boundary at `level`: the post edge of one
    /// `RECURSE` step (interpolate `ec` + one sweep) and the pre edge of
    /// the next (one sweep + residual + restrict into `bc`) in one
    /// traversal. Counted and traced exactly like the two edges it
    /// replaces bitwise; one fault point for the one kernel.
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
        let exec = self.level_exec(level);
        let clock = self.tracer.start_kernel_clock(level);
        interpolate_relax_residual_restrict_op(&op, ec, x, b, bc, omega, 2, &self.workspace, &exec);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(level, x);
        let ops = self.ops.level_mut(level);
        ops.interps += 1;
        ops.relax_sweeps += 2;
        ops.residuals += 1;
        ops.restricts += 1;
        self.tracer.record(CycleEvent::Interpolate { to: level });
        self.tracer.record(CycleEvent::Relax { level });
        self.tracer.record(CycleEvent::Relax { level });
        self.tracer.record(CycleEvent::Residual { level });
        self.tracer.record(CycleEvent::Restrict { from: level });
    }

    fn direct(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d) {
        let op = self.problem.op_for(x.n());
        let clock = self.tracer.start_kernel_clock(level);
        self.cache.solve_op(x, b, &op);
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(level, x);
        self.ops.level_mut(level).direct_solves += 1;
        self.tracer.record(CycleEvent::Direct { level });
    }

    fn sor_solve(&mut self, level: usize, x: &mut Grid2d, b: &Grid2d, iterations: u32) {
        let omega = omega_opt(x.n());
        let op = self.problem.op_for(x.n());
        // Temporal blocking: fuse up to `tblock` sweeps per wavefront
        // traversal (bitwise identical to iterated single sweeps).
        let depth = self.level_tblock(level);
        let exec = self.level_exec(level);
        let clock = self.tracer.start_kernel_clock(level);
        let mut left = iterations as usize;
        while left > 0 {
            let chunk = left.min(depth);
            sor_sweeps_blocked_op(&op, x, b, omega, chunk, &self.workspace, &exec);
            left -= chunk;
        }
        self.tracer.stop_kernel_clock(clock);
        self.maybe_poison(level, x);
        self.ops.level_mut(level).relax_sweeps += iterations as u64;
        self.tracer
            .record(CycleEvent::SorSolve { level, iterations });
    }
}

/// A tuned `MULTIGRID-V_i` family: the DP table of fastest choices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TunedFamily {
    /// Accuracy targets `p_i`, ascending.
    pub accuracies: Vec<f64>,
    /// Largest tuned level.
    pub max_level: usize,
    /// `plans[k][i]` = choice for level `k`, accuracy index `i`
    /// (`plans[0]` is unused padding; `plans[1]` is always `Direct`).
    pub plans: Vec<Vec<Choice>>,
    /// Per-level kernel-execution knobs (band height, temporal-block
    /// depth), index-aligned with `plans`.
    pub knobs: KnobTable,
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
        self.knobs.validate()?;
        if self.knobs.per_level.len() != self.plans.len() {
            return Err(format!(
                "knob table covers {} levels, plans cover {}",
                self.knobs.per_level.len(),
                self.plans.len()
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
        ctx.tracer.record(CycleEvent::EnterV { level, acc_idx });
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
    pub fn recurse_step(
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
    pub fn recurse_steps(
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
        // Attach the family's knob table only when it actually carries
        // tuning: an all-default table (untuned or legacy plans) must
        // not override a caller's hand-configured band/tblock on `exec`.
        let mut ctx =
            ExecCtx::with_cache(exec.clone(), Arc::clone(cache)).with_problem(inst.problem.clone());
        if !self.knobs.is_all_default() {
            ctx = ctx.with_knob_table(self.knobs.clone());
        }
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
    pub fn warm_factors_for(
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

    /// Serialize to pretty JSON (the tuned "configuration file"). The
    /// emitted schema carries the per-level knob table with its own
    /// `version` field plus a content `checksum` over the rest of the
    /// envelope (schema v5), so bit rot and truncation are detected at
    /// load time.
    pub fn to_json(&self) -> String {
        let mut value = serde::Serialize::to_value(self);
        attach_checksum(&mut value);
        serde_json::to_string_pretty(&value).expect("plan serialization cannot fail")
    }

    /// Parse and validate from JSON.
    ///
    /// Accepts exactly the envelope [`TunedFamily::to_json`] writes
    /// (schema v5): a missing or wrong `checksum`, a missing field, or
    /// a knob table of another version is an error — the file was
    /// damaged after it was written, or written by another schema.
    pub fn from_json(json: &str) -> Result<TunedFamily, String> {
        let mut value: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        verify_checksum(&mut value)?;
        let fam =
            <TunedFamily as serde::Deserialize>::from_value(&value).map_err(|e| e.to_string())?;
        fam.validate()?;
        Ok(fam)
    }
}

/// FNV-1a (64-bit) over the *compact* serialization of a plan value —
/// the content checksum of the v5 plan envelope. Computing over the
/// compact form makes the checksum independent of on-disk pretty
/// formatting, and the shim's `BTreeMap` object model keeps key order
/// (and therefore the hash) deterministic.
fn content_checksum(value: &serde_json::Value) -> String {
    let compact = serde_json::to_string(value).expect("value serialization cannot fail");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in compact.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// Insert the v5 `checksum` field into a serialized plan object (hash
/// taken over the object *without* the field).
fn attach_checksum(value: &mut serde_json::Value) {
    let checksum = content_checksum(value);
    if let serde_json::Value::Object(obj) = value {
        obj.insert("checksum".to_string(), serde_json::Value::String(checksum));
    }
}

/// Verify and strip the `checksum` field of a parsed plan object. A
/// missing field and a mismatch are both errors: without the field the
/// content would execute unverified.
fn verify_checksum(value: &mut serde_json::Value) -> Result<(), String> {
    let serde_json::Value::Object(obj) = value else {
        return Err("expected a JSON object for a tuned plan".into());
    };
    let Some(stored) = obj.remove("checksum") else {
        return Err(
            "plan has no checksum field — not a v5 plan file, or the key was damaged".into(),
        );
    };
    let serde_json::Value::String(stored) = stored else {
        return Err("plan checksum field is not a string".into());
    };
    let computed = content_checksum(value);
    if stored == computed {
        Ok(())
    } else {
        Err(format!(
            "plan checksum mismatch: file says {stored}, content hashes to {computed} — \
             the file was damaged after it was written"
        ))
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

impl FollowUp {
    /// Short display form.
    pub fn describe(&self) -> String {
        match self {
            FollowUp::Sor { iterations } => format!("SOR×{iterations}"),
            FollowUp::Recurse {
                sub_accuracy,
                iterations,
            } => format!("RECURSE_{sub_accuracy}×{iterations}"),
        }
    }
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

impl FmgChoice {
    /// Short display form.
    pub fn describe(&self) -> String {
        match self {
            FmgChoice::Direct => "Direct".into(),
            FmgChoice::Estimate {
                estimate_accuracy,
                follow,
            } => format!("ESTIMATE_{estimate_accuracy} then {}", follow.describe()),
        }
    }
}

/// A tuned `FULL-MULTIGRID_i` family layered over a tuned V family.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TunedFmgFamily {
    /// The underlying tuned `MULTIGRID-V` family (used by follow-up
    /// recursion).
    pub v: TunedFamily,
    /// `plans[k][i]` = FMG choice for level `k`, accuracy `i`.
    pub plans: Vec<Vec<FmgChoice>>,
}

impl TunedFmgFamily {
    /// The per-level kernel knob table (carried by the embedded V
    /// family; the FMG layer shares it, so one table drives both the
    /// estimation and follow-up phases).
    pub fn knobs(&self) -> &KnobTable {
        &self.v.knobs
    }

    /// Execute `FULL-MULTIGRID_{acc_idx}` at `level` on `(x, b)`.
    ///
    /// # Panics
    /// Panics on level/size mismatch.
    pub fn run(&self, level: usize, acc_idx: usize, x: &mut Grid2d, b: &Grid2d, ctx: &mut ExecCtx) {
        assert_eq!(x.n(), level_size(level), "grid does not match level");
        ctx.tracer.record(CycleEvent::EnterFmg { level, acc_idx });
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
        cache.warm_op(3, &inst.problem.op_for(3));
        // Like TunedFamily::solve_with: only a table with real tuning
        // overrides the caller's execution policy.
        let mut ctx =
            ExecCtx::with_cache(exec.clone(), Arc::clone(cache)).with_problem(inst.problem.clone());
        if !self.v.knobs.is_all_default() {
            ctx = ctx.with_knob_table(self.v.knobs.clone());
        }
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

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut value = serde::Serialize::to_value(self);
        attach_checksum(&mut value);
        serde_json::to_string_pretty(&value).expect("plan serialization cannot fail")
    }

    /// Parse from JSON (validates the embedded V family). Like
    /// [`TunedFamily::from_json`], accepts exactly what
    /// [`TunedFmgFamily::to_json`] writes.
    pub fn from_json(json: &str) -> Result<TunedFmgFamily, String> {
        let mut value: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        verify_checksum(&mut value)?;
        let fam = <TunedFmgFamily as serde::Deserialize>::from_value(&value)
            .map_err(|e| e.to_string())?;
        fam.v.validate()?;
        Ok(fam)
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
        knobs: KnobTable::defaults(max_level),
        problem: ProblemFingerprint::poisson(),
        provenance: "hand-built MULTIGRID-V-SIMPLE".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Distribution;
    use petamg_grid::SimdPolicy;

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
    fn executor_matches_reference_vsimple() {
        // The hand-built family with iterations=1 must behave exactly
        // like the reference V cycle (same ops, same result).
        let mut inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 3);
        let fam = simple_v_family(5, &[1e5]);
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());

        let mut x_plan = inst.working_grid();
        let mut ctx = ExecCtx::with_cache(exec.clone(), Arc::clone(&cache));
        fam.run(5, 0, &mut x_plan, &inst.b, &mut ctx);

        let reference = petamg_solvers::ReferenceSolver::with_cache(
            petamg_solvers::MgConfig::default(),
            Arc::clone(&cache),
        );
        let mut x_ref = inst.working_grid();
        reference.vcycle(&mut x_ref, &inst.b);

        assert_eq!(x_plan.as_slice(), x_ref.as_slice());
        // Op counts: 2 relaxations per level 2..=5, 1 direct at level 1.
        assert_eq!(ctx.ops.total_relax_sweeps(), 8);
        assert_eq!(ctx.ops.total_direct_solves(), 1);
        let _ = inst.ensure_x_opt(&exec, &cache);
    }

    /// `RECURSE_j×t` through `run` — one pre edge, `t − 1` fused step
    /// boundaries, one post edge — equals `t` separate `recurse_step`s:
    /// same grid, same operation counts, same cycle events, for every
    /// problem family on `seq` and on a pool.
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
            for exec in [Exec::seq(), Exec::pbrt(2).with_band(4)] {
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
                    steps
                        .tracer
                        .record(CycleEvent::EnterV { level, acc_idx: 1 });
                    for _ in 0..t {
                        fam.recurse_step(level, 0, &mut x_steps, &inst.b, &mut steps);
                    }

                    let case = format!("{} t={t} {exec:?}", problem.describe());
                    assert_eq!(x_fused.as_slice(), x_steps.as_slice(), "{case}");
                    assert_eq!(fused.ops, steps.ops, "{case}");
                    assert_eq!(fused.tracer.events, steps.tracer.events, "{case}");
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
        assert_eq!(fam.knobs, fam2.knobs);
    }

    #[test]
    fn json_roundtrip_preserves_nonuniform_knob_table() {
        let mut fam = simple_v_family(4, &PAPER_ACCURACIES);
        fam.knobs.set(
            2,
            KernelKnobs {
                band_rows: 4,
                tblock: 2,
                simd: SimdPolicy::Auto,
            },
        );
        fam.knobs.set(
            4,
            KernelKnobs {
                band_rows: 128,
                tblock: 3,
                simd: SimdPolicy::Auto,
            },
        );
        let json = fam.to_json();
        assert!(json.contains("\"knobs\""), "schema carries the table");
        assert!(json.contains("\"version\""), "table is versioned");
        let fam2 = TunedFamily::from_json(&json).unwrap();
        assert_eq!(fam2.knobs, fam.knobs);
        assert!(!fam2.knobs.is_uniform());
    }

    #[test]
    fn from_json_rejects_bad_knob_tables() {
        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.knobs.version = 99;
        assert!(TunedFamily::from_json(&fam.to_json()).is_err());

        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.knobs.per_level.pop();
        assert!(
            TunedFamily::from_json(&fam.to_json()).is_err(),
            "table/plans level mismatch rejected"
        );
    }

    /// Older schemas lacked `knobs` or `problem`; such an object is an
    /// error even under a checksum that verifies, for the V family and
    /// for the one embedded in an FMG family.
    #[test]
    fn from_json_rejects_missing_fields_and_missing_checksum() {
        let v = simple_v_family(3, &[1e3]);
        let fmg = TunedFmgFamily {
            v: v.clone(),
            plans: vec![
                Vec::new(),
                vec![FmgChoice::Direct],
                vec![FmgChoice::Direct],
                vec![FmgChoice::Direct],
            ],
        };
        let resealed = |mut value: serde_json::Value| {
            attach_checksum(&mut value);
            serde_json::to_string(&value).unwrap()
        };
        for field in ["knobs", "problem"] {
            let mut value = serde::Serialize::to_value(&v);
            let mut fmg_value = serde::Serialize::to_value(&fmg);
            if let serde_json::Value::Object(obj) = &mut value {
                obj.remove(field).expect("current schema has the field");
            }
            if let serde_json::Value::Object(obj) = &mut fmg_value {
                obj.insert("v".to_string(), value.clone());
            }
            let err = TunedFamily::from_json(&resealed(value)).unwrap_err();
            assert!(err.contains(field), "{err}");
            let err = TunedFmgFamily::from_json(&resealed(fmg_value)).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let unsealed = serde_json::to_string(&serde::Serialize::to_value(&fmg)).unwrap();
        let err = TunedFmgFamily::from_json(&unsealed).unwrap_err();
        assert!(err.contains("no checksum"), "{err}");
    }

    #[test]
    fn executor_switches_knobs_per_level() {
        // A non-uniform table must be re-derived at every level the
        // cycle enters — asserted through the context's knob stats —
        // while staying bitwise identical to the global-knob run.
        let fam = simple_v_family(5, &[1e5]);
        let mut table = KnobTable::defaults(5);
        table.set(
            5,
            KernelKnobs {
                band_rows: 64,
                tblock: 2,
                simd: SimdPolicy::Auto,
            },
        );
        table.set(
            4,
            KernelKnobs {
                band_rows: 16,
                tblock: 1,
                simd: SimdPolicy::Auto,
            },
        );
        table.set(
            3,
            KernelKnobs {
                band_rows: 2,
                tblock: 4,
                simd: SimdPolicy::Auto,
            },
        );
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 41);

        let run = |table: Option<KnobTable>| {
            let mut ctx = ExecCtx::new(Exec::pbrt(2));
            if let Some(t) = table {
                ctx = ctx.with_knob_table(t);
            }
            let mut x = inst.working_grid();
            fam.run(5, 0, &mut x, &inst.b, &mut ctx);
            (x, ctx)
        };
        let (x_global, ctx_global) = run(None);
        let (x_table, ctx_table) = run(Some(table.clone()));

        assert_eq!(
            x_global.as_slice(),
            x_table.as_slice(),
            "knob tables are pure performance settings"
        );
        assert_eq!(ctx_global.ops, ctx_table.ops, "op counts knob-independent");
        assert!(ctx_global.knob_stats.levels_touched().is_empty());
        // The V cycle reaches every level 2..=5 with fused edges; each
        // must have applied exactly its table entry.
        for level in 2..=5 {
            assert_eq!(
                ctx_table.knob_stats.applied_at(level),
                Some(table.get(level)),
                "level {level} ran with its own knobs"
            );
        }
    }

    #[test]
    fn kernel_clock_times_the_levels_the_plan_runs() {
        // The per-level kernel clock (the telemetry feed) accumulates
        // at every level the plan runs kernels on, survives counter
        // resets armed-but-zeroed, and stays silent below the floor.
        let fam = simple_v_family(4, &[1e3]);
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 13);

        let mut ctx = ExecCtx::new(Exec::seq());
        ctx.tracer = crate::trace::Tracer::timing_all();
        let mut x = inst.working_grid();
        fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        let seconds = ctx.tracer.level_kernel_seconds();
        assert!(seconds[4] > 0.0, "the top level accumulates kernel time");
        assert_eq!(seconds[0], 0.0, "levels never entered accumulate nothing");

        ctx.reset_counters();
        assert_eq!(
            ctx.tracer.level_kernel_seconds()[4],
            0.0,
            "reset zeroes the clock"
        );
        assert!(ctx.tracer.is_timing_all(), "arming survives reset");
        let mut x = inst.working_grid();
        fam.run(4, 0, &mut x, &inst.b, &mut ctx);
        assert!(
            ctx.tracer.level_kernel_seconds()[4] > 0.0,
            "clock re-accumulates"
        );
    }

    #[test]
    fn reset_counters_clears_knob_stats() {
        let fam = simple_v_family(3, &[1e3]);
        let inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 2);
        let mut ctx = ExecCtx::new(Exec::seq()).with_knob_table(KnobTable::defaults(3));
        let mut x = inst.working_grid();
        fam.run(3, 0, &mut x, &inst.b, &mut ctx);
        assert!(!ctx.knob_stats.levels_touched().is_empty());
        ctx.reset_counters();
        assert!(ctx.knob_stats.levels_touched().is_empty());
    }

    #[test]
    fn from_json_rejects_corrupt_plans() {
        let mut fam = simple_v_family(3, &PAPER_ACCURACIES);
        fam.plans[1][0] = Choice::Sor { iterations: 1 };
        let json = fam.to_json();
        assert!(TunedFamily::from_json(&json).is_err());
    }

    #[test]
    fn tracer_records_cycle_structure() {
        let fam = simple_v_family(3, &[1e5]);
        let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 9);
        let mut ctx = ExecCtx::new(Exec::seq()).tracing();
        let mut x = inst.working_grid();
        fam.run(3, 0, &mut x, &inst.b, &mut ctx);
        let t = &ctx.tracer;
        // V shape on 3 levels: relax@3, restrict 3, [relax@2, restrict 2,
        // direct@1, interp 2, relax@2], interp 3, relax@3.
        assert_eq!(t.count(|e| matches!(e, CycleEvent::Relax { .. })), 4);
        assert_eq!(t.count(|e| matches!(e, CycleEvent::Direct { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, CycleEvent::Restrict { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, CycleEvent::Interpolate { .. })), 2);
        assert_eq!(t.min_level(), 1);
        assert_eq!(t.max_level(), 3);
        let _ = inst.ensure_x_opt(&ctx.exec, &ctx.cache);
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
        assert_eq!(
            FmgChoice::Estimate {
                estimate_accuracy: 1,
                follow: FollowUp::Sor { iterations: 4 }
            }
            .describe(),
            "ESTIMATE_1 then SOR×4"
        );
    }
}
