//! The accuracy-aware dynamic-programming autotuner (§2.2–2.3).
//!
//! For each level `k` (grid `N = 2^k + 1`), **after** all accuracies of
//! level `k−1` are tuned, the tuner measures three candidate classes on
//! training instances, for every target accuracy `p_i` of the level:
//!
//! * **Direct** — exact, priced without running it;
//! * **RECURSE_j × t** for every `j` — each cycle recursing into the
//!   already-tuned `MULTIGRID-V_j` of level `k−1`;
//! * **SOR(ω_opt) × t**;
//!
//! where `t` is the first iteration at which the error-ratio metric
//! reaches `p_i`. The fastest feasible candidate is stored in the DP
//! table (`plans[k][i]`).
//!
//! The search is **candidate-major**: all `p_i` of a level are tuned
//! against the same level `k−1`, so the error trajectory of a candidate
//! does not depend on which `p_i` is asked. Each candidate is therefore
//! walked **once** per training instance and every target reads its `t`
//! off that one trajectory. A target leaves the walk when it is reached,
//! or at the first unreached iteration `it` where reaching it at `it + 1`
//! could no longer win its slot: the caller's own win test, applied to
//! `(it + 1)` steps at the walk's price against the slot's incumbent.
//! Every step costs the same price on every instance, so the bound is
//! exact: it stops only candidates that have already lost, and every
//! winner is the one an unbounded walk finds. The walk ends when no
//! target is left. Slots of one level share nothing but the trajectory,
//! so budgets, winners, tie-breaks and diagnostics are those of tuning
//! each slot alone.
//!
//! The training instances never read each other's data, so each is its
//! own job on the pool the tuner runs on (`per_instance` halves the
//! instance list through `petamg_runtime::join`, which lends the second
//! half to a worker idle before the first is done): generating it and
//! solving for its `x_opt`, each `ESTIMATE_j` of the FMG tuner, and its
//! trajectory of every candidate walk, with its own `ExecCtx` over the
//! tuner's shared factor cache and scratch arena. A walk merges its
//! trajectories in instance order by the sequential rule: the first
//! instance to abandon a target decides it; otherwise the target's
//! iteration count is the max over the instances and its accuracy the
//! min. An instance drops a target as soon as an earlier one has
//! abandoned it. Off a pool, or on a pool whose other workers are busy,
//! the jobs run one after another on the calling thread and do exactly
//! the sequential tuner's work. On a pool a later instance may walk
//! ahead on a target an earlier one then abandons: speculative steps on
//! an otherwise idle worker, which only raise
//! [`TuneDiagnostics::recurse_steps`] / `sor_sweeps`. Plans and
//! evaluations are bit-identical either way.
//!
//! Every candidate runs, and is counted, through the plan executor's
//! [`ExecCtx`], the code a served plan runs: a `RECURSE_j` walk steps
//! `ExecCtx::recurse` into the tuned level below, an SOR walk steps
//! `ExecCtx::sor_solve` (the one-sweep traversal a served `SOR×t` member
//! runs), and a walk prices its steps by the operations the context
//! noted for its first one. A price of operations not run (a direct
//! solve) is built from the same events.

mod fmg;
mod knobs;
mod pareto;

pub use fmg::FmgTuner;
// Pinned by `benchmark/src/probes.rs`; delete with ROADMAP 1(i).
#[doc(hidden)]
pub use knobs::{tune_kernel_knobs, DefaultKnobs, KnobTuneResult, KnobTunerOptions};
pub use pareto::ParetoTuner;

use crate::accuracy::{ratio_of_errors, ACC_CAP};
use crate::cost::{MachineProfile, OpCounts};
use crate::plan::{Choice, ExecCtx, TunedFamily, PAPER_ACCURACIES};
use crate::trace::CycleEvent;
use crate::training::{training_instance_for, Distribution, ProblemInstance};
use petamg_grid::{l2_diff, level_size, Grid2d, SimdMode, Workspace};
use petamg_problems::Problem;
use petamg_solvers::DirectSolverCache;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Options controlling a tuning run.
#[derive(Clone, Debug)]
pub struct TunerOptions {
    /// Ascending accuracy targets `p_i` (paper: `10, 10³, 10⁵, 10⁷, 10⁹`).
    pub accuracies: Vec<f64>,
    /// Largest level to tune (grid `2^max_level + 1`).
    pub max_level: usize,
    /// Training data distribution.
    pub distribution: Distribution,
    /// Training instances per level.
    pub instances: usize,
    /// RNG seed for training data.
    pub seed: u64,
    /// The machine every candidate's counted operations are priced on
    /// ([`MachineProfile::time`]).
    pub profile: MachineProfile,
    /// The posed problem this tuner trains for. The tuned family is
    /// keyed by its fingerprint; every candidate measurement runs the
    /// problem's operator (convergence differs per operator, so plans
    /// genuinely diverge across problems — the paper's central claim).
    pub problem: Problem,
}

impl TunerOptions {
    /// Deterministic quick-tuning preset: modeled Intel-Harpertown cost,
    /// two training instances. This is what `TunePolicy::QuickTune`
    /// serves from, so its tune time is a service's set-up time.
    pub fn quick(max_level: usize, distribution: Distribution) -> Self {
        TunerOptions {
            accuracies: PAPER_ACCURACIES.to_vec(),
            max_level,
            distribution,
            instances: 2,
            seed: 0x5EED,
            profile: MachineProfile::intel_harpertown(),
            problem: Problem::poisson(),
        }
    }

    /// Pose a different problem (see [`TunerOptions::problem`]).
    ///
    /// # Panics
    /// Panics if a size-bound problem does not cover `max_level`.
    pub fn with_problem(mut self, problem: Problem) -> Self {
        if !problem.level_sizes().is_empty() {
            let n = level_size(self.max_level);
            assert!(
                problem.level_sizes().contains(&n),
                "problem {} does not cover max_level {} (n={n})",
                problem.describe(),
                self.max_level
            );
        }
        self.problem = problem;
        self
    }

    /// Preset with a specific modeled machine.
    pub fn modeled(max_level: usize, distribution: Distribution, profile: MachineProfile) -> Self {
        TunerOptions {
            profile,
            ..Self::quick(max_level, distribution)
        }
    }
}

/// SOR iteration cap multiplier: the cap is `SOR_CAP_MULT`·N + 200.
const SOR_CAP_MULT: u32 = 60;

/// `RECURSE_j` iteration cap.
const RECURSE_CAP: u32 = 120;

/// SOR sweeps a candidate may run on an `n`×`n` grid.
fn sor_cap(n: usize) -> u32 {
    SOR_CAP_MULT.saturating_mul(n as u32).saturating_add(200)
}

/// One evaluated candidate (diagnostics; `tests/tuner_golden.rs` pins
/// every one of them bit for bit).
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// Level at which the candidate was evaluated.
    pub level: usize,
    /// Accuracy index it was evaluated for.
    pub acc_idx: usize,
    /// The candidate.
    pub choice: Choice,
    /// Measured accuracy level (error ratio, capped).
    pub accuracy: f64,
    /// Cost in modeled seconds.
    pub cost: f64,
    /// Whether this candidate won its `(level, acc)` slot.
    pub selected: bool,
    /// Whether the candidate reached the accuracy target at all.
    pub feasible: bool,
}

/// A tuning run's full diagnostics.
#[derive(Clone, Debug, Default)]
pub struct TuneDiagnostics {
    /// Every candidate evaluated, slot by slot, in evaluation order.
    pub evaluations: Vec<CandidateEval>,
    /// `RECURSE_j` applications the search ran, by level. Exact off a
    /// pool; on a pool possibly higher, by the steps a later training
    /// instance walked ahead on a target an earlier one then abandoned
    /// (see the module docs).
    pub recurse_steps: Vec<u64>,
    /// SOR sweeps the search ran, by level; exact off a pool, possibly
    /// higher on one, as [`TuneDiagnostics::recurse_steps`].
    pub sor_sweeps: Vec<u64>,
}

/// Outcome of one candidate measurement for one accuracy target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Measured {
    pub(crate) feasible: bool,
    pub(crate) accuracy: f64,
    pub(crate) iterations: u32,
    pub(crate) cost: f64,
}

/// What one candidate walk is asked: whose trajectories to follow and,
/// per accuracy target, when to give up.
pub(crate) struct Walk<'a> {
    pub(crate) instances: &'a [ProblemInstance],
    /// Where each instance's trajectory starts: its own `x0` (`None`),
    /// or the state an `ESTIMATE_j` left — which may already meet a
    /// target, so only these can be reached in zero iterations.
    pub(crate) starts: Option<&'a [Grid2d]>,
    /// Ascending accuracy targets read off the one trajectory.
    pub(crate) targets: &'a [f64],
    /// Per target, the incumbent's cost.
    pub(crate) budgets: &'a [f64],
    /// The caller's win test: whether a candidate that costs `cost` may
    /// still beat an incumbent that costs `budget`. A dearer candidate
    /// must never win where a cheaper one loses; the walk abandons a
    /// target once `(it + 1)` steps at its price fail the test.
    pub(crate) wins: &'a (dyn Fn(f64, f64) -> bool + Sync),
}

/// How one training instance's trajectory left one target of a walk.
#[derive(Clone, Copy)]
enum Settle {
    /// Reached at this iteration, with this error ratio.
    Reached(u32, f64),
    /// Abandoned at this iteration, with this error ratio.
    Abandoned(u32, f64),
    /// Not walked to the end: an earlier instance abandoned it.
    Dropped,
}

/// `job(i)` for every training instance `i` in `0..count`, in instance
/// order. On a pool each instance is its own job: the list is halved
/// through [`petamg_runtime::join`], so a worker that is idle before
/// the first half is done takes the second. Off a pool, and on a pool
/// whose other workers are busy, the jobs run one after another on the
/// calling thread.
pub(crate) fn per_instance<T: Send>(count: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    fn halves<T: Send>(range: Range<usize>, job: &(impl Fn(usize) -> T + Sync)) -> Vec<T> {
        if range.len() <= 1 {
            return range.map(job).collect();
        }
        let mid = range.start + range.len() / 2;
        let (mut head, tail) = petamg_runtime::join(
            || halves(range.start..mid, job),
            || halves(mid..range.end, job),
        );
        head.extend(tail);
        head
    }
    halves(0..count, &job)
}

/// The training set of `opts` at `level`: each instance generated and
/// given its reference solution `x_opt` (through `cache`) as its own
/// job.
pub(crate) fn solved_training_set(
    opts: &TunerOptions,
    level: usize,
    cache: &Arc<DirectSolverCache>,
) -> Vec<ProblemInstance> {
    let seed = opts.seed ^ ((level as u64) << 20);
    per_instance(opts.instances, |index| {
        let mut inst = training_instance_for(&opts.problem, level, opts.distribution, seed, index);
        inst.ensure_x_opt(SimdMode::host(), cache);
        inst
    })
}

/// One `(level, acc)` slot of the DP table while its level is tuned.
struct Slot {
    evals: Vec<CandidateEval>,
    /// `(cost, iterations, choice)` of the incumbent.
    best: (f64, u32, Choice),
}

impl Slot {
    /// A slot whose first candidate, and so first incumbent, is the
    /// direct solve `direct`.
    fn direct(level: usize, acc_idx: usize, direct: Measured) -> Self {
        let mut slot = Slot {
            evals: Vec::new(),
            best: (direct.cost, direct.iterations, Choice::Direct),
        };
        slot.consider(level, acc_idx, direct, Choice::Direct);
        slot
    }

    /// Record a candidate; it takes the slot if it is feasible and
    /// strictly cheaper, or as cheap in fewer iterations.
    fn consider(&mut self, level: usize, acc_idx: usize, meas: Measured, choice: Choice) {
        self.evals.push(CandidateEval {
            level,
            acc_idx,
            choice,
            accuracy: meas.accuracy,
            cost: meas.cost,
            selected: false,
            feasible: meas.feasible,
        });
        let (cost, iterations, _) = self.best;
        let better = meas.cost < cost || (meas.cost == cost && meas.iterations < iterations);
        if meas.feasible && better {
            self.best = (meas.cost, meas.iterations, choice);
        }
    }
}

/// The `MULTIGRID-V_i` dynamic-programming tuner.
pub struct VTuner {
    opts: TunerOptions,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
    /// Candidate steps run so far, by level — counted where the step
    /// runs ([`TuneDiagnostics::recurse_steps`] / `sor_sweeps`), by
    /// whichever worker runs it.
    recurse_steps: Vec<AtomicU64>,
    sor_sweeps: Vec<AtomicU64>,
}

fn zeroed_counts(len: usize) -> Vec<AtomicU64> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

fn read_counts(counts: &[AtomicU64]) -> Vec<u64> {
    counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

impl VTuner {
    /// Build a tuner.
    ///
    /// # Panics
    /// Panics on empty/unsorted accuracies, `max_level == 0`, or zero
    /// training instances.
    pub fn new(opts: TunerOptions) -> Self {
        assert!(!opts.accuracies.is_empty(), "need at least one accuracy");
        assert!(
            opts.accuracies.windows(2).all(|w| w[0] < w[1]),
            "accuracies must be ascending"
        );
        assert!(opts.max_level >= 1, "need at least level 1");
        assert!(opts.instances >= 1, "need at least one training instance");
        let max_level = opts.max_level;
        VTuner {
            opts,
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
            recurse_steps: zeroed_counts(max_level + 1),
            sor_sweeps: zeroed_counts(max_level + 1),
        }
    }

    /// The shared factor cache (the FMG tuner and the heuristic tables
    /// compute their training instances' reference solutions through
    /// it).
    pub fn cache(&self) -> &Arc<DirectSolverCache> {
        &self.cache
    }

    /// The options in use.
    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// Run the DP and return the tuned family.
    pub fn tune(&self) -> TunedFamily {
        self.tune_with_diagnostics().0
    }

    /// Run the DP, also returning every candidate evaluation.
    pub fn tune_with_diagnostics(&self) -> (TunedFamily, TuneDiagnostics) {
        for count in self.recurse_steps.iter().chain(&self.sor_sweeps) {
            count.store(0, Ordering::Relaxed);
        }
        let m = self.opts.accuracies.len();
        let mut diags = TuneDiagnostics::default();
        let mut plans: Vec<Vec<Choice>> = vec![Vec::new(); self.opts.max_level + 1];
        plans[1] = vec![Choice::Direct; m];

        for k in 2..=self.opts.max_level {
            let instances = self.training_instances(k);
            let partial = self.family_view(&plans, k);
            plans[k] = self.tune_level(&partial, k, &instances, &mut diags.evaluations);
        }
        diags.recurse_steps = read_counts(&self.recurse_steps);
        diags.sor_sweeps = read_counts(&self.sor_sweeps);

        let family = TunedFamily {
            accuracies: self.opts.accuracies.clone(),
            max_level: self.opts.max_level,
            plans,
            knobs: DefaultKnobs,
            problem: self.opts.problem.fingerprint().clone(),
            provenance: format!(
                "VTuner(dist={}, cost=modeled:{}, seed={}, instances={})",
                self.opts.distribution.name(),
                self.opts.profile.name,
                self.opts.seed,
                self.opts.instances,
            ),
        };
        family
            .validate()
            .expect("tuner must produce a structurally valid family");
        (family, diags)
    }

    /// Tune every accuracy slot of one level: each candidate is walked
    /// once and offered to all slots, each slot keeps its own fastest
    /// feasible one. Evaluations are appended slot by slot.
    fn tune_level(
        &self,
        partial: &TunedFamily,
        level: usize,
        instances: &[ProblemInstance],
        evaluations: &mut Vec<CandidateEval>,
    ) -> Vec<Choice> {
        let targets = &self.opts.accuracies[..];
        let m = targets.len();
        // 1. Direct (cheap to price): every slot's first incumbent.
        let direct = self.measure_direct(level);
        let mut slots: Vec<Slot> = (0..m).map(|i| Slot::direct(level, i, direct)).collect();
        // Walk one candidate (each slot's incumbent cost is its budget)
        // and offer it to every slot. Iterations are unknown until a
        // target is reached, so the walk's win test is `Slot::consider`'s
        // without its tie-break: no dearer than the incumbent.
        let mut candidate = |measure: &dyn Fn(&Walk) -> Vec<Measured>,
                             choice: &dyn Fn(u32) -> Choice| {
            let budgets: Vec<f64> = slots.iter().map(|slot| slot.best.0).collect();
            let measured = measure(&Walk {
                instances,
                starts: None,
                targets,
                budgets: &budgets,
                wins: &|cost, budget| cost <= budget,
            });
            for (i, (slot, meas)) in slots.iter_mut().zip(measured).enumerate() {
                slot.consider(level, i, meas, choice(meas.iterations));
            }
        };
        // 2. RECURSE_j for every sub-accuracy.
        for j in 0..m {
            candidate(
                &|walk| self.measure_recurse(partial, level, j, walk),
                &|iterations| Choice::Recurse {
                    sub_accuracy: j as u8,
                    iterations,
                },
            );
        }
        // 3. SOR.
        candidate(&|walk| self.measure_sor(level, walk), &|iterations| {
            Choice::Sor { iterations }
        });

        let mut winners = Vec::with_capacity(m);
        for slot in slots {
            let (_, _, winner) = slot.best;
            evaluations.extend(slot.evals.into_iter().map(|mut e| {
                e.selected = e.choice == winner;
                e
            }));
            winners.push(winner);
        }
        winners
    }

    /// The training instances of `level`, each with its `x_opt`.
    pub(crate) fn training_instances(&self, level: usize) -> Vec<ProblemInstance> {
        solved_training_set(&self.opts, level, &self.cache)
    }

    /// A read-only family over the levels tuned so far (plans at or
    /// above `below_level` are absent and must not be executed).
    pub(crate) fn family_view(&self, plans: &[Vec<Choice>], below_level: usize) -> TunedFamily {
        let max_level = below_level.saturating_sub(1).max(1);
        TunedFamily {
            accuracies: self.opts.accuracies.clone(),
            max_level,
            plans: plans[..below_level].to_vec(),
            knobs: DefaultKnobs,
            problem: self.opts.problem.fingerprint().clone(),
            provenance: "partial (tuning in progress)".into(),
        }
    }

    /// A counting context sharing the tuner's factor cache and scratch
    /// arena (so back-to-back candidate evaluations never re-allocate
    /// coarse-grid scratch).
    pub(crate) fn fresh_ctx(&self) -> ExecCtx {
        ExecCtx::with_cache(SimdMode::host(), Arc::clone(&self.cache))
            .with_workspace(Arc::clone(&self.workspace))
            .with_problem(self.opts.problem.clone())
    }

    /// Price one set of op counts on the options' machine.
    pub(crate) fn modeled_cost(&self, ops: &OpCounts) -> f64 {
        self.opts.profile.time(ops)
    }

    // ----- candidate measurements ------------------------------------

    /// A direct solve: exact by construction, and priced from its one
    /// event, so it runs at no size.
    pub(crate) fn measure_direct(&self, level: usize) -> Measured {
        Measured {
            feasible: true,
            accuracy: ACC_CAP,
            iterations: 1,
            cost: self.modeled_cost(&OpCounts::of(&[CycleEvent::Direct { level }])),
        }
    }

    /// SOR(ω_opt) sweeps until each target's error ratio is reached,
    /// one step per sweep through the executor's SOR solve: the
    /// one-sweep traversal a served `SOR×t` member runs.
    pub(crate) fn measure_sor(&self, level: usize, ask: &Walk) -> Vec<Measured> {
        let cap = sor_cap(level_size(level));
        self.walk(level, ask, cap, &self.sor_sweeps, |ctx, x, b| {
            ctx.sor_solve(level, x, b, 1)
        })
    }

    /// `RECURSE_j` cycles of `family` (j = `sub_acc`) until each
    /// target's error ratio is reached.
    pub(crate) fn measure_recurse(
        &self,
        family: &TunedFamily,
        level: usize,
        sub_acc: usize,
        ask: &Walk,
    ) -> Vec<Measured> {
        self.walk(level, ask, RECURSE_CAP, &self.recurse_steps, |ctx, x, b| {
            ctx.recurse(level, 1, x, b, |ctx, ec, bc| {
                family.run(level - 1, sub_acc, ec, bc, ctx)
            })
        })
    }

    /// Walk one candidate's convergence trajectory per training
    /// instance and read every target off it: a target's iteration
    /// count is the first at which its error ratio is reached (max over
    /// instances, accuracy = min). One step applies the candidate once
    /// (`apply`, on the instance's own counting context) and counts it
    /// in `steps[level]`; the operations the first step noted price
    /// every step. A target is abandoned, for all instances, at `cap` or
    /// at the first unreached iteration `it` where `(it + 1)` steps at
    /// that price fail `ask.wins` against its budget; an instance's walk
    /// ends when no target is left on it. Each instance walks as its own
    /// job and the first instance to abandon a target decides it (see
    /// the module docs).
    fn walk(
        &self,
        level: usize,
        ask: &Walk,
        cap: u32,
        steps: &[AtomicU64],
        apply: impl Fn(&mut ExecCtx, &mut Grid2d, &Grid2d) + Sync,
    ) -> Vec<Measured> {
        let apply = &apply;
        let stepper = || {
            let mut ctx = self.fresh_ctx();
            let mut price = None;
            move |inst: &ProblemInstance, x: &mut Grid2d| {
                apply(&mut ctx, x, &inst.b);
                steps[level].fetch_add(1, Ordering::Relaxed);
                // Every application runs the same ops: price the first.
                *price.get_or_insert_with(|| self.modeled_cost(&ctx.ops))
            }
        };
        let targets = ask.targets.len();
        // `abandoned[idx][i]`: instance `idx` gave up on target `i`. The
        // flags only prune later instances' work and publish no data
        // (the merge below decides), hence `Relaxed`.
        let abandoned: Vec<Vec<AtomicBool>> = ask
            .instances
            .iter()
            .map(|_| (0..targets).map(|_| AtomicBool::new(false)).collect())
            .collect();
        let trajectories = per_instance(ask.instances.len(), |idx| {
            self.walk_instance(level, ask, cap, idx, &abandoned, &mut stepper())
        });

        let mut out = vec![
            Measured {
                feasible: true,
                accuracy: f64::INFINITY,
                iterations: 0,
                cost: 0.0,
            };
            targets
        ];
        let mut price = None;
        for (settled, stepped) in trajectories {
            price = stepped.or(price);
            for (meas, settle) in out.iter_mut().zip(settled) {
                match settle {
                    // The first instance to abandon a target decides it.
                    _ if !meas.feasible => {}
                    Settle::Reached(it, ratio) => {
                        meas.iterations = meas.iterations.max(it);
                        meas.accuracy = meas.accuracy.min(ratio);
                    }
                    Settle::Abandoned(it, ratio) => {
                        *meas = Measured {
                            feasible: false,
                            accuracy: ratio,
                            iterations: it,
                            cost: f64::INFINITY,
                        };
                    }
                    Settle::Dropped => {}
                }
            }
        }

        // No step ran ⇒ no price, and nothing to pay for.
        for meas in out.iter_mut().filter(|meas| meas.feasible) {
            meas.cost = price.unwrap_or(0.0) * meas.iterations as f64;
        }
        out
    }

    /// Instance `idx`'s trajectory of a [`VTuner::walk`]: how it left
    /// each target, and the price `step` returned last, if it stepped.
    /// It drops a target as soon as an earlier instance has flagged it
    /// in `abandoned`, and flags the targets it abandons itself.
    fn walk_instance(
        &self,
        level: usize,
        ask: &Walk,
        cap: u32,
        idx: usize,
        abandoned: &[Vec<AtomicBool>],
        step: &mut impl FnMut(&ProblemInstance, &mut Grid2d) -> f64,
    ) -> (Vec<Settle>, Option<f64>) {
        let mode = SimdMode::host();
        let inst = &ask.instances[idx];
        let mut settled = vec![Settle::Dropped; ask.targets.len()];
        let given_up = |i: usize| {
            abandoned[..idx]
                .iter()
                .any(|flags| flags[i].load(Ordering::Relaxed))
        };
        let mut pending: Vec<usize> = (0..settled.len()).filter(|&i| !given_up(i)).collect();
        if pending.is_empty() {
            return (settled, None);
        }
        let x_opt = inst.x_opt().expect("training instances carry x_opt");
        let e0 = l2_diff(&inst.x0, x_opt, mode);
        let abandon = |settled: &mut [Settle], i: usize, it: u32, ratio: f64| {
            settled[i] = Settle::Abandoned(it, ratio);
            abandoned[idx][i].store(true, Ordering::Relaxed);
        };
        // Drop from `pending` the targets an earlier instance abandoned,
        // those that iteration `it` reached, and those that can no longer
        // win: reaching them at `it + 1` would already cost too much.
        let mut settle = |pending: &mut Vec<usize>, it: u32, ratio: f64, price: Option<f64>| {
            pending.retain(|&i| {
                if given_up(i) {
                    return false;
                }
                if ratio >= ask.targets[i] {
                    settled[i] = Settle::Reached(it, ratio);
                    return false;
                }
                let lost = price.is_some_and(|c| !(ask.wins)((it + 1) as f64 * c, ask.budgets[i]));
                if lost {
                    abandon(&mut settled, i, it, ratio);
                }
                !lost
            });
        };
        let mut x = self.workspace.acquire_unzeroed(level_size(level));
        let mut it = 0u32;
        let mut ratio = 1.0;
        let mut price = None;
        match ask.starts {
            None => x.copy_from(&inst.x0),
            Some(states) => {
                x.copy_from(&states[idx]);
                ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, mode));
                settle(&mut pending, 0, ratio, None);
            }
        }
        while !pending.is_empty() && it < cap {
            price = Some(step(inst, &mut x));
            it += 1;
            ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, mode));
            settle(&mut pending, it, ratio, price);
        }
        for i in pending {
            abandon(&mut settled, i, it, ratio);
        }
        (settled, price)
    }
}

/// Execute `f` with a counting context and price it.
pub fn priced_run(
    profile: &MachineProfile,
    mode: SimdMode,
    cache: &Arc<DirectSolverCache>,
    f: impl FnOnce(&mut ExecCtx),
) -> (f64, OpCounts) {
    let mut ctx = ExecCtx::with_cache(mode, Arc::clone(cache));
    f(&mut ctx);
    (profile.time(&ctx.ops), ctx.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Choice;

    fn quick_tuner(max_level: usize) -> VTuner {
        VTuner::new(TunerOptions::quick(
            max_level,
            Distribution::UnbiasedUniform,
        ))
    }

    /// Candidates evaluated for one `(level, acc)` slot.
    fn slot(diags: &TuneDiagnostics, level: usize, acc_idx: usize) -> Vec<&CandidateEval> {
        diags
            .evaluations
            .iter()
            .filter(|e| e.level == level && e.acc_idx == acc_idx)
            .collect()
    }

    #[test]
    fn tuned_family_is_valid_and_deep() {
        let fam = quick_tuner(5).tune();
        fam.validate().unwrap();
        assert_eq!(fam.max_level, 5);
        assert_eq!(fam.num_accuracies(), 5);
    }

    #[test]
    fn level1_is_always_direct() {
        let fam = quick_tuner(3).tune();
        for i in 0..fam.num_accuracies() {
            assert_eq!(fam.plan(1, i), Choice::Direct);
        }
    }

    #[test]
    fn tuning_is_deterministic_with_modeled_cost() {
        let a = quick_tuner(4).tune();
        let b = quick_tuner(4).tune();
        assert_eq!(a.plans, b.plans);
    }

    #[test]
    fn tuned_plans_meet_their_accuracy_targets_on_fresh_data() {
        let fam = quick_tuner(5).tune();
        // Held-out instance (different seed from training).
        for (i, &target) in fam.accuracies.clone().iter().enumerate() {
            let mut inst =
                ProblemInstance::random(5, Distribution::UnbiasedUniform, 987_654 + i as u64);
            let report = fam.solve(&mut inst, target);
            // Allow a modest shortfall: training data is representative,
            // not identical (paper §2.2 makes the same assumption).
            assert!(
                report.achieved_accuracy >= target * 0.5,
                "acc {i} target {target:e}: achieved {:e}",
                report.achieved_accuracy
            );
        }
    }

    #[test]
    fn direct_wins_small_grids_recursion_wins_large() {
        let fam = quick_tuner(7).tune();
        let m = fam.num_accuracies();
        // Level 2 (5x5): direct is essentially free -> should be chosen
        // at least for the highest accuracy.
        assert_eq!(
            fam.plan(2, m - 1),
            Choice::Direct,
            "tiny grid, max accuracy should solve directly"
        );
        // Level 7 (129x129): direct O(cells^1.5) is far more expensive
        // than multigrid; recursion/iteration must win for low accuracy.
        assert!(
            matches!(fam.plan(7, 0), Choice::Recurse { .. } | Choice::Sor { .. }),
            "large grid must not solve directly for p=10, got {:?}",
            fam.plan(7, 0)
        );
    }

    #[test]
    fn higher_accuracy_never_cheaper() {
        // Within a level, the modeled cost of the chosen plan must be
        // non-decreasing in the accuracy target (a cheaper plan
        // achieving more would have been picked for the lower target).
        let tuner = quick_tuner(6);
        let (fam, diags) = tuner.tune_with_diagnostics();
        for k in 2..=6 {
            let mut prev_cost = 0.0;
            for i in 0..fam.num_accuracies() {
                let slot = slot(&diags, k, i);
                let sel: Vec<_> = slot.iter().filter(|e| e.selected).collect();
                assert!(!sel.is_empty(), "slot ({k},{i}) has a winner");
                let cost = sel[0].cost;
                assert!(
                    cost >= prev_cost * 0.999,
                    "level {k}: acc {i} cost {cost} < previous {prev_cost}"
                );
                prev_cost = cost;
            }
        }
    }

    #[test]
    fn winner_is_cheapest_feasible_candidate() {
        let tuner = quick_tuner(5);
        let (_, diags) = tuner.tune_with_diagnostics();
        for k in 2..=5 {
            for i in 0..5 {
                let slot = slot(&diags, k, i);
                let winner = slot.iter().find(|e| e.selected).expect("winner exists");
                for e in &slot {
                    if e.feasible && e.cost.is_finite() {
                        assert!(
                            winner.cost <= e.cost,
                            "({k},{i}): winner {} beaten by {} ({})",
                            winner.cost,
                            e.cost,
                            e.choice.describe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn each_candidate_is_walked_once_per_instance() {
        // The search walks a candidate's trajectory once per training
        // instance, however many targets read it: at most as far as the
        // target that stayed on it longest. Level 7 tunes level 6 on
        // its way, so one run pins both totals. Off a pool the instance
        // jobs run in order, so the counts are exact.
        let tuner = quick_tuner(7);
        let (_, diags) = tuner.tune_with_diagnostics();
        let instances = tuner.options().instances as u64;
        let longest = |k: usize, candidate: &dyn Fn(&Choice) -> Option<u32>| -> u64 {
            let evals = diags.evaluations.iter().filter(|e| e.level == k);
            u64::from(
                evals
                    .filter_map(|e| candidate(&e.choice))
                    .max()
                    .unwrap_or(0),
            )
        };
        for k in 2..=7 {
            let recurse: u64 = (0..5u8)
                .map(|j| {
                    longest(k, &|c| match c {
                        Choice::Recurse {
                            sub_accuracy,
                            iterations,
                        } if *sub_accuracy == j => Some(*iterations),
                        _ => None,
                    })
                })
                .sum();
            let sor = longest(k, &|c| match c {
                Choice::Sor { iterations } => Some(*iterations),
                _ => None,
            });
            assert!(diags.recurse_steps[k] > 0 && diags.sor_sweeps[k] > 0);
            assert!(
                diags.recurse_steps[k] <= instances * recurse,
                "level {k}: {} recurse steps > {instances} x {recurse}",
                diags.recurse_steps[k]
            );
            assert!(
                diags.sor_sweeps[k] <= instances * sor,
                "level {k}: {} sweeps > {instances} x {sor}",
                diags.sor_sweeps[k]
            );
        }
        let upto = |counts: &[u64], level: usize| counts[..=level].iter().sum::<u64>();
        // One walk per target ran 472 / 307 and 630 / 483, and the 1.5×
        // slack ran 142 / 84 and 194 / 148.
        assert_eq!(upto(&diags.recurse_steps, 6), 80);
        assert_eq!(upto(&diags.sor_sweeps, 6), 51);
        assert_eq!(upto(&diags.recurse_steps, 7), 111);
        assert_eq!(upto(&diags.sor_sweeps, 7), 93);
    }

    #[test]
    fn a_pooled_tune_decides_the_same_and_walks_no_less() {
        // On a pool the instances walk as parallel jobs: plans and every
        // evaluation are those of the off-pool tune, bit for bit, and the
        // step counts can only grow, by the speculative steps a later
        // instance took on a target an earlier one abandoned.
        let pool = petamg_runtime::ThreadPool::new(2);
        let bits = |diags: &TuneDiagnostics| -> Vec<_> {
            diags
                .evaluations
                .iter()
                .map(|e| {
                    let (acc, cost) = (e.accuracy.to_bits(), e.cost.to_bits());
                    (
                        e.level, e.acc_idx, e.choice, acc, cost, e.feasible, e.selected,
                    )
                })
                .collect()
        };
        for problem in [Problem::poisson(), Problem::jump_inclusion(level_size(6))] {
            let tuner = || {
                VTuner::new(
                    TunerOptions::quick(6, Distribution::UnbiasedUniform)
                        .with_problem(problem.clone()),
                )
            };
            let (off_family, off) = tuner().tune_with_diagnostics();
            let (on_family, on) = pool.install(|| tuner().tune_with_diagnostics());
            let name = problem.describe();
            assert_eq!(on_family.plans, off_family.plans, "{name}");
            assert_eq!(bits(&on), bits(&off), "{name}");
            for k in 2..=6 {
                assert!(
                    on.recurse_steps[k] >= off.recurse_steps[k],
                    "{name} level {k}"
                );
                assert!(on.sor_sweeps[k] >= off.sor_sweeps[k], "{name} level {k}");
            }
        }
    }

    #[test]
    fn different_machine_profiles_can_disagree() {
        // The Sun Niagara profile makes direct solves ~9x pricier per
        // unit; the tuned families must differ somewhere (the §4.3
        // architecture-dependence claim).
        let intel = VTuner::new(TunerOptions::modeled(
            6,
            Distribution::UnbiasedUniform,
            MachineProfile::intel_harpertown(),
        ))
        .tune();
        let sun = VTuner::new(TunerOptions::modeled(
            6,
            Distribution::UnbiasedUniform,
            MachineProfile::sun_niagara(),
        ))
        .tune();
        assert_ne!(
            intel.plans, sun.plans,
            "architecturally distinct machines should tune differently"
        );
    }

    #[test]
    fn biased_distribution_tunes_too() {
        let fam = VTuner::new(TunerOptions::quick(4, Distribution::BiasedUniform)).tune();
        fam.validate().unwrap();
        let mut inst = ProblemInstance::random(4, Distribution::BiasedUniform, 31337);
        let report = fam.solve(&mut inst, 1e5);
        assert!(
            report.achieved_accuracy >= 5e4,
            "{}",
            report.achieved_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_accuracies() {
        let mut opts = TunerOptions::quick(3, Distribution::UnbiasedUniform);
        opts.accuracies = vec![1e5, 1e3];
        let _ = VTuner::new(opts);
    }
}
