//! The full-multigrid extension of the DP tuner (§2.4).
//!
//! `FULL-MULTIGRID_i` chooses between a direct solve and an
//! `ESTIMATE_j` phase (a recursive tuned-FMG call on the restricted
//! problem) followed by either iterated SOR or iterated `RECURSE_m`
//! cycles until `p_i` — with `j` and `m` tuned *independently*:
//!
//! > "In cases where the user does not require much accuracy in the
//! > final output, it may make sense to invest more heavily in the
//! > estimation phase, while in cases where very high precision is
//! > needed, a high precision estimate may not be as helpful."
//!
//! Every candidate runs through the one plan executor: an `ESTIMATE_j`
//! is [`TunedFmgFamily::estimate`], the method a served FMG member
//! runs, and the follow-ups are the V tuner's walks from the states it
//! leaves.

use super::{per_instance, Measured, TunerOptions, VTuner, Walk};
use crate::plan::{FmgChoice, FollowUp, TunedFamily, TunedFmgFamily};
use crate::training::ProblemInstance;
use petamg_grid::Grid2d;

/// The `FULL-MULTIGRID_i` dynamic-programming tuner. Wraps a [`VTuner`]
/// (for shared options, caches, and measurement machinery) and layers
/// FMG plans over an already-tuned V family.
pub struct FmgTuner {
    v_tuner: VTuner,
}

impl FmgTuner {
    /// Build from tuner options (same fields as the V tuner).
    pub fn new(opts: TunerOptions) -> Self {
        FmgTuner {
            v_tuner: VTuner::new(opts),
        }
    }

    /// Tune a complete FMG family: first the V family (used by follow-up
    /// phases), then the FMG plans bottom-up.
    pub fn tune(&self) -> TunedFmgFamily {
        let v = self.v_tuner.tune();
        self.tune_over(v)
    }

    /// Tune FMG plans over an existing V family (must share accuracies
    /// and cover `max_level`).
    ///
    /// # Panics
    /// Panics if the V family's accuracies differ from the options'.
    pub(crate) fn tune_over(&self, v: TunedFamily) -> TunedFmgFamily {
        let opts = self.v_tuner.options();
        assert_eq!(
            v.accuracies, opts.accuracies,
            "V family accuracies must match tuner options"
        );
        assert!(
            v.max_level >= opts.max_level,
            "V family must cover the tuned levels"
        );
        let m = opts.accuracies.len();
        let mut plans: Vec<Vec<FmgChoice>> = vec![Vec::new(); opts.max_level + 1];
        plans[1] = vec![FmgChoice::Direct; m];

        for k in 2..=opts.max_level {
            let instances = self.v_tuner.training_instances(k);
            plans[k] = self.tune_fmg_level(&v, &plans, k, &instances);
        }
        TunedFmgFamily { v, plans }
    }

    fn partial(&self, v: &TunedFamily, plans: &[Vec<FmgChoice>], below: usize) -> TunedFmgFamily {
        TunedFmgFamily {
            v: v.clone(),
            plans: plans[..below].to_vec(),
        }
    }

    /// Tune every accuracy slot of one level. Each `ESTIMATE_j` runs
    /// once and each follow-up is walked once from its states; every
    /// slot keeps its own cheapest estimate + follow-up total.
    fn tune_fmg_level(
        &self,
        v: &TunedFamily,
        plans: &[Vec<FmgChoice>],
        level: usize,
        instances: &[ProblemInstance],
    ) -> Vec<FmgChoice> {
        let targets = &self.v_tuner.options().accuracies[..];
        let m = targets.len();

        // 1. Direct: the incumbent of every slot.
        let direct = self.v_tuner.measure_direct(level);
        let mut best = vec![(direct.cost, FmgChoice::Direct); m];

        // 2. ESTIMATE_j followed by SOR or RECURSE_m.
        let partial = self.partial(v, plans, level);
        for j in 0..m {
            // Run the estimate once per instance, snapshotting states.
            let (est_cost, est_states) = self.run_estimates(&partial, level, j, instances);
            // What the incumbent leaves for the follow-up is its budget.
            let mut follow_up = |measure: &dyn Fn(&Walk) -> Vec<Measured>,
                                 follow: &dyn Fn(u32) -> FollowUp| {
                let budgets: Vec<Option<f64>> = best
                    .iter()
                    .map(|&(cost, _)| Some((cost - est_cost).max(0.0)))
                    .collect();
                let measured = measure(&Walk {
                    instances,
                    starts: Some(&est_states),
                    targets,
                    budgets: &budgets,
                });
                for (slot, meas) in best.iter_mut().zip(measured) {
                    let total = est_cost + meas.cost;
                    if meas.feasible && total < slot.0 {
                        let choice = FmgChoice::Estimate {
                            estimate_accuracy: j as u8,
                            follow: follow(meas.iterations),
                        };
                        *slot = (total, choice);
                    }
                }
            };
            follow_up(
                &|walk| self.v_tuner.measure_sor(level, walk),
                &|iterations| FollowUp::Sor { iterations },
            );
            for sub in 0..m {
                follow_up(
                    &|walk| self.v_tuner.measure_recurse(v, level, sub, walk),
                    &|iterations| FollowUp::Recurse {
                        sub_accuracy: sub as u8,
                        iterations,
                    },
                );
            }
        }

        best.into_iter().map(|(_, choice)| choice).collect()
    }

    /// Run `ESTIMATE_j` ([`TunedFmgFamily::estimate`], what a served
    /// FMG member runs) on each instance, each as its own job; returns
    /// (cost of the first instance's estimate, post-estimate states).
    fn run_estimates(
        &self,
        partial: &TunedFmgFamily,
        level: usize,
        j: usize,
        instances: &[ProblemInstance],
    ) -> (f64, Vec<Grid2d>) {
        let estimates = per_instance(instances.len(), |idx| {
            let inst = &instances[idx];
            let mut ctx = self.v_tuner.fresh_ctx();
            let mut x = inst.working_grid();
            partial.estimate(level, j, &mut x, &inst.b, &mut ctx);
            (self.v_tuner.modeled_cost(&ctx.ops), x)
        });
        let cost = estimates.first().map_or(0.0, |&(cost, _)| cost);
        (cost, estimates.into_iter().map(|(_, x)| x).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecCtx;
    use crate::training::Distribution;
    use petamg_grid::{l2_diff, SimdMode};

    fn quick(max_level: usize) -> FmgTuner {
        FmgTuner::new(TunerOptions::quick(
            max_level,
            Distribution::UnbiasedUniform,
        ))
    }

    #[test]
    fn fmg_family_tunes_and_solves() {
        let tuner = quick(5);
        let fam = tuner.tune();
        fam.v.validate().unwrap();
        assert_eq!(fam.plans.len(), 6);
        let mode = SimdMode::host();
        let cache = std::sync::Arc::new(petamg_solvers::DirectSolverCache::new());
        for (i, &target) in fam.v.accuracies.clone().iter().enumerate() {
            let mut inst =
                ProblemInstance::random(5, Distribution::UnbiasedUniform, 555_000 + i as u64);
            let report = fam.solve_with(&mut inst, target, mode, &cache);
            assert!(
                report.achieved_accuracy >= target * 0.5,
                "target {target:e}: achieved {:e}",
                report.achieved_accuracy
            );
        }
    }

    #[test]
    fn fmg_no_more_expensive_than_v_modeled() {
        // The FMG search space strictly contains "estimate then recurse
        // like V", so the modeled cost of the tuned FMG solve should not
        // exceed the tuned V solve by more than measurement slack.
        let tuner = quick(5);
        let fam = tuner.tune();
        let opts = tuner.v_tuner.options();
        let profile = opts.profile.clone();
        let mode = SimdMode::host();
        let cache = std::sync::Arc::new(petamg_solvers::DirectSolverCache::new());
        let inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 42_424);

        let (v_cost, _) = super::super::priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            fam.v.run(5, 2, &mut x, &inst.b, ctx);
        });
        let (f_cost, _) = super::super::priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            fam.run(5, 2, &mut x, &inst.b, ctx);
        });
        assert!(
            f_cost <= v_cost * 1.35,
            "tuned FMG ({f_cost}) should be competitive with tuned V ({v_cost})"
        );
    }

    #[test]
    fn fmg_deterministic() {
        let a = quick(4).tune();
        let b = quick(4).tune();
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.v.plans, b.v.plans);
    }

    #[test]
    fn estimate_reduces_error() {
        let tuner = quick(4);
        let fam = tuner.tune();
        let mut inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 99);
        let mode = SimdMode::host();
        let cache = std::sync::Arc::new(petamg_solvers::DirectSolverCache::new());
        let x_opt = inst.ensure_x_opt(mode, &cache).clone();
        let mut ctx = ExecCtx::with_cache(mode, cache);
        let mut x = inst.working_grid();
        let e0 = l2_diff(&x, &x_opt, mode);
        fam.estimate(4, 2, &mut x, &inst.b, &mut ctx);
        let e1 = l2_diff(&x, &x_opt, mode);
        // The coarse-grid estimate can only remove the *smooth* error
        // component; on rough random data that is roughly half the
        // energy, so expect a solid but not dramatic reduction.
        assert!(e1 < 0.8 * e0, "estimate should reduce error: {e0} -> {e1}");
    }
}
