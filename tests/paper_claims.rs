//! Integration tests pinning the paper's qualitative claims (the
//! "shape" of the results, not absolute numbers). Each §4 figure whose
//! claim reproduces is asserted here at a small level; README's paper
//! map names the test for each figure and the measured fact for each
//! one that does not reproduce.

use petamg::core::accuracy::reference_fmg;
use petamg::core::heuristics::paper_strategies;
use petamg::core::plan::simple_v_family;
use petamg::core::tuner::{priced_run, ParetoTuner};
use petamg::grid::l2_diff;
use petamg::prelude::*;
use petamg::solvers::DirectSolverCache;
use std::sync::Arc;

/// The paper's reference iterations on `inst` until `done` or `max`
/// passes: `MULTIGRID-V-SIMPLE` cycles, or with `fmg` one reference
/// full-multigrid pass and then V cycles (the pass counts as one).
fn reference_passes(
    inst: &ProblemInstance,
    cache: &Arc<DirectSolverCache>,
    fmg: bool,
    max: usize,
    mut done: impl FnMut(&Grid2d) -> bool,
) -> SolveStatus {
    let v = simple_v_family(inst.level, &[1.0]);
    let mut ctx = ExecCtx::with_cache(SimdMode::host(), Arc::clone(cache));
    let mut x = inst.working_grid();
    for pass in 1..=max {
        if fmg && pass == 1 {
            reference_fmg(inst.level, &mut x, &inst.b, &mut ctx);
        } else {
            v.run(inst.level, 0, &mut x, &inst.b, &mut ctx);
        }
        if done(&x) {
            return SolveStatus::Converged { cycles: pass };
        }
    }
    SolveStatus::BudgetExhausted { cycles: max }
}

/// Reference passes until `inst`'s error has fallen by `target`.
fn reference_cycles(
    inst: &ProblemInstance,
    target: f64,
    cache: &Arc<DirectSolverCache>,
    fmg: bool,
) -> usize {
    let mode = SimdMode::host();
    let x_opt = inst.x_opt().expect("precomputed");
    let e0 = l2_diff(&inst.x0, x_opt, mode);
    let status = reference_passes(inst, cache, fmg, 200, |x| {
        l2_diff(x, x_opt, mode) <= e0 / target
    });
    assert!(status.converged(), "reference failed to reach {target:e}");
    status.cycles()
}

/// Modeled cost of iterating the reference V cycle until `target`. An
/// iterated solver must test for convergence after every cycle, so each
/// cycle is charged one fine-grid residual; the tuned plans are open
/// loop and need none.
fn reference_v_cost(
    profile: &MachineProfile,
    inst: &ProblemInstance,
    target: f64,
    cache: &Arc<DirectSolverCache>,
) -> f64 {
    let iters = reference_cycles(inst, target, cache, false);
    let fam = simple_v_family(inst.level, &[target]);
    let (one, _) = priced_run(profile, SimdMode::host(), cache, |ctx| {
        let mut x = inst.working_grid();
        fam.run(inst.level, 0, &mut x, &inst.b, ctx);
        ctx.ops.level_mut(inst.level).residuals += 1;
    });
    one * iters as f64
}

/// Fig 2 / §2.2: remembering one algorithm per discrete accuracy target
/// loses nothing against keeping the whole Pareto-optimal set. For each
/// `p_i`, the discrete DP's choice costs no more than the cheapest
/// member of `ParetoTuner`'s top-level set that reaches `p_i`. At
/// level 6 the five targets get five different choices: four iteration
/// counts of `RECURSE_0`, then Direct.
#[test]
fn discrete_tuner_choice_is_on_the_pareto_front() {
    let level = 6;
    let opts = TunerOptions::quick(level, Distribution::UnbiasedUniform);
    let profile = opts.profile.clone();
    let mut pareto = ParetoTuner::new(opts.clone());
    pareto.max_sor_probe = 64;
    pareto.max_recurse_probe = 6;
    let front = &pareto.tune()[level];
    let discrete = VTuner::new(opts).tune();
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 5);
    for (i, &p) in discrete.accuracies.iter().enumerate() {
        let pareto_best = front
            .iter()
            .filter(|a| a.accuracy >= p)
            .map(|a| a.cost)
            .fold(f64::INFINITY, f64::min);
        let (cost, _) = priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            discrete.run(level, i, &mut x, &inst.b, ctx);
        });
        assert!(
            cost <= pareto_best,
            "discrete choice for p={p:e} costs {cost}, Pareto best {pareto_best}"
        );
    }
}

/// Fig 3 / §2.4: the estimation phase pays. Reference full multigrid
/// (one FMG pass, then V cycles) needs no more passes than reference V
/// cycles to reach 1e3, 1e5 and 1e9 on either distribution, and on
/// biased data at 1e5 strictly fewer.
#[test]
fn full_multigrid_needs_no_more_passes_than_v_cycles() {
    let mode = SimdMode::host();
    let cache = Arc::new(DirectSolverCache::new());
    for dist in [Distribution::UnbiasedUniform, Distribution::BiasedUniform] {
        for level in 4..=6 {
            let mut inst = ProblemInstance::random(level, dist, 303 + level as u64);
            inst.ensure_x_opt(mode, &cache);
            for target in [1e3, 1e5, 1e9] {
                let v = reference_cycles(&inst, target, &cache, false);
                let fmg = reference_cycles(&inst, target, &cache, true);
                assert!(
                    fmg <= v,
                    "{} level {level} to {target:e}: FMG {fmg} passes vs V {v} cycles",
                    dist.name()
                );
                if dist == Distribution::BiasedUniform && target == 1e5 {
                    assert!(fmg < v, "biased level {level} to 1e5: FMG {fmg} vs V {v}");
                }
            }
        }
    }
}

/// Fig 4: the training distribution changes the tuned algorithm — the
/// level-6 `quick` tables for unbiased and biased data differ.
#[test]
fn training_distribution_changes_the_tuned_tables() {
    let tune = |dist| VTuner::new(TunerOptions::quick(6, dist)).tune().plans;
    assert_ne!(
        tune(Distribution::UnbiasedUniform),
        tune(Distribution::BiasedUniform)
    );
}

/// §4.2.2 / Figs 10–13: on every modeled testbed and both distributions,
/// the autotuned V algorithm costs no more than the reference V cycle
/// iterated to 1e5 or 1e9, stopping test included. Harpertown is tuned
/// one level deeper, so its level-7 points are checked too.
#[test]
fn autotuned_beats_reference_v_at_1e5() {
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    for profile in MachineProfile::all_testbeds() {
        let top = if profile == MachineProfile::intel_harpertown() {
            7
        } else {
            6
        };
        for dist in [Distribution::UnbiasedUniform, Distribution::BiasedUniform] {
            let tuned = VTuner::new(TunerOptions::modeled(top, dist, profile.clone())).tune();
            for level in 4..=top {
                let mut inst = ProblemInstance::random(level, dist, 31_337 + level as u64);
                inst.ensure_x_opt(mode, &cache);
                for target in [1e5, 1e9] {
                    let ref_cost = reference_v_cost(&profile, &inst, target, &cache);
                    let (tuned_cost, _) = priced_run(&profile, mode, &cache, |ctx| {
                        let mut x = inst.working_grid();
                        tuned.run(level, tuned.acc_index_for(target), &mut x, &inst.b, ctx);
                    });
                    assert!(
                        tuned_cost <= ref_cost,
                        "{} {} level {level} to {target:e}: tuned {tuned_cost} vs reference {ref_cost}",
                        profile.name,
                        dist.name()
                    );
                }
            }
        }
    }
}

/// Figs 10–11 on the serving path: a guarded solve to a relative
/// residual of 1e-8 under the `TunerOptions::quick` plan costs no more
/// (modeled, +10%) than reference V cycles iterated to the same
/// residual. At level 7 the plan's top member lands about 10x short, so
/// this holds only because the follow-up cycle is the cheapest member
/// that covers the rest, not the top member again.
#[test]
fn guarded_solve_matches_reference_v_to_1e8_residual() {
    let tol = 1e-8;
    let profile = MachineProfile::intel_harpertown();
    let problem = Problem::poisson();
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    let rel_residual = |x: &Grid2d, b: &Grid2d| {
        let mut r = Grid2d::zeros(x.n());
        petamg::problems::residual_op(&problem.op_for(x.n()), x, b, &mut r, &mode);
        petamg::grid::l2_norm_interior(&r, &mode) / petamg::grid::l2_norm_interior(b, &mode)
    };
    for level in [5, 6, 7] {
        let tuned = VTuner::new(TunerOptions::quick(level, Distribution::UnbiasedUniform)).tune();
        let guarded = GuardedSolver::new(problem.clone())
            .with_plan(tuned)
            .with_cache(Arc::clone(&cache));
        let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 4242);

        let mut x = inst.working_grid();
        let report = guarded.solve(&mut x, &inst.b, tol).expect("must serve");
        assert!(!report.degraded());
        assert!(rel_residual(&x, &inst.b) <= tol);
        let guarded_cost = profile.time(&report.ops);

        let status = reference_passes(&inst, &cache, false, 50, |x| {
            rel_residual(x, &inst.b) <= tol
        });
        assert!(status.converged(), "reference V failed to reach {tol:e}");
        let simple = simple_v_family(level, &[1.0]);
        let (one_cycle, _) = priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            simple.run(level, 0, &mut x, &inst.b, ctx);
        });
        let reference_cost = one_cycle * status.cycles() as f64;
        assert!(
            guarded_cost <= reference_cost * 1.10,
            "level {level}: guarded {guarded_cost} vs {} reference V cycles {reference_cost}",
            status.cycles()
        );
    }
}

/// Fig 10 text: "an especially marked difference for small problem sizes
/// due to the autotuned algorithms' use of the direct solve without
/// incurring the overhead of recursion."
#[test]
fn small_problems_get_big_speedups_from_direct_shortcut() {
    let profile = MachineProfile::intel_harpertown();
    let opts = TunerOptions::modeled(4, Distribution::UnbiasedUniform, profile.clone());
    let tuned = VTuner::new(opts).tune();
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 5);
    inst.ensure_x_opt(mode, &cache);
    let ref_cost = reference_v_cost(&profile, &inst, 1e5, &cache);
    let (tuned_cost, _) = priced_run(&profile, mode, &cache, |ctx| {
        let mut x = inst.working_grid();
        tuned.run(3, tuned.acc_index_for(1e5), &mut x, &inst.b, ctx);
    });
    assert!(
        tuned_cost < 0.7 * ref_cost,
        "tiny problems: tuned {tuned_cost} vs reference {ref_cost}"
    );
}

/// Fig 8: the autotuned algorithm is at least as fast as every fixed
/// 10^x/10^9 heuristic (its search space contains them all).
#[test]
fn autotuned_dominates_heuristic_strategies() {
    let opts = TunerOptions::quick(6, Distribution::BiasedUniform);
    let profile = opts.profile.clone();
    let tuned = VTuner::new(opts.clone()).tune();
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    let inst = ProblemInstance::random(6, Distribution::BiasedUniform, 606);
    let (tuned_cost, _) = priced_run(&profile, mode, &cache, |ctx| {
        let mut x = inst.working_grid();
        tuned.run(6, tuned.acc_index_for(1e9), &mut x, &inst.b, ctx);
    });
    for (name, fam) in paper_strategies(&opts) {
        let (cost, _) = priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            fam.run(6, fam.num_accuracies() - 1, &mut x, &inst.b, ctx);
        });
        assert!(
            tuned_cost <= cost * 1.15,
            "{name}: tuned {tuned_cost} vs heuristic {cost}"
        );
    }
}

/// §4.3 and Fig 14. Cross-tuning penalty: a cycle tuned for machine A,
/// priced on machine B, is no faster than B's natively tuned cycle (the
/// paper measured 29%/79% slowdowns between Xeon and Niagara). And each
/// testbed tunes to its own V and full-multigrid tables.
#[test]
fn cross_tuning_never_beats_native_tuning() {
    let level = 6;
    let dist = Distribution::UnbiasedUniform;
    let profiles = MachineProfile::all_testbeds();
    let families: Vec<TunedFmgFamily> = profiles
        .iter()
        .map(|p| FmgTuner::new(TunerOptions::modeled(level, dist, p.clone())).tune())
        .collect();
    let cache = Arc::new(DirectSolverCache::new());
    let mode = SimdMode::host();
    let inst = ProblemInstance::random(level, dist, 11);

    let price = |fam: &TunedFamily, profile: &MachineProfile| {
        let (c, _) = priced_run(profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            fam.run(level, fam.acc_index_for(1e5), &mut x, &inst.b, ctx);
        });
        c
    };
    for (a, runs_on) in profiles.iter().enumerate() {
        let native = price(&families[a].v, runs_on);
        for (b, trained_on) in profiles.iter().enumerate().filter(|&(b, _)| b != a) {
            let foreign = price(&families[b].v, runs_on);
            assert!(
                native <= foreign * 1.001,
                "on {}: native {native} vs tuned on {} {foreign}",
                runs_on.name,
                trained_on.name
            );
            assert_ne!(families[a].v.plans, families[b].v.plans, "V tables");
            assert_ne!(families[a].plans, families[b].plans, "FMG tables");
        }
    }
}

/// §2 complexity table sanity: SOR sweeps-to-converge grows with N while
/// multigrid cycles-to-converge stays roughly flat — the O(N³) vs O(N²)
/// total-work separation.
#[test]
fn iteration_scaling_matches_complexity_table() {
    let mode = SimdMode::host();
    let cache = Arc::new(DirectSolverCache::new());
    let mut sor_iters = Vec::new();
    let mut mg_iters = Vec::new();
    for level in [4usize, 5, 6] {
        let mut inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 99);
        let x_opt = inst.ensure_x_opt(mode, &cache).clone();
        let e0 = l2_diff(&inst.x0, &x_opt, mode);
        let n = inst.n();
        // SOR sweeps to reduce error 1e3x.
        let mut x = inst.working_grid();
        let omega = petamg::solvers::omega_opt(n);
        let mut it = 0;
        while l2_diff(&x, &x_opt, mode) > e0 / 1e3 && it < 100_000 {
            petamg::solvers::sor_sweep(&mut x, &inst.b, omega, &mode);
            it += 1;
        }
        sor_iters.push(it);
        // Reference V cycles for the same reduction.
        mg_iters.push(reference_cycles(&inst, 1e3, &cache, false));
    }
    // SOR iteration counts grow noticeably with N...
    assert!(
        sor_iters[2] as f64 >= 1.5 * sor_iters[0] as f64,
        "SOR iters {sor_iters:?} should grow with N"
    );
    // ...while multigrid cycle counts stay nearly flat.
    assert!(
        mg_iters[2] <= mg_iters[0] + 2,
        "MG cycles {mg_iters:?} should be ~constant"
    );
}

/// Fig 5 claim: cycle shapes differ across accuracy targets (the tuned
/// family is genuinely heterogeneous).
#[test]
fn cycle_shapes_vary_with_accuracy_target() {
    let tuned = VTuner::new(TunerOptions::quick(7, Distribution::UnbiasedUniform)).tune();
    let plans: Vec<_> = (0..tuned.num_accuracies())
        .map(|i| tuned.plan(7, i))
        .collect();
    let distinct: std::collections::HashSet<String> = plans.iter().map(|c| c.describe()).collect();
    assert!(
        distinct.len() >= 2,
        "expected accuracy-dependent plans, got {plans:?}"
    );
}

/// The tuner's answer depends on the operator posed: under the same
/// deterministic modeled cost, convergence differs per operator, so the
/// jump-coefficient and anisotropic profiles tune to different tables
/// than constant Poisson — what makes a per-fingerprint plan library
/// worth keeping.
#[test]
fn tuned_plans_diverge_across_problem_families() {
    let level = 5;
    let n = petamg::grid::level_size(level);
    let tune = |problem: Problem| {
        let opts = TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem);
        VTuner::new(opts).tune().plans
    };
    let poisson = tune(Problem::poisson());
    assert_ne!(tune(Problem::jump_inclusion(n)), poisson, "jump ×1000");
    assert_ne!(tune(Problem::anisotropic_canonical()), poisson, "aniso");
}
