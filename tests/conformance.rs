//! Cross-backend, cross-kernel-path conformance suite.
//!
//! One table-driven harness runs every solver path — the staged
//! (unfused) reference composition and the fused plan executor —
//! across both row-kernel backends (forced scalar and forced vector),
//! on shared fixtures, and asserts:
//!
//! * **bitwise-identical solutions** — every combination must produce
//!   exactly the grid the staged sequential reference produces;
//! * **identical [`OpCounts`]** — operation counting is a semantic
//!   property of the plan, never of the backend.
//!
//! This replaces the ad-hoc per-backend assertions that used to live in
//! `end_to_end.rs`; a parity regression names the offending backend.
//!
//! Since the operator-family subsystem, the matrix also carries an
//! **operator dimension**: every problem family (constant Poisson,
//! anisotropic, smooth- and jump-coefficient diffusion) is run through
//! {staged, fused} × {scalar, vector} × backend and must match its own
//! staged scalar reference bitwise, with identical op counts. Filter
//! with `PETAMG_CONFORMANCE_PROBLEM` (`poisson` / `aniso` / `smooth` /
//! `jump` / unset = all).

use petamg::core::cost::OpCounts;
use petamg::core::plan::{simple_v_family, Choice, ExecCtx, TunedFamily, PAPER_ACCURACIES};
use petamg::grid::{
    coarse_size, interpolate_add, level_size, residual, restrict_full_weighting, Grid2d,
};
use petamg::prelude::*;
use petamg::problems::residual_op;
use petamg::solvers::relax::{sor_sweep, sor_sweep_op, OMEGA_CYCLE};
use petamg::solvers::DirectSolverCache;
use std::sync::Arc;

mod common;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

const LEVEL: usize = 5;

/// The plan fixtures: every `Choice` variant is exercised somewhere.
fn fixture_families() -> Vec<(&'static str, TunedFamily)> {
    // Recursion-heavy: extra cycles at the top two levels.
    let mut recursive = simple_v_family(LEVEL, &PAPER_ACCURACIES);
    recursive.plans[LEVEL][1] = Choice::Recurse {
        sub_accuracy: 1,
        iterations: 3,
    };
    recursive.plans[LEVEL - 1][1] = Choice::Recurse {
        sub_accuracy: 0,
        iterations: 2,
    };

    // SOR at the top (drives the wavefront SOR solve) over a recursive
    // interior, plus a direct solve at a mid level.
    let mut mixed = simple_v_family(LEVEL, &PAPER_ACCURACIES);
    mixed.plans[LEVEL][0] = Choice::Sor { iterations: 7 };
    mixed.plans[LEVEL][1] = Choice::Recurse {
        sub_accuracy: 1,
        iterations: 2,
    };
    mixed.plans[LEVEL - 1][1] = Choice::Sor { iterations: 5 };
    mixed.plans[3][1] = Choice::Direct;

    vec![("recursive", recursive), ("mixed", mixed)]
}

fn fixture_instances() -> Vec<(&'static str, ProblemInstance)> {
    vec![
        (
            "unbiased",
            ProblemInstance::random(LEVEL, Distribution::UnbiasedUniform, 0xC0FFEE),
        ),
        (
            "biased",
            ProblemInstance::random(LEVEL, Distribution::BiasedUniform, 0xF00D),
        ),
    ]
}

/// The problem filter keeps what its prefix names, and a prefix that
/// names nothing (a typo, a deleted family) fails loudly — it must not
/// turn every `for .. in problem_families()` suite green without
/// running it.
#[test]
#[should_panic(
    expected = "PETAMG_CONFORMANCE_PROBLEM=gpu selects nothing; valid prefixes: poisson"
)]
fn problem_filter_selects_by_prefix_and_rejects_an_empty_selection() {
    let var = "PETAMG_CONFORMANCE_PROBLEM";
    let all = || vec![("poisson", 0), ("smooth", 1), ("smooth-aniso", 2)];
    for keep_all in [None, Some(String::new()), Some("all".to_string())] {
        assert_eq!(common::select(var, keep_all, all()), all());
    }
    assert_eq!(
        common::select(var, Some("smooth".into()), all()),
        all()[1..]
    );
    common::select(var, Some("gpu".into()), all());
}

// ---------------------------------------------------------------------
// Staged (unfused) reference executor
// ---------------------------------------------------------------------

/// Execute a plan with the seed-era staged kernels: separate relax,
/// residual, restrict, and interpolate passes, sequential, no fusion,
/// no workspace pooling. This is the semantic
/// ground truth every fused/parallel combination must match bitwise.
fn staged_run(
    fam: &TunedFamily,
    level: usize,
    acc: usize,
    x: &mut Grid2d,
    b: &Grid2d,
    cache: &Arc<DirectSolverCache>,
) {
    let seq = SimdMode::host();
    match fam.plan(level, acc) {
        Choice::Direct => cache.solve_op(x, b, &StencilOp::Poisson),
        Choice::Sor { iterations } => {
            let omega = petamg::solvers::relax::omega_opt(x.n());
            for _ in 0..iterations {
                sor_sweep(x, b, omega, &seq);
            }
        }
        Choice::Recurse {
            sub_accuracy,
            iterations,
        } => {
            for _ in 0..iterations {
                staged_recurse(fam, level, sub_accuracy as usize, x, b, cache);
            }
        }
    }
}

fn staged_recurse(
    fam: &TunedFamily,
    level: usize,
    sub: usize,
    x: &mut Grid2d,
    b: &Grid2d,
    cache: &Arc<DirectSolverCache>,
) {
    let seq = SimdMode::host();
    if level <= 1 {
        cache.solve_op(x, b, &StencilOp::Poisson);
        return;
    }
    let n = level_size(level);
    let nc = coarse_size(n);
    sor_sweep(x, b, OMEGA_CYCLE, &seq);
    let mut r = Grid2d::zeros(n);
    residual(x, b, &mut r, &seq);
    let mut bc = Grid2d::zeros(nc);
    restrict_full_weighting(&r, &mut bc, seq);
    let mut ec = Grid2d::zeros(nc);
    staged_run(fam, level - 1, sub, &mut ec, &bc, cache);
    interpolate_add(&ec, x);
    sor_sweep(x, b, OMEGA_CYCLE, &seq);
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

/// Execute a plan with staged operator-family kernels: separate
/// relax/residual/restrict/interpolate passes of the posed problem's
/// per-level operators, sequential scalar, no fusion. The ground truth
/// of the operator dimension. With the Poisson problem this performs
/// exactly the same arithmetic as [`staged_run`].
fn staged_run_op(
    problem: &Problem,
    fam: &TunedFamily,
    level: usize,
    acc: usize,
    x: &mut Grid2d,
    b: &Grid2d,
    cache: &Arc<DirectSolverCache>,
) {
    let seq = SimdMode::host();
    match fam.plan(level, acc) {
        Choice::Direct => cache.solve_op(x, b, &problem.op_for(x.n())),
        Choice::Sor { iterations } => {
            let op = problem.op_for(x.n());
            let omega = petamg::solvers::relax::omega_opt(x.n());
            for _ in 0..iterations {
                sor_sweep_op(&op, x, b, omega, &seq);
            }
        }
        Choice::Recurse {
            sub_accuracy,
            iterations,
        } => {
            for _ in 0..iterations {
                staged_recurse_op(problem, fam, level, sub_accuracy as usize, x, b, cache);
            }
        }
    }
}

fn staged_recurse_op(
    problem: &Problem,
    fam: &TunedFamily,
    level: usize,
    sub: usize,
    x: &mut Grid2d,
    b: &Grid2d,
    cache: &Arc<DirectSolverCache>,
) {
    let seq = SimdMode::host();
    if level <= 1 {
        cache.solve_op(x, b, &problem.op_for(x.n()));
        return;
    }
    let n = level_size(level);
    let nc = coarse_size(n);
    let op = problem.op_for(n);
    sor_sweep_op(&op, x, b, OMEGA_CYCLE, &seq);
    let mut r = Grid2d::zeros(n);
    residual_op(&op, x, b, &mut r, &seq);
    let mut bc = Grid2d::zeros(nc);
    restrict_full_weighting(&r, &mut bc, seq);
    let mut ec = Grid2d::zeros(nc);
    staged_run_op(problem, fam, level - 1, sub, &mut ec, &bc, cache);
    interpolate_add(&ec, x);
    sor_sweep_op(&op, x, b, OMEGA_CYCLE, &seq);
}

struct CaseResult {
    grid: Grid2d,
    ops: OpCounts,
}

fn run_case(
    fam: &TunedFamily,
    inst: &ProblemInstance,
    acc: usize,
    mode: SimdMode,
    cache: &Arc<DirectSolverCache>,
) -> CaseResult {
    let mut ctx = ExecCtx::with_cache(mode, Arc::clone(cache)).with_problem(inst.problem.clone());
    let mut x = inst.working_grid();
    fam.run(LEVEL, acc, &mut x, &inst.b, &mut ctx);
    CaseResult {
        grid: x,
        ops: ctx.ops,
    }
}

/// The conformance matrix: {family × instance × accuracy} fixtures,
/// each run through {kernel path × backend}, everything asserted
/// bitwise-equal (grids) and exactly equal (op counts) to the staged
/// sequential reference.
#[test]
fn all_backend_combinations_match_staged_reference() {
    let cache = Arc::new(DirectSolverCache::new());
    let mut cases = 0usize;
    let backends = common::backends();

    for (fam_name, fam) in fixture_families() {
        for (inst_name, inst) in fixture_instances() {
            for acc in [0usize, 1] {
                // Ground truth: the staged, unfused, sequential path.
                let mut x_ref = inst.working_grid();
                staged_run(&fam, LEVEL, acc, &mut x_ref, &inst.b, &cache);

                // Reference op counts from the fused seq executor.
                let baseline = run_case(&fam, &inst, acc, SimdMode::host(), &cache);
                assert_eq!(
                    baseline.grid.as_slice(),
                    x_ref.as_slice(),
                    "[{fam_name}/{inst_name}/acc{acc}] fused executor diverged from staged kernels"
                );

                for (backend_name, mode) in &backends {
                    let got = run_case(&fam, &inst, acc, *mode, &cache);
                    let tag = format!("[{fam_name}/{inst_name}/acc{acc}/{backend_name}]");
                    assert_eq!(
                        got.grid.as_slice(),
                        x_ref.as_slice(),
                        "{tag} solution not bitwise identical to staged reference"
                    );
                    assert_eq!(
                        got.ops, baseline.ops,
                        "{tag} op counts differ across backends"
                    );
                    cases += 1;
                }
            }
        }
    }
    // 2 families × 2 instances × 2 accuracies × 2 SIMD modes.
    assert!(
        cases == 2 * 2 * 2 * 2,
        "matrix unexpectedly small: {cases} cases"
    );
    println!("conformance: {cases} combinations matched the staged reference");
}

/// The problem families of the operator dimension, filtered by
/// `PETAMG_CONFORMANCE_PROBLEM`.
fn problem_families() -> Vec<(&'static str, Problem)> {
    let n = level_size(LEVEL);
    let all = vec![
        ("poisson", Problem::poisson()),
        ("aniso", Problem::anisotropic_canonical()),
        ("smooth", Problem::smooth_sinusoidal(n)),
        ("jump", Problem::jump_inclusion(n)),
    ];
    common::select(
        "PETAMG_CONFORMANCE_PROBLEM",
        petamg::obs::env::conformance_problem(),
        all,
    )
}

/// The operator dimension of the conformance matrix: each problem
/// family × {staged, fused} × {scalar, vector} × backend, all
/// bitwise-equal (grids) and exactly equal (op counts) to that
/// family's own staged sequential-scalar reference. Plans here carry
/// the family's fingerprint, so `run_case`'s executor runs the posed
/// operator at every level.
#[test]
fn operator_families_match_their_staged_references() {
    let cache = Arc::new(DirectSolverCache::new());
    let backends = common::backends();
    let mut cases = 0usize;

    // One plan shape exercising SOR, recursion, and a mid-level direct
    // solve; one instance (the problem data is identical across
    // families — only the operator differs).
    let (_, fam) = fixture_families().remove(1);
    for (prob_name, problem) in problem_families() {
        let mut fam = fam.clone();
        fam.problem = problem.fingerprint().clone();
        let inst =
            ProblemInstance::random_for(&problem, LEVEL, Distribution::UnbiasedUniform, 0xBEEF);
        for acc in [0usize, 1] {
            let mut x_ref = inst.working_grid();
            staged_run_op(&problem, &fam, LEVEL, acc, &mut x_ref, &inst.b, &cache);

            if problem.is_poisson() {
                // The operator seam's Poisson path must be the legacy
                // staged path, bit for bit.
                let mut x_legacy = inst.working_grid();
                staged_run(&fam, LEVEL, acc, &mut x_legacy, &inst.b, &cache);
                assert_eq!(
                    x_ref.as_slice(),
                    x_legacy.as_slice(),
                    "staged op-seam Poisson diverged from the legacy staged kernels"
                );
            }

            let baseline = run_case(&fam, &inst, acc, SimdMode::host(), &cache);
            assert_eq!(
                baseline.grid.as_slice(),
                x_ref.as_slice(),
                "[{prob_name}/acc{acc}] fused executor diverged from staged op kernels"
            );

            for (backend_name, mode) in &backends {
                let got = run_case(&fam, &inst, acc, *mode, &cache);
                let tag = format!("[{prob_name}/acc{acc}/{backend_name}]");
                assert_eq!(
                    got.grid.as_slice(),
                    x_ref.as_slice(),
                    "{tag} solution not bitwise identical to staged reference"
                );
                assert_eq!(
                    got.ops, baseline.ops,
                    "{tag} op counts differ across backends"
                );
                cases += 1;
            }
        }
    }
    println!("conformance (operator dimension): {cases} combinations matched");
}

/// A freshly DP-tuned plan (not a hand-built fixture) must also agree
/// across backends, including through its own `solve_with` path.
#[test]
fn tuned_family_conforms_on_every_backend() {
    let tuned = VTuner::new(TunerOptions::quick(LEVEL, Distribution::UnbiasedUniform)).tune();
    tuned.validate().unwrap();
    let cache = Arc::new(DirectSolverCache::new());
    let inst = ProblemInstance::random(LEVEL, Distribution::UnbiasedUniform, 9_001);
    let acc = tuned.acc_index_for(1e5);

    let mut x_ref = inst.working_grid();
    staged_run(&tuned, LEVEL, acc, &mut x_ref, &inst.b, &cache);

    for (backend_name, mode) in &common::backends() {
        let got = run_case(&tuned, &inst, acc, *mode, &cache);
        assert_eq!(
            got.grid.as_slice(),
            x_ref.as_slice(),
            "[tuned/{backend_name}] diverged"
        );
        let report = tuned.solve_with(&mut inst.clone(), 1e5, *mode, &cache);
        assert!(
            report.achieved_accuracy >= 1e5 * 0.5,
            "[tuned/{backend_name}] solve_with achieved {:e}",
            report.achieved_accuracy
        );
    }
}
