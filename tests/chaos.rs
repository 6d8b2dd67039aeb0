//! Chaos suite: deterministic fault injection against the guarded
//! serving pipeline, crossed over execution backends.
//!
//! Every test breaks something on purpose — a plan file, a kernel
//! output, a direct factorization — and asserts the degradation ladder
//! (`petamg::core::guard`) absorbs it: the solve still converges on a
//! lower rung, the rung is visible in the report, and a
//! full ladder exhaustion comes back as a typed error with `x`
//! restored, never a panic or a poisoned iterate.
//!
//! The backend axis mirrors `tests/conformance.rs`: scheduling
//! backends crossed with SIMD modes, filtered by
//! `PETAMG_CONFORMANCE_BACKEND` so CI can shard the matrix. Fault
//! arming is thread-local and every fault point runs on the driving
//! thread, so the parallel backends exercise the same deterministic
//! fault schedule as `seq`.

use petamg::core::faults::{self, Fault};
use petamg::core::plan::{simple_v_family, PAPER_ACCURACIES};
use petamg::core::FailureKind;
use petamg::persist::{self, PlanLoadError};
use petamg::prelude::*;
use std::path::PathBuf;

mod common;

/// Backends under chaos: `seq` and `pbrt2`, each in both SIMD modes.
fn backends() -> Vec<(String, Exec)> {
    common::backends(&[2])
}

/// Grid level the chaos instances live at (`n = 2^5 + 1 = 33`).
const LEVEL: usize = 5;
/// Relative-residual tolerance every surviving rung must meet.
const TOL: f64 = 1e-9;

fn instance(problem: &Problem, seed: u64) -> ProblemInstance {
    ProblemInstance::random_for(problem, LEVEL, Distribution::UnbiasedUniform, seed)
}

/// The rungs a solve degraded past, in order.
fn rungs(report: &GuardedReport) -> Vec<LadderRung> {
    report.degradations.iter().map(|d| d.rung).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("petamg-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Healthy baseline: with no fault armed, every backend serves the
/// tuned rung with no degradation — the chaos assertions below would be
/// meaningless if the happy path itself degraded.
#[test]
fn healthy_solves_serve_the_tuned_rung_on_every_backend() {
    faults::clear();
    let inst = instance(&Problem::poisson(), 11);
    for (name, exec) in backends() {
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
            .with_exec(exec)
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] healthy solve failed: {e}"));
        assert_eq!(report.rung, LadderRung::TunedPlan, "[{name}]");
        assert!(!report.degraded(), "[{name}]");
        assert!(rungs(&report).is_empty(), "[{name}]");
        assert!(
            report.rel_residual <= TOL,
            "[{name}] {}",
            report.rel_residual
        );
    }
}

/// A corrupted plan file is quarantined at load, and the serving path
/// falls back to the heuristic rung — the full pipeline a service
/// would run: load-or-degrade, then solve.
#[test]
fn corrupted_plan_file_quarantines_then_heuristic_rung_serves() {
    faults::clear();
    let inst = instance(&Problem::poisson(), 23);
    for (name, exec) in backends() {
        let dir = tmp_dir(&format!("corrupt-{}", name.replace('+', "-")));
        let path = dir.join("plan.json");
        persist::save_plan(&simple_v_family(LEVEL, &PAPER_ACCURACIES), &path).unwrap();

        faults::inject(Fault::CorruptPlan);
        let loaded = persist::load_plan_for(&path, &Problem::poisson());
        let quarantined = match loaded {
            Err(PlanLoadError::Parse {
                quarantined: Some(q),
                ..
            }) => q,
            other => panic!("[{name}] expected quarantining parse error, got {other:?}"),
        };
        assert!(quarantined.exists(), "[{name}] quarantined copy kept");
        assert!(!path.exists(), "[{name}] original moved aside");

        // The service continues without the plan: heuristic rung.
        let solver = GuardedSolver::new(Problem::poisson())
            .with_exec(exec)
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] heuristic fallback failed: {e}"));
        assert_eq!(report.rung, LadderRung::HeuristicPlan, "[{name}]");
        assert!(report.rel_residual <= TOL, "[{name}]");
        faults::clear();
    }
}

/// A plan whose fingerprint does not match the posed problem is
/// rejected at rung 0 and the heuristic rung serves, with the failed
/// rung visible in the report.
#[test]
fn fingerprint_mismatch_degrades_to_heuristic_on_every_backend() {
    faults::clear();
    let aniso = Problem::anisotropic(0.5);
    let inst = instance(&aniso, 31);
    for (name, exec) in backends() {
        // A (nominally Poisson-tuned) plan posed an anisotropic system.
        let solver = GuardedSolver::new(aniso.clone())
            .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
            .with_exec(exec)
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] must degrade, not die: {e}"));
        assert_eq!(report.rung, LadderRung::HeuristicPlan, "[{name}]");
        assert_eq!(report.degradations.len(), 1, "[{name}]");
        assert!(
            matches!(report.degradations[0].reason, FailureKind::PlanRejected(_)),
            "[{name}] {:?}",
            report.degradations[0].reason
        );
        assert_eq!(rungs(&report), vec![LadderRung::TunedPlan], "[{name}]");
        assert!(report.rel_residual <= TOL, "[{name}]");
    }
}

/// A NaN injected into a mid-cycle kernel output trips the guard's
/// finiteness check; the ladder retries on the heuristic rung and the
/// returned solution is finite and converged on every backend.
#[test]
fn injected_mid_cycle_nan_degrades_and_still_converges() {
    faults::clear();
    let inst = instance(&Problem::poisson(), 43);
    for (name, exec) in backends() {
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
            .with_exec(exec)
            .with_tracing();
        let mut x = inst.working_grid();
        faults::inject(Fault::PoisonLevel { level: LEVEL });
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] must degrade, not die: {e}"));
        assert_eq!(report.rung, LadderRung::HeuristicPlan, "[{name}]");
        assert!(
            matches!(
                report.degradations[0].reason,
                FailureKind::Guard(GuardFailure::NonFinite { .. })
            ),
            "[{name}] {:?}",
            report.degradations[0].reason
        );
        assert_eq!(rungs(&report), vec![LadderRung::TunedPlan], "[{name}]");
        assert!(x.as_slice().iter().all(|v| v.is_finite()), "[{name}]");
        assert!(report.rel_residual <= TOL, "[{name}]");
        assert!(!faults::armed(), "[{name}] fault must be consumed");
    }
}

/// The failure taxonomy is visible through the metric registry: with
/// the gate open, an injected tuned-rung failure lands in
/// `petamg_rung_failed_total{rung="tuned"}`, the degraded serve lands
/// in the heuristic rung's serve counter, and every rung attempt —
/// served or failed — contributes one attempt-histogram sample. This
/// is the snapshot-vs-report reconciliation CI's `PETAMG_TELEMETRY=1`
/// chaos leg re-runs with the gate opened from the environment. A rung
/// skipped as a replay is a degradation in the report but neither a
/// failure nor an attempt in the registry, and neither is a rung the
/// ladder memory knows to fail, so the exact identity is
/// `failed + skipped == Σ degradations`.
#[test]
fn telemetry_counts_injected_degradations() {
    faults::clear();
    petamg::obs::set_mode(petamg::obs::TelemetryMode::Metrics);
    let inst = instance(&Problem::poisson(), 71);
    let registry = petamg::obs::Registry::new();
    let feed = std::sync::Arc::new(petamg::core::SolveTelemetry::register(&registry));
    let solver = GuardedSolver::new(Problem::poisson())
        .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
        .with_telemetry(std::sync::Arc::clone(&feed));

    // One healthy solve, then one with the tuned rung poisoned.
    let mut x = inst.working_grid();
    let healthy = solver.solve(&mut x, &inst.b, TOL).expect("healthy solve");
    assert_eq!(healthy.rung, LadderRung::TunedPlan);
    let mut x = inst.working_grid();
    faults::inject(Fault::PoisonLevel { level: LEVEL });
    let degraded = solver.solve(&mut x, &inst.b, TOL).expect("must degrade");
    assert_eq!(degraded.rung, LadderRung::HeuristicPlan);
    assert_eq!(degraded.degradations.len(), 1);

    let snap = registry.snapshot();
    let served = |rung| snap.counter("petamg_rung_served_total", &[("rung", rung)]);
    let failed = |rung| snap.counter("petamg_rung_failed_total", &[("rung", rung)]);
    assert_eq!(served("tuned"), 1, "one healthy tuned serve");
    assert_eq!(served("heuristic"), 1, "one degraded serve");
    assert_eq!(failed("tuned"), 1, "exactly the injected poison");
    assert_eq!(failed("heuristic"), 0);
    assert_eq!(snap.counter("petamg_ladder_exhausted_total", &[]), 0);
    // One attempt sample per rung attempt: two tuned (healthy serve +
    // poisoned failure), one heuristic (the degraded serve).
    assert_eq!(
        snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "tuned")]),
        2
    );
    assert_eq!(
        snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "heuristic")]),
        1
    );
    assert!(!faults::armed(), "fault must be consumed");

    // A third solve, through the same feed, whose heuristic rung is
    // skipped as the replay of a deterministically failed tuned rung.
    let (jump, plan) = jump_with_simple_plan();
    let inst = instance(&jump, 73);
    let mut x = inst.working_grid();
    let skipped = GuardedSolver::new(jump.clone())
        .with_plan(plan.clone())
        .with_telemetry(std::sync::Arc::clone(&feed))
        .solve(&mut x, &inst.b, TOL)
        .expect("direct serves");
    assert_eq!(skipped.rung, LadderRung::Direct);
    let snap = registry.snapshot();
    let count = |name, rung| snap.counter(name, &[("rung", rung)]);
    assert_eq!(count("petamg_rung_failed_total", "tuned"), 2);
    assert_eq!(count("petamg_rung_failed_total", "heuristic"), 0);
    assert_eq!(count("petamg_rung_skipped_total", "heuristic"), 1);
    assert_eq!(
        snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "heuristic")]),
        1,
        "a skipped rung records no attempt"
    );

    // Four more through a solver with a ladder memory: three walks open
    // it, the fourth is served from it with both plan rungs skipped as
    // known to fail — skips like the replay's, and no attempt either.
    let remembering = GuardedSolver::new(jump)
        .with_plan(plan)
        .with_ladder_memory(std::sync::Arc::new(petamg::core::LadderMemory::new()))
        .with_telemetry(feed);
    let remembered: Vec<GuardedReport> = (74..78)
        .map(|seed| {
            let inst = instance(remembering.problem(), seed);
            let mut x = inst.working_grid();
            remembering
                .solve(&mut x, &inst.b, TOL)
                .expect("direct serves")
        })
        .collect();
    for d in &remembered[3].degradations {
        assert!(
            matches!(d.reason, FailureKind::KnownToFail(_)),
            "{}",
            d.reason
        );
    }
    let snap = registry.snapshot();
    let count = |name, rung| snap.counter(name, &[("rung", rung)]);
    assert_eq!(count("petamg_rung_failed_total", "tuned"), 5);
    assert_eq!(count("petamg_rung_skipped_total", "tuned"), 1);
    assert_eq!(count("petamg_rung_skipped_total", "heuristic"), 5);
    assert_eq!(
        snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "tuned")]),
        6,
        "a rung known to fail records no attempt"
    );
    let failed_or_skipped: u64 = ["tuned", "heuristic", "direct"]
        .iter()
        .map(|&r| count("petamg_rung_failed_total", r) + count("petamg_rung_skipped_total", r))
        .sum();
    let degradations: usize = [&healthy, &degraded, &skipped]
        .into_iter()
        .chain(&remembered)
        .map(|r| r.degradations.len())
        .sum();
    assert_eq!(failed_or_skipped, degradations as u64);
}

/// An exhausted ladder reaches the registry too: with the gate open,
/// both plan rungs poisoned and the direct factorization failed, the
/// solve is one `petamg_ladder_exhausted_total`, one failure and one
/// attempt sample per rung, no serve, and the kernel time the plan
/// rungs spent at the top level is one `petamg_kernel_seconds` sample.
#[test]
fn telemetry_counts_an_exhausted_ladder() {
    faults::clear();
    petamg::obs::set_mode(petamg::obs::TelemetryMode::Metrics);
    let n = (1usize << LEVEL) + 1;
    let inst = instance(&Problem::poisson(), 61);
    let registry = petamg::obs::Registry::new();
    let feed = std::sync::Arc::new(petamg::core::SolveTelemetry::register(&registry));
    let solver = GuardedSolver::new(Problem::poisson())
        .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
        .with_telemetry(feed);
    let mut x = inst.working_grid();
    // A cycle runs two kernels at the top level but one at level 1, so
    // one level-1 poison per plan rung fails each rung's first cycle.
    faults::inject(Fault::PoisonLevel { level: 1 });
    faults::inject(Fault::PoisonLevel { level: 1 });
    faults::inject(Fault::FailDirect { n });
    let err = solver
        .solve(&mut x, &inst.b, TOL)
        .expect_err("every rung was sabotaged");
    assert_eq!(err.degradations.len(), 3, "{err}");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("petamg_ladder_exhausted_total", &[]), 1);
    for rung in ["tuned", "heuristic", "direct"] {
        let labels = [("rung", rung)];
        assert_eq!(
            snap.counter("petamg_rung_failed_total", &labels),
            1,
            "{rung}"
        );
        assert_eq!(
            snap.counter("petamg_rung_served_total", &labels),
            0,
            "{rung}"
        );
        assert_eq!(
            snap.histogram_count("petamg_rung_attempt_seconds", &labels),
            1,
            "{rung}"
        );
    }
    let top = LEVEL.to_string();
    assert_eq!(
        snap.histogram_count("petamg_kernel_seconds", &[("level", &top)]),
        1
    );
    assert!(!faults::armed(), "all faults consumed");
}

/// The jump-coefficient profile at the chaos level with the stamped
/// `MULTIGRID-V-SIMPLE` family — what the default serving policy hands
/// a fingerprint it has no tuned plan for. Point relaxation contracts
/// too slowly across the ×1000 jump to reach `TOL` within the budget.
fn jump_with_simple_plan() -> (Problem, TunedFamily) {
    let problem = Problem::jump_inclusion((1usize << LEVEL) + 1);
    let mut plan = simple_v_family(LEVEL, &PAPER_ACCURACIES);
    plan.problem = problem.fingerprint().clone();
    (problem, plan)
}

/// No fault at all: the tuned rung *is* the simple schedule and fails
/// on the arithmetic (a budget it cannot meet), so the heuristic rung —
/// the same schedule from the same restored iterate — is recorded as
/// skipped, not replayed, and the direct rung serves. The answer is
/// bit for bit what the ladder produces when the heuristic rung does
/// run (a plan-less solver), on every backend.
#[test]
fn deterministic_tuned_failure_skips_the_replayed_heuristic_rung() {
    faults::clear();
    let (problem, plan) = jump_with_simple_plan();
    let inst = instance(&problem, 79);
    for (name, exec) in backends() {
        let solver = GuardedSolver::new(problem.clone())
            .with_plan(plan.clone())
            .with_exec(exec.clone())
            .with_tracing();
        let mut x = inst.working_grid();
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] direct rung must serve: {e}"));
        assert_eq!(report.rung, LadderRung::Direct, "[{name}]");
        assert_eq!(report.degradations.len(), 2, "[{name}]");
        let verdict = match &report.degradations[0].reason {
            FailureKind::Guard(g) => *g,
            other => panic!("[{name}] tuned rung must fail on a guard verdict: {other}"),
        };
        assert!(
            matches!(
                &report.degradations[1].reason,
                FailureKind::SameScheduleAsFailed(g) if *g == verdict
            ),
            "[{name}] {}",
            report.degradations[1].reason
        );
        assert_eq!(report.degradations[1].seconds, 0.0, "[{name}]");
        assert_eq!(
            rungs(&report),
            vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan],
            "[{name}]"
        );
        assert!(
            report.ops.per_level[LEVEL].restricts < 50,
            "[{name}] the doomed attempt is abandoned before its budget"
        );
        assert!(report.rel_residual <= TOL, "[{name}]");

        let mut want = inst.working_grid();
        let planless = GuardedSolver::new(problem.clone())
            .with_exec(exec)
            .solve(&mut want, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] plan-less ladder must serve: {e}"));
        assert_eq!(planless.rung, LadderRung::Direct, "[{name}]");
        assert_eq!(x.as_slice(), want.as_slice(), "[{name}]");
    }
}

/// Both plan rungs poisoned → the unconditional direct rung serves.
/// The level-1 base solve runs exactly once per family cycle, so one
/// armed fault per rung poisons each rung's first cycle.
#[test]
fn direct_rung_serves_when_both_plan_rungs_are_poisoned() {
    faults::clear();
    let inst = instance(&Problem::poisson(), 47);
    for (name, exec) in backends() {
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
            .with_exec(exec)
            .with_tracing();
        let mut x = inst.working_grid();
        faults::inject(Fault::PoisonLevel { level: 1 });
        faults::inject(Fault::PoisonLevel { level: 1 });
        let report = solver
            .solve(&mut x, &inst.b, TOL)
            .unwrap_or_else(|e| panic!("[{name}] direct rung must serve: {e}"));
        assert_eq!(report.rung, LadderRung::Direct, "[{name}]");
        assert_eq!(
            rungs(&report),
            vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan],
            "[{name}]"
        );
        assert!(report.rel_residual <= TOL, "[{name}]");
        faults::clear();
    }
}

/// Sabotage every rung: typed `SolveError` carrying the per-rung
/// failure history, `x` bit-for-bit restored to the initial guess.
#[test]
fn full_ladder_exhaustion_is_typed_and_restores_x() {
    faults::clear();
    let n = (1usize << LEVEL) + 1;
    let inst = instance(&Problem::poisson(), 53);
    for (name, exec) in backends() {
        let solver = GuardedSolver::new(Problem::poisson())
            .with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES))
            .with_exec(exec);
        let mut x = inst.working_grid();
        let x0 = x.clone();
        faults::inject(Fault::PoisonLevel { level: 1 });
        faults::inject(Fault::PoisonLevel { level: 1 });
        faults::inject(Fault::FailDirect { n });
        let err = solver
            .solve(&mut x, &inst.b, TOL)
            .expect_err("every rung was sabotaged");
        assert_eq!(err.degradations.len(), 3, "[{name}] {err}");
        assert!(
            matches!(
                err.degradations[2].reason,
                FailureKind::DirectFactorization(_)
            ),
            "[{name}] {:?}",
            err.degradations[2].reason
        );
        assert_eq!(x.as_slice(), x0.as_slice(), "[{name}] x restored");
        assert!(!faults::armed(), "[{name}] all faults consumed");
        faults::clear();
    }
}

/// The `PETAMG_FAULTS` spec grammar drives the same machinery the
/// programmatic API does — the env-driven path a chaos drill would
/// use against a real binary (see `examples/guarded_solve.rs`).
#[test]
fn env_spec_grammar_arms_the_same_faults() {
    faults::clear();
    let spec = "poison-level:1,poison-level:1,fail-direct:33";
    let parsed = faults::parse_spec(spec).unwrap();
    for f in parsed {
        faults::inject(f);
    }
    let inst = instance(&Problem::poisson(), 59);
    let solver =
        GuardedSolver::new(Problem::poisson()).with_plan(simple_v_family(LEVEL, &PAPER_ACCURACIES));
    let mut x = inst.working_grid();
    let err = solver
        .solve(&mut x, &inst.b, TOL)
        .expect_err("spec-armed faults must exhaust the ladder");
    assert_eq!(err.degradations.len(), 3, "{err}");
    faults::clear();
}

// ---------------------------------------------------------------------------
// Serving-path chaos: the same faults, fired mid-serve inside a running
// `SolverService`. Faults are thread-local to the worker executing a
// request, so each chaos request *carries* its faults
// (`SolveRequest::with_faults`) and the service arms them on the worker
// that picks the request up — the env/`PETAMG_FAULTS` route a drill
// against a real binary would use is exercised by
// `examples/serve_demo.rs`.
// ---------------------------------------------------------------------------

use petamg::serve::{PlanSource, ServeError, ServiceConfig, SolveRequest, SolverService};

fn serve_request(problem: &Problem, seed: u64) -> SolveRequest {
    let inst = instance(problem, seed);
    SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), TOL)
}

/// A corrupt plan file read mid-serve is quarantined, the affected
/// fingerprint re-tunes on the same request, and other fingerprints
/// keep serving throughout — no panic, no poisoned response.
#[test]
fn serve_corrupt_plan_mid_serve_quarantines_and_retunes() {
    faults::clear();
    let victim = Problem::anisotropic(0.5);
    let bystander = Problem::poisson();
    for (name, exec) in backends() {
        let dir = tmp_dir(&format!("serve-corrupt-{}", name.replace('+', "-")));
        let svc = SolverService::start(
            ServiceConfig::new(&dir)
                .with_workers(2)
                .with_exec(exec.clone()),
        )
        .unwrap();
        // Warm both fingerprints onto disk.
        svc.solve(serve_request(&victim, 61))
            .unwrap_or_else(|e| panic!("[{name}] victim warm-up failed: {e}"));
        svc.solve(serve_request(&bystander, 62))
            .unwrap_or_else(|e| panic!("[{name}] bystander warm-up failed: {e}"));
        assert_eq!(svc.stats().tunes, 2, "[{name}]");

        // Force the next get to go to disk, then corrupt that read.
        svc.library().clear_cache();
        let chaos = svc
            .submit(serve_request(&victim, 63).with_faults(vec![Fault::CorruptPlan]))
            .expect("queue has room");
        let healthy = svc.submit(serve_request(&bystander, 64)).expect("room");

        let report = chaos
            .wait()
            .unwrap_or_else(|e| panic!("[{name}] corrupt plan must retune, not fail: {e}"));
        assert_eq!(
            report.plan,
            PlanSource::TunedNow,
            "[{name}] the quarantined fingerprint re-tunes on the spot"
        );
        assert!(report.report.rel_residual <= TOL, "[{name}]");
        healthy
            .wait()
            .unwrap_or_else(|e| panic!("[{name}] bystander fingerprint must keep serving: {e}"));

        let lib = svc.library().stats();
        assert_eq!(lib.quarantined, 1, "[{name}] one file quarantined");
        let mut quarantine_path = svc
            .library()
            .path_for(victim.fingerprint())
            .into_os_string();
        quarantine_path.push(".quarantined");
        assert!(
            std::path::PathBuf::from(quarantine_path).exists(),
            "[{name}] quarantined artifact preserved for inspection"
        );
        assert_eq!(svc.stats().tunes, 3, "[{name}] exactly one re-tune");
        assert_eq!(svc.stats().panics, 0, "[{name}]");
        // The freshly re-tuned plan serves the next request from cache.
        let after = svc
            .solve(serve_request(&victim, 65))
            .unwrap_or_else(|e| panic!("[{name}] post-chaos serve failed: {e}"));
        assert_eq!(after.plan, PlanSource::CacheHit, "[{name}]");
    }
}

/// Every rung of one request's ladder sabotaged mid-serve: that
/// request gets the typed ladder error with its iterate restored, the
/// worker survives, other fingerprints never notice, and the armed
/// faults do not leak into the worker's next request.
#[test]
fn serve_fail_direct_mid_serve_degrades_per_ladder_and_service_survives() {
    faults::clear();
    let n = (1usize << LEVEL) + 1;
    let victim = Problem::poisson();
    let bystander = Problem::anisotropic(0.25);
    for (name, exec) in backends() {
        let dir = tmp_dir(&format!("serve-direct-{}", name.replace('+', "-")));
        let svc = SolverService::start(
            ServiceConfig::new(&dir)
                .with_workers(2)
                .with_exec(exec.clone()),
        )
        .unwrap();
        svc.solve(serve_request(&victim, 71))
            .unwrap_or_else(|e| panic!("[{name}] warm-up failed: {e}"));

        let sabotage = vec![
            Fault::PoisonLevel { level: 1 },
            Fault::PoisonLevel { level: 1 },
            Fault::FailDirect { n },
        ];
        let doomed = serve_request(&victim, 72);
        let x0 = doomed.x0.clone();
        let chaos = svc
            .submit(doomed.with_faults(sabotage))
            .expect("queue has room");
        let healthy = svc.submit(serve_request(&bystander, 73)).expect("room");

        match chaos.wait() {
            Err(ServeError::Ladder { error, x }) => {
                assert_eq!(error.degradations.len(), 3, "[{name}] {error}");
                assert!(
                    matches!(
                        error.degradations[2].reason,
                        FailureKind::DirectFactorization(_)
                    ),
                    "[{name}] {:?}",
                    error.degradations[2].reason
                );
                assert_eq!(
                    x.as_slice(),
                    x0.as_slice(),
                    "[{name}] iterate restored, never poisoned"
                );
            }
            other => panic!("[{name}] expected typed ladder exhaustion, got {other:?}"),
        }
        healthy
            .wait()
            .unwrap_or_else(|e| panic!("[{name}] bystander must keep serving: {e}"));

        // The sabotaged worker is healthy again: no leaked faults, no
        // panic, and the victim fingerprint still serves.
        let after = svc
            .solve(serve_request(&victim, 74))
            .unwrap_or_else(|e| panic!("[{name}] post-chaos serve failed: {e}"));
        assert!(after.report.rel_residual <= TOL, "[{name}]");
        assert_eq!(svc.stats().panics, 0, "[{name}]");
        assert_eq!(svc.stats().ladder_failures, 1, "[{name}]");
        assert!(
            !faults::armed(),
            "[{name}] faults never leak to the client thread"
        );
    }
}

/// A `QuickTune` leader's faults are for its own solve. Its tune runs
/// its training instances as jobs on both workers while a second
/// fingerprint's request is queued behind it: neither the tune, on
/// either worker, nor the other request fires them, and the leader's
/// solve fires all three.
#[test]
fn serve_quick_tune_leader_keeps_its_faults_for_its_own_solve() {
    faults::clear();
    let n = (1usize << LEVEL) + 1;
    let leader = Problem::poisson();
    let queued = Problem::anisotropic(0.25);
    for (name, exec) in backends() {
        let dir = tmp_dir(&format!("serve-tune-faults-{}", name.replace('+', "-")));
        let svc = SolverService::start(
            ServiceConfig::new(&dir)
                .with_workers(2)
                .with_exec(exec.clone())
                .with_tuning(TunePolicy::QuickTune),
        )
        .unwrap();
        // Every plan rung runs kernels at the request's level, whatever
        // the tuned plan's shape, and so does every tune that reaches it.
        let sabotage = vec![
            Fault::PoisonLevel { level: LEVEL },
            Fault::PoisonLevel { level: LEVEL },
            Fault::FailDirect { n },
        ];
        let doomed = serve_request(&leader, 91);
        let x0 = doomed.x0.clone();
        let chaos = svc
            .submit(doomed.with_faults(sabotage))
            .expect("queue has room");
        let bystander = svc.submit(serve_request(&queued, 92)).expect("room");

        match chaos.wait() {
            Err(ServeError::Ladder { error, x }) => {
                assert_eq!(
                    error.degradations.len(),
                    3,
                    "[{name}] a fault fired outside the leader's solve: {error}"
                );
                assert!(
                    matches!(
                        error.degradations[2].reason,
                        FailureKind::DirectFactorization(_)
                    ),
                    "[{name}] {:?}",
                    error.degradations[2].reason
                );
                assert_eq!(x.as_slice(), x0.as_slice(), "[{name}] iterate restored");
            }
            other => panic!("[{name}] the leader's faults must exhaust its ladder, got {other:?}"),
        }
        let served = bystander
            .wait()
            .unwrap_or_else(|e| panic!("[{name}] the queued request must serve: {e}"));
        assert_eq!(served.plan, PlanSource::TunedNow, "[{name}]");
        assert!(
            !served.report.degraded(),
            "[{name}] the leader's faults fired in another request"
        );
        let stats = svc.stats();
        assert_eq!(
            (stats.tunes, stats.ladder_failures, stats.panics),
            (2, 1, 0),
            "[{name}]"
        );
    }
}

/// A fault that never fires (its rung never runs) must not leak into
/// the worker's next request: the service clears per-request faults on
/// completion.
#[test]
fn serve_unfired_faults_are_cleared_between_requests() {
    faults::clear();
    let n = (1usize << LEVEL) + 1;
    let problem = Problem::poisson();
    let dir = tmp_dir("serve-leak");
    // One worker: consecutive requests share a thread by construction.
    let svc = SolverService::start(ServiceConfig::new(&dir).with_workers(1)).unwrap();
    // FailDirect never fires here: the tuned rung converges first.
    let armed = svc
        .solve(serve_request(&problem, 81).with_faults(vec![Fault::FailDirect { n }]))
        .expect("tuned rung serves; the direct fault stays dormant");
    assert!(armed.report.rel_residual <= TOL);
    // If the dormant fault leaked, this request's ladder would lose
    // its direct rung. Sabotage the plan rungs to prove it is gone.
    let probe = svc
        .solve(serve_request(&problem, 82).with_faults(vec![
            Fault::PoisonLevel { level: 1 },
            Fault::PoisonLevel { level: 1 },
        ]))
        .expect("direct rung must serve — the previous request's fault was cleared");
    assert_eq!(probe.report.rung, LadderRung::Direct);
}
