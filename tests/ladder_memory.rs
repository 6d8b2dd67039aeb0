//! The ladder memory through a running `SolverService`: a resident
//! plan that keeps failing its tuned rung on the arithmetic stops being
//! re-run for every request, the reports and the health series say so,
//! and nothing that replaces the plan, traces a request or arms a
//! fault inherits or feeds what was remembered.

use petamg::core::faults::Fault;
use petamg::core::FailureKind;
use petamg::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const TOL: f64 = 1e-8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("petamg-memory-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(problem: &Problem, level: usize, seed: u64) -> SolveRequest {
    let inst = ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, seed);
    SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), TOL)
}

/// The rungs a solve degraded past, in order.
fn rungs(report: &GuardedReport) -> Vec<LadderRung> {
    report.degradations.iter().map(|d| d.rung).collect()
}

fn open_memories(svc: &SolverService) -> u64 {
    let snap = svc.telemetry_snapshot();
    let gauge = snap
        .gauges
        .iter()
        .find(|g| g.name == "petamg_ladder_memory_open")
        .expect("the gauge is registered at start");
    gauge.value
}

fn reprobes(svc: &SolverService, outcome: &str) -> u64 {
    svc.telemetry_snapshot()
        .counter("petamg_ladder_reprobe_total", &[("outcome", outcome)])
}

/// The `degrade_ladder` shape: the default policy files the simple V
/// family for `jump_inclusion(129)`, which cannot reach 1e-8 inside its
/// budget, so the direct rung serves every request. After the first
/// three per client the failed attempts are a few re-probes, not a
/// third of every request; a plan inserted for the fingerprint starts
/// from nothing remembered.
#[test]
fn a_degrading_fingerprint_is_served_from_the_rung_that_serves_it() {
    const WORKERS: usize = 2;
    const PER_CLIENT: usize = 100;
    const SYSTEMS: u64 = 8;
    petamg::obs::set_mode(TelemetryMode::Metrics);
    let level = 7;
    let problem = Problem::jump_inclusion(129);
    let svc = Arc::new(
        SolverService::start(ServiceConfig::new(tmp_dir("degrading")).with_workers(WORKERS))
            .unwrap(),
    );
    assert_eq!(open_memories(&svc), 0);

    let clients: Vec<_> = (0..WORKERS)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let problem = problem.clone();
            std::thread::spawn(move || {
                (0..PER_CLIENT)
                    .map(|i| {
                        let seed = 300 + (c * PER_CLIENT + i) as u64 % SYSTEMS;
                        svc.solve(request(&problem, level, seed))
                            .expect("the direct rung serves")
                            .report
                    })
                    .collect::<Vec<GuardedReport>>()
            })
        })
        .collect();
    let per_client: Vec<Vec<GuardedReport>> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();

    let (mut wasted, mut total, mut full_walks) = (0.0, 0.0, 0);
    for reports in &per_client {
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.rung, LadderRung::Direct);
            assert!(report.degraded());
            assert!(report.rel_residual <= TOL);
            assert_eq!(report.degradations.len(), 2);
            let remembered = matches!(report.degradations[0].reason, FailureKind::KnownToFail(_));
            full_walks += usize::from(!remembered);
            // A client's first three requests may be the ones the
            // memory learns from.
            if i >= 3 {
                wasted += report.degradations.iter().map(|d| d.seconds).sum::<f64>();
                total += report.seconds;
            }
        }
    }
    assert!(
        wasted < 0.05 * total,
        "failed attempts took {wasted:.3} s of {total:.3} s"
    );
    let covered = WORKERS * PER_CLIENT;
    let still_failing = reprobes(&svc, "still-failing") as usize;
    assert!(
        still_failing.abs_diff(covered / 64) <= WORKERS,
        "{still_failing} re-probes over {covered} requests"
    );
    assert_eq!(reprobes(&svc, "recovered"), 0);
    assert!(
        (3..=3 + WORKERS).contains(&(full_walks - still_failing)),
        "{full_walks} full walks, {still_failing} of them re-probes"
    );
    assert_eq!(open_memories(&svc), 1);
    // failed + skipped == Σ degradations, memory-served requests included.
    let snap = svc.telemetry_snapshot();
    let counted: u64 = ["tuned", "heuristic", "direct"]
        .iter()
        .map(|&rung| {
            snap.counter("petamg_rung_failed_total", &[("rung", rung)])
                + snap.counter("petamg_rung_skipped_total", &[("rung", rung)])
        })
        .sum();
    assert_eq!(counted, 2 * covered as u64);
    assert_eq!(
        snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "tuned")]),
        full_walks as u64,
        "a remembered rung records no attempt"
    );

    // Rule 1: another plan object for the fingerprint, nothing remembered.
    let mut tuned = VTuner::new(
        TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem.clone()),
    )
    .tune();
    tuned.problem = problem.fingerprint().clone();
    svc.library().insert(&problem, tuned).unwrap();
    let served = svc
        .solve(request(&problem, level, 300))
        .expect("the tuned plan serves");
    assert_eq!(served.plan, PlanSource::CacheHit);
    assert_eq!(served.report.rung, LadderRung::TunedPlan);
    assert!(served.report.degradations.is_empty());
    assert_eq!(open_memories(&svc), 0);
}

/// Rule 3 through the service: traced requests and
/// requests that carry faults walk the whole ladder and teach the
/// memory nothing, on a healthy fingerprint and on a degrading one.
#[test]
fn traced_and_fault_carrying_requests_never_open_a_memory() {
    let level = 5;
    let poisson = Problem::poisson();
    let jump = Problem::jump_inclusion(33);
    let whole_walk = |report: &GuardedReport| {
        assert_eq!(report.rung, LadderRung::Direct);
        assert!(
            matches!(report.degradations[0].reason, FailureKind::Guard(_)),
            "{}",
            report.degradations[0].reason
        );
    };
    let dir = tmp_dir("bypass");
    let svc = SolverService::start(ServiceConfig::new(dir).with_workers(2)).unwrap();
    let solve = |request: SolveRequest| {
        svc.solve(request)
            .unwrap_or_else(|e| panic!("must serve: {e}"))
            .report
    };

    for seed in 0..8 {
        let poison = vec![Fault::PoisonLevel { level }];
        let poisoned = solve(request(&poisson, level, seed).with_faults(poison));
        assert_eq!(poisoned.rung, LadderRung::HeuristicPlan);
        let traced = solve(request(&poisson, level, seed).with_trace());
        assert_eq!(traced.rung, LadderRung::TunedPlan);
    }
    assert_eq!(open_memories(&svc), 0);

    for seed in 0..4 {
        whole_walk(&solve(request(&jump, level, seed).with_trace()));
        // A fault that never fires still marks the request a drill.
        let dormant = vec![Fault::FailDirect { n: 3 }];
        whole_walk(&solve(request(&jump, level, seed).with_faults(dormant)));
    }
    assert_eq!(open_memories(&svc), 0);

    for seed in 4..7 {
        whole_walk(&solve(request(&jump, level, seed)));
    }
    assert_eq!(open_memories(&svc), 1);
    let remembered = solve(request(&jump, level, 7));
    assert!(matches!(
        remembered.degradations[0].reason,
        FailureKind::KnownToFail(_)
    ));
    let traced = solve(request(&jump, level, 8).with_trace());
    whole_walk(&traced);
    assert_eq!(
        rungs(&traced),
        vec![LadderRung::TunedPlan, LadderRung::HeuristicPlan]
    );
    assert_eq!(open_memories(&svc), 1);
}

/// A ladder memory lives in its plan's resident entry: with room for
/// one plan, serving a second fingerprint evicts the degrading plan and
/// its open memory with it, and the plan reloaded from disk walks the
/// ladder from its tuned rung again.
#[test]
fn a_ladder_memory_leaves_memory_with_its_plan() {
    let level = 7;
    let jump = Problem::jump_inclusion(129);
    let svc = SolverService::start(
        ServiceConfig::new(tmp_dir("evicted"))
            .with_workers(2)
            .with_library_capacity(1),
    )
    .unwrap();
    let solve = |problem: &Problem, seed: u64| {
        svc.solve(request(problem, level, seed))
            .expect("every request serves")
    };
    let first_failure = |served: &ServeReport| {
        assert_eq!(served.report.rung, LadderRung::Direct);
        served.report.degradations[0].reason.clone()
    };

    for seed in 0..3 {
        let walked = solve(&jump, seed);
        assert!(matches!(first_failure(&walked), FailureKind::Guard(_)));
    }
    assert_eq!(open_memories(&svc), 1);
    let remembered = solve(&jump, 3);
    assert!(matches!(
        first_failure(&remembered),
        FailureKind::KnownToFail(_)
    ));

    let other = solve(&Problem::poisson(), 4);
    assert_eq!(other.plan, PlanSource::TunedNow);
    assert_eq!(svc.library().cached(), 1);
    assert_eq!(open_memories(&svc), 0, "the memory left with its plan");

    let reloaded = solve(&jump, 5);
    assert_eq!(reloaded.plan, PlanSource::DiskLoad);
    assert!(matches!(first_failure(&reloaded), FailureKind::Guard(_)));
    assert_eq!(open_memories(&svc), 0);
}
