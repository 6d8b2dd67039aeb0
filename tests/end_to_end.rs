//! Cross-crate integration: tuning → persistence → execution → accuracy.

use petamg::persist;
use petamg::prelude::*;
use petamg::solvers::DirectSolverCache;
use std::sync::Arc;

#[test]
fn tune_save_load_solve_roundtrip() {
    let opts = TunerOptions::quick(5, Distribution::UnbiasedUniform);
    let tuned = VTuner::new(opts).tune();

    // Persist like a PetaBricks configuration file and reload, through
    // the facade's save/load path.
    let dir = std::env::temp_dir().join("petamg-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("family.json");
    persist::save_plan(&tuned, &path).unwrap();
    let loaded = persist::load_plan(&path).unwrap();
    assert_eq!(loaded.plans, tuned.plans);
    assert_eq!(loaded.problem, tuned.problem);

    // The reloaded plan solves to target.
    let mut inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 2_222);
    let report = loaded.solve(&mut inst, 1e7);
    assert!(
        report.achieved_accuracy >= 1e6,
        "achieved {:e}",
        report.achieved_accuracy
    );
}

// Backend-parity assertions (bitwise-identical grids and identical op
// counts across the scalar and vector row kernels) live in the
// table-driven suite in `tests/conformance.rs`.

#[test]
fn fmg_and_v_families_share_accuracies_and_solve() {
    let fmg = FmgTuner::new(TunerOptions::quick(5, Distribution::UnbiasedUniform)).tune();
    let mode = SimdMode::host();
    let cache = Arc::new(DirectSolverCache::new());
    let mut inst = ProblemInstance::random(5, Distribution::UnbiasedUniform, 888);
    let rv = fmg.v.solve_with(&mut inst.clone(), 1e5, mode, &cache);
    let rf = fmg.solve_with(&mut inst, 1e5, mode, &cache);
    assert!(rv.achieved_accuracy >= 5e4);
    assert!(rf.achieved_accuracy >= 5e4);
}

#[test]
fn facade_prelude_is_usable() {
    // Compile-level check that the prelude exposes the advertised API.
    let opts = TunerOptions::quick(3, Distribution::UnbiasedUniform);
    let tuned = VTuner::new(opts).tune();
    let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 1);
    let report = tuned.solve(&mut inst, 1e1);
    assert!(report.achieved_accuracy >= 1e1 * 0.5);
    let _ = omega_opt(17);
    let _: ThreadPool = ThreadPool::new(1);
}

#[test]
fn solve_respects_requested_accuracy_tiers() {
    let tuned = VTuner::new(TunerOptions::quick(6, Distribution::UnbiasedUniform)).tune();
    let mode = SimdMode::host();
    let cache = Arc::new(DirectSolverCache::new());
    // The monotone quantity across accuracy tiers is the *modeled cost*
    // on the machine the family was tuned for (a cheaper plan achieving
    // more would have won the lower tier too).
    let profile = MachineProfile::intel_harpertown();
    let mut prev_cost = 0.0f64;
    for target in [1e1, 1e5, 1e9] {
        let mut inst = ProblemInstance::random(6, Distribution::UnbiasedUniform, 4_242);
        let report = tuned.solve_with(&mut inst, target, mode, &cache);
        assert!(
            report.achieved_accuracy >= target * 0.5,
            "target {target:e} achieved {:e}",
            report.achieved_accuracy
        );
        let cost = profile.time(&report.ops);
        assert!(
            cost >= prev_cost * 0.999,
            "modeled cost should grow with accuracy: {cost} < {prev_cost}"
        );
        prev_cost = cost;
    }
}

/// An attached telemetry feed observes only while the process gate is
/// open: with the gate closed (the shipped default) a solve records
/// nothing and clocks no kernel, which is why attaching a feed costs a
/// serving path nothing measurable.
#[test]
fn attached_telemetry_feed_is_inert_while_the_gate_is_closed() {
    use petamg::obs::TelemetryMode;
    let registry = petamg::obs::Registry::new();
    let feed = Arc::new(petamg::core::SolveTelemetry::register(&registry));
    let problem = Problem::poisson();
    let inst = ProblemInstance::random_for(&problem, 4, Distribution::UnbiasedUniform, 11);
    let solver = GuardedSolver::new(problem).with_telemetry(feed);
    let recorded = || {
        let snap = registry.snapshot();
        let counted: u64 = snap.counters.iter().map(|c| c.value).sum();
        let sampled: u64 = snap.histograms.iter().map(|h| h.count).sum();
        (counted, sampled)
    };
    let solve = |mode| {
        petamg::obs::set_mode(mode);
        let mut x = inst.working_grid();
        solver.solve(&mut x, &inst.b, 1e-8).expect("serves");
    };

    solve(TelemetryMode::Off);
    assert_eq!(recorded(), (0, 0), "a closed gate records nothing");
    solve(TelemetryMode::Metrics);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("petamg_rung_served_total", &[]), 1);
    assert!(
        snap.histogram_count("petamg_kernel_seconds", &[]) > 0,
        "an open gate clocks the kernels"
    );
    let open = recorded();
    solve(TelemetryMode::Off);
    assert_eq!(recorded(), open, "closing the gate stops the feed again");
    // Leave the gate where the environment asked for it.
    petamg::obs::set_mode(petamg::obs::env::telemetry_mode());
}

/// The ladder's last rung at full size, through the service: the
/// ×1000 inclusion at n=129 defeats the heuristic V family, so two
/// workers handed two first requests at once both reach the direct
/// rung — and the service's cache factors the 16.5 MB band once, not
/// once per worker.
#[test]
fn simultaneous_first_direct_rung_requests_share_one_factorisation() {
    let dir = std::env::temp_dir().join(format!("petamg-it-direct-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = SolverService::start(
        ServiceConfig::new(&dir)
            .with_workers(2)
            .with_tuning(TunePolicy::Heuristic),
    )
    .unwrap();
    let problem = Problem::jump_inclusion(129);
    let tickets: Vec<_> = [21, 22]
        .into_iter()
        .map(|seed| {
            let inst =
                ProblemInstance::random_for(&problem, 7, Distribution::UnbiasedUniform, seed);
            let request = SolveRequest::new(problem.clone(), inst.working_grid(), inst.b, 1e-8);
            svc.submit(request).expect("queue has room")
        })
        .collect();
    for ticket in tickets {
        let served = ticket.wait().expect("the direct rung serves");
        assert_eq!(served.report.rung, LadderRung::Direct);
        assert!(served.report.rel_residual <= 1e-8);
    }
    // Two keys were ever asked for — the heuristic family's n=3 base
    // case and the n=129 direct rung — and each was factored once.
    let cache = svc.direct_cache();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.factorizations(), 2);
    assert_eq!(cache.get_op(129, &problem.op_for(129)).n(), 129);
    assert_eq!(
        cache.factorizations(),
        2,
        "the full-size factor was already there"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Served bits through the plan file. Each request is served by a cold
/// service that files its plan, then again by a restarted service over
/// the same directory that loads the file. Both answers must carry the
/// pinned FNV-1a hash of their bits and the pinned serving rung, so a
/// change to the plan file's format that changes what a loaded plan
/// runs fails here.
#[test]
fn served_bits_survive_a_plan_file_and_a_restart() {
    let cases = [
        (
            TunePolicy::QuickTune,
            Problem::poisson(),
            7,
            (0x390f_f8b0_7a7a_8a90, LadderRung::TunedPlan),
        ),
        (
            TunePolicy::QuickTune,
            Problem::smooth_sinusoidal(65),
            6,
            (0x4f19_d432_3ad5_3c61, LadderRung::TunedPlan),
        ),
        // The simple V family cannot reach 1e-8 on the jump: the ladder
        // walks down to its direct rung.
        (
            TunePolicy::Heuristic,
            Problem::jump_inclusion(65),
            6,
            (0x1fea_96cb_b7e4_ad62, LadderRung::Direct),
        ),
    ];
    for (case, (tuning, problem, level, pinned)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("petamg-it-pin-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serve = |source: PlanSource| {
            let svc = SolverService::start(
                ServiceConfig::new(&dir)
                    .with_workers(1)
                    .with_tuning(tuning.clone()),
            )
            .unwrap();
            let inst =
                ProblemInstance::random_for(&problem, level, Distribution::UnbiasedUniform, 77);
            let request = SolveRequest::new(problem.clone(), inst.working_grid(), inst.b, 1e-8);
            let served = svc.solve(request).expect("the request converges");
            assert_eq!(served.plan, source, "case {case}");
            (
                petamg::problems::field_hash(served.x.as_slice()),
                served.report.rung,
            )
        };
        let cold = serve(PlanSource::TunedNow);
        let restarted = serve(PlanSource::DiskLoad);
        assert_eq!(cold, restarted, "case {case}");
        assert_eq!(restarted, pinned, "case {case}: {:#018x}", restarted.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
