//! Concurrency stress suite for the plan-serving engine
//! (`petamg::serve`): many client threads hammer one `SolverService`
//! across several problem profiles and every response must be
//! converged-or-typed-error, every unique fingerprint must tune
//! exactly once (single-flight coalescing), and no request may ever
//! observe another request's iterate.

use petamg::core::plan::{simple_v_family, PAPER_ACCURACIES};
use petamg::prelude::*;
use petamg::serve::{
    fingerprint_key, PlanSource, ServeError, ServiceConfig, SolveRequest, SolverService, TunePolicy,
};
use petamg_problems::residual_op;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Grid level the stress instances live at (`n = 2^4 + 1 = 17`).
const LEVEL: usize = 4;
const N: usize = 17;
const TOL: f64 = 1e-8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("petamg-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four problem profiles with four distinct fingerprints.
fn profiles() -> Vec<Problem> {
    vec![
        Problem::poisson(),
        Problem::anisotropic(0.1),
        Problem::smooth_sinusoidal(N),
        Problem::jump_inclusion(N),
    ]
}

fn request(problem: &Problem, seed: u64) -> SolveRequest {
    request_at(problem, LEVEL, seed)
}

fn request_at(problem: &Problem, level: usize, seed: u64) -> SolveRequest {
    let inst = ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, seed);
    SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), TOL)
}

/// Independent residual check: the returned iterate must solve *this
/// request's* right-hand side. A response carrying another request's
/// iterate (cross-request contamination through a shared arena or
/// cache) cannot pass this.
fn rel_residual(problem: &Problem, x: &Grid2d, b: &Grid2d) -> f64 {
    let op = problem.op_for(x.n());
    let mode = SimdMode::host();
    let mut r = Grid2d::zeros(x.n());
    residual_op(&op, x, b, &mut r, &mode);
    petamg::grid::l2_norm_interior(&r, &mode)
        / petamg::grid::l2_norm_interior(b, &mode).max(f64::MIN_POSITIVE)
}

/// A tuning policy that counts invocations per fingerprint and runs
/// `hold` before it returns, so a test can keep a tuning flight in the
/// air until the traffic it means to overlap has arrived.
fn counting_tuner(
    hold: impl Fn(&Problem) + Send + Sync + 'static,
) -> (TunePolicy, Arc<Mutex<HashMap<u64, usize>>>) {
    let counts: Arc<Mutex<HashMap<u64, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    let seen = Arc::clone(&counts);
    let policy = TunePolicy::Custom(Arc::new(move |problem: &Problem, level: usize| {
        *seen
            .lock()
            .unwrap()
            .entry(petamg::serve::fingerprint_key(problem.fingerprint()))
            .or_insert(0) += 1;
        hold(problem);
        simple_v_family(level.max(1), &PAPER_ACCURACIES)
    }));
    (policy, counts)
}

/// A `hold` under which no tune returns before `count` tunes have
/// started, so that many flights are in the air at once.
fn rendezvous(count: usize) -> impl Fn(&Problem) + Send + Sync + 'static {
    let started = Arc::new((Mutex::new(0usize), Condvar::new()));
    move |_: &Problem| {
        let (tunes, all_started) = &*started;
        let mut tunes = tunes.lock().unwrap();
        *tunes += 1;
        all_started.notify_all();
        let (tunes, waited) = all_started
            .wait_timeout_while(tunes, PATIENCE, |tunes| *tunes < count)
            .unwrap();
        assert!(
            !waited.timed_out(),
            "only {} of {count} tunes started: a worker was held",
            *tunes
        );
    }
}

/// The headline stress: 8 client threads × 128 requests over 4
/// profiles — 1024 concurrent requests, one service. Asserts:
/// exactly one tune per fingerprint, every response converged (with
/// an independently recomputed residual), and consistent bookkeeping.
#[test]
fn thousand_requests_four_profiles_one_tune_each() {
    // Each worker leads one profile's flight while the traffic queues.
    let (tuning, counts) = counting_tuner(rendezvous(4));
    let svc = Arc::new(
        SolverService::start(
            ServiceConfig::new(tmp_dir("headline"))
                .with_workers(4)
                .with_queue_capacity(2048)
                .with_tuning(tuning),
        )
        .unwrap(),
    );
    let profiles = profiles();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 128;
    let mut clients = Vec::new();
    for t in 0..THREADS {
        let svc = Arc::clone(&svc);
        let profiles = profiles.clone();
        clients.push(std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for j in 0..PER_THREAD {
                let problem = &profiles[(t + j) % profiles.len()];
                let seed = (t * PER_THREAD + j) as u64;
                let req = request(problem, seed);
                tickets.push((problem.clone(), req.b.clone(), svc.submit_blocking(req)));
            }
            for (problem, b, ticket) in tickets {
                let report = ticket.wait().expect("stress solves must converge");
                assert!(
                    report.report.rel_residual <= TOL,
                    "reported residual misses tol"
                );
                let recomputed = rel_residual(&problem, &report.x, &b);
                assert!(
                    recomputed <= TOL * 10.0,
                    "independent residual {recomputed:.3e} disagrees — cross-request \
                     contamination or a poisoned iterate"
                );
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = svc.stats();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.converged, total, "every response must be Converged");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.panics, 0);
    assert_eq!(
        stats.tunes,
        profiles.len() as u64,
        "exactly one tuning flight per unique fingerprint"
    );
    let counts = counts.lock().unwrap();
    assert_eq!(counts.len(), profiles.len());
    for (fp, count) in counts.iter() {
        assert_eq!(*count, 1, "fingerprint {fp:?} tuned {count} times");
    }
    assert_eq!(svc.in_flight(), 0);
}

/// A stress burst with the telemetry gate open: the service's metric
/// registry must reconcile *exactly* with the responses the clients
/// got back — request counters against counted responses, per-rung
/// serve counters against the reports' rungs, and one queue-wait /
/// plan-resolve / solve histogram sample per request. The gate is
/// opened explicitly (not via `PETAMG_TELEMETRY`) so this leg runs in
/// every CI matrix entry; the env-driven telemetry legs additionally
/// rerun the whole suite with the gate open from the environment.
#[test]
fn telemetry_snapshot_reconciles_with_stress_reports() {
    petamg::obs::set_mode(petamg::obs::TelemetryMode::Metrics);
    // The first four flights are in the air together.
    let (tuning, _) = counting_tuner(rendezvous(4));
    let svc = Arc::new(
        SolverService::start(
            ServiceConfig::new(tmp_dir("telemetry"))
                .with_workers(4)
                .with_queue_capacity(512)
                .with_tuning(tuning),
        )
        .unwrap(),
    );
    // The four stress profiles, and one the filed plan cannot serve:
    // the simple family misses 1e-8 on the level-5 jump inside its
    // budget, so after three such requests the ladder memory serves
    // the rest from the direct rung with both plan rungs skipped.
    let mut profiles: Vec<(Problem, usize)> = profiles().into_iter().map(|p| (p, LEVEL)).collect();
    profiles.push((Problem::jump_inclusion(33), 5));

    const THREADS: usize = 4;
    const PER_THREAD: usize = 32;
    let rungs = Arc::new(Mutex::new(HashMap::<&'static str, u64>::new()));
    let degradations = Arc::new(AtomicU64::new(0));
    let remembered = Arc::new(AtomicU64::new(0));
    let member_cycles = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for t in 0..THREADS {
        let svc = Arc::clone(&svc);
        let profiles = profiles.clone();
        let rungs = Arc::clone(&rungs);
        let degradations = Arc::clone(&degradations);
        let remembered = Arc::clone(&remembered);
        let member_cycles = Arc::clone(&member_cycles);
        clients.push(std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for j in 0..PER_THREAD {
                let (problem, level) = &profiles[(t + j) % profiles.len()];
                let seed = (t * PER_THREAD + j) as u64;
                tickets.push(svc.submit_blocking(request_at(problem, *level, seed)));
            }
            for ticket in tickets {
                let report = ticket.wait().expect("telemetry burst must converge");
                degradations.fetch_add(report.report.degradations.len() as u64, Ordering::Relaxed);
                let from_memory = report
                    .report
                    .degradations
                    .iter()
                    .any(|d| matches!(d.reason, petamg::core::FailureKind::KnownToFail(_)));
                remembered.fetch_add(u64::from(from_memory), Ordering::Relaxed);
                member_cycles.fetch_add(report.report.members.len() as u64, Ordering::Relaxed);
                *rungs
                    .lock()
                    .unwrap()
                    .entry(report.report.rung.label())
                    .or_insert(0) += 1;
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = svc.stats();
    let snap = svc.telemetry_snapshot();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(snap.counter("petamg_requests_submitted_total", &[]), total);
    assert_eq!(
        snap.counter("petamg_requests_completed_total", &[]),
        stats.completed
    );
    assert_eq!(
        snap.counter("petamg_requests_converged_total", &[]),
        stats.converged
    );
    assert_eq!(snap.counter("petamg_tuning_runs_total", &[]), stats.tunes);

    // Every response's serving rung shows up in the per-rung counters.
    let rungs = rungs.lock().unwrap();
    for rung in ["tuned", "heuristic", "direct"] {
        assert_eq!(
            snap.counter("petamg_rung_served_total", &[("rung", rung)]),
            rungs.get(rung).copied().unwrap_or(0),
            "rung counter `{rung}` disagrees with the client-side reports"
        );
    }
    // Every reported degradation is a rung that ran and failed or a
    // rung skipped (as a replay, or as known to fail from the ladder
    // memory) — never both, never neither.
    assert!(
        remembered.load(Ordering::Relaxed) > 0,
        "the burst must include requests served from the ladder memory"
    );
    let failed_or_skipped: u64 = ["tuned", "heuristic", "direct"]
        .iter()
        .map(|&rung| {
            snap.counter("petamg_rung_failed_total", &[("rung", rung)])
                + snap.counter("petamg_rung_skipped_total", &[("rung", rung)])
        })
        .sum();
    assert_eq!(
        failed_or_skipped,
        degradations.load(Ordering::Relaxed),
        "failed + skipped must equal the degradations the reports carry"
    );

    // Every cycle a serving plan rung ran is counted under the member
    // that ran it — exactly the `members` the reports carry.
    let counted_cycles = snap.counter("petamg_cycle_member_total", &[]);
    assert!(counted_cycles > 0);
    assert_eq!(
        counted_cycles,
        member_cycles.load(Ordering::Relaxed),
        "member counters must equal the cycles the reports list"
    );

    // Phase histograms: one queue wait and one solve per request, and
    // every request resolved its plan through exactly one source.
    assert_eq!(
        snap.histogram_count("petamg_queue_wait_seconds", &[]),
        total
    );
    assert_eq!(snap.histogram_count("petamg_solve_seconds", &[]), total);
    let resolved: u64 = [
        "cache-hit",
        "disk-load",
        "tuned-now",
        "coalesced",
        "untuned",
    ]
    .iter()
    .map(|&s| snap.histogram_count("petamg_plan_resolve_seconds", &[("source", s)]))
    .sum();
    assert_eq!(resolved, total, "plan resolutions must cover every request");
    assert_eq!(svc.in_flight(), 0);
}

/// Simultaneous requests for one brand-new fingerprint: one leader
/// tunes, everyone else coalesces onto the flight and still converges.
/// The flight stays in the air until a request of another fingerprint,
/// queued after the eight, starts its own tune: the pool takes jobs
/// oldest first, so by then every one of the eight has been picked up.
#[test]
fn concurrent_cold_fingerprint_coalesces_onto_one_flight() {
    let problem = Problem::anisotropic(0.05);
    let key = fingerprint_key(problem.fingerprint());
    let (other_started, other_has_started) = mpsc::channel();
    let other_has_started = Mutex::new(other_has_started);
    let (tuning, counts) = counting_tuner(move |tuned: &Problem| {
        if fingerprint_key(tuned.fingerprint()) == key {
            let _ = other_has_started.lock().unwrap().recv_timeout(PATIENCE);
        } else {
            other_started.send(()).unwrap();
        }
    });
    let svc = SolverService::start(
        ServiceConfig::new(tmp_dir("coalesce"))
            .with_workers(4)
            .with_queue_capacity(64)
            .with_tuning(tuning),
    )
    .unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            svc.submit(request(&problem, 100 + i))
                .expect("queue has room")
        })
        .collect();
    let other = svc
        .submit(request(&Problem::poisson(), 200))
        .expect("queue has room");
    for ticket in tickets {
        ticket.wait().expect("coalesced solves converge");
    }
    other.wait().expect("the other fingerprint converges");
    let stats = svc.stats();
    assert_eq!(stats.tunes, 2, "one flight per fingerprint");
    assert_eq!(
        counts.lock().unwrap().get(&key),
        Some(&1),
        "single flight for the cold fingerprint"
    );
    assert!(
        stats.coalesced >= 1,
        "with the flight in the air until all eight were picked up, some request must have waited on it"
    );
}

/// How long a test waits on an event another thread owes it before it
/// calls the event lost.
const PATIENCE: Duration = Duration::from_secs(10);

/// A follower parks on its plan's flight instead of holding a worker.
/// Two workers serve A₁, A₂, B₁, and A's tuner does not return until
/// B's tuner has started: B₁ can only run on the worker that picked up
/// A's follower, so it runs only if that follower parked. A follower
/// that blocks on the flight holds the worker, and A's tuner gives up.
#[test]
fn a_parked_follower_frees_its_worker() {
    let (a, b) = (Problem::poisson(), Problem::anisotropic(0.1));
    let a_key = fingerprint_key(a.fingerprint());
    let (b_started, b_has_started) = mpsc::channel();
    let b_has_started = Mutex::new(b_has_started);
    let saw_b = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&saw_b);
    let tuning = TunePolicy::Custom(Arc::new(move |problem: &Problem, level: usize| {
        if fingerprint_key(problem.fingerprint()) == a_key {
            let waited = b_has_started.lock().unwrap().recv_timeout(PATIENCE);
            *seen.lock().unwrap() = Some(waited.is_ok());
        } else {
            b_started.send(()).unwrap();
        }
        simple_v_family(level.max(1), &PAPER_ACCURACIES)
    }));
    let svc = SolverService::start(
        ServiceConfig::new(tmp_dir("parked"))
            .with_workers(2)
            .with_tuning(tuning),
    )
    .unwrap();
    let sources: Vec<PlanSource> = [(&a, 1), (&a, 2), (&b, 3)]
        .map(|(problem, seed)| svc.submit(request(problem, seed)).expect("room"))
        .into_iter()
        .map(|ticket| ticket.wait().expect("every request converges").plan)
        .collect();
    assert_eq!(
        *saw_b.lock().unwrap(),
        Some(true),
        "B's tuner never started while A's flight was in the air: \
         A's follower held its worker"
    );
    // Either A request may lead; the other parked.
    assert!(
        sources[..2].contains(&PlanSource::TunedNow)
            && sources[..2].contains(&PlanSource::Coalesced),
        "{sources:?}"
    );
    assert_eq!(sources[2], PlanSource::TunedNow);
    let stats = svc.stats();
    assert_eq!((stats.tunes, stats.coalesced), (2, 1));
    assert_eq!(svc.in_flight(), 0);
}

/// The level and size of the factor-handover tests: every stress
/// profile's quick plan at level 6 solves directly on its top member.
const DIRECT_LEVEL: usize = 6;
const DIRECT_N: usize = 65;

/// A quick-tuned service on `dir` with `workers` workers.
fn quick_tuned(dir: &std::path::Path, workers: usize) -> SolverService {
    SolverService::start(
        ServiceConfig::new(dir)
            .with_workers(workers)
            .with_tuning(TunePolicy::QuickTune),
    )
    .unwrap()
}

/// A cold `QuickTune` flight hands the tuner's direct factor to the
/// service before it lands: serving the plan, whose top member at level
/// 6 is `Direct`, factors nothing.
#[test]
fn a_tuned_plan_lands_with_the_tuners_direct_factor() {
    let problem = Problem::jump_inclusion(DIRECT_N);
    let svc = quick_tuned(&tmp_dir("handover"), 2);
    let served = svc
        .solve(request_at(&problem, DIRECT_LEVEL, 1))
        .expect("the tuned plan serves");
    assert_eq!(served.plan, PlanSource::TunedNow);
    assert!(!served.report.degraded());
    let plan = svc.library().lookup(&problem).expect("filed");
    let top = plan.num_accuracies() - 1;
    assert_eq!(plan.plan(DIRECT_LEVEL, top), Choice::Direct);
    let cache = svc.direct_cache();
    assert_eq!(
        (cache.factorizations(), cache.len()),
        (0, 1),
        "the n = {DIRECT_N} factor is the tuner's, adopted"
    );
}

/// A cold `QuickTune` flight tunes on both workers — its follower
/// parked, the tuner's instance jobs on the worker the follower left —
/// and files the plan an off-pool tune of the same problem makes, byte
/// for byte.
#[test]
fn a_pooled_quick_tune_files_the_off_pool_plan() {
    let problem = Problem::jump_inclusion(DIRECT_N);
    let svc = quick_tuned(&tmp_dir("pooled-tune"), 2);
    let tickets: Vec<_> = (0..2)
        .map(|k| {
            svc.submit(request_at(&problem, DIRECT_LEVEL, 20 + k))
                .expect("room")
        })
        .collect();
    let mut sources: Vec<PlanSource> = tickets
        .into_iter()
        .map(|ticket| ticket.wait().expect("the tuned plan serves").plan)
        .collect();
    sources.sort_by_key(|source| *source != PlanSource::TunedNow);
    assert_eq!(sources, [PlanSource::TunedNow, PlanSource::Coalesced]);

    let off_pool = VTuner::new(
        TunerOptions::quick(DIRECT_LEVEL, Distribution::UnbiasedUniform)
            .with_problem(problem.clone()),
    )
    .tune();
    let reference = tmp_dir("pooled-tune-reference");
    std::fs::create_dir_all(&reference).unwrap();
    let reference = reference.join("off-pool.json");
    petamg::persist::save_plan(&off_pool, &reference).unwrap();
    let filed = svc.library().path_for(problem.fingerprint());
    assert_eq!(
        std::fs::read(filed).unwrap(),
        std::fs::read(reference).unwrap()
    );
}

/// After a restart, duplicates of a fingerprint whose plan is on disk
/// share one load flight: its leader loads the plan and factors the top
/// member once, the other two park on the flight and report
/// `Coalesced`.
#[test]
fn restarted_duplicates_share_one_load_flight_and_one_factor() {
    let problem = Problem::smooth_sinusoidal(DIRECT_N);
    let dir = tmp_dir("restart-flight");
    quick_tuned(&dir, 2)
        .solve(request_at(&problem, DIRECT_LEVEL, 1))
        .expect("the cold service tunes and files the plan");

    let svc = quick_tuned(&dir, 2);
    let tickets: Vec<_> = (0..3)
        .map(|k| {
            svc.submit(request_at(&problem, DIRECT_LEVEL, 10 + k))
                .expect("room")
        })
        .collect();
    let mut sources: Vec<PlanSource> = tickets
        .into_iter()
        .map(|ticket| ticket.wait().expect("the loaded plan serves").plan)
        .collect();
    sources.sort_by_key(|source| *source != PlanSource::DiskLoad);
    assert_eq!(
        sources,
        [
            PlanSource::DiskLoad,
            PlanSource::Coalesced,
            PlanSource::Coalesced
        ]
    );
    assert_eq!(svc.direct_cache().factorizations(), 1);
    assert_eq!(svc.library().stats().disk_loads, 1);
    let stats = svc.stats();
    assert_eq!((stats.tunes, stats.coalesced), (0, 2));
}

/// The benchmark's `cold_tune` round, counted: four classes × three
/// duplicates at n = 65 in flight together on two workers, then the
/// same twelve on a restarted service over the same directory. The
/// cold pass tunes each class once and factors nothing (the tuners'
/// factors are adopted); the restart loads each plan once and factors
/// each top member once. Which duplicates find the plan resident and
/// which park on its flight is a matter of timing, so only their sum
/// is pinned.
#[test]
fn a_cold_round_and_its_restart_keep_their_counts() {
    let classes = [
        Problem::poisson(),
        Problem::anisotropic_canonical(),
        Problem::smooth_sinusoidal(DIRECT_N),
        Problem::jump_inclusion(DIRECT_N),
    ];
    let dir = tmp_dir("cold-round");
    let pass = |first: PlanSource| {
        let svc = quick_tuned(&dir, 2);
        let tickets: Vec<_> = classes
            .iter()
            .flat_map(|problem| (0..3).map(move |k| (problem, 40 + k)))
            .map(|(problem, seed)| {
                svc.submit(request_at(problem, DIRECT_LEVEL, seed))
                    .expect("room")
            })
            .collect();
        let sources: Vec<PlanSource> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().expect("every request converges").plan)
            .collect();
        let count = |wanted: &[PlanSource]| sources.iter().filter(|s| wanted.contains(s)).count();
        assert_eq!(count(&[first]), 4, "{sources:?}");
        assert_eq!(
            count(&[PlanSource::CacheHit, PlanSource::Coalesced]),
            8,
            "{sources:?}"
        );
        let stats = svc.stats();
        assert_eq!(stats.converged, 12);
        (
            stats.tunes,
            svc.library().stats().disk_loads,
            svc.direct_cache().factorizations(),
        )
    };
    assert_eq!(pass(PlanSource::TunedNow), (4, 0, 0), "cold pass");
    assert_eq!(pass(PlanSource::DiskLoad), (0, 4, 4), "restart");
}

/// Admission control: a queue of capacity 2 over a slow tuner rejects
/// the overflow with the typed `Rejected` instead of queueing
/// unboundedly, and accepted work still completes.
#[test]
fn full_queue_rejects_with_typed_error() {
    // The first tune holds until the overflow has been turned away.
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let (tuning, _) = counting_tuner(move |_: &Problem| {
        let _ = released.lock().unwrap().recv_timeout(PATIENCE);
    });
    let svc = SolverService::start(
        ServiceConfig::new(tmp_dir("admission"))
            .with_workers(1)
            .with_queue_capacity(2)
            .with_tuning(tuning),
    )
    .unwrap();
    let problem = Problem::poisson();
    let accepted: Vec<_> = (0..2)
        .map(|i| svc.submit(request(&problem, i)).expect("under capacity"))
        .collect();
    let turned_away = svc.submit(request(&problem, 99));
    match turned_away {
        Err(rejected) => assert_eq!(rejected.capacity, 2),
        Ok(_) => panic!("third submit must be rejected at capacity 2"),
    }
    assert_eq!(svc.stats().rejected, 1);
    drop(release);
    for t in accepted {
        t.wait().expect("accepted requests still complete");
    }
    // Once drained there is room again.
    svc.drain();
    assert!(svc.submit(request(&problem, 7)).is_ok());
}

/// Warm-worker allocation accounting: after the service has seen every
/// profile once, a steady-state burst leases every per-request grid
/// from the per-worker arenas — the arenas' allocation counters must
/// not move. That includes `submit_many` calls whose requests ask for
/// tolerances orders apart, so neighbours run different family members.
#[test]
fn warm_workers_allocate_nothing_at_steady_state() {
    let svc = Arc::new(
        SolverService::start(
            ServiceConfig::new(tmp_dir("warm"))
                .with_workers(2)
                .with_queue_capacity(256),
        )
        .unwrap(),
    );
    let profiles = profiles();
    // Sixteen same-fingerprint requests per call, the same systems
    // every time so every call makes the same lease demand.
    let mixed_tols = || -> Vec<SolveRequest> {
        let tols = [1e-3, 1e-10, 1e-6, 1e-8, 1e-5, 1e-9, 1e-4, 1e-7];
        (0..16)
            .map(|k| {
                let mut req = request(&profiles[0], 7000 + k as u64);
                req.tol = tols[k % tols.len()];
                req
            })
            .collect()
    };
    let serve_mixed_tols = || {
        let mut disagreed = false;
        let responses: Vec<_> = svc
            .submit_many(mixed_tols())
            .into_iter()
            .map(|t| t.wait().expect("mixed-tolerance call converges"))
            .collect();
        for pair in responses.windows(2) {
            let (a, b) = (&pair[0].report.members, &pair[1].report.members);
            disagreed |= a.iter().zip(b).any(|(ma, mb)| ma != mb);
        }
        assert!(disagreed, "neighbours must pick different members");
    };
    // Warm-up: several rounds so every worker has served every profile
    // and every arena holds grids for each size class it will see.
    for round in 0..6 {
        let tickets: Vec<_> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| svc.submit_blocking(request(p, 1000 + (round * 10 + i) as u64)))
            .collect();
        for t in tickets {
            t.wait().expect("warm-up converges");
        }
        serve_mixed_tols();
    }
    svc.drain();
    let warm: u64 = svc.arena_stats().iter().map(|s| s.allocations).sum();

    // Steady state: 200 more requests across the same profiles.
    let mut tickets = Vec::new();
    for j in 0..200 {
        let p = &profiles[j % profiles.len()];
        tickets.push(svc.submit_blocking(request(p, 5000 + j as u64)));
    }
    for t in tickets {
        t.wait().expect("steady-state converges");
    }
    for _ in 0..10 {
        serve_mixed_tols();
    }
    svc.drain();
    let steady: u64 = svc.arena_stats().iter().map(|s| s.allocations).sum();
    assert_eq!(
        steady, warm,
        "steady-state requests must lease every grid from the warm arenas"
    );
    let reuses: u64 = svc.arena_stats().iter().map(|s| s.reuses).sum();
    assert!(reuses > 0, "the arenas must actually be serving leases");
}

/// Responses carry typed errors, not panics, when a request is
/// malformed — and the service keeps serving afterwards.
#[test]
fn malformed_requests_get_typed_errors_and_service_survives() {
    let svc = SolverService::start(ServiceConfig::new(tmp_dir("typed"))).unwrap();
    let bad = SolveRequest::new(
        Problem::poisson(),
        Grid2d::zeros(12),
        Grid2d::zeros(12),
        TOL,
    );
    assert!(matches!(svc.solve(bad), Err(ServeError::BadRequest(_))));
    let mismatched = SolveRequest::new(
        Problem::poisson(),
        Grid2d::zeros(17),
        Grid2d::zeros(33),
        TOL,
    );
    assert!(matches!(
        svc.solve(mismatched),
        Err(ServeError::BadRequest(_))
    ));
    // The worker that produced the typed errors is still healthy.
    svc.solve(request(&Problem::poisson(), 1))
        .expect("service keeps serving after bad requests");
}

/// The library survives concurrent eviction pressure: a cache bound of
/// 2 under 4 fingerprints of traffic keeps every response correct
/// (disk backs evictions) while the bound holds.
#[test]
fn tiny_plan_cache_under_concurrent_traffic_stays_correct() {
    let svc = Arc::new(
        SolverService::start(
            ServiceConfig::new(tmp_dir("tinycache"))
                .with_workers(4)
                .with_queue_capacity(256)
                .with_library_capacity(2),
        )
        .unwrap(),
    );
    let profiles = profiles();
    let mut clients = Vec::new();
    for t in 0..4 {
        let svc = Arc::clone(&svc);
        let profiles = profiles.clone();
        clients.push(std::thread::spawn(move || {
            for j in 0..40 {
                let p = &profiles[(t + j) % profiles.len()];
                let report = svc
                    .solve(request(p, (2000 + t * 100 + j) as u64))
                    .expect("evictions must not cost correctness");
                assert!(report.report.rel_residual <= TOL);
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    assert!(svc.library().cached() <= 2, "cache bound violated");
    assert!(
        svc.library().stats().evictions > 0,
        "4 fingerprints over a 2-deep cache must evict"
    );
    assert_eq!(
        svc.stats().tunes,
        4,
        "evictions reload from disk, not re-tune"
    );
}

/// `solve_many` and `solve` traffic mixed under concurrency: one client submits a `solve_many` mix (two same-fingerprint
/// runs, a different size, a traced request) while other clients
/// hammer plain `solve` on the same service. Every response must pass
/// the independent residual check and equal `solve` of the same
/// request bit for bit — any worker, any arena, same bits.
#[test]
fn solve_many_and_solve_mixed_traffic_stress() {
    let svc = Arc::new(
        SolverService::start(
            ServiceConfig::new(tmp_dir("manymix"))
                .with_workers(3)
                .with_queue_capacity(64),
        )
        .unwrap(),
    );
    let profiles = profiles();

    // `solve_many` client: 4 Poisson@17 + 3 aniso@17 + 1 Poisson@33 +
    // 1 traced Poisson@17 in one submission.
    let many_svc = Arc::clone(&svc);
    let many = std::thread::spawn(move || {
        let mut requests = Vec::new();
        for k in 0..4 {
            requests.push(request(&Problem::poisson(), 500 + k));
        }
        for k in 0..3 {
            requests.push(request(&Problem::anisotropic(0.1), 510 + k));
        }
        let big = ProblemInstance::random_for(
            &Problem::poisson(),
            LEVEL + 1,
            Distribution::UnbiasedUniform,
            520,
        );
        requests.push(SolveRequest::new(
            Problem::poisson(),
            big.working_grid(),
            big.b.clone(),
            TOL,
        ));
        requests.push(request(&Problem::poisson(), 521).with_trace());
        let responses = many_svc.solve_many(requests.clone());
        assert_eq!(responses.len(), 9);
        for (k, (request, response)) in requests.into_iter().zip(&responses).enumerate() {
            let report = response
                .as_ref()
                .unwrap_or_else(|e| panic!("slot {k} failed: {e:?}"));
            assert!(report.report.rel_residual <= TOL);
            let recomputed = rel_residual(&request.problem, &report.x, &request.b);
            assert!(
                recomputed <= TOL * 10.0,
                "slot {k}: independent residual {recomputed:.3e} \
                 disagrees — the response carries another system's iterate"
            );
            let alone = many_svc.solve(request).expect("solve serves");
            assert_eq!(
                report.x.as_slice(),
                alone.x.as_slice(),
                "slot {k} differs from `solve` of the same request"
            );
        }
        assert!(
            !responses[8].as_ref().unwrap().report.events.is_empty(),
            "traced request lost its trace"
        );
    });

    // `solve` clients on the same service, overlapping the call.
    let mut clients = vec![many];
    for t in 0..2u64 {
        let svc = Arc::clone(&svc);
        let profiles = profiles.clone();
        clients.push(std::thread::spawn(move || {
            for j in 0..6u64 {
                let p = &profiles[((t + j) % profiles.len() as u64) as usize];
                let report = svc
                    .solve(request(p, 600 + t * 50 + j))
                    .unwrap_or_else(|e| panic!("solve failed: {e:?}"));
                assert!(report.report.rel_residual <= TOL);
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = svc.stats();
    assert_eq!(
        stats.completed, 30,
        "9 in one call, each again alone, 12 more"
    );
    assert_eq!(stats.panics, 0, "worker panicked");
    assert_eq!(stats.bad_requests, 0);
    assert_eq!(svc.in_flight(), 0, "in-flight leak");
}
