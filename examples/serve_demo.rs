//! The plan-serving engine, end to end — including the env-driven
//! chaos drill against a *running service*.
//!
//! A [`SolverService`] is the tune-once/serve-many front door: plans
//! live in a fingerprint-keyed [`PlanLibrary`] directory, requests
//! flow through a bounded queue onto warm pool workers, and concurrent
//! cold fingerprints coalesce onto a single tuning flight.
//!
//! Run healthy:
//!
//! ```bash
//! cargo run --release --example serve_demo
//! ```
//!
//! Run it twice and watch the second process serve every plan from
//! disk without tuning. Then break things mid-serve with
//! `PETAMG_FAULTS` (comma-separated spec; see `petamg::core::faults`)
//! — the faults ride one designated chaos request onto its worker
//! thread while the rest of the traffic keeps flowing:
//!
//! ```bash
//! # Corrupt the chaos request's plan read: quarantine + re-tune.
//! PETAMG_FAULTS=corrupt-plan cargo run --release --example serve_demo
//!
//! # Sabotage its whole ladder: typed error, iterate restored, service lives.
//! PETAMG_FAULTS=poison-level:1,poison-level:1,fail-direct:33 \
//!     cargo run --release --example serve_demo
//! ```
//!
//! Turn on telemetry to see the same run through the metric registry —
//! `PETAMG_TELEMETRY=1` prints the Prometheus exposition,
//! `PETAMG_TELEMETRY=2` additionally writes a Chrome trace
//! (`chrome://tracing` / `ui.perfetto.dev`) next to the plan dir:
//!
//! ```bash
//! PETAMG_TELEMETRY=2 cargo run --release --example serve_demo
//! ```

use petamg::core::faults;
use petamg::obs;
use petamg::prelude::*;
use petamg::serve::ServeError;

fn request(problem: &Problem, level: usize, seed: u64) -> SolveRequest {
    let inst = ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, seed);
    SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), 1e-8)
}

fn main() {
    obs::env::warn_unknown_once();
    let level = 5; // N = 33
    let n = (1usize << level) + 1;
    let plan_dir = obs::env::plan_dir().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("petamg-serve-demo-plans")
            .to_string_lossy()
            .into_owned()
    });
    println!("plan library: {plan_dir}");

    let svc = SolverService::start(
        ServiceConfig::new(&plan_dir)
            .with_workers(4)
            .with_queue_capacity(64),
    )
    .expect("plan directory must be creatable");

    // The service arms faults on the worker serving a request, so an
    // env-driven drill translates PETAMG_FAULTS into request faults.
    let drill = match obs::env::faults_spec() {
        Some(spec) if !spec.is_empty() => {
            let parsed = faults::parse_spec(&spec).expect("PETAMG_FAULTS spec");
            println!(
                "chaos drill: {} fault(s) ride the poisson request\n",
                parsed.len()
            );
            parsed
        }
        _ => Vec::new(),
    };

    let profiles = vec![
        ("poisson", Problem::poisson()),
        ("aniso eps=0.1", Problem::anisotropic(0.1)),
        ("smooth coeffs", Problem::smooth_sinusoidal(n)),
        ("jump coeffs", Problem::jump_inclusion(n)),
    ];

    // Submit round by round: cold fingerprints tune (coalescing across
    // duplicates), warm ones serve from memory or disk. The chaos
    // faults ride round 1's poisson request; forcing that round back
    // to disk makes a corrupt-plan drill bite deterministically.
    let mut tickets = Vec::new();
    for round in 0..3u64 {
        if round == 1 && !drill.is_empty() {
            svc.drain();
            svc.library().clear_cache();
        }
        for (tag, problem) in &profiles {
            let mut req = request(problem, level, 7 + round);
            if *tag == "poisson" && round == 1 {
                req = req.with_faults(drill.clone());
            }
            tickets.push((*tag, round, svc.submit_blocking(req)));
        }
    }

    for (tag, round, ticket) in tickets {
        match ticket.wait() {
            Ok(report) => println!(
                "[{tag:>13} #{round}] {:>9} via {:?}: residual {:.3e} on rung {}",
                "converged", report.plan, report.report.rel_residual, report.report.rung,
            ),
            Err(ServeError::Ladder { error, .. }) => {
                println!("[{tag:>13} #{round}] typed ladder failure (iterate restored): {error}")
            }
            Err(e) => println!("[{tag:>13} #{round}] typed error: {e}"),
        }
    }

    let stats = svc.stats();
    let lib = svc.library().stats();
    println!(
        "\nserved {} requests: {} converged, {} ladder failures, {} panics",
        stats.completed, stats.converged, stats.ladder_failures, stats.panics
    );
    println!(
        "plans: {} tuned here, {} parked on flights, {} memory hits, {} disk loads, {} quarantined",
        stats.tunes, stats.coalesced, lib.hits, lib.disk_loads, lib.quarantined
    );
    println!(
        "direct-factor cache: {} factors resident (bound {}), {} evictions",
        svc.direct_cache().len(),
        petamg::solvers::DEFAULT_FACTOR_CAPACITY,
        svc.direct_cache().evictions()
    );

    // With the telemetry gate open, surface the same run through the
    // sinks: Prometheus text for scrapers, and (in trace mode) a
    // Chrome trace-event file for chrome://tracing / ui.perfetto.dev.
    if obs::enabled() {
        println!("\n--- telemetry (Prometheus exposition) ---");
        print!("{}", svc.prometheus());
        if obs::trace_enabled() {
            let trace_path = std::path::Path::new(&plan_dir).join("serve-trace.json");
            match std::fs::write(&trace_path, svc.chrome_trace()) {
                Ok(()) => println!(
                    "\nwrote request-phase chrome trace to {}",
                    trace_path.display()
                ),
                Err(e) => println!("\ncould not write chrome trace: {e}"),
            }
        }
    }
}
