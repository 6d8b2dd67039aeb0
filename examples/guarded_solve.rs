//! Guarded solves and the degradation ladder, end to end — including
//! the env-driven chaos drill.
//!
//! A [`GuardedSolver`] runs a tuned plan under a [`SolveGuard`]
//! (finiteness, divergence, stagnation, a 50-cycle budget and its
//! early projection) and walks the degradation ladder on any failure:
//!
//! ```text
//!   tuned plan  →  heuristic MULTIGRID-V-SIMPLE  →  direct solve
//! ```
//!
//! Run healthy:
//!
//! ```bash
//! cargo run --release --example guarded_solve
//! ```
//!
//! The second solve it prints needs no fault to degrade: the ×1000
//! jump-coefficient profile under the `MULTIGRID-V-SIMPLE` schedule
//! contracts too slowly for the cycle budget. The guard projects that
//! from the first few cycles (`cycle budget unreachable …`), the
//! heuristic rung is not run because it *is* the schedule that just
//! failed (`skipped: same schedule …`), and the direct rung serves.
//!
//! Then break things with the `PETAMG_FAULTS` variable (comma-separated
//! spec; see `petamg::core::faults`) and watch the ladder absorb it:
//!
//! ```bash
//! # NaN injected into a top-level kernel: tuned rung fails, heuristic serves.
//! PETAMG_FAULTS=poison-level:7 cargo run --release --example guarded_solve
//!
//! # Poison both plan rungs: the direct rung serves.
//! PETAMG_FAULTS=poison-level:1,poison-level:1 cargo run --release --example guarded_solve
//!
//! # Sabotage every rung: a typed SolveError, x restored, no panic.
//! PETAMG_FAULTS=poison-level:1,poison-level:1,fail-direct:129 \
//!     cargo run --release --example guarded_solve
//! ```

use petamg::core::faults;
use petamg::core::plan::{simple_v_family, PAPER_ACCURACIES};
use petamg::prelude::*;

fn main() {
    // Honour PETAMG_FAULTS on this (the solve-driving) thread. This is
    // opt-in per binary: library users never pay for the env read.
    let armed = faults::arm_thread_from_env();
    if armed > 0 {
        println!("chaos drill: {armed} fault(s) armed from PETAMG_FAULTS\n");
    }

    let level = 7; // N = 129
    println!("== Poisson: the tuned rung serves unless a fault is armed ==");
    solve_and_print(Problem::poisson(), level, 1e-9);
    println!("\n== jump x1000: a plan that cannot meet its budget ==");
    solve_and_print(Problem::jump_inclusion((1 << level) + 1), level, 1e-8);
}

/// One guarded solve of a random `problem` instance with the (stamped)
/// simple V family as the tuned plan, reported rung by rung.
fn solve_and_print(problem: Problem, level: usize, tol: f64) {
    let inst = ProblemInstance::random_for(&problem, level, Distribution::UnbiasedUniform, 2024);
    let mut plan = simple_v_family(level, &PAPER_ACCURACIES);
    plan.problem = problem.fingerprint().clone();
    let solver = GuardedSolver::new(problem).with_plan(plan);

    let mut x = inst.working_grid();
    match solver.solve(&mut x, &inst.b, tol) {
        Ok(report) => {
            println!("served by rung:    {}", report.rung);
            println!("cycles:            {}", report.residual_history.len());
            println!("relative residual: {:.3e}", report.rel_residual);
            println!("wall time:         {:.1} ms", report.seconds * 1e3);
            if report.degraded() {
                println!("\ndegradations on the way down:");
                for d in &report.degradations {
                    println!("  {} failed: {}", d.rung, d.reason);
                }
            }
            // Cycle 1 runs the family's top member; each later cycle
            // the cheapest member whose tuned accuracy covers what is
            // left. (Every member of the simple family is the same V
            // cycle, so here the choice shows but costs the same.) The
            // direct rung runs no member.
            println!("\nresidual trajectory at the serving rung:");
            for (i, r) in report.residual_history.iter().enumerate() {
                match report.members.get(i) {
                    Some(member) => println!("  cycle {:>2}: {r:.3e}  (member {member})", i + 1),
                    None => println!("  cycle {:>2}: {r:.3e}", i + 1),
                }
            }
        }
        Err(err) => {
            println!("every rung failed — typed error, x restored to the initial guess:");
            for d in &err.degradations {
                println!("  {} failed: {}", d.rung, d.reason);
            }
        }
    }
}
