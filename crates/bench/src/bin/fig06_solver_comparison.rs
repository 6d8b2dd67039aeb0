//! Fig 6: wall-clock time to solve Poisson to accuracy 1e9 on unbiased
//! uniform data — Direct vs iterated SOR vs standard multigrid vs the
//! autotuned algorithm.
//!
//! The paper swept N up to 16384 on an 8-core Xeon; defaults here sweep
//! to N = 513 (PETAMG_MAX_LEVEL overrides) on the host machine. The
//! shape to reproduce: direct explodes first, SOR second; autotuned
//! tracks multigrid and wins at every size (dramatically at small N).

use petamg_bench::{banner, env_max_level, n_of, time_best};
use petamg_core::accuracy::ratio_of_errors;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_core::tuner::{TunerOptions, VTuner};
use petamg_grid::{l2_diff, Exec};
use petamg_problems::{OpDirect, StencilOp};
use petamg_solvers::{omega_opt, sor_sweep, DirectSolverCache, MgConfig, ReferenceSolver};
use std::sync::Arc;

const DIRECT_MAX_N: usize = 257;
const SOR_MAX_N: usize = 513;

fn main() {
    let max_level = env_max_level(9);
    let target = 1e9;
    banner(
        "Figure 6",
        "time (s) to solve to accuracy 1e9, unbiased uniform data",
        "Wall clock on this host. Direct is capped at N=257 (O(N^4) factor),\n\
         SOR at N=513 (O(N^3) iteration) — the same blow-ups the paper plots.\n\
         'skip' marks sizes above a method's cap.",
    );

    // Tune once on this machine (wall-clock cost model).
    eprintln!("tuning MULTIGRID-V on this machine up to level {max_level} ...");
    let tuner = VTuner::new(TunerOptions::measured(
        max_level,
        Distribution::UnbiasedUniform,
        Exec::seq(),
    ));
    let tuned = tuner.tune();
    eprintln!("tuning done: {}", tuned.provenance);

    println!("N,direct_s,sor_s,multigrid_s,autotuned_s");
    let exec = Exec::seq();
    for level in 2..=max_level {
        let n = n_of(level);
        let cache = Arc::new(DirectSolverCache::new());
        let mut inst =
            ProblemInstance::random(level, Distribution::UnbiasedUniform, 600 + level as u64);
        let x_opt = inst.ensure_x_opt(&exec, &cache).clone();
        let e0 = l2_diff(&inst.x0, &x_opt, &exec);
        let done =
            |x: &petamg_grid::Grid2d| ratio_of_errors(e0, l2_diff(x, &x_opt, &exec)) >= target;

        // Direct (factor + solve, like DPBSV).
        let direct = if n <= DIRECT_MAX_N {
            Some(time_best(2, || {
                let solver = OpDirect::new(StencilOp::Poisson, n).expect("SPD");
                let mut x = inst.working_grid();
                solver.solve(&mut x, &inst.b);
            }))
        } else {
            None
        };

        // SOR(omega_opt) iterated to 1e9.
        let sor = if n <= SOR_MAX_N {
            let omega = omega_opt(n);
            let mut sweeps = 0u32;
            let mut x = inst.working_grid();
            while !done(&x) && sweeps < 2_000_000 {
                sor_sweep(&mut x, &inst.b, omega, &exec);
                sweeps += 1;
            }
            Some(time_best(1, || {
                let mut x = inst.working_grid();
                for _ in 0..sweeps {
                    sor_sweep(&mut x, &inst.b, omega, &exec);
                }
            }))
        } else {
            None
        };

        // Standard multigrid (MULTIGRID-V-SIMPLE iterated).
        let solver = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
        let cycles = {
            let mut x = inst.working_grid();
            solver
                .solve_v_until(&mut x, &inst.b, 500, |x| done(x))
                .cycles()
        };
        let mg = time_best(2, || {
            let mut x = inst.working_grid();
            for _ in 0..cycles {
                solver.vcycle(&mut x, &inst.b);
            }
        });

        // Autotuned.
        let acc = tuned.acc_index_for(target);
        tuned.warm_factors(level, acc, &cache);
        let auto = time_best(2, || {
            let mut ctx = petamg_core::plan::ExecCtx::with_cache(exec.clone(), Arc::clone(&cache));
            let mut x = inst.working_grid();
            tuned.run(level, acc, &mut x, &inst.b, &mut ctx);
        });

        let fmt = |v: Option<f64>| v.map_or("skip".to_string(), |t| format!("{t:.6}"));
        println!("{n},{},{},{mg:.6},{auto:.6}", fmt(direct), fmt(sor));
    }
}
