//! Fig 9: parallel scalability — speedup of the tuned Poisson solver as
//! worker threads are added (paper: 1..8 threads on an 8-core Xeon).
//!
//! Two views are printed:
//! 1. wall-clock on this host (honest, but a small shared container is
//!    memory-bandwidth-bound for stencil sweeps, so this measures the
//!    host, not the scheduler);
//! 2. the modeled Intel-Harpertown speedup (the Amdahl-style model used
//!    for the architecture studies), which exhibits the paper's shape.

use petamg_bench::{banner, env_max_level, n_of, reference_v_ops, time_best};
use petamg_core::cost::MachineProfile;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_grid::Exec;
use petamg_runtime::ThreadPool;
use petamg_solvers::{DirectSolverCache, MgConfig, ReferenceSolver};
use std::sync::Arc;

fn main() {
    let level = env_max_level(9);
    let host = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(2);
    banner(
        "Figure 9",
        "parallel speedup of the multigrid Poisson solver",
        &format!(
            "Host has {host} cores. Stencil sweeps are DRAM-bound on small\n\
             containers, so the wall-clock view mainly\n\
             measures memory bandwidth; the modeled view shows the shape the\n\
             paper measured on a dedicated 8-core Xeon. Work: 10 V cycles at\n\
             N = {}.",
            n_of(level)
        ),
    );

    let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 99);
    let cache = Arc::new(DirectSolverCache::new());
    let cycles = 10;

    println!("## wall-clock on this host (threads beyond {host} cores oversubscribe)");
    println!("threads,seconds,speedup,jobs_stolen");
    let mut base = 0.0f64;
    for t in 1..=8usize {
        let pool = Arc::new(ThreadPool::new(t));
        let exec = Exec::with_pool(Arc::clone(&pool), 8);
        let solver = ReferenceSolver::with_cache(
            MgConfig {
                exec,
                ..MgConfig::default()
            },
            Arc::clone(&cache),
        );
        let secs = time_best(3, || {
            let mut x = inst.working_grid();
            for _ in 0..cycles {
                solver.vcycle(&mut x, &inst.b);
            }
        });
        if t == 1 {
            base = secs;
        }
        println!(
            "{t},{secs:.6},{:.2},{}",
            base / secs,
            pool.stats().jobs_stolen
        );
    }

    println!("#");
    println!(
        "## modeled Intel-Harpertown speedup at the paper's size (N = {})",
        n_of(11)
    );
    println!("threads,model_seconds,speedup");
    let ops = reference_v_ops(11);
    let mut profile = MachineProfile::intel_harpertown();
    profile.threads = 1;
    let model_base = profile.time(&ops) * cycles as f64;
    for t in 1..=8usize {
        profile.threads = t;
        let secs = profile.time(&ops) * cycles as f64;
        println!("{t},{secs:.6},{:.2}", model_base / secs);
    }
    println!("# paper shape check: monotone speedup flattening toward the core count.");
}
