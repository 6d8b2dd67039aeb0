//! §2 complexity table: Direct n² (N⁴), SOR n^1.5 (N³), Multigrid n (N²).
//!
//! Measures wall-clock solve time of the three building blocks across
//! grid sizes and fits the log-log slope in N (cells n = N², so the
//! paper's exponents in n are half of these).

use petamg_bench::{banner, env_max_level, n_of, time_best};
use petamg_core::accuracy::ratio_of_errors;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_grid::{l2_diff, Exec};
use petamg_problems::{OpDirect, StencilOp};
use petamg_solvers::{omega_opt, sor_sweep, DirectSolverCache, MgConfig, ReferenceSolver};
use std::sync::Arc;

fn fit_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (sx, sy): (f64, f64) = (xs.iter().sum(), ys.iter().sum());
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn main() {
    let max_level = env_max_level(8).min(8); // direct factor caps at 257
    banner(
        "Table 1 (§2)",
        "total complexity of the three algorithmic building blocks",
        "Direct includes factorization (the paper's DPBSV refactors per call).\n\
         Target accuracy 1e5; exponents fitted in N (paper: N^4, N^3, N^2).",
    );
    println!("N,direct_s,sor_s,multigrid_s");

    let exec = Exec::seq();
    let target = 1e5;
    let mut logn = Vec::new();
    let mut ld = Vec::new();
    let mut ls = Vec::new();
    let mut lm = Vec::new();

    for level in 4..=max_level {
        let n = n_of(level);
        let cache = Arc::new(DirectSolverCache::new());
        let mut inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 42);
        let x_opt = inst.ensure_x_opt(&exec, &cache).clone();
        let e0 = l2_diff(&inst.x0, &x_opt, &exec);

        // Direct: factor + solve (total work, like DPBSV).
        let t_direct = time_best(2, || {
            let solver = OpDirect::new(StencilOp::Poisson, n).expect("SPD");
            let mut x = inst.working_grid();
            solver.solve(&mut x, &inst.b);
        });

        // SOR with omega_opt until accuracy 1e5.
        let omega = omega_opt(n);
        let mut sweeps = 0u32;
        {
            let mut x = inst.working_grid();
            while ratio_of_errors(e0, l2_diff(&x, &x_opt, &exec)) < target && sweeps < 500_000 {
                sor_sweep(&mut x, &inst.b, omega, &exec);
                sweeps += 1;
            }
        }
        let t_sor = time_best(2, || {
            let mut x = inst.working_grid();
            for _ in 0..sweeps {
                sor_sweep(&mut x, &inst.b, omega, &exec);
            }
        });

        // Reference multigrid V cycles until accuracy 1e5.
        let solver = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
        let cycles = {
            let mut x = inst.working_grid();
            solver
                .solve_v_until(&mut x, &inst.b, 200, |x| {
                    ratio_of_errors(e0, l2_diff(x, &x_opt, &exec)) >= target
                })
                .cycles()
        };
        let t_mg = time_best(2, || {
            let mut x = inst.working_grid();
            for _ in 0..cycles {
                solver.vcycle(&mut x, &inst.b);
            }
        });

        println!("{n},{t_direct:.6},{t_sor:.6},{t_mg:.6}");
        logn.push((n as f64).ln());
        ld.push(t_direct.ln());
        ls.push(t_sor.ln());
        lm.push(t_mg.ln());
    }

    println!("#");
    println!("# fitted exponents in N (paper: direct 4, SOR 3, multigrid 2):");
    println!(
        "# direct N^{:.2}, SOR N^{:.2}, multigrid N^{:.2}",
        fit_slope(&logn, &ld),
        fit_slope(&logn, &ls),
        fit_slope(&logn, &lm)
    );
}
