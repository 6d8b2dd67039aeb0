//! Render tuned cycle shapes (the paper's Fig 5): tune V and
//! full-multigrid families on an AMD-Barcelona-like modeled machine for
//! unbiased and biased data, then draw the cycles for accuracy targets
//! 10, 10^3, 10^5, 10^7.
//!
//! ```bash
//! cargo run --release --example tuned_cycles
//! ```

use petamg::core::plan::ExecCtx;
use petamg::core::render;
use petamg::prelude::*;
use std::sync::Arc;

fn main() {
    let max_level = 7;
    for dist in [Distribution::UnbiasedUniform, Distribution::BiasedUniform] {
        println!("=== {} uniform random training data ===\n", dist.name());
        let opts = TunerOptions::modeled(max_level, dist, MachineProfile::amd_barcelona());
        let fmg = FmgTuner::new(opts).tune();
        let v = &fmg.v;
        let inst = ProblemInstance::random(max_level, dist, 1234);

        for (i, p) in v.accuracies.iter().enumerate().take(4) {
            println!(
                "--- MULTIGRID-V cycle, accuracy {:>6} (N = {}) ---",
                format!("{p:.0e}"),
                (1usize << max_level) + 1
            );
            let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
            let mut x = inst.working_grid();
            v.run(max_level, i, &mut x, &inst.b, &mut ctx);
            println!("{}", render::render_cycle(&ctx.events.expect("traced")));

            println!(
                "--- FULL-MULTIGRID cycle, accuracy {:>6} ---",
                format!("{p:.0e}")
            );
            let mut ctx =
                ExecCtx::with_cache(SimdMode::host(), Arc::new(Default::default())).tracing();
            let mut x = inst.working_grid();
            fmg.run(max_level, i, &mut x, &inst.b, &mut ctx);
            println!("{}", render::render_cycle(&ctx.events.expect("traced")));
        }
    }
    println!(
        "note: dots are SOR(1.15) relaxations; D = band-Cholesky direct solve;\n\
         S = iterated SOR(w_opt); cycle shapes depend on the modeled machine,\n\
         the training distribution, and the accuracy target — the paper's core claim."
    );
}
