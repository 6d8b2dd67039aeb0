//! Autotuned vs fixed-accuracy heuristics (the paper's Figs 7–8, in
//! miniature): strategies 10^9 and 10^x/10^9 against the DP-tuned
//! algorithm, on biased uniform data, priced with the modeled
//! Intel-Harpertown machine.
//!
//! ```bash
//! cargo run --release --example heuristic_battle
//! ```

use petamg::core::heuristics::paper_strategies;
use petamg::core::tuner::priced_run;
use petamg::prelude::*;
use std::sync::Arc;

fn main() {
    let max_level = 7;
    let opts = TunerOptions::quick(max_level, Distribution::BiasedUniform);
    let profile = MachineProfile::intel_harpertown();

    println!("tuning the full DP family ...");
    let tuned = VTuner::new(opts.clone()).tune();
    println!("building heuristic strategies ...");
    let strategies = paper_strategies(&opts);

    let mode = SimdMode::host();
    let cache = Arc::new(petamg::solvers::DirectSolverCache::new());

    println!(
        "\n{:<20} {:>14} {:>22}",
        "algorithm", "modeled time", "x slower than tuned"
    );
    for level in [5, 6, 7] {
        let inst = ProblemInstance::random(level, Distribution::BiasedUniform, 9_999);
        let (tuned_cost, _) = priced_run(&profile, mode, &cache, |ctx| {
            let mut x = inst.working_grid();
            tuned.run(level, tuned.acc_index_for(1e9), &mut x, &inst.b, ctx);
        });
        println!("\n-- problem size N = {} --", inst.n());
        println!(
            "{:<20} {:>12.3}us {:>22.2}",
            "Autotuned",
            tuned_cost * 1e6,
            1.0
        );
        for (name, fam) in &strategies {
            let (cost, _) = priced_run(&profile, mode, &cache, |ctx| {
                let mut x = inst.working_grid();
                fam.run(level, fam.num_accuracies() - 1, &mut x, &inst.b, ctx);
            });
            println!(
                "{:<20} {:>12.3}us {:>22.2}",
                name,
                cost * 1e6,
                cost / tuned_cost
            );
        }
    }
    println!(
        "\nAll algorithms reach accuracy 1e9; they differ in what accuracy they\n\
         demand at lower recursion levels. The tuned algorithm may pick different\n\
         sub-accuracies at every level, which no fixed strategy can express (Fig 8)."
    );
}
