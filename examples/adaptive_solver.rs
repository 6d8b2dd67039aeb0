//! Dynamic tuning (the paper's §6 future work): classify incoming
//! problems by input distribution and dispatch to the matching tuned
//! family.
//!
//! ```bash
//! cargo run --release --example adaptive_solver
//! ```

use petamg::core::adaptive::{classify, AdaptiveSolver};
use petamg::prelude::*;

fn main() {
    let level = 6;
    println!("training one MULTIGRID-V family per distribution class ...");
    let base = TunerOptions::quick(level, Distribution::UnbiasedUniform);
    let solver = AdaptiveSolver::train(&base);
    println!("classes trained: {:?}\n", solver.classes());

    let mode = SimdMode::host();
    for (label, dist, seed) in [
        ("dense zero-mean", Distribution::UnbiasedUniform, 101u64),
        ("dense shifted", Distribution::BiasedUniform, 102),
        ("8 point sources", Distribution::PointSources(8), 103),
    ] {
        let mut inst = ProblemInstance::random(level, dist, seed);
        let class = classify(&inst.b);
        let report = solver.solve(&mut inst, 1e5, mode);
        println!(
            "{label:<18} -> classified {class:?}; solved to {:.2e} \
             ({} sweeps, {} direct solves)",
            report.achieved_accuracy,
            report.ops.total_relax_sweeps(),
            report.ops.total_direct_solves(),
        );
    }
    println!(
        "\nEach problem ran the cycle shape tuned for its own distribution —\n\
         no retuning at solve time, just a cheap input-feature dispatch."
    );
}
