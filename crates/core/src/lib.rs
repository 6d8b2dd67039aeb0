//! # petamg-core
//!
//! The paper's contribution: an **accuracy-aware dynamic-programming
//! autotuner** for multigrid cycle shapes (Chan et al., *Autotuning
//! Multigrid with PetaBricks*, SC'09).
//!
//! The tuner builds, bottom-up over grid levels `N = 2^k + 1`, a family
//! of algorithms `MULTIGRID-V_i` — one per target accuracy
//! `p_i ∈ {10, 10³, 10⁵, 10⁷, 10⁹}` — where each algorithm chooses among
//!
//! 1. a **direct** band-Cholesky solve,
//! 2. iterated **Red-Black SOR** with ω_opt,
//! 3. iterated **`RECURSE_j`** cycles that recurse into the already-tuned
//!    `MULTIGRID-V_j` of the next coarser level — for *any* accuracy
//!    level `j`, not just `i`,
//!
//! using the accuracy metric `‖x_in − x_opt‖₂ / ‖x_out − x_opt‖₂` as the
//! common yardstick that makes direct, iterative and recursive methods
//! comparable (§2.2). An extension tunes `FULL-MULTIGRID_i` cycles with
//! independently-chosen estimation accuracies (§2.4).
//!
//! Module map:
//! * [`accuracy`] — the metric and reference (exact discrete) solutions;
//! * [`training`] — the paper's training distributions (§4): unbiased /
//!   biased uniform over `[−2³², 2³²]`, plus point sources;
//! * [`cost`] — the cost model: counted operations priced on a
//!   machine profile (Intel Harpertown / AMD Barcelona / Sun Niagara
//!   stand-ins) for the architecture studies of §4.3;
//! * [`plan`] — tuned-plan representation ([`plan::Choice`],
//!   [`plan::TunedFamily`], [`plan::TunedFmgFamily`]) and the executor;
//! * [`trace`] / [`render`] — the operations a plan execution runs
//!   ([`trace::CycleEvent`]) and the ASCII cycle diagram of Fig 5;
//! * [`tuner`] — the DP tuners ([`tuner::VTuner`], [`tuner::FmgTuner`]),
//!   the full Pareto-set variant of §2.2 ([`tuner::ParetoTuner`], the
//!   reference the Fig 2 test checks the discrete DP against);
//! * [`heuristics`] — the fixed-accuracy `10^x/10^9` strategies of
//!   Figs 7–8.

// Robustness: production code in this crate must not `.unwrap()` — a
// panic inside a solve defeats the guarded-execution ladder. Use
// `.expect("invariant")` where an invariant genuinely holds, or thread
// a typed error. Test code is exempt via `allow-unwrap-in-tests` in
// the workspace `clippy.toml`.
#![warn(clippy::unwrap_used)]

pub mod accuracy;
pub mod adaptive;
pub mod cost;
pub mod faults;
pub mod guard;
pub mod heuristics;
pub mod persist;
pub mod plan;
#[cfg(test)]
mod proptests;
pub mod render;
pub mod telemetry;
pub mod trace;
pub mod training;
pub mod tuner;

/// The telemetry substrate (metric registry, histograms, spans,
/// sinks), re-exported so consumers of `petamg-core` need no direct
/// `petamg-obs` dependency.
pub use petamg_obs as obs;
/// The one home for `PETAMG_*` environment parsing (re-exported from
/// `petamg-obs`, where it lives so `petamg-grid` can reach it too).
pub use petamg_obs::env;

pub use accuracy::error_ratio;
pub use cost::{MachineProfile, OpCounts};
pub use guard::{Degradation, FailureKind, GuardedReport, GuardedSolver, LadderMemory, SolveError};
pub use plan::{Choice, SolveReport, TunedFamily, TunedFmgFamily};
pub use telemetry::SolveTelemetry;
pub use training::{Distribution, ProblemInstance};
pub use tuner::{FmgTuner, TunerOptions, VTuner};
