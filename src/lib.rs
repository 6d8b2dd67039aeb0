//! # petamg — Autotuning Multigrid with PetaBricks, in Rust
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *Chan, Ansel, Wong, Amarasinghe, Edelman — "Autotuning Multigrid with
//! PetaBricks" (SC 2009)*.
//!
//! The headline system is an **accuracy-aware dynamic-programming
//! autotuner** that builds tuned multigrid cycle shapes for the 2D
//! Poisson equation: at every recursion level it chooses between a
//! direct band-Cholesky solve, iterated Red-Black SOR, and recursive
//! multigrid calls into sub-algorithms tuned for *other* accuracy
//! levels, using the accuracy metric ‖x_in − x_opt‖/‖x_out − x_opt‖ as
//! the common yardstick (paper §2).
//!
//! Module map:
//! * [`grid`] — 2D grid substrate: 5-point Laplacian, residual,
//!   full-weighting restriction, bilinear interpolation, norms; the
//!   **fused hot-path kernels** (`residual_restrict`,
//!   `interpolate_correct` — bitwise equal to their unfused
//!   compositions) and the **`Workspace` arena** of pooled per-level
//!   scratch that makes steady-state cycles allocation-free.
//! * [`linalg`] — packed band Cholesky (the paper's LAPACK `DPBSV`).
//! * [`solvers`] — direct solver cache, Red-Black SOR, the fused
//!   cycle-edge kernels and the per-cycle solve guard.
//! * [`core`] — the paper's contribution: accuracy metric, DP tuner for
//!   `MULTIGRID-V_i` and `FULL-MULTIGRID_i`, the one plan executor (the
//!   paper's reference `MULTIGRID-V-SIMPLE` is the fixed plan
//!   `simple_v_family`, its reference full multigrid
//!   `accuracy::reference_fmg`), cycle tracing/rendering, machine cost
//!   models and training distributions.
//! * [`serve`] — the tune-once/serve-many layer: a fingerprint-keyed
//!   [`PlanLibrary`](petamg_serve::PlanLibrary) over checksummed plan
//!   files and a [`SolverService`](petamg_serve::SolverService) with a
//!   bounded queue, warm per-worker arenas, and single-flight tuning.
//! * [`obs`] — the telemetry substrate: metric registry (counters,
//!   gauges, lock-free sharded latency histograms), request-phase
//!   spans, and three sinks (structured JSON snapshot, Prometheus text
//!   exposition, Chrome trace-event export), all gated by
//!   `PETAMG_TELEMETRY` so the disabled fast path is one relaxed
//!   atomic load.
//!
//! ## Quickstart
//!
//! ```no_run
//! use petamg::prelude::*;
//!
//! // Tune a MULTIGRID-V family up to grids of 129x129 for the paper's
//! // five accuracy targets, on training data from the unbiased
//! // distribution, using the deterministic modeled cost of an
//! // Intel-Harpertown-like machine.
//! let opts = TunerOptions::quick(7, Distribution::UnbiasedUniform);
//! let tuned = VTuner::new(opts).tune();
//!
//! // Solve a fresh instance to accuracy 1e5.
//! let mut inst = ProblemInstance::random(7, Distribution::UnbiasedUniform, 42);
//! let report = tuned.solve(&mut inst, 1e5);
//! assert!(report.achieved_accuracy >= 1e5);
//! ```

// Whole-crate re-exports: `benchmark/src` names paths under all seven (ROADMAP 1(0) moves those probes).
pub use petamg_core as core;
pub use petamg_grid as grid;
pub use petamg_linalg as linalg;
pub use petamg_obs as obs;
pub use petamg_problems as problems;
pub use petamg_serve as serve;
pub use petamg_solvers as solvers;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use petamg_core::accuracy::error_ratio;
    pub use petamg_core::cost::{CostModel, MachineProfile};
    pub use petamg_core::guard::{GuardedReport, GuardedSolver, LadderRung, SolveError};
    pub use petamg_core::plan::{Choice, ExecCtx, TunedFamily, TunedFmgFamily};
    // Pinned by `benchmark/src/probes.rs` (`solvers.reference_v.solve_ms.*`); delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub use petamg_core::plan::{MgConfig, ReferenceSolver};
    pub use petamg_core::training::{Distribution, ProblemInstance};
    pub use petamg_core::tuner::{FmgTuner, TunerOptions, VTuner};
    pub use petamg_grid::{Exec, Grid2d, SimdMode, Workspace};
    pub use petamg_obs::{render_prometheus, Registry, TelemetryMode, TelemetrySnapshot};
    pub use petamg_problems::{
        CoeffProfile, Problem, ProblemFingerprint, ProblemMismatch, StencilOp,
    };
    pub use petamg_runtime::ThreadPool;
    pub use petamg_serve::{
        PlanLibrary, PlanSource, Rejected, ServeError, ServeReport, ServiceConfig, SolveRequest,
        SolverService, TunePolicy,
    };
    pub use petamg_solvers::guard::{GuardFailure, GuardVerdict, SolveGuard, SolveStatus};
    pub use petamg_solvers::relax::omega_opt;
}

/// Hardened plan persistence (atomic writes, content checksums,
/// quarantine of corrupt files) — re-exported from
/// [`petamg_core::persist`], where the guarded-solve ladder can reach
/// it. See that module for the full story.
pub use petamg_core::persist;
