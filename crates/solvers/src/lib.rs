//! # petamg-solvers
//!
//! The algorithmic building blocks of the paper's §2: one direct solver
//! (band Cholesky, via `petamg-linalg`), the iterative relaxation
//! (Red-Black Successive Over-Relaxation), and the recursive reference
//! multigrid algorithms that the autotuned cycles are benchmarked
//! against:
//!
//! * [`multigrid::ReferenceSolver::vcycle`] — `MULTIGRID-V-SIMPLE`
//!   (fixed V cycle, one pre-/post-relaxation, direct solve at the base),
//! * iterated V cycles ("Reference V" in Figs 10–13),
//! * [`multigrid::ReferenceSolver::fmg`] — the standard full multigrid
//!   cycle of Fig 3 ("Reference Full MG"),
//! * W-cycles via the `gamma` parameter.
//!
//! Everything is `Exec`-parameterized (sequential / work-stealing pool)
//! and deterministic for a fixed policy.

#![deny(missing_docs)]

pub mod direct;
pub mod fused;
pub mod guard;
pub mod multigrid;
pub mod relax;

#[cfg(test)]
mod proptests;

pub use direct::{DirectSolverCache, DEFAULT_FACTOR_CAPACITY};
pub use fused::{
    interpolate_correct_relax, interpolate_correct_relax_op, relax_residual_restrict,
    relax_residual_restrict_op, sor_sweeps_blocked, sor_sweeps_blocked_op,
};
pub use guard::{GuardConfig, GuardFailure, GuardVerdict, SolveGuard, SolveStatus};
pub use multigrid::{MgConfig, ReferenceSolver};
pub use relax::{
    batch_sor_sweep_op, omega_opt, sor_sweep, sor_sweep_op, sor_sweeps, sor_sweeps_op,
};
