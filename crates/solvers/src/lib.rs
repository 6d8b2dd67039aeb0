//! # petamg-solvers
//!
//! The algorithmic building blocks of the paper's §2: one direct solver
//! (band Cholesky, via `petamg-linalg`, its factors cached in a
//! `petamg_runtime::SingleFlight` keyed by size and operator), the
//! iterative relaxation
//! (Red-Black Successive Over-Relaxation), the fused cycle edges every
//! multigrid cycle runs, and the per-cycle solve guard. The cycles
//! themselves — tuned, and the paper's fixed `MULTIGRID-V-SIMPLE` and
//! reference full multigrid — run in `petamg-core`'s plan executor.
//!
//! Module map:
//! * [`relax`] — Red-Black SOR sweeps, the staged references;
//! * [`fused`] — the temporally blocked sweep and the fused cycle edges,
//!   bitwise equal to their staged compositions;
//! * [`direct`] — the band-Cholesky factor cache;
//! * [`guard`] — the per-cycle solve guard.
//!
//! Every sweep takes an `Exec` (sequential; it carries the SIMD mode of
//! the row kernels) and is deterministic for a fixed mode.

#![deny(missing_docs)]

pub mod direct;
pub mod fused;
pub mod guard;
pub mod relax;

#[cfg(test)]
mod proptests;

pub use direct::{DirectSolverCache, DEFAULT_FACTOR_CAPACITY};
pub use fused::{
    interpolate_correct_relax, interpolate_correct_relax_op, relax_residual_restrict,
    relax_residual_restrict_op, sor_sweeps_blocked_op,
};
pub use guard::{GuardFailure, GuardVerdict, SolveGuard, SolveStatus};
pub use relax::{batch_sor_sweep_op, omega_opt, sor_sweep, sor_sweep_op, sor_sweeps};
