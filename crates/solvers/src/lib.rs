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
//! * [`fused`] — the one fused cycle edge (blocked sweeps, with an
//!   interpolation correction leading and a residual restriction
//!   trailing when asked), bitwise equal to its staged compositions;
//! * [`direct`] — the band-Cholesky factor cache;
//! * [`guard`] — the per-cycle solve guard.
//!
//! Every sweep runs sequentially, takes the
//! [`SimdMode`](petamg_grid::SimdMode) of its row kernels and gives the
//! same bits in either mode.

#![deny(missing_docs)]

pub mod direct;
pub mod fused;
pub mod guard;
pub mod relax;

#[cfg(test)]
mod proptests;

pub use direct::{DirectSolverCache, DEFAULT_FACTOR_CAPACITY};
pub use fused::{cycle_edge, interpolate_correct_relax, relax_residual_restrict};
pub use guard::{GuardFailure, GuardVerdict, SolveGuard, SolveStatus};
pub use relax::{batch_sor_sweep_op, omega_opt, sor_sweep, sor_sweep_op, sor_sweeps};
