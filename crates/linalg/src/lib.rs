//! # petamg-linalg
//!
//! Direct linear-algebra kernels for the PetaBricks multigrid
//! reproduction. The paper's direct solver is *"band Cholesky
//! factorization through LAPACK's DPBSV routine"* (§2); this crate
//! implements that routine from scratch:
//!
//! * [`BandMatrix`] — packed symmetric positive-definite band storage,
//! * [`BandCholesky`] — the `L·Lᵀ` factorization (O(n·m²)) with
//!   O(n·m) forward/backward solves,
//! * [`dpbsv`] — the one-call factor-and-solve entry point mirroring
//!   LAPACK's interface,
//! * [`DenseMatrix`] — small dense Cholesky + Gaussian elimination used
//!   as test oracles,
//! * [`tridiagonal_solve`] — Thomas algorithm (1D Poisson oracle),
//! * [`assemble_poisson_band`] — assembly of the 2D 5-point system
//!   over a grid's interior (the boundary-aware direct solve on top of
//!   it is `petamg_problems::OpDirect`).

mod band;
mod dense;
mod poisson;
mod tridiag;

pub use band::{dpbsv, BandCholesky, BandMatrix, LinalgError};
pub use dense::DenseMatrix;
pub use poisson::assemble_poisson_band;
pub use tridiag::tridiagonal_solve;

#[cfg(test)]
mod proptests;
