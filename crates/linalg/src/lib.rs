//! # petamg-linalg
//!
//! Direct linear-algebra kernels for the PetaBricks multigrid
//! reproduction. The paper's direct solver is *"band Cholesky
//! factorization through LAPACK's DPBSV routine"* (§2); this crate
//! implements that routine from scratch:
//!
//! * [`BandMatrix`] — packed symmetric positive-definite band storage
//!   (rows packed, columns ascending: `A(i, i-d)` at
//!   `data[i·(m+1) + (m-d)]`, diagonal last),
//! * [`BandCholesky`] — the `L·Lᵀ` factorization (`n·m²` multiply-adds)
//!   with forward/backward solves that stream the `8·n·(m+1)`-byte
//!   factor once each and are bound by that stream, not by their
//!   `2·n·m` multiply-adds. Every inner loop is a contiguous,
//!   dependency-free vector loop in plain safe Rust; reductions use a
//!   fixed 8-lane tree (the rule `grid::simd` states), so the result
//!   bits do not depend on the vector width the compiler picks and the
//!   direct solver has no scalar twin,
//! * [`dpbsv`] — the one-call factor-and-solve entry point mirroring
//!   LAPACK's interface,
//! * [`DenseMatrix`] — small dense Cholesky + Gaussian elimination used
//!   as test oracles,
//! * [`assemble_poisson_band`] — assembly of the 2D 5-point system
//!   over a grid's interior (the boundary-aware direct solve on top of
//!   it is `petamg_problems::OpDirect`).

mod band;
mod dense;
mod poisson;

pub use band::{dpbsv, BandCholesky, BandMatrix, LinalgError};
pub use dense::DenseMatrix;
pub use poisson::assemble_poisson_band;

#[cfg(test)]
mod proptests;
