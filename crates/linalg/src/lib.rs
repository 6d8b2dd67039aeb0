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
//! * [`BandCholesky`] — the `L·Lᵀ` factorization (`n·m²/2`
//!   multiply-adds) with forward/backward solves that stream the
//!   `8·n·(m+1)`-byte factor once each and are bound by that stream,
//!   not by their `2·n·m` multiply-adds. Reductions use a fixed 8-lane
//!   tree (the rule `grid::simd` states), so the result bits do not
//!   depend on the vector width that carries them: the factor and the
//!   forward substitution run portable Rust or, on an AVX2 CPU, a
//!   runtime-dispatched `core::arch` body, and both give the same
//!   bits,
//! * [`assemble_poisson_band`] — assembly of the 2D 5-point system
//!   over a grid's interior (the boundary-aware direct solve on top of
//!   it is `petamg_problems::OpDirect`).
//!
//! The crate's tests also hold a small dense Cholesky and Gaussian
//! elimination as oracles.

mod band;
#[cfg(test)]
mod dense;
mod poisson;
mod vector;

pub use band::{BandCholesky, BandMatrix, LinalgError};
#[cfg(test)]
use dense::DenseMatrix;
pub use poisson::assemble_poisson_band;

#[cfg(test)]
mod proptests;
