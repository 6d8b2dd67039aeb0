//! # petamg-problems
//!
//! The operator-family subsystem: "which PDE are we solving" as a
//! first-class value, threaded through the whole solver/tuner stack.
//!
//! The PetaBricks paper's central claim is that the best multigrid plan
//! depends on the *problem* as much as on the machine. This crate opens
//! the problem axis beyond the seed's constant-coefficient Poisson
//! equation:
//!
//! * **[`Problem`]** — the posed PDE: constant-coefficient Poisson,
//!   axis-anisotropic Poisson `-ε·u_xx − u_yy = f`, or
//!   variable-coefficient diffusion `-∇·(a(x,y)∇u) = f`, with named
//!   canonical coefficient profiles ([`Problem::poisson`],
//!   [`Problem::smooth_sinusoidal`], [`Problem::jump_inclusion`],
//!   [`Problem::anisotropic_canonical`]).
//! * **[`StencilOp`]** — one level's discrete operator behind a single
//!   seam: it hands `petamg_grid`'s residual and SOR row kernels the
//!   five stencil weights of a row (`petamg_grid::Five`); the kernels
//!   are written once over those weights, in scalar **and** vector
//!   form, and the Poisson instantiation carries no multiplication by
//!   its unit weights.
//! * **[`StencilCoeffs`]** — per-level face weights for variable
//!   coefficients: harmonic face averaging (jump-safe), each face stored
//!   once, arithmetic full-weighting restriction of the vertex field to
//!   coarse levels.
//! * **[`OpDirect`]** — banded assembly + Cholesky for the coarse-grid
//!   direct solve of any operator.
//! * **[`ProblemFingerprint`]** — the serializable identity carried by
//!   tuned-plan files so a plan tuned for one operator is
//!   rejected — with the typed [`ProblemMismatch`] error — when posed
//!   another.
//!
//! ## Determinism contract
//!
//! With `a ≡ 1` the variable-coefficient kernels and the anisotropic
//! kernels with unit weights produce **bitwise identical** results to
//! the Poisson kernels, in both [`SimdMode`](petamg_grid::SimdMode)s,
//! under every execution backend — property-tested in this crate. That
//! pins the whole operator family to the Poisson stack's established
//! conformance story: fused == staged == scalar == vector, bit for
//! bit, per operator.

#![deny(missing_docs)]

mod coeffs;
mod direct;
mod kernels;
mod op;
mod problem;

pub use coeffs::{field_hash, CoeffProfile, StencilCoeffs};
pub use direct::OpDirect;
pub use kernels::{residual_norm_op, residual_op, residual_restrict_op};
pub use op::StencilOp;
pub use problem::{Problem, ProblemFingerprint, ProblemMismatch};

#[cfg(test)]
mod proptests;
