//! # petamg-grid
//!
//! The 2D grid substrate for the PetaBricks multigrid reproduction:
//! square grids of `N = 2^k + 1` points per side holding `f64` values,
//! plus every mesh operation the paper's algorithms need (§2 of the
//! paper):
//!
//! * the 5-point discrete Laplacian `A_h u = (4u − u_N − u_S − u_E − u_W)/h²`
//!   on the unit square with Dirichlet boundary stored in the outer ring,
//! * residual computation `r = b − A_h x`,
//! * **full-weighting restriction** (1/16 · [1 2 1; 2 4 2; 1 2 1]) of
//!   residuals to the next coarser grid,
//! * **bilinear interpolation** of coarse corrections back to the fine
//!   grid,
//! * the L2 norms used by the accuracy metric.
//!
//! Every sweep is a sequential loop over row slices. Its [`Exec`] policy
//! carries the [`SimdMode`] of the row kernels; a served solve runs on
//! one service worker, and the service spreads requests across workers.
//!
//! ## The hot path: fused kernels + workspace arena
//!
//! Multigrid cycles spend their time in residual → restrict →
//! interpolate-correct chains. Two **fused single-pass kernels** cover
//! those chains without materializing intermediates:
//!
//! * [`residual_restrict`] — computes `r = b − A_h x` and full-weighting
//!   restricts it to the coarse grid in one traversal; the fine-grid
//!   residual never exists in memory. Sequentially it streams three
//!   rotating residual rows (each fine row computed exactly once).
//! * [`interpolate_correct`] — bilinear interpolation **added** directly
//!   into the fine solution with row-parity specialized loops.
//!
//! Both are **bitwise identical** to their unfused reference
//! compositions ([`residual`] + [`restrict_full_weighting`];
//! [`interpolate_add`]) in both [`SimdMode`]s — property-tested in this
//! crate — so solvers and tuners can switch freely between the paths.
//!
//! Scratch storage comes from a [`Workspace`] arena: pools of per-level
//! grids and row buffers, reused across cycles, sweeps, and tuner
//! evaluations. Steady-state V/W/FMG cycles perform **zero** heap
//! allocations ([`Workspace::stats`] exposes counters that tests assert
//! on). All stencil inner loops — including the unfused reference
//! kernels and the norms — iterate row slices (three-row stencil
//! windows) so LLVM auto-vectorizes them.
//!
//! Both fused kernels together form one coarse-grid-correction step of
//! a V cycle (minus the relaxations, which live in `petamg-solvers`):
//!
//! ```
//! use petamg_grid::{
//!     coarse_size, interpolate_correct, residual_restrict, Exec, Grid2d, SimdMode, Workspace,
//! };
//!
//! let n = 17;
//! let x0 = Grid2d::from_fn(n, |i, j| (i + j) as f64);
//! let b = Grid2d::from_fn(n, |i, j| (i * j) as f64);
//! let ws = Workspace::new();
//! // Force the scalar row kernels.
//! let exec = Exec::seq().with_simd(SimdMode::Scalar);
//!
//! let mut x = x0.clone();
//! let mut coarse_residual = ws.acquire(coarse_size(n));
//! residual_restrict(&x, &b, &mut coarse_residual, &ws, &exec);
//! // (a real cycle would solve A e = r on the coarse grid here)
//! interpolate_correct(&coarse_residual, &mut x, &exec);
//!
//! // Both SIMD modes produce the same bits.
//! let vector = Exec::seq().with_simd(SimdMode::Vector);
//! let mut x_v = x0.clone();
//! let mut cr_v = ws.acquire(coarse_size(n));
//! residual_restrict(&x_v, &b, &mut cr_v, &ws, &vector);
//! interpolate_correct(&cr_v, &mut x_v, &vector);
//! assert_eq!(x.as_slice(), x_v.as_slice());
//! ```

#![deny(missing_docs)]

mod exec;
mod grid;
mod norms;
mod ops;
pub mod simd;
mod transfer;
mod workspace;

pub use exec::Exec;
pub use grid::{coarse_size, level_size, size_level, BatchGrid, Grid2d};
pub use norms::{l2_diff, l2_norm_interior};
pub use ops::{
    residual, residual_norm_with, residual_restrict, residual_restrict_with, residual_with,
    restrict_rows_into, zero_boundary_ring,
};
pub use simd::{batch_width, vector_backend, FaceSum, Five, SimdMode};
pub use transfer::{
    interpolate_add, interpolate_correct, interpolate_correct_row, interpolate_into,
    restrict_full_weighting, restrict_inject,
};
pub use workspace::{BufferLease, GridLease, Workspace, WorkspaceStats};

#[cfg(test)]
mod proptests;
