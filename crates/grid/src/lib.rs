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
//! * L2 / max norms used by the accuracy metric.
//!
//! All sweeps run through an [`Exec`] policy: sequential, or the in-house
//! work-stealing pool from `petamg-runtime` (the PetaBricks runtime
//! stand-in).
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
//! [`interpolate_add`]) under every [`Exec`] policy — property-tested in
//! this crate — so solvers and tuners can switch freely between the
//! paths.
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
//!     coarse_size, interpolate_correct, residual_restrict, Exec, Grid2d, Workspace,
//! };
//!
//! let n = 17;
//! let x0 = Grid2d::from_fn(n, |i, j| (i + j) as f64);
//! let b = Grid2d::from_fn(n, |i, j| (i * j) as f64);
//! let ws = Workspace::new();
//! // Parallel pool with a tuned block-cursor band height.
//! let exec = Exec::pbrt(2).with_band(16);
//!
//! let mut x = x0.clone();
//! let mut coarse_residual = ws.acquire(coarse_size(n));
//! residual_restrict(&x, &b, &mut coarse_residual, &ws, &exec);
//! // (a real cycle would solve A e = r on the coarse grid here)
//! interpolate_correct(&coarse_residual, &mut x, &exec);
//!
//! // Every execution policy produces the same bits.
//! let mut x_seq = x0.clone();
//! let mut cr_seq = ws.acquire(coarse_size(n));
//! residual_restrict(&x_seq, &b, &mut cr_seq, &ws, &Exec::seq());
//! interpolate_correct(&cr_seq, &mut x_seq, &Exec::seq());
//! assert_eq!(x.as_slice(), x_seq.as_slice());
//! ```

#![deny(missing_docs)]

mod exec;
mod grid;
mod norms;
mod ops;
mod ptr;
pub mod simd;
mod transfer;
mod workspace;

pub use exec::{Exec, DEFAULT_BAND_ROWS, DEFAULT_ROW_GRAIN};
pub use grid::{coarse_size, fine_size, level_size, size_level, BatchGrid, Grid2d};
pub use norms::{l2_diff, l2_norm_interior, max_norm_interior};
pub use ops::{
    apply_operator, residual, residual_norm_with, residual_restrict, residual_restrict_with,
    residual_with, restrict_rows_into, zero_boundary_ring,
};
pub use ptr::GridPtr;
pub use simd::{
    batch_width, vector_available, vector_backend, FaceSum, Five, SimdMode, SimdPolicy,
};
pub use transfer::{
    interpolate_add, interpolate_correct, interpolate_correct_row, interpolate_into,
    restrict_full_weighting, restrict_inject,
};
pub use workspace::{BufferLease, GridLease, Workspace, WorkspaceStats, BUFFER_ALIGN};

#[cfg(test)]
mod proptests;
