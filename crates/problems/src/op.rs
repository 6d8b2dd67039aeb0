//! The [`StencilOp`] seam: one value describing "which 5-point operator
//! are we applying at this level", with the shared row kernels every
//! solver path (staged, fused, wavefront) dispatches through.
//!
//! Three variants cover the operator families:
//!
//! * [`StencilOp::Poisson`] — the constant-coefficient 5-point
//!   Laplacian: unit weights, diagonal 4.
//! * [`StencilOp::ConstFive`] — constant per-axis weights
//!   `(cw, ce, cn, cs)` with diagonal `cc`: the axis-anisotropic
//!   Poisson operator `-ε·u_xx - u_yy` (ε scales the west/east
//!   weights).
//! * [`StencilOp::Var`] — per-cell face weights from a
//!   [`StencilCoeffs`] level: variable-coefficient diffusion
//!   `-∇·(a(x,y)∇u)`.
//!
//! The variants differ only in the [`Five`] weights they hand the row
//! kernels of `petamg_grid`: each residual and relaxation kernel is
//! written once over those weights, in scalar and vector
//! ([`SimdMode`]) form with one IEEE-754 association order. A unit
//! weight is elided at compile time and equals multiplying by `1.0`
//! bit for bit, so Poisson pays for no multiplication it does not
//! need, unit-coefficient `ConstFive`/`Var` operators reproduce its
//! bits exactly, and the whole conformance story of the Poisson stack
//! carries over to the operator families.

use crate::coeffs::StencilCoeffs;
use petamg_grid::SimdMode;
#[cfg(doc)]
use petamg_grid::{Five, Grid2d};
use std::sync::Arc;

/// Evaluate `$body` with `$weights` bound to `$op`'s per-row stencil,
/// a `Fn(usize) -> Five<_, _>` from the global row index — this match
/// is the only code that differs per operator family. `residual` puts
/// the diagonal in `Five::d` (for [`StencilOp::Var`] a
/// [`FaceSum`](petamg_grid::FaceSum) of the face rows, not a stored
/// array), `relax` its reciprocal.
macro_rules! with_weights {
    ($op:expr, residual, |$weights:ident| $body:expr) => {
        with_weights!($op, 4.0, cc, diagonal_row, |$weights| $body)
    };
    ($op:expr, relax, |$weights:ident| $body:expr) => {
        with_weights!($op, 0.25, inv_cc, ic_row, |$weights| $body)
    };
    ($op:expr, $four:expr, $cc:ident, $c_row:ident, |$weights:ident| $body:expr) => {
        match $op {
            StencilOp::Poisson => {
                let $weights = |_: usize| ::petamg_grid::Five {
                    d: $four,
                    ..::petamg_grid::Five::POISSON
                };
                $body
            }
            StencilOp::ConstFive {
                cw,
                ce,
                cn,
                cs,
                $cc: d,
                ..
            } => {
                let $weights = |_: usize| ::petamg_grid::Five {
                    w: *cw,
                    e: *ce,
                    n: *cn,
                    s: *cs,
                    d: *d,
                };
                $body
            }
            StencilOp::Var(cf) => {
                let $weights = |i: usize| ::petamg_grid::Five {
                    w: cf.w_row(i),
                    e: cf.e_row(i),
                    n: cf.n_row(i),
                    s: cf.s_row(i),
                    d: cf.$c_row(i),
                };
                $body
            }
        }
    };
}
pub(crate) use with_weights;

/// One level's discrete operator: `A u = (cc·u − cn·N − cs·S − cw·W −
/// ce·E)/h²` with constant, per-axis-constant, or per-cell weights.
#[derive(Clone, Debug)]
pub enum StencilOp {
    /// The constant-coefficient 5-point Laplacian (weights `1`,
    /// diagonal `4`).
    Poisson,
    /// Constant five-point weights (the anisotropic family). `cc` must
    /// equal `((cw + ce) + cn) + cs` and `inv_cc = 1/cc`.
    ConstFive {
        /// West/east weights (the `x`-direction; `ε` for `-ε·u_xx`).
        cw: f64,
        /// East weight (equals `cw` for the axis-aligned family).
        ce: f64,
        /// North weight (the `y`-direction).
        cn: f64,
        /// South weight.
        cs: f64,
        /// Diagonal `((cw + ce) + cn) + cs`.
        cc: f64,
        /// Reciprocal diagonal (relaxation multiplies by this).
        inv_cc: f64,
    },
    /// Per-cell face weights for one level of a variable-coefficient
    /// problem.
    Var(Arc<StencilCoeffs>),
}

impl StencilOp {
    /// Build the anisotropic operator `-ε·u_xx − u_yy` (ε scales the
    /// west/east stencil weights).
    pub fn anisotropic(eps: f64) -> StencilOp {
        assert!(eps > 0.0 && eps.is_finite(), "anisotropy must be positive");
        let cc = ((eps + eps) + 1.0) + 1.0;
        StencilOp::ConstFive {
            cw: eps,
            ce: eps,
            cn: 1.0,
            cs: 1.0,
            cc,
            inv_cc: 1.0 / cc,
        }
    }

    /// Grid size this operator is bound to (`None` for size-independent
    /// operators).
    #[inline]
    pub(crate) fn bound_n(&self) -> Option<usize> {
        match self {
            StencilOp::Var(c) => Some(c.n()),
            _ => None,
        }
    }

    /// Cache key for per-operator factor caches: distinguishes operator
    /// *content*, not just family (two jump fields hash differently).
    pub fn cache_key(&self) -> u64 {
        match self {
            StencilOp::Poisson => 0,
            StencilOp::ConstFive {
                cw, ce, cn, cs, cc, ..
            } => {
                let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
                for v in [cw, ce, cn, cs, cc] {
                    h ^= v.to_bits();
                    h = h.rotate_left(17).wrapping_mul(0x0000_0100_0000_01b3);
                }
                h | 1 // never collide with the Poisson key
            }
            StencilOp::Var(c) => c.hash() | 1,
        }
    }

    /// Short display form for logs and bench records.
    pub fn describe(&self) -> String {
        match self {
            StencilOp::Poisson => "poisson".into(),
            StencilOp::ConstFive { cw, .. } => format!("aniso(eps={cw})"),
            StencilOp::Var(c) => format!("var(n={}, hash={:016x})", c.n(), c.hash()),
        }
    }

    /// Debug-check that the operator can serve a grid of side `n`.
    #[inline]
    pub fn assert_n(&self, n: usize) {
        if let Some(bound) = self.bound_n() {
            assert_eq!(
                bound, n,
                "variable-coefficient operator bound to n={bound} used on an n={n} grid"
            );
        }
    }

    /// Compute one interior row of the residual `r = b − A x` into
    /// `out[1..n-1]` (`out[0]`/`out[n-1]` untouched). `i` is the global
    /// row index (selects the coefficient rows of [`StencilOp::Var`]);
    /// `up`/`mid`/`dn` are rows `i-1`, `i`, `i+1` of the solution.
    /// Row `i`'s weights through [`Five::residual_row_into`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn residual_row_into(
        &self,
        i: usize,
        up: &[f64],
        mid: &[f64],
        dn: &[f64],
        brow: &[f64],
        inv_h2: f64,
        out: &mut [f64],
        mode: SimdMode,
    ) {
        with_weights!(self, residual, |weights| weights(i)
            .residual_row_into(up, mid, dn, brow, inv_h2, out, mode))
    }

    /// Update the `color` cells of the interior row `mid` in place —
    /// the Gauss-Seidel/SOR row body shared by the staged half-sweeps
    /// and the temporally blocked wavefront kernels in
    /// `petamg-solvers`. `i` is the **global** row index (fixes the
    /// red/black column phase and selects coefficient rows); `up`/`dn`
    /// are rows `i-1`/`i+1` ([`Grid2d::rows3_mut`] splits all three off
    /// a grid). Row `i`'s weights through [`Five::sor_row_update`].
    ///
    /// # Panics
    /// Panics unless all four rows and every per-cell weight are
    /// `mid.len()` long.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn sor_row_update(
        &self,
        i: usize,
        up: &[f64],
        mid: &mut [f64],
        dn: &[f64],
        brow: &[f64],
        h2: f64,
        omega: f64,
        color: usize,
        mode: SimdMode,
    ) {
        let j0 = first_column(i, color);
        with_weights!(self, relax, |weights| weights(i)
            .sor_row_update(up, mid, dn, brow, h2, omega, j0, mode))
    }

    /// The stencil weights of cell `(i, j)` as `(cw, ce, cn, cs, cc)` —
    /// the assembly view used by the banded direct solver and the test
    /// oracles. (The hot
    /// relaxation/residual kernels never call this; they stream whole
    /// rows.)
    #[inline]
    pub(crate) fn weights_at(&self, i: usize, j: usize) -> (f64, f64, f64, f64, f64) {
        match self {
            StencilOp::Poisson => (1.0, 1.0, 1.0, 1.0, 4.0),
            StencilOp::ConstFive {
                cw, ce, cn, cs, cc, ..
            } => (*cw, *ce, *cn, *cs, *cc),
            StencilOp::Var(cf) => (
                cf.w_row(i)[j],
                cf.e_row(i)[j],
                cf.n_row(i)[j],
                cf.s_row(i)[j],
                cf.diagonal_row(i).at(j),
            ),
        }
    }
}

/// First interior column of `color` in row `i`: cell `(i, j)` has color
/// `(i + j) % 2`, so `j` starts at 1 when `(i + 1) % 2 == color`.
#[inline]
fn first_column(i: usize, color: usize) -> usize {
    if (i + 1) % 2 == color {
        1
    } else {
        2
    }
}
