//! Stencil operators: the 5-point discrete Laplacian, the residual, and
//! the fused residual-restriction kernel.
//!
//! The operator is `A_h u = (4·u_{i,j} − u_{i±1,j} − u_{i,j±1}) / h²` on
//! the interior; boundary values participate as Dirichlet data through
//! the neighbor reads.
//!
//! Hot loops run over **row slices** (three-row stencil windows) rather
//! than `(i, j)` index arithmetic: every inner loop reads from slices of
//! identical length, which lets LLVM drop bounds checks and
//! auto-vectorize the 5-point stencil.
//!
//! [`residual_restrict`] fuses the residual with full-weighting
//! restriction: the fine-grid residual is never materialized. Each
//! residual value is produced by [`Five::residual_row_into`] in both the
//! fused and unfused paths, and the restriction weights are combined in the
//! same order as [`crate::restrict_full_weighting`], so fused and
//! unfused results are **bitwise identical** in both [`SimdMode`]s.

use crate::simd::{self, Five, SimdMode, Weight};
use crate::{coarse_size, Grid2d, Workspace};

#[allow(clippy::too_many_arguments)]
impl<W: Weight, D: Weight> Five<W, D> {
    /// Compute one interior row of the residual `r = b − A x` into
    /// `out[1..n-1]` (`out[0]` and `out[n-1]` are left untouched), for
    /// the row whose stencil weights are `self` (`d` the diagonal).
    ///
    /// `up`/`mid`/`dn` are rows `i-1`, `i`, `i+1` of the solution, `brow`
    /// is row `i` of the right-hand side, and `inv_h2` is the stencil
    /// scaling `1/h²`. This is **the** residual row: every caller —
    /// unfused [`residual`], fused [`residual_restrict`], their operator
    /// forms in `petamg-problems`, and the temporally blocked cycle-edge
    /// kernels in `petamg-solvers` — goes through it, which is what
    /// makes fused and unfused results bitwise equal. The scalar and
    /// vector paths ([`SimdMode`]) evaluate `Five::residual_at` per
    /// column and are bitwise identical too, so `mode` is a pure
    /// performance choice.
    ///
    /// # Panics
    /// Panics unless all five rows and every per-cell weight are
    /// `mid.len()` long.
    #[inline]
    pub fn residual_row_into(
        self,
        up: &[f64],
        mid: &[f64],
        dn: &[f64],
        brow: &[f64],
        inv_h2: f64,
        out: &mut [f64],
        mode: SimdMode,
    ) {
        match mode {
            SimdMode::Vector => simd::residual_row(self, up, mid, dn, brow, inv_h2, out),
            SimdMode::Scalar => {
                let n = mid.len();
                assert!(
                    up.len() == n
                        && dn.len() == n
                        && brow.len() == n
                        && out.len() == n
                        && self.covers(n),
                    "residual row: rows and weights must all hold {n} values"
                );
                for j in 1..n - 1 {
                    let x = [up[j], mid[j - 1], mid[j], mid[j + 1], dn[j]];
                    out[j] = self.residual_at(j, x, brow[j], inv_h2);
                }
            }
        }
    }

    /// Update the color cells `j0, j0+2, …` (`j0 ≥ 1`) of the interior
    /// row `mid` in place — **the** Gauss-Seidel/SOR row, shared by the
    /// staged half-sweeps and the temporally blocked wavefront kernels
    /// in `petamg-solvers` — for the row whose stencil weights are
    /// `self` (`d` the **reciprocal** diagonal). `up`/`dn` are the rows
    /// above and below ([`Grid2d::rows3_mut`] splits them off a grid)
    /// and `brow` the right-hand side's row. Both [`SimdMode`]s
    /// evaluate `Five::relaxed_at` per cell, so they are bitwise
    /// identical.
    ///
    /// # Panics
    /// Panics unless all four rows and every per-cell weight are
    /// `mid.len()` long.
    #[inline]
    pub fn sor_row_update(
        self,
        up: &[f64],
        mid: &mut [f64],
        dn: &[f64],
        brow: &[f64],
        h2: f64,
        omega: f64,
        j0: usize,
        mode: SimdMode,
    ) {
        match mode {
            SimdMode::Vector => simd::sor_row(self, up, mid, dn, brow, h2, omega, j0),
            SimdMode::Scalar => {
                let n = mid.len();
                assert!(
                    up.len() == n && dn.len() == n && brow.len() == n && self.covers(n),
                    "SOR row: rows and weights must all hold {n} values"
                );
                for j in (j0..n - 1).step_by(2) {
                    let x = [up[j], mid[j - 1], mid[j], mid[j + 1], dn[j]];
                    mid[j] = self.relaxed_at(j, x, brow[j], h2, omega);
                }
            }
        }
    }
}

/// `out = A_h x` on the interior; `out`'s boundary ring is zeroed. The
/// tests' operator oracle: the residual kernels are checked against
/// `b − A_h x` computed with it.
///
/// # Panics
/// Panics if sizes differ.
#[cfg(test)]
pub(crate) fn apply_operator(x: &Grid2d, out: &mut Grid2d) {
    assert_eq!(x.n(), out.n(), "size mismatch in apply_operator");
    let inv_h2 = x.inv_h2();
    for (i, out_row) in out.interior_rows_mut() {
        let (up, mid, dn) = (x.row(i - 1), x.row(i), x.row(i + 1));
        for j in 1..mid.len() - 1 {
            let v = 4.0 * mid[j] - up[j] - dn[j] - mid[j - 1] - mid[j + 1];
            out_row[j] = v * inv_h2;
        }
    }
    zero_boundary_ring(out);
}

/// `r = b − A_h x` on the interior; `r`'s boundary ring is zeroed
/// (the Dirichlet condition is satisfied exactly, so the boundary
/// residual is zero by construction).
///
/// # Panics
/// Panics if sizes differ.
// `&SimdMode` pinned by benchmark/src/probes.rs; ROADMAP 1(i) makes it by value.
pub fn residual(x: &Grid2d, b: &Grid2d, r: &mut Grid2d, mode: &SimdMode) {
    residual_with(|_| Five::POISSON, x, b, r, *mode);
}

/// [`residual`] for any five-point operator: `weights(i)` is the
/// stencil of row `i` (`d` the diagonal). This is the one residual
/// traversal; `petamg-problems` picks `weights` per operator family.
///
/// # Panics
/// Panics if sizes differ or a per-cell weight row is not `n` long.
pub fn residual_with<W: Weight, D: Weight>(
    weights: impl Fn(usize) -> Five<W, D> + Sync,
    x: &Grid2d,
    b: &Grid2d,
    r: &mut Grid2d,
    mode: SimdMode,
) {
    assert_eq!(x.n(), b.n(), "size mismatch in residual (x vs b)");
    assert_eq!(x.n(), r.n(), "size mismatch in residual (x vs r)");
    let inv_h2 = x.inv_h2();
    for (i, out_row) in r.interior_rows_mut() {
        weights(i).residual_row_into(
            x.row(i - 1),
            x.row(i),
            x.row(i + 1),
            b.row(i),
            inv_h2,
            out_row,
            mode,
        );
    }
    zero_boundary_ring(r);
}

/// `‖b − A x‖₂` over the interior for the five-point operator whose
/// row-`i` stencil is `weights(i)`, without a residual grid: each
/// residual row goes into a row buffer leased from `ws`, is reduced by
/// the same fixed-lane sum of squares [`crate::l2_norm_interior`] uses,
/// and the rows are summed in ascending order, as that norm sums them.
/// So the result is bitwise [`residual_with`] followed by
/// [`crate::l2_norm_interior`] under the same `mode`, at one traversal
/// of `x` and `b` and no `n²` write.
///
/// # Panics
/// Panics if sizes differ or a per-cell weight row is not `n` long.
pub fn residual_norm_with<W: Weight, D: Weight>(
    weights: impl Fn(usize) -> Five<W, D> + Sync,
    x: &Grid2d,
    b: &Grid2d,
    ws: &Workspace,
    mode: SimdMode,
) -> f64 {
    assert_eq!(x.n(), b.n(), "size mismatch in residual_norm (x vs b)");
    let n = x.n();
    let inv_h2 = x.inv_h2();
    let sum: f64 = (1..n - 1)
        .map(|i| {
            // Unzeroed lease: the residual row writes exactly the
            // interior columns the reduction reads.
            let mut out = ws.acquire_buffer_unzeroed(n);
            weights(i).residual_row_into(
                x.row(i - 1),
                x.row(i),
                x.row(i + 1),
                b.row(i),
                inv_h2,
                &mut out,
                mode,
            );
            simd::sum_sq(&out[1..n - 1], mode)
        })
        .sum();
    sum.sqrt()
}

/// Combine three fine rows (`2ic-1`, `2ic`, `2ic+1` for coarse row
/// `ic`) into one coarse row by full weighting, writing
/// `coarse_row[1..nc-1]`. Weight order matches
/// [`crate::restrict_full_weighting`] exactly (which itself runs
/// through this primitive), so compositions built from it stay bitwise
/// equal to the unfused reference — in both [`SimdMode`]s.
///
/// # Panics
/// Panics unless each fine row holds `2nc − 1` values, `nc =
/// coarse_row.len()`.
#[inline]
pub fn restrict_rows_into(
    r_up: &[f64],
    r_mid: &[f64],
    r_dn: &[f64],
    coarse_row: &mut [f64],
    mode: SimdMode,
) {
    match mode {
        SimdMode::Vector => simd::restrict_row(r_up, r_mid, r_dn, coarse_row),
        SimdMode::Scalar => {
            let nc = coarse_row.len();
            let nf = 2 * nc - 1;
            assert!(
                r_up.len() == nf && r_mid.len() == nf && r_dn.len() == nf,
                "restriction row: fine rows must hold {nf} values"
            );
            for (jc, out) in coarse_row.iter_mut().enumerate().take(nc - 1).skip(1) {
                let fj = 2 * jc;
                let center = r_mid[fj];
                let edges = r_up[fj] + r_dn[fj] + r_mid[fj - 1] + r_mid[fj + 1];
                let corners = r_up[fj - 1] + r_up[fj + 1] + r_dn[fj - 1] + r_dn[fj + 1];
                *out = (4.0 * center + 2.0 * edges + corners) / 16.0;
            }
        }
    }
}

/// Fused kernel: compute the residual `r = b − A_h x` and full-weighting
/// restrict it into `coarse` in a single traversal, never materializing
/// the fine-grid residual. `coarse`'s boundary ring is zeroed.
///
/// Bitwise identical to `residual` + `restrict_full_weighting` in both
/// [`SimdMode`]s: each residual value comes from
/// [`Five::residual_row_into`] and each weighted sum from
/// [`restrict_rows_into`].
///
/// The fine residual rows stream through three rotating thirds of one
/// buffer leased from `ws`, so advancing to the next coarse row
/// computes exactly two new fine rows and every fine row is computed
/// once.
///
/// ```
/// use petamg_grid::{residual_restrict, coarse_size, Grid2d, SimdMode, Workspace};
///
/// let n = 9;
/// let x = Grid2d::from_fn(n, |i, j| (i * j) as f64);
/// let b = Grid2d::from_fn(n, |_, _| 1.0);
/// let ws = Workspace::new();
/// let mut coarse = Grid2d::zeros(coarse_size(n));
/// residual_restrict(&x, &b, &mut coarse, &ws, &SimdMode::host());
/// assert_eq!(coarse.at(0, 0), 0.0); // boundary ring is zeroed
/// ```
///
/// # Panics
/// Panics if sizes differ or are not a coarse/fine pair.
// `&SimdMode` pinned by benchmark/src/probes.rs; ROADMAP 1(i) makes it by value.
pub fn residual_restrict(
    x: &Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    ws: &Workspace,
    mode: &SimdMode,
) {
    residual_restrict_with(|_| Five::POISSON, x, b, coarse, ws, *mode);
}

/// [`residual_restrict`] for any five-point operator: `weights(i)` is
/// the stencil of fine row `i` (`d` the diagonal). This is the one
/// fused traversal; it is bitwise identical to [`residual_with`] +
/// [`crate::restrict_full_weighting`].
///
/// # Panics
/// Panics if sizes differ, are not a coarse/fine pair, or a per-cell
/// weight row is not `n` long.
pub fn residual_restrict_with<W: Weight, D: Weight>(
    weights: impl Fn(usize) -> Five<W, D> + Sync,
    x: &Grid2d,
    b: &Grid2d,
    coarse: &mut Grid2d,
    ws: &Workspace,
    mode: SimdMode,
) {
    assert_eq!(x.n(), b.n(), "size mismatch in residual_restrict");
    let n = x.n();
    let nc = coarse.n();
    assert_eq!(
        nc,
        coarse_size(n),
        "coarse grid size mismatch in residual_restrict"
    );
    let inv_h2 = x.inv_h2();

    // A coarse grid of side 2 has no interior row to restrict into.
    if nc > 2 {
        // Rolling window: residual rows 2ic-1, 2ic, 2ic+1 live in three
        // rotating thirds of one leased buffer.
        //
        // Unzeroed lease: the residual row writes indices 1..n-1 of
        // each third and restrict_rows_into reads only 1..n-1, so stale
        // pool contents are never observed.
        let mut buf = ws.acquire_buffer_unzeroed(3 * n);
        let (a, rest) = buf.split_at_mut(n);
        let (bb, c) = rest.split_at_mut(n);
        let mut rows = [a, bb, c];
        let res_row = |fi: usize, out: &mut [f64]| {
            weights(fi).residual_row_into(
                x.row(fi - 1),
                x.row(fi),
                x.row(fi + 1),
                b.row(fi),
                inv_h2,
                out,
                mode,
            );
        };
        // Prime the window for coarse row 1 (fine rows 1, 2, 3).
        res_row(1, rows[0]);
        res_row(2, rows[1]);
        res_row(3, rows[2]);
        for (ic, crow) in coarse.interior_rows_mut() {
            restrict_rows_into(rows[0], rows[1], rows[2], crow, mode);
            if ic + 2 < nc {
                // Slide to fine rows 2ic+1, 2ic+2, 2ic+3.
                rows.rotate_left(2);
                res_row(2 * ic + 2, rows[1]);
                res_row(2 * ic + 3, rows[2]);
            }
        }
    }

    // Zero the coarse boundary ring (residuals vanish on the Dirichlet
    // boundary, exactly as in `restrict_full_weighting`).
    zero_boundary_ring(coarse);
}

/// Zero a grid's boundary ring, leaving the interior untouched.
///
/// This is **the** Dirichlet ring-zero every residual/restriction path
/// shares ([`residual`], [`residual_restrict`],
/// [`crate::restrict_full_weighting`], and the fused cycle-edge kernels
/// in `petamg-solvers`): residuals and restricted residuals vanish on
/// the Dirichlet boundary by construction, so a single helper keeps the
/// fused and unfused paths from ever diverging on boundary semantics.
pub fn zero_boundary_ring(g: &mut Grid2d) {
    let n = g.n();
    for j in 0..n {
        g.set(0, j, 0.0);
        g.set(n - 1, j, 0.0);
    }
    for i in 1..n - 1 {
        g.set(i, 0, 0.0);
        g.set(i, n - 1, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restrict_full_weighting;

    /// u(x,y) = x² + y² has ∇²u = 4, so A_h u = -∇²u ... with our sign
    /// convention A_h u = (4u - Σ neighbors)/h² = -(u_xx + u_yy) = -4
    /// exactly (the 5-point stencil is exact on quadratics).
    #[test]
    fn laplacian_exact_on_quadratic() {
        let n = 17;
        let h = 1.0 / (n as f64 - 1.0);
        let u = Grid2d::from_fn(n, |i, j| {
            let (x, y) = (j as f64 * h, i as f64 * h);
            x * x + y * y
        });
        let mut out = Grid2d::zeros(n);
        apply_operator(&u, &mut out);
        for (i, j) in u.interior() {
            assert!(
                (out.at(i, j) - (-4.0)).abs() < 1e-9,
                "A_h u at ({i},{j}) = {}",
                out.at(i, j)
            );
        }
    }

    #[test]
    fn laplacian_of_constant_is_zero_interior_only() {
        // A constant grid: stencil cancels exactly everywhere inside.
        let u = Grid2d::from_fn(9, |_, _| 5.0);
        let mut out = Grid2d::from_fn(9, |_, _| 7.0);
        apply_operator(&u, &mut out);
        for (i, j) in u.interior() {
            assert_eq!(out.at(i, j), 0.0);
        }
        assert_eq!(out.at(0, 0), 0.0, "boundary must be zeroed");
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let n = 9;
        let h = 1.0 / (n as f64 - 1.0);
        // u = x²+y², f = A_h u = -4 (exact on quadratics).
        let u = Grid2d::from_fn(n, |i, j| {
            let (x, y) = (j as f64 * h, i as f64 * h);
            x * x + y * y
        });
        let b = Grid2d::from_fn(n, |_, _| -4.0);
        let mut r = Grid2d::from_fn(n, |_, _| 1.0);
        residual(&u, &b, &mut r, &SimdMode::host());
        for (i, j) in u.interior() {
            assert!(r.at(i, j).abs() < 1e-8, "r({i},{j}) = {}", r.at(i, j));
        }
    }

    #[test]
    fn residual_equals_b_minus_au() {
        let u = Grid2d::from_fn(9, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Grid2d::from_fn(9, |i, j| ((i * 7 + j * 3) % 11) as f64);
        let mut au = Grid2d::zeros(9);
        let mut r = Grid2d::zeros(9);
        apply_operator(&u, &mut au);
        residual(&u, &b, &mut r, &SimdMode::host());
        for (i, j) in u.interior() {
            assert!(
                (r.at(i, j) - (b.at(i, j) - au.at(i, j))).abs() < 1e-9,
                "identity fails at ({i},{j})"
            );
        }
    }

    #[test]
    fn operator_uses_boundary_values() {
        // Interior all zero, boundary all one: A x at points adjacent to
        // the boundary feels the boundary value.
        let n = 5;
        let mut x = Grid2d::zeros(n);
        x.set_boundary(|_, _| 1.0);
        let mut out = Grid2d::zeros(n);
        apply_operator(&x, &mut out);
        let inv_h2 = x.inv_h2();
        // Corner-adjacent interior point (1,1): two boundary neighbors.
        assert!((out.at(1, 1) - (-2.0 * inv_h2)).abs() < 1e-9);
        // Center (2,2): no boundary neighbors.
        assert_eq!(out.at(2, 2), 0.0);
    }

    #[test]
    fn fused_residual_restrict_bitwise_equals_unfused() {
        let ws = Workspace::new();
        for n in [5usize, 9, 17, 33, 65] {
            let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
            let nc = coarse_size(n);
            let e = SimdMode::host();

            let mut r = Grid2d::zeros(n);
            residual(&x, &b, &mut r, &e);
            let mut want = Grid2d::zeros(nc);
            restrict_full_weighting(&r, &mut want, e);

            let mut got = Grid2d::from_fn(nc, |_, _| 42.0);
            residual_restrict(&x, &b, &mut got, &ws, &e);
            assert_eq!(got.as_slice(), want.as_slice(), "n = {n}");
        }
    }

    #[test]
    fn residual_norm_is_residual_then_norm_bit_for_bit() {
        let ws = Workspace::new();
        for n in [3usize, 5, 6, 7, 9, 17, 33] {
            let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
            let w: Vec<f64> = (0..n).map(|j| 0.5 + (j % 5) as f64 / 4.0).collect();
            let e: Vec<f64> = (0..n).map(|j| 0.7 + (j % 3) as f64 / 8.0).collect();
            let face = |_: usize| Five {
                w: &w[..],
                e: &e[..],
                n: &e[..],
                s: &w[..],
                d: simd::FaceSum::new(&w, &e, &e, &w),
            };
            for mode in [crate::SimdMode::Scalar, crate::SimdMode::Vector] {
                let mut r = Grid2d::zeros(n);
                residual(&x, &b, &mut r, &mode);
                let want = crate::l2_norm_interior(&r, &mode);
                let got = residual_norm_with(|_| Five::POISSON, &x, &b, &ws, mode);
                assert_eq!(got.to_bits(), want.to_bits(), "poisson n={n} {mode:?}");
                residual_with(face, &x, &b, &mut r, mode);
                let want = crate::l2_norm_interior(&r, &mode);
                let got = residual_norm_with(face, &x, &b, &ws, mode);
                assert_eq!(got.to_bits(), want.to_bits(), "face sum n={n} {mode:?}");
            }
        }
    }

    /// Each safe row entry point panics on a row one value short, in
    /// both modes, instead of reading or writing past it.
    #[test]
    fn a_short_row_panics_in_every_mode() {
        let (n, nc) = (17, 9);
        let (row, short) = (vec![1.0; n], vec![1.0; n - 1]);
        let coarse = vec![1.0; nc * nc];
        type Case<'a> = (&'static str, Box<dyn Fn() + 'a>);
        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            let cases: [Case; 4] = [
                (
                    "restrict_rows_into, r_up",
                    Box::new(|| restrict_rows_into(&short, &row, &row, &mut [0.0; 9], mode)),
                ),
                (
                    "restrict_rows_into, r_dn",
                    Box::new(|| restrict_rows_into(&row, &row, &short, &mut [0.0; 9], mode)),
                ),
                (
                    "interpolate_correct_row, frow",
                    Box::new(|| {
                        crate::interpolate_correct_row(3, &coarse, nc, &mut short.clone(), mode)
                    }),
                ),
                (
                    "sor_row_update, dn",
                    Box::new(|| {
                        let mid = &mut row.clone();
                        Five::POISSON.sor_row_update(&row, mid, &short, &row, 0.01, 1.0, 1, mode)
                    }),
                ),
            ];
            for (entry, case) in cases {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case));
                assert!(outcome.is_err(), "{entry} accepted a short row ({mode:?})");
            }
        }
    }

    #[test]
    fn fused_steady_state_allocates_nothing() {
        let ws = Workspace::new();
        let n = 33;
        let x = Grid2d::from_fn(n, |i, j| (i + j) as f64);
        let b = Grid2d::from_fn(n, |i, j| (i * j) as f64);
        let mut c = Grid2d::zeros(coarse_size(n));
        residual_restrict(&x, &b, &mut c, &ws, &SimdMode::host());
        let warm = ws.stats().allocations;
        for _ in 0..10 {
            residual_restrict(&x, &b, &mut c, &ws, &SimdMode::host());
        }
        assert_eq!(
            ws.stats().allocations,
            warm,
            "steady state must not allocate"
        );
    }
}
