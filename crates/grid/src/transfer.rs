//! Inter-grid transfer operators: full-weighting restriction and bilinear
//! interpolation (the paper's lines "Compute the residual and restrict to
//! half resolution" and "Interpolate result and add correction term").
//!
//! Two implementations coexist:
//!
//! * the **reference** kernels ([`restrict_full_weighting`],
//!   [`interpolate_add`], [`interpolate_into`]) keep the original
//!   per-point formulation (a `match` on point parity for
//!   interpolation) — they define the semantics;
//! * [`interpolate_correct`] is the hot-path kernel: bilinear
//!   interpolation **added** directly into the fine solution with
//!   row-parity specialized loops over row slices (no per-element parity
//!   branch), bitwise identical to [`interpolate_add`] in both
//!   [`SimdMode`]s because each output value is combined with the same
//!   expression.

use crate::simd::{self, SimdMode};
use crate::{coarse_size, restrict_rows_into, zero_boundary_ring, Grid2d};

/// Full-weighting restriction of `fine` into `coarse` (overwrite):
///
/// ```text
///             1  [ 1 2 1 ]
/// coarse =   --- [ 2 4 2 ]  applied at fine(2I, 2J)
///            16  [ 1 2 1 ]
/// ```
///
/// The coarse boundary ring is zeroed: restriction is applied to
/// residuals, which vanish on the Dirichlet boundary.
///
/// # Panics
/// Panics if `coarse.n() != (fine.n()-1)/2 + 1`.
pub fn restrict_full_weighting(fine: &Grid2d, coarse: &mut Grid2d, mode: SimdMode) {
    let nc = coarse.n();
    let nf = fine.n();
    assert_eq!(
        nc,
        coarse_size(nf),
        "coarse grid size mismatch in restriction"
    );
    for (ic, crow) in coarse.interior_rows_mut() {
        let fi = 2 * ic;
        // The shared full-weighting row primitive defines the weight
        // order for every restriction path, fused or not.
        restrict_rows_into(fine.row(fi - 1), fine.row(fi), fine.row(fi + 1), crow, mode);
    }
    // Zero coarse boundary.
    zero_boundary_ring(coarse);
}

/// Injection restriction: `coarse(I,J) = fine(2I,2J)` including the
/// boundary ring. Used when a full *problem* (not a residual) moves to a
/// coarser grid, e.g. seeding reference full-multigrid.
pub fn restrict_inject(fine: &Grid2d, coarse: &mut Grid2d) {
    let nc = coarse.n();
    assert_eq!(
        nc,
        coarse_size(fine.n()),
        "coarse grid size mismatch in injection"
    );
    for ic in 0..nc {
        for jc in 0..nc {
            coarse.set(ic, jc, fine.at(2 * ic, 2 * jc));
        }
    }
}

/// Bilinear interpolation of `coarse`, **added** into `fine`'s interior:
/// the multigrid correction step `x += P e`. Reference formulation.
///
/// Coincident points take the coarse value; edge midpoints average two
/// neighbors; cell centers average four. Only interior fine points are
/// updated (corrections vanish on the boundary).
///
/// # Panics
/// Panics if sizes are not a coarse/fine pair.
pub fn interpolate_add(coarse: &Grid2d, fine: &mut Grid2d) {
    interpolate_impl(coarse, fine, true);
}

/// Bilinear interpolation of `coarse`, **overwriting** `fine`'s interior.
/// Used by full multigrid to lift a coarse estimate to the fine grid.
pub fn interpolate_into(coarse: &Grid2d, fine: &mut Grid2d) {
    interpolate_impl(coarse, fine, false);
}

fn interpolate_impl(coarse: &Grid2d, fine: &mut Grid2d, add: bool) {
    let nf = fine.n();
    let nc = coarse.n();
    assert_eq!(nc, coarse_size(nf), "grid size mismatch in interpolation");
    let c = |i: usize, j: usize| coarse.at(i, j);
    for (fi, frow) in fine.interior_rows_mut() {
        let ic = fi / 2;
        let i_even = fi % 2 == 0;
        for (fj, out) in frow.iter_mut().enumerate().take(nf - 1).skip(1) {
            let jc = fj / 2;
            let j_even = fj % 2 == 0;
            let v = match (i_even, j_even) {
                (true, true) => c(ic, jc),
                (true, false) => 0.5 * (c(ic, jc) + c(ic, jc + 1)),
                (false, true) => 0.5 * (c(ic, jc) + c(ic + 1, jc)),
                (false, false) => {
                    0.25 * (c(ic, jc) + c(ic, jc + 1) + c(ic + 1, jc) + c(ic + 1, jc + 1))
                }
            };
            if add {
                *out += v;
            } else {
                *out = v;
            }
        }
    }
}

/// Add the bilinear interpolation of `coarse` into one interior fine
/// row, with row-parity specialized loops over row slices.
///
/// `fi` is the fine row index (`1..nf-1`), `frow` the full fine row of
/// `nf = 2*(nc-1)+1` values (`frow[0]` and `frow[nf-1]` are left
/// untouched), `cs` the coarse grid's row-major buffer with side `nc`.
/// Every output value is combined with the same expression as
/// [`interpolate_correct`], which builds the fused kernel from this
/// primitive; the sequential wavefront of the post-relaxation cycle
/// edge in `petamg-solvers` reuses it row by row, keeping all paths
/// bitwise identical to [`interpolate_add`].
///
/// # Panics
/// Panics unless `frow` holds `2nc − 1` values and `cs` the coarse rows
/// `fi` reads.
#[inline]
pub fn interpolate_correct_row(fi: usize, cs: &[f64], nc: usize, frow: &mut [f64], mode: SimdMode) {
    let nf = 2 * nc - 1;
    assert!(
        frow.len() == nf,
        "interpolation row: the fine row must hold {nf} values"
    );
    let ic = fi / 2;
    let c0 = &cs[ic * nc..(ic + 1) * nc];
    if fi.is_multiple_of(2) {
        // Coincident row: even columns take the coarse value, odd
        // columns average horizontal neighbors.
        frow[1] += 0.5 * (c0[0] + c0[1]);
        match mode {
            SimdMode::Vector => simd::interp_row_even(c0, frow),
            SimdMode::Scalar => {
                for jc in 1..nc - 1 {
                    frow[2 * jc] += c0[jc];
                    frow[2 * jc + 1] += 0.5 * (c0[jc] + c0[jc + 1]);
                }
            }
        }
    } else {
        // Midpoint row: even columns average vertical neighbors, odd
        // columns average the four surrounding coarse values.
        let c1 = &cs[(ic + 1) * nc..(ic + 2) * nc];
        frow[1] += 0.25 * (c0[0] + c0[1] + c1[0] + c1[1]);
        match mode {
            SimdMode::Vector => simd::interp_row_odd(c0, c1, frow),
            SimdMode::Scalar => {
                for jc in 1..nc - 1 {
                    frow[2 * jc] += 0.5 * (c0[jc] + c1[jc]);
                    frow[2 * jc + 1] += 0.25 * (c0[jc] + c0[jc + 1] + c1[jc] + c1[jc + 1]);
                }
            }
        }
    }
}

/// Fused correction kernel: bilinear interpolation of `coarse` added
/// directly into `fine`'s interior (`x += P e`), with row-parity
/// specialized row-slice loops. Bitwise identical to
/// [`interpolate_add`]; measurably faster because the per-element parity
/// `match` and index arithmetic are gone and the even/odd column updates
/// auto-vectorize.
///
/// # Panics
/// Panics if sizes are not a coarse/fine pair.
// `&SimdMode` pinned by benchmark/src/probes.rs; ROADMAP 1(i) makes it by value.
pub fn interpolate_correct(coarse: &Grid2d, fine: &mut Grid2d, mode: &SimdMode) {
    let nf = fine.n();
    let nc = coarse.n();
    assert_eq!(nc, coarse_size(nf), "grid size mismatch in interpolation");
    let cs = coarse.as_slice();
    for (fi, frow) in fine.interior_rows_mut() {
        interpolate_correct_row(fi, cs, nc, frow, *mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restriction_of_constant_is_constant() {
        let fine = Grid2d::from_fn(9, |_, _| 3.0);
        let mut coarse = Grid2d::zeros(5);
        restrict_full_weighting(&fine, &mut coarse, SimdMode::host());
        for (i, j) in coarse.interior() {
            assert!((coarse.at(i, j) - 3.0).abs() < 1e-12);
        }
        assert_eq!(coarse.at(0, 0), 0.0, "coarse boundary zeroed");
    }

    #[test]
    fn restriction_weights_sum_to_one() {
        // Delta at a coincident fine point -> coarse gets 4/16 there.
        let mut fine = Grid2d::zeros(9);
        fine.set(4, 4, 16.0);
        let mut coarse = Grid2d::zeros(5);
        restrict_full_weighting(&fine, &mut coarse, SimdMode::host());
        assert!((coarse.at(2, 2) - 4.0).abs() < 1e-12);
        // Delta at an edge-midpoint fine point -> weight 2/16 to the two
        // adjacent coarse points.
        let mut fine = Grid2d::zeros(9);
        fine.set(4, 3, 16.0);
        let mut coarse = Grid2d::zeros(5);
        restrict_full_weighting(&fine, &mut coarse, SimdMode::host());
        assert!((coarse.at(2, 1) - 2.0).abs() < 1e-12);
        assert!((coarse.at(2, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn injection_copies_coincident_points() {
        let fine = Grid2d::from_fn(9, |i, j| (i * 100 + j) as f64);
        let mut coarse = Grid2d::zeros(5);
        restrict_inject(&fine, &mut coarse);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(coarse.at(i, j), fine.at(2 * i, 2 * j));
            }
        }
    }

    #[test]
    fn interpolation_reproduces_bilinear_functions() {
        // Interpolating u(x,y) = 1 + 2x + 3y + xy (bilinear) is exact.
        let nc = 5;
        let nf = 9;
        let hc = 1.0 / (nc as f64 - 1.0);
        let hf = 1.0 / (nf as f64 - 1.0);
        let f = |x: f64, y: f64| 1.0 + 2.0 * x + 3.0 * y + x * y;
        let coarse = Grid2d::from_fn(nc, |i, j| f(j as f64 * hc, i as f64 * hc));
        let mut fine = Grid2d::zeros(nf);
        interpolate_into(&coarse, &mut fine);
        for (i, j) in fine.interior() {
            // Bilinear interpolation between coarse cells is exact for
            // functions bilinear *within each coarse cell*; x*y is.
            let expected = f(j as f64 * hf, i as f64 * hf);
            assert!(
                (fine.at(i, j) - expected).abs() < 1e-12,
                "({i},{j}): {} vs {expected}",
                fine.at(i, j)
            );
        }
    }

    #[test]
    fn interpolate_add_accumulates() {
        let coarse = Grid2d::from_fn(5, |_, _| 1.0);
        let mut fine = Grid2d::from_fn(9, |_, _| 10.0);
        interpolate_add(&coarse, &mut fine);
        for (i, j) in fine.interior() {
            assert!((fine.at(i, j) - 11.0).abs() < 1e-12);
        }
        // Boundary untouched.
        assert_eq!(fine.at(0, 0), 10.0);
        assert_eq!(fine.at(8, 3), 10.0);
    }

    #[test]
    fn fused_correct_bitwise_equals_interpolate_add() {
        for (nc, nf) in [(3usize, 5usize), (5, 9), (9, 17), (17, 33)] {
            let coarse = Grid2d::from_fn(nc, |i, j| ((i * 31 + j * 7) % 13) as f64 / 3.0 - 2.0);
            let base = Grid2d::from_fn(nf, |i, j| ((i * 17 + j * 5) % 11) as f64 - 5.0);
            let e = SimdMode::host();

            let mut want = base.clone();
            interpolate_add(&coarse, &mut want);
            let mut got = base.clone();
            interpolate_correct(&coarse, &mut got, &e);
            assert_eq!(got.as_slice(), want.as_slice(), "nf = {nf}");
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn restriction_size_mismatch_panics() {
        let fine = Grid2d::zeros(9);
        let mut coarse = Grid2d::zeros(7);
        restrict_full_weighting(&fine, &mut coarse, SimdMode::host());
    }
}
