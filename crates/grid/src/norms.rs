//! Norms over grid interiors, used by the accuracy metric
//! `‖x_in − x_opt‖₂ / ‖x_out − x_opt‖₂` (paper §2.2).
//!
//! All norms run over the **interior** only: solutions share Dirichlet
//! boundary data, so boundary differences are identically zero and
//! including them would only add noise at the `1e-16` level.
//!
//! Per-row accumulation runs through the SIMD layer's **fixed-lane
//! deterministic tree reduction** (see [`crate::simd`]): four lane
//! accumulators combined as `(a0 + a1) + (a2 + a3)`, tails folded
//! sequentially. Both [`crate::SimdMode`]s execute this same algorithm,
//! so norm results are bitwise identical across scalar/vector modes and
//! across runs for a fixed [`Exec`] policy — the row-to-row reduction
//! tree is the `Exec` policy's, as before.

use crate::simd;
use crate::{Exec, Grid2d};

#[inline]
fn interior_row(g: &Grid2d, i: usize) -> &[f64] {
    let n = g.n();
    &g.as_slice()[i * n + 1..(i + 1) * n - 1]
}

/// L2 norm of the interior: `sqrt(Σ g(i,j)²)`.
pub fn l2_norm_interior(g: &Grid2d, exec: &Exec) -> f64 {
    let n = g.n();
    let mode = exec.simd();
    let sum = exec.sum_rows(1, n - 1, |i| simd::sum_sq(interior_row(g, i), mode));
    sum.sqrt()
}

/// Max (infinity) norm of the interior.
pub fn max_norm_interior(g: &Grid2d, exec: &Exec) -> f64 {
    let n = g.n();
    let mode = exec.simd();
    exec.max_rows(1, n - 1, |i| simd::max_abs(interior_row(g, i), mode))
}

/// L2 norm of the interior difference `‖a − b‖₂`.
///
/// # Panics
/// Panics if sizes differ.
pub fn l2_diff(a: &Grid2d, b: &Grid2d, exec: &Exec) -> f64 {
    assert_eq!(a.n(), b.n(), "size mismatch in l2_diff");
    let n = a.n();
    let mode = exec.simd();
    let sum = exec.sum_rows(1, n - 1, |i| {
        simd::sum_sq_diff(interior_row(a, i), interior_row(b, i), mode)
    });
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimdPolicy;

    #[test]
    fn l2_of_ones_is_sqrt_count() {
        let g = Grid2d::from_fn(5, |_, _| 1.0);
        let norm = l2_norm_interior(&g, &Exec::seq());
        assert!((norm - 3.0).abs() < 1e-12); // 9 interior points
    }

    #[test]
    fn boundary_is_excluded() {
        let mut g = Grid2d::zeros(5);
        g.set_boundary(|_, _| 1e9);
        assert_eq!(l2_norm_interior(&g, &Exec::seq()), 0.0);
        assert_eq!(max_norm_interior(&g, &Exec::seq()), 0.0);
    }

    #[test]
    fn diff_norms_are_symmetric_and_zero_on_equal() {
        let a = Grid2d::from_fn(9, |i, j| (i * j) as f64);
        let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
        let e = Exec::seq();
        assert_eq!(l2_diff(&a, &a, &e), 0.0);
        assert!((l2_diff(&a, &b, &e) - l2_diff(&b, &a, &e)).abs() < 1e-12);
    }

    #[test]
    fn max_norm_finds_peak() {
        let mut g = Grid2d::zeros(7);
        g.set(3, 2, -42.0);
        g.set(5, 5, 17.0);
        assert_eq!(max_norm_interior(&g, &Exec::seq()), 42.0);
    }

    #[test]
    fn parallel_norms_close_to_sequential() {
        let g = Grid2d::from_fn(65, |i, j| ((i * 31 + j * 7) % 101) as f64 / 9.0 - 5.0);
        let reference = l2_norm_interior(&g, &Exec::seq());
        for exec in [Exec::pbrt(2).with_grain(3), Exec::pbrt(3).with_grain(3)] {
            let v = l2_norm_interior(&g, &exec);
            assert!(
                (v - reference).abs() <= 1e-12 * reference,
                "{exec:?}: {v} vs {reference}"
            );
            assert_eq!(
                max_norm_interior(&g, &exec),
                max_norm_interior(&g, &Exec::seq())
            );
        }
    }

    #[test]
    fn scalar_and_vector_norms_are_bitwise_identical() {
        // Both modes run the fixed-lane deterministic tree reduction —
        // results must agree bit for bit at every size (tails 0..=3).
        let e_s = Exec::seq().with_simd(SimdPolicy::Scalar);
        let e_v = Exec::seq().with_simd(SimdPolicy::Vector);
        for n in [3usize, 4, 5, 6, 7, 9, 17, 33] {
            let a = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 7) % 101) as f64 / 9.0 - 5.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 89) % 97) as f64 / 3.0 - 16.0);
            assert_eq!(
                l2_norm_interior(&a, &e_s).to_bits(),
                l2_norm_interior(&a, &e_v).to_bits(),
                "l2 n={n}"
            );
            assert_eq!(
                l2_diff(&a, &b, &e_s).to_bits(),
                l2_diff(&a, &b, &e_v).to_bits(),
                "l2_diff n={n}"
            );
            assert_eq!(max_norm_interior(&a, &e_s), max_norm_interior(&a, &e_v));
        }
    }
}
