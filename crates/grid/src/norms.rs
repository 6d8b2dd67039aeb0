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
//! and the row sums are added in ascending row order, so norm results
//! are bitwise identical across scalar/vector modes and across runs.

use crate::simd;
use crate::{Grid2d, SimdMode};

#[inline]
fn interior_row(g: &Grid2d, i: usize) -> &[f64] {
    let n = g.n();
    &g.as_slice()[i * n + 1..(i + 1) * n - 1]
}

/// L2 norm of the interior: `sqrt(Σ g(i,j)²)`.
// `&SimdMode` pinned by benchmark/src/{probes,workloads}.rs; ROADMAP 1(i) makes it by value.
pub fn l2_norm_interior(g: &Grid2d, mode: &SimdMode) -> f64 {
    let n = g.n();
    let sum: f64 = (1..n - 1)
        .map(|i| simd::sum_sq(interior_row(g, i), *mode))
        .sum();
    sum.sqrt()
}

/// L2 norm of the interior difference `‖a − b‖₂`.
///
/// # Panics
/// Panics if sizes differ.
pub fn l2_diff(a: &Grid2d, b: &Grid2d, mode: SimdMode) -> f64 {
    assert_eq!(a.n(), b.n(), "size mismatch in l2_diff");
    let n = a.n();
    let sum: f64 = (1..n - 1)
        .map(|i| simd::sum_sq_diff(interior_row(a, i), interior_row(b, i), mode))
        .sum();
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_of_ones_is_sqrt_count() {
        let g = Grid2d::from_fn(5, |_, _| 1.0);
        let norm = l2_norm_interior(&g, &SimdMode::host());
        assert!((norm - 3.0).abs() < 1e-12); // 9 interior points
    }

    #[test]
    fn boundary_is_excluded() {
        let mut g = Grid2d::zeros(5);
        g.set_boundary(|_, _| 1e9);
        assert_eq!(l2_norm_interior(&g, &SimdMode::host()), 0.0);
    }

    #[test]
    fn diff_norms_are_symmetric_and_zero_on_equal() {
        let a = Grid2d::from_fn(9, |i, j| (i * j) as f64);
        let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
        let mode = SimdMode::host();
        assert_eq!(l2_diff(&a, &a, mode), 0.0);
        assert!((l2_diff(&a, &b, mode) - l2_diff(&b, &a, mode)).abs() < 1e-12);
    }

    #[test]
    fn scalar_and_vector_norms_are_bitwise_identical() {
        // Both modes run the fixed-lane deterministic tree reduction —
        // results must agree bit for bit at every size (tails 0..=3).
        for n in [3usize, 4, 5, 6, 7, 9, 17, 33] {
            let a = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 7) % 101) as f64 / 9.0 - 5.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 89) % 97) as f64 / 3.0 - 16.0);
            assert_eq!(
                l2_norm_interior(&a, &SimdMode::Scalar).to_bits(),
                l2_norm_interior(&a, &SimdMode::Vector).to_bits(),
                "l2 n={n}"
            );
            assert_eq!(
                l2_diff(&a, &b, SimdMode::Scalar).to_bits(),
                l2_diff(&a, &b, SimdMode::Vector).to_bits(),
                "l2_diff n={n}"
            );
        }
    }
}
