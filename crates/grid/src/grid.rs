//! The square grid container.

use serde::{Deserialize, Serialize};

/// Grid side length at multigrid level `k`: `N = 2^k + 1`.
///
/// Level 1 is the 3×3 base case whose single interior point the paper
/// solves directly.
#[inline]
pub fn level_size(k: usize) -> usize {
    (1usize << k) + 1
}

/// Inverse of [`level_size`]: the level `k` with `2^k + 1 == n`, if any.
#[inline]
pub fn size_level(n: usize) -> Option<usize> {
    if n < 3 {
        return None;
    }
    let m = n - 1;
    if m.is_power_of_two() {
        Some(m.trailing_zeros() as usize)
    } else {
        None
    }
}

/// Side length of the next coarser grid: `(n-1)/2 + 1`.
#[inline]
pub fn coarse_size(n: usize) -> usize {
    debug_assert!(size_level(n).is_some() && n > 3);
    (n - 1) / 2 + 1
}

/// A dense, row-major square grid of `f64` over the unit square.
///
/// Index `(i, j)` is row `i` (y direction), column `j` (x direction),
/// both in `0..n`. The outer ring (`i == 0 || i == n-1 || j == 0 ||
/// j == n-1`) holds Dirichlet boundary data; solvers only update the
/// interior.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Grid2d {
    n: usize,
    data: Vec<f64>,
}

impl Grid2d {
    /// An all-zero grid with `n` points per side.
    ///
    /// # Panics
    /// Panics if `n < 3` (a grid needs at least one interior point).
    pub fn zeros(n: usize) -> Self {
        assert!(
            n >= 3,
            "grid must have at least one interior point (n >= 3)"
        );
        Grid2d {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build a grid by evaluating `f(i, j)` at every point.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut g = Grid2d::zeros(n);
        for i in 0..n {
            for j in 0..n {
                g.data[i * n + j] = f(i, j);
            }
        }
        g
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n` or `n < 3`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert!(n >= 3);
        assert_eq!(data.len(), n * n, "buffer length must be n^2");
        Grid2d { n, data }
    }

    /// Points per side.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mesh spacing `h = 1/(n-1)` on the unit square.
    #[inline]
    pub fn h(&self) -> f64 {
        1.0 / (self.n as f64 - 1.0)
    }

    /// `1/h²`, the stencil scaling.
    #[inline]
    pub fn inv_h2(&self) -> f64 {
        let nm1 = self.n as f64 - 1.0;
        nm1 * nm1
    }

    /// Value at `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Mutable access at `(i, j)`.
    #[inline(always)]
    pub(crate) fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.n && j < self.n);
        &mut self.data[i * self.n + j]
    }

    /// Set `(i, j)` to `v`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        *self.at_mut(i, j) = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Rows `i − 1`, `i` (mutably) and `i + 1`: the window an in-place
    /// row update such as [`crate::Five::sor_row_update`] takes.
    ///
    /// # Panics
    /// Panics unless `1 <= i < n − 1`.
    #[inline]
    pub fn rows3_mut(&mut self, i: usize) -> (&[f64], &mut [f64], &[f64]) {
        let n = self.n;
        let (above, below) = self.data.split_at_mut(i * n);
        let (mid, below) = below.split_at_mut(n);
        (&above[(i - 1) * n..], mid, &below[..n])
    }

    /// The interior rows `1..n-1`, each with its index and all `n` of
    /// its values, mutably.
    #[inline]
    pub(crate) fn interior_rows_mut(&mut self) -> impl Iterator<Item = (usize, &mut [f64])> {
        let n = self.n;
        self.data
            .chunks_exact_mut(n)
            .enumerate()
            .take(n - 1)
            .skip(1)
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Set every value to zero (keeps the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Overwrite all values from `src`.
    ///
    /// # Panics
    /// Panics if the sizes differ.
    pub fn copy_from(&mut self, src: &Grid2d) {
        assert_eq!(self.n, src.n, "size mismatch in copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Copy only the boundary ring from `src` (used to seed initial
    /// guesses that must satisfy the Dirichlet condition).
    pub fn copy_boundary_from(&mut self, src: &Grid2d) {
        assert_eq!(self.n, src.n, "size mismatch in copy_boundary_from");
        let n = self.n;
        self.data[..n].copy_from_slice(&src.data[..n]);
        self.data[(n - 1) * n..].copy_from_slice(&src.data[(n - 1) * n..]);
        for i in 1..n - 1 {
            self.data[i * n] = src.data[i * n];
            self.data[i * n + n - 1] = src.data[i * n + n - 1];
        }
    }

    /// Zero the interior, keeping the boundary ring.
    pub fn zero_interior(&mut self) {
        let n = self.n;
        for i in 1..n - 1 {
            self.data[i * n + 1..i * n + n - 1].fill(0.0);
        }
    }

    /// Set the boundary ring to values of `f(i, j)`.
    pub fn set_boundary(&mut self, mut f: impl FnMut(usize, usize) -> f64) {
        let n = self.n;
        for j in 0..n {
            self.data[j] = f(0, j);
            self.data[(n - 1) * n + j] = f(n - 1, j);
        }
        for i in 1..n - 1 {
            self.data[i * n] = f(i, 0);
            self.data[i * n + n - 1] = f(i, n - 1);
        }
    }

    /// Iterator over interior coordinates `(i, j)`.
    pub fn interior(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n;
        (1..n - 1).flat_map(move |i| (1..n - 1).map(move |j| (i, j)))
    }

    /// In-place AXPY on the full buffer: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Grid2d) {
        assert_eq!(self.n, other.n, "size mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }
}

// Pinned by `benchmark/src/probes.rs` (`batch_of`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub struct BatchGrid(pub Vec<Grid2d>);

#[doc(hidden)]
impl BatchGrid {
    pub fn zeros(n: usize, width: usize) -> Self {
        BatchGrid(vec![Grid2d::zeros(n); width])
    }

    pub fn load_lane(&mut self, k: usize, src: &Grid2d) {
        self.0[k].copy_from(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_size_roundtrip() {
        for k in 1..=12 {
            let n = level_size(k);
            assert_eq!(size_level(n), Some(k));
        }
        assert_eq!(level_size(1), 3);
        assert_eq!(level_size(5), 33);
        assert_eq!(size_level(4), None);
        assert_eq!(size_level(2), None);
        assert_eq!(size_level(6), None);
    }

    #[test]
    fn coarse_size_is_one_level_down() {
        for k in 2..=10 {
            assert_eq!(coarse_size(level_size(k)), level_size(k - 1));
        }
    }

    #[test]
    fn indexing_row_major() {
        let mut g = Grid2d::zeros(5);
        g.set(2, 3, 7.5);
        assert_eq!(g.at(2, 3), 7.5);
        assert_eq!(g.as_slice()[2 * 5 + 3], 7.5);
        assert_eq!(g.row(2)[3], 7.5);
    }

    #[test]
    #[should_panic(expected = "at least one interior point")]
    fn too_small_grid_panics() {
        let _ = Grid2d::zeros(2);
    }

    #[test]
    fn from_fn_covers_all_points() {
        let g = Grid2d::from_fn(4, |i, j| (i * 10 + j) as f64);
        assert_eq!(g.at(0, 0), 0.0);
        assert_eq!(g.at(3, 2), 32.0);
        assert_eq!(g.at(1, 3), 13.0);
    }

    #[test]
    fn interior_skips_the_boundary_ring() {
        let g = Grid2d::zeros(5);
        assert_eq!(g.interior().count(), 9);
        assert!(g
            .interior()
            .all(|(i, j)| (1..4).contains(&i) && (1..4).contains(&j)));
    }

    #[test]
    fn copy_boundary_only_touches_ring() {
        let src = Grid2d::from_fn(5, |i, j| (i + j) as f64 + 100.0);
        let mut dst = Grid2d::from_fn(5, |_, _| -1.0);
        dst.copy_boundary_from(&src);
        for i in 0..5 {
            for j in 0..5 {
                if i == 0 || j == 0 || i == 4 || j == 4 {
                    assert_eq!(dst.at(i, j), src.at(i, j));
                } else {
                    assert_eq!(dst.at(i, j), -1.0);
                }
            }
        }
    }

    #[test]
    fn zero_interior_keeps_boundary() {
        let mut g = Grid2d::from_fn(5, |_, _| 3.0);
        g.zero_interior();
        for (i, j) in [(0, 0), (0, 4), (4, 0), (2, 0), (0, 2)] {
            assert_eq!(g.at(i, j), 3.0);
        }
        for (i, j) in [(1, 1), (2, 2), (3, 3)] {
            assert_eq!(g.at(i, j), 0.0);
        }
    }

    #[test]
    fn set_boundary_applies_function() {
        let mut g = Grid2d::zeros(5);
        g.set_boundary(|i, j| (i * 10 + j) as f64);
        assert_eq!(g.at(0, 3), 3.0);
        assert_eq!(g.at(4, 1), 41.0);
        assert_eq!(g.at(2, 0), 20.0);
        assert_eq!(g.at(2, 4), 24.0);
        assert_eq!(g.at(2, 2), 0.0);
    }

    #[test]
    fn h_and_inv_h2() {
        let g = Grid2d::zeros(5);
        assert!((g.h() - 0.25).abs() < 1e-15);
        assert!((g.inv_h2() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Grid2d::from_fn(3, |_, _| 1.0);
        let b = Grid2d::from_fn(3, |_, _| 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-15));
    }

    #[test]
    fn serde_roundtrip() {
        let g = Grid2d::from_fn(3, |i, j| (i * 3 + j) as f64);
        let s = serde_json::to_string(&g).unwrap();
        let g2: Grid2d = serde_json::from_str(&s).unwrap();
        assert_eq!(g, g2);
    }
}
