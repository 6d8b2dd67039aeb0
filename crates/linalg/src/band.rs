//! Packed symmetric band storage and band Cholesky factorization —
//! the from-scratch equivalent of LAPACK's `DPBTRF` + `DPBTRS`
//! (together: `DPBSV`), which the paper uses as its direct solver.
//!
//! **Layout.** Rows stay packed and columns ascend: `A(i, i-d)` lives
//! at `data[i·(m+1) + (m-d)]`, diagonal last. Row `i`'s band
//! `[i-len, i)` is then one contiguous slice aligned element for
//! element with `y[i-len..i]`, so forward substitution is a dot
//! product, backward substitution an axpy, and the factor's
//! `Σ_k L(i,k)·L(j,k)` a dot of two row slices — every inner loop is
//! contiguous and free of loop-carried dependencies.
//!
//! **Determinism.** Reductions follow the rule `grid::simd` states: a
//! fixed-lane deterministic tree — here 8 lanes folded in halves
//! (`dot`). Rust never contracts `a*b + c`, so the bits are the same
//! under SSE2, AVX2, AVX-512 and `-C target-cpu=native`. The factor
//! and the forward substitution are dispatched at runtime to a tier
//! (`vector::Tier`): the portable bodies here, or on an AVX2 CPU an
//! AVX2 body that runs the same operations in the same order, so every
//! tier gives the same bits. Where a kernel blocks rows
//! or columns (four columns per pass in the factor, two rows per pass
//! in its AVX2 body, four rows per pass in the backward substitution)
//! every entry still sees the same operations in the same order as the
//! unblocked loop, so blocking moves no bit either.
//!
//! **Cost.** The factor is `n·m²/2` multiply-adds (`n·m²` flops) and
//! each solve `2·n·m` over an `8·n·(m+1)`-byte factor: at `n = 127²`,
//! `m = 127` that is 130 M multiply-adds to factor and 16.5 MB streamed
//! twice per solve, so the solve is bound by memory speed, not by its
//! flop count.

use crate::vector::Tier;
use std::fmt;

/// Errors from direct factorizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not positive definite (a non-positive pivot was
    /// encountered at the given index).
    NotPositiveDefinite(usize),
    /// Right-hand side length does not match the system size.
    DimensionMismatch { expected: usize, got: usize },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite(i) => {
                write!(f, "matrix not positive definite (pivot {i})")
            }
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Accumulator lanes of every reduction in this module.
const LANES: usize = 8;

/// The fixed combine order of the lane accumulators: fold the upper
/// half onto the lower, 8 → 4 → 2 → 1. Whatever the vector width, that
/// is whole-register adds and one final horizontal add, so no width
/// needs a shuffle inside the accumulation loop to honour it.
#[inline(always)]
fn tree(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// `out[t] = Σ a[k]·b[t][k]` as a fixed-lane deterministic tree: lane
/// `l` accumulates elements `8c + l`, the lanes combine by [`tree`],
/// and the 0–7 element tail folds in sequentially. Each `out[t]` has
/// the bits it would have alone; computing `N` together only lets one
/// load of `a` feed `N` accumulator sets.
#[inline(always)]
fn dots<const N: usize>(a: &[f64], b: [&[f64]; N]) -> [f64; N] {
    let b = b.map(|r| &r[..a.len()]);
    let body = a.len() - a.len() % LANES;
    let mut acc = [[0.0; LANES]; N];
    for c in (0..body).step_by(LANES) {
        let x = &a[c..c + LANES];
        for t in 0..N {
            let y = &b[t][c..c + LANES];
            for l in 0..LANES {
                acc[t][l] += x[l] * y[l];
            }
        }
    }
    std::array::from_fn(|t| {
        let tail = a[body..].iter().zip(&b[t][body..]);
        tail.fold(tree(acc[t]), |s, (x, y)| s + x * y)
    })
}

/// One fixed-lane dot product (see [`dots`]).
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    dots(a, [b])[0]
}

/// Bands at least this large go back to the allocator shrunk first
/// (see [`Packed`]): between the 2 MB band of a 65×65 grid, where
/// mapping fresh pages for every factor costs a cold tuning round
/// ≈ 20 %, and the 16.5 MB band of a 129×129 grid, where not doing it
/// leaves 33 MB resident in whichever thread heap factored last.
const SHRINK_BEFORE_FREE_BYTES: usize = 8 << 20;

/// Packed band storage: a `Vec<f64>` whose large instances are shrunk
/// to one element before they are freed.
///
/// An allocator that maps huge blocks (glibc: above 128 KB) unmaps a
/// shrunk block at once. Freed whole, the first such block instead
/// teaches glibc to carve every later band from the calling thread's
/// heap top, where a freed band-plus-factor pair falls a few KB short
/// of the trim threshold (twice the page-rounded band) and is never
/// returned — the service's peak RSS then depended on which worker's
/// heap the previous tune had used. For any other allocator this is a
/// `realloc` followed by a `free`.
#[derive(Clone, Debug, PartialEq)]
struct Packed(Vec<f64>);

impl Drop for Packed {
    fn drop(&mut self) {
        if std::mem::size_of_val(self.0.as_slice()) >= SHRINK_BEFORE_FREE_BYTES {
            self.0.truncate(1);
            self.0.shrink_to_fit();
        }
    }
}

impl std::ops::Deref for Packed {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl std::ops::DerefMut for Packed {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

/// A symmetric positive-definite band matrix in packed lower storage.
///
/// For an `n×n` matrix with `m` sub-diagonals, entry `A(i, i-d)` for
/// `d ∈ 0..=m` is stored at `data[i*(m+1) + (m-d)]` — each row's
/// columns ascend and its diagonal comes last; everything below the
/// band is structurally zero and the upper triangle is implied by
/// symmetry. Storage is `n·(m+1)` doubles — the same footprint as
/// LAPACK's `AB` array.
#[derive(Clone, Debug, PartialEq)]
pub struct BandMatrix {
    n: usize,
    m: usize,
    data: Packed,
}

impl BandMatrix {
    /// An all-zero band matrix of size `n` with bandwidth `m`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn zeros(n: usize, m: usize) -> Self {
        assert!(n > 0, "empty matrix");
        let m = m.min(n - 1);
        BandMatrix {
            n,
            m,
            data: Packed(vec![0.0; n * (m + 1)]),
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth (number of sub-diagonals).
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.m
    }

    /// Packed position of `A(hi, hi-d)`, `d ≤ m`.
    #[inline]
    fn slot(&self, hi: usize, d: usize) -> usize {
        hi * (self.m + 1) + (self.m - d)
    }

    /// Read `A(i, j)` (zero outside the band; symmetric).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        if d > self.m {
            0.0
        } else {
            self.data[self.slot(hi, d)]
        }
    }

    /// Write `A(i, j) = v` (and `A(j, i)` by symmetry).
    ///
    /// # Panics
    /// Panics if `|i-j|` exceeds the bandwidth or indices are out of
    /// range.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        assert!(d <= self.m, "entry ({i},{j}) outside bandwidth {}", self.m);
        let at = self.slot(hi, d);
        self.data[at] = v;
    }

    /// Dense `y = A·x` (test oracle; one `get` per band entry).
    #[cfg(test)]
    #[allow(clippy::needless_range_loop)] // band index arithmetic reads clearest indexed
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let lo = i.saturating_sub(self.m);
            // Band row + symmetric column.
            let mut acc = 0.0;
            for j in lo..=i {
                acc += self.get(i, j) * x[j];
            }
            for j in i + 1..(i + self.m + 1).min(self.n) {
                acc += self.get(i, j) * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Band Cholesky factorization `A = L·Lᵀ` (≡ `DPBTRF`).
    ///
    /// Row by row: `L(i,j) = (A(i,j) − Σ_k L(i,k)·L(j,k)) / L(j,j)` over
    /// `k ∈ [i-len, j)`, where both operands of the sum are contiguous
    /// row slices. Four columns are computed per pass so each load of
    /// row `i` feeds four dot products; the 4×4 triangular corner that
    /// couples them is finished sequentially in a fixed order. `n·m²/2`
    /// multiply-adds, `n·(m+1)` doubles of storage. Fails with
    /// [`LinalgError::NotPositiveDefinite`] on a non-positive pivot.
    ///
    /// Factors a copy; [`BandMatrix::into_cholesky`] factors in place.
    pub fn cholesky(&self) -> Result<BandCholesky, LinalgError> {
        self.clone().into_cholesky()
    }

    /// [`BandMatrix::cholesky`] in the matrix's own storage: `L`
    /// overwrites `A` row by row, so band and factor are never both
    /// alive. Same operations in the same order, so the same bits.
    pub fn into_cholesky(self) -> Result<BandCholesky, LinalgError> {
        self.into_cholesky_on(Tier::detect())
    }

    /// [`BandMatrix::into_cholesky`] on a named tier.
    pub(crate) fn into_cholesky_on(self, tier: Tier) -> Result<BandCholesky, LinalgError> {
        let BandMatrix { n, m, data: mut l } = self;
        tier.factor(&mut l, n, m)?;
        Ok(BandCholesky { n, m, l })
    }
}

/// The portable band factor: `l` (`n` packed rows of `m + 1`) is
/// overwritten by `L` row by row. The vector tiers run the same
/// operations in the same order.
pub(crate) fn factor_portable(l: &mut [f64], n: usize, m: usize) -> Result<(), LinalgError> {
    let w = m + 1;
    for i in 0..n {
        let (done, rest) = l.split_at_mut(i * w);
        let len = i.min(m);
        let lo = i - len;
        // `band[c]` is column `lo + c` of row `i`; `band[len]` its
        // diagonal. In a finished row `j ≥ lo`, columns `[lo, j)` are
        // the `j - lo` slots that end at its diagonal slot `m`.
        let band = &mut rest[m - len..w];
        let mut c = 0;
        while c + 4 <= len {
            let j = lo + c;
            let [r0, r1, r2, r3]: [&[f64]; 4] =
                std::array::from_fn(|t| &done[(j + t) * w..(j + t + 1) * w]);
            let (head, tail) = band.split_at_mut(c);
            let s = dots(
                head,
                [
                    &r0[m - c..m],
                    &r1[m - 1 - c..m - 1],
                    &r2[m - 2 - c..m - 2],
                    &r3[m - 3 - c..m - 3],
                ],
            );
            let l0 = (tail[0] - s[0]) / r0[m];
            let l1 = ((tail[1] - s[1]) - l0 * r1[m - 1]) / r1[m];
            let l2 = (((tail[2] - s[2]) - l0 * r2[m - 2]) - l1 * r2[m - 1]) / r2[m];
            let l3 =
                ((((tail[3] - s[3]) - l0 * r3[m - 3]) - l1 * r3[m - 2]) - l2 * r3[m - 1]) / r3[m];
            tail[..4].copy_from_slice(&[l0, l1, l2, l3]);
            c += 4;
        }
        while c < len {
            let rj = &done[(lo + c) * w..(lo + c + 1) * w];
            let (head, tail) = band.split_at_mut(c);
            tail[0] = (tail[0] - dot(head, &rj[m - c..m])) / rj[m];
            c += 1;
        }
        let (head, tail) = band.split_at_mut(len);
        let diag = tail[0] - dot(head, head);
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite(i));
        }
        tail[0] = diag.sqrt();
    }
    Ok(())
}

/// The portable forward substitution `L·y = b` on the packed factor:
/// `y_i = (b_i - dot(L(i, i-len..i), y[i-len..i])) / L(i,i)`.
pub(crate) fn forward_portable(l: &[f64], n: usize, m: usize, b: &mut [f64]) {
    let w = m + 1;
    for i in 0..n {
        let (len, row) = (i.min(m), &l[i * w..(i + 1) * w]);
        let (done, rest) = b.split_at_mut(i);
        rest[0] = (rest[0] - dot(&row[m - len..m], &done[i - len..])) / row[m];
    }
}

/// The lower-triangular band Cholesky factor `L` with `A = L·Lᵀ`
/// (packed like [`BandMatrix`]). Reusable across many right-hand sides —
/// the autotuned solver exploits this by caching factors per grid size.
#[derive(Clone, Debug)]
pub struct BandCholesky {
    n: usize,
    m: usize,
    l: Packed,
}

impl BandCholesky {
    /// System size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed factor (laid out like [`BandMatrix`]), for tests
    /// that compare or hash it bit for bit.
    pub fn packed(&self) -> &[f64] {
        &self.l
    }

    /// Solve `A·x = b` in place (≡ `DPBTRS`): forward substitution
    /// `L·y = b` as one dot product per row, then backward substitution
    /// `Lᵀ·x = y` as one axpy per row. `2·n·m` multiply-adds over the
    /// whole factor, streamed once in each direction.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        self.solve_in_place_on(b, Tier::detect())
    }

    /// [`BandCholesky::solve_in_place`] with its forward substitution on
    /// a named tier.
    pub(crate) fn solve_in_place_on(&self, b: &mut [f64], tier: Tier) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let (n, m, w) = (self.n, self.m, self.m + 1);
        tier.forward(&self.l, n, m, b);
        let row_of = |k: usize| &self.l[k * w..(k + 1) * w];
        // Backward: x_k = y_k / L(k,k), then y[k-len..k] -= x_k · L(k, k-len..k).
        // While four rows in a row carry a full band they go as one
        // pass: their 4×4 corner first, then every y_j they share takes
        // its four subtractions, row k's first, in one load and one
        // store — the same operations in the same order as row by row.
        let mut k = n; // rows k.. are solved
        while m >= 3 && k >= m + 4 {
            let [r0, r1, r2, r3] = [row_of(k - 1), row_of(k - 2), row_of(k - 3), row_of(k - 4)];
            let x0 = b[k - 1] / r0[m];
            let x1 = (b[k - 2] - x0 * r0[m - 1]) / r1[m];
            let x2 = ((b[k - 3] - x0 * r0[m - 2]) - x1 * r1[m - 1]) / r2[m];
            let x3 = (((b[k - 4] - x0 * r0[m - 3]) - x1 * r1[m - 2]) - x2 * r2[m - 1]) / r3[m];
            b[k - 4..k].copy_from_slice(&[x3, x2, x1, x0]);
            // Columns [k-1-m, k-4) lie in all four bands; the three
            // below them only in the lower rows'.
            let (lo, shared) = (k - 1 - m, m - 3);
            let bands = r0[..shared]
                .iter()
                .zip(&r1[1..=shared])
                .zip(&r2[2..shared + 2])
                .zip(&r3[3..m]);
            for (y, (((l0, l1), l2), l3)) in b[lo..lo + shared].iter_mut().zip(bands) {
                *y = (((*y - x0 * l0) - x1 * l1) - x2 * l2) - x3 * l3;
            }
            b[lo - 1] = ((b[lo - 1] - x1 * r1[0]) - x2 * r2[1]) - x3 * r3[2];
            b[lo - 2] = (b[lo - 2] - x2 * r2[0]) - x3 * r3[1];
            b[lo - 3] -= x3 * r3[0];
            k -= 4;
        }
        for k in (0..k).rev() {
            let (len, row) = (k.min(m), row_of(k));
            let (above, rest) = b.split_at_mut(k);
            let x = rest[0] / row[m];
            rest[0] = x;
            for (y, l) in above[k - len..].iter_mut().zip(&row[m - len..m]) {
                *y -= x * l;
            }
        }
        Ok(())
    }

    /// Solve into a fresh vector: the tests' one-line solve.
    #[cfg(test)]
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1D Poisson matrix: tridiagonal (2, -1).
    fn poisson_1d(n: usize) -> BandMatrix {
        let mut a = BandMatrix::zeros(n, 1);
        for i in 0..n {
            a.set(i, i, 2.0);
            if i > 0 {
                a.set(i, i - 1, -1.0);
            }
        }
        a
    }

    #[test]
    fn get_set_symmetry_and_band_zero() {
        let mut a = BandMatrix::zeros(5, 2);
        a.set(3, 1, 7.0);
        assert_eq!(a.get(3, 1), 7.0);
        assert_eq!(a.get(1, 3), 7.0);
        assert_eq!(a.get(0, 4), 0.0); // outside band
        assert_eq!(a.bandwidth(), 2);
    }

    #[test]
    #[should_panic(expected = "outside bandwidth")]
    fn set_outside_band_panics() {
        let mut a = BandMatrix::zeros(5, 1);
        a.set(0, 3, 1.0);
    }

    #[test]
    fn bandwidth_clamped_to_n_minus_1() {
        let a = BandMatrix::zeros(3, 100);
        assert_eq!(a.bandwidth(), 2);
    }

    #[test]
    fn a_band_large_enough_to_shrink_before_free_still_clones_and_drops() {
        let a = {
            let mut a = BandMatrix::zeros(1100, 1000);
            assert!(std::mem::size_of_val(&*a.data) >= SHRINK_BEFORE_FREE_BYTES);
            a.set(1099, 99, 3.0);
            a.clone()
        };
        assert_eq!(a.get(99, 1099), 3.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn cholesky_identity() {
        let mut a = BandMatrix::zeros(4, 0);
        for i in 0..4 {
            a.set(i, i, 1.0);
        }
        let ch = a.cholesky().unwrap();
        let x = ch.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn factoring_in_place_gives_the_copying_factor_bit_for_bit() {
        let a = crate::assemble_poisson_band(17);
        let copied = a.cholesky().unwrap();
        let in_place = a.into_cholesky().unwrap();
        let bits = |l: &BandCholesky| l.packed().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&copied), bits(&in_place));
    }

    #[test]
    fn solve_poisson_1d_known_solution() {
        // 2x_i - x_{i-1} - x_{i+1} = 0 with "boundary" folded in:
        // solve A x = e_0; exact solution x_i = (n - i)/(n + 1).
        let n = 10;
        let a = poisson_1d(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        a.cholesky().unwrap().solve_in_place(&mut b).unwrap();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let exact = (n - i) as f64 / (n + 1) as f64;
            assert!((b[i] - exact).abs() < 1e-12, "x[{i}] = {} vs {exact}", b[i]);
        }
    }

    #[test]
    fn residual_small_after_solve() {
        // Diagonally dominant random-ish SPD band matrix.
        let n = 40;
        let m = 5;
        let mut a = BandMatrix::zeros(n, m);
        for i in 0..n {
            a.set(i, i, 10.0 + (i % 3) as f64);
            for d in 1..=m.min(i) {
                a.set(i, i - d, -1.0 / (d as f64 + ((i * 7 + d) % 4) as f64));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-9, "residual at {i}");
        }
    }

    #[test]
    fn not_positive_definite_detected() {
        let mut a = BandMatrix::zeros(3, 1);
        a.set(0, 0, 1.0);
        a.set(1, 1, -2.0); // negative diagonal: not PD
        a.set(2, 2, 1.0);
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn indefinite_from_off_diagonal_detected() {
        // [[1, 2], [2, 1]] has eigenvalues 3, -1.
        let mut a = BandMatrix::zeros(2, 1);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(1, 0, 2.0);
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = poisson_1d(4);
        let ch = a.cholesky().unwrap();
        let mut b = vec![0.0; 3];
        assert!(matches!(
            ch.solve_in_place(&mut b),
            Err(LinalgError::DimensionMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn factor_reuse_multiple_rhs() {
        let a = poisson_1d(8);
        let ch = a.cholesky().unwrap();
        for seed in 0..5u64 {
            let b: Vec<f64> = (0..8).map(|i| ((i as u64 + seed) % 7) as f64).collect();
            let x = ch.solve(&b).unwrap();
            let ax = a.matvec(&x);
            for i in 0..8 {
                assert!((ax[i] - b[i]).abs() < 1e-12);
            }
        }
    }
}
