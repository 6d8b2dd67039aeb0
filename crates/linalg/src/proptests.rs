//! Property-based tests: band Cholesky against dense oracles on random
//! SPD band systems, against the scalar kernels it replaced, and bit
//! for bit against a straight-line rendering of its own arithmetic, on
//! every tier the running CPU executes.

use crate::vector::Tier;
use crate::{BandMatrix, DenseMatrix, LinalgError};
use proptest::prelude::*;

/// A diagonally dominant (hence SPD) band matrix: off-diagonals drawn
/// from `vals` in row order, diagonal = band row-sum + `margin`.
fn spd_band_from(n: usize, m: usize, vals: &[f64], margin: f64) -> BandMatrix {
    let mut a = BandMatrix::zeros(n, m);
    let mut it = vals.iter();
    for i in 0..n {
        for d in 1..=m.min(i) {
            a.set(i, i - d, *it.next().unwrap());
        }
    }
    let m = a.bandwidth();
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in i.saturating_sub(m)..(i + m + 1).min(n) {
            if j != i {
                row_sum += a.get(i, j).abs();
            }
        }
        a.set(i, i, row_sum + margin);
    }
    a
}

/// Strategy: a random SPD band matrix of one fixed shape.
fn spd_band(n: usize, m: usize) -> impl Strategy<Value = BandMatrix> {
    let offs = n * m; // generous upper bound on off-diagonal count
    (prop::collection::vec(-1.0f64..1.0, offs), 0.5f64..5.0)
        .prop_map(move |(vals, margin)| spd_band_from(n, m, &vals, margin))
}

/// Bandwidths on both sides of every 8-lane chunk and 4-column block
/// boundary, and of the two-row pass's `m ≥ 5` (a 4-column group of
/// row `i + 1` that does not read row `i`), each at a full matrix
/// (`n = m + 1`: one full-band row, which goes alone), a matrix whose
/// rows mostly have the full band, and two fixed large sizes that leave
/// the full-band rows an even and an odd count for each `m`.
fn shapes() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for m in [1usize, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 40, 63] {
        for n in [m + 1, 2 * m + 3, 96, 97] {
            out.push((n, m));
        }
    }
    out
}

/// Largest shape of [`shapes`], which sizes the value pools below.
const MAX_M: usize = 63;
const MAX_N: usize = 2 * MAX_M + 3;

fn dense_of(a: &BandMatrix) -> DenseMatrix {
    let n = a.n();
    let mut dense = DenseMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            dense.set(i, j, a.get(i, j));
        }
    }
    dense
}

/// The scalar kernels this crate shipped before the fixed-lane rewrite,
/// kept verbatim (old layout: `A(i, i-d)` at `data[i*(m+1) + d]`) as
/// the oracle showing that only rounding changed.
struct ScalarBand {
    n: usize,
    m: usize,
    data: Vec<f64>,
}

impl ScalarBand {
    fn of(a: &BandMatrix) -> Self {
        let (n, m) = (a.n(), a.bandwidth());
        let mut data = vec![0.0; n * (m + 1)];
        for i in 0..n {
            for d in 0..=m.min(i) {
                data[i * (m + 1) + d] = a.get(i, i - d);
            }
        }
        ScalarBand { n, m, data }
    }

    fn cholesky(&self) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        let m = self.m;
        let w = m + 1;
        let mut l = self.data.clone();
        for j in 0..n {
            // Pivot: L(j,j) = sqrt(A(j,j) - sum_k L(j,k)^2).
            let mut diag = l[j * w];
            let kmin = j.saturating_sub(m);
            for k in kmin..j {
                let v = l[j * w + (j - k)];
                diag -= v * v;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite(j));
            }
            let pivot = diag.sqrt();
            l[j * w] = pivot;
            let inv_pivot = 1.0 / pivot;
            // Column below the pivot: L(i,j) for i in j+1..=j+m.
            let imax = (j + m).min(n - 1);
            for i in j + 1..=imax {
                let mut v = l[i * w + (i - j)];
                // sum_k L(i,k)*L(j,k) for k in [max(i-m, 0), j)
                let kmin = i.saturating_sub(m).max(kmin);
                for k in kmin..j {
                    v -= l[i * w + (i - k)] * l[j * w + (j - k)];
                }
                l[i * w + (i - j)] = v * inv_pivot;
            }
        }
        Ok(l)
    }

    #[allow(clippy::needless_range_loop)] // triangular-solve recurrences are index-coupled
    fn solve(&self, l: &[f64], b: &mut [f64]) {
        let (n, m, w) = (self.n, self.m, self.m + 1);
        // Forward: y_i = (b_i - sum_{k<i} L(i,k) y_k) / L(i,i)
        for i in 0..n {
            let kmin = i.saturating_sub(m);
            let mut v = b[i];
            for k in kmin..i {
                v -= l[i * w + (i - k)] * b[k];
            }
            b[i] = v / l[i * w];
        }
        // Backward: x_i = (y_i - sum_{k>i} L(k,i) x_k) / L(i,i)
        for i in (0..n).rev() {
            let kmax = (i + m).min(n - 1);
            let mut v = b[i];
            for k in i + 1..=kmax {
                v -= l[k * w + (k - i)] * b[k];
            }
            b[i] = v / l[i * w];
        }
    }
}

/// The fixed-lane algorithm of `band.rs` written out with explicit
/// accumulators and indexed loops over the packed layout
/// (`A(i, i-d)` at `i*(m+1) + (m-d)`): no iterators, no slices of
/// slices, nothing an optimiser could regroup.
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // the written-out form is the point
mod straight_line {
    /// `Σ a[a0+k]·b[b0+k]`, `k < len`: 8 lanes, folded in halves, then
    /// the tail in order.
    pub fn dot(a: &[f64], a0: usize, b: &[f64], b0: usize, len: usize) -> f64 {
        let mut acc = [0.0f64; 8];
        let chunks = len / 8;
        for c in 0..chunks {
            for l in 0..8 {
                acc[l] = acc[l] + a[a0 + 8 * c + l] * b[b0 + 8 * c + l];
            }
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        for k in 8 * chunks..len {
            s = s + a[a0 + k] * b[b0 + k];
        }
        s
    }

    /// Factor `l` (packed, `n` rows of `m + 1`) in place; `Err(i)` on a
    /// non-positive or non-finite pivot at row `i`.
    pub fn factor(l: &mut [f64], n: usize, m: usize) -> Result<(), usize> {
        let w = m + 1;
        for i in 0..n {
            let len = i.min(m);
            let lo = i - len;
            let row = i * w + (m - len); // slot of column `lo` in row `i`
            let mut c = 0;
            while c + 4 <= len {
                let j = lo + c;
                // Row `j + t`: columns `[lo, j)` end at slot `m - t`.
                let mut s = [0.0f64; 4];
                for t in 0..4 {
                    s[t] = dot(l, row, l, (j + t) * w + (m - t - c), c);
                }
                let at = |t: usize, col: usize| (j + t) * w + (m - (j + t - col));
                let l0 = (l[row + c] - s[0]) / l[at(0, j)];
                let l1 = ((l[row + c + 1] - s[1]) - l0 * l[at(1, j)]) / l[at(1, j + 1)];
                let l2 = (((l[row + c + 2] - s[2]) - l0 * l[at(2, j)]) - l1 * l[at(2, j + 1)])
                    / l[at(2, j + 2)];
                let l3 = ((((l[row + c + 3] - s[3]) - l0 * l[at(3, j)]) - l1 * l[at(3, j + 1)])
                    - l2 * l[at(3, j + 2)])
                    / l[at(3, j + 3)];
                l[row + c] = l0;
                l[row + c + 1] = l1;
                l[row + c + 2] = l2;
                l[row + c + 3] = l3;
                c += 4;
            }
            while c < len {
                let j = lo + c;
                l[row + c] = (l[row + c] - dot(l, row, l, j * w + (m - c), c)) / l[j * w + m];
                c += 1;
            }
            let diag = l[i * w + m] - dot(l, row, l, row, len);
            if diag <= 0.0 || !diag.is_finite() {
                return Err(i);
            }
            l[i * w + m] = diag.sqrt();
        }
        Ok(())
    }

    /// Forward then backward substitution on the packed factor, one
    /// row at a time (the kernel's four-row backward pass must equal
    /// this bit for bit).
    pub fn solve(l: &[f64], n: usize, m: usize, b: &mut [f64]) {
        let w = m + 1;
        for i in 0..n {
            let len = i.min(m);
            b[i] = (b[i] - dot(l, i * w + (m - len), b, i - len, len)) / l[i * w + m];
        }
        for k in (0..n).rev() {
            let len = k.min(m);
            let x = b[k] / l[k * w + m];
            b[k] = x;
            for d in 0..len {
                b[k - len + d] = b[k - len + d] - x * l[k * w + (m - len) + d];
            }
        }
    }
}

/// The packed new-layout image of `a`, built through `get` alone.
fn packed_of(a: &BandMatrix) -> Vec<f64> {
    let (n, m) = (a.n(), a.bandwidth());
    let mut data = vec![0.0; n * (m + 1)];
    for i in 0..n {
        for d in 0..=m.min(i) {
            data[i * (m + 1) + (m - d)] = a.get(i, i - d);
        }
    }
    data
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every shape that reaches an 8-lane chunk, a 4-column block, the
    /// two-row pass and their remainders: (a) agrees with dense
    /// Cholesky, (b) leaves a small residual, (c) agrees with the scalar
    /// kernels it replaced, (d) equals the straight-line rendering bit
    /// for bit, factor and solution, on every tier.
    #[test]
    fn fixed_lane_kernels_agree_with_every_oracle(
        vals in prop::collection::vec(-1.0f64..1.0, MAX_N * MAX_M),
        margin in 0.5f64..5.0,
        rhs in prop::collection::vec(-100.0f64..100.0, MAX_N),
    ) {
        for (n, m) in shapes() {
            let a = spd_band_from(n, m, &vals, margin);
            let b = &rhs[..n];
            let ch = a.clone().into_cholesky_on(Tier::Portable).unwrap();
            let mut x = b.to_vec();
            ch.solve_in_place_on(&mut x, Tier::Portable).unwrap();

            let x_dense = dense_of(&a).cholesky_solve(b).unwrap();
            for (u, v) in x.iter().zip(&x_dense) {
                prop_assert!((u - v).abs() <= 1e-8 * v.abs().max(1.0), "dense, n={n} m={m}");
            }

            let ax = a.matvec(&x);
            let r: Vec<f64> = ax.iter().zip(b).map(|(u, v)| v - u).collect();
            prop_assert!(l2(&r) <= 1e-10 * l2(b), "residual {} at n={n} m={m}", l2(&r));

            let old = ScalarBand::of(&a);
            let mut x_old = b.to_vec();
            old.solve(&old.cholesky().unwrap(), &mut x_old);
            for (u, v) in x.iter().zip(&x_old) {
                prop_assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "scalar, n={n} m={m}");
            }

            let mut l = packed_of(&a);
            straight_line::factor(&mut l, n, m).unwrap();
            let mut x_line = b.to_vec();
            straight_line::solve(&l, n, m, &mut x_line);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for tier in Tier::available() {
                let ch = a.clone().into_cholesky_on(tier).unwrap();
                let mut x = b.to_vec();
                ch.solve_in_place_on(&mut x, tier).unwrap();
                prop_assert!(bits(ch.packed()) == bits(&l), "factor bits, {tier:?} n={n} m={m}");
                prop_assert!(bits(&x) == bits(&x_line), "solution bits, {tier:?} n={n} m={m}");
            }
        }
    }

    /// `get`/`set`/`matvec` on the packed layout round-trip against a
    /// dense image, including a bandwidth request clamped to `n - 1`.
    #[test]
    fn layout_round_trips_against_dense(
        vals in prop::collection::vec(-1.0f64..1.0, MAX_N * MAX_M),
        x in prop::collection::vec(-10.0f64..10.0, MAX_N),
    ) {
        for (n, m) in shapes().into_iter().chain([(5, 100), (1, 0)]) {
            let mut a = BandMatrix::zeros(n, m);
            let m = a.bandwidth();
            prop_assert!(m < n);
            let mut dense = vec![vec![0.0f64; n]; n];
            let mut it = vals.iter();
            for i in 0..n {
                for d in 0..=m.min(i) {
                    let v = *it.next().unwrap();
                    // Alternate which triangle the write goes through.
                    if d % 2 == 0 { a.set(i, i - d, v) } else { a.set(i - d, i, v) }
                    dense[i][i - d] = v;
                    dense[i - d][i] = v;
                }
            }
            let y = a.matvec(&x[..n]);
            for (i, row) in dense.iter().enumerate() {
                for (j, v) in row.iter().enumerate() {
                    prop_assert_eq!(a.get(i, j).to_bits(), v.to_bits());
                }
                let want = row.iter().zip(&x).fold(0.0, |s, (v, xj)| s + v * xj);
                prop_assert!(y[i].to_bits() == want.to_bits(), "matvec row {i} n={n} m={m}");
            }
        }
    }

    /// Indefinite input reports `NotPositiveDefinite` at the pivot the
    /// scalar oracle (and the straight-line rendering) reports, on every
    /// tier, whether a diagonal or an off-diagonal entry breaks
    /// definiteness, at two neighbouring rows — so on either row of a
    /// two-row pass.
    #[test]
    fn non_spd_reports_the_oracles_pivot(
        vals in prop::collection::vec(-1.0f64..1.0, MAX_N * MAX_M),
        margin in 0.5f64..5.0,
        at in 0.0f64..1.0,
        through_diagonal in 0usize..2,
    ) {
        for (n, m) in shapes() {
            let first = 1 + ((at * (n - 1) as f64) as usize).min(n - 2);
            for p in [first, first + 1].into_iter().filter(|&p| p < n) {
                let mut a = spd_band_from(n, m, &vals, margin);
                if through_diagonal == 1 {
                    a.set(p, p, -margin);
                } else {
                    let big = 10.0 * (a.get(p, p) + a.get(p - 1, p - 1));
                    a.set(p, p - 1, big);
                }
                let old = ScalarBand::of(&a).cholesky().map(|_| ());
                prop_assert_eq!(&old, &Err(LinalgError::NotPositiveDefinite(p)));
                for tier in Tier::available() {
                    let got = a.clone().into_cholesky_on(tier).map(|_| ());
                    prop_assert!(got == old, "pivot, {tier:?} n={n} m={m}");
                }
                let mut l = packed_of(&a);
                prop_assert_eq!(straight_line::factor(&mut l, n, m), Err(p));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Band Cholesky solution satisfies A x = b to high relative accuracy.
    #[test]
    fn band_solve_residual_small(
        a in spd_band(24, 4),
        b in prop::collection::vec(-100.0f64..100.0, 24),
    ) {
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
        for i in 0..24 {
            prop_assert!((ax[i] - b[i]).abs() < 1e-9 * bnorm);
        }
    }

    /// Band and dense Cholesky agree.
    #[test]
    fn band_matches_dense(
        a in spd_band(16, 3),
        b in prop::collection::vec(-10.0f64..10.0, 16),
    ) {
        let x_band = a.cholesky().unwrap().solve(&b).unwrap();
        let mut dense = DenseMatrix::zeros(16);
        for i in 0..16 {
            for j in 0..16 {
                dense.set(i, j, a.get(i, j));
            }
        }
        let x_dense = dense.cholesky_solve(&b).unwrap();
        for (u, v) in x_band.iter().zip(&x_dense) {
            prop_assert!((u - v).abs() < 1e-8 * v.abs().max(1.0));
        }
    }

    /// Solving is linear in the RHS: solve(αb₁ + b₂) = α·solve(b₁) + solve(b₂).
    #[test]
    fn solve_linear_in_rhs(
        a in spd_band(12, 2),
        b1 in prop::collection::vec(-10.0f64..10.0, 12),
        b2 in prop::collection::vec(-10.0f64..10.0, 12),
        alpha in -3.0f64..3.0,
    ) {
        let ch = a.cholesky().unwrap();
        let x1 = ch.solve(&b1).unwrap();
        let x2 = ch.solve(&b2).unwrap();
        let combo: Vec<f64> = b1.iter().zip(&b2).map(|(u, v)| alpha * u + v).collect();
        let xc = ch.solve(&combo).unwrap();
        for i in 0..12 {
            let lin = alpha * x1[i] + x2[i];
            prop_assert!((xc[i] - lin).abs() < 1e-8 * lin.abs().max(1.0));
        }
    }

    /// The factor's diagonal is strictly positive (definition of the
    /// Cholesky factor of an SPD matrix).
    #[test]
    fn factor_reconstructs_matrix(a in spd_band(10, 3)) {
        // Verify L·Lᵀ == A entrywise by probing with basis vectors:
        // A e_j  computed via matvec vs via factor-based solve roundtrip.
        let ch = a.cholesky().unwrap();
        for j in 0..10 {
            let mut e = vec![0.0; 10];
            e[j] = 1.0;
            let col = a.matvec(&e);          // A e_j
            let back = ch.solve(&col).unwrap(); // A⁻¹ A e_j = e_j
            #[allow(clippy::needless_range_loop)]
            for i in 0..10 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((back[i] - expect).abs() < 1e-8);
            }
        }
    }
}
