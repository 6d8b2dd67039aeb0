//! Coefficient fields for the variable-coefficient diffusion operator
//! `-∇·(a(x,y)∇u) = f` and their restriction to coarse levels.
//!
//! The field is stored **vertex-centered**: `a(i, j)` is sampled at the
//! same grid points as the solution. The finite-volume discretization
//! turns it into four **face weights** per cell by the *harmonic* mean
//! of the two adjacent vertex values — the standard choice for jump
//! coefficients, because flux continuity across an interface is a
//! harmonic-mean property (an arithmetic face mean over-weights the
//! stiff side by orders of magnitude at a ×1000 jump).
//!
//! Coarse levels re-discretize: the vertex field moves down by the same
//! **arithmetic** full-weighting average used for residual restriction
//! (a 9-point [1 2 1; 2 4 2; 1 2 1]/16 stencil), and each coarse level
//! then derives its own harmonic face weights. The vertex field lives
//! only while [`crate::Problem::variable`] builds the hierarchy; each
//! level keeps three arrays: its face weights stored once per face and
//! the reciprocal diagonal (see [`StencilCoeffs`]). The diagonal itself
//! is summed from the face weights where a residual needs it
//! ([`petamg_grid::FaceSum`]). With `a ≡ 1` every face weight is
//! exactly `1.0` and every diagonal exactly `4.0` at every level, which
//! is what makes the variable-coefficient kernels bit-for-bit reducible
//! to the Poisson kernels (property-tested in this crate).

use petamg_grid::FaceSum;

/// Harmonic mean `2ab/(a+b)` of two positive vertex values — the face
/// weight between the cells holding them. `harmonic(1, 1) == 1.0`
/// exactly.
#[inline]
pub(crate) fn harmonic(a: f64, b: f64) -> f64 {
    (2.0 * a * b) / (a + b)
}

/// FNV-1a over the bit patterns of a coefficient field (the content
/// hash carried by [`crate::ProblemFingerprint`]).
pub fn field_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One level's pre-derived stencil data for the variable-coefficient
/// operator: per-cell face weights (west/east/north/south) and the
/// reciprocal `1/c` of the diagonal `c = ((w + e) + n) + s` (so the
/// relaxation kernels multiply instead of divide; with `c = 4` the
/// reciprocal is exactly `0.25`, matching the Poisson kernels'
/// constant).
///
/// Each face weight is stored once. Cell `(i, j)`'s west face is cell
/// `(i, j−1)`'s east face, and its north face is cell `(i−1, j)`'s
/// south face, so only the east and south faces have arrays: `e` with
/// one leading pad element and `s` with one leading pad row. A west row
/// is the east array one column behind, a north row is the previous
/// row's south row. With the reciprocal diagonal that is three arrays,
/// indexed like the solution; only interior entries are ever read by
/// the kernels. The diagonal is not stored: `StencilCoeffs::diagonal_row`
/// sums it from the four face rows in the association order `1/c` was
/// computed with, so a residual kernel gets the stored array's bits
/// without streaming it.
#[derive(Clone, Debug)]
pub struct StencilCoeffs {
    n: usize,
    /// East faces: `e[1 + i·n + j]` joins `(i, j)` and `(i, j+1)`.
    e: Vec<f64>,
    /// South faces: `s[(i+1)·n + j]` joins `(i, j)` and `(i+1, j)`.
    s: Vec<f64>,
    ic: Vec<f64>,
    hash: u64,
}

impl StencilCoeffs {
    /// Derive face weights and diagonals from a vertex-centered field
    /// (`vertex.len() == n*n`). The field itself is not kept.
    ///
    /// # Panics
    /// Panics if the field length is not `n²`, `n < 3`, or any value is
    /// not strictly positive (the operator must stay elliptic/SPD).
    pub fn from_vertex_field(n: usize, vertex: &[f64]) -> Self {
        assert!(n >= 3, "coefficient field needs n >= 3");
        assert_eq!(vertex.len(), n * n, "coefficient field must be n^2 values");
        assert!(
            vertex.iter().all(|v| *v > 0.0 && v.is_finite()),
            "coefficients must be strictly positive and finite"
        );
        let at = |i: usize, j: usize| vertex[i * n + j];
        let mut e = vec![1.0; n * n + 1];
        let mut s = vec![1.0; n * n + n];
        let mut ic = vec![0.25; n * n];
        // Every face an interior cell touches: the west face of column 1
        // is the east face of column 0, the north face of row 1 the
        // south face of row 0.
        for i in 1..n - 1 {
            for j in 0..n - 1 {
                e[1 + i * n + j] = harmonic(at(i, j), at(i, j + 1));
            }
        }
        for i in 0..n - 1 {
            for j in 1..n - 1 {
                s[(i + 1) * n + j] = harmonic(at(i, j), at(i + 1, j));
            }
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let u = i * n + j;
                // The `diagonal_row` sum: west e[u], east e[u + 1],
                // north s[u], south s[u + n].
                ic[u] = 1.0 / (((e[u] + e[u + 1]) + s[u]) + s[u + n]);
            }
        }
        StencilCoeffs {
            n,
            e,
            s,
            ic,
            hash: field_hash(vertex),
        }
    }

    /// Grid side length this level's arrays are sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Content hash of the vertex field (FNV-1a over value bits).
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// West face-weight row `i`: the east faces one column behind.
    #[inline]
    pub(crate) fn w_row(&self, i: usize) -> &[f64] {
        &self.e[i * self.n..(i + 1) * self.n]
    }
    /// East face-weight row `i`.
    #[inline]
    pub(crate) fn e_row(&self, i: usize) -> &[f64] {
        &self.e[i * self.n + 1..(i + 1) * self.n + 1]
    }
    /// North face-weight row `i`: row `i − 1`'s south faces.
    #[inline]
    pub(crate) fn n_row(&self, i: usize) -> &[f64] {
        &self.s[i * self.n..(i + 1) * self.n]
    }
    /// South face-weight row `i`.
    #[inline]
    pub(crate) fn s_row(&self, i: usize) -> &[f64] {
        &self.s[(i + 1) * self.n..(i + 2) * self.n]
    }
    /// Diagonal row `i`, `c = ((w+e)+n)+s`, summed from the face rows
    /// where it is read.
    #[inline]
    pub(crate) fn diagonal_row(&self, i: usize) -> FaceSum<'_> {
        FaceSum::new(self.w_row(i), self.e_row(i), self.n_row(i), self.s_row(i))
    }
    /// Reciprocal-diagonal row `i`.
    #[inline]
    pub(crate) fn ic_row(&self, i: usize) -> &[f64] {
        &self.ic[i * self.n..(i + 1) * self.n]
    }
}

/// Restrict an `n×n` vertex field to the next coarser grid by the
/// full-weighting average (arithmetic; boundary vertices by injection).
///
/// # Panics
/// Panics if `n <= 3` (no coarser level exists).
pub(crate) fn coarsen_vertex_field(n: usize, fine: &[f64]) -> Vec<f64> {
    assert!(n > 3, "cannot coarsen below the 3x3 base case");
    let nc = (n - 1) / 2 + 1;
    let at = |i: usize, j: usize| fine[i * n + j];
    let mut coarse = vec![0.0; nc * nc];
    for ic in 0..nc {
        for jc in 0..nc {
            let (fi, fj) = (2 * ic, 2 * jc);
            coarse[ic * nc + jc] = if ic == 0 || jc == 0 || ic == nc - 1 || jc == nc - 1 {
                at(fi, fj)
            } else {
                let center = at(fi, fj);
                let edges = at(fi - 1, fj) + at(fi + 1, fj) + at(fi, fj - 1) + at(fi, fj + 1);
                let corners = at(fi - 1, fj - 1)
                    + at(fi - 1, fj + 1)
                    + at(fi + 1, fj - 1)
                    + at(fi + 1, fj + 1);
                (4.0 * center + 2.0 * edges + corners) / 16.0
            };
        }
    }
    coarse
}

/// Named coefficient profiles `a(x, y)` on the unit square — the
/// canonical workloads shipped with the subsystem (plus the tests' and
/// benches' custom closures via [`CoeffProfile::sample`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoeffProfile {
    /// `a ≡ 1`: the constant-coefficient operator (bitwise identical to
    /// the Poisson kernels — the conformance anchor).
    Constant,
    /// `a(x,y) = 1 + amplitude·sin(2πx)·sin(2πy)`, smooth and gentle
    /// (`amplitude < 1` keeps the operator elliptic).
    SmoothSinusoidal {
        /// Peak deviation from 1 (must satisfy `0 < amplitude < 1`).
        amplitude: f64,
    },
    /// `a = ratio` inside the centered square inclusion
    /// `[3/8, 5/8]²`, `a = 1` outside — the ×1000 jump workload.
    JumpInclusion {
        /// Coefficient inside the inclusion (e.g. `1000.0`).
        ratio: f64,
    },
}

impl CoeffProfile {
    /// Short machine-friendly name (used in fingerprints and bench
    /// records).
    pub fn name(&self) -> String {
        match self {
            CoeffProfile::Constant => "constant".into(),
            CoeffProfile::SmoothSinusoidal { .. } => "smooth".into(),
            CoeffProfile::JumpInclusion { ratio } => format!("jump{ratio}"),
        }
    }

    /// The scalar parameter recorded in the fingerprint (amplitude,
    /// ratio, or 0 for constant).
    pub fn param(&self) -> f64 {
        match self {
            CoeffProfile::Constant => 0.0,
            CoeffProfile::SmoothSinusoidal { amplitude } => *amplitude,
            CoeffProfile::JumpInclusion { ratio } => *ratio,
        }
    }

    /// Evaluate `a(x, y)`.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        match self {
            CoeffProfile::Constant => 1.0,
            CoeffProfile::SmoothSinusoidal { amplitude } => {
                1.0 + amplitude
                    * (2.0 * std::f64::consts::PI * x).sin()
                    * (2.0 * std::f64::consts::PI * y).sin()
            }
            CoeffProfile::JumpInclusion { ratio } => {
                if (0.375..=0.625).contains(&x) && (0.375..=0.625).contains(&y) {
                    *ratio
                } else {
                    1.0
                }
            }
        }
    }

    /// Sample the profile onto an `n×n` vertex grid (row `i` is the `y`
    /// direction, matching `Grid2d`).
    pub fn vertex_field(&self, n: usize) -> Vec<f64> {
        let h = 1.0 / (n as f64 - 1.0);
        let mut field = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                field[i * n + j] = self.sample(j as f64 * h, i as f64 * h);
            }
        }
        field
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_properties() {
        assert_eq!(harmonic(1.0, 1.0), 1.0);
        assert!((harmonic(1.0, 1000.0) - 2000.0 / 1001.0).abs() < 1e-12);
        // Harmonic mean is dominated by the small side.
        assert!(harmonic(1.0, 1000.0) < 2.0);
    }

    #[test]
    fn constant_field_gives_poisson_weights_exactly() {
        let c = StencilCoeffs::from_vertex_field(9, &[1.0; 81]);
        for i in 1..8 {
            for j in 1..8 {
                assert_eq!(c.w_row(i)[j], 1.0);
                assert_eq!(c.e_row(i)[j], 1.0);
                assert_eq!(c.n_row(i)[j], 1.0);
                assert_eq!(c.s_row(i)[j], 1.0);
                assert_eq!(c.diagonal_row(i).at(j), 4.0);
                assert_eq!(c.ic_row(i)[j], 0.25);
            }
        }
    }

    #[test]
    fn coarsening_preserves_constant_fields_exactly() {
        let coarse = coarsen_vertex_field(9, &[1.0; 81]);
        assert_eq!(coarse.len(), 25);
        assert!(coarse.iter().all(|&v| v == 1.0));
        assert_eq!(
            StencilCoeffs::from_vertex_field(5, &coarse)
                .diagonal_row(2)
                .at(2),
            4.0
        );
    }

    /// Cell `(i, j)`'s `[w, e, n, s, c, 1/c]` straight from the vertex
    /// field, each face as the harmonic mean with the cell's own vertex
    /// first — the model the shared-face rows must reproduce.
    fn reference_cell(field: &[f64], n: usize, i: usize, j: usize) -> [f64; 6] {
        let at = |i: usize, j: usize| field[i * n + j];
        let w = harmonic(at(i, j), at(i, j - 1));
        let e = harmonic(at(i, j), at(i, j + 1));
        let nn = harmonic(at(i, j), at(i - 1, j));
        let s = harmonic(at(i, j), at(i + 1, j));
        let c = ((w + e) + nn) + s;
        [w, e, nn, s, c, 1.0 / c]
    }

    /// A positive field spanning three orders of magnitude (splitmix64,
    /// log-uniform in `[0.05, 50)`).
    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n * n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                0.05 * 1000f64.powf(u)
            })
            .collect()
    }

    /// The jump, smooth and random test fields at size `n`.
    fn fields(n: usize) -> [(&'static str, Vec<f64>); 3] {
        [
            (
                "jump",
                CoeffProfile::JumpInclusion { ratio: 1000.0 }.vertex_field(n),
            ),
            (
                "smooth",
                CoeffProfile::SmoothSinusoidal { amplitude: 0.9 }.vertex_field(n),
            ),
            ("random", random_field(n, n as u64)),
        ]
    }

    #[test]
    fn rows_match_the_per_cell_reference_bit_for_bit() {
        for n in [3usize, 5, 17, 33] {
            for (name, field) in &fields(n) {
                let cf = StencilCoeffs::from_vertex_field(n, field);
                // Every interior cell, the rows and columns next to the
                // boundary (1 and n-2) included.
                for i in 1..n - 1 {
                    for j in 1..n - 1 {
                        let got = [
                            cf.w_row(i)[j],
                            cf.e_row(i)[j],
                            cf.n_row(i)[j],
                            cf.s_row(i)[j],
                            cf.diagonal_row(i).at(j),
                            cf.ic_row(i)[j],
                        ];
                        let want = reference_cell(field, n, i, j);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{name} n={n} cell ({i},{j}): [w, e, n, s, c, ic]"
                        );
                    }
                }
            }
        }
    }

    /// The residual kernel with the in-register [`FaceSum`] diagonal
    /// equals, cell for cell, the residual that multiplies by the
    /// diagonal the stored `c` array held, `((e[u] + e[u+1]) + s[u]) +
    /// s[u+n]`, in both SIMD modes; sizes cover every tail of the
    /// four-column residual chunk.
    #[test]
    fn face_sum_residual_matches_the_stored_diagonal_oracle() {
        use crate::{residual_op, StencilOp};
        use petamg_grid::{Grid2d, SimdMode};
        use std::sync::Arc;

        for n in [3usize, 5, 6, 7, 9, 17, 33] {
            let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
            let inv_h2 = x.inv_h2();
            for (name, field) in &fields(n) {
                let cf = Arc::new(StencilCoeffs::from_vertex_field(n, field));
                let op = StencilOp::Var(Arc::clone(&cf));
                for mode in [SimdMode::Scalar, SimdMode::Vector] {
                    let mut r = Grid2d::from_fn(n, |_, _| 9.0);
                    residual_op(&op, &x, &b, &mut r, &mode);
                    for (i, j) in x.interior() {
                        let u = i * n + j;
                        let (w, e, nn, s) = (cf.e[u], cf.e[u + 1], cf.s[u], cf.s[u + n]);
                        let c = ((w + e) + nn) + s;
                        let ax = ((((c * x.at(i, j) - nn * x.at(i - 1, j)) - s * x.at(i + 1, j))
                            - w * x.at(i, j - 1))
                            - e * x.at(i, j + 1))
                            * inv_h2;
                        let want = b.at(i, j) - ax;
                        assert_eq!(
                            r.at(i, j).to_bits(),
                            want.to_bits(),
                            "{name} n={n} {mode:?} cell ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stores_each_face_once_in_three_arrays() {
        for n in [3usize, 5, 17, 33] {
            let cf = StencilCoeffs::from_vertex_field(n, &random_field(n, 7));
            let stored = cf.e.len() + cf.s.len() + cf.ic.len();
            assert!(stored <= 3 * n * n + n + 1, "n={n}: {stored} values stored");
        }
        // A fourth array would grow the struct past three vectors, the
        // size and the hash.
        assert_eq!(
            size_of::<StencilCoeffs>(),
            3 * size_of::<Vec<f64>>() + size_of::<usize>() + size_of::<u64>()
        );
    }

    #[test]
    fn jump_profile_has_the_inclusion() {
        let p = CoeffProfile::JumpInclusion { ratio: 1000.0 };
        assert_eq!(p.sample(0.5, 0.5), 1000.0);
        assert_eq!(p.sample(0.1, 0.5), 1.0);
        assert_eq!(p.sample(0.5, 0.9), 1.0);
    }

    #[test]
    fn smooth_profile_stays_elliptic() {
        let p = CoeffProfile::SmoothSinusoidal { amplitude: 0.9 };
        let field = p.vertex_field(33);
        assert!(field.iter().all(|&v| v > 0.0));
        assert!(field.iter().any(|&v| v > 1.5));
        assert!(field.iter().any(|&v| v < 0.5));
    }

    #[test]
    fn hash_distinguishes_fields() {
        let a = CoeffProfile::Constant.vertex_field(9);
        let b = CoeffProfile::JumpInclusion { ratio: 1000.0 }.vertex_field(9);
        assert_ne!(field_hash(&a), field_hash(&b));
        assert_eq!(field_hash(&a), field_hash(&a));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_nonpositive_coefficients() {
        let mut f = vec![1.0; 25];
        f[12] = 0.0;
        let _ = StencilCoeffs::from_vertex_field(5, &f);
    }
}
