//! Banded assembly and direct solution for arbitrary [`StencilOp`]s —
//! the coarse-grid "Solve directly" choice generalized beyond the
//! Poisson operator.
//!
//! The assembled matrix is symmetric positive definite for every
//! operator this crate produces: face weights are shared between
//! neighboring cells (`e(i,j) == w(i,j+1)`, `s(i,j) == n(i+1,j)`) and
//! the diagonal is the sum of the face weights, giving weak diagonal
//! dominance with strict dominance on boundary-adjacent rows. With
//! [`StencilOp::Poisson`] the assembly reproduces
//! `petamg_linalg::assemble_poisson_band` entry for entry.

use crate::op::StencilOp;
use petamg_grid::Grid2d;
use petamg_linalg::{BandCholesky, BandMatrix, LinalgError};

/// Assemble the SPD band matrix of operator `op` over the `(n-2)²`
/// interior unknowns of an `n×n` grid (row-major interior ordering,
/// bandwidth `n-2`).
///
/// # Panics
/// Panics if `n < 3` or the operator is bound to another size.
pub(crate) fn assemble_op_band(op: &StencilOp, n: usize) -> BandMatrix {
    assert!(n >= 3, "grid too small");
    op.assert_n(n);
    let k = n - 2;
    let unknowns = k * k;
    let inv_h2 = {
        let nm1 = (n - 1) as f64;
        nm1 * nm1
    };
    let mut a = BandMatrix::zeros(unknowns, k);
    for i in 0..k {
        for j in 0..k {
            let u = i * k + j;
            let (cw, ce, cn, cs, cc) = op.weights_at(i + 1, j + 1);
            // The packed storage keeps only the lower band, so the
            // operator must actually be symmetric (shared faces) and
            // its diagonal consistent — otherwise Cholesky would
            // silently factor a different (symmetrized) matrix.
            assert_eq!(
                cc,
                ((cw + ce) + cn) + cs,
                "diagonal of cell ({i},{j}) is not the face-weight sum"
            );
            if j > 0 {
                let (_, e_left, _, _, _) = op.weights_at(i + 1, j);
                assert_eq!(
                    cw, e_left,
                    "asymmetric west/east face at cell ({i},{j}): banded solve needs shared faces"
                );
            }
            if i > 0 {
                let (_, _, _, s_up, _) = op.weights_at(i, j + 1);
                assert_eq!(
                    cn, s_up,
                    "asymmetric north/south face at cell ({i},{j}): banded solve needs shared faces"
                );
            }
            a.set(u, u, cc * inv_h2);
            if j > 0 {
                // West face of (i+1, j+1) == east face of (i+1, j),
                // asserted above, so symmetric storage is exact.
                a.set(u, u - 1, -(cw * inv_h2));
            }
            if i > 0 {
                a.set(u, u - k, -(cn * inv_h2));
            }
        }
    }
    a
}

/// A reusable direct solver for one operator at one grid size: the band
/// Cholesky factor plus the boundary-aware right-hand-side assembly.
#[derive(Clone, Debug)]
pub struct OpDirect {
    n: usize,
    op: StencilOp,
    factor: BandCholesky,
}

impl OpDirect {
    /// Factor the interior system of `op` for `n×n` grids, in the
    /// assembled band's own storage.
    pub fn new(op: StencilOp, n: usize) -> Result<Self, LinalgError> {
        let factor = assemble_op_band(&op, n).into_cholesky()?;
        Ok(OpDirect { n, op, factor })
    }

    /// Grid size this solver was factored for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solve `A x = b` exactly: reads `b`'s interior and `x`'s boundary
    /// ring (Dirichlet data), overwrites `x`'s interior.
    ///
    /// # Panics
    /// Panics if grid sizes don't match the factored size.
    pub fn solve(&self, x: &mut Grid2d, b: &Grid2d) {
        assert_eq!(x.n(), self.n, "x size mismatch");
        assert_eq!(b.n(), self.n, "b size mismatch");
        let n = self.n;
        let k = n - 2;
        let inv_h2 = x.inv_h2();
        // RHS: interior b plus boundary contributions moved right; each
        // boundary neighbor v contributes +(weight·v)/h².
        let mut rhs = vec![0.0; k * k];
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let (cw, ce, cn, cs, _cc) = self.op.weights_at(i, j);
                let mut v = b.at(i, j);
                if i == 1 {
                    v += (cn * inv_h2) * x.at(0, j);
                }
                if i == n - 2 {
                    v += (cs * inv_h2) * x.at(n - 1, j);
                }
                if j == 1 {
                    v += (cw * inv_h2) * x.at(i, 0);
                }
                if j == n - 2 {
                    v += (ce * inv_h2) * x.at(i, n - 1);
                }
                rhs[(i - 1) * k + (j - 1)] = v;
            }
        }
        self.factor
            .solve_in_place(&mut rhs)
            .expect("factored system must accept matching RHS");
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                x.set(i, j, rhs[(i - 1) * k + (j - 1)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::residual_op;
    use crate::Problem;
    use petamg_grid::{l2_norm_interior, SimdMode};
    use petamg_linalg::assemble_poisson_band;

    #[test]
    fn poisson_assembly_matches_legacy_entry_for_entry() {
        for n in [3usize, 5, 9, 17] {
            let a = assemble_op_band(&StencilOp::Poisson, n);
            let want = assemble_poisson_band(n);
            assert_eq!(a.n(), want.n());
            for i in 0..a.n() {
                for j in 0..a.n() {
                    assert_eq!(a.get(i, j).to_bits(), want.get(i, j).to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn poisson_base_case_3x3_single_unknown() {
        // N=3: one interior point; 4·x/h² − (boundary)/h² = b.
        let solver = OpDirect::new(StencilOp::Poisson, 3).unwrap();
        let mut x = Grid2d::zeros(3);
        x.set_boundary(|_, _| 1.0);
        let b = Grid2d::from_fn(3, |_, _| 8.0);
        solver.solve(&mut x, &b);
        // 4x/h² = b + 4·1/h² with h=1/2 → inv_h2=4: 16x = 8 + 16 → x=1.5
        assert!((x.at(1, 1) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_exact_on_manufactured_solution() {
        // u = x² + y² (stencil-exact), f = A_h u = -4.
        for n in [5, 9, 17, 33] {
            let h = 1.0 / (n as f64 - 1.0);
            let exact = Grid2d::from_fn(n, |i, j| {
                let (xx, yy) = (j as f64 * h, i as f64 * h);
                xx * xx + yy * yy
            });
            let b = Grid2d::from_fn(n, |_, _| -4.0);
            let mut x = Grid2d::zeros(n);
            x.copy_boundary_from(&exact);
            let solver = OpDirect::new(StencilOp::Poisson, n).unwrap();
            solver.solve(&mut x, &b);
            let mut diff = x.clone();
            diff.axpy(-1.0, &exact);
            let err = l2_norm_interior(&diff, &SimdMode::host());
            assert!(err < 1e-9, "n={n}: err={err}");
        }
    }

    #[test]
    fn solve_is_deterministic() {
        let n = 9;
        let b = Grid2d::from_fn(n, |i, j| (i * n + j) as f64);
        let solver = OpDirect::new(StencilOp::Poisson, n).unwrap();
        let run = || {
            let mut x = Grid2d::zeros(n);
            solver.solve(&mut x, &b);
            x
        };
        assert_eq!(run().as_slice(), run().as_slice());
    }

    #[test]
    fn every_family_factors_and_solves_to_zero_residual() {
        // Bandwidths 15, 31 and 63: below, across and well beyond one
        // 8-lane chunk and one 4-column block of the band kernels.
        let e = SimdMode::host();
        for n in [17, 33, 65] {
            for p in [
                Problem::poisson(),
                Problem::anisotropic_canonical(),
                Problem::smooth_sinusoidal(n),
                Problem::jump_inclusion(n),
            ] {
                let op = p.op_for(n);
                let solver = OpDirect::new(op.clone(), n).expect("SPD operators must factor");
                let mut x = Grid2d::zeros(n);
                x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
                let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 100.0 - 1400.0);
                solver.solve(&mut x, &b);
                let mut r = Grid2d::zeros(n);
                residual_op(&op, &x, &b, &mut r, &e);
                let rel = l2_norm_interior(&r, &e) / l2_norm_interior(&b, &e).max(1.0);
                assert!(rel < 1e-9, "{} n={n}: rel residual {rel}", p.describe());
            }
        }
    }

    #[test]
    fn jump_matrix_is_stiff_but_spd() {
        // The ×1000 inclusion produces a huge condition number; Cholesky
        // must still succeed (the matrix stays SPD).
        let p = Problem::jump_inclusion(17);
        let a = assemble_op_band(&p.op_for(17), 17);
        assert!(a.cholesky().is_ok());
        // Diagonal inside the inclusion is orders of magnitude larger.
        let mid = a.get(7 * 15 + 7, 7 * 15 + 7);
        let corner = a.get(0, 0);
        assert!(mid > 100.0 * corner, "mid={mid} corner={corner}");
    }

    /// 64-bit FNV-1a over `f64::to_bits`: a hash whose algorithm is
    /// fixed, unlike `DefaultHasher`'s.
    fn fnv1a(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn factor_and_solve_keep_their_bits() {
        // Bandwidths 31 and 63, Poisson and the stiff ×1000 inclusion.
        // The constants were recorded on the portable band kernels;
        // every vector tier must reproduce them, since each factor
        // entry and each solved value sees the same operations in the
        // same order whatever instructions carry them.
        let pins: [(usize, Problem, [u64; 2]); 4] = [
            (
                33,
                Problem::poisson(),
                [0xf003_7496_9231_488c, 0x1d6f_e4b5_f657_0020],
            ),
            (
                33,
                Problem::jump_inclusion(33),
                [0x4e9f_6e3d_0c14_2978, 0x773b_3b19_a75f_44c4],
            ),
            (
                65,
                Problem::poisson(),
                [0xf2de_67ba_f141_a3ad, 0x5534_0184_9e18_71f9],
            ),
            (
                65,
                Problem::jump_inclusion(65),
                [0x1534_409d_6ac2_2ec9, 0xec53_21d3_3b38_b49a],
            ),
        ];
        for (n, p, pin) in pins {
            let solver = OpDirect::new(p.op_for(n), n).expect("SPD operators must factor");
            let mut x = Grid2d::zeros(n);
            x.set_boundary(|i, j| ((i * 37 + j * 61) % 19) as f64 - 9.0);
            let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 7) % 29) as f64 * 100.0 - 1400.0);
            solver.solve(&mut x, &b);
            let (factor, solve) = (fnv1a(solver.factor.packed()), fnv1a(x.as_slice()));
            assert_eq!(
                [factor, solve],
                pin,
                "{} n={n}: ({factor:#018x}, {solve:#018x})",
                p.describe()
            );
        }
    }
}
