//! Assembly of the 2D discrete Poisson system over a grid's interior
//! as a 5-point band matrix — the matrix the paper's "Solve directly"
//! choice factors (band Cholesky through a DPBSV-equivalent). The
//! boundary-aware solve for every operator family, Poisson included,
//! is `petamg_problems::OpDirect`.

use crate::BandMatrix;

/// Assemble the SPD band matrix of the 5-point operator
/// `A_h u = (4u − Σ neighbors)/h²` over the `(n-2)²` interior unknowns of
/// an `n×n` grid, in row-major interior ordering. Bandwidth is `n-2`.
pub fn assemble_poisson_band(n: usize) -> BandMatrix {
    assert!(n >= 3, "grid too small");
    let k = n - 2; // interior points per side
    let unknowns = k * k;
    let inv_h2 = {
        let nm1 = (n - 1) as f64;
        nm1 * nm1
    };
    let mut a = BandMatrix::zeros(unknowns, k);
    for i in 0..k {
        for j in 0..k {
            let u = i * k + j;
            a.set(u, u, 4.0 * inv_h2);
            if j > 0 {
                a.set(u, u - 1, -inv_h2);
            }
            if i > 0 {
                a.set(u, u - k, -inv_h2);
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembled_matrix_shape() {
        let a = assemble_poisson_band(5);
        assert_eq!(a.n(), 9);
        assert_eq!(a.bandwidth(), 3);
        let inv_h2 = 16.0;
        assert_eq!(a.get(0, 0), 4.0 * inv_h2);
        assert_eq!(a.get(0, 1), -inv_h2);
        assert_eq!(a.get(0, 3), -inv_h2);
        assert_eq!(a.get(0, 2), 0.0); // same row, two apart
                                      // Row wrap: unknown 2 (end of row 0) and 3 (start of row 1) are
                                      // NOT neighbors in the grid.
        assert_eq!(a.get(2, 3), 0.0);
    }

    #[test]
    fn matches_dense_oracle() {
        use crate::DenseMatrix;
        let n = 7; // 25 unknowns
        let k = n - 2;
        let band = assemble_poisson_band(n);
        let mut dense = DenseMatrix::zeros(k * k);
        for i in 0..k * k {
            for j in 0..k * k {
                dense.set(i, j, band.get(i, j));
            }
        }
        let rhs: Vec<f64> = (0..k * k).map(|i| ((i * 11) % 19) as f64 - 9.0).collect();
        let x_band = band.cholesky().unwrap().solve(&rhs).unwrap();
        let x_dense = dense.cholesky_solve(&rhs).unwrap();
        for (u, v) in x_band.iter().zip(&x_dense) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}
