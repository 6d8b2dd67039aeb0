//! Small dense solvers, the band kernels' test oracles.

use crate::LinalgError;

/// A dense row-major square matrix (small sizes only; O(n³) solvers).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "empty matrix");
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read `A(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Write `A(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// `y = A x`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.get(i, j) * x[j]).sum())
            .collect()
    }

    /// Dense Cholesky solve for SPD matrices (oracle for the band
    /// version).
    pub(crate) fn cholesky_solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let n = self.n;
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let mut diag = self.get(j, j);
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite(j));
            }
            let pivot = diag.sqrt();
            l[j * n + j] = pivot;
            for i in j + 1..n {
                let mut v = self.get(i, j);
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / pivot;
            }
        }
        let mut x = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                x[i] -= l[i * n + k] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= l[k * n + i] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        Ok(x)
    }

    /// Gaussian elimination with partial pivoting (general oracle).
    pub(crate) fn gauss_solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let n = self.n;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot_row = r;
                }
            }
            if best == 0.0 {
                return Err(LinalgError::NotPositiveDefinite(col)); // singular
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let inv = 1.0 / a[col * n + col];
            for r in col + 1..n {
                let factor = a[r * n + col] * inv;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= a[i * n + j] * x[j];
            }
            x[i] /= a[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> DenseMatrix {
        // A = M^T M + I for M with entries (i*3+j)%5, guaranteed SPD.
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, ((i * 3 + j) % 5) as f64 - 1.5);
            }
        }
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut v = if i == j { 1.0 } else { 0.0 };
                for k in 0..n {
                    v += m.get(k, i) * m.get(k, j);
                }
                a.set(i, j, v);
            }
        }
        a
    }

    #[test]
    fn cholesky_and_gauss_agree_on_spd() {
        let a = spd_example();
        let b: Vec<f64> = (0..a.n()).map(|i| i as f64 - 2.0).collect();
        let x1 = a.cholesky_solve(&b).unwrap();
        let x2 = a.gauss_solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9);
        }
        let ax = a.matvec(&x1);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn gauss_handles_permutation_needed() {
        // First pivot is zero: [[0,1],[1,0]] x = [3,4] -> x = [4,3].
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let x = a.gauss_solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        assert!(a.gauss_solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn non_spd_rejected_by_cholesky() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 0.0);
        a.set(1, 1, 1.0);
        assert!(matches!(
            a.cholesky_solve(&[1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite(0))
        ));
    }
}
