//! Cholesky factorization `A = L · Lᵀ` of a symmetric positive-definite
//! matrix.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Computes the lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
/// positive.
///
/// # Panics
/// Panics if `a` is not square.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    assert!(a.is_square(), "cholesky: matrix is {}x{}, not square", a.rows(), a.cols());
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // XᵀX + n·I is SPD.
        let x = Matrix::from_fn(n + 2, n, |i, j| ((i * 3 + j * 5) as f64).sin());
        let mut g = x.matmul_transpose_a(&x);
        for i in 0..n {
            g[(i, i)] += n as f64;
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1usize, 2, 5, 9] {
            let a = spd(n);
            let l = cholesky(&a).unwrap();
            // Lower triangular.
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
            assert!(l.matmul_transpose_b(&l).approx_eq(&a, 1e-9));
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        match cholesky(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }
}
