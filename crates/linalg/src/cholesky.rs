//! Cholesky factorization and the PSD inverse square root.
//!
//! `A = L · Lᵀ` for symmetric positive-definite `A`, plus the
//! `(YᵀY)^{-1/2}`-style inverse square root needed by the *scaled indicator*
//! variant of spectral rotation.

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

/// Computes `A^{-1/2}` for a symmetric positive *semi*-definite matrix via
/// eigendecomposition, treating eigenvalues below `eps` as `eps` (Tikhonov
/// guard). Used for the scaled indicator `Y (YᵀY)^{-1/2}` where `YᵀY` is
/// diagonal with cluster sizes — possibly zero for an empty cluster.
pub fn inverse_sqrt_psd(a: &Matrix, eps: f64) -> Result<Matrix> {
    let eig = crate::eigen::SymEigen::compute(a)?;
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    // V · diag(λ^{-1/2}) · Vᵀ accumulated column by column.
    for (idx, &lam) in eig.eigenvalues.iter().enumerate() {
        let w = 1.0 / lam.max(eps).sqrt();
        let v = eig.eigenvectors.col(idx);
        for i in 0..n {
            let vi = v[i] * w;
            if vi == 0.0 {
                continue;
            }
            for j in 0..n {
                out[(i, j)] += vi * v[j];
            }
        }
    }
    Ok(out)
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

    #[test]
    fn inverse_sqrt_of_diagonal() {
        let a = Matrix::from_diag(&[4.0, 9.0]);
        let s = inverse_sqrt_psd(&a, 1e-12).unwrap();
        assert!((s[(0, 0)] - 0.5).abs() < 1e-10);
        assert!((s[(1, 1)] - 1.0 / 3.0).abs() < 1e-10);
        assert!(s[(0, 1)].abs() < 1e-10);
    }

    #[test]
    fn inverse_sqrt_property() {
        // (A^{-1/2})·A·(A^{-1/2}) = I for SPD A.
        let a = spd(5);
        let s = inverse_sqrt_psd(&a, 1e-14).unwrap();
        let prod = s.matmul(&a).matmul(&s);
        assert!(prod.approx_eq(&Matrix::identity(5), 1e-7), "{prod:?}");
    }

    #[test]
    fn inverse_sqrt_guards_zero_eigenvalues() {
        // Singular PSD matrix: guarded, finite output.
        let a = Matrix::from_diag(&[1.0, 0.0]);
        let s = inverse_sqrt_psd(&a, 1e-6).unwrap();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s[(0, 0)] - 1.0).abs() < 1e-9);
        assert!(s[(1, 1)] > 0.0);
    }
}
