//! Cyclic Jacobi eigensolver for real symmetric matrices.
//!
//! Slower than the tridiagonal QL route in [`crate::eigen`] but robust and
//! simple to audit, which makes it an *independent cross-check*: the
//! property tests require both solvers to agree on random matrices. No fit
//! calls it; it is a test oracle.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Maximum number of full sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 100;

/// Computes all eigenpairs of symmetric `a` by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues **ascending** and
/// eigenvectors in the matching columns, the same convention as
/// [`crate::SymEigen`].
///
/// # Panics
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    assert!(a.is_square(), "jacobi_eigen: matrix is {}x{}, not square", a.rows(), a.cols());
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0)));
    }
    let mut m = a.clone();
    m.symmetrize_mut();
    let mut v = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius mass; stop when negligible.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        let scale = m.max_abs().max(1.0);
        if off.sqrt() <= 1e-14 * scale * n as f64 {
            let mut d: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
            sort_pairs(&mut d, &mut v);
            return Ok((d, v));
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic stable rotation angle computation.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation J(p,q,θ) on both sides: M ← Jᵀ M J.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence { routine: "jacobi_eigen", max_iter: MAX_SWEEPS })
}

fn sort_pairs(d: &mut [f64], v: &mut Matrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(std::cmp::Ordering::Equal));
    let old_d = d.to_vec();
    let old_v = v.clone();
    for (new_idx, &old_idx) in order.iter().enumerate() {
        d[new_idx] = old_d[old_idx];
        if new_idx != old_idx {
            v.set_col(new_idx, &old_v.col(old_idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::SymEigen;

    fn sym(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| f(i.min(j), i.max(j)));
        m.symmetrize_mut();
        m
    }

    #[test]
    fn empty_and_scalar() {
        let (d, _) = jacobi_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(d.is_empty());
        let (d, v) = jacobi_eigen(&Matrix::from_vec(1, 1, vec![4.0])).unwrap();
        assert_eq!(d, vec![4.0]);
        assert_eq!(v[(0, 0)], 1.0);
    }

    #[test]
    fn known_eigenvalues() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (d, v) = jacobi_eigen(&a).unwrap();
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 3.0).abs() < 1e-12);
        // A·v = λ·v for both pairs.
        let av = a.matmul(&v);
        for j in 0..2 {
            for i in 0..2 {
                assert!((av[(i, j)] - d[j] * v[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn agrees_with_ql_solver() {
        for n in [2usize, 4, 7, 11, 16] {
            let a = sym(n, |i, j| ((i * 5 + j * 11) as f64).sin() + if i == j { 2.0 } else { 0.0 });
            let (dj, vj) = jacobi_eigen(&a).unwrap();
            let eig = SymEigen::compute(&a).unwrap();
            for (x, y) in dj.iter().zip(eig.eigenvalues.iter()) {
                assert!((x - y).abs() < 1e-8, "n={n}: {x} vs {y}");
            }
            // Eigenvectors agree up to sign (distinct spectra here).
            let vtv = vj.matmul_transpose_a(&vj);
            assert!(vtv.approx_eq(&Matrix::identity(n), 1e-10));
        }
    }

    #[test]
    fn diagonal_input_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, 1.0, 3.0]);
        let (d, v) = jacobi_eigen(&a).unwrap();
        assert_eq!(d, vec![1.0, 3.0, 5.0]);
        // Eigenvectors are a permutation of the identity columns.
        let vtv = v.matmul_transpose_a(&v);
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-14));
    }
}
