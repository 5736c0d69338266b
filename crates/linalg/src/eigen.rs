//! Dense symmetric eigendecomposition.
//!
//! [`tql2`] is the implicit-shift QL sweep with eigenvector accumulation
//! (EISPACK `tql2` lineage): the Lanczos solver runs it on its Ritz
//! tridiagonal and the polar step, after [`crate::tridiag`], on the
//! `c × c` Gram matrix. [`SymEigen::compute`] chains the two on a whole
//! dense matrix; no fit calls it, and it stays as the test oracle the
//! Krylov and polar paths are checked against. Eigenvalues are returned in
//! **ascending** order with matching eigenvector columns.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::ops::pythag;
use crate::tridiag::tridiagonalize_into;
use crate::Result;

/// Maximum QL iterations per eigenvalue before declaring non-convergence.
const MAX_QL_ITER: usize = 50;

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a real symmetric matrix:
/// the dense test oracle for the eigensolvers a fit runs.
///
/// ```
/// use umsc_linalg::{Matrix, SymEigen};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = SymEigen::compute(&a).unwrap();
/// assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
/// assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
/// // Columns of `eigenvectors` are orthonormal eigenvectors.
/// assert!(eig.max_residual(&a) < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors, one per **column**, aligned with
    /// `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymEigen {
    /// Computes the full eigendecomposition of symmetric `a`.
    ///
    /// The input must be symmetric to within `1e-8 · max|a_ij|`; otherwise
    /// [`LinalgError::NotSymmetric`] is returned (symmetrize first if the
    /// asymmetry is mere floating-point noise).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn compute(a: &Matrix) -> Result<SymEigen> {
        assert!(a.is_square(), "SymEigen::compute: matrix is {}x{}, not square", a.rows(), a.cols());
        let asym = a.max_asymmetry();
        let tol = 1e-8 * a.max_abs().max(1.0);
        if a.rows() > 0 && asym > tol {
            return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
        }
        let (mut z, mut d, mut e) = (Matrix::zeros(0, 0), Vec::new(), Vec::new());
        tridiagonalize_into(a, &mut z, &mut d, &mut e);
        tql2(&mut d, &mut e, &mut z)?;
        sort_ascending(&mut d, &mut z);
        Ok(SymEigen { eigenvalues: d, eigenvectors: z })
    }

    /// Returns the `k` eigenvectors with the smallest eigenvalues as an
    /// `n × k` matrix (columns ordered by ascending eigenvalue).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn smallest(&self, k: usize) -> Matrix {
        assert!(
            k <= self.eigenvalues.len(),
            "SymEigen::smallest: requested {k} of {} eigenpairs",
            self.eigenvalues.len()
        );
        self.eigenvectors.columns(0, k)
    }

    /// Largest residual `‖A·v_i − λ_i·v_i‖∞` over all eigenpairs; a cheap
    /// a-posteriori quality check for tests.
    pub fn max_residual(&self, a: &Matrix) -> f64 {
        let av = a.matmul(&self.eigenvectors);
        let mut worst = 0.0f64;
        for (i, &lam) in self.eigenvalues.iter().enumerate() {
            for r in 0..a.rows() {
                worst = worst.max((av[(r, i)] - lam * self.eigenvectors[(r, i)]).abs());
            }
        }
        worst
    }
}

/// Implicit-shift QL sweep on a symmetric tridiagonal matrix, accumulating
/// the rotations into the columns of `z`.
///
/// On entry `d` holds the diagonal and `e[1..]` the sub-diagonal (`e[0]`
/// ignored); on success `d` holds unordered eigenvalues and the columns of
/// `z` the corresponding eigenvectors.
pub fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<()> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    // Shift the off-diagonal so e[i] couples d[i] and d[i+1].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITER {
                return Err(LinalgError::NoConvergence { routine: "tql2", max_iter: MAX_QL_ITER });
            }
            // Wilkinson-style shift from the leading 2x2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflate: annihilated off-diagonal found mid-sweep.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector columns.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenvalues ascending, permuting the eigenvector columns to match.
fn sort_ascending(d: &mut [f64], z: &mut Matrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(std::cmp::Ordering::Equal));
    let old_d = d.to_vec();
    let old_z = z.clone();
    for (new_idx, &old_idx) in order.iter().enumerate() {
        d[new_idx] = old_d[old_idx];
        if new_idx != old_idx {
            z.set_col(new_idx, &old_z.col(old_idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| f(i.min(j), i.max(j)));
        m.symmetrize_mut();
        m
    }

    fn check(a: &Matrix, tol: f64) -> SymEigen {
        let eig = SymEigen::compute(a).expect("eigendecomposition failed");
        let n = a.rows();
        // Ascending order.
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not ascending: {:?}", eig.eigenvalues);
        }
        // Orthonormal eigenvectors.
        let vtv = eig.eigenvectors.matmul_transpose_a(&eig.eigenvectors);
        assert!(vtv.approx_eq(&Matrix::identity(n), tol), "VᵀV != I");
        // Eigen relation.
        assert!(eig.max_residual(a) < tol * (1.0 + a.max_abs()), "residual too large: {}", eig.max_residual(a));
        // Trace identity.
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < tol * n.max(1) as f64 * (1.0 + a.max_abs()));
        eig
    }

    #[test]
    fn empty_matrix() {
        let eig = SymEigen::compute(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one() {
        let eig = check(&Matrix::from_vec(1, 1, vec![-3.5]), 1e-12);
        assert_eq!(eig.eigenvalues, vec![-3.5]);
    }

    #[test]
    fn known_two_by_two() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let eig = check(&Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]), 1e-12);
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let eig = check(&Matrix::from_diag(&[3.0, -1.0, 2.0, 0.0]), 1e-12);
        assert_eq!(eig.eigenvalues, vec![-1.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2·I has a 2-fold eigenvalue; any orthonormal basis works.
        let eig = check(&Matrix::from_diag(&[2.0, 2.0, 5.0]), 1e-12);
        assert!((eig.eigenvalues[0] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_random_like_matrices() {
        for n in [3usize, 5, 8, 12, 20, 33] {
            let a = sym(n, |i, j| ((i * 37 + j * 13) as f64).cos() + if i == j { 1.5 } else { 0.0 });
            check(&a, 1e-8);
        }
    }

    #[test]
    fn graph_laplacian_has_zero_eigenvalue_and_constant_vector() {
        // Path graph P4 Laplacian.
        let l = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, -1.0, 0.0, 0.0, //
                -1.0, 2.0, -1.0, 0.0, //
                0.0, -1.0, 2.0, -1.0, //
                0.0, 0.0, -1.0, 1.0,
            ],
        );
        let eig = check(&l, 1e-10);
        assert!(eig.eigenvalues[0].abs() < 1e-10);
        // Eigenvector for λ=0 is constant (up to sign).
        let v0 = eig.eigenvectors.col(0);
        let first = v0[0];
        assert!(v0.iter().all(|&v| (v - first).abs() < 1e-8));
    }

    #[test]
    fn smallest_selector() {
        let a = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        let eig = SymEigen::compute(&a).unwrap();
        let s = eig.smallest(2);
        assert_eq!(s.shape(), (3, 2));
        // Column 0 is the eigenvector of λ=1, i.e. e0.
        assert!((s[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_input_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 5.0, 0.0, 1.0]);
        match SymEigen::compute(&a) {
            Err(LinalgError::NotSymmetric { max_asymmetry }) => assert!((max_asymmetry - 5.0).abs() < 1e-12),
            other => panic!("expected NotSymmetric, got {other:?}"),
        }
    }

    #[test]
    fn negative_definite() {
        let a = sym(6, |i, j| -(((i + j) as f64).sin().abs() + if i == j { 4.0 } else { 0.0 }));
        let eig = check(&a, 1e-9);
        assert!(eig.eigenvalues.iter().all(|&l| l < 0.0));
    }

    #[test]
    fn psd_gram_matrix_nonnegative_spectrum() {
        // Gram matrix XᵀX is PSD.
        let x = Matrix::from_fn(4, 6, |i, j| ((i * 7 + j * 3) as f64).sin());
        let g = x.matmul_transpose_a(&x);
        let eig = check(&g, 1e-8);
        assert!(eig.eigenvalues.iter().all(|&l| l > -1e-9), "{:?}", eig.eigenvalues);
    }
}
