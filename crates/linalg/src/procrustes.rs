//! Orthogonal Procrustes and polar orthogonalization.
//!
//! These two small routines are the engine of *spectral rotation*:
//!
//! * [`procrustes`] — `argmax_{RᵀR=I} tr(Rᵀ M)` for a given `M` (e.g.
//!   `M = FᵀY` when aligning an embedding `F` with an indicator `Y`);
//! * [`polar_orthogonalize`] — nearest matrix with orthonormal columns to a
//!   given `n × k` matrix, the projection step of the GPI Stiefel solver.
//!
//! Both return the polar factor `U Vᵀ` of the thin SVD `M = U Σ Vᵀ`.
//! [`procrustes`] computes it from that SVD. [`polar_orthogonalize`] forms
//! it as `M·(MᵀM)^{-1/2}` from a `k × k` eigensolve of the Gram matrix,
//! and falls back to the SVD of `M` when `MᵀM` is ill-conditioned.

use crate::eigen::tql2;
use crate::matrix::Matrix;
use crate::svd::{ensure_shape, Svd, SvdScratch};
use crate::tridiag::tridiagonalize_into;
use crate::Result;

/// Smallest `λ_min / λ_max` of `MᵀM` (that is, `cond(M) ≤ √1000 ≈ 31.6`)
/// for which the polar factor is formed from the Gram matrix. Forming
/// `MᵀM` squares the condition number, so the Gram route's columns drift
/// from orthonormal like `ε·cond(M)²`. Over random inputs of up to 60×8
/// the worst `max |FᵀF − I|` measured 3.7e-13 at this bound and 3.2e-12
/// at `cond(M) = 99`; GPI iterates sit near `cond(M) = 1`.
const GRAM_MIN_EIG_RATIO: f64 = 1e-3;

/// Solves the orthogonal Procrustes problem `max_{RᵀR = I} tr(Rᵀ M)`.
///
/// Returns the square orthogonal `R = U Vᵀ` from the SVD `M = U Σ Vᵀ`.
/// Equivalently this minimizes `‖R − M‖_F` over orthogonal matrices.
///
/// # Panics
/// Panics if `m` is not square (rotations here are always `c × c`).
pub fn procrustes(m: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    procrustes_into(m, &mut SvdScratch::new(), &mut out)?;
    Ok(out)
}

/// [`procrustes`] writing into `out` through a reusable [`SvdScratch`]:
/// allocation-free once the scratch is warm. Numerically identical to the
/// allocating version.
///
/// # Panics
/// Panics if `m` is not square or `out` has a different shape.
pub fn procrustes_into(m: &Matrix, ws: &mut SvdScratch, out: &mut Matrix) -> Result<()> {
    assert!(m.is_square(), "procrustes: matrix is {}x{}, not square", m.rows(), m.cols());
    assert_eq!(out.shape(), m.shape(), "procrustes_into: out shape mismatch");
    Svd::compute_scratch(m, ws)?;
    ws.u.matmul_transpose_b_into(&ws.v, out);
    Ok(())
}

/// Projects an `n × k` matrix (`n ≥ k`) onto the Stiefel manifold: returns
/// the nearest matrix with orthonormal columns, the polar factor `U Vᵀ` of
/// the thin SVD `M = U Σ Vᵀ`.
///
/// This is the `F ← UVᵀ` step of Generalized Power Iteration: it maximizes
/// `tr(Fᵀ M)` over `FᵀF = I`.
///
/// # Panics
/// Panics if `n < k` (no orthonormal-column matrix of that shape exists).
pub fn polar_orthogonalize(m: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    polar_orthogonalize_into(m, &mut SvdScratch::new(), &mut out)?;
    Ok(out)
}

/// [`polar_orthogonalize`] writing into `out` through a reusable
/// [`SvdScratch`]: allocation-free once the scratch is warm. Numerically
/// identical to the allocating version.
///
/// The polar factor is `M·(MᵀM)^{-1/2}`: two thin GEMMs around a `k × k`
/// eigensolve (Householder + QL) of the Gram matrix `G = MᵀM`, so the
/// O(n·k²) work runs in the threaded GEMM kernels. When
/// `λ_min(G) < 1e-3·λ_max(G)` (`cond(M) > 31.6`, including zero and
/// rank-deficient `M`) that loses orthogonality, and the SVD of `M` is
/// used instead; each such call counts one `polar.svd_fallback`.
///
/// # Panics
/// Panics if `n < k` or `out` has a different shape.
pub fn polar_orthogonalize_into(m: &Matrix, ws: &mut SvdScratch, out: &mut Matrix) -> Result<()> {
    let (n, k) = m.shape();
    assert!(n >= k, "polar_orthogonalize: need rows >= cols, got {n}x{k}");
    assert_eq!(out.shape(), m.shape(), "polar_orthogonalize_into: out shape mismatch");
    if polar_from_gram(m, ws, out) {
        return Ok(());
    }
    umsc_obs::counter!("polar.svd_fallback", 1);
    Svd::compute_scratch(m, ws)?;
    ws.u.matmul_transpose_b_into(&ws.v, out);
    Ok(())
}

/// The Gram route of [`polar_orthogonalize_into`]: writes
/// `M·(MᵀM)^{-1/2}` into `out` and returns `true`, or returns `false`
/// without touching `out` when `MᵀM` fails the conditioning bound (or is
/// not finite, or its QL sweep does not converge).
///
/// `G^{-1/2} = Z·diag(λ^{-1/2})·Zᵀ` does not depend on the order of the
/// eigenpairs, so the QL output is used unsorted.
fn polar_from_gram(m: &Matrix, ws: &mut SvdScratch, out: &mut Matrix) -> bool {
    let k = m.cols();
    ensure_shape(&mut ws.gram, k, k);
    ensure_shape(&mut ws.w, k, k);
    // Every entry of MᵀM sums the same products in the same order as its
    // mirror, so G is exactly symmetric.
    m.matmul_transpose_a_into(m, &mut ws.gram);
    tridiagonalize_into(&ws.gram, &mut ws.z, &mut ws.d, &mut ws.e);
    if tql2(&mut ws.d, &mut ws.e, &mut ws.z).is_err() {
        return false;
    }
    let lambda_max = ws.d.iter().fold(0.0f64, |a, &b| a.max(b));
    // Written so that a NaN eigenvalue fails the test too.
    let well_conditioned =
        lambda_max.is_finite() && ws.d.iter().all(|&l| l > 0.0 && l >= GRAM_MIN_EIG_RATIO * lambda_max);
    if !well_conditioned {
        return false;
    }
    for i in 0..k {
        for (j, &l) in ws.d.iter().enumerate() {
            ws.gram[(i, j)] = ws.z[(i, j)] / l.sqrt();
        }
    }
    ws.gram.matmul_transpose_b_into(&ws.z, &mut ws.w);
    m.matmul_into(&ws.w, out);
    true
}

/// Value of the Procrustes objective `tr(Rᵀ M)` — exposed for tests and
/// for monitoring GPI inner-loop monotonicity.
pub fn alignment(r: &Matrix, m: &Matrix) -> f64 {
    r.matmul_transpose_a(m).trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotation2(theta: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![theta.cos(), -theta.sin(), theta.sin(), theta.cos()])
    }

    #[test]
    fn recovers_exact_rotation() {
        // If M itself is orthogonal, R = M.
        let q = rotation2(0.9);
        let r = procrustes(&q).unwrap();
        assert!(r.approx_eq(&q, 1e-12));
    }

    #[test]
    fn result_is_orthogonal() {
        let m = Matrix::from_fn(3, 3, |i, j| ((i * 4 + j) as f64).sin() + 0.2);
        let r = procrustes(&m).unwrap();
        assert!(r.matmul_transpose_a(&r).approx_eq(&Matrix::identity(3), 1e-10));
        assert!(r.matmul_transpose_b(&r).approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn optimality_against_sampled_rotations() {
        // tr(RᵀM) at the Procrustes solution must beat any sampled rotation.
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.3, -0.2, 0.7]);
        let r_star = procrustes(&m).unwrap();
        let best = alignment(&r_star, &m);
        for step in 0..360 {
            let theta = step as f64 * std::f64::consts::PI / 180.0;
            // Proper and improper rotations both.
            let r = rotation2(theta);
            assert!(alignment(&r, &m) <= best + 1e-9);
            let mut refl = r.clone();
            refl.set_col(1, &refl.col(1).iter().map(|v| -v).collect::<Vec<_>>());
            assert!(alignment(&refl, &m) <= best + 1e-9);
        }
    }

    #[test]
    fn polar_returns_orthonormal_columns() {
        let m = Matrix::from_fn(6, 3, |i, j| (i as f64 * 0.5 - j as f64).cos());
        let f = polar_orthogonalize(&m).unwrap();
        assert_eq!(f.shape(), (6, 3));
        assert!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(3), 1e-10));
        // tr(FᵀM) is maximal: compare against QR's Q factor.
        let q = crate::qr::qr(&m).q;
        assert!(alignment(&f, &m) >= alignment(&q, &m) - 1e-9);
    }

    #[test]
    fn polar_of_orthonormal_is_identity_operation() {
        let q = crate::qr::qr(&Matrix::from_fn(5, 2, |i, j| ((i + j * 3) as f64).sin())).q;
        let f = polar_orthogonalize(&q).unwrap();
        assert!(f.approx_eq(&q, 1e-10));
    }

    #[test]
    fn polar_handles_rank_deficiency() {
        // Rank-1 input still yields a full orthonormal frame.
        let m = Matrix::from_fn(5, 3, |i, _| (i + 1) as f64);
        let f = polar_orthogonalize(&m).unwrap();
        assert!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn into_variants_match_allocating_versions_bitwise() {
        let mut ws = SvdScratch::new();
        let m = Matrix::from_fn(4, 4, |i, j| ((i * 4 + j) as f64).sin() + 0.2);
        let mut out = Matrix::filled(4, 4, f64::NAN);
        procrustes_into(&m, &mut ws, &mut out).unwrap();
        assert_eq!(out.as_slice(), procrustes(&m).unwrap().as_slice());

        // Reuse the same (dirty) scratch for a polar factor of another shape.
        let p = Matrix::from_fn(9, 3, |i, j| (i as f64 * 0.5 - j as f64).cos());
        let mut out = Matrix::filled(9, 3, f64::NAN);
        for _ in 0..2 {
            polar_orthogonalize_into(&p, &mut ws, &mut out).unwrap();
            assert_eq!(out.as_slice(), polar_orthogonalize(&p).unwrap().as_slice());
        }
    }

    #[test]
    fn zero_matrix_polar_is_orthonormal() {
        let f = polar_orthogonalize(&Matrix::zeros(4, 2)).unwrap();
        assert!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(2), 1e-8));
    }
}
