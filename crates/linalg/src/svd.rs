//! Thin singular value decomposition via one-sided Jacobi (Hestenes).
//!
//! `A = U · diag(σ) · Vᵀ` with `U` (m×k), `V` (n×k), `k = min(m, n)`,
//! singular values **descending**. One-sided Jacobi orthogonalizes the
//! columns of a working copy of `A` with plane rotations accumulated into
//! `V`; it is simple, backward-stable and accurate for the small-to-medium
//! problems this workspace solves (Procrustes `c×c` targets, and the GPI
//! `n×c` polar factors whose `c×c` Gram matrix is too ill-conditioned to
//! use; see [`crate::procrustes::polar_orthogonalize_into`]).
//!
//! Columns of `U` that correspond to zero singular values are completed to
//! an orthonormal set (Gram–Schmidt against the standard basis), so `UᵀU = I`
//! holds even for rank-deficient input — a property the Stiefel-manifold
//! updates in `umsc-core` rely on.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::ops::{axpy, dot, norm2, scale};
use crate::Result;

/// Maximum number of Jacobi sweeps.
const MAX_SWEEPS: usize = 60;

/// Thin SVD `A = U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k`, orthonormal columns.
    pub u: Matrix,
    /// Singular values, descending, length `k = min(m, n)`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × k`, orthonormal columns.
    pub v: Matrix,
}

/// Grow-only scratch buffers for repeated SVDs of same-shaped inputs.
///
/// The block-coordinate solver calls the SVD (through the Procrustes and
/// polar-decomposition wrappers) every iteration on fixed shapes; routing
/// those calls through one `SvdScratch` makes every iteration after the
/// first allocation-free. Buffers are reallocated only when the input shape
/// changes; they never shrink. Results land in the public `u` / `s` / `v`
/// fields and are valid until the next [`Svd::compute_scratch`] call.
///
/// The scratch also carries the `k × k` buffers of the polar factor's Gram
/// route ([`crate::procrustes::polar_orthogonalize_into`]), so one scratch
/// serves both of its routes.
#[derive(Debug, Clone)]
pub struct SvdScratch {
    /// Left singular vectors of the last decomposition, `m × k`.
    pub u: Matrix,
    /// Singular values of the last decomposition, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors of the last decomposition, `n × k`.
    pub v: Matrix,
    ut: Matrix,
    vwork: Matrix,
    at: Matrix,
    ut_sorted: Matrix,
    svals: Vec<f64>,
    order: Vec<usize>,
    cand: Vec<f64>,
    /// Gram route: `MᵀM`, then `Z·diag(λ^{-1/2})`.
    pub(crate) gram: Matrix,
    /// Gram route: eigenvectors `Z` of `MᵀM`.
    pub(crate) z: Matrix,
    /// Gram route: `W = (MᵀM)^{-1/2}`.
    pub(crate) w: Matrix,
    /// Gram route: diagonal, then eigenvalues, of `MᵀM`.
    pub(crate) d: Vec<f64>,
    /// Gram route: off-diagonal of the tridiagonalized `MᵀM`.
    pub(crate) e: Vec<f64>,
}

impl SvdScratch {
    /// An empty scratch; every buffer is allocated on first use.
    pub fn new() -> Self {
        let z = || Matrix::zeros(0, 0);
        SvdScratch {
            u: z(),
            s: Vec::new(),
            v: z(),
            ut: z(),
            vwork: z(),
            at: z(),
            ut_sorted: z(),
            svals: Vec::new(),
            order: Vec::new(),
            cand: Vec::new(),
            gram: z(),
            z: z(),
            w: z(),
            d: Vec::new(),
            e: Vec::new(),
        }
    }
}

impl Default for SvdScratch {
    fn default() -> Self {
        SvdScratch::new()
    }
}

impl Svd {
    /// Computes the thin SVD of `a` into fresh buffers: the test oracle
    /// form. Fits run [`Svd::compute_scratch`].
    pub fn compute(a: &Matrix) -> Result<Svd> {
        let mut ws = SvdScratch::new();
        Svd::compute_scratch(a, &mut ws)?;
        let SvdScratch { u, s, v, .. } = ws;
        Ok(Svd { u, s, v })
    }

    /// Computes the thin SVD of `a` into `ws.u` / `ws.s` / `ws.v`, reusing
    /// the scratch's buffers. Numerically identical to [`Svd::compute`]
    /// (which is this routine with a fresh scratch); after a warm-up call
    /// on each shape, subsequent calls allocate nothing.
    pub fn compute_scratch(a: &Matrix, ws: &mut SvdScratch) -> Result<()> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            let k = m.min(n);
            ws.u.ensure_shape(m, k);
            ws.v.ensure_shape(n, k);
            ws.s.clear();
            ws.s.resize(k, 0.0);
            return Ok(());
        }
        if m >= n {
            svd_tall_scratch(a, ws)?;
        } else {
            // SVD(Aᵀ) = V Σ Uᵀ — run the tall path on the transpose and
            // swap the factors. `at` is moved out of the scratch for the
            // duration of the call to keep the borrows disjoint.
            let mut at = std::mem::replace(&mut ws.at, Matrix::zeros(0, 0));
            at.ensure_shape(n, m);
            a.transpose_into(&mut at);
            let result = svd_tall_scratch(&at, ws);
            ws.at = at;
            result?;
            std::mem::swap(&mut ws.u, &mut ws.v);
        }
        Ok(())
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`: the identity the tests check.
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for j in 0..self.s.len() {
            let col: Vec<f64> = us.col(j).iter().map(|v| v * self.s[j]).collect();
            us.set_col(j, &col);
        }
        us.matmul_transpose_b(&self.v)
    }
}

/// One-sided Jacobi on a tall (m ≥ n) matrix, writing into the scratch's
/// output fields. Allocation-free once the scratch buffers match the shape.
fn svd_tall_scratch(a: &Matrix, ws: &mut SvdScratch) -> Result<()> {
    let (m, n) = a.shape();
    debug_assert!(m >= n);

    // Column views are strided in row-major storage, so work on transposed
    // buffers: rows of `ut` are the columns of the working copy of `a`.
    ws.ut.ensure_shape(n, m);
    a.transpose_into(&mut ws.ut);
    let ut = &mut ws.ut;
    ws.vwork.ensure_shape(n, n);
    ws.vwork.as_mut_slice().fill(0.0);
    for i in 0..n {
        ws.vwork[(i, i)] = 1.0;
    }
    let v = &mut ws.vwork;

    let mut converged = false;
    let scale_ref = a.max_abs().max(f64::MIN_POSITIVE);
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = {
                    let up = ut.row(p);
                    let uq = ut.row(q);
                    (dot(up, up), dot(uq, uq), dot(up, uq))
                };
                // Convergence threshold: 1e-15·√(αβ) sits below the f64
                // roundoff floor of the dot products, so rotations can fire
                // forever on correlated tall columns; 1e-13 relative keeps
                // orthogonality far tighter than any caller needs while
                // always being reachable.
                if gamma.abs() <= 1e-13 * (alpha * beta).sqrt().max(1e-30 * scale_ref * scale_ref) {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_rows(ut, p, q, c, s);
                // Accumulate into V (same rotation on the right factor).
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence { routine: "svd_one_sided_jacobi", max_iter: MAX_SWEEPS });
    }

    // Extract singular values and normalize the left vectors.
    ws.svals.clear();
    for j in 0..n {
        let nj = norm2(ut.row(j));
        ws.svals.push(nj);
    }
    let smax = ws.svals.iter().fold(0.0f64, |a, &b| a.max(b));
    let zero_tol = f64::EPSILON * smax * m as f64;
    for (j, sv) in ws.svals.iter_mut().enumerate() {
        if *sv > zero_tol {
            let inv = 1.0 / *sv;
            scale(inv, ut.row_mut(j));
        } else {
            *sv = 0.0;
            ut.row_mut(j).fill(0.0);
        }
    }

    // Sort descending. `sort_unstable` avoids the stable sort's temp
    // allocation; the index tie-break makes the order deterministic (and
    // equal to what a stable sort would produce).
    ws.order.clear();
    ws.order.extend(0..n);
    {
        let svals = &ws.svals;
        ws.order.sort_unstable_by(|&a, &b| {
            svals[b]
                .partial_cmp(&svals[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }
    ws.s.clear();
    ws.s.resize(n, 0.0);
    ws.ut_sorted.ensure_shape(n, m);
    ws.v.ensure_shape(n, n);
    for (new, &old) in ws.order.iter().enumerate() {
        ws.s[new] = ws.svals[old];
        ws.ut_sorted.row_mut(new).copy_from_slice(ws.ut.row(old));
        for k in 0..n {
            ws.v[(k, new)] = ws.vwork[(k, old)];
        }
    }

    complete_orthonormal_rows(&mut ws.ut_sorted, &ws.s, &mut ws.cand);
    ws.u.ensure_shape(m, n);
    ws.ut_sorted.transpose_into(&mut ws.u);
    Ok(())
}

/// Applies the rotation `[c -s; s c]` to rows `p`, `q` of `m` (which hold
/// column vectors of the original matrix).
fn rotate_rows(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let data = m.as_mut_slice();
    let (head, tail) = data.split_at_mut(hi * cols);
    let row_lo = &mut head[lo * cols..(lo + 1) * cols];
    let row_hi = &mut tail[..cols];
    // (p < q always in the caller, so lo == p.)
    for (a, b) in row_lo.iter_mut().zip(row_hi.iter_mut()) {
        let x = *a;
        let y = *b;
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

/// Replaces zero rows (null left-singular directions) with unit vectors
/// orthonormal to every other row. `cand` is caller-provided scratch so the
/// candidate vector costs no allocation per call.
fn complete_orthonormal_rows(ut: &mut Matrix, s: &[f64], cand: &mut Vec<f64>) {
    let (k, m) = ut.shape();
    cand.resize(m, 0.0);
    for (j, &sj) in s.iter().enumerate().take(k) {
        if sj > 0.0 {
            continue;
        }
        // Try standard basis vectors until one survives orthogonalization.
        'candidates: for e in 0..m {
            cand.fill(0.0);
            cand[e] = 1.0;
            for r in 0..k {
                if r == j {
                    continue;
                }
                let proj = dot(cand, ut.row(r));
                axpy(-proj, ut.row(r), cand);
            }
            let n = norm2(cand);
            if n > 1e-6 {
                scale(1.0 / n, cand);
                ut.row_mut(j).copy_from_slice(cand);
                break 'candidates;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &Matrix, tol: f64) -> Svd {
        let svd = Svd::compute(a).expect("svd failed");
        let (m, n) = a.shape();
        let k = m.min(n);
        assert_eq!(svd.u.shape(), (m, k));
        assert_eq!(svd.v.shape(), (n, k));
        assert_eq!(svd.s.len(), k);
        // Descending non-negative singular values.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
        // Orthonormal factors.
        assert!(svd.u.matmul_transpose_a(&svd.u).approx_eq(&Matrix::identity(k), tol), "UᵀU != I");
        assert!(svd.v.matmul_transpose_a(&svd.v).approx_eq(&Matrix::identity(k), tol), "VᵀV != I");
        // Reconstruction.
        assert!(svd.reconstruct().approx_eq(a, tol * (1.0 + a.max_abs())), "UΣVᵀ != A");
        svd
    }

    #[test]
    fn empty_matrices() {
        let svd = Svd::compute(&Matrix::zeros(0, 3)).unwrap();
        assert!(svd.s.is_empty());
        let svd = Svd::compute(&Matrix::zeros(3, 0)).unwrap();
        assert!(svd.s.is_empty());
    }

    #[test]
    fn diagonal_known_values() {
        let a = Matrix::from_diag(&[3.0, -2.0, 0.5]);
        let svd = check(&a, 1e-12);
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
        assert!((svd.s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tall_wide_and_square() {
        let tall = Matrix::from_fn(7, 3, |i, j| ((i * 3 + j) as f64).sin());
        check(&tall, 1e-10);
        let wide = Matrix::from_fn(3, 7, |i, j| ((i * 5 + j * 2) as f64).cos());
        check(&wide, 1e-10);
        let square = Matrix::from_fn(5, 5, |i, j| (i as f64 - j as f64) * 0.3 + ((i * j) as f64).sin());
        check(&square, 1e-10);
    }

    #[test]
    fn rank_deficient_still_orthonormal() {
        // Rank-1 outer product.
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
        let svd = check(&a, 1e-9);
        assert!(svd.s[0] > 1.0);
        assert!(svd.s[1].abs() < 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 2);
        let svd = check(&a, 1e-12);
        assert!(svd.s.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i + 2 * j) as f64).sin() + 0.1 * i as f64);
        let svd = check(&a, 1e-9);
        let gram = a.matmul_transpose_a(&a);
        let eig = crate::eigen::SymEigen::compute(&gram).unwrap();
        // σ_i² are the eigenvalues of AᵀA (descending vs ascending).
        for (i, &s) in svd.s.iter().enumerate() {
            let lam = eig.eigenvalues[eig.eigenvalues.len() - 1 - i].max(0.0);
            assert!((s * s - lam).abs() < 1e-8 * (1.0 + lam), "σ²={} λ={lam}", s * s);
        }
    }

    #[test]
    fn tall_correlated_matrix_converges() {
        // Regression: a tall matrix whose columns are strongly correlated
        // (a near-indicator block plus small perturbations — the shape the
        // GPI polar step produces) once spun past the sweep budget because
        // the rotation threshold was below the roundoff floor.
        let n = 400;
        let c = 4;
        let a = Matrix::from_fn(n, c, |i, j| {
            let block = (i * c) / n;
            let base = if block == j { 1.0 } else { 0.0 };
            base + 1e-6 * ((i * 31 + j * 17) as f64).sin() + 1e-3 * ((i + j) as f64).cos()
        });
        let svd = Svd::compute(&a).expect("tall correlated SVD must converge");
        assert!(svd.u.matmul_transpose_a(&svd.u).approx_eq(&Matrix::identity(c), 1e-9));
        assert!(svd.reconstruct().approx_eq(&a, 1e-8 * (1.0 + a.max_abs())));
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_to_fresh_compute() {
        // One warm scratch across differently-shaped inputs (tall, wide,
        // square, rank-deficient): every decomposition must match the
        // fresh-scratch path bit for bit.
        let inputs = [
            Matrix::from_fn(7, 3, |i, j| ((i * 3 + j) as f64).sin()),
            Matrix::from_fn(3, 7, |i, j| ((i * 5 + j * 2) as f64).cos()),
            Matrix::from_fn(5, 5, |i, j| (i as f64 - j as f64) * 0.3 + ((i * j) as f64).sin()),
            Matrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0)),
            Matrix::zeros(4, 2),
        ];
        let mut ws = SvdScratch::new();
        for (idx, a) in inputs.iter().enumerate() {
            let fresh = Svd::compute(a).unwrap();
            Svd::compute_scratch(a, &mut ws).unwrap();
            assert_eq!(ws.u.as_slice(), fresh.u.as_slice(), "U differs on input {idx}");
            assert_eq!(ws.s, fresh.s, "σ differs on input {idx}");
            assert_eq!(ws.v.as_slice(), fresh.v.as_slice(), "V differs on input {idx}");
        }
        // Second pass over the same inputs with the now-dirty scratch.
        for (idx, a) in inputs.iter().enumerate() {
            let fresh = Svd::compute(a).unwrap();
            Svd::compute_scratch(a, &mut ws).unwrap();
            assert_eq!(ws.u.as_slice(), fresh.u.as_slice(), "U differs on reuse of input {idx}");
            assert_eq!(ws.s, fresh.s, "σ differs on reuse of input {idx}");
            assert_eq!(ws.v.as_slice(), fresh.v.as_slice(), "V differs on reuse of input {idx}");
        }
    }

    #[test]
    fn orthogonal_input_has_unit_singular_values() {
        // Rotation matrix: all singular values are 1.
        let th = 0.7f64;
        let a = Matrix::from_vec(2, 2, vec![th.cos(), -th.sin(), th.sin(), th.cos()]);
        let svd = check(&a, 1e-12);
        assert!((svd.s[0] - 1.0).abs() < 1e-12);
        assert!((svd.s[1] - 1.0).abs() < 1e-12);
    }
}
