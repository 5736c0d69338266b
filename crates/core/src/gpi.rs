//! Generalized Power Iteration (GPI) on the Stiefel manifold.
//!
//! Solves the quadratic problem
//!
//! ```text
//! min_{FᵀF = I}  tr(Fᵀ A F) − 2·tr(Fᵀ B)
//! ```
//!
//! for symmetric `A` (Nie, Zhang & Li, *"A Generalized Power Iteration
//! Method for Solving Quadratic Problem on the Stiefel Manifold"*, 2017).
//! With a shift `η ≥ λ_max(A)` the equivalent maximization of
//! `tr(Fᵀ(ηI − A)F) + 2 tr(FᵀB)` has a monotone fixed-point iteration
//!
//! ```text
//! M ← (ηI − A)·F + B,    F ← U Vᵀ  where  M = U Σ Vᵀ (thin SVD).
//! ```
//!
//! The projection `F ← U Vᵀ` is the polar factor of `M`, computed by
//! [`polar_orthogonalize_into`] as `M·(MᵀM)^{-1/2}` from the `k × k` Gram
//! matrix (the SVD of `M` serves only ill-conditioned iterates).
//!
//! This is the `F`-step of the unified solver, and [`gpi_stiefel_op_ws`]
//! is its only loop: the engine's sweep calls it once per F-step on every
//! view set, passing the set's fused operator `A` (the weighted fused
//! Laplacian, or one that differs from it by a multiple of `I`), the
//! set's spectral bound `η`, and `B = λ·Y·Rᵀ`, which pulls the embedding
//! toward the current rotated indicator.

use crate::Result;
use umsc_linalg::{polar_orthogonalize_into, LinOp, Matrix, SvdScratch};

/// Objective value `tr(FᵀAF) − 2·tr(FᵀB)`.
pub fn gpi_objective(a: &Matrix, b: &Matrix, f: &Matrix) -> f64 {
    let (n, k) = f.shape();
    let mut af = Matrix::zeros(n, k);
    let mut cc = Matrix::zeros(k, k);
    gpi_objective_ws(a, b, f, &mut af, &mut cc)
}

/// [`gpi_objective`] through caller-provided scratch (`af` is `n × k`,
/// `cc` is `k × k`): allocation-free, numerically identical, and leaves
/// `A·F` in `af`. `a` is any matrix-free operator; a dense [`Matrix`]
/// takes the same row-kernel path as `Matrix::matmul_into`, so dense
/// results are unchanged.
fn gpi_objective_ws(a: &dyn LinOp, b: &Matrix, f: &Matrix, af: &mut Matrix, cc: &mut Matrix) -> f64 {
    a.apply_block_into(f.as_slice(), f.cols(), af.as_mut_slice());
    let quad = trace_ft_x(f, af, cc);
    quad - 2.0 * trace_ft_x(f, b, cc)
}

/// `tr(Fᵀ X)`: the diagonal of `F.matmul_transpose_a_into(X, cc)` built
/// alone, in that kernel's operation order (rows in order from `0.0`,
/// zero entries of `F` skipped), then `cc.trace()`. Bitwise the same
/// value at O(n·k) instead of O(n·k²) flops.
fn trace_ft_x(f: &Matrix, x: &Matrix, cc: &mut Matrix) -> f64 {
    cc.as_mut_slice().fill(0.0);
    for p in 0..f.rows() {
        for (i, (&a, &b)) in f.row(p).iter().zip(x.row(p)).enumerate() {
            if a != 0.0 {
                cc[(i, i)] += a * b;
            }
        }
    }
    cc.trace()
}

/// Reusable buffers for [`gpi_stiefel_op_ws`]: the shifted iterate `M`, the
/// product `A·F`, a `k × k` trace scratch, and the SVD scratch backing the
/// polar projection. Grow-only — reusing one workspace across outer solver
/// iterations makes the whole GPI inner loop allocation-free.
#[derive(Debug, Clone)]
pub struct GpiWorkspace {
    pub(crate) m: Matrix,
    pub(crate) af: Matrix,
    pub(crate) cc: Matrix,
    pub(crate) svd: SvdScratch,
}

impl GpiWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        GpiWorkspace {
            m: Matrix::zeros(0, 0),
            af: Matrix::zeros(0, 0),
            cc: Matrix::zeros(0, 0),
            svd: SvdScratch::new(),
        }
    }

    pub(crate) fn ensure(&mut self, n: usize, k: usize) {
        crate::workspace::count_reallocs(&[
            self.m.ensure_shape(n, k),
            self.af.ensure_shape(n, k),
            self.cc.ensure_shape(k, k),
        ]);
    }
}

impl Default for GpiWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs GPI on any [`LinOp`] `a`, advancing the Stiefel point `f` in
/// place, given a shift `eta ≥ λ_max(A)` (the caller knows its operator's
/// spectral bound — the Gershgorin bound of a dense matrix, `2·Σ_v w_v`
/// for a weighted sum of normalized Laplacians).
///
/// `a` must be symmetric `n × n`; `b` and `f` are `n × k` with `n ≥ k` and
/// `fᵀf = I`. Stops when the relative objective improvement drops below
/// `tol` or after `max_iter` iterations, whichever is first (the latter
/// counts one `gpi.capped`); the objective is non-increasing at every
/// step by construction. Allocation-free once `ws` (and any
/// operator-internal scratch) is warm.
///
/// # Panics
/// Panics on shape mismatch.
pub fn gpi_stiefel_op_ws(
    a: &dyn LinOp,
    eta: f64,
    b: &Matrix,
    f: &mut Matrix,
    max_iter: usize,
    tol: f64,
    ws: &mut GpiWorkspace,
) -> Result<()> {
    let (n, k) = f.shape();
    assert_eq!(a.dim(), n, "gpi_stiefel_op_ws: A must be {n}x{n}");
    assert_eq!(b.shape(), (n, k), "gpi_stiefel_op_ws: B must be {n}x{k}");
    assert!(n >= k, "gpi_stiefel_op_ws: need n >= k");
    ws.ensure(n, k);
    let GpiWorkspace { m, af, cc, svd } = ws;

    let _span = umsc_obs::span!("gpi.solve");
    // Each objective evaluation leaves `A·F` of the current `F` in `af`,
    // so every iteration applies `A` once.
    let mut prev = gpi_objective_ws(a, b, f, af, cc);
    for _ in 0..max_iter {
        umsc_obs::counter!("gpi.iters", 1);
        // M = (ηI − A)F + B = η·F − A·F + B.
        m.copy_from(f);
        m.scale_mut(eta);
        m.axpy(-1.0, af);
        m.axpy(1.0, b);
        polar_orthogonalize_into(m, svd, f)?;
        let obj = gpi_objective_ws(a, b, f, af, cc);
        // Monotone by theory; the guard tolerates rounding.
        debug_assert!(obj <= prev + 1e-7 * (1.0 + prev.abs()), "GPI objective increased: {prev} -> {obj}");
        if (prev - obj).abs() <= tol * (1.0 + prev.abs()) {
            return Ok(());
        }
        prev = obj;
    }
    umsc_obs::counter!("gpi.capped", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_linalg::{polar_orthogonalize, SymEigen};

    fn sym(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| f(i.min(j), i.max(j)));
        m.symmetrize_mut();
        m
    }

    fn stiefel_init(n: usize, k: usize) -> Matrix {
        polar_orthogonalize(&Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 5 + 1) as f64).sin())).unwrap()
    }

    /// GPI on a dense matrix from `f0`, shifted by its Gershgorin bound.
    fn gpi_dense(a: &Matrix, b: &Matrix, f0: &Matrix, max_iter: usize, tol: f64) -> Matrix {
        let eta = a.gershgorin_upper_bound().max(0.0) + 1e-9;
        let mut f = f0.clone();
        gpi_stiefel_op_ws(a, eta, b, &mut f, max_iter, tol, &mut GpiWorkspace::new()).unwrap();
        f
    }

    #[test]
    fn with_zero_b_recovers_smallest_eigenspace() {
        // min tr(FᵀAF) over Stiefel = sum of k smallest eigenvalues.
        let a = sym(8, |i, j| ((i + 2 * j) as f64).cos() + if i == j { 3.0 } else { 0.0 });
        let b = Matrix::zeros(8, 3);
        let f = gpi_dense(&a, &b, &stiefel_init(8, 3), 500, 1e-12);
        let eig = SymEigen::compute(&a).unwrap();
        let best: f64 = eig.eigenvalues[..3].iter().sum();
        let got = gpi_objective(&a, &b, &f);
        assert!(got <= best + 1e-5, "GPI {got} vs eigen optimum {best}");
    }

    #[test]
    fn objective_monotone_along_iterations() {
        let a = sym(10, |i, j| ((i * 7 + j) as f64).sin() + if i == j { 2.0 } else { 0.0 });
        let b = Matrix::from_fn(10, 2, |i, j| ((i + j) as f64).cos());
        let f0 = stiefel_init(10, 2);
        let mut prev = gpi_objective(&a, &b, &f0);
        let mut f = f0;
        for _ in 0..20 {
            f = gpi_dense(&a, &b, &f, 1, 0.0);
            let obj = gpi_objective(&a, &b, &f);
            assert!(obj <= prev + 1e-9, "{obj} > {prev}");
            prev = obj;
        }
    }

    #[test]
    fn output_is_on_stiefel_manifold() {
        let a = sym(7, |i, j| (i as f64 - j as f64).abs());
        let b = Matrix::from_fn(7, 3, |i, j| (i * j) as f64 * 0.1);
        let f = gpi_dense(&a, &b, &stiefel_init(7, 3), 50, 1e-10);
        let ftf = f.matmul_transpose_a(&f);
        assert!(ftf.approx_eq(&Matrix::identity(3), 1e-9), "{ftf:?}");
    }

    #[test]
    fn strong_b_dominates() {
        // With huge B, the optimum aligns F with polar(B).
        let a = sym(6, |i, j| if i == j { 1.0 } else { 0.0 });
        let target = stiefel_init(6, 2);
        let b = target.scale(1e6);
        let f = gpi_dense(&a, &b, &stiefel_init(6, 2), 200, 1e-14);
        // tr(Fᵀ target) close to k (perfect alignment).
        let align = f.matmul_transpose_a(&target).trace();
        assert!(align > 2.0 - 1e-4, "alignment {align}");
    }

    #[test]
    fn trace_matches_the_gemm_diagonal_bitwise() {
        // Zero entries of F exercise the skipped products; the larger shape
        // takes the threaded GEMM.
        for (n, k) in [(7, 3), (300, 40)] {
            let f = Matrix::from_fn(n, k, |i, j| if (i + j) % 5 == 0 { 0.0 } else { ((i * 7 + j * 3) as f64).sin() });
            let x = Matrix::from_fn(n, k, |i, j| ((i * 2 + j * 11) as f64).cos());
            let want = f.matmul_transpose_a(&x).trace();
            assert_eq!(trace_ft_x(&f, &x, &mut Matrix::zeros(k, k)).to_bits(), want.to_bits(), "{n}x{k}");
        }
    }

    #[test]
    fn k_equals_n() {
        let a = sym(4, |i, j| ((i + j) as f64).sin() + if i == j { 2.0 } else { 0.0 });
        let b = Matrix::zeros(4, 4);
        let f = gpi_dense(&a, &b, &Matrix::identity(4), 100, 1e-12);
        // Full square orthogonal F: tr(FᵀAF) = tr(A) for any orthogonal F.
        assert!((gpi_objective(&a, &b, &f) - a.trace()).abs() < 1e-8);
    }
}
