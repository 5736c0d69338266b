//! Seeded generators and shrinkers for property tests across the
//! workspace (the replacement for the `proptest` strategy combinators).
//!
//! Every generator takes the caller's [`umsc_rt::Rng`] so a whole property
//! test is reproducible from one seed, and produces "well-scaled" inputs —
//! entries of magnitude ≲ 5 — because the numeric tolerances in the
//! properties assume it.

use crate::Matrix;
use umsc_rt::{Rng, Shrink};

/// A `rows × cols` matrix with i.i.d. entries in `[-5, 5)`.
pub fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range_f64(-5.0, 5.0))
}

/// A symmetric `n × n` matrix (a [`matrix`] pushed through
/// `symmetrize_mut`).
pub fn sym_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let mut m = matrix(rng, n, n);
    m.symmetrize_mut();
    m
}

/// A symmetric positive-definite `n × n` matrix `XᵀX + I` with
/// `X ∈ R^{(n+2) × n}`.
pub fn spd_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let x = matrix(rng, n + 2, n);
    let mut g = x.matmul_transpose_a(&x);
    for i in 0..n {
        g[(i, i)] += 1.0;
    }
    g
}

/// A vector of `n` i.i.d. entries in `[lo, hi)`.
pub fn vector(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

/// Matrices shrink by uniform entrywise moves that preserve the shape and
/// any symmetry of the input: all-zeros, half-scale, and truncation.
/// (Entrywise-independent shrinks would break generator invariants like
/// symmetry, producing misleading minimized counterexamples.)
impl Shrink for Matrix {
    fn shrink(&self) -> Vec<Self> {
        if self.as_slice().iter().all(|&v| v == 0.0) {
            return Vec::new();
        }
        let mut out = vec![Matrix::zeros(self.rows(), self.cols()), self.scale(0.5)];
        let trunc = self.map(f64::trunc);
        if &trunc != self {
            out.push(trunc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_have_documented_shapes() {
        let mut rng = Rng::from_seed(1);
        assert_eq!(matrix(&mut rng, 3, 5).shape(), (3, 5));
        let s = sym_matrix(&mut rng, 4);
        assert!(s.is_symmetric(0.0));
        let p = spd_matrix(&mut rng, 4);
        assert!(p.is_symmetric(1e-12));
        let eig = crate::SymEigen::compute(&p).unwrap();
        assert!(eig.eigenvalues[0] >= 1.0 - 1e-9, "spd_matrix must be SPD: {:?}", eig.eigenvalues);
        assert_eq!(vector(&mut rng, 7, -1.0, 1.0).len(), 7);
    }

    #[test]
    fn matrix_shrink_preserves_shape_and_symmetry() {
        let mut rng = Rng::from_seed(2);
        let s = sym_matrix(&mut rng, 4);
        let cands = s.shrink();
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.shape(), s.shape());
            assert!(c.is_symmetric(0.0));
        }
        assert!(Matrix::zeros(2, 2).shrink().is_empty());
    }
}
