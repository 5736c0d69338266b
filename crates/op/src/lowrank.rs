//! Low-rank operator node: `Z Zᵀ` for anchor/bipartite graphs, over a
//! sparse factor `Z`.

use std::marker::PhantomData;

use crate::{new_scratch, CsrMatrix, LinOp, Scratch};
use umsc_rt::par::{threads_for, with_threads};

/// A sparse `n × m` factor `Z` (an anchor graph's `B = Z·Λ^{-1/2}`, with
/// `k ≪ m` nonzeros per row), stored as a compacted [`CsrMatrix`] and its
/// transpose: by rows for `Z·T`, by columns of `Z` for `Zᵀ·X`. Both have
/// strictly ascending indices and no stored zeros, so each product sums
/// exactly the terms the dense row kernel would, in the same order:
/// results are bitwise-identical to the dense products
/// `Matrix::matmul_into` / `Matrix::matmul_transpose_a_into` on the
/// densified factor, at any thread count.
///
/// Memory is `O(nnz + n + m)` words instead of `n·m`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFactor {
    z: CsrMatrix,
    zt: CsrMatrix,
}

impl SparseFactor {
    /// Takes an `n × m` factor: its stored zeros are dropped
    /// ([`CsrMatrix::compact`]), then its transpose is built.
    pub fn new(z: CsrMatrix) -> Self {
        let z = z.compact();
        let zt = z.transpose();
        SparseFactor { z, zt }
    }

    /// `[Z_1 … Z_V]`: the parts side by side, row `i` listing each part's
    /// row `i` in part order with its columns shifted past the parts
    /// before it. The transpose is a counting sort, so the rows of block
    /// `v` of the stacked transpose are exactly the rows of `Z_vᵀ`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the parts differ in row count.
    pub fn hstack(parts: &[SparseFactor]) -> Self {
        assert!(!parts.is_empty(), "SparseFactor::hstack: no parts");
        let n = parts[0].rows();
        assert!(parts.iter().all(|z| z.rows() == n), "SparseFactor::hstack: parts differ in row count");
        let nnz = parts.iter().map(|z| z.z.nnz()).sum();
        let (mut row_ptr, mut col_idx, mut values) =
            (Vec::with_capacity(n + 1), Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        row_ptr.push(0);
        for i in 0..n {
            let mut offset = 0;
            for z in parts {
                for (&j, &v) in z.z.row_entries(i) {
                    col_idx.push(j + offset);
                    values.push(v);
                }
                offset += z.cols();
            }
            row_ptr.push(col_idx.len());
        }
        let m = parts.iter().map(SparseFactor::cols).sum();
        SparseFactor::new(CsrMatrix::from_parts(n, m, row_ptr, col_idx, values))
    }

    /// The factor `Z` itself.
    pub fn csr(&self) -> &CsrMatrix {
        &self.z
    }

    /// Number of rows `n` (points).
    pub fn rows(&self) -> usize {
        self.z.rows()
    }

    /// Number of columns `m` (anchors).
    pub fn cols(&self) -> usize {
        self.z.cols()
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// `Y = Z·T` for a row-major `m × ncols` block `T`; overwrites the
    /// `n × ncols` block `Y`. Threaded past the flop gate.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_into(&self, t: &[f64], ncols: usize, y: &mut [f64]) {
        self.z.mul_into(t, ncols, y);
    }

    /// `T = Zᵀ·X` for a row-major `n × ncols` block `X`; overwrites the
    /// `m × ncols` block `T`. Threaded past the flop gate.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_transpose_into(&self, x: &[f64], ncols: usize, t: &mut [f64]) {
        self.zt.mul_into(x, ncols, t);
    }
}

/// `Z Zᵀ` over a sparse `n × m` factor `Z` with `m ≪ n` — the implicit
/// form of an anchor-graph similarity `B Bᵀ`.
///
/// Applies cost `O(nnz)` per column instead of `O(n²)`: `T = ZᵀX` (the
/// CSR kernel on the stored transpose), then `Y = Z T` (the CSR kernel
/// on `Z`). Both products are
/// bitwise-identical to the dense row kernels on the densified factor
/// (see [`SparseFactor`]). The intermediate `T` (`m × ncols`) lives in an
/// internal grow-only scratch panel — allocation-free once warm.
#[derive(Debug)]
pub struct LowRankAnchor<'a> {
    z: SparseFactor,
    scratch: Scratch,
    /// The operator owns its factor; the lifetime only keeps the type's
    /// name `LowRankAnchor<'_>` valid for existing callers.
    _named: PhantomData<&'a ()>,
}

impl LowRankAnchor<'_> {
    /// `Z Zᵀ` over a dense row-major `n × m` factor, compacted once into
    /// a [`SparseFactor`] owned by the operator.
    ///
    /// # Panics
    /// Panics if `z.len() != n * m`.
    pub fn new(n: usize, m: usize, z: &[f64]) -> Self {
        assert_eq!(z.len(), n * m, "LowRankAnchor::new: factor is not n x m");
        LowRankAnchor { z: SparseFactor::new(CsrMatrix::from_dense(n, m, z)), scratch: new_scratch(), _named: PhantomData }
    }
}

impl LinOp for LowRankAnchor<'_> {
    fn dim(&self) -> usize {
        self.z.rows()
    }

    /// Both products run on the thread count gated on the whole apply's
    /// flops; the vector apply is the `ncols == 1` case.
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let (n, m) = self.z.shape();
        assert_eq!(x.len(), n * ncols, "LowRankAnchor::apply_block_into: x length mismatch");
        assert_eq!(y.len(), n * ncols, "LowRankAnchor::apply_block_into: y length mismatch");
        if ncols == 0 {
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let t = scratch.ensure(m * ncols);
        with_threads(threads_for(4 * self.z.csr().nnz() * ncols), || {
            self.z.mul_transpose_into(x, ncols, t);
            self.z.mul_into(t, ncols, y);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::Rng;

    /// Random `n × m` factor with roughly a third of its entries zero.
    fn random_factor(n: usize, m: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..n * m)
            .map(|_| {
                let v = rng.gen_range_f64(-1.0, 1.0);
                if v.abs() < 0.33 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
    }

    /// Dense reference `Z Zᵀ X` computed by naive triple loops.
    fn naive(n: usize, m: usize, z: &[f64], x: &[f64], k: usize) -> Vec<f64> {
        let mut t = vec![0.0; m * k];
        for j in 0..m {
            for c in 0..k {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += z[i * m + j] * x[i * k + c];
                }
                t[j * k + c] = acc;
            }
        }
        let mut y = vec![0.0; n * k];
        for i in 0..n {
            for c in 0..k {
                let mut acc = 0.0;
                for p in 0..m {
                    acc += z[i * m + p] * t[p * k + c];
                }
                y[i * k + c] = acc;
            }
        }
        y
    }

    #[test]
    fn matches_dense_reference_and_is_thread_invariant() {
        for (n, m, k) in [(12, 3, 1), (40, 8, 4), (65, 16, 3)] {
            let z = random_factor(n, m, 1000 + n as u64);
            let x = random(n * k, 3000 + n as u64);
            let op = LowRankAnchor::new(n, m, &z);

            let mut reference = vec![f64::NAN; n * k];
            with_threads(1, || op.apply_block_into(&x, k, &mut reference));
            let expect = naive(n, m, &z, &x, k);
            for (r, e) in reference.iter().zip(expect.iter()) {
                assert!((r - e).abs() < 1e-13, "n={n} m={m} k={k}");
            }

            for threads in [2, 3, 7] {
                let mut y = vec![f64::NAN; n * k];
                with_threads(threads, || op.apply_block_into(&x, k, &mut y));
                assert_eq!(y, reference, "n={n} m={m} k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn vector_apply_is_block_with_one_column() {
        let (n, m) = (30, 5);
        let z = random_factor(n, m, 1);
        let x = random(n, 2);
        let op = LowRankAnchor::new(n, m, &z);
        let mut y = vec![f64::NAN; n];
        op.apply_into(&x, &mut y);
        let mut yb = vec![f64::NAN; n];
        op.apply_block_into(&x, 1, &mut yb);
        assert_eq!(y, yb);
    }

    #[test]
    fn factor_round_trips_and_drops_zeros() {
        let (n, m) = (9, 4);
        let z = random_factor(n, m, 5);
        let f = SparseFactor::new(CsrMatrix::from_dense(n, m, &z));
        assert_eq!(f.shape(), (n, m));
        assert_eq!(f.csr().nnz(), z.iter().filter(|&&v| v != 0.0).count());
        assert_eq!(f.csr().to_dense(), z);
        // Stored zeros in raw parts are dropped too, from both copies.
        let g = SparseFactor::new(CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 0.0, -0.0]));
        assert_eq!(g.csr().nnz(), 1);
        assert_eq!(g.csr().to_dense(), vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(g.zt, g.csr().transpose());
    }

    #[test]
    fn hstack_densifies_to_the_column_concatenation() {
        let n = 11;
        let widths = [4, 1, 6];
        let dense: Vec<Vec<f64>> =
            widths.iter().enumerate().map(|(v, &m)| random_factor(n, m, 40 + v as u64)).collect();
        let parts: Vec<SparseFactor> =
            dense.iter().zip(widths).map(|(z, m)| SparseFactor::new(CsrMatrix::from_dense(n, m, z))).collect();
        let stacked = SparseFactor::hstack(&parts);
        assert_eq!(stacked.shape(), (n, 11));
        assert_eq!(stacked.csr().nnz(), parts.iter().map(|z| z.csr().nnz()).sum::<usize>());
        let expect: Vec<f64> = (0..n)
            .flat_map(|i| dense.iter().zip(widths).flat_map(move |(z, m)| z[i * m..(i + 1) * m].to_vec()))
            .collect();
        assert_eq!(stacked.csr().to_dense(), expect);
        // The stacked transpose is the parts' transposes, block by block.
        let x = random(n * 2, 7);
        let mut t = vec![f64::NAN; 11 * 2];
        stacked.mul_transpose_into(&x, 2, &mut t);
        let mut at = 0;
        for (z, m) in parts.iter().zip(widths) {
            let mut tv = vec![f64::NAN; m * 2];
            z.mul_transpose_into(&x, 2, &mut tv);
            assert_eq!(t[at..at + m * 2], tv[..]);
            at += m * 2;
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_columns_panic() {
        SparseFactor::new(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]));
    }

    #[test]
    fn empty_shapes() {
        let mut y: Vec<f64> = Vec::new();
        LowRankAnchor::new(0, 3, &[]).apply_block_into(&[], 2, &mut y);
        let mut y = vec![f64::NAN; 8];
        LowRankAnchor::new(4, 0, &[]).apply_block_into(&[1.0; 8], 2, &mut y);
        assert_eq!(y, vec![0.0; 8]);
    }
}
