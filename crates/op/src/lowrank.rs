//! Low-rank operator node: `Z Zᵀ` for anchor/bipartite graphs, over a
//! sparse factor `Z`.

use std::marker::PhantomData;

use crate::sparse::csr_rows_into;
use crate::{new_scratch, LinOp, Scratch};
use umsc_rt::par::{threads_for, with_threads};

/// A sparse `n × m` factor `Z` (an anchor graph's `B = Z·Λ^{-1/2}`, with
/// `k ≪ m` nonzeros per row), stored in CSR twice: by rows for `Z·T`, and
/// transposed (by columns of `Z`) for `Zᵀ·X`. Both copies have strictly
/// ascending indices and no stored zeros, so each product is the CSR row
/// kernel and sums exactly the terms the dense row kernel would, in the
/// same order: results are bitwise-identical to the dense products
/// `Matrix::matmul_into` / `Matrix::matmul_transpose_a_into` on the
/// densified factor, at any thread count.
///
/// Memory is `O(nnz + n + m)` words instead of `n·m`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFactor {
    n: usize,
    m: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// `Zᵀ` in CSR: `m + 1` offsets, row indices ascending per column.
    t_ptr: Vec<usize>,
    t_idx: Vec<usize>,
    t_values: Vec<f64>,
}

impl SparseFactor {
    /// Takes CSR arrays of an `n × m` factor. Exact zeros (`±0.0`) are
    /// dropped, then the transpose is built by a counting sort.
    ///
    /// # Panics
    /// Panics unless `row_ptr` holds `n + 1` non-decreasing offsets from 0
    /// to `col_idx.len() == values.len()` and every row's column indices
    /// are strictly ascending and below `m`.
    pub fn from_csr(n: usize, m: usize, row_ptr: Vec<usize>, mut col_idx: Vec<usize>, mut values: Vec<f64>) -> Self {
        assert_eq!(row_ptr.len(), n + 1, "SparseFactor::from_csr: row_ptr must have n + 1 entries");
        assert_eq!(row_ptr[0], 0, "SparseFactor::from_csr: row_ptr must start at 0");
        assert_eq!(row_ptr[n], col_idx.len(), "SparseFactor::from_csr: col_idx length mismatch");
        assert_eq!(col_idx.len(), values.len(), "SparseFactor::from_csr: values length mismatch");
        let mut kept_ptr = Vec::with_capacity(n + 1);
        kept_ptr.push(0);
        let mut kept = 0;
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            assert!(lo <= hi, "SparseFactor::from_csr: row_ptr not sorted");
            let row = &col_idx[lo..hi];
            assert!(
                row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&j| j < m),
                "SparseFactor::from_csr: row {i} columns must be ascending and below {m}"
            );
            for e in lo..hi {
                if values[e] != 0.0 {
                    col_idx[kept] = col_idx[e];
                    values[kept] = values[e];
                    kept += 1;
                }
            }
            kept_ptr.push(kept);
        }
        col_idx.truncate(kept);
        values.truncate(kept);

        // Counting sort by column; rows are visited in ascending order, so
        // every transposed row lists its indices ascending.
        let mut t_ptr = vec![0usize; m + 1];
        for &j in &col_idx {
            t_ptr[j + 1] += 1;
        }
        for j in 0..m {
            t_ptr[j + 1] += t_ptr[j];
        }
        let mut next = t_ptr[..m].to_vec();
        let mut t_idx = vec![0usize; kept];
        let mut t_values = vec![0.0f64; kept];
        for i in 0..n {
            for e in kept_ptr[i]..kept_ptr[i + 1] {
                let slot = &mut next[col_idx[e]];
                t_idx[*slot] = i;
                t_values[*slot] = values[e];
                *slot += 1;
            }
        }
        SparseFactor { n, m, row_ptr: kept_ptr, col_idx, values, t_ptr, t_idx, t_values }
    }

    /// Compacts a dense row-major `n × m` factor (exact zeros dropped).
    ///
    /// # Panics
    /// Panics if `z.len() != n * m`.
    pub fn from_dense(n: usize, m: usize, z: &[f64]) -> Self {
        assert_eq!(z.len(), n * m, "SparseFactor::from_dense: factor is not n x m");
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for row in z.chunks_exact(m.max(1)).take(n) {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        row_ptr.resize(n + 1, 0);
        SparseFactor::from_csr(n, m, row_ptr, col_idx, values)
    }

    /// `[Z_1 … Z_V]`: the parts side by side, row `i` listing each part's
    /// row `i` in part order with its columns shifted past the parts
    /// before it. The transpose comes from the counting sort of
    /// [`SparseFactor::from_csr`], so the rows of block `v` of the stacked
    /// transpose are exactly the rows of `Z_vᵀ`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the parts differ in row count.
    pub fn hstack(parts: &[SparseFactor]) -> Self {
        assert!(!parts.is_empty(), "SparseFactor::hstack: no parts");
        let n = parts[0].n;
        assert!(parts.iter().all(|z| z.n == n), "SparseFactor::hstack: parts differ in row count");
        let nnz = parts.iter().map(SparseFactor::nnz).sum();
        let (mut row_ptr, mut col_idx, mut values) =
            (Vec::with_capacity(n + 1), Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        row_ptr.push(0);
        for i in 0..n {
            let mut offset = 0;
            for z in parts {
                let (lo, hi) = (z.row_ptr[i], z.row_ptr[i + 1]);
                col_idx.extend(z.col_idx[lo..hi].iter().map(|&j| j + offset));
                values.extend_from_slice(&z.values[lo..hi]);
                offset += z.m;
            }
            row_ptr.push(col_idx.len());
        }
        let m = parts.iter().map(|z| z.m).sum();
        SparseFactor::from_csr(n, m, row_ptr, col_idx, values)
    }

    /// Number of rows `n` (points).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of columns `m` (anchors).
    pub fn cols(&self) -> usize {
        self.m
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// True when every stored entry is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// The dense row-major `n × m` factor (small factors and tests).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut z = vec![0.0; self.n * self.m];
        for i in 0..self.n {
            for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                z[i * self.m + self.col_idx[e]] = self.values[e];
            }
        }
        z
    }

    /// `Y = Z·T` for a row-major `m × ncols` block `T`; overwrites the
    /// `n × ncols` block `Y`. Threaded past the flop gate.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_into(&self, t: &[f64], ncols: usize, y: &mut [f64]) {
        assert_eq!(t.len(), self.m * ncols, "SparseFactor::mul_into: t length mismatch");
        assert_eq!(y.len(), self.n * ncols, "SparseFactor::mul_into: y length mismatch");
        let threads = threads_for(2 * self.nnz() * ncols);
        csr_rows_into(threads, &self.row_ptr, &self.col_idx, &self.values, t, ncols, y);
    }

    /// `T = Zᵀ·X` for a row-major `n × ncols` block `X`; overwrites the
    /// `m × ncols` block `T`. Threaded past the flop gate.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_transpose_into(&self, x: &[f64], ncols: usize, t: &mut [f64]) {
        assert_eq!(x.len(), self.n * ncols, "SparseFactor::mul_transpose_into: x length mismatch");
        assert_eq!(t.len(), self.m * ncols, "SparseFactor::mul_transpose_into: t length mismatch");
        let threads = threads_for(2 * self.nnz() * ncols);
        csr_rows_into(threads, &self.t_ptr, &self.t_idx, &self.t_values, x, ncols, t);
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
        LowRankAnchor { z: SparseFactor::from_dense(n, m, z), scratch: new_scratch(), _named: PhantomData }
    }
}

impl LinOp for LowRankAnchor<'_> {
    fn dim(&self) -> usize {
        self.z.n
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
        with_threads(threads_for(4 * self.z.nnz() * ncols), || {
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
        let f = SparseFactor::from_dense(n, m, &z);
        assert_eq!(f.shape(), (n, m));
        assert_eq!(f.nnz(), z.iter().filter(|&&v| v != 0.0).count());
        assert_eq!(f.to_dense(), z);
        // Stored zeros given to from_csr are dropped too.
        let g = SparseFactor::from_csr(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 0.0, -0.0]);
        assert_eq!(g.nnz(), 1);
        assert_eq!(g.to_dense(), vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn hstack_densifies_to_the_column_concatenation() {
        let n = 11;
        let widths = [4, 1, 6];
        let dense: Vec<Vec<f64>> =
            widths.iter().enumerate().map(|(v, &m)| random_factor(n, m, 40 + v as u64)).collect();
        let parts: Vec<SparseFactor> =
            dense.iter().zip(widths).map(|(z, m)| SparseFactor::from_dense(n, m, z)).collect();
        let stacked = SparseFactor::hstack(&parts);
        assert_eq!(stacked.shape(), (n, 11));
        assert_eq!(stacked.nnz(), parts.iter().map(SparseFactor::nnz).sum::<usize>());
        let expect: Vec<f64> = (0..n)
            .flat_map(|i| dense.iter().zip(widths).flat_map(move |(z, m)| z[i * m..(i + 1) * m].to_vec()))
            .collect();
        assert_eq!(stacked.to_dense(), expect);
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
        SparseFactor::from_csr(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
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
