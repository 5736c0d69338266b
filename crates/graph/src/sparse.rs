//! Compressed sparse row (CSR) matrix.
//!
//! Just enough sparse linear algebra for spectral graph work: construction
//! from triplets or dense, `spmv`, row iteration, transpose, symmetrization,
//! and diagonal scaling (for normalized Laplacians). Implements
//! [`LinOp`] (via [`CsrMatrix::as_op`]) so the Lanczos solver and the
//! matrix-free GPI iteration run on sparse Laplacians without densifying.

use umsc_linalg::Matrix;
use umsc_op::{CsrOp, LinOp};

/// Compressed sparse row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values aligned with `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An all-zero `rows × cols` sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from `(row, col, value)` triplets; duplicates are summed,
    /// explicit zeros (after summation) are dropped.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "CsrMatrix::from_triplets: index ({r},{c}) out of bounds for {rows}x{cols}");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("value present for duplicate") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        // Drop entries that summed to exactly zero.
        let mut keep_col = Vec::with_capacity(col_idx.len());
        let mut keep_val = Vec::with_capacity(values.len());
        let mut new_counts = vec![0usize; rows];
        let mut cursor = 0usize;
        for r in 0..rows {
            let count = row_ptr[r + 1];
            for k in 0..count {
                let idx = cursor + k;
                if values[idx] != 0.0 {
                    keep_col.push(col_idx[idx]);
                    keep_val.push(values[idx]);
                    new_counts[r] += 1;
                }
            }
            cursor += count;
        }
        let mut ptr = vec![0usize; rows + 1];
        for r in 0..rows {
            ptr[r + 1] = ptr[r] + new_counts[r];
        }
        CsrMatrix { rows, cols, row_ptr: ptr, col_idx: keep_col, values: keep_val }
    }

    /// Assembles a matrix from CSR arrays whose rows already have strictly
    /// ascending, in-bounds columns (checked in debug builds).
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(row_ptr[rows], col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert!((0..rows).all(|r| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| c < cols)
        }));
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Builds from a dense matrix, keeping entries with `|v| > threshold`.
    pub fn from_dense(m: &Matrix, threshold: f64) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    triplets.push((i, j, v));
                }
            }
        }
        CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets)
    }

    /// Densifies (small matrices / tests).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column indices, values)` iterator over the stored entries of row `i`.
    pub fn row_entries(&self, i: usize) -> std::iter::Zip<std::slice::Iter<'_, usize>, std::slice::Iter<'_, f64>> {
        assert!(i < self.rows, "CsrMatrix::row_entries: row {i} out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().zip(self.values[lo..hi].iter())
    }

    /// Entry accessor (O(log nnz_row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "CsrMatrix::get: index out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Approximate flop count below which threading a sparse kernel costs
    /// more than it saves (same calibration as the dense GEMM gate).
    const PAR_FLOP_THRESHOLD: usize = 1 << 18;

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// Threaded over contiguous row blocks when the matrix carries enough
    /// non-zeros to pay for the spawn; each `y[i]` is one independent
    /// ascending-index dot product either way, so the result is
    /// bitwise-identical to the sequential loop.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let flops = 2 * self.nnz();
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        self.spmv_with_threads(t, x, y);
    }

    /// [`CsrMatrix::spmv`] with an explicit thread count (`threads <= 1`
    /// runs inline; no work-size gate).
    pub fn spmv_with_threads(&self, threads: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "CsrMatrix::spmv: x length mismatch");
        assert_eq!(y.len(), self.rows, "CsrMatrix::spmv: y length mismatch");
        if self.rows == 0 {
            return;
        }
        let rows_per = self.rows.div_ceil(threads.max(1));
        umsc_obs::counter!("spmv.row_chunks", self.rows.div_ceil(rows_per));
        umsc_rt::par::parallel_chunks_mut_with(threads, y, rows_per, |ci, ychunk| {
            let base = ci * rows_per;
            for (off, out) in ychunk.iter_mut().enumerate() {
                let i = base + off;
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                *out = self.col_idx[lo..hi]
                    .iter()
                    .zip(self.values[lo..hi].iter())
                    .map(|(&j, &v)| v * x[j])
                    .sum();
            }
        });
    }

    /// Borrowed operator-layer view of this matrix (must be square).
    ///
    /// The returned [`CsrOp`] shares this matrix's storage and mirrors
    /// [`CsrMatrix::spmv`] / [`CsrMatrix::matmul_dense_into`] kernel for
    /// kernel, so its applies are bitwise-identical to those paths.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn as_op(&self) -> CsrOp<'_> {
        assert_eq!(self.rows, self.cols, "CsrMatrix::as_op: operator must be square");
        CsrOp::new(self.rows, &self.row_ptr, &self.col_idx, &self.values)
    }

    /// Dense product `A · B` with a dense right factor (`rows × B.cols()`).
    ///
    /// Threaded over output rows past the work-size gate; per-row
    /// accumulation order is unchanged, so results are bitwise-identical
    /// to the sequential loop.
    pub fn matmul_dense(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.matmul_dense_into(b, &mut out);
        out
    }

    /// [`CsrMatrix::matmul_dense`] with an explicit thread count.
    pub fn matmul_dense_with_threads(&self, threads: usize, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.matmul_dense_impl(threads, b, &mut out);
        out
    }

    /// Writes `A · B` into `out` without allocating. Every entry of `out`
    /// is overwritten.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `out` is not `rows × B.cols()`.
    pub fn matmul_dense_into(&self, b: &Matrix, out: &mut Matrix) {
        let flops = 2 * self.nnz() * b.cols();
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        out.as_mut_slice().fill(0.0);
        self.matmul_dense_impl(t, b, out);
    }

    /// `out` must be `rows × b.cols()` and zeroed; one output row per chunk.
    fn matmul_dense_impl(&self, threads: usize, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows(), "CsrMatrix::matmul_dense: dimension mismatch");
        let n = b.cols();
        assert_eq!(
            out.shape(),
            (self.rows, n),
            "CsrMatrix::matmul_dense_into: out is {}x{}, expected {}x{n}",
            out.rows(),
            out.cols(),
            self.rows
        );
        if n == 0 {
            return;
        }
        umsc_rt::par::parallel_chunks_mut_with(threads, out.as_mut_slice(), n, |i, orow| {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for (&j, &v) in self.col_idx[lo..hi].iter().zip(self.values[lo..hi].iter()) {
                let brow = b.row(j);
                for (o, &bb) in orow.iter_mut().zip(brow.iter()) {
                    *o += v * bb;
                }
            }
        });
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                triplets.push((j, i, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Symmetrizes a square matrix as `(A + Aᵀ)/2`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "CsrMatrix::symmetrize: matrix not square");
        let mut triplets = Vec::with_capacity(2 * self.nnz());
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                triplets.push((i, j, 0.5 * v));
                triplets.push((j, i, 0.5 * v));
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Symmetrizes with the max rule `max(a_ij, a_ji)` — the usual k-NN
    /// graph symmetrization (an edge exists if either endpoint chose it).
    /// Each row is merged with the same row of the transpose (both have
    /// sorted columns); entries whose maximum is exactly zero are dropped.
    pub fn symmetrize_max(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "CsrMatrix::symmetrize_max: matrix not square");
        let n = self.rows;
        let (t_ptr, t_entries) = self.transposed_entries();

        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(2 * self.nnz());
        let mut values = Vec::with_capacity(2 * self.nnz());
        for i in 0..n {
            let mut a = self.row_entries(i).map(|(&j, &v)| (j, v)).peekable();
            let mut b = t_entries[t_ptr[i]..t_ptr[i + 1]].iter().copied().peekable();
            loop {
                let (j, v) = match (a.peek(), b.peek()) {
                    (Some(&(ja, va)), Some(&(jb, vb))) if ja == jb => {
                        a.next();
                        b.next();
                        (ja, va.max(vb))
                    }
                    (Some(&(ja, _)), Some(&(jb, _))) if jb < ja => b.next().expect("peeked"),
                    (Some(_), _) => a.next().expect("peeked"),
                    (None, Some(_)) => b.next().expect("peeked"),
                    (None, None) => break,
                };
                // Folding from the max rule's identity −∞ maps a NaN
                // weight to −∞, exactly as an entry-wise max fold does.
                let v = f64::NEG_INFINITY.max(v);
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: n, cols: n, row_ptr, col_idx, values }
    }

    /// `U + Uᵀ` for a strictly upper-triangular square `U`: row `i` is
    /// row `i` of `Uᵀ` (columns `< i`) followed by row `i` of `U`.
    pub(crate) fn mirror_upper(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "CsrMatrix::mirror_upper: matrix not square");
        let n = self.rows;
        let (t_ptr, t_entries) = self.transposed_entries();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(2 * self.nnz());
        let mut values = Vec::with_capacity(2 * self.nnz());
        for i in 0..n {
            let lower = t_entries[t_ptr[i]..t_ptr[i + 1]].iter().copied();
            for (j, v) in lower.chain(self.row_entries(i).map(|(&j, &v)| (j, v))) {
                debug_assert!(col_idx.len() == row_ptr[i] || j > col_idx[col_idx.len() - 1]);
                col_idx.push(j);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: n, cols: n, row_ptr, col_idx, values }
    }

    /// The transpose's rows as `(row pointer, (column, value) entries)`,
    /// by counting sort: scanning rows in order leaves every transposed
    /// row's columns ascending. Keeps every stored entry.
    fn transposed_entries(&self) -> (Vec<usize>, Vec<(usize, f64)>) {
        let mut t_ptr = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            t_ptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            t_ptr[j + 1] += t_ptr[j];
        }
        let mut fill = t_ptr.clone();
        let mut entries = vec![(0usize, 0.0f64); self.nnz()];
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                entries[fill[j]] = (i, v);
                fill[j] += 1;
            }
        }
        (t_ptr, entries)
    }

    /// Returns `diag(s) · A · diag(s)` (two-sided diagonal scaling, the
    /// normalized-Laplacian workhorse).
    ///
    /// # Panics
    /// Panics if `s.len()` does not match a square matrix dimension.
    pub fn scale_symmetric(&self, s: &[f64]) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "CsrMatrix::scale_symmetric: matrix not square");
        assert_eq!(s.len(), self.rows, "CsrMatrix::scale_symmetric: scale length mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            let lo = out.row_ptr[i];
            let hi = out.row_ptr[i + 1];
            for k in lo..hi {
                out.values[k] *= s[i] * s[out.col_idx[k]];
            }
        }
        out
    }

    /// Row sums (weighted degrees when the matrix is an affinity).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| {
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                self.values[lo..hi].iter().sum()
            })
            .collect()
    }
}

impl LinOp for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows, self.cols);
        self.rows
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.as_op().apply_into(x, y);
    }
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        self.as_op().apply_block_into(x, ncols, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn construction_and_access() {
        let m = example();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        let row0: Vec<(usize, f64)> = m.row_entries(0).map(|(&j, &v)| (j, v)).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0), (1, 1, -3.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1, "cancelled entry must be dropped");
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_vec(2, 3, vec![0.0, 1.5, 0.0, -2.0, 0.0, 0.25]);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 3);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = example();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, m.to_dense().matvec(&x));
    }

    #[test]
    fn matmul_dense_matches() {
        let m = example();
        let b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let prod = m.matmul_dense(&b);
        assert!(prod.approx_eq(&m.to_dense().matmul(&b), 1e-14));
    }

    #[test]
    fn transpose_round_trip() {
        let m = example();
        let t = m.transpose();
        assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 0.0));
        assert!(t.transpose().to_dense().approx_eq(&m.to_dense(), 0.0));
    }

    #[test]
    fn symmetrize_average() {
        let m = example();
        let s = m.symmetrize();
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        assert_eq!(d[(0, 2)], (2.0 + 3.0) / 2.0);
    }

    #[test]
    fn symmetrize_max_rule() {
        let m = example();
        let s = m.symmetrize_max();
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        assert_eq!(d[(0, 2)], 3.0);
        assert_eq!(d[(2, 0)], 3.0);
        assert_eq!(d[(1, 2)], 4.0, "edge kept even though only one endpoint chose it");
    }

    #[test]
    fn scale_symmetric_matches_dense() {
        let m = example().symmetrize();
        let s = vec![0.5, 2.0, 1.0];
        let scaled = m.scale_symmetric(&s);
        let ds = Matrix::from_diag(&s);
        let expected = ds.matmul(&m.to_dense()).matmul(&ds);
        assert!(scaled.to_dense().approx_eq(&expected, 1e-14));
    }

    #[test]
    fn row_sums_are_degrees() {
        let m = example();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn linear_operator_for_lanczos() {
        // Sparse path Laplacian: smallest eigenvalue 0.
        let n = 12;
        let mut trip = Vec::new();
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            trip.push((i, i, deg));
            if i + 1 < n {
                trip.push((i, i + 1, -1.0));
                trip.push((i + 1, i, -1.0));
            }
        }
        let l = CsrMatrix::from_triplets(n, n, &trip);
        let (vals, _) = umsc_linalg::lanczos_smallest(&l, 2, &umsc_linalg::LanczosConfig::default()).unwrap();
        assert!(vals[0].abs() < 1e-8);
        assert!(vals[1] > 1e-4);
    }

    #[test]
    fn zeros_and_identity() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(2, 3), 0.0);
        let i = CsrMatrix::identity(3);
        let mut y = vec![0.0; 3];
        i.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    /// A ragged random sparse matrix: some empty rows, uneven nnz per row,
    /// so thread blocks carry unequal work.
    fn random_sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut rng = umsc_rt::Rng::from_seed(seed);
        let mut trip = Vec::new();
        for i in 0..rows {
            if i % 7 == 3 {
                continue; // empty row
            }
            let nnz = 1 + (rng.next_f64() * 6.0) as usize;
            for _ in 0..nnz {
                let j = (rng.next_f64() * cols as f64) as usize % cols;
                trip.push((i, j, rng.normal()));
            }
        }
        CsrMatrix::from_triplets(rows, cols, &trip)
    }

    #[test]
    fn threaded_spmv_is_bitwise_identical() {
        let m = random_sparse(103, 59, 7);
        let mut rng = umsc_rt::Rng::from_seed(8);
        let x: Vec<f64> = (0..59).map(|_| rng.normal()).collect();
        let mut seq = vec![0.0; 103];
        m.spmv_with_threads(1, &x, &mut seq);
        for t in [2, 3, 4, 8] {
            let mut par = vec![f64::NAN; 103];
            m.spmv_with_threads(t, &x, &mut par);
            assert_eq!(seq, par, "spmv differs at {t} threads");
        }
        let mut gated = vec![0.0; 103];
        m.spmv(&x, &mut gated);
        assert_eq!(seq, gated);
        // Empty matrix: no-op.
        let z = CsrMatrix::zeros(0, 4);
        let mut y: Vec<f64> = Vec::new();
        z.spmv_with_threads(4, &[0.0; 4], &mut y);
    }

    #[test]
    fn threaded_matmul_dense_is_bitwise_identical() {
        let m = random_sparse(67, 41, 9);
        let mut rng = umsc_rt::Rng::from_seed(10);
        let b = Matrix::from_fn(41, 13, |_, _| rng.normal());
        let seq = m.matmul_dense_with_threads(1, &b);
        for t in [2, 3, 5, 8] {
            let par = m.matmul_dense_with_threads(t, &b);
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul_dense differs at {t} threads");
        }
        assert_eq!(m.matmul_dense(&b).as_slice(), seq.as_slice());
        // _into overwrites a dirty buffer and matches.
        let mut out = Matrix::filled(67, 13, f64::NAN);
        m.matmul_dense_into(&b, &mut out);
        assert_eq!(out.as_slice(), seq.as_slice());
        // Zero-width right factor.
        assert_eq!(m.matmul_dense_with_threads(4, &Matrix::zeros(41, 0)).shape(), (67, 0));
    }

    #[test]
    fn operator_view_is_bitwise_identical_to_csr_kernels() {
        let m = random_sparse(53, 53, 17).symmetrize();
        let mut rng = umsc_rt::Rng::from_seed(18);
        let x: Vec<f64> = (0..53).map(|_| rng.normal()).collect();
        let b = Matrix::from_fn(53, 5, |_, _| rng.normal());

        let mut spmv = vec![0.0; 53];
        m.spmv(&x, &mut spmv);
        let mut via_op = vec![f64::NAN; 53];
        m.apply_into(&x, &mut via_op);
        assert_eq!(spmv, via_op);

        let dense_prod = m.matmul_dense(&b);
        let mut block = vec![f64::NAN; 53 * 5];
        m.as_op().apply_block_into(b.as_slice(), 5, &mut block);
        assert_eq!(dense_prod.as_slice(), block.as_slice());
    }
}
