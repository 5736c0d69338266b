//! Compressed sparse row (CSR) matrix: the workspace's one sparse storage
//! type, and the one CSR row kernel.
//!
//! Every [`CsrMatrix`] keeps one layout rule: row offsets from 0, strictly
//! ascending in-bounds columns within each row. Its compacting
//! constructors also store no `±0.0` (a NaN is kept, so a finiteness check
//! still sees it). On that layout [`csr_rows_into`] sums exactly the
//! dense row kernel's terms in the same order, so every CSR product is
//! bitwise-identical to the dense one and to itself at any thread count.
//!
//! Just enough sparse linear algebra for spectral graph work sits beside
//! the storage: construction from triplets, dense rows or checked raw
//! arrays, row iteration, a counting-sort transpose, mean- and max-rule
//! symmetrization by merging each row with the transpose's, and diagonal
//! scaling (for normalized Laplacians). Products are [`csr_rows_into`]:
//! a square matrix is a [`LinOp`], so the Lanczos solver, the traces and
//! the matrix-free GPI iteration run on sparse Laplacians without
//! densifying, and [`CsrMatrix::mul_into`] serves a rectangular one.

use crate::LinOp;
use umsc_rt::par::threads_for;

/// The one compaction rule: an entry is stored unless it is `±0.0`.
fn stored(v: f64) -> bool {
    v != 0.0
}

/// Compressed sparse row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, strictly ascending within each row.
    col_idx: Vec<usize>,
    /// Values aligned with `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An all-zero `rows × cols` sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix { rows: n, cols: n, row_ptr: (0..=n).collect(), col_idx: (0..n).collect(), values: vec![1.0; n] }
    }

    /// Takes raw CSR arrays, stored as given (zeros included).
    ///
    /// # Panics
    /// Panics unless `row_ptr` holds `rows + 1` non-decreasing offsets
    /// from 0 to `col_idx.len() == values.len()`, and every row's column
    /// indices are strictly ascending and below `cols`.
    pub fn from_parts(rows: usize, cols: usize, row_ptr: Vec<usize>, col_idx: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "CsrMatrix::from_parts: row_ptr must have rows + 1 entries");
        assert_eq!(row_ptr[0], 0, "CsrMatrix::from_parts: row_ptr must start at 0");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "CsrMatrix::from_parts: row_ptr must not decrease");
        assert_eq!(row_ptr[rows], col_idx.len(), "CsrMatrix::from_parts: row_ptr must end at col_idx.len()");
        assert_eq!(values.len(), col_idx.len(), "CsrMatrix::from_parts: values length mismatch");
        for (i, w) in row_ptr.windows(2).enumerate() {
            let row = &col_idx[w[0]..w[1]];
            assert!(row.windows(2).all(|p| p[0] < p[1]), "CsrMatrix::from_parts: row {i} columns not ascending");
            assert!(row.last().is_none_or(|&j| j < cols), "CsrMatrix::from_parts: row {i} column out of bounds");
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Builds from `(row, col, value)` triplets; duplicates are summed,
    /// then compacted.
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
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values }.compact()
    }

    /// Compacts a dense row-major `rows × cols` matrix in one row scan.
    ///
    /// # Panics
    /// Panics if `a.len() != rows * cols`.
    pub fn from_dense(rows: usize, cols: usize, a: &[f64]) -> Self {
        assert_eq!(a.len(), rows * cols, "CsrMatrix::from_dense: data is not rows x cols");
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..rows {
            for (j, &v) in a[i * cols..(i + 1) * cols].iter().enumerate().filter(|(_, &v)| stored(v)) {
                col_idx.push(j);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        // Growth can leave room for twice the entries, and a fit holds the
        // result throughout.
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Drops the stored `±0.0` entries in place, keeping every other entry
    /// (NaN included) in order.
    pub fn compact(mut self) -> Self {
        let (mut kept, mut lo) = (0, 0);
        for i in 0..self.rows {
            let hi = self.row_ptr[i + 1];
            for e in lo..hi {
                if stored(self.values[e]) {
                    self.col_idx[kept] = self.col_idx[e];
                    self.values[kept] = self.values[e];
                    kept += 1;
                }
            }
            self.row_ptr[i + 1] = kept;
            lo = hi;
        }
        self.col_idx.truncate(kept);
        self.values.truncate(kept);
        self
    }

    /// The dense row-major `rows × cols` matrix (small matrices / tests).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut a = vec![0.0; self.rows * self.cols];
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                a[i * self.cols + j] = v;
            }
        }
        a
    }

    /// The raw `(row_ptr, col_idx, values)` arrays.
    pub fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// The raw arrays with the values writable: the pattern stays fixed.
    pub fn parts_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.row_ptr, &self.col_idx, &mut self.values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// True when every stored entry is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Largest stored magnitude `max |a_ij|` (0 when nothing is stored).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Whether the matrix is square with `|a_ij − a_ji| ≤ tol` for every
    /// stored entry (an entry missing from the pattern reads 0).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|i| self.row_entries(i).all(|(&j, &v)| (v - self.get(j, i)).abs() <= tol))
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

    /// Transposed copy, by counting sort: scanning rows in order leaves
    /// every transposed row's columns ascending. Keeps every stored entry.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut fill = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for i in 0..self.rows {
            for (&j, &v) in self.row_entries(i) {
                col_idx[fill[j]] = i;
                values[fill[j]] = v;
                fill[j] += 1;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Symmetrizes a square matrix with the mean rule `(A + Aᵀ)/2` — the
    /// CAN graph's symmetrization — then compacts.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize(&self) -> CsrMatrix {
        self.merge_transpose(0.0, |a, b| 0.5 * (a + b))
    }

    /// Symmetrizes with the max rule `max(a_ij, a_ji)` — the usual k-NN
    /// graph symmetrization (an edge exists if either endpoint chose it) —
    /// then compacts.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize_max(&self) -> CsrMatrix {
        // Folding from the max rule's identity −∞ maps a NaN weight to −∞,
        // exactly as an entry-wise max fold does.
        self.merge_transpose(f64::NEG_INFINITY, |a, b| f64::NEG_INFINITY.max(a.max(b)))
    }

    /// Each row merged with the same row of the transpose (both have
    /// sorted columns): column `j` of row `i` becomes `rule(a_ij, a_ji)`,
    /// an entry missing from the pattern reading `missing`; the result is
    /// compacted as it is written.
    fn merge_transpose(&self, missing: f64, rule: impl Fn(f64, f64) -> f64) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "CsrMatrix::symmetrize: matrix not square");
        let n = self.rows;
        let t = self.transpose();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(2 * self.nnz());
        let mut values = Vec::with_capacity(2 * self.nnz());
        for i in 0..n {
            let mut a = self.row_entries(i).peekable();
            let mut b = t.row_entries(i).peekable();
            loop {
                let (j, va, vb) = match (a.peek(), b.peek()) {
                    (Some(&(&ja, &va)), Some(&(&jb, &vb))) if ja == jb => {
                        a.next();
                        b.next();
                        (ja, va, vb)
                    }
                    (Some(&(&ja, _)), Some(&(&jb, &vb))) if jb < ja => {
                        b.next();
                        (jb, missing, vb)
                    }
                    (Some(&(&ja, &va)), _) => {
                        a.next();
                        (ja, va, missing)
                    }
                    (None, Some(&(&jb, &vb))) => {
                        b.next();
                        (jb, missing, vb)
                    }
                    (None, None) => break,
                };
                let v = rule(va, vb);
                if stored(v) {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: n, cols: n, row_ptr, col_idx, values }
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

    /// `Y = A·X` for a row-major `cols × ncols` block `X`; overwrites the
    /// `rows × ncols` block `Y`. Threaded past the flop gate.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols * ncols, "CsrMatrix::mul_into: x length mismatch");
        assert_eq!(y.len(), self.rows * ncols, "CsrMatrix::mul_into: y length mismatch");
        let threads = threads_for(2 * self.nnz() * ncols);
        csr_rows_into(threads, &self.row_ptr, &self.col_idx, &self.values, x, ncols, y);
    }
}

/// `Y = A·X` for CSR arrays `A` (`row_ptr.len() - 1` rows) and a
/// row-major `X` with `ncols` columns, `threads <= 1` running inline: the
/// one CSR-times-block kernel of the workspace. One output row per work
/// unit, overwritten and then summed over the row's stored entries in
/// storage order from an exact `0.0`.
/// On ascending column indices with no stored zeros that is exactly the
/// dense row kernel's sum (ascending index, zero-skip), so results are
/// bitwise-identical to it and to themselves at any thread count. A
/// one-column `X` (a vector apply) runs the same sum in a register.
pub fn csr_rows_into(
    threads: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    ncols: usize,
    y: &mut [f64],
) {
    assert_eq!(y.len(), (row_ptr.len() - 1) * ncols, "csr_rows_into: y length mismatch");
    if ncols == 0 {
        return;
    }
    if ncols == 1 {
        // A vector: the same sum, held in a register instead of `y`.
        umsc_rt::par::parallel_chunks_mut_with(threads, y, 1, |i, yi| {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let mut acc = 0.0;
            for (&j, &v) in col_idx[lo..hi].iter().zip(values[lo..hi].iter()) {
                acc += v * x[j];
            }
            yi[0] = acc;
        });
        return;
    }
    umsc_rt::par::parallel_chunks_mut_with(threads, y, ncols, |i, yrow| {
        yrow.fill(0.0);
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        for (&j, &v) in col_idx[lo..hi].iter().zip(values[lo..hi].iter()) {
            let xrow = &x[j * ncols..(j + 1) * ncols];
            for (o, &b) in yrow.iter_mut().zip(xrow.iter()) {
                *o += v * b;
            }
        }
    });
}

/// A square `CsrMatrix` is an operator: its applies are [`csr_rows_into`]
/// past the flop gate, and a vector apply counts its row chunks in
/// `spmv.row_chunks`.
impl LinOp for CsrMatrix {
    /// # Panics
    /// Panics if the matrix is not square.
    fn dim(&self) -> usize {
        assert_eq!(self.rows, self.cols, "CsrMatrix: an operator must be square");
        self.rows
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "CsrMatrix::apply_into: x length mismatch");
        assert_eq!(y.len(), n, "CsrMatrix::apply_into: y length mismatch");
        let threads = threads_for(2 * self.nnz());
        if n > 0 {
            // One contiguous run of rows per worker.
            umsc_obs::counter!("spmv.row_chunks", n.div_ceil(n.div_ceil(threads.max(1))));
        }
        csr_rows_into(threads, &self.row_ptr, &self.col_idx, &self.values, x, 1, y);
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        // `dim` checks the matrix is square, `mul_into` the lengths.
        let _ = self.dim();
        self.mul_into(x, ncols, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_rows_into;
    use umsc_rt::Rng;

    fn example() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    /// `A·X` by the dense row kernel on the densified matrix.
    fn dense_product(a: &CsrMatrix, x: &[f64], ncols: usize) -> Vec<f64> {
        let mut y = vec![f64::NAN; a.rows() * ncols];
        dense_rows_into(1, &a.to_dense(), a.cols(), x, ncols, &mut y);
        y
    }

    /// A ragged random sparse matrix: some empty rows, uneven nnz per row,
    /// so thread blocks carry unequal work.
    fn random_sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut rng = Rng::from_seed(seed);
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

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
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
        let (rp, ci, vals) = m.parts();
        assert_eq!(CsrMatrix::from_parts(3, 3, rp.to_vec(), ci.to_vec(), vals.to_vec()), m);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0), (1, 1, -3.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1, "cancelled entry must be dropped");
    }

    #[test]
    fn dense_round_trip() {
        let d = vec![0.0, 1.5, 0.0, -2.0, 0.0, 0.25];
        let s = CsrMatrix::from_dense(2, 3, &d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn compaction_drops_signed_zeros_and_keeps_nan() {
        let s = CsrMatrix::from_dense(2, 2, &[f64::NAN, 0.0, -0.0, 1.0]);
        assert_eq!(s.nnz(), 2);
        assert!(!s.is_finite());
        // Raw parts keep their zeros until compacted, by the same rule.
        let g = CsrMatrix::from_parts(2, 3, vec![0, 2, 5], vec![0, 2, 0, 1, 2], vec![1.0, 0.0, 2.0, -0.0, f64::NAN]);
        assert_eq!(g.nnz(), 5);
        let g = g.compact();
        assert_eq!(g.parts().0, &[0, 1, 3]);
        assert_eq!(g.parts().1, &[0, 0, 2]);
        assert_eq!((g.get(0, 0), g.get(1, 0)), (1.0, 2.0));
        assert!(g.get(1, 2).is_nan());
    }

    #[test]
    fn symmetry_reads_missing_entries_as_zero() {
        let m = example();
        assert_eq!(m.max_abs(), 4.0);
        assert!(!m.is_symmetric(1.0), "a_21 = 4 against a missing a_12");
        assert!(m.symmetrize().is_symmetric(0.0));
        assert!(!CsrMatrix::zeros(2, 3).is_symmetric(0.0), "not square");
    }

    #[test]
    fn transpose_round_trip() {
        let m = random_sparse(9, 5, 3);
        let (t, d) = (m.transpose(), m.to_dense());
        assert_eq!((t.rows(), t.cols()), (5, 9));
        for (i, j) in (0..9).flat_map(|i| (0..5).map(move |j| (i, j))) {
            assert_eq!(t.get(j, i), d[i * 5 + j]);
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetrize_average() {
        let s = example().symmetrize();
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.get(0, 2), (2.0 + 3.0) / 2.0);
    }

    #[test]
    fn symmetrize_max_rule() {
        let s = example().symmetrize_max();
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.get(0, 2), 3.0);
        assert_eq!(s.get(2, 0), 3.0);
        assert_eq!(s.get(1, 2), 4.0, "edge kept even though only one endpoint chose it");
    }

    #[test]
    fn scale_symmetric_is_two_sided() {
        let m = example().symmetrize();
        let s = [0.5, 2.0, 1.0];
        let scaled = m.scale_symmetric(&s);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(scaled.get(i, j), m.get(i, j) * (s[i] * s[j]));
            }
        }
    }

    #[test]
    fn row_sums_are_degrees() {
        assert_eq!(example().row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn zeros_and_identity() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(2, 3), 0.0);
        let i = CsrMatrix::identity(3);
        let mut y = vec![0.0; 3];
        i.apply_into(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn products_match_the_dense_kernel_at_any_thread_count() {
        // Ascending columns and no stored zeros: the CSR kernel sums
        // exactly the dense row kernel's terms in the same order.
        for (n, k) in [(1, 1), (6, 1), (53, 5), (129, 7)] {
            let m = random_sparse(n, n, 17 + n as u64).symmetrize();
            let x = random(n * k, 18 + n as u64);
            let reference = dense_product(&m, &x, k);
            let mut y = vec![f64::NAN; n * k];
            m.apply_block_into(&x, k, &mut y);
            assert_eq!(y, reference, "n={n} k={k} gated");
            let (rp, ci, vals) = m.parts();
            for threads in [2, 5, 16] {
                let mut y = vec![f64::NAN; n * k];
                csr_rows_into(threads, rp, ci, vals, &x, k, &mut y);
                assert_eq!(y, reference, "n={n} k={k} threads={threads}");
            }
            // Each column alone (the vector path) gives the same bits.
            for c in 0..k {
                let xc: Vec<f64> = (0..n).map(|i| x[i * k + c]).collect();
                let mut yc = vec![f64::NAN; n];
                m.apply_into(&xc, &mut yc);
                let rc: Vec<f64> = (0..n).map(|i| reference[i * k + c]).collect();
                assert_eq!(yc, rc, "n={n} k={k} column {c}");
            }
        }
    }

    #[test]
    fn rectangular_product_matches_the_dense_kernel() {
        let m = random_sparse(11, 4, 5);
        let x = random(4 * 3, 6);
        let mut y = vec![f64::NAN; 11 * 3];
        m.mul_into(&x, 3, &mut y);
        assert_eq!(y, dense_product(&m, &x, 3));
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rectangular_matrix_is_not_an_operator() {
        let mut y = vec![0.0; 2];
        CsrMatrix::zeros(2, 3).apply_into(&[1.0; 2], &mut y);
    }

    #[test]
    #[should_panic(expected = "rows + 1 entries")]
    fn parts_with_short_row_ptr_panic() {
        CsrMatrix::from_parts(3, 3, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn parts_with_row_ptr_not_from_zero_panic() {
        CsrMatrix::from_parts(1, 3, vec![1, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn parts_with_decreasing_row_ptr_panic() {
        CsrMatrix::from_parts(2, 3, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "end at col_idx.len()")]
    fn parts_with_row_ptr_past_the_entries_panic() {
        CsrMatrix::from_parts(1, 3, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "values length mismatch")]
    fn parts_with_missing_values_panic() {
        CsrMatrix::from_parts(1, 3, vec![0, 1], vec![0], vec![]);
    }

    #[test]
    #[should_panic(expected = "row 0 columns not ascending")]
    fn parts_with_unsorted_columns_panic() {
        CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 columns not ascending")]
    fn parts_with_repeated_column_panic() {
        CsrMatrix::from_parts(2, 3, vec![0, 0, 2], vec![1, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row 0 column out of bounds")]
    fn parts_with_column_out_of_bounds_panic() {
        CsrMatrix::from_parts(1, 3, vec![0, 1], vec![3], vec![1.0]);
    }
}
