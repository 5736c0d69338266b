//! CSR operator node: borrowed compressed-sparse-row storage.

use crate::LinOp;
use umsc_rt::par::threads_for;

/// A sparse operator over borrowed CSR arrays.
///
/// This is the operator-layer view of `umsc_graph::CsrMatrix` (which
/// implements [`LinOp`] by constructing one); keeping the node itself
/// slice-based lets `umsc-op` sit below the graph crate in the
/// dependency stack, and makes it the only home of the CSR products:
/// per-row sums in CSR storage order, one output row per work unit, so
/// results are bitwise-identical for any thread count.
#[derive(Clone, Copy, Debug)]
pub struct CsrOp<'a> {
    n: usize,
    row_ptr: &'a [usize],
    col_idx: &'a [usize],
    values: &'a [f64],
}

impl<'a> CsrOp<'a> {
    /// Wraps raw CSR arrays for a square `n × n` operator.
    ///
    /// # Panics
    /// Panics if the arrays are not a well-formed CSR description:
    /// `row_ptr` must hold `n + 1` non-decreasing offsets starting at 0,
    /// and `col_idx`/`values` must both have `row_ptr[n]` entries with
    /// in-range column indices.
    pub fn new(n: usize, row_ptr: &'a [usize], col_idx: &'a [usize], values: &'a [f64]) -> Self {
        assert_eq!(row_ptr.len(), n + 1, "CsrOp::new: row_ptr must have n + 1 entries");
        assert_eq!(row_ptr[0], 0, "CsrOp::new: row_ptr must start at 0");
        let nnz = row_ptr[n];
        assert_eq!(col_idx.len(), nnz, "CsrOp::new: col_idx length mismatch");
        assert_eq!(values.len(), nnz, "CsrOp::new: values length mismatch");
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "CsrOp::new: row_ptr not sorted");
        debug_assert!(col_idx.iter().all(|&j| j < n), "CsrOp::new: column index out of range");
        CsrOp { n, row_ptr, col_idx, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_ptr[self.n]
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

impl LinOp for CsrOp<'_> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "CsrOp::apply_into: x length mismatch");
        assert_eq!(y.len(), n, "CsrOp::apply_into: y length mismatch");
        let threads = threads_for(2 * self.nnz());
        if n > 0 {
            // One contiguous run of rows per worker.
            umsc_obs::counter!("spmv.row_chunks", n.div_ceil(n.div_ceil(threads.max(1))));
        }
        csr_rows_into(threads, self.row_ptr, self.col_idx, self.values, x, 1, y);
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n * ncols, "CsrOp::apply_block_into: x length mismatch");
        assert_eq!(y.len(), n * ncols, "CsrOp::apply_block_into: y length mismatch");
        let threads = threads_for(2 * self.nnz() * ncols);
        csr_rows_into(threads, self.row_ptr, self.col_idx, self.values, x, ncols, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::Rng;

    /// Random sparse CSR arrays plus the equivalent dense matrix.
    fn random_csr(n: usize, per_row: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::from_seed(seed);
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            let mut cols: Vec<usize> = (0..per_row.min(n)).map(|_| rng.gen_range(0..n)).collect();
            cols.sort_unstable();
            cols.dedup();
            for j in cols {
                let v = rng.gen_range_f64(-1.0, 1.0);
                col_idx.push(j);
                values.push(v);
                dense[i * n + j] = v;
            }
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx, values, dense)
    }

    #[test]
    fn apply_matches_dense_reference_and_is_thread_invariant() {
        for n in [1, 6, 40, 129] {
            let (rp, ci, vals, dense) = random_csr(n, 4, 42 + n as u64);
            let op = CsrOp::new(n, &rp, &ci, &vals);
            let mut rng = Rng::from_seed(9 + n as u64);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();

            let mut reference = vec![f64::NAN; n];
            op.apply_into(&x, &mut reference);
            // CSR rows are ascending-index, so the dense dot is the same sum.
            let naive: Vec<f64> = (0..n)
                .map(|i| dense[i * n..(i + 1) * n].iter().zip(&x).map(|(&a, &b)| a * b).sum())
                .collect();
            for (r, nv) in reference.iter().zip(naive.iter()) {
                assert!((r - nv).abs() < 1e-12);
            }

            for threads in [1, 2, 5, 16] {
                let mut y = vec![f64::NAN; n];
                csr_rows_into(threads, &rp, &ci, &vals, &x, 1, &mut y);
                assert_eq!(y, reference, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn block_apply_is_thread_invariant() {
        for (n, k) in [(5, 2), (40, 4), (129, 7)] {
            let (rp, ci, vals, _) = random_csr(n, 5, 7 + n as u64);
            let op = CsrOp::new(n, &rp, &ci, &vals);
            let mut rng = Rng::from_seed(21 + n as u64);
            let x: Vec<f64> = (0..n * k).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();

            let mut reference = vec![f64::NAN; n * k];
            csr_rows_into(1, &rp, &ci, &vals, &x, k, &mut reference);
            let mut gated = vec![f64::NAN; n * k];
            op.apply_block_into(&x, k, &mut gated);
            assert_eq!(gated, reference, "n={n} k={k} gated");
            // Each column alone (the vector path) gives the same bits.
            for c in 0..k {
                let xc: Vec<f64> = (0..n).map(|i| x[i * k + c]).collect();
                let mut yc = vec![f64::NAN; n];
                op.apply_into(&xc, &mut yc);
                let rc: Vec<f64> = (0..n).map(|i| reference[i * k + c]).collect();
                assert_eq!(yc, rc, "n={n} k={k} column {c}");
            }
            for threads in [2, 4, 11] {
                let mut y = vec![f64::NAN; n * k];
                csr_rows_into(threads, &rp, &ci, &vals, &x, k, &mut y);
                assert_eq!(y, reference, "n={n} k={k} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row_ptr must have")]
    fn malformed_row_ptr_panics() {
        CsrOp::new(3, &[0, 1], &[0], &[1.0]);
    }
}
