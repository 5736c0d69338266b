//! Dense operator node: a borrowed row-major `n × n` matrix.

use crate::LinOp;
use umsc_rt::par::threads_for;

/// A dense symmetric operator over a borrowed row-major `n × n` slice.
///
/// Vector and block applies both run [`dense_rows_into`] (a vector is a
/// block of one column), the kernel behind `Matrix::matmul*` too, so they
/// are bitwise-identical to `Matrix::matmul_into` for any thread count.
/// No scratch is needed: applies write straight into the caller's buffers.
#[derive(Clone, Copy, Debug)]
pub struct DenseOp<'a> {
    n: usize,
    data: &'a [f64],
}

impl<'a> DenseOp<'a> {
    /// Wraps a row-major `n × n` slice.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn new(n: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), n * n, "DenseOp::new: data is not n x n");
        DenseOp { n, data }
    }
}

/// `Y = A·X` for a row-major `A` with `k` columns and a row-major `X`
/// (`k × ncols`), writing the row-major `Y` (`y.len() / ncols` rows),
/// `threads <= 1` running inline: the one dense-times-block kernel of the
/// workspace. One output row per work unit, overwritten and then
/// accumulated `i-p-j` — ascending `p` from an exact `0.0`, skipping
/// exact zeros of `A` — so each output row streams contiguous rows of `X`
/// and results are bitwise-identical at any thread count. A one-column
/// `X` (a vector apply) runs the same sum in a register.
///
/// # Panics
/// Panics if `a` does not hold `y.len() / ncols` rows of `k` entries or
/// `x.len() != k * ncols`.
pub fn dense_rows_into(threads: usize, a: &[f64], k: usize, x: &[f64], ncols: usize, y: &mut [f64]) {
    if ncols == 0 {
        return;
    }
    assert_eq!(x.len(), k * ncols, "dense_rows_into: x length mismatch");
    assert!(
        y.len().is_multiple_of(ncols) && a.len() == y.len() / ncols * k,
        "dense_rows_into: a holds {} entries, y {} for {ncols} columns and k = {k}",
        a.len(),
        y.len()
    );
    if ncols == 1 {
        // A vector: the same sum, held in a register instead of `y`.
        umsc_rt::par::parallel_chunks_mut_with(threads, y, 1, |i, yi| {
            let mut acc = 0.0;
            for (&av, &b) in a[i * k..(i + 1) * k].iter().zip(x) {
                if av != 0.0 {
                    acc += av * b;
                }
            }
            yi[0] = acc;
        });
        return;
    }
    umsc_rt::par::parallel_chunks_mut_with(threads, y, ncols, |i, yrow| {
        yrow.fill(0.0);
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &b) in yrow.iter_mut().zip(&x[p * ncols..(p + 1) * ncols]) {
                *o += av * b;
            }
        }
    });
}

impl LinOp for DenseOp<'_> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n * ncols, "DenseOp::apply_block_into: x length mismatch");
        assert_eq!(y.len(), n * ncols, "DenseOp::apply_block_into: y length mismatch");
        dense_rows_into(threads_for(2 * n * n * ncols), self.data, n, x, ncols, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::Rng;

    fn random(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..n).map(|_| rng.gen_range_f64(-2.0, 2.0)).collect()
    }

    /// Sequential reference: plain ascending-index dot products.
    fn naive_apply(n: usize, a: &[f64], x: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; n * k];
        for i in 0..n {
            for j in 0..k {
                let mut acc = 0.0;
                for p in 0..n {
                    acc += a[i * n + p] * x[p * k + j];
                }
                y[i * k + j] = acc;
            }
        }
        y
    }

    #[test]
    fn apply_matches_naive_and_is_thread_invariant() {
        for n in [1, 3, 17, 64] {
            let a = random(n * n, 1 + n as u64);
            let x = random(n, 100 + n as u64);
            let op = DenseOp::new(n, &a);

            let mut reference = vec![f64::NAN; n];
            op.apply_into(&x, &mut reference);
            assert_eq!(reference, naive_apply(n, &a, &x, 1));

            for threads in [1, 2, 3, 8] {
                let mut y = vec![f64::NAN; n];
                dense_rows_into(threads, &a, n, &x, 1, &mut y);
                assert_eq!(y, reference, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn block_apply_matches_naive_and_is_thread_invariant() {
        for (n, k) in [(1, 1), (5, 3), (33, 4), (64, 7)] {
            let mut a = random(n * n, 7 + n as u64);
            // Plant exact zeros to exercise the zero-skip path.
            for v in a.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let x = random(n * k, 300 + n as u64);
            let op = DenseOp::new(n, &a);

            let mut reference = vec![f64::NAN; n * k];
            dense_rows_into(1, &a, n, &x, k, &mut reference);
            assert_eq!(reference, naive_apply(n, &a, &x, k));
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

            for threads in [2, 4, 9] {
                let mut y = vec![f64::NAN; n * k];
                dense_rows_into(threads, &a, n, &x, k, &mut y);
                assert_eq!(y, reference, "n={n} k={k} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not n x n")]
    fn wrong_shape_panics() {
        DenseOp::new(3, &[0.0; 8]);
    }
}
