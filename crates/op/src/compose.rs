//! Composite operator nodes: diagonal shift, weighted sums.

use crate::{map_indexed_gated, new_scratch, LinOp, Scratch};

/// `σI − A`: a spectral shift (turns a Laplacian into the
/// positive-definite operator `ηI − Σ_v w_v L_v` whose *top* eigenvectors
/// are the Laplacian's bottom ones). No fit applies it; it composes
/// reference operators for tests and benchmarks.
///
/// No scratch: the inner result lands in `y`, then each element is
/// replaced by `σ·x[i] − y[i]` — order-independent per element, hence
/// bitwise-identical for any thread count.
#[derive(Debug)]
pub struct DiagShift<T> {
    sigma: f64,
    inner: T,
}

impl<T: LinOp> DiagShift<T> {
    pub fn new(sigma: f64, inner: T) -> Self {
        DiagShift { sigma, inner }
    }
}

impl<T: LinOp> LinOp for DiagShift<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        self.inner.apply_block_into(x, ncols, y);
        let sigma = self.sigma;
        map_indexed_gated(y.len(), y, |i, v| *v = sigma * x[i] - *v);
    }
}

/// `Σ_v w_v · A_v`: a weighted sum of operators.
///
/// Each view applies into an internal scratch panel (reused across
/// calls), then accumulates into `y` in view order — `y` starts from an
/// exact `0.0` and views are added sequentially, so the accumulation order
/// is fixed regardless of thread count and matches the sequential
/// reference bitwise. The node owns its views and fixes its weights at
/// construction. No fit applies it (the fits run one fused operator per
/// view set); it composes reference operators for tests and benchmarks.
#[derive(Debug)]
pub struct WeightedSum<T> {
    ops: Vec<T>,
    weights: Vec<f64>,
    scratch: Scratch,
}

impl<T: LinOp> WeightedSum<T> {
    /// Weighted sum `Σ_v w_v A_v`.
    ///
    /// # Panics
    /// Panics if `ops` is empty, `weights.len() != ops.len()`, or the
    /// views disagree on dimension.
    pub fn with_weights(ops: Vec<T>, weights: &[f64]) -> Self {
        assert!(!ops.is_empty(), "WeightedSum: at least one view required");
        let n = ops[0].dim();
        assert!(ops.iter().all(|op| op.dim() == n), "WeightedSum: dimension mismatch across views");
        assert_eq!(weights.len(), ops.len(), "WeightedSum: weights length mismatch");
        WeightedSum { ops, weights: weights.to_vec(), scratch: new_scratch() }
    }
}

impl<T: LinOp> LinOp for WeightedSum<T> {
    fn dim(&self) -> usize {
        self.ops[0].dim()
    }

    /// `tmp = A_v·X` per view, then `y += w_v·tmp`.
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let len = self.dim() * ncols;
        assert_eq!(x.len(), len, "WeightedSum::apply_block_into: x length mismatch");
        assert_eq!(y.len(), len, "WeightedSum::apply_block_into: y length mismatch");
        y.fill(0.0);
        let mut scratch = self.scratch.borrow_mut();
        let tmp = scratch.ensure(len);
        for (op, &w) in self.ops.iter().zip(self.weights.iter()) {
            op.apply_block_into(x, ncols, tmp);
            let t: &[f64] = tmp;
            map_indexed_gated(len, y, |i, v| *v += w * t[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseOp;
    use umsc_rt::Rng;

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
    }

    #[test]
    fn diag_shift_matches_manual() {
        let n = 8;
        let k = 3;
        let a = random(n * n, 5);
        let x = random(n * k, 6);
        let op = DiagShift::new(1.75, DenseOp::new(n, &a));

        let mut expect = vec![0.0; n * k];
        DenseOp::new(n, &a).apply_block_into(&x, k, &mut expect);
        for (i, v) in expect.iter_mut().enumerate() {
            *v = 1.75 * x[i] - *v;
        }
        let mut y = vec![f64::NAN; n * k];
        op.apply_block_into(&x, k, &mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn weighted_sum_matches_sequential_reference() {
        let n = 11;
        let k = 2;
        let views: Vec<Vec<f64>> = (0..3).map(|v| random(n * n, 50 + v)).collect();
        let weights = [0.2, 1.4, 0.7];
        let ops: Vec<DenseOp<'_>> = views.iter().map(|d| DenseOp::new(n, d)).collect();
        let wsum = WeightedSum::with_weights(ops, &weights);

        let x = random(n * k, 77);
        // Sequential reference: same view order, same per-element order.
        let mut expect = vec![0.0; n * k];
        let mut tmp = vec![0.0; n * k];
        for (d, &w) in views.iter().zip(weights.iter()) {
            crate::dense_rows_into(1, d, n, &x, k, &mut tmp);
            for (e, &t) in expect.iter_mut().zip(tmp.iter()) {
                *e += w * t;
            }
        }
        let mut y = vec![f64::NAN; n * k];
        wsum.apply_block_into(&x, k, &mut y);
        assert_eq!(y, expect);

        // Vector apply against the same reference restricted to k=1.
        let xv = random(n, 78);
        let mut expect_v = vec![0.0; n];
        let mut tmp_v = vec![0.0; n];
        for (d, &w) in views.iter().zip(weights.iter()) {
            crate::dense_rows_into(1, d, n, &xv, 1, &mut tmp_v);
            for (e, &t) in expect_v.iter_mut().zip(tmp_v.iter()) {
                *e += w * t;
            }
        }
        let mut yv = vec![f64::NAN; n];
        wsum.apply_into(&xv, &mut yv);
        assert_eq!(yv, expect_v);
    }

    #[test]
    #[should_panic(expected = "at least one view")]
    fn empty_weighted_sum_panics() {
        WeightedSum::<DenseOp<'static>>::with_weights(Vec::new(), &[]);
    }
}
