//! The one Laplacian view set of every [`crate::Umsc`] fit, [`FusedLaplacian`].
//!
//! The objective reaches the views only through the fused Laplacian
//! `Σ_v w_v L⁽ᵛ⁾` (the embedding eigensolves and every GPI F-step) and the
//! per-view traces `tr(Fᵀ L⁽ᵛ⁾ F)` (one CSR block apply per view). The
//! views and the fused Laplacian are all [`CsrMatrix`] values, the
//! workspace's one CSR type; the sum is stored on the union of the views'
//! patterns, and a weight change merges each view's sorted row into the
//! union row, in view order — the summation order of a dense
//! `Σ_v w_v L⁽ᵛ⁾`, so dense Laplacians compacted at their exact zeros fit
//! bit for bit as the dense matrices did. Its applies are the sum's own
//! ([`umsc_op::csr_rows_into`]), and its GPI shift is its Gershgorin
//! bound, so any symmetric Laplacian is accepted.
//! Memory is O(nnz + n·c); no `n × n` buffer (`tests/alloc_free.rs`).

use crate::engine::ViewSet;
use crate::workspace::TraceScratch;
use umsc_graph::CsrMatrix;
use umsc_linalg::{LinOp, Matrix};

/// `Σ_v w_v L⁽ᵛ⁾` over borrowed CSR Laplacians, stored as one CSR
/// matrix on the union of their patterns. Build it with
/// [`sparse_fused_operator`], reuse it across sweeps, and move it to new
/// weights in place with [`FusedLaplacian::set_weights`]; applies and
/// weight changes never touch the heap.
#[derive(Debug)]
pub struct FusedLaplacian<'a> {
    views: &'a [CsrMatrix],
    /// The union pattern, holding `Σ_v w_v L⁽ᵛ⁾`.
    sum: CsrMatrix,
}

/// The fused Laplacian of `views` at `weights` — the operator every
/// `Umsc` fit applies. Reuse one instance across
/// [`crate::Umsc::one_step_solve`] calls, which move it to each sweep's weights.
///
/// # Panics
/// Panics if `views` is empty, the views are not all `n × n` with
/// the same `n`, or `weights.len()` differs from the view count.
pub fn sparse_fused_operator<'a>(views: &'a [CsrMatrix], weights: &[f64]) -> FusedLaplacian<'a> {
    // A counting pass sizes the union pattern exactly; a second fills it.
    let n = views[0].rows();
    assert!(views.iter().all(|l| l.rows() == n && l.cols() == n), "FusedLaplacian: views must all be {n}x{n}");
    let mut seen = vec![usize::MAX; n];
    let mut total = 0;
    (0..n).for_each(|i| union_row(views, i, &mut seen, |_| total += 1));
    seen.fill(usize::MAX);
    let (mut row_ptr, mut col_idx) = (Vec::with_capacity(n + 1), Vec::with_capacity(total));
    row_ptr.push(0);
    for i in 0..n {
        union_row(views, i, &mut seen, |j| col_idx.push(j));
        col_idx[row_ptr[i]..].sort_unstable();
        row_ptr.push(col_idx.len());
    }
    let sum = CsrMatrix::from_parts(n, n, row_ptr, col_idx, vec![0.0; total]);
    let mut fused = FusedLaplacian { views, sum };
    fused.set_weights(weights);
    fused
}

impl FusedLaplacian<'_> {
    /// Rewrites the stored values as `Σ_v w_v L⁽ᵛ⁾`: each entry sums its
    /// views' terms in view order from an exact `0.0`.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the view count.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.views.len(), "FusedLaplacian: weights length mismatch");
        let (row_ptr, col_idx, values) = self.sum.parts_mut();
        values.fill(0.0);
        for (i, span) in row_ptr.windows(2).enumerate() {
            let (cols, vals) = (&col_idx[span[0]..span[1]], &mut values[span[0]..span[1]]);
            for (l, &w) in self.views.iter().zip(weights) {
                // Both rows ascend, so one forward cursor finds every entry.
                let mut k = 0;
                for (&j, &v) in l.row_entries(i) {
                    while cols[k] != j {
                        k += 1;
                    }
                    vals[k] += w * v;
                }
            }
        }
    }

    /// The Gershgorin bound `max_i (a_ii + Σ_{j≠i} |a_ij|)` of the stored
    /// matrix (0 when it is not finite).
    fn gershgorin_upper_bound(&self) -> f64 {
        let row_bound = |i: usize| {
            let entries = self.sum.row_entries(i);
            let diag = entries.clone().find(|(&j, _)| j == i).map_or(0.0, |(_, &v)| v);
            diag + entries.filter(|(&j, _)| j != i).map(|(_, v)| v.abs()).sum::<f64>()
        };
        let bound = (0..self.dim()).map(row_bound).fold(f64::NEG_INFINITY, f64::max);
        if bound.is_finite() {
            bound
        } else {
            0.0
        }
    }
}

/// Calls `push` once for every column in row `i` of any view, in
/// first-seen order; `seen[j] == i` marks column `j` as pushed for row
/// `i`, so rows must come in ascending order.
fn union_row(views: &[CsrMatrix], i: usize, seen: &mut [usize], mut push: impl FnMut(usize)) {
    for l in views {
        for (&j, _) in l.row_entries(i) {
            if seen[j] != i {
                seen[j] = i;
                push(j);
            }
        }
    }
}

impl LinOp for FusedLaplacian<'_> {
    fn dim(&self) -> usize {
        self.sum.rows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.sum.apply_into(x, y);
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        self.sum.apply_block_into(x, ncols, y);
    }
}

impl ViewSet for FusedLaplacian<'_> {
    const SOLVER: &'static str = "sparse";

    fn num_views(&self) -> usize {
        self.views.len()
    }

    fn traces_into(&self, f: &Matrix, scratch: &mut TraceScratch, traces: &mut Vec<f64>) {
        let (n, c) = f.shape();
        scratch.prod.ensure_shape(n, c);
        scratch.cc.ensure_shape(c, c);
        traces.clear();
        for l in self.views {
            l.apply_block_into(f.as_slice(), c, scratch.prod.as_mut_slice());
            f.matmul_transpose_a_into(&scratch.prod, &mut scratch.cc);
            traces.push(scratch.cc.trace());
        }
    }

    fn set_weights(&mut self, weights: &[f64]) {
        FusedLaplacian::set_weights(self, weights);
    }

    /// The Gershgorin bound of the stored fused matrix, with a small
    /// margin so `ηI − A` stays PSD under rounding.
    fn gpi_shift(&self) -> f64 {
        self.gershgorin_upper_bound().max(0.0) + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Umsc, UmscConfig, Weighting};
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_graph::{knn_affinity, normalized_laplacian_sparse, pairwise_sq_distances, Bandwidth};
    use umsc_metrics::clustering_accuracy;

    fn sparse_laplacians(data: &umsc_data::MultiViewDataset, k: usize) -> Vec<CsrMatrix> {
        data.views
            .iter()
            .map(|x| {
                let d = pairwise_sq_distances(x);
                let w = knn_affinity(&d, k, &Bandwidth::SelfTuning { k: 7 });
                normalized_laplacian_sparse(&w)
            })
            .collect()
    }

    fn gmm(per: usize, seed: u64) -> umsc_data::MultiViewDataset {
        let mut gen = MultiViewGmm::new("sp", 3, per, vec![ViewSpec::clean(6), ViewSpec::clean(8)]);
        gen.separation = 6.0;
        gen.generate(seed)
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        // Same k-NN Laplacians through both doors: the dense one compacts
        // at exact zeros, so the two fits are one solve, bit for bit.
        let data = gmm(25, 1);
        let model = Umsc::new(UmscConfig::new(3));
        let sparse_ls = sparse_laplacians(&data, 10);
        let dense_ls: Vec<Matrix> =
            sparse_ls.iter().map(|l| Matrix::from_vec(l.rows(), l.cols(), l.to_dense())).collect();
        let dense = model.fit_laplacians(&dense_ls).unwrap();
        let sparse = model.fit_laplacians_sparse(&sparse_ls).unwrap();
        assert_eq!(dense.labels, sparse.labels);
        let bits = |r: &crate::UmscResult| r.history.iter().map(|h| h.objective.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dense), bits(&sparse), "objectives differ");
        assert_eq!(dense.embedding.as_slice(), sparse.embedding.as_slice(), "embeddings differ");
        let acc = clustering_accuracy(&sparse.labels, &data.labels);
        assert!(acc > 0.95, "sparse path ACC {acc}");
    }

    #[test]
    fn objective_monotone_and_structures_valid() {
        let data = gmm(30, 2);
        let res = Umsc::new(UmscConfig::new(3)).fit_laplacians_sparse(&sparse_laplacians(&data, 10)).unwrap();
        for w in res.history.windows(2) {
            assert!(w[1].objective <= w[0].objective + 1e-5 * (1.0 + w[0].objective.abs()));
        }
        assert!(res.embedding.matmul_transpose_a(&res.embedding).approx_eq(&Matrix::identity(3), 1e-6));
        assert!((res.view_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_view_downweighted_sparse() {
        let mut data = gmm(30, 3);
        data.corrupt_view(1, 1.0, 9);
        let res = Umsc::new(UmscConfig::new(3)).fit_laplacians_sparse(&sparse_laplacians(&data, 10)).unwrap();
        assert!(res.view_weights[1] < res.view_weights[0], "{:?}", res.view_weights);
    }

    #[test]
    fn fixed_and_uniform_weighting() {
        let data = gmm(20, 4);
        let ls = sparse_laplacians(&data, 8);
        let res = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Uniform))
            .fit_laplacians_sparse(&ls)
            .unwrap();
        assert!(res.view_weights.iter().all(|&w| (w - 0.5).abs() < 1e-12));
        let res = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![3.0, 1.0])))
            .fit_laplacians_sparse(&ls)
            .unwrap();
        assert!((res.view_weights[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fused_operator_matches_the_dense_weighted_sum() {
        let data = gmm(15, 7);
        let ls = sparse_laplacians(&data, 6);
        let mut fused = sparse_fused_operator(&ls, &[0.25, 0.75]);
        fused.set_weights(&[0.6, 0.4]);
        // Reference: the dense sum, accumulated in view order.
        let n = fused.dim();
        let mut dense = Matrix::zeros(n, n);
        for (l, w) in ls.iter().zip([0.6, 0.4]) {
            dense.axpy(w, &Matrix::from_vec(n, n, l.to_dense()));
        }
        let x = Matrix::from_fn(n, 3, |i, j| ((i * 13 + j * 5 + 1) as f64).sin());
        let mut y = vec![0.0; n * 3];
        fused.apply_block_into(x.as_slice(), 3, &mut y);
        assert_eq!(y.as_slice(), dense.matmul(&x).as_slice(), "fused apply diverges from the dense sum");
        let (mut yv, xv) = (vec![0.0; n], x.col(1));
        fused.apply_into(&xv, &mut yv);
        assert_eq!(yv.as_slice(), dense.matmul(&Matrix::from_vec(n, 1, xv)).as_slice());
        assert_eq!(fused.gershgorin_upper_bound(), dense.gershgorin_upper_bound());
    }
}
