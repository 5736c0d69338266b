//! Sparse-Laplacian path for the unified solver.
//!
//! The dense path densifies k-NN graphs into `n × n` matrices — O(n²)
//! memory regardless of sparsity. This module gives [`Umsc`] a second
//! entry point, [`Umsc::fit_laplacians_sparse`], that keeps every view's
//! normalized Laplacian in CSR form and runs the same block coordinate
//! descent engine matrix-free through the [`umsc_op`] operator layer:
//!
//! * the fused Laplacian `Σ_v w_v L_v` is a [`WeightedSum`] over borrowed
//!   [`CsrOp`] views (see [`sparse_fused_operator`]) — never materialized,
//!   O(nnz) per application, weights swapped in place per sweep;
//! * traces `tr(Fᵀ L_v F)` via one block apply per view — O(nnz·c);
//! * the embedding eigensolve is scalar Lanczos on the fused operator;
//! * the GPI F-step shifts by the spectral bound `η = 2Σ_v w_v`
//!   (normalized Laplacians satisfy `L ⪯ 2I`).
//!
//! Workspace memory is O(nnz + n·c): nothing on this path asks for an
//! `n × n` buffer (asserted by the peak-memory tests in
//! `tests/alloc_free.rs`).

use crate::engine::{self, ViewSet};
use crate::solver::{SolverState, StepStats, Umsc, UmscResult};
use crate::workspace::{SolverWorkspace, TraceScratch};
use crate::Result;
use umsc_graph::CsrMatrix;
use umsc_linalg::{LinOp, Matrix};
use umsc_op::{CsrOp, WeightedSum};

/// The fused operator `Σ_v w_v L_v` over borrowed CSR Laplacians — the
/// sparse path's stand-in for the dense weighted Laplacian. Reuse one
/// instance across sweeps and call [`WeightedSum::set_weights`] as the
/// w-step updates weights; applications stay allocation-free once the
/// internal scratch is warm.
pub fn sparse_fused_operator<'a>(laplacians: &'a [CsrMatrix], weights: &[f64]) -> WeightedSum<CsrOp<'a>> {
    let ops: Vec<CsrOp<'a>> = laplacians.iter().map(|l| l.as_op()).collect();
    WeightedSum::with_weights(ops, weights)
}

impl Umsc {
    /// Fits the model on precomputed **sparse** per-view normalized
    /// Laplacians. Mirrors [`Umsc::fit_laplacians`] without ever forming
    /// an `n × n` dense matrix; use it when graphs are k-NN/ε-ball sparse
    /// and `n` is large. Every discretization is supported, the two-stage
    /// `KMeans` ablation included.
    pub fn fit_laplacians_sparse(&self, laplacians: &[CsrMatrix]) -> Result<UmscResult> {
        let views = laplacians.iter().map(|l| ((l.rows(), l.cols()), l.is_finite()));
        let n = engine::validate(self.config(), views, true)?;
        let uniform = vec![1.0 / laplacians.len() as f64; laplacians.len()];
        let mut fused = sparse_fused_operator(laplacians, &uniform);
        engine::fit(self.config(), &mut CsrViews { laplacians, fused: &mut fused }, n)
    }

    /// One block-coordinate sweep of the sparse path: the exact analogue
    /// of [`Umsc::one_step_solve`] with the fused Laplacian kept implicit
    /// as a [`WeightedSum`] operator. `fused` must wrap `laplacians` (build
    /// it with [`sparse_fused_operator`]); its weights are overwritten by
    /// the sweep. Memory stays O(nnz + n·c).
    pub fn one_step_solve_sparse(
        &self,
        laplacians: &[CsrMatrix],
        fused: &mut WeightedSum<CsrOp<'_>>,
        st: &mut SolverState,
        ws: &mut SolverWorkspace,
    ) -> Result<StepStats> {
        engine::sweep(self.config(), &mut CsrViews { laplacians, fused }, st, ws)
    }
}

/// The CSR view set: a persistent [`WeightedSum`] over the views.
struct CsrViews<'a, 'b, 'c> {
    laplacians: &'a [CsrMatrix],
    fused: &'b mut WeightedSum<CsrOp<'c>>,
}

impl ViewSet for CsrViews<'_, '_, '_> {
    const SOLVER: &'static str = "sparse";

    fn num_views(&self) -> usize {
        self.laplacians.len()
    }

    fn traces_into(&self, f: &Matrix, scratch: &mut TraceScratch, traces: &mut Vec<f64>) {
        let (n, c) = f.shape();
        TraceScratch::fit(&mut scratch.lf, n, c);
        TraceScratch::fit(&mut scratch.cc, c, c);
        traces.clear();
        for l in self.laplacians {
            l.apply_block_into(f.as_slice(), c, scratch.lf.as_mut_slice());
            f.matmul_transpose_a_into(&scratch.lf, &mut scratch.cc);
            traces.push(scratch.cc.trace());
        }
    }

    fn set_weights(&mut self, weights: &[f64]) {
        self.fused.set_weights(weights);
    }

    fn operator(&self) -> &dyn LinOp {
        &*self.fused
    }

    /// Normalized Laplacians satisfy `L ⪯ 2I`, so `η = 2·Σ_v w_v` bounds
    /// `λ_max` of the fused operator.
    fn gpi_shift(&self, weights: &[f64]) -> f64 {
        2.0 * weights.iter().sum::<f64>() + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UmscConfig, Weighting};
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_graph::{knn_affinity, normalized_laplacian_sparse, pairwise_sq_distances, Bandwidth};
    use umsc_metrics::{clustering_accuracy, nmi};

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
        // Same k-NN Laplacians through both doors.
        let data = gmm(25, 1);
        let model = Umsc::new(UmscConfig::new(3));
        let sparse_ls = sparse_laplacians(&data, 10);
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| l.to_dense()).collect();
        let dense = model.fit_laplacians(&dense_ls).unwrap();
        let sparse = model.fit_laplacians_sparse(&sparse_ls).unwrap();
        // Partitions agree (solvers differ in eigensolver internals, so
        // demand partition identity, not bitwise equality).
        assert!(nmi(&dense.labels, &sparse.labels) > 0.99, "partitions diverge");
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
    fn fused_operator_weights_swap_in_place() {
        let data = gmm(15, 7);
        let ls = sparse_laplacians(&data, 6);
        let mut fused = sparse_fused_operator(&ls, &[0.25, 0.75]);
        let n = fused.dim();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) as f64).sin()).collect();
        let mut y = vec![0.0; n];
        fused.set_weights(&[0.6, 0.4]);
        fused.apply_into(&x, &mut y);
        // Reference: per-view applies accumulated in view order.
        let mut expect = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        for (l, w) in ls.iter().zip([0.6, 0.4]) {
            l.apply_into(&x, &mut tmp);
            for (e, &t) in expect.iter_mut().zip(tmp.iter()) {
                *e += w * t;
            }
        }
        assert_eq!(y, expect, "fused operator diverges from per-view reference");
    }
}
