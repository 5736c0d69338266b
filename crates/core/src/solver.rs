//! The unified one-stage solver and the model type.
//!
//! [`Umsc`] is the public face of the paper's method. Every fit funnels
//! into the shared block-coordinate-descent engine (`engine.rs`); one
//! outer iteration performs:
//!
//! 1. **w-step** — closed-form view re-weighting (scheme-dependent);
//! 2. **F-step** — GPI on `min tr(Fᵀ L̄ F) − 2λ tr(Fᵀ Y_eff Rᵀ)` over the
//!    Stiefel manifold, where `L̄ = Σ_v w_v L⁽ᵛ⁾`;
//! 3. **R-step** — orthogonal Procrustes `R = UVᵀ` of `Fᵀ Y_eff`;
//! 4. **Y-step** — exact row-wise argmax of `F·R` with empty-cluster repair.
//!
//! Every entry point — features, dense or CSR Laplacians — ends in one
//! fit on CSR Laplacians, whose view set is the
//! [`FusedLaplacian`] of `sparse_solver.rs`.

use crate::config::UmscConfig;
use crate::engine;
use crate::pipeline::build_view_laplacians_sparse;
use crate::sparse_solver::{sparse_fused_operator, FusedLaplacian};
use crate::workspace::SolverWorkspace;
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_graph::CsrMatrix;
use umsc_linalg::{procrustes, Matrix};

/// Snapshot of one outer iteration (for convergence plots).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Total objective (embedding term + rotation term).
    pub objective: f64,
    /// Graph-fusion term: `Σ_v √tr_v` (Auto) or `Σ_v w_v·tr_v` (other
    /// weighting schemes).
    pub embedding_term: f64,
    /// Discretization alignment term `λ‖FR − Y_eff‖²`.
    pub rotation_term: f64,
    /// View weights used this iteration, normalized to sum 1 for
    /// comparability across iterations.
    pub weights: Vec<f64>,
}

/// Fitted model output.
#[derive(Debug, Clone)]
pub struct UmscResult {
    /// Cluster label per point — read directly off the learned `Y`.
    pub labels: Vec<usize>,
    /// Continuous spectral embedding `F` (`n × c`, orthonormal columns).
    pub embedding: Matrix,
    /// Learned spectral rotation `R` (`c × c`, orthogonal).
    pub rotation: Matrix,
    /// Learned discrete indicator `Y` (`n × c`, 0/1).
    pub indicator: Matrix,
    /// Final view weights (normalized to sum 1).
    pub view_weights: Vec<f64>,
    /// Per-iteration objective trace.
    pub history: Vec<IterationStats>,
    /// Whether the outer loop hit the tolerance before `max_iter`.
    pub converged: bool,
}

/// Mutable block-coordinate state advanced by [`Umsc::one_step_solve`]:
/// the embedding `F`, rotation `R`, indicator `Y` (with its label vector),
/// and the current view weights. Create with [`Umsc::init_solver_state`].
#[derive(Debug, Clone)]
pub struct SolverState {
    /// Spectral embedding `F` (`n × c`, orthonormal columns).
    pub f: Matrix,
    /// Spectral rotation `R` (`c × c`, orthogonal).
    pub r: Matrix,
    /// Discrete indicator `Y` (`n × c`, 0/1).
    pub y: Matrix,
    /// Labels matching `y` (row-wise argmax).
    pub labels: Vec<usize>,
    /// Unnormalized view weights `w_v`.
    pub weights: Vec<f64>,
}

/// Scalar outputs of one BCD sweep (see [`IterationStats`] for the
/// history-entry form, which additionally snapshots the weights).
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Total objective (embedding term + rotation term).
    pub objective: f64,
    /// Graph-fusion term of the objective.
    pub embedding_term: f64,
    /// Discretization alignment term `λ‖FR − Y_eff‖²`.
    pub rotation_term: f64,
}

/// The unified multi-view spectral clustering model.
#[derive(Debug, Clone)]
pub struct Umsc {
    config: UmscConfig,
}

impl Umsc {
    /// Creates a model with the given configuration.
    pub fn new(config: UmscConfig) -> Self {
        Umsc { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &UmscConfig {
        &self.config
    }

    /// Fits the model on a multi-view dataset: builds each view's CSR
    /// Laplacian from the configured metric and graph kind
    /// ([`build_view_laplacians_sparse`]), then calls
    /// [`Umsc::fit_laplacians_sparse`].
    pub fn fit(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        let laplacians = build_view_laplacians_sparse(data, &self.config.graph_config())?;
        self.fit_laplacians_sparse(&laplacians)
    }

    /// The same fit as [`Umsc::fit`], bit for bit.
    pub fn fit_auto(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        self.fit(data)
    }

    /// Fits the model on precomputed dense per-view Laplacians: each is
    /// compacted at its exact zeros, then fitted by
    /// [`Umsc::fit_laplacians_sparse`]. Dropping exact zeros moves no
    /// bit of any product, so this is the fit of the dense matrices.
    pub fn fit_laplacians(&self, laplacians: &[Matrix]) -> Result<UmscResult> {
        let compact: Vec<CsrMatrix> = laplacians.iter().map(compacted).collect();
        self.fit_laplacians_sparse(&compact)
    }

    /// Fits the model on precomputed CSR per-view Laplacians — the entry
    /// point every other fit ends in. Any symmetric Laplacian is accepted,
    /// normalized or not: the GPI shift is the Gershgorin bound of the
    /// fused matrix. A view that is not symmetric within
    /// `1e-8·max(max|L|, 1)` is an `InvalidInput` error, as is a
    /// non-finite entry.
    pub fn fit_laplacians_sparse(&self, laplacians: &[CsrMatrix]) -> Result<UmscResult> {
        let views = laplacians.iter().map(|l| {
            let symmetric = l.is_symmetric(1e-8 * l.max_abs().max(1.0));
            ((l.rows(), l.cols()), l.is_finite(), symmetric)
        });
        let n = engine::validate(&self.config, views, true)?;
        let uniform = vec![1.0 / laplacians.len() as f64; laplacians.len()];
        engine::fit(&self.config, &mut sparse_fused_operator(laplacians, &uniform), n)
    }

    /// Initializes the BCD state for [`Umsc::one_step_solve`]: the
    /// warm-started embedding (the re-weighted spectral embedding of the
    /// relaxed λ→0 problem) and the Yu–Shi rotation. `fused` (built with
    /// [`sparse_fused_operator`]) is left at the warm start's weights.
    ///
    /// Callers driving the solver manually must pass validated Laplacians
    /// (symmetric, equal sizes, `c ≤ n`) — [`Umsc::fit_laplacians_sparse`]
    /// performs that validation before dispatching here.
    pub fn init_solver_state(&self, fused: &mut FusedLaplacian<'_>) -> Result<SolverState> {
        engine::init_state(&self.config, fused)
    }

    /// Performs one full BCD sweep (w-, F-, R-, Y-step) in place, moving
    /// `fused` to the sweep's weights.
    ///
    /// All intermediates live in `ws`; after the first call (which sizes
    /// the buffers) the iteration body performs **zero heap allocations**
    /// — asserted by the counting-allocator test in `tests/alloc_free.rs`.
    /// [`Umsc::fit_laplacians_sparse`] drives exactly this sweep; stepping
    /// it manually yields the same iterates.
    pub fn one_step_solve(
        &self,
        fused: &mut FusedLaplacian<'_>,
        st: &mut SolverState,
        ws: &mut SolverWorkspace,
    ) -> Result<StepStats> {
        engine::sweep(&self.config, fused, st, ws)
    }
}

/// A dense Laplacian compacted at its exact zeros: how every dense door
/// enters the one CSR fit, moving no bit of any product.
pub(crate) fn compacted(l: &Matrix) -> CsrMatrix {
    CsrMatrix::from_dense(l.rows(), l.cols(), l.as_slice())
}

/// Yu–Shi initialization of the spectral rotation (Yu & Shi, *Multiclass
/// Spectral Clustering*, ICCV 2003): normalize the embedding rows onto the
/// unit sphere, greedily pick `c` rows that are maximally mutually
/// orthogonal (they sit near the `c` latent indicator directions), stack
/// them as columns, and project to the nearest orthogonal matrix.
///
/// Public because every rotation-based discretizer (here and in the AWP
/// baseline) needs it: raw argmax on a spectral embedding degenerates, as
/// the first Laplacian eigenvector is near-constant.
pub fn init_rotation(f: &Matrix) -> Result<Matrix> {
    let (n, c) = f.shape();
    debug_assert!(n >= c);
    // Unit-normalized rows (zero rows stay zero and are never picked first
    // unless everything is zero, in which case identity is returned).
    let mut rows = f.clone();
    let norms: Vec<f64> = (0..n).map(|i| umsc_linalg::ops::normalize(rows.row_mut(i))).collect();
    let first = norms
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let mut r = Matrix::zeros(c, c);
    r.set_col(0, rows.row(first));
    let mut score = vec![0.0f64; n];
    for k in 1..c {
        let prev = r.col(k - 1);
        for (i, sc) in score.iter_mut().enumerate() {
            *sc += umsc_linalg::ops::dot(rows.row(i), &prev).abs();
        }
        let pick = umsc_linalg::ops::argmin(&score).unwrap_or(0);
        r.set_col(k, rows.row(pick));
    }
    if r.frobenius_norm() == 0.0 {
        return Ok(Matrix::identity(c));
    }
    Ok(procrustes(&r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Discretization, GraphKind, Weighting};
    use umsc_data::shapes::{rings_multiview, two_moons_multiview};
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_metrics::clustering_accuracy;

    fn easy_gmm(seed: u64) -> MultiViewDataset {
        MultiViewGmm::new(
            "easy",
            3,
            25,
            vec![ViewSpec::clean(5), ViewSpec::clean(8), ViewSpec { signal: 0.9, ..ViewSpec::clean(6) }],
        )
        .generate(seed)
    }

    #[test]
    fn recovers_planted_clusters() {
        let data = easy_gmm(1);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.95, "ACC {acc}");
    }

    #[test]
    fn output_shapes_and_orthogonality() {
        let data = easy_gmm(2);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        assert_eq!(res.labels.len(), 75);
        assert_eq!(res.embedding.shape(), (75, 3));
        assert_eq!(res.rotation.shape(), (3, 3));
        assert_eq!(res.indicator.shape(), (75, 3));
        // F and R orthonormal.
        assert!(res.embedding.matmul_transpose_a(&res.embedding).approx_eq(&Matrix::identity(3), 1e-8));
        assert!(res.rotation.matmul_transpose_a(&res.rotation).approx_eq(&Matrix::identity(3), 1e-8));
        // Y is a valid indicator matching labels.
        for (i, &l) in res.labels.iter().enumerate() {
            let row = res.indicator.row(i);
            assert_eq!(row[l], 1.0);
            assert_eq!(row.iter().sum::<f64>(), 1.0);
        }
        // Weights normalized.
        let ws: f64 = res.view_weights.iter().sum();
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    fn objective_monotone_nonincreasing() {
        let data = easy_gmm(3);
        let res = Umsc::new(UmscConfig::new(3).with_max_iter(30)).fit(&data).unwrap();
        assert!(res.history.len() >= 2);
        for w in res.history.windows(2) {
            assert!(
                w[1].objective <= w[0].objective + 1e-6 * (1.0 + w[0].objective.abs()),
                "objective increased: {} -> {}",
                w[0].objective,
                w[1].objective
            );
        }
    }

    #[test]
    fn converges_quickly_on_easy_data() {
        let data = easy_gmm(4);
        let res = Umsc::new(UmscConfig::new(3).with_max_iter(50)).fit(&data).unwrap();
        assert!(res.converged, "did not converge in 50 iterations");
        assert!(res.history.len() <= 25, "took {} iterations", res.history.len());
    }

    #[test]
    fn nonlinear_shapes_need_the_graph() {
        // Two moons: K-means on raw coordinates fails; the unified spectral
        // method must succeed through the kernel graph.
        let data = two_moons_multiview(140, 0.06, 5);
        let res = Umsc::new(UmscConfig::new(2)).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn rings_with_adaptive_graph() {
        let data = rings_multiview(3, 50, 0.03, 6);
        let cfg = UmscConfig::new(3).with_graph(GraphKind::Adaptive { k: 8 });
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn noisy_view_gets_downweighted() {
        let mut data = easy_gmm(7);
        data.corrupt_view(2, 1.0, 99);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        let w = &res.view_weights;
        assert!(w[2] < w[0], "noise view weight {} not below clean {}", w[2], w[0]);
        assert!(w[2] < w[1]);
        // And clustering still works off the clean views.
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn uniform_and_fixed_weighting() {
        let data = easy_gmm(8);
        let res_u = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Uniform)).fit(&data).unwrap();
        assert!(res_u.view_weights.iter().all(|&w| (w - 1.0 / 3.0).abs() < 1e-12));
        let res_f = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![2.0, 1.0, 1.0])))
            .fit(&data)
            .unwrap();
        assert!((res_f.view_weights[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_stage_ablation_runs_and_is_reasonable() {
        let data = easy_gmm(10);
        let cfg = UmscConfig::new(3).with_discretization(Discretization::KMeans { restarts: 5 });
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "two-stage ACC {acc}");
        assert!(res.history.iter().all(|s| s.rotation_term == 0.0));
    }

    #[test]
    fn scaled_rotation_variant_runs() {
        let data = easy_gmm(11);
        let cfg = UmscConfig::new(3).with_discretization(Discretization::ScaledRotation);
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "scaled rotation ACC {acc}");
    }

    #[test]
    fn fit_and_fit_auto_agree_bit_for_bit() {
        let data = easy_gmm(16);
        for graph in [UmscConfig::new(3).graph, GraphKind::Adaptive { k: 8 }] {
            let model = Umsc::new(UmscConfig::new(3).with_graph(graph.clone()));
            let (a, b) = (model.fit(&data).unwrap(), model.fit_auto(&data).unwrap());
            assert_eq!(a.labels, b.labels, "{graph:?}: labels differ");
            let bits = |r: &UmscResult| r.history.iter().map(|h| h.objective.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{graph:?}: objectives differ");
            assert_eq!(a.embedding.as_slice(), b.embedding.as_slice(), "{graph:?}: embeddings differ");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = easy_gmm(13);
        let a = Umsc::new(UmscConfig::new(3).with_seed(5)).fit(&data).unwrap();
        let b = Umsc::new(UmscConfig::new(3).with_seed(5)).fit(&data).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn lambda_extremes_still_valid() {
        let data = easy_gmm(14);
        for lambda in [1e-4, 1e4] {
            let res = Umsc::new(UmscConfig::new(3).with_lambda(lambda)).fit(&data).unwrap();
            assert_eq!(res.labels.len(), data.n());
            // All clusters used (repair guarantees non-empty).
            for j in 0..3 {
                assert!(res.labels.contains(&j), "λ={lambda}: cluster {j} empty");
            }
        }
    }
}
