//! The three workloads: inputs generated from the seed, the public entry
//! point a user calls, and the same fit split into its layer calls for the
//! traced ledger.

use std::time::Instant;

use umsc_core::{
    build_view_laplacians, build_view_laplacians_sparse, pipeline::view_distances,
    sparse_fused_operator, AnchorUmsc, AnchorUmscConfig, GraphKind, Umsc, UmscConfig, UmscResult,
};
use umsc_data::{benchmark, BenchmarkId, MultiViewDataset, MultiViewGmm, ViewSpec};
use umsc_graph::{
    adaptive_neighbor_affinity, anchor_weights, knn_affinity, normalized_factor,
    normalized_laplacian, normalized_laplacian_sparse, select_anchors, CsrMatrix,
};
use umsc_linalg::Matrix;
use umsc_op::{DenseOp, DiagShift, LinOp, LowRankAnchor, WeightedSum};

/// GPI iterations per F-step of the anchor solver (fixed inside it).
const ANCHOR_GPI_CAP: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Handwritten mimic, default kNN config, CSR solver path.
    HandwrittenKnn,
    /// ORL mimic, CAN graph, dense solver path.
    OrlCan,
    /// 10 × 1000-point GMM, anchor solver with 200 anchors.
    GmmAnchor,
}

/// Per-view graphs as the solver consumes them.
pub enum Graphs {
    Sparse(Vec<CsrMatrix>),
    Dense(Vec<Matrix>),
    /// Normalized anchor factors `B_v`.
    Anchor(Vec<Matrix>),
}

/// Busy seconds of the graph layer's public functions, summed over views.
#[derive(Default)]
pub struct GraphPhases {
    pub distances_s: f64,
    pub knn_select_s: f64,
    pub can_s: f64,
    pub laplacian_s: f64,
    pub anchor_select_s: f64,
    pub anchor_weights_s: f64,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HandwrittenKnn,
        Workload::OrlCan,
        Workload::GmmAnchor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HandwrittenKnn => "handwritten-knn",
            Workload::OrlCan => "orl-can",
            Workload::GmmAnchor => "gmm-anchor",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// NMI a correct fit must reach: under the lowest single-dataset NMI
    /// seen on seeds 1-10 (handwritten-knn 0.89, orl-can 0.98, gmm-anchor
    /// 0.82) with room for other seeds, and far above the ~0 of labels
    /// unrelated to the data, so a fit under it is broken, not unlucky.
    pub fn nmi_floor(self) -> f64 {
        match self {
            Workload::HandwrittenKnn => 0.8,
            Workload::OrlCan => 0.9,
            Workload::GmmAnchor => 0.7,
        }
    }

    pub fn generate(self, seed: u64) -> MultiViewDataset {
        match self {
            Workload::HandwrittenKnn => benchmark(BenchmarkId::Handwritten, seed),
            Workload::OrlCan => benchmark(BenchmarkId::Orl, seed),
            Workload::GmmAnchor => {
                let view = |dim, signal| ViewSpec {
                    signal,
                    ..ViewSpec::clean(dim)
                };
                let mut gen = MultiViewGmm::new(
                    "gmm-anchor",
                    10,
                    1000,
                    vec![view(64, 0.9), view(32, 0.8), view(128, 0.7)],
                );
                gen.separation = 2.5;
                gen.generate(seed)
            }
        }
    }

    fn umsc(self, c: usize) -> Umsc {
        match self {
            Workload::OrlCan => {
                Umsc::new(UmscConfig::new(c).with_graph(GraphKind::Adaptive { k: 10 }))
            }
            _ => Umsc::new(UmscConfig::new(c)),
        }
    }

    fn anchor_config(c: usize) -> AnchorUmscConfig {
        AnchorUmscConfig::new(c).with_anchors(200)
    }

    /// The fit a user runs: features in, labels out, one public call.
    pub fn fit(self, data: &MultiViewDataset) -> umsc_core::Result<UmscResult> {
        let c = data.num_clusters;
        match self {
            Workload::GmmAnchor => AnchorUmsc::new(Self::anchor_config(c)).fit(data),
            _ => self.umsc(c).fit_auto(data),
        }
    }

    /// GPI iteration cap per F-step on this workload's solver path.
    pub fn gpi_cap(self, c: usize) -> usize {
        match self {
            Workload::GmmAnchor => ANCHOR_GPI_CAP,
            _ => self.umsc(c).config().gpi_max_iter,
        }
    }

    /// Builds the graphs exactly as [`Workload::fit`] does. The anchor
    /// path has no graph builder of its own, so its factors are built here
    /// from the graph layer's functions, timed into `phases`.
    pub fn build_graphs(self, data: &MultiViewDataset, phases: &mut GraphPhases) -> Graphs {
        let c = data.num_clusters;
        match self {
            Workload::HandwrittenKnn => Graphs::Sparse(
                build_view_laplacians_sparse(data, &self.umsc(c).config().graph_config())
                    .expect("generated data is valid"),
            ),
            Workload::OrlCan => Graphs::Dense(
                build_view_laplacians(data, &self.umsc(c).config().graph_config())
                    .expect("generated data is valid"),
            ),
            Workload::GmmAnchor => {
                let cfg = Self::anchor_config(c);
                let n = data.n();
                let m = cfg.anchors.min(n).max(1);
                let k = cfg.anchor_neighbors.min(m).max(1);
                let factors = data
                    .views
                    .iter()
                    .enumerate()
                    .map(|(v, x)| {
                        let anc = timed(&mut phases.anchor_select_s, || {
                            select_anchors(x, m, cfg.seed ^ ((v as u64) << 32))
                        });
                        let z = timed(&mut phases.anchor_weights_s, || anchor_weights(x, &anc, k));
                        timed(&mut phases.laplacian_s, || normalized_factor(&z))
                    })
                    .collect();
                Graphs::Anchor(factors)
            }
        }
    }

    /// The solver layer alone, on graphs from [`Workload::build_graphs`].
    pub fn solve(self, graphs: &Graphs, c: usize) -> umsc_core::Result<UmscResult> {
        match graphs {
            Graphs::Sparse(ls) => self.umsc(c).fit_laplacians_sparse(ls),
            Graphs::Dense(ls) => self.umsc(c).fit_laplacians(ls),
            Graphs::Anchor(bs) => AnchorUmsc::new(Self::anchor_config(c)).fit_factors(bs),
        }
    }

    /// Per-view graph sub-phases, one view and one public function at a
    /// time (the whole build runs views in parallel). The anchor path's
    /// sub-phases come from [`Workload::build_graphs`] instead.
    pub fn graph_phases(self, data: &MultiViewDataset, phases: &mut GraphPhases) {
        if self == Workload::GmmAnchor {
            return;
        }
        let cfg = self.umsc(data.num_clusters).config().graph_config();
        for x in &data.views {
            let d = timed(&mut phases.distances_s, || view_distances(x, cfg.metric));
            let k_max = d.rows().saturating_sub(1).max(1);
            match &cfg.kind {
                GraphKind::Knn { k, bandwidth } => {
                    let w = timed(&mut phases.knn_select_s, || {
                        knn_affinity(&d, (*k).min(k_max), bandwidth)
                    });
                    timed(&mut phases.laplacian_s, || normalized_laplacian_sparse(&w));
                }
                GraphKind::Adaptive { k } => {
                    let w = timed(&mut phases.can_s, || {
                        adaptive_neighbor_affinity(&d, (*k).min(k_max))
                    });
                    timed(&mut phases.laplacian_s, || normalized_laplacian(&w));
                }
                other => unreachable!("no workload builds {other:?} graphs"),
            }
        }
    }
}

impl Graphs {
    /// Stored nonzeros over all views: CSR entries, nonzero dense
    /// Laplacian entries, or nonzero anchor-factor entries.
    pub fn nnz(&self) -> u64 {
        let dense_nnz = |m: &Matrix| m.as_slice().iter().filter(|&&v| v != 0.0).count();
        let total: usize = match self {
            Graphs::Sparse(ls) => ls.iter().map(CsrMatrix::nnz).sum(),
            Graphs::Dense(ms) | Graphs::Anchor(ms) => ms.iter().map(dense_nnz).sum(),
        };
        total as u64
    }

    /// The fused operator the F-step applies, at the given view weights:
    /// `Σ w_v L_v` (CSR or dense) or the anchor path's `σI − Σ w_v B_v B_vᵀ`.
    /// `apply` receives it and whatever storage it borrows.
    pub fn with_fused_op<R>(&self, weights: &[f64], apply: impl FnOnce(&dyn LinOp) -> R) -> R {
        match self {
            Graphs::Sparse(ls) => apply(&sparse_fused_operator(ls, weights)),
            Graphs::Dense(ls) => {
                let n = ls[0].rows();
                let mut fused = Matrix::zeros(n, n);
                for (l, &w) in ls.iter().zip(weights) {
                    fused.axpy(w, l);
                }
                apply(&DenseOp::new(n, fused.as_slice()))
            }
            Graphs::Anchor(bs) => {
                let ops: Vec<LowRankAnchor<'_>> = bs
                    .iter()
                    .map(|b| LowRankAnchor::new(b.rows(), b.cols(), b.as_slice()))
                    .collect();
                let sigma = weights.iter().sum::<f64>() + 1e-9;
                apply(&DiagShift::new(
                    sigma,
                    WeightedSum::with_weights(ops, weights),
                ))
            }
        }
    }
}
