//! Shared pipeline stages: dataset → per-view graphs → Laplacians →
//! spectral embedding.
//!
//! Both the unified solver and every baseline consume these, so method
//! comparisons differ only in the algorithm, never in graph construction.

use crate::config::GraphKind;
use crate::error::UmscError;
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_graph::{
    cosine_distance_matrix, gaussian_affinity, neighbor_graph, normalized_laplacian,
    normalized_laplacian_sparse, pairwise_sq_distances, CsrMatrix, Neighbors,
};
use umsc_linalg::{lanczos_smallest, LanczosConfig, LinOp, Matrix};

pub use umsc_graph::Metric;

/// Graph construction configuration: metric + graph kind.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Which graph to build.
    pub kind: GraphKind,
    /// Which distances feed it.
    pub metric: Metric,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            kind: GraphKind::Knn { k: 10, bandwidth: umsc_graph::Bandwidth::SelfTuning { k: 7 } },
            metric: Metric::Euclidean,
        }
    }
}

/// Distance matrix for one view under the configured metric.
///
/// Cosine distances are squared entrywise so the Gaussian kernel treats
/// both metrics on the same `exp(−d²/σ²)` footing.
pub fn view_distances(x: &Matrix, metric: Metric) -> Matrix {
    let _span = umsc_obs::span!("graph.distances");
    match metric {
        Metric::Euclidean => pairwise_sq_distances(x),
        Metric::Cosine => {
            let mut d = cosine_distance_matrix(x);
            d.map_mut(|v| v * v);
            d
        }
    }
}

/// The sparse graph a k-NN, ε or CAN kind describes, built straight from
/// the features by the streamed builder ([`neighbor_graph`]); `None` for
/// the dense Gaussian kind.
fn sparse_view_affinity(x: &Matrix, cfg: &GraphConfig) -> Option<CsrMatrix> {
    let clamp = |k: usize| k.min(x.rows().saturating_sub(1)).max(1);
    let neighbors = match cfg.kind {
        GraphKind::Knn { k, bandwidth } => Neighbors::Knn { k: clamp(k), bandwidth },
        GraphKind::Epsilon { epsilon, bandwidth } => Neighbors::Epsilon { epsilon, bandwidth },
        GraphKind::Adaptive { k } => Neighbors::Adaptive { k: clamp(k) },
        GraphKind::Dense(_) => return None,
    };
    Some(neighbor_graph(x, cfg.metric, neighbors))
}

/// Affinity matrix for one view: the dense Gaussian, or the streamed
/// k-NN, ε or CAN graph densified.
pub fn view_affinity(x: &Matrix, cfg: &GraphConfig) -> Matrix {
    if let GraphKind::Dense(bw) = &cfg.kind {
        return gaussian_affinity(&view_distances(x, cfg.metric), bw);
    }
    let w = sparse_view_affinity(x, cfg).expect("every other kind is streamed");
    Matrix::from_vec(w.rows(), w.cols(), w.to_dense())
}

/// Checks a dataset before any graph is built from it.
fn check_dataset(data: &MultiViewDataset) -> Result<()> {
    data.validate().map_err(UmscError::InvalidInput)?;
    if data.n() < 2 {
        return Err(UmscError::InvalidInput(format!("need at least 2 points, got {}", data.n())));
    }
    Ok(())
}

/// Builds the dense symmetric-normalized Laplacian of every view (the
/// baselines' graphs; [`crate::Umsc`] fits take
/// [`build_view_laplacians_sparse`]).
///
/// Validates the dataset first. Views are built in parallel past the flop
/// gate, each whole on one thread; the output order — and therefore every
/// downstream number — is identical to the sequential path.
pub fn build_view_laplacians(data: &MultiViewDataset, cfg: &GraphConfig) -> Result<Vec<Matrix>> {
    check_dataset(data)?;
    let _span = umsc_obs::span!("graph.build");
    Ok(map_views(&data.views, |x| {
        let w = view_affinity(x, cfg);
        let _span = umsc_obs::span!("graph.laplacian");
        normalized_laplacian(&w)
    }))
}

/// Builds **sparse** (CSR) symmetric-normalized Laplacians per view — the
/// graphs of every [`crate::Umsc::fit`]. k-NN, ε and CAN graphs are
/// streamed from the features and never form an `n × n` matrix; only the
/// dense Gaussian kind builds the dense [`normalized_laplacian`] and
/// compacts it at its exact zeros. Both Laplacians share one formula, so
/// these are the bits of [`build_view_laplacians`] for every kind.
pub fn build_view_laplacians_sparse(
    data: &MultiViewDataset,
    cfg: &GraphConfig,
) -> Result<Vec<CsrMatrix>> {
    check_dataset(data)?;
    let _span = umsc_obs::span!("graph.build");
    Ok(map_views(&data.views, |x| match sparse_view_affinity(x, cfg) {
        Some(w) => {
            let _span = umsc_obs::span!("graph.laplacian");
            normalized_laplacian_sparse(&w)
        }
        None => {
            let w = view_affinity(x, cfg);
            let _span = umsc_obs::span!("graph.laplacian");
            crate::solver::compacted(&normalized_laplacian(&w))
        }
    }))
}

/// `f` over the views, in view order, threaded past the flop gate on the
/// Gram tiles' `Σ_v n·n·d_v`. Each view's graph is built whole by one
/// thread; a graph built inside a worker runs inline, so a view map never
/// has more threads working than its own.
fn map_views<U: Send>(views: &[Matrix], f: impl Fn(&Matrix) -> U + Sync) -> Vec<U> {
    let flops = views.iter().map(|x| x.rows() * x.rows() * x.cols()).sum();
    umsc_rt::par::parallel_map_with(umsc_rt::par::threads_for(flops), views, |_, x| f(x))
}

/// `k` smallest eigenvectors of a symmetric (Laplacian-like) operator.
pub fn spectral_embedding(l: &dyn LinOp, k: usize, seed: u64) -> Result<Matrix> {
    spectral_embedding_with_values(l, k, seed).map(|(_, vecs)| vecs)
}

/// Like [`spectral_embedding`] but also returns the `k` smallest
/// eigenvalues (ascending) — used e.g. for eigengap-based view selection.
///
/// Scalar Lanczos with a start subspace of `2k + 20`, at every size and
/// on every operator; every copy of a repeated eigenvalue (one per
/// connected component for the eigenvalue 0) is returned.
pub fn spectral_embedding_with_values(l: &dyn LinOp, k: usize, seed: u64) -> Result<(Vec<f64>, Matrix)> {
    let _span = umsc_obs::span!("spectral.embedding");
    let n = l.dim();
    if k == 0 || k > n {
        return Err(UmscError::InvalidInput(format!("requested {k} eigenvectors of an {n}-dim Laplacian")));
    }
    let cfg = LanczosConfig { seed, initial_subspace: (2 * k + 20).min(n), ..Default::default() };
    Ok(lanczos_smallest(l, k, &cfg)?)
}

/// Estimates the number of clusters by the **eigengap heuristic** on the
/// fused (average) normalized Laplacian — [`crate::sparse_fused_operator`]
/// at uniform weights over [`build_view_laplacians_sparse`]: the
/// `k ∈ candidates` maximizing `λ_{k+1} − λ_k`.
///
/// Returns the chosen `k` and the full `(k, gap)` diagnostic list so
/// callers can inspect how decisive the choice was.
pub fn estimate_num_clusters(
    data: &MultiViewDataset,
    cfg: &GraphConfig,
    candidates: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Result<(usize, Vec<(usize, f64)>)> {
    let laplacians = build_view_laplacians_sparse(data, cfg)?;
    let n = data.n();
    let lo = (*candidates.start()).max(1);
    let hi = (*candidates.end()).min(n.saturating_sub(1));
    if lo > hi {
        return Err(UmscError::InvalidInput(format!("empty candidate range {lo}..={hi} for n = {n}")));
    }
    let fused = crate::sparse_fused_operator(&laplacians, &vec![1.0 / laplacians.len() as f64; laplacians.len()]);
    let (vals, _) = spectral_embedding_with_values(&fused, (hi + 1).min(n), seed)?;
    let gaps: Vec<(usize, f64)> = (lo..=hi)
        .filter(|&k| k < vals.len())
        .map(|k| (k, vals[k] - vals[k - 1]))
        .collect();
    let best = gaps
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|&(k, _)| k)
        .unwrap_or(lo);
    Ok((best, gaps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_data::shapes::two_moons_multiview;
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_linalg::SymEigen;

    #[test]
    fn laplacians_one_per_view() {
        let data = two_moons_multiview(40, 0.05, 0);
        let ls = build_view_laplacians(&data, &GraphConfig::default()).unwrap();
        assert_eq!(ls.len(), 3);
        for l in &ls {
            assert_eq!(l.shape(), (40, 40));
            assert!(l.is_symmetric(1e-12));
        }
    }

    #[test]
    fn invalid_dataset_rejected() {
        let mut data = two_moons_multiview(10, 0.05, 0);
        data.labels.pop();
        match build_view_laplacians(&data, &GraphConfig::default()) {
            Err(UmscError::InvalidInput(msg)) => assert!(msg.contains("rows"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn single_point_rejected() {
        let data = MultiViewDataset {
            name: "one".into(),
            views: vec![Matrix::from_rows(&[vec![1.0]])],
            labels: vec![0],
            num_clusters: 1,
        };
        assert!(build_view_laplacians(&data, &GraphConfig::default()).is_err());
    }

    #[test]
    fn graph_kinds_all_work() {
        let data = MultiViewGmm::new("g", 2, 15, vec![ViewSpec::clean(3)]).generate(1);
        for kind in [
            GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance),
            GraphKind::Knn { k: 5, bandwidth: umsc_graph::Bandwidth::SelfTuning { k: 5 } },
            GraphKind::Adaptive { k: 5 },
            GraphKind::Epsilon { epsilon: 1e6, bandwidth: umsc_graph::Bandwidth::MeanDistance },
        ] {
            let cfg = GraphConfig { kind, metric: Metric::Euclidean };
            let ls = build_view_laplacians(&data, &cfg).unwrap();
            assert_eq!(ls.len(), 1);
            let eig = SymEigen::compute(&ls[0]).unwrap();
            assert!(eig.eigenvalues[0] > -1e-9, "Laplacian not PSD");
        }
    }

    #[test]
    fn cosine_metric_for_text() {
        let data = MultiViewGmm::new(
            "t",
            2,
            12,
            vec![ViewSpec { kind: umsc_data::ViewKind::Text, ..ViewSpec::clean(40) }],
        )
        .generate(2);
        let cfg = GraphConfig { kind: GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance), metric: Metric::Cosine };
        let ls = build_view_laplacians(&data, &cfg).unwrap();
        assert!(ls[0].as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn embedding_keeps_every_copy_of_a_repeated_zero_eigenvalue() {
        // Three connected components (paths of 30, 40 and 50 nodes): the
        // Laplacian's eigenvalue 0 has multiplicity 3, one copy per
        // component, and the embedding must return all three.
        let sizes = [30, 40, 50];
        let n: usize = sizes.iter().sum();
        let mut l = Matrix::zeros(n, n);
        let mut start = 0;
        for &size in &sizes {
            for i in start..start + size - 1 {
                l[(i, i)] += 1.0;
                l[(i + 1, i + 1)] += 1.0;
                l[(i, i + 1)] = -1.0;
                l[(i + 1, i)] = -1.0;
            }
            start += size;
        }
        let (vals, vecs) = spectral_embedding_with_values(&l, 3, 0).unwrap();
        assert_eq!(vecs.shape(), (n, 3));
        assert!(vals.iter().all(|&v| v.abs() < 1e-10), "{vals:?}");
    }

    #[test]
    fn embedding_too_many_vectors_rejected() {
        let l = Matrix::identity(3);
        assert!(spectral_embedding(&l, 4, 0).is_err());
    }

    #[test]
    fn embedding_of_zero_vectors_rejected() {
        let l = Matrix::identity(3);
        for result in [spectral_embedding(&l, 0, 0), spectral_embedding_with_values(&l, 0, 0).map(|(_, v)| v)] {
            match result {
                Err(UmscError::InvalidInput(msg)) => assert!(msg.contains("requested 0"), "{msg}"),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_laplacians_match_dense_for_sparse_kinds() {
        // One Laplacian formula: the CSR build of every kind holds the
        // dense build's values entry for entry (a dense −0.0 off the
        // pattern compares equal to the CSR's absent entry).
        let data = two_moons_multiview(40, 0.05, 9);
        for kind in [
            GraphConfig::default().kind, // kNN
            GraphKind::Epsilon { epsilon: 0.6, bandwidth: umsc_graph::Bandwidth::MeanDistance },
            GraphKind::Adaptive { k: 6 },
            GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance),
        ] {
            let cfg = GraphConfig { kind, metric: Metric::Euclidean };
            let dense = build_view_laplacians(&data, &cfg).unwrap();
            let sparse = build_view_laplacians_sparse(&data, &cfg).unwrap();
            for (a, b) in dense.iter().zip(sparse.iter()) {
                assert!(b.nnz() > 40, "{:?}: no edges", cfg.kind);
                assert_eq!(b.to_dense().as_slice(), a.as_slice(), "{:?}", cfg.kind);
            }
        }
    }

    #[test]
    fn threaded_laplacians_match_sequential_exactly() {
        let data = two_moons_multiview(50, 0.05, 4);
        let cfg = GraphConfig::default();
        let sequential: Vec<Matrix> = data
            .views
            .iter()
            .map(|x| umsc_graph::normalized_laplacian(&view_affinity(x, &cfg)))
            .collect();
        // Force real parallelism (more threads than this machine may have),
        // plus the gated path.
        for threaded in [
            umsc_rt::par::with_threads(4, || build_view_laplacians(&data, &cfg)).unwrap(),
            build_view_laplacians(&data, &cfg).unwrap(),
        ] {
            assert_eq!(sequential.len(), threaded.len());
            for (a, b) in sequential.iter().zip(threaded.iter()) {
                assert!(a.approx_eq(b, 0.0), "threaded graph differs bit-for-bit");
            }
        }
    }

    #[test]
    fn eigengap_estimates_planted_cluster_count() {
        let mut gen = MultiViewGmm::new("est", 4, 20, vec![ViewSpec::clean(6), ViewSpec::clean(8)]);
        gen.separation = 7.0;
        let data = gen.generate(5);
        let (k, gaps) = estimate_num_clusters(&data, &GraphConfig::default(), 2..=8, 0).unwrap();
        assert_eq!(k, 4, "gaps: {gaps:?}");
        // Diagnostics cover the requested range.
        assert_eq!(gaps.first().unwrap().0, 2);
        assert_eq!(gaps.last().unwrap().0, 8);
    }

    #[test]
    fn eigengap_rejects_empty_range() {
        let data = MultiViewGmm::new("e", 2, 3, vec![ViewSpec::clean(2)]).generate(0);
        assert!(estimate_num_clusters(&data, &GraphConfig::default(), 9..=20, 0).is_err());
    }
}
