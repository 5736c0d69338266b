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
    adaptive_neighbor_affinity, cosine_distance_matrix, gaussian_affinity, neighbor_graph,
    normalized_laplacian, pairwise_sq_distances, CsrMatrix, Neighbors,
};
use umsc_linalg::{lanczos_smallest, LanczosConfig, Matrix, SymEigen};

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

/// The sparse graph a k-NN or ε kind describes, built straight from the
/// features by the streamed builder; `None` for the dense kinds.
fn sparse_view_affinity(x: &Matrix, cfg: &GraphConfig) -> Option<CsrMatrix> {
    let (neighbors, bandwidth) = match &cfg.kind {
        GraphKind::Knn { k, bandwidth } => {
            (Neighbors::Knn((*k).min(x.rows().saturating_sub(1)).max(1)), bandwidth)
        }
        GraphKind::Epsilon { epsilon, bandwidth } => (Neighbors::Epsilon(*epsilon), bandwidth),
        GraphKind::Dense(_) | GraphKind::Adaptive { .. } => return None,
    };
    Some(neighbor_graph(x, cfg.metric, neighbors, bandwidth))
}

/// Affinity matrix for one view.
pub fn view_affinity(x: &Matrix, cfg: &GraphConfig) -> Matrix {
    if let Some(w) = sparse_view_affinity(x, cfg) {
        return w.to_dense();
    }
    let d = view_distances(x, cfg.metric);
    match &cfg.kind {
        GraphKind::Dense(bw) => gaussian_affinity(&d, bw),
        GraphKind::Adaptive { k } => {
            let k = (*k).min(d.rows().saturating_sub(1)).max(1);
            let _span = umsc_obs::span!("graph.can");
            adaptive_neighbor_affinity(&d, k)
        }
        GraphKind::Knn { .. } | GraphKind::Epsilon { .. } => unreachable!("built sparse above"),
    }
}

/// Builds the symmetric-normalized Laplacian of every view.
///
/// Validates the dataset first; all solver entry points funnel through
/// here. Views are independent, so on multi-core machines they are built
/// on scoped threads (one per view, capped by the available parallelism);
/// the output order — and therefore every downstream number — is identical
/// to the sequential path.
pub fn build_view_laplacians(data: &MultiViewDataset, cfg: &GraphConfig) -> Result<Vec<Matrix>> {
    data.validate().map_err(UmscError::InvalidInput)?;
    if data.n() < 2 {
        return Err(UmscError::InvalidInput(format!("need at least 2 points, got {}", data.n())));
    }
    let _span = umsc_obs::span!("graph.build");
    Ok(build_laplacians_threaded(&data.views, cfg))
}

/// Builds **sparse** (CSR) symmetric-normalized Laplacians per view, for
/// [`crate::Umsc::fit_laplacians_sparse`]. k-NN and ε-ball graphs are
/// streamed from the features and never form an `n × n` matrix;
/// dense/CAN graphs are built densely and converted (entries below
/// `1e-12` dropped), which preserves semantics but not the memory
/// advantage — prefer the sparse graph kinds at scale.
pub fn build_view_laplacians_sparse(
    data: &MultiViewDataset,
    cfg: &GraphConfig,
) -> Result<Vec<CsrMatrix>> {
    data.validate().map_err(UmscError::InvalidInput)?;
    if data.n() < 2 {
        return Err(UmscError::InvalidInput(format!("need at least 2 points, got {}", data.n())));
    }
    let _span = umsc_obs::span!("graph.build");
    Ok(umsc_rt::par::parallel_map(&data.views, |_, x| {
        let w = sparse_view_affinity(x, cfg)
            .unwrap_or_else(|| CsrMatrix::from_dense(&view_affinity(x, cfg), 1e-12));
        let _span = umsc_obs::span!("graph.laplacian");
        umsc_graph::normalized_laplacian_sparse(&w)
    }))
}

/// Per-view Laplacian construction on up to `umsc_rt::par::max_threads()`
/// threads (views are independent; output order — and therefore every
/// downstream number — is identical to a sequential loop).
pub fn build_laplacians_threaded(views: &[Matrix], cfg: &GraphConfig) -> Vec<Matrix> {
    build_laplacians_threaded_with(umsc_rt::par::max_threads(), views, cfg)
}

/// [`build_laplacians_threaded`] with an explicit thread count — used by
/// the determinism test (forcing parallelism on single-core machines) and
/// the speedup bench.
pub fn build_laplacians_threaded_with(threads: usize, views: &[Matrix], cfg: &GraphConfig) -> Vec<Matrix> {
    umsc_rt::par::parallel_map_with(threads, views, |_, x| {
        let w = view_affinity(x, cfg);
        let _span = umsc_obs::span!("graph.laplacian");
        normalized_laplacian(&w)
    })
}

/// Dimension threshold above which the spectral embedding switches from
/// the dense eigensolver to Lanczos.
const LANCZOS_THRESHOLD: usize = 600;

/// `k` smallest eigenvectors of a symmetric (Laplacian-like) matrix,
/// choosing the dense or iterative solver by problem size.
pub fn spectral_embedding(l: &Matrix, k: usize, seed: u64) -> Result<Matrix> {
    spectral_embedding_with_values(l, k, seed).map(|(_, vecs)| vecs)
}

/// Like [`spectral_embedding`] but also returns the `k` smallest
/// eigenvalues (ascending) — used e.g. for eigengap-based view selection.
pub fn spectral_embedding_with_values(l: &Matrix, k: usize, seed: u64) -> Result<(Vec<f64>, Matrix)> {
    let _span = umsc_obs::span!("spectral.embedding");
    let n = l.rows();
    if k > n {
        return Err(UmscError::InvalidInput(format!("requested {k} eigenvectors of an {n}-dim Laplacian")));
    }
    if n <= LANCZOS_THRESHOLD {
        let eig = SymEigen::compute_unchecked(l)?;
        Ok((eig.eigenvalues[..k].to_vec(), eig.smallest(k)))
    } else {
        let cfg = LanczosConfig { seed, initial_subspace: (2 * k + 20).min(n), ..Default::default() };
        let (vals, vecs) = lanczos_smallest(l, k, &cfg)?;
        Ok((vals, vecs))
    }
}

/// Estimates the number of clusters by the **eigengap heuristic** on the
/// fused (average) normalized Laplacian: the `k ∈ candidates` maximizing
/// `λ_{k+1} − λ_k`.
///
/// Returns the chosen `k` and the full `(k, gap)` diagnostic list so
/// callers can inspect how decisive the choice was.
pub fn estimate_num_clusters(
    data: &MultiViewDataset,
    cfg: &GraphConfig,
    candidates: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Result<(usize, Vec<(usize, f64)>)> {
    let laplacians = build_view_laplacians(data, cfg)?;
    let n = data.n();
    let lo = (*candidates.start()).max(1);
    let hi = (*candidates.end()).min(n.saturating_sub(1));
    if lo > hi {
        return Err(UmscError::InvalidInput(format!("empty candidate range {lo}..={hi} for n = {n}")));
    }
    let mut fused = Matrix::zeros(n, n);
    for l in &laplacians {
        fused.axpy(1.0 / laplacians.len() as f64, l);
    }
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
    fn embedding_solvers_agree_across_threshold() {
        // Same Laplacian, dense vs Lanczos path must span the same subspace.
        let data = two_moons_multiview(60, 0.06, 3);
        let ls = build_view_laplacians(&data, &GraphConfig::default()).unwrap();
        let dense = spectral_embedding(&ls[0], 2, 0).unwrap();
        let cfg = LanczosConfig::default();
        let (_, iter) = lanczos_smallest(&ls[0], 2, &cfg).unwrap();
        // Subspace agreement: projector difference small.
        let p1 = dense.matmul_transpose_b(&dense);
        let p2 = iter.matmul_transpose_b(&iter);
        assert!((&p1 - &p2).frobenius_norm() < 1e-5, "{}", (&p1 - &p2).frobenius_norm());
    }

    #[test]
    fn embedding_too_many_vectors_rejected() {
        let l = Matrix::identity(3);
        assert!(spectral_embedding(&l, 4, 0).is_err());
    }

    #[test]
    fn sparse_laplacians_match_dense_for_sparse_kinds() {
        let data = two_moons_multiview(40, 0.05, 9);
        let cfg = GraphConfig::default(); // kNN
        let dense = build_view_laplacians(&data, &cfg).unwrap();
        let sparse = build_view_laplacians_sparse(&data, &cfg).unwrap();
        for (a, b) in dense.iter().zip(sparse.iter()) {
            assert!(b.to_dense().approx_eq(a, 1e-12));
        }
        // Dense kind converts without error.
        let cfg = GraphConfig { kind: GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance), metric: Metric::Euclidean };
        let sparse = build_view_laplacians_sparse(&data, &cfg).unwrap();
        assert_eq!(sparse.len(), 3);
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
        // plus the implicit path.
        for threaded in [
            build_laplacians_threaded_with(4, &data.views, &cfg),
            build_laplacians_threaded(&data.views, &cfg),
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
