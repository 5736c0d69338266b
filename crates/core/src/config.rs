//! Model configuration (builder style).

use crate::pipeline::{GraphConfig, Metric};
use umsc_graph::Bandwidth;

/// How the continuous embedding becomes discrete labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Discretization {
    /// **The paper's one-stage scheme**: learn `Y` jointly via spectral
    /// rotation; labels are the argmax rows of `Y`. No K-means anywhere.
    Rotation,
    /// One-stage with the *scaled* indicator `Y(YᵀY)^{-1/2}` inside the
    /// rotation term (improved spectral rotation; objective is no longer
    /// guaranteed monotone, sometimes slightly better on unbalanced data).
    ScaledRotation,
    /// Two-stage ablation: ignore `R`/`Y` during embedding learning and run
    /// K-means on the rows of `F` afterwards — the classical pipeline the
    /// paper argues against. Kept for the ablation experiment A1.
    KMeans {
        /// K-means restarts.
        restarts: usize,
    },
}

/// How view weights are determined.
#[derive(Debug, Clone, PartialEq)]
pub enum Weighting {
    /// Parameter-free auto-weighting `w_v = 1/(2√tr(FᵀL⁽ᵛ⁾F))` (paper).
    Auto,
    /// All views weighted equally (ablation).
    Uniform,
    /// Caller-fixed weights, normalized to sum 1 internally.
    Fixed(Vec<f64>),
}

/// Which graph is built per view.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphKind {
    /// Dense Gaussian affinity with the given bandwidth policy.
    Dense(Bandwidth),
    /// k-NN–sparsified Gaussian affinity.
    Knn {
        /// Neighbours kept per node.
        k: usize,
        /// Kernel bandwidth policy.
        bandwidth: Bandwidth,
    },
    /// CAN adaptive-neighbor graph (closed-form simplex weights).
    Adaptive {
        /// Neighbours kept per node.
        k: usize,
    },
}

/// Full configuration of the unified model.
#[derive(Debug, Clone)]
pub struct UmscConfig {
    /// Number of clusters `c`.
    pub num_clusters: usize,
    /// Trade-off between graph fusion and discretization alignment (λ);
    /// a fit rejects a negative or non-finite λ.
    pub lambda: f64,
    /// Discretization scheme.
    pub discretization: Discretization,
    /// View-weighting scheme.
    pub weighting: Weighting,
    /// Per-view graph construction.
    pub graph: GraphKind,
    /// Distance metric fed to the graph builder.
    pub metric: Metric,
    /// Outer BCD iteration cap (at least 1).
    pub max_iter: usize,
    /// Relative objective-change stopping tolerance.
    pub tol: f64,
    /// Inner GPI iteration cap (F-step).
    pub gpi_max_iter: usize,
    /// Seed for anything stochastic (K-means ablation; Lanczos start).
    pub seed: u64,
}

impl UmscConfig {
    /// Paper defaults for `c` clusters: λ=1, rotation discretization,
    /// auto-weighting, and [`GraphConfig::default`]'s graph (k-NN
    /// self-tuning Gaussian, k = 10, Euclidean).
    ///
    /// The k-NN graph matters: rotation-based discretization assumes the
    /// embedding's cluster directions are near-orthogonal, which holds for
    /// (near) block-diagonal affinities. Dense Gaussian graphs leak mass
    /// between clusters and can break that assumption — this literature
    /// uses k-NN or adaptive (CAN) graphs throughout.
    pub fn new(num_clusters: usize) -> Self {
        let GraphConfig { kind: graph, metric } = GraphConfig::default();
        UmscConfig {
            num_clusters,
            lambda: 1.0,
            discretization: Discretization::Rotation,
            weighting: Weighting::Auto,
            graph,
            metric,
            max_iter: 50,
            tol: 1e-6,
            gpi_max_iter: 40,
            seed: 0,
        }
    }

    /// Sets λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the discretization scheme.
    pub fn with_discretization(mut self, d: Discretization) -> Self {
        self.discretization = d;
        self
    }

    /// Sets the weighting scheme.
    pub fn with_weighting(mut self, w: Weighting) -> Self {
        self.weighting = w;
        self
    }

    /// Sets the per-view graph construction.
    pub fn with_graph(mut self, g: GraphKind) -> Self {
        self.graph = g;
        self
    }

    /// Sets the distance metric.
    pub fn with_metric(mut self, m: Metric) -> Self {
        self.metric = m;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iter(mut self, n: usize) -> Self {
        self.max_iter = n;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The graph config consumed by the pipeline stage.
    pub fn graph_config(&self) -> GraphConfig {
        GraphConfig { kind: self.graph.clone(), metric: self.metric }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = UmscConfig::new(4)
            .with_lambda(0.5)
            .with_discretization(Discretization::ScaledRotation)
            .with_weighting(Weighting::Uniform)
            .with_graph(GraphKind::Adaptive { k: 9 })
            .with_metric(Metric::Cosine)
            .with_max_iter(10)
            .with_seed(3);
        assert_eq!(c.num_clusters, 4);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.discretization, Discretization::ScaledRotation);
        assert_eq!(c.weighting, Weighting::Uniform);
        assert_eq!(c.graph, GraphKind::Adaptive { k: 9 });
        assert_eq!(c.max_iter, 10);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn defaults_match_paper() {
        let c = UmscConfig::new(3);
        assert_eq!(c.discretization, Discretization::Rotation);
        assert_eq!(c.weighting, Weighting::Auto);
        assert_eq!(c.lambda, 1.0);
        assert!(matches!(c.graph, GraphKind::Knn { k: 10, bandwidth: Bandwidth::SelfTuning { k: 7 } }));
        assert_eq!(c.metric, Metric::Euclidean);
    }
}
