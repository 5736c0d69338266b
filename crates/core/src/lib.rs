//! # umsc-core
//!
//! **Unified one-stage multi-view spectral clustering** — a Rust
//! reproduction of Zhong & Pun, *"A Unified Framework for Multi-view
//! Spectral Clustering"*, ICDE 2020.
//!
//! Classical multi-view spectral clustering runs in two separate stages:
//! learn a shared continuous spectral embedding `F` from all views, then
//! discretize it with K-means. The relaxation gap between the two stages —
//! and K-means' sensitivity to initialization — costs accuracy and
//! stability. This crate implements the paper's one-stage alternative: the
//! **discrete cluster indicator matrix `Y` is learned jointly** with the
//! embedding, so clustering results are read directly off `Y` and no
//! K-means runs at all.
//!
//! The objective (DESIGN.md §1.2):
//!
//! ```text
//! min_{F, R, Y, w}  Σ_v w_v·tr(Fᵀ L̃⁽ᵛ⁾ F)  +  λ·‖F R − Y‖²_F
//! s.t. FᵀF = I,  RᵀR = I,  Y ∈ Ind(n,c),
//!      w_v = 1/(2·√tr(Fᵀ L̃⁽ᵛ⁾ F))   (parameter-free auto-weighting)
//! ```
//!
//! solved by block coordinate descent: a Generalized Power Iteration
//! Stiefel solver for `F` ([`gpi`]), orthogonal Procrustes for the spectral
//! rotation `R`, exact row-wise `argmax` for `Y`, and closed-form
//! re-weighting for `w`. The joint objective
//! `Σ_v √tr(Fᵀ L̃⁽ᵛ⁾ F) + λ‖FR−Y‖²` is monotonically non-increasing (a
//! property the tests assert).
//!
//! # Quick start
//!
//! ```
//! use umsc_core::{Umsc, UmscConfig};
//! use umsc_data::shapes::two_moons_multiview;
//!
//! let data = two_moons_multiview(120, 0.08, 42);
//! let result = Umsc::new(UmscConfig::new(2)).fit(&data).unwrap();
//! assert_eq!(result.labels.len(), 120);
//! assert_eq!(result.view_weights.len(), 3);
//! ```

pub mod anchor;
pub mod config;
mod engine;
pub mod error;
pub mod gpi;
pub mod indicator;
pub mod pipeline;
pub mod solver;
pub mod sparse_solver;
pub mod workspace;

pub use anchor::{
    anchor_fused_operator, AnchorAssigner, AnchorLaplacian, AnchorModel, AnchorUmsc, AnchorUmscConfig,
};
pub use config::{Discretization, GraphKind, UmscConfig, Weighting};
pub use error::UmscError;
pub use gpi::{gpi_stiefel_op_ws, GpiWorkspace};
pub use indicator::{indicator_to_labels, labels_to_indicator, scaled_indicator};
pub use pipeline::{
    build_view_laplacians, build_view_laplacians_sparse, estimate_num_clusters,
    spectral_embedding, spectral_embedding_with_values, GraphConfig, Metric,
};
pub use solver::{init_rotation, IterationStats, SolverState, StepStats, Umsc, UmscResult};
pub use sparse_solver::{sparse_fused_operator, FusedLaplacian};
pub use workspace::SolverWorkspace;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, UmscError>;
