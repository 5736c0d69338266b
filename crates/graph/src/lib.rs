//! # umsc-graph
//!
//! Similarity-graph construction and graph Laplacians — the substrate every
//! spectral clustering method in this workspace stands on.
//!
//! * [`CsrMatrix`] — compressed sparse row matrix with `spmv`, dense
//!   bridging, and a [`umsc_op::LinOp`] impl (see `CsrMatrix::as_op`) so
//!   Lanczos and the matrix-free GPI run on sparse Laplacians directly.
//! * [`distance`] — pairwise squared-Euclidean / cosine distance matrices,
//!   filled from upper-triangular Gram tiles.
//! * [`stream`] — the k-NN / ε graph builder that streams those tiles
//!   through bounded per-row top-k selectors into CSR, never holding an
//!   `n × n` matrix.
//! * [`affinity`] — Gaussian (RBF) affinities with global or self-tuning
//!   (Zelnik-Manor & Perona) bandwidths, dense or k-NN–sparsified.
//! * [`can`] — CAN adaptive-neighbor graphs (Nie et al. 2014): closed-form
//!   simplex-projected neighbor weights, the parameter-light alternative the
//!   paper family favours.
//! * [`laplacian`] — unnormalized / symmetric-normalized / random-walk
//!   Laplacians, dense and sparse.
//! * [`components`] — connected components (sanity checks; a graph with
//!   more components than clusters makes the embedding degenerate).

pub mod affinity;
pub mod anchor;
pub mod can;
pub mod components;
pub mod distance;
pub mod laplacian;
pub mod sparse;
pub mod stream;

pub use affinity::{
    build_affinity, epsilon_affinity, gaussian_affinity, knn_affinity, AffinityConfig, Bandwidth,
};
pub use anchor::{anchor_view_factor, anchor_weights, normalized_factor, select_anchors};
pub use can::adaptive_neighbor_affinity;
pub use components::{connected_components, connected_components_sparse, num_components};
pub use distance::{
    cosine_distance_matrix, cosine_distance_matrix_with_threads, pairwise_sq_distances,
    pairwise_sq_distances_with_threads, Metric, TILE_ROWS,
};
pub use laplacian::{
    degrees, normalized_laplacian, normalized_laplacian_sparse, random_walk_laplacian,
    unnormalized_laplacian,
};
pub use sparse::CsrMatrix;
pub use stream::{neighbor_graph, neighbor_graph_with_threads, Neighbors};
