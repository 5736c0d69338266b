//! # umsc-graph
//!
//! Similarity-graph construction and graph Laplacians — the substrate every
//! spectral clustering method in this workspace stands on.
//!
//! Every sparse graph, Laplacian and anchor weight matrix is a
//! [`CsrMatrix`], the one CSR type of `umsc-op`, re-exported here; a
//! square one is a [`umsc_op::LinOp`], so Lanczos and the matrix-free GPI
//! run on sparse Laplacians directly.
//!
//! * [`distance`] — pairwise squared-Euclidean / cosine distance matrices,
//!   filled from upper-triangular Gram tiles.
//! * [`stream`] — the one builder of every sparse graph kind (k-NN and
//!   CAN): it streams those tiles through bounded per-row top-k selectors
//!   into CSR, never holding an `n × n` matrix.
//! * [`affinity`] — Gaussian (RBF) affinities with global or self-tuning
//!   (Zelnik-Manor & Perona) bandwidths: the dense kernel, and the k-NN
//!   front-end over precomputed distances.
//! * [`can`] — CAN adaptive-neighbor graphs (Nie et al. 2014): closed-form
//!   simplex-projected neighbor weights, the parameter-light alternative the
//!   paper family favours; a streamed kind plus its dense front-end.
//! * [`laplacian`] — unnormalized and symmetric-normalized Laplacians; the
//!   normalized one has one formula, dense and CSR.
//! * [`components`] — connected components (sanity checks; a graph with
//!   more components than clusters makes the embedding degenerate).

pub mod affinity;
pub mod anchor;
pub mod can;
pub mod components;
pub mod distance;
pub mod laplacian;
pub mod stream;

pub use affinity::{gaussian_affinity, knn_affinity, Bandwidth};
pub use anchor::{
    anchor_view_factor, anchor_weights, anchor_weights_sparse, normalized_factor, normalized_factor_sparse,
    normalized_factor_with, select_anchors,
};
pub use umsc_op::{CsrMatrix, SparseFactor};
pub use can::adaptive_neighbor_affinity;
pub use components::{connected_components, num_components};
pub use distance::{cosine_distance_matrix, pairwise_sq_distances, Metric, TILE_ROWS};
pub use laplacian::{degrees, normalized_laplacian, normalized_laplacian_sparse, unnormalized_laplacian};
pub use stream::{neighbor_graph, Neighbors};

use umsc_linalg::Matrix;

/// `a` densified into a [`Matrix`] (small graphs and tests).
pub(crate) fn to_matrix(a: &CsrMatrix) -> Matrix {
    Matrix::from_vec(a.rows(), a.cols(), a.to_dense())
}
