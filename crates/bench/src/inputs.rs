//! Inputs the microbenches share, shaped like what a fit runs on.

use umsc_graph::{neighbor_graph, normalized_laplacian_sparse, Bandwidth, CsrMatrix, Metric, Neighbors};
use umsc_linalg::Matrix;
use umsc_rt::Rng;

/// The normalized k-NN Laplacian `I − D^{-1/2} W D^{-1/2}` of `n` points
/// drawn around 8 Gaussian centres in 16 dimensions, built the way a CSR
/// fit builds its default graph (`k = 10` neighbours, self-tuning
/// bandwidth over 7 neighbours). It is symmetric positive semidefinite by
/// construction (`crates/bench/tests/inputs.rs` checks it), with the
/// k-NN sparsity of the benchmark workloads. Deterministic in `n`.
pub fn knn_laplacian(n: usize) -> CsrMatrix {
    let mut rng = Rng::from_seed(17);
    let centres = Matrix::from_fn(8, 16, |_, _| 3.0 * rng.normal());
    let x = Matrix::from_fn(n, 16, |i, j| centres[(i % 8, j)] + rng.normal());
    let w = neighbor_graph(&x, Metric::Euclidean, Neighbors::Knn { k: 10, bandwidth: Bandwidth::SelfTuning { k: 7 } });
    normalized_laplacian_sparse(&w)
}
