//! The microbenches time the operators a fit runs on: their shared
//! Laplacian must be symmetric positive semidefinite like every
//! normalized graph Laplacian.

use umsc_bench::inputs::knn_laplacian;
use umsc_linalg::{Matrix, SymEigen};

#[test]
fn bench_laplacian_is_symmetric_positive_semidefinite() {
    for n in [128, 512] {
        let l = Matrix::from_vec(n, n, knn_laplacian(n).to_dense());
        assert!(l.is_symmetric(0.0), "n = {n}: max asymmetry {:e}", l.max_asymmetry());
        let smallest = SymEigen::compute(&l).unwrap().eigenvalues[0];
        assert!(smallest >= -1e-10, "n = {n}: smallest eigenvalue {smallest:e}");
    }
}
