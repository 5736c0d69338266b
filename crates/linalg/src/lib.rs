//! # umsc-linalg
//!
//! Self-contained dense (and operator-based iterative) linear algebra for the
//! `umsc` multi-view spectral clustering workspace.
//!
//! The Rust eigensolver ecosystem is thin, and the paper's pipeline is built
//! almost entirely out of symmetric eigenproblems (spectral embeddings),
//! small SVDs (spectral rotation / Procrustes) and orthogonalizations, so
//! this crate implements the whole substrate from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrix with the usual arithmetic;
//!   its `A·X` products run [`umsc_op::dense_rows_into`].
//! * [`lanczos`] — partial symmetric eigensolver on any [`LinOp`]: the one
//!   eigensolver behind every embedding solve, at every `n` and on the
//!   dense, CSR and anchor paths.
//! * [`procrustes()`](procrustes()) and [`polar_orthogonalize`] — orthogonal
//!   Procrustes and the GPI polar step (from the `c×c` Gram matrix, with
//!   the SVD as the ill-conditioned fallback), the workhorses of spectral
//!   rotation.
//! * [`Svd`] — thin singular value decomposition via one-sided Jacobi
//!   (Hestenes), behind Procrustes and the polar fallback.
//! * [`eigen::tql2`] and [`tridiag::tridiagonalize_into`] — the QL sweep
//!   and Householder reduction the Lanczos and polar steps call.
//!
//! Test oracles, which no fit calls: [`SymEigen`] (the full dense
//! eigendecomposition, Householder + QL), [`jacobi_eigen`] (cyclic Jacobi,
//! an independent cross-check of it), [`Svd::compute`],
//! [`Matrix::gershgorin_upper_bound`] and [`testkit`] (seeded generators
//! for the property tests).
//!
//! Conventions: matrices are row-major; eigenvalues/singular values are
//! returned in ascending/descending order as documented per routine;
//! dimension mismatches panic with a descriptive message (programming
//! errors), while algorithmic failures (non-convergence, asymmetric input
//! to the dense oracle) return [`LinalgError`].

pub mod eigen;
pub mod error;
pub mod jacobi;
pub mod lanczos;
pub mod matrix;
pub mod ops;
pub mod procrustes;
pub mod svd;
pub mod testkit;
pub mod tridiag;

pub use eigen::SymEigen;
pub use error::LinalgError;
pub use jacobi::jacobi_eigen;
pub use lanczos::{lanczos_smallest, LanczosConfig};
// The operator trait lives down the stack in `umsc-op`; re-export it so
// downstream code keeps one import path.
pub use umsc_op::LinOp;
pub use matrix::Matrix;
pub use procrustes::{polar_orthogonalize, polar_orthogonalize_into, procrustes, procrustes_into};
pub use svd::{Svd, SvdScratch};

/// Result alias for fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
