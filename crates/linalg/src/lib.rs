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
//! * [`Matrix`] — dense row-major `f64` matrix with the usual arithmetic.
//! * [`SymEigen`] — full symmetric eigendecomposition via Householder
//!   tridiagonalization + implicit-shift QL (EISPACK `tred2`/`tql2` lineage).
//! * [`jacobi_eigen`] — cyclic Jacobi eigensolver, used as an independent
//!   cross-check in tests and as a robust fallback for small matrices.
//! * [`Svd`] — singular value decomposition via one-sided Jacobi (Hestenes).
//! * [`qr()`](qr()) — Householder QR.
//! * [`cholesky()`](cholesky()) — the SPD factor.
//! * [`procrustes()`](procrustes()) and [`polar_orthogonalize`] — orthogonal
//!   Procrustes and the GPI polar step (from the `c×c` Gram matrix, with
//!   the SVD as the ill-conditioned fallback), the workhorses of spectral
//!   rotation.
//! * [`lanczos`] — partial symmetric eigensolver for large sparse operators
//!   (used by the graph crate through the [`LinearOperator`] trait): the
//!   one Krylov solver, behind every embedding solve above the dense
//!   size threshold and on every matrix-free path.
//!
//! Conventions: matrices are row-major; eigenvalues/singular values are
//! returned in ascending/descending order as documented per routine;
//! dimension mismatches panic with a descriptive message (programming
//! errors), while algorithmic failures (non-convergence, non-PSD input)
//! return [`LinalgError`].

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod jacobi;
pub mod lanczos;
pub mod matrix;
pub mod ops;
pub mod procrustes;
pub mod qr;
pub mod svd;
pub mod testkit;
pub mod tridiag;

pub use cholesky::cholesky;
pub use eigen::SymEigen;
pub use error::LinalgError;
pub use jacobi::jacobi_eigen;
pub use lanczos::{lanczos_smallest, LanczosConfig};
// The operator trait moved down the stack into `umsc-op`; re-export it
// (and its historical name) so downstream code keeps one import path.
pub use umsc_op::LinOp;
pub use umsc_op::LinOp as LinearOperator;
pub use matrix::Matrix;
pub use procrustes::{polar_orthogonalize, polar_orthogonalize_into, procrustes, procrustes_into};
pub use qr::{qr, QrDecomposition};
pub use svd::{Svd, SvdScratch};
pub use tridiag::Tridiagonal;

/// Result alias for fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
