//! Anchor (bipartite) graphs for large-scale spectral clustering.
//!
//! A full affinity is O(n²) to build and O(n³) to eigendecompose. The
//! anchor-graph construction (Liu et al., *Large Graph Construction for
//! Scalable Semi-Supervised Learning*, ICML 2010) replaces it with a
//! bipartite graph between the `n` points and `m ≪ n` representative
//! **anchors**:
//!
//! * anchors are picked by k-means++-style D² sampling (no Lloyd pass
//!   needed — coverage is what matters, not optimal centroids);
//! * each point connects to its `k` nearest anchors with CAN-style
//!   closed-form simplex weights, giving `Z ∈ R^{n×m}` with rows summing
//!   to 1;
//! * the induced point-point affinity `W = Z·Λ⁻¹·Zᵀ` (`Λ = diag(Zᵀ1)`) has
//!   **unit row sums**, so its normalized Laplacian is `I − W`, and the
//!   spectral embedding reduces to the top left singular vectors of the
//!   thin factor `B = Z·Λ^{-1/2}`.
//!
//! `Z` and `B` are built straight into CSR with at most `k` entries per
//! row ([`anchor_weights_sparse`], [`normalized_factor_sparse`]): a
//! factor costs O(n·k) memory, not O(n·m), and every product with it
//! O(n·k) per column. The dense [`anchor_weights`] / [`normalized_factor`]
//! are densified views of the same builders.
//!
//! This is the substrate of the large-scale one-stage solver in
//! `umsc-core::anchor`.

use crate::can::write_simplex_weights;
use crate::sparse::CsrMatrix;
use crate::stream::smallest;
use umsc_linalg::Matrix;
use umsc_op::SparseFactor;
use umsc_rt::SplitMix64;

/// Selects `m` anchor rows from `x` by D² (k-means++) sampling.
///
/// Deterministic in `seed`. Returns an `m × d` matrix of anchor positions.
///
/// # Panics
/// Panics if `m == 0` or `m > x.rows()`.
pub fn select_anchors(x: &Matrix, m: usize, seed: u64) -> Matrix {
    let _span = umsc_obs::span!("graph.anchor_select");
    let n = x.rows();
    assert!(m >= 1, "select_anchors: m must be >= 1");
    assert!(m <= n, "select_anchors: m = {m} exceeds n = {n}");
    let d = x.cols();
    let mut rng = SplitMix64::new(seed);
    let mut anchors = Matrix::zeros(m, d);

    let first = (rng.next_u64() % n as u64) as usize;
    anchors.row_mut(0).copy_from_slice(x.row(first));
    let mut min_dist: Vec<f64> =
        (0..n).map(|i| umsc_linalg::ops::sq_dist(x.row(i), anchors.row(0))).collect();

    for j in 1..m {
        let total: f64 = min_dist.iter().sum();
        let pick = if total <= 0.0 {
            (rng.next_u64() % n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &w) in min_dist.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        anchors.row_mut(j).copy_from_slice(x.row(pick));
        for (i, md) in min_dist.iter_mut().enumerate() {
            let dist = umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j));
            if dist < *md {
                *md = dist;
            }
        }
    }
    anchors
}

/// Builds the point→anchor weight matrix `Z` (`n × m`, rows sum to 1) in
/// CSR: each point gets CAN-style closed-form weights over its `k`
/// nearest anchors, so a row stores at most `k` entries. Rows are written
/// through one reusable `m`-length buffer and stored with ascending
/// columns and exact zeros (a tied `d_{k+1}`) dropped; no `n × m` matrix
/// is ever allocated.
///
/// # Panics
/// Panics if `k` is not in `1..=m`.
pub fn anchor_weights_sparse(x: &Matrix, anchors: &Matrix, k: usize) -> CsrMatrix {
    let _span = umsc_obs::span!("graph.anchor_weights");
    let n = x.rows();
    let m = anchors.rows();
    assert!(k >= 1 && k <= m, "anchor_weights: need 1 <= k <= m, got k={k}, m={m}");
    assert_eq!(x.cols(), anchors.cols(), "anchor_weights: feature dimension mismatch");

    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(n * k);
    let mut values = Vec::with_capacity(n * k);
    let mut dist = vec![0.0f64; m];
    let mut row = vec![0.0f64; m];
    for i in 0..n {
        for (j, d) in dist.iter_mut().enumerate() {
            *d = umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j));
        }
        let kept = smallest(k + 1, dist.iter().enumerate().map(|(j, &d)| (d, j)));
        // CAN closed form over the k nearest anchors; d_{k+1} plays γ.
        write_simplex_weights(&kept, k, |j, w| row[j] = w);
        for (j, w) in row.iter_mut().enumerate() {
            if *w != 0.0 {
                col_idx.push(j);
                values.push(*w);
                *w = 0.0;
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_sorted_parts(n, m, row_ptr, col_idx, values)
}

/// [`anchor_weights_sparse`] densified (small inputs and tests).
pub fn anchor_weights(x: &Matrix, anchors: &Matrix, k: usize) -> Matrix {
    anchor_weights_sparse(x, anchors, k).to_dense()
}

/// The normalized factor `B = Z·Λ^{-1/2}` with `Λ = diag(Zᵀ·1)`, as a
/// [`SparseFactor`], plus the column scales `Λ^{-1/2}` (kept to normalize
/// out-of-sample rows the same way). The anchor-graph affinity is
/// `W = B·Bᵀ`; its normalized Laplacian is `I − W` (unit row sums), so
/// the spectral embedding is the top left singular subspace of `B`.
///
/// Columns whose anchor attracted no weight get scale 0 and stay empty.
pub fn normalized_factor_sparse(z: &CsrMatrix) -> (SparseFactor, Vec<f64>) {
    let (_, col_idx, values) = z.parts();
    let mut col_sums = vec![0.0f64; z.cols()];
    for (&j, &v) in col_idx.iter().zip(values) {
        col_sums[j] += v;
    }
    let inv_sqrt: Vec<f64> =
        col_sums.iter().map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 }).collect();
    (normalized_factor_with(z, &inv_sqrt), inv_sqrt)
}

/// `B = Z·diag(col_inv_sqrt)` as a [`SparseFactor`]: the training
/// normalization applied to (possibly new) rows `Z`.
///
/// # Panics
/// Panics if `col_inv_sqrt.len() != z.cols()`.
pub fn normalized_factor_with(z: &CsrMatrix, col_inv_sqrt: &[f64]) -> SparseFactor {
    assert_eq!(col_inv_sqrt.len(), z.cols(), "normalized_factor_with: one scale per anchor");
    let (row_ptr, col_idx, values) = z.parts();
    let scaled = col_idx.iter().zip(values).map(|(&j, &v)| v * col_inv_sqrt[j]).collect();
    SparseFactor::from_csr(z.rows(), z.cols(), row_ptr.to_vec(), col_idx.to_vec(), scaled)
}

/// [`normalized_factor_sparse`] of a dense `Z`, densified.
pub fn normalized_factor(z: &Matrix) -> Matrix {
    let (b, _) = normalized_factor_sparse(&CsrMatrix::from_dense(z, 0.0));
    Matrix::from_vec(b.rows(), b.cols(), b.to_dense())
}

/// Convenience: distances → anchors → weights → normalized factor for one
/// feature view. Returns `(B, anchors)`.
pub fn anchor_view_factor(x: &Matrix, m: usize, k: usize, seed: u64) -> (SparseFactor, Matrix) {
    let m = m.min(x.rows()).max(1);
    let k = k.min(m).max(1);
    let anchors = select_anchors(x, m, seed);
    let (b, _) = normalized_factor_sparse(&anchor_weights_sparse(x, &anchors, k));
    (b, anchors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(b: &SparseFactor) -> Matrix {
        Matrix::from_vec(b.rows(), b.cols(), b.to_dense())
    }

    fn blobs(n_per: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
            for i in 0..n_per {
                let a = i as f64 * 2.4;
                rows.push(vec![center.0 + 0.4 * a.cos(), center.1 + 0.4 * a.sin()]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn anchors_cover_all_blobs() {
        let (x, labels) = blobs(30);
        let anchors = select_anchors(&x, 9, 1);
        // Every blob contains at least one anchor (D² sampling spreads).
        let mut covered = [false; 3];
        for j in 0..9 {
            let mut best = (f64::INFINITY, 0usize);
            for i in 0..x.rows() {
                let d = umsc_linalg::ops::sq_dist(anchors.row(j), x.row(i));
                if d < best.0 {
                    best = (d, i);
                }
            }
            covered[labels[best.1]] = true;
        }
        assert!(covered.iter().all(|&c| c), "{covered:?}");
    }

    #[test]
    fn z_rows_are_distributions() {
        let (x, _) = blobs(20);
        let anchors = select_anchors(&x, 8, 0);
        let z = anchor_weights(&x, &anchors, 3);
        for i in 0..x.rows() {
            let s: f64 = z.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(z.row(i).iter().all(|&v| v >= 0.0));
            let nnz = z.row(i).iter().filter(|&&v| v > 0.0).count();
            assert!(nnz <= 3);
        }
    }

    #[test]
    fn anchor_affinity_has_unit_row_sums() {
        let (x, _) = blobs(15);
        let (b, _) = anchor_view_factor(&x, 9, 3, 0);
        let b = dense(&b);
        // W = BBᵀ rows sum to 1.
        let w = b.matmul_transpose_b(&b);
        for i in 0..x.rows() {
            let s: f64 = w.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        // Top singular value of B is 1 (the constant direction).
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        assert!((svd.s[0] - 1.0).abs() < 1e-8, "σ₁ = {}", svd.s[0]);
    }

    #[test]
    fn anchor_embedding_separates_blobs() {
        let (x, labels) = blobs(25);
        let b = dense(&anchor_view_factor(&x, 12, 4, 0).0);
        // Embedding = top-3 left singular vectors of B.
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        let f = svd.u.columns(0, 3);
        // Within-blob embedding distance much smaller than across.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..x.rows() {
            for j in (i + 1)..x.rows() {
                let d = umsc_linalg::ops::sq_dist(f.row(i), f.row(j));
                if labels[i] == labels[j] {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    across = (across.0 + d, across.1 + 1);
                }
            }
        }
        assert!(across.0 / across.1 as f64 > 10.0 * within.0 / within.1 as f64);
    }

    #[test]
    fn deterministic() {
        let (x, _) = blobs(10);
        let a1 = select_anchors(&x, 5, 7);
        let a2 = select_anchors(&x, 5, 7);
        assert!(a1.approx_eq(&a2, 0.0));
    }

    #[test]
    fn degenerate_duplicates() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let (b, _) = anchor_view_factor(&x, 4, 2, 0);
        assert!(b.to_dense().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn too_many_anchors_panics() {
        let x = Matrix::from_rows(&[vec![0.0]]);
        let _ = select_anchors(&x, 2, 0);
    }
}
