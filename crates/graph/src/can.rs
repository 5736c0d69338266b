//! CAN adaptive-neighbor affinity (Nie, Wang & Huang, KDD 2014).
//!
//! Assigns each point a probability distribution over its neighbours by
//! solving, per row, `min_{sᵢ ∈ Δ} Σ_j d²_ij s_ij + γ‖sᵢ‖²`. With γ chosen
//! so that each point keeps exactly `k` neighbours, the solution has the
//! closed form
//!
//! ```text
//! s_ij = (d_{i,k+1} − d_ij) / (k·d_{i,k+1} − Σ_{h≤k} d_ih)   for the k nearest j,
//! ```
//!
//! zero otherwise (distances squared, sorted ascending, self excluded).
//! Rows sum to one; the graph is symmetrized as `(S + Sᵀ)/2`. This is the
//! parameter-light graph the one-stage multi-view papers favour: the only
//! knob is `k`, and weights vanish smoothly at the neighbourhood edge.
//!
//! CAN is a kind of the streamed builder ([`crate::Neighbors::Adaptive`]):
//! its selectors keep `k + 1` neighbours per row, `write_simplex_weights`
//! weights the kept row, and the CSR merge with the transpose applies the
//! mean rule, so no `n × n` matrix is formed.
//! [`adaptive_neighbor_affinity`] is the densified front-end over
//! precomputed distances.

use crate::stream::{affinity_from_distances, Neighbors};
use umsc_linalg::Matrix;

/// CAN's closed-form simplex weights over the `k` nearest candidates:
/// `kept` holds the `k + 1` smallest `(distance, index)` pairs in
/// ascending order (just `k` when no `(k+1)`-th exists, in which case the
/// k-th distance plays `d_{k+1}`). Calls `out(j, s_j)` for the `k` kept
/// `j`, nearest first.
pub(crate) fn write_simplex_weights(kept: &[(f64, usize)], k: usize, mut out: impl FnMut(usize, f64)) {
    let dk1 = kept[k.min(kept.len() - 1)].0;
    let top_sum: f64 = kept[..k].iter().map(|e| e.0).sum();
    let denom = k as f64 * dk1 - top_sum;
    for &(d, j) in &kept[..k] {
        // Degenerate neighbourhood (all equal distances): uniform weights.
        out(j, if denom > 1e-12 { (dk1 - d) / denom } else { 1.0 / k as f64 });
    }
}

/// The CAN adaptive-neighbor affinity of precomputed squared distances,
/// densified: the streamed builder's CAN graph with `dist_sq` fed as one
/// block. `dist_sq` must be symmetric, as every distance builder here
/// returns it.
///
/// # Panics
/// Panics if `dist_sq` is not square or `k` is not in `1..n`.
pub fn adaptive_neighbor_affinity(dist_sq: &Matrix, k: usize) -> Matrix {
    assert!(dist_sq.is_square(), "adaptive_neighbor_affinity: distance matrix not square");
    let n = dist_sq.rows();
    assert!(k >= 1 && k < n, "adaptive_neighbor_affinity: need 1 <= k < n, got k={k}, n={n}");
    crate::to_matrix(&affinity_from_distances(dist_sq, Neighbors::Adaptive { k }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::pairwise_sq_distances;

    #[test]
    fn rows_sum_to_one_before_symmetrization_effects() {
        // Symmetrized rows still sum to ~1 on homogeneous data.
        let x = Matrix::from_fn(10, 2, |i, j| ((i * 3 + j * 7) as f64).sin());
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 4);
        for i in 0..10 {
            let sum: f64 = w.row(i).iter().sum();
            assert!(sum > 0.2 && sum < 2.0, "row {i} sum {sum} wildly off");
        }
        assert!(w.is_symmetric(1e-15));
    }

    #[test]
    fn exactly_k_neighbors_per_row_pre_symmetrization() {
        let x = Matrix::from_fn(8, 1, |i, _| i as f64 * i as f64); // distinct gaps
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 3);
        // After symmetrization each row has between k and 2k positive entries.
        for i in 0..8 {
            let nnz = w.row(i).iter().filter(|&&v| v > 0.0).count();
            assert!((3..=6).contains(&nnz), "row {i}: {nnz} nonzeros");
        }
    }

    #[test]
    fn closer_neighbors_get_larger_weights() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![3.0], vec![10.0]]);
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 2);
        // From node 0: node 1 (dist 1) closer than node 2 (dist 3).
        assert!(w[(0, 1)] > w[(0, 2)], "{} vs {}", w[(0, 1)], w[(0, 2)]);
        // Node 3 not among node 0's 2 nearest and vice versa.
        assert_eq!(w[(0, 3)], 0.0);
    }

    #[test]
    fn weight_vanishes_at_neighborhood_boundary() {
        // The k-th neighbour's weight approaches 0 as its distance
        // approaches d_{k+1}: here neighbour 2 and 3 are equidistant from 0.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![-2.0]]);
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 2);
        // d(0,2) = d(0,3) = 4 ⇒ s_02 = (4-4)/(2·4-(1+4)) = 0.
        assert_eq!(w[(0, 2)] * 2.0, w[(2, 0)] + w[(0, 2)]); // symmetric average
        assert!(w[(0, 1)] > 0.0);
    }

    #[test]
    fn duplicates_fall_back_to_uniform() {
        let x = Matrix::from_rows(&vec![vec![0.0, 0.0]; 5]);
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 2);
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
        // Uniform 1/k weights among chosen neighbours, then symmetrized.
        let total: f64 = w.row(0).iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn separates_two_blobs() {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![0.0, 0.2],
            vec![9.0, 9.0],
            vec![9.2, 9.0],
            vec![9.0, 9.2],
        ]);
        let d = pairwise_sq_distances(&x);
        let w = adaptive_neighbor_affinity(&d, 2);
        for i in 0..3 {
            for j in 3..6 {
                assert_eq!(w[(i, j)], 0.0, "cross-blob edge ({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need 1 <= k < n")]
    fn k_too_large_panics() {
        let d = Matrix::zeros(3, 3);
        let _ = adaptive_neighbor_affinity(&d, 3);
    }
}
