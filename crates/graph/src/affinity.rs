//! Gaussian (RBF) affinity graphs.
//!
//! Converts a pairwise squared-distance matrix into edge weights
//! `w_ij = exp(−d²_ij / bandwidth_ij)`. Two bandwidth policies are
//! provided; the paper family's default is **self-tuning** local scaling
//! (Zelnik-Manor & Perona 2004), which adapts to per-view density without a
//! global σ to tune. Affinities always have a zero diagonal (no self loops).

use umsc_op::CsrMatrix;
use crate::stream::{affinity_from_distances, smallest, Neighbors};
use umsc_linalg::Matrix;

/// Bandwidth policy for the Gaussian kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bandwidth {
    /// Fixed global σ: `w_ij = exp(−d²_ij / (2σ²))`.
    Global(f64),
    /// Self-tuning local scaling: `w_ij = exp(−d²_ij / (σ_i σ_j))` with
    /// `σ_i` the distance from `i` to its `k`-th nearest neighbour,
    /// floored at `1e-8·max(σ̄, 1)` with `σ̄` the mean unfloored `σ_i`.
    SelfTuning {
        /// Neighbour rank used for the local scale (7 in the original paper).
        k: usize,
    },
}

/// Dense Gaussian affinity from squared distances.
///
/// ```
/// use umsc_graph::{gaussian_affinity, pairwise_sq_distances, Bandwidth};
/// use umsc_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0]]);
/// let w = gaussian_affinity(&pairwise_sq_distances(&x), &Bandwidth::Global(0.5));
/// assert!(w[(0, 1)] > 0.9);     // close points: strong edge
/// assert!(w[(0, 2)] < 1e-10);   // far points: negligible edge
/// assert_eq!(w[(0, 0)], 0.0);   // no self loops
/// ```
///
/// # Panics
/// Panics if `dist_sq` is not square or a `Global` bandwidth is not positive.
pub fn gaussian_affinity(dist_sq: &Matrix, bandwidth: &Bandwidth) -> Matrix {
    assert!(dist_sq.is_square(), "gaussian_affinity: distance matrix not square");
    let n = dist_sq.rows();
    let mut w = Matrix::zeros(n, n);
    match bandwidth {
        Bandwidth::Global(sigma) => {
            assert!(*sigma > 0.0, "gaussian_affinity: Global bandwidth must be positive, got {sigma}");
            let denom = 2.0 * sigma * sigma;
            fill_symmetric(&mut w, |i, j| (-dist_sq[(i, j)] / denom).exp());
        }
        Bandwidth::SelfTuning { k } => {
            let local = local_scales(dist_sq, *k);
            fill_symmetric(&mut w, |i, j| {
                let denom = (local[i] * local[j]).max(f64::MIN_POSITIVE);
                (-dist_sq[(i, j)] / denom).exp()
            });
        }
    }
    w
}

/// Sparse k-NN Gaussian affinity: keep each node's `k` nearest neighbours
/// (excluding itself; ties broken by the lower index), then symmetrize
/// with the max rule.
///
/// `dist_sq` must be symmetric, as every distance builder here returns
/// it. Rows go through the bounded selector of
/// [`crate::stream::neighbor_graph`], which builds the same graph from
/// features without the distance matrix.
///
/// # Panics
/// Panics if `k == 0` or `dist_sq` is not square.
pub fn knn_affinity(dist_sq: &Matrix, k: usize, bandwidth: &Bandwidth) -> CsrMatrix {
    assert!(dist_sq.is_square(), "knn_affinity: distance matrix not square");
    affinity_from_distances(dist_sq, Neighbors::Knn { k, bandwidth: *bandwidth })
}

fn fill_symmetric(w: &mut Matrix, mut f: impl FnMut(usize, usize) -> f64) {
    let n = w.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = f(i, j);
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
    }
}

/// The self-tuning local scales of `n` nodes, from `kth_sq(i, rank)`, the
/// squared distance from node `i` to its neighbour of 0-based `rank`
/// (`k − 1`, clamped to the `n − 1` neighbours; `k = 0` reads as 1):
/// `σ_i = max(sqrt(d_i,(k)), 1e-8·max(σ̄, 1))`, with `σ̄` the mean of the
/// unfloored `σ_i` summed in index order. The floor gives a point with `k`
/// or more duplicates a positive scale (see [`crate::stream`] for why it
/// never binds on the benchmark inputs). Fewer
/// than two nodes have no neighbour and get `σ = 1`. The dense kernel and
/// the streamed builder both call this, so their scales are the same bits.
pub(crate) fn self_tuning_scales(n: usize, k: usize, kth_sq: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    if n < 2 {
        return vec![1.0; n];
    }
    let rank = k.min(n - 1).saturating_sub(1);
    let mut sigma: Vec<f64> = (0..n).map(|i| kth_sq(i, rank).sqrt()).collect();
    let floor = 1e-8 * umsc_linalg::ops::mean(&sigma).max(1.0);
    for s in &mut sigma {
        *s = s.max(floor);
    }
    sigma
}

/// [`self_tuning_scales`] over the rows of a dense distance matrix.
fn local_scales(dist_sq: &Matrix, k: usize) -> Vec<f64> {
    self_tuning_scales(dist_sq.rows(), k, |i, rank| {
        let row = dist_sq.row(i).iter().enumerate().filter(|&(j, _)| j != i);
        smallest(rank + 1, row.map(|(j, &d)| (d, j)))[rank].0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::pairwise_sq_distances;

    fn two_blobs() -> Matrix {
        // Two tight groups far apart.
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ])
    }

    #[test]
    fn global_bandwidth_properties() {
        let d = pairwise_sq_distances(&two_blobs());
        let w = gaussian_affinity(&d, &Bandwidth::Global(1.0));
        assert!(w.is_symmetric(0.0));
        for i in 0..6 {
            assert_eq!(w[(i, i)], 0.0, "no self loops");
        }
        // Within-blob weights dwarf cross-blob weights.
        assert!(w[(0, 1)] > 0.9);
        assert!(w[(0, 3)] < 1e-10);
        // All weights in (0, 1].
        assert!(w.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn self_tuning_adapts_to_scale() {
        // One dense and one diffuse blob; self-tuning keeps both connected.
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![0.01],
            vec![0.02],
            vec![100.0],
            vec![110.0],
            vec![120.0],
        ]);
        let d = pairwise_sq_distances(&x);
        let w = gaussian_affinity(&d, &Bandwidth::SelfTuning { k: 2 });
        // Diffuse blob still strongly intra-connected thanks to local scales.
        assert!(w[(3, 4)] > 0.3, "diffuse blob under-connected: {}", w[(3, 4)]);
        assert!(w[(0, 1)] > 0.3);
        // Cross connections negligible.
        assert!(w[(0, 3)] < 1e-6);
    }

    #[test]
    fn knn_graph_sparsity_and_symmetry() {
        let d = pairwise_sq_distances(&two_blobs());
        let w = knn_affinity(&d, 2, &Bandwidth::Global(1.0));
        let dense = crate::to_matrix(&w);
        assert!(dense.is_symmetric(1e-15));
        // k-NN with k=2 inside 3-point blobs: no cross-blob edges at all.
        for i in 0..3 {
            for j in 3..6 {
                assert_eq!(dense[(i, j)], 0.0);
            }
        }
        // Each node has at least k neighbours after max-symmetrization.
        for i in 0..6 {
            let row_nnz = dense.row(i).iter().filter(|&&v| v > 0.0).count();
            assert!(row_nnz >= 2);
        }
    }

    #[test]
    fn duplicates_do_not_produce_nan() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 4]);
        let d = pairwise_sq_distances(&x);
        let w = gaussian_affinity(&d, &Bandwidth::SelfTuning { k: 7 });
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
        // All-duplicate points: full affinity.
        assert!(w[(0, 1)] > 0.99);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_global_bandwidth_panics() {
        let d = Matrix::zeros(2, 2);
        let _ = gaussian_affinity(&d, &Bandwidth::Global(0.0));
    }
}
