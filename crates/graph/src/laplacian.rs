//! Graph Laplacians.
//!
//! Given a symmetric non-negative affinity `W` with degrees `d_i = Σ_j w_ij`:
//!
//! * unnormalized: `L = D − W`
//! * symmetric-normalized: `L_sym = I − D^{-1/2} W D^{-1/2}` — the paper's
//!   choice (its spectrum lives in `[0, 2]` and its Rayleigh quotients are
//!   the relaxed normalized-cut objective)
//!
//! The normalized Laplacian has one formula, dense and CSR alike: with
//! `sᵢ = dᵢ^{-1/2}`, `l_ij = −(w_ij·(sᵢ·sⱼ))` and `l_ii = 1 + (−(w_ii·(sᵢ·sᵢ)))`,
//! so [`normalized_laplacian`] and [`normalized_laplacian_sparse`] of one
//! graph hold the same bits.
//!
//! Isolated vertices (zero degree) are handled by treating `d^{-1/2}` as 0,
//! which leaves the corresponding row/column of the normalized Laplacian at
//! `I`'s values — standard practice.

use umsc_op::CsrMatrix;
use umsc_linalg::Matrix;

/// Weighted degree vector `d_i = Σ_j w_ij` of a dense affinity.
pub fn degrees(w: &Matrix) -> Vec<f64> {
    assert!(w.is_square(), "degrees: affinity not square");
    w.rows_iter().map(|r| r.iter().sum()).collect()
}

/// Unnormalized Laplacian `L = D − W` (dense).
pub fn unnormalized_laplacian(w: &Matrix) -> Matrix {
    let d = degrees(w);
    let n = w.rows();
    let mut l = -w;
    for i in 0..n {
        l[(i, i)] += d[i];
    }
    l
}

/// Symmetric-normalized Laplacian `L = I − D^{-1/2} W D^{-1/2}` (dense),
/// by the formula of [`normalized_laplacian_sparse`] (see the module docs).
///
/// The result is exactly symmetrized, so a `W` symmetric only up to
/// rounding still feeds the symmetric eigensolver directly; on an exactly
/// symmetric `W` that moves no bit.
pub fn normalized_laplacian(w: &Matrix) -> Matrix {
    let d = degrees(w);
    let n = w.rows();
    let inv_sqrt: Vec<f64> = d.iter().map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 }).collect();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = -(w[(i, j)] * (inv_sqrt[i] * inv_sqrt[j]));
            l[(i, j)] = if i == j { 1.0 + v } else { v };
        }
    }
    l.symmetrize_mut();
    l
}

/// Symmetric-normalized Laplacian of a sparse affinity, kept sparse.
///
/// Each row of `W` is merged straight into the result: `−(w_ij·(sᵢ·sⱼ))`
/// for `j < i`, then the diagonal `1 + (−(w_ii·(sᵢ·sᵢ)))` (or `1` when `W`
/// stores no `w_ii`), then `j > i`; entries that come out `±0.0` are
/// dropped.
pub fn normalized_laplacian_sparse(w: &CsrMatrix) -> CsrMatrix {
    assert_eq!(w.rows(), w.cols(), "normalized_laplacian_sparse: affinity not square");
    let n = w.rows();
    let d = w.row_sums();
    let inv_sqrt: Vec<f64> = d.iter().map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 }).collect();
    let (ptr, cols, vals) = w.parts();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(w.nnz() + n);
    let mut values = Vec::with_capacity(w.nnz() + n);
    for i in 0..n {
        let (cols, vals) = (&cols[ptr[i]..ptr[i + 1]], &vals[ptr[i]..ptr[i + 1]]);
        let l = |e: usize| -(vals[e] * (inv_sqrt[i] * inv_sqrt[cols[e]]));
        let below = cols.partition_point(|&j| j < i);
        let (diag, above) = if cols.get(below) == Some(&i) { (1.0 + l(below), below + 1) } else { (1.0, below) };
        let mut push = |j: usize, v: f64| {
            col_idx.push(j);
            values.push(v);
        };
        (0..below).for_each(|e| push(cols[e], l(e)));
        push(i, diag);
        (above..cols.len()).for_each(|e| push(cols[e], l(e)));
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, values).compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_linalg::SymEigen;

    /// Affinity of a 4-cycle with unit weights.
    fn cycle4() -> Matrix {
        let mut w = Matrix::zeros(4, 4);
        for i in 0..4 {
            let j = (i + 1) % 4;
            w[(i, j)] = 1.0;
            w[(j, i)] = 1.0;
        }
        w
    }

    #[test]
    fn degrees_of_cycle() {
        assert_eq!(degrees(&cycle4()), vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn unnormalized_row_sums_zero_and_psd() {
        let l = unnormalized_laplacian(&cycle4());
        for i in 0..4 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-14, "row {i} sums to {s}");
        }
        let eig = SymEigen::compute(&l).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12, "λ_min must be 0");
        assert!(eig.eigenvalues.iter().all(|&x| x > -1e-12), "PSD violated");
    }

    #[test]
    fn normalized_spectrum_in_zero_two() {
        let l = normalized_laplacian(&cycle4());
        assert!(l.is_symmetric(1e-15));
        let eig = SymEigen::compute(&l).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues.iter().all(|&x| (-1e-12..=2.0 + 1e-12).contains(&x)), "{:?}", eig.eigenvalues);
        // Bipartite cycle: λ_max = 2.
        assert!((eig.eigenvalues[3] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn normalized_null_vector_is_sqrt_degrees() {
        // L_sym · D^{1/2}·1 = 0.
        let mut w = cycle4();
        w[(0, 1)] = 3.0;
        w[(1, 0)] = 3.0; // heterogeneous degrees
        let l = normalized_laplacian(&w);
        let d = degrees(&w);
        let v: Vec<f64> = d.iter().map(|x| x.sqrt()).collect();
        let lv = l.matmul(&Matrix::from_vec(v.len(), 1, v)).as_slice().to_vec();
        assert!(lv.iter().all(|&x| x.abs() < 1e-12), "{lv:?}");
    }

    #[test]
    fn disconnected_graph_multiplicity_of_zero() {
        // Two disjoint edges → two zero eigenvalues.
        let mut w = Matrix::zeros(4, 4);
        w[(0, 1)] = 1.0;
        w[(1, 0)] = 1.0;
        w[(2, 3)] = 1.0;
        w[(3, 2)] = 1.0;
        let l = normalized_laplacian(&w);
        let eig = SymEigen::compute(&l).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues[1].abs() < 1e-12);
        assert!(eig.eigenvalues[2] > 0.5);
    }

    #[test]
    fn isolated_vertex_handled() {
        let mut w = Matrix::zeros(3, 3);
        w[(0, 1)] = 1.0;
        w[(1, 0)] = 1.0; // vertex 2 isolated
        let l = normalized_laplacian(&w);
        assert!(l.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(l[(2, 2)], 1.0);
        let lu = unnormalized_laplacian(&w);
        assert_eq!(lu[(2, 2)], 0.0);
    }

    #[test]
    fn isolated_vertex_laplacian_eigensolves_without_nan() {
        // An all-zero affinity row (vertex 5 isolated from a 5-cycle plus a
        // second isolated vertex 6) must yield a normalized Laplacian whose
        // eigensolves are NaN-free: d^{-1/2} = 0 for zero degree leaves the
        // isolated row/column at the identity's values, so the isolated
        // vertices contribute exact eigenvalue-1 directions.
        let n = 7;
        let mut w = Matrix::zeros(n, n);
        for i in 0..5 {
            let j = (i + 1) % 5;
            w[(i, j)] = 1.0;
            w[(j, i)] = 1.0;
        }
        let l = normalized_laplacian(&w);
        assert!(l.as_slice().iter().all(|v| v.is_finite()), "Laplacian has non-finite entries");
        for v in [5, 6] {
            assert_eq!(l[(v, v)], 1.0);
            for j in 0..n {
                if j != v {
                    assert_eq!(l[(v, j)], 0.0);
                    assert_eq!(l[(j, v)], 0.0);
                }
            }
        }

        // Dense eigensolve: finite, PSD, spectrum within [0, 2], and the
        // zero eigenvalue of the connected component survives.
        let eig = SymEigen::compute(&l).unwrap();
        assert!(eig.eigenvalues.iter().all(|v| v.is_finite()), "{:?}", eig.eigenvalues);
        assert!(eig.eigenvectors.as_slice().iter().all(|v| v.is_finite()));
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues.iter().all(|&v| (-1e-12..=2.0 + 1e-12).contains(&v)));
        // Eigenvalue 1 appears for each isolated vertex.
        let ones = eig.eigenvalues.iter().filter(|&&v| (v - 1.0).abs() < 1e-9).count();
        assert!(ones >= 2, "expected ≥2 unit eigenvalues, spectrum {:?}", eig.eigenvalues);

        // Sparse + Lanczos path on the same graph: also NaN-free.
        let ws = CsrMatrix::from_dense(w.rows(), w.cols(), w.as_slice());
        let ls = normalized_laplacian_sparse(&ws);
        let (vals, vecs) =
            umsc_linalg::lanczos_smallest(&ls, 3, &umsc_linalg::LanczosConfig::default()).unwrap();
        assert!(vals.iter().all(|v| v.is_finite()), "{vals:?}");
        assert!(vecs.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sparse_matches_dense() {
        // Heterogeneous degrees, a self loop and an isolated vertex: one
        // formula, the same bits.
        let mut w = Matrix::zeros(5, 5);
        for (i, j, v) in [(0, 1, 3.0), (1, 2, 0.7), (2, 3, 1.3), (3, 0, 0.1), (0, 2, 2.9)] {
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
        w[(1, 1)] = 0.4;
        let ls = normalized_laplacian_sparse(&CsrMatrix::from_dense(5, 5, w.as_slice()));
        assert_eq!(ls.to_dense().as_slice(), normalized_laplacian(&w).as_slice());
    }

    #[test]
    fn sparse_row_merge_matches_triplet_route_bitwise() {
        // The triplet route it replaced: `I − D^{-1/2} W D^{-1/2}` summed
        // by `from_triplets`, whose stable sort adds the 1 first.
        fn triplet_route(w: &CsrMatrix) -> CsrMatrix {
            let d = w.row_sums();
            let inv_sqrt: Vec<f64> = d.iter().map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 }).collect();
            let scaled = w.scale_symmetric(&inv_sqrt);
            let n = w.rows();
            let mut triplets = Vec::new();
            for i in 0..n {
                triplets.push((i, i, 1.0));
                for (&j, &v) in scaled.row_entries(i) {
                    triplets.push((i, j, -v));
                }
            }
            CsrMatrix::from_triplets(n, n, &triplets)
        }
        let mut rng = umsc_rt::Rng::from_seed(61);
        let n = 12;
        let mut w = Matrix::zeros(n, n);
        for _ in 0..30 {
            let (i, j) = (rng.gen_range(0..9), rng.gen_range(0..9));
            let v = rng.next_f64() + 0.05;
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
        // Vertex 9 has only a self-loop, so its diagonal cancels to zero;
        // vertices 10 and 11 are isolated; vertex 3 carries a self-loop
        // beside its edges.
        w[(9, 9)] = 4.0;
        w[(3, 3)] = 0.6;
        for i in 9..n {
            for j in 0..n {
                if i != j {
                    w[(i, j)] = 0.0;
                    w[(j, i)] = 0.0;
                }
            }
        }
        let sparse = CsrMatrix::from_dense(n, n, w.as_slice());
        // A stored zero weight as well.
        let (ptr, idx, vals) = sparse.parts();
        let (ptr, idx, mut vals) = (ptr.to_vec(), idx.to_vec(), vals.to_vec());
        vals[0] = 0.0;
        let with_zero = CsrMatrix::from_parts(n, n, ptr, idx, vals);
        for w in [sparse, with_zero] {
            let (got, want) = (normalized_laplacian_sparse(&w), triplet_route(&w));
            assert_eq!(got.parts().0, want.parts().0);
            assert_eq!(got.parts().1, want.parts().1);
            let bits = |m: &CsrMatrix| m.parts().2.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            assert!(got.row_entries(9).all(|(&j, _)| j != 9), "cancelled diagonal must be dropped");
            assert_eq!(got.row_entries(10).collect::<Vec<_>>(), vec![(&10, &1.0)]);
        }
    }

    #[test]
    fn sparse_laplacian_with_lanczos_finds_fiedler_structure() {
        // Two 5-cliques joined by one weak edge: Fiedler vector splits them.
        let n = 10;
        let mut trip = Vec::new();
        for blk in 0..2 {
            for a in 0..5 {
                for b in 0..5 {
                    if a != b {
                        trip.push((blk * 5 + a, blk * 5 + b, 1.0));
                    }
                }
            }
        }
        trip.push((4, 5, 0.01));
        trip.push((5, 4, 0.01));
        let w = CsrMatrix::from_triplets(n, n, &trip);
        let l = normalized_laplacian_sparse(&w);
        let (vals, vecs) = umsc_linalg::lanczos_smallest(&l, 2, &umsc_linalg::LanczosConfig::default()).unwrap();
        assert!(vals[0].abs() < 1e-9);
        let fiedler = vecs.col(1);
        let sign_first = fiedler[0].signum();
        assert!(fiedler[..5].iter().all(|v| v.signum() == sign_first));
        assert!(fiedler[5..].iter().all(|v| v.signum() == -sign_first));
    }
}
