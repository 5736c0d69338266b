//! Hungarian (Kuhn–Munkres) algorithm for the linear assignment problem.
//!
//! Shortest-augmenting-path formulation with dual potentials (the
//! Jonker–Volgenant variant), O(n²·m) for an `n × m` cost matrix with
//! `n ≤ m`. Used by [`crate::clustering_accuracy`] to find the cluster
//! permutation that maximizes label agreement *exactly* — greedy matching
//! (used by some sloppy evaluation scripts) can understate ACC.

use umsc_linalg::Matrix;

/// Solves the min-cost assignment for a cost matrix with `rows ≤ cols`.
///
/// Returns `assignment` with `assignment[i] = j` meaning row `i` is matched
/// to column `j`; each column is used at most once, every row is matched.
///
/// # Panics
/// Panics if `cost.rows() > cost.cols()` or any entry is non-finite.
pub fn hungarian(cost: &Matrix) -> Vec<usize> {
    let (n, m) = cost.shape();
    assert!(n <= m, "hungarian: need rows <= cols, got {n}x{m}; transpose the problem");
    assert!(cost.as_slice().iter().all(|v| v.is_finite()), "hungarian: non-finite cost");
    if n == 0 {
        return Vec::new();
    }

    // 1-indexed arrays; index 0 is a sentinel column/row.
    let mut u = vec![0.0_f64; n + 1];
    let mut v = vec![0.0_f64; m + 1];
    let mut p = vec![0_usize; m + 1]; // p[j]: row assigned to column j (0 = free)
    let mut way = vec![0_usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0_usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0_usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[(i0 - 1, j - 1)] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(assignment.iter().all(|&a| a != usize::MAX));
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total cost of an assignment under `cost`.
    fn assignment_cost(cost: &Matrix, assignment: &[usize]) -> f64 {
        assignment.iter().enumerate().map(|(i, &j)| cost[(i, j)]).sum()
    }

    fn brute_force_min(cost: &Matrix) -> f64 {
        // Exhaustive over column permutations (square, tiny n).
        let n = cost.rows();
        let mut cols: Vec<usize> = (0..cost.cols()).collect();
        let mut best = f64::INFINITY;
        permute(&mut cols, 0, n, &mut |perm| {
            let c: f64 = (0..n).map(|i| cost[(i, perm[i])]).sum();
            if c < best {
                best = c;
            }
        });
        best
    }

    fn permute(items: &mut Vec<usize>, k: usize, n: usize, f: &mut impl FnMut(&[usize])) {
        if k == n {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, n, f);
            items.swap(k, i);
        }
    }

    #[test]
    fn known_three_by_three() {
        let cost = Matrix::from_vec(3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let a = hungarian(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0); // 1 + 2 + 2
        assert_eq!(a, vec![1, 0, 2]);
    }

    #[test]
    fn identity_cost_prefers_diagonal() {
        let n = 5;
        let cost = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { 1.0 });
        assert_eq!(hungarian(&cost), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn matches_brute_force_on_many_matrices() {
        for seed in 0..40u64 {
            let n = 2 + (seed % 4) as usize; // 2..=5
            let cost = Matrix::from_fn(n, n, |i, j| {
                (((seed + 1) as f64 * 37.0 + (i * 7 + j * 13) as f64).sin() * 10.0).round()
            });
            let a = hungarian(&cost);
            // Valid permutation.
            let mut seen = vec![false; n];
            for &j in &a {
                assert!(!seen[j], "column reused");
                seen[j] = true;
            }
            assert!(
                (assignment_cost(&cost, &a) - brute_force_min(&cost)).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                assignment_cost(&cost, &a),
                brute_force_min(&cost)
            );
        }
    }

    #[test]
    fn rectangular_rows_less_than_cols() {
        let cost = Matrix::from_vec(2, 4, vec![9.0, 2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 1.0]);
        let a = hungarian(&cost);
        assert_eq!(a, vec![1, 3]);
    }

    #[test]
    fn ties_still_valid() {
        let cost = Matrix::filled(4, 4, 1.0);
        let a = hungarian(&cost);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(assignment_cost(&cost, &a), 4.0);
    }

    #[test]
    fn negative_costs() {
        let cost = Matrix::from_vec(2, 2, vec![-5.0, 0.0, 0.0, -5.0]);
        let a = hungarian(&cost);
        assert_eq!(assignment_cost(&cost, &a), -10.0);
    }

    #[test]
    fn empty() {
        assert!(hungarian(&Matrix::zeros(0, 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn tall_matrix_panics() {
        let _ = hungarian(&Matrix::zeros(3, 2));
    }
}
