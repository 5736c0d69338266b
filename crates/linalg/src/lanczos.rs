//! Lanczos iteration for the smallest eigenpairs of a large symmetric
//! operator.
//!
//! Dense eigendecomposition is O(n³); spectral clustering only needs the
//! `c` smallest eigenvectors of a graph Laplacian. [`lanczos_smallest`]
//! builds a Krylov basis with **full reorthogonalization** (robust, simple,
//! O(n·m²) for subspace size `m`) against any [`LinOp`], solves the
//! small tridiagonal eigenproblem with the same QL sweep as the dense path,
//! and expands the subspace until the wanted Ritz pairs converge. When the
//! subspace reaches `n` the method is exact, so it cannot fail to converge —
//! it can only get slow — which keeps the API total.
//!
//! A Krylov space grown from one start vector holds one direction per
//! eigenspace, so a single run can converge while missing copies of a
//! repeated eigenvalue — the eigenvalue 0 of a graph with several
//! connected components. [`lanczos_smallest`] therefore locks the
//! converged pairs and runs again from a fresh start vector orthogonal to
//! them, swapping in every Ritz value that lands below the current k-th
//! one, until a run recovers nothing (each recovered pair counts once in
//! `lanczos.recovered`).
//!
//! The operator abstraction itself lives in `umsc-op`; this crate
//! provides the [`Matrix`] implementation so dense operators drop in
//! anywhere a `&dyn LinOp` is expected.
//!
//! Breakdown (an invariant subspace, e.g. a disconnected graph) is handled
//! by restarting with a fresh vector orthogonal to the basis so far.

use crate::eigen::tql2;
use crate::matrix::Matrix;
use crate::ops::{axpy, dot, normalize};
use crate::Result;
use umsc_op::{DenseOp, LinOp};
use umsc_rt::SplitMix64;

impl LinOp for Matrix {
    fn dim(&self) -> usize {
        debug_assert!(self.is_square());
        self.rows()
    }

    /// Bitwise-identical to [`Matrix::matmul_into`] on an `n × k` right
    /// factor: both run [`umsc_op::dense_rows_into`].
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        debug_assert!(self.is_square());
        DenseOp::new(self.rows(), self.as_slice()).apply_block_into(x, ncols, y);
    }
}

/// Tuning knobs for [`lanczos_smallest`].
#[derive(Debug, Clone)]
pub struct LanczosConfig {
    /// Convergence tolerance on the Ritz residual estimate
    /// `|β_m · s_{m,i}|` relative to the spectral scale.
    pub tol: f64,
    /// Subspace size at which convergence is first checked; grows from
    /// there. Clamped to `[k+2, n]` internally.
    pub initial_subspace: usize,
    /// Seed for the deterministic start vectors.
    pub seed: u64,
}

impl Default for LanczosConfig {
    fn default() -> Self {
        LanczosConfig { tol: 1e-8, initial_subspace: 30, seed: 0x5eed }
    }
}

/// Computes the `k` smallest eigenpairs of symmetric `op`, every copy of
/// a repeated eigenvalue included.
///
/// Returns `(eigenvalues ascending, eigenvectors as columns)`. When no
/// restart run recovers a pair, the result is the first run's, bit for
/// bit.
///
/// # Panics
/// Panics if `k > n` or `k == 0`.
pub fn lanczos_smallest(op: &dyn LinOp, k: usize, cfg: &LanczosConfig) -> Result<(Vec<f64>, Matrix)> {
    let n = op.dim();
    assert!(k >= 1, "lanczos_smallest: k must be >= 1");
    assert!(k <= n, "lanczos_smallest: requested {k} eigenpairs of a {n}-dim operator");

    let _span = umsc_obs::span!("lanczos.solve");
    let mut rng = SplitMix64::new(cfg.seed);
    let start = random_unit(n, &mut rng);
    let mut pairs = lanczos_run(op, k, cfg.initial_subspace.max(k + 2), cfg.tol, &[], start, &mut rng)?;

    // At k = n there is no complement to search.
    if k < n {
        recover_missed_copies(op, cfg, &mut pairs, &mut rng)?;
    }

    let mut vectors = Matrix::zeros(n, k);
    for (col, v) in pairs.vectors.iter().enumerate() {
        vectors.set_col(col, v);
    }
    Ok((pairs.values, vectors))
}

/// Locks the converged `pairs` and searches their orthogonal complement
/// for its smallest eigenvalue. One below the k-th locked value is a copy
/// the earlier runs missed: it is swapped in and the search repeats.
/// Every swap lowers the sum of the k values by more than `tol·scale`, so
/// the loop ends; when nothing is swapped, `pairs` is left untouched.
fn recover_missed_copies(op: &dyn LinOp, cfg: &LanczosConfig, pairs: &mut RitzPairs, rng: &mut SplitMix64) -> Result<()> {
    let (n, k) = (op.dim(), pairs.values.len());
    while let Some(start) = orthogonal_start(n, rng, &pairs.vectors, &[]) {
        // `initial_subspace` was sized for k pairs; the probe wants one,
        // so it checks from the smallest subspace that holds it.
        let probe = lanczos_run(op, 1, 3, cfg.tol, &pairs.vectors, start, rng)?;
        let theta = probe.values[0];
        if theta >= pairs.values[k - 1] - cfg.tol * pairs.scale {
            break;
        }
        umsc_obs::counter!("lanczos.recovered", 1);
        pairs.values.pop();
        pairs.vectors.pop();
        let at = pairs.values.partition_point(|&v| v <= theta);
        pairs.values.insert(at, theta);
        pairs.vectors.insert(at, probe.vectors.into_iter().next().expect("one pair requested"));
    }
    Ok(())
}

/// Ritz pairs of one Lanczos run: values ascending, unit vectors, and the
/// spectral scale (largest |Ritz value|, at least 1) the tolerance is
/// relative to.
struct RitzPairs {
    values: Vec<f64>,
    vectors: Vec<Vec<f64>>,
    scale: f64,
}

/// One Lanczos run from unit `start` (orthogonal to `locked`) on the
/// orthogonal complement of the `locked` vectors: every basis vector is
/// reorthogonalized against them as well as against the basis, so the run
/// sees the operator restricted to that complement. Returns the `k`
/// smallest Ritz pairs once their residual estimates are below
/// `tol·scale`, checked first at a subspace of `check_at` and then at 1.5×
/// steps, or exactly once the basis spans the complement.
fn lanczos_run(
    op: &dyn LinOp,
    k: usize,
    check_at: usize,
    tol: f64,
    locked: &[Vec<f64>],
    start: Vec<f64>,
    rng: &mut SplitMix64,
) -> Result<RitzPairs> {
    let n = op.dim();
    let dim = n - locked.len();
    // Krylov basis vectors (rows, for contiguity) and tridiagonal entries.
    let mut basis: Vec<Vec<f64>> = vec![start];
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new(); // beta[j] couples basis[j] and basis[j+1]

    let mut check_at = check_at.min(dim.max(1));
    let mut work = vec![0.0; n];

    loop {
        // One Lanczos expansion step. `apply_into` overwrites `work`.
        umsc_obs::counter!("lanczos.iters", 1);
        let j = basis.len() - 1;
        op.apply_into(&basis[j], &mut work);
        let a_j = dot(&basis[j], &work);
        alpha.push(a_j);
        // w ← A q_j − α_j q_j − β_{j-1} q_{j-1}, then full reorthogonalization.
        axpy(-a_j, &basis[j], &mut work);
        if j > 0 {
            axpy(-beta[j - 1], &basis[j - 1], &mut work);
        }
        for b in locked.iter().chain(&basis) {
            let c = dot(b, &work);
            axpy(-c, b, &mut work);
        }
        let b_j = normalize(&mut work);

        let m = basis.len();
        let done_expanding = m == dim;
        if !done_expanding {
            if b_j <= 1e-12 {
                // Breakdown: invariant subspace captured. Restart direction.
                let Some(fresh) = orthogonal_start(n, rng, locked, &basis) else {
                    // Basis already spans the complement numerically; solve exactly.
                    return exact_pairs(&basis, &alpha, &beta, k);
                };
                beta.push(0.0);
                basis.push(fresh);
            } else {
                beta.push(b_j);
                basis.push(work.clone());
            }
        }

        let m = basis.len();
        if done_expanding {
            return exact_pairs(&basis, &alpha, &beta, k);
        }
        if m >= check_at {
            // Convergence probe on the completed alpha.len()-step
            // factorization (the freshly pushed vector is not yet processed).
            if let Some(result) = ritz_pairs(&basis[..alpha.len()], &alpha, &beta, k, Some(tol))? {
                return Ok(result);
            }
            check_at = (check_at + check_at / 2 + 1).min(dim);
        }
    }
}
/// The Ritz pairs of a basis that spans the whole search space.
fn exact_pairs(basis: &[Vec<f64>], alpha: &[f64], beta: &[f64], k: usize) -> Result<RitzPairs> {
    Ok(ritz_pairs(&basis[..alpha.len()], alpha, beta, k, None)?.expect("tol=None always yields pairs"))
}

/// Solves the projected tridiagonal problem and maps Ritz vectors back.
///
/// With `tol = Some(t)`, returns `Ok(None)` when the k-th residual estimate
/// exceeds `t` (not yet converged); with `tol = None` always returns pairs.
fn ritz_pairs(basis: &[Vec<f64>], alpha: &[f64], beta: &[f64], k: usize, tol: Option<f64>) -> Result<Option<RitzPairs>> {
    let m = alpha.len();
    debug_assert!(basis.len() >= m);
    let mut d = alpha.to_vec();
    // tql2 expects e[1..] as the sub-diagonal.
    let mut e = vec![0.0; m];
    e[1..m].copy_from_slice(&beta[..m - 1]);
    let mut z = Matrix::identity(m);
    tql2(&mut d, &mut e, &mut z)?;

    // Sort ascending.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(std::cmp::Ordering::Equal));

    let scale = d.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1.0);
    if let Some(t) = tol {
        // Residual estimate for Ritz pair i: |β_m · z[m-1, i]|.
        let beta_last = beta.get(m - 1).copied().unwrap_or(0.0);
        let worst = order
            .iter()
            .take(k)
            .map(|&i| (beta_last * z[(m - 1, i)]).abs())
            .fold(0.0f64, f64::max);
        if worst > t * scale {
            return Ok(None);
        }
    }

    let n = basis[0].len();
    let mut values = Vec::with_capacity(k);
    let mut vectors = Vec::with_capacity(k);
    for &i in order.iter().take(k) {
        values.push(d[i]);
        let mut v = vec![0.0; n];
        for (j, b) in basis.iter().take(m).enumerate() {
            axpy(z[(j, i)], b, &mut v);
        }
        normalize(&mut v);
        vectors.push(v);
    }
    Ok(Some(RitzPairs { values, vectors, scale }))
}

fn random_unit(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    if normalize(&mut v) == 0.0 && n > 0 {
        v[0] = 1.0;
    }
    v
}

/// A seeded unit vector orthogonal to `locked` and `basis`, or `None` when
/// they already span the space numerically.
fn orthogonal_start(n: usize, rng: &mut SplitMix64, locked: &[Vec<f64>], basis: &[Vec<f64>]) -> Option<Vec<f64>> {
    let mut fresh = random_unit(n, rng);
    for b in locked.iter().chain(basis) {
        let c = dot(b, &fresh);
        axpy(-c, b, &mut fresh);
    }
    (normalize(&mut fresh) > 1e-12).then_some(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::SymEigen;

    fn sym(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| f(i.min(j), i.max(j)));
        m.symmetrize_mut();
        m
    }

    #[test]
    fn matches_dense_solver_small() {
        let a = sym(12, |i, j| ((i * 3 + j) as f64).sin() + if i == j { 4.0 } else { 0.0 });
        let (vals, vecs) = lanczos_smallest(&a, 3, &LanczosConfig::default()).unwrap();
        let dense = SymEigen::compute(&a).unwrap();
        for (v, dv) in vals.iter().zip(dense.eigenvalues.iter()) {
            assert!((v - dv).abs() < 1e-7, "{v} vs {dv}");
        }
        // Residual check: ‖A v − λ v‖ small.
        for (i, &val) in vals.iter().enumerate() {
            let v = vecs.col(i);
            let mut av = vec![0.0; v.len()];
            a.apply_into(&v, &mut av);
            let res: f64 = av.iter().zip(v.iter()).map(|(x, y)| (x - val * y).powi(2)).sum::<f64>().sqrt();
            assert!(res < 1e-6, "residual {res}");
        }
    }

    #[test]
    fn diagonal_operator() {
        let diag: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = Matrix::from_diag(&diag);
        let (vals, _) = lanczos_smallest(&a, 4, &LanczosConfig::default()).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-6, "eigenvalue {i}: {v}");
        }
    }

    #[test]
    fn larger_than_initial_subspace() {
        let n = 80;
        let a = sym(n, |i, j| if i == j { (i % 7) as f64 + 1.0 } else if j == i + 1 { 0.5 } else { 0.0 });
        let (vals, vecs) = lanczos_smallest(&a, 5, &LanczosConfig { initial_subspace: 12, ..Default::default() }).unwrap();
        let dense = SymEigen::compute(&a).unwrap();
        for (v, dv) in vals.iter().zip(dense.eigenvalues.iter()) {
            assert!((v - dv).abs() < 1e-6);
        }
        let vtv = vecs.matmul_transpose_a(&vecs);
        assert!(vtv.approx_eq(&Matrix::identity(5), 1e-6));
    }

    #[test]
    fn disconnected_block_diagonal_breakdown_path() {
        // Two disconnected path-graph Laplacians → repeated zero eigenvalue,
        // Krylov breakdown from a vector inside one block's span is possible.
        let n = 16;
        let mut a = Matrix::zeros(n, n);
        for blk in 0..2 {
            let off = blk * 8;
            for i in 0..8 {
                let deg = if i == 0 || i == 7 { 1.0 } else { 2.0 };
                a[(off + i, off + i)] = deg;
                if i > 0 {
                    a[(off + i, off + i - 1)] = -1.0;
                    a[(off + i - 1, off + i)] = -1.0;
                }
            }
        }
        let (vals, _) = lanczos_smallest(&a, 2, &LanczosConfig::default()).unwrap();
        assert!(vals[0].abs() < 1e-7);
        assert!(vals[1].abs() < 1e-7, "second zero eigenvalue missed: {vals:?}");
    }

    #[test]
    fn keeps_every_copy_of_a_repeated_eigenvalue() {
        // Eigenvalue 1 with multiplicity 3 inside a spread spectrum: one
        // Krylov space sees a single direction of its eigenspace and
        // converges on [0.5, 1, 2, 3, 4] long before it could break down.
        let n = 200;
        let diag: Vec<f64> =
            (0..n).map(|i| if i == 0 { 0.5 } else if i <= 3 { 1.0 } else { (i - 2) as f64 }).collect();
        let a = Matrix::from_diag(&diag);
        let (vals, vecs) = lanczos_smallest(&a, 5, &LanczosConfig::default()).unwrap();
        for (v, want) in vals.iter().zip([0.5, 1.0, 1.0, 1.0, 2.0]) {
            assert!((v - want).abs() < 1e-7, "{vals:?}");
        }
        assert!(vecs.matmul_transpose_a(&vecs).approx_eq(&Matrix::identity(5), 1e-8));
        for (i, &val) in vals.iter().enumerate() {
            let v = vecs.col(i);
            let mut av = vec![0.0; v.len()];
            a.apply_into(&v, &mut av);
            let res: f64 = av.iter().zip(v.iter()).map(|(x, y)| (x - val * y).powi(2)).sum::<f64>().sqrt();
            assert!(res < 1e-6, "residual {res}");
        }
    }

    #[test]
    fn k_equals_n_exact() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let (vals, vecs) = lanczos_smallest(&a, 3, &LanczosConfig::default()).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-9);
        assert!((vals[2] - 3.0).abs() < 1e-9);
        assert!(vecs.matmul_transpose_a(&vecs).approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn zero_k_panics() {
        let a = Matrix::identity(3);
        let _ = lanczos_smallest(&a, 0, &LanczosConfig::default());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sym(20, |i, j| ((i + j) as f64).cos() + if i == j { 3.0 } else { 0.0 });
        let cfg = LanczosConfig { seed: 42, ..Default::default() };
        let (v1, m1) = lanczos_smallest(&a, 2, &cfg).unwrap();
        let (v2, m2) = lanczos_smallest(&a, 2, &cfg).unwrap();
        assert_eq!(v1, v2);
        assert!(m1.approx_eq(&m2, 0.0));
    }
}
