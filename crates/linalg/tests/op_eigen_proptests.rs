//! Property tests for the matrix-free eigensolver path: `lanczos_smallest`
//! driven through composed [`umsc_op`] operators must agree with the dense
//! eigensolvers on the equivalent materialized matrix. This is the
//! correctness contract the sparse solver's warm start stands on — the
//! operator layer may never change *what* is computed, only *how*.
//!
//! Eigen**values** and residuals `‖A v − λ v‖` are compared, never
//! eigenvectors: degenerate or clustered eigenvalues make the eigenvector
//! basis non-unique, and a vector comparison would flake exactly on the
//! (legitimate) inputs where two solvers pick different bases.

use umsc_linalg::testkit::spd_matrix;
use umsc_linalg::{jacobi_eigen, lanczos_smallest, LanczosConfig, Matrix};
use umsc_op::{DenseOp, DiagShift, LinOp, LowRankAnchor, WeightedSum};
use umsc_rt::check::{check, Config};
use umsc_rt::ensure;

fn cfg() -> Config {
    Config::cases(32).seed(0xB0B)
}

fn lanczos_cfg(n: usize) -> LanczosConfig {
    LanczosConfig { seed: 0x5eed, initial_subspace: n, ..Default::default() }
}

/// Smallest `k` eigenvalues of a dense symmetric matrix via Jacobi —
/// the independent reference implementation.
fn jacobi_smallest(a: &Matrix, k: usize) -> Vec<f64> {
    let (vals, _) = jacobi_eigen(a).unwrap();
    vals[..k].to_vec()
}

/// Residual check `‖A v_i − λ_i v_i‖ ≤ tol` for every returned pair,
/// with `A` given densely.
fn residuals_ok(a: &Matrix, vals: &[f64], vecs: &Matrix, tol: f64) -> Result<(), String> {
    let n = a.rows();
    for (i, &lambda) in vals.iter().enumerate() {
        let v: Vec<f64> = (0..n).map(|r| vecs[(r, i)]).collect();
        let mut av = vec![0.0; n];
        a.apply_into(&v, &mut av);
        let res: f64 = av
            .iter()
            .zip(v.iter())
            .map(|(&avr, &vr)| (avr - lambda * vr).powi(2))
            .sum::<f64>()
            .sqrt();
        ensure!(res < tol, "pair {i}: residual {res} > {tol}");
    }
    Ok(())
}

#[test]
fn lanczos_over_weighted_sum_matches_jacobi() {
    let (n, k) = (12, 3);
    check(
        &cfg(),
        |rng| {
            let mats: Vec<Matrix> = (0..3).map(|_| spd_matrix(rng, n)).collect();
            let weights: Vec<f64> = (0..3).map(|_| rng.gen_range_f64(0.1, 1.0)).collect();
            (mats, weights)
        },
        |(mats, weights)| {
            let ops: Vec<DenseOp<'_>> =
                mats.iter().map(|m| DenseOp::new(n, m.as_slice())).collect();
            let fused = WeightedSum::with_weights(ops, weights);
            let (vals, vecs) = lanczos_smallest(&fused, k, &lanczos_cfg(n)).unwrap();

            let mut dense = Matrix::zeros(n, n);
            for (m, &w) in mats.iter().zip(weights.iter()) {
                dense.axpy(w, m);
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}

#[test]
fn lanczos_over_diag_shift_matches_jacobi() {
    let (n, k) = (10, 2);
    check(
        &cfg(),
        |rng| (spd_matrix(rng, n), rng.gen_range_f64(1.0, 5.0)),
        |(a, sigma)| {
            let op = DiagShift::new(*sigma, DenseOp::new(n, a.as_slice()));
            let (vals, vecs) = lanczos_smallest(&op, k, &lanczos_cfg(n)).unwrap();

            let mut dense = a.scale(-1.0);
            for i in 0..n {
                dense[(i, i)] = sigma - a[(i, i)];
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}

#[test]
fn lanczos_over_shifted_low_rank_matches_jacobi() {
    // A shifted weighted sum of low-rank terms, σI − Σ_v w_v B_v B_vᵀ with
    // tall-thin factors, never materialized.
    let (n, m, k) = (14, 4, 3);
    check(
        &cfg(),
        |rng| {
            let factors: Vec<Matrix> =
                (0..2).map(|_| umsc_linalg::testkit::matrix(rng, n, m)).collect();
            let weights: Vec<f64> = (0..2).map(|_| rng.gen_range_f64(0.2, 1.0)).collect();
            (factors, weights)
        },
        |(factors, weights)| {
            let ops: Vec<LowRankAnchor<'_>> = factors
                .iter()
                .map(|b| LowRankAnchor::new(n, m, b.as_slice()))
                .collect();
            let shift = 2.0 * weights.iter().sum::<f64>();
            let op = DiagShift::new(shift, WeightedSum::with_weights(ops, weights));
            let (vals, vecs) = lanczos_smallest(&op, k, &lanczos_cfg(n)).unwrap();

            let mut dense = Matrix::zeros(n, n);
            for (b, &w) in factors.iter().zip(weights.iter()) {
                let bbt = b.matmul(&b.transpose());
                dense.axpy(-w, &bbt);
            }
            for i in 0..n {
                dense[(i, i)] += shift;
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}
