//! Property-based tests: the eigensolvers, SVD and orthogonalizations must
//! satisfy their defining algebraic identities on arbitrary well-scaled
//! inputs, and the two independent eigensolver implementations must agree.

use umsc_linalg::testkit::{matrix, sym_matrix};
use umsc_linalg::{jacobi_eigen, polar_orthogonalize, procrustes, Matrix, Svd, SymEigen};
use umsc_rt::check::{check, Config};
use umsc_rt::ensure;

fn cfg() -> Config {
    Config::cases(48)
}

#[test]
fn eigen_satisfies_definition() {
    check(&cfg(), |rng| sym_matrix(rng, 6), |a| {
        let eig = SymEigen::compute(a).unwrap();
        // A·V = V·diag(λ)
        ensure!(eig.max_residual(a) < 1e-8 * (1.0 + a.max_abs()));
        // Orthonormal V.
        let vtv = eig.eigenvectors.matmul_transpose_a(&eig.eigenvectors);
        ensure!(vtv.approx_eq(&Matrix::identity(6), 1e-9));
        // Trace and ascending order.
        let sum: f64 = eig.eigenvalues.iter().sum();
        ensure!((sum - a.trace()).abs() < 1e-8 * (1.0 + a.max_abs()));
        for w in eig.eigenvalues.windows(2) {
            ensure!(w[0] <= w[1] + 1e-12);
        }
        Ok(())
    });
}

#[test]
fn eigensolvers_agree() {
    check(&cfg(), |rng| sym_matrix(rng, 5), |a| {
        let ql = SymEigen::compute(a).unwrap();
        let (jac, _) = jacobi_eigen(a).unwrap();
        for (x, y) in ql.eigenvalues.iter().zip(jac.iter()) {
            ensure!((x - y).abs() < 1e-7 * (1.0 + a.max_abs()), "{x} vs {y}");
        }
        Ok(())
    });
}

#[test]
fn gershgorin_bounds_spectrum() {
    check(&cfg(), |rng| sym_matrix(rng, 6), |a| {
        let eig = SymEigen::compute(a).unwrap();
        let bound = a.gershgorin_upper_bound();
        ensure!(eig.eigenvalues.last().unwrap() <= &(bound + 1e-9));
        Ok(())
    });
}

#[test]
fn svd_identities() {
    check(&cfg(), |rng| matrix(rng, 6, 4), |a| {
        let svd = Svd::compute(a).unwrap();
        ensure!(svd.reconstruct().approx_eq(a, 1e-8 * (1.0 + a.max_abs())));
        ensure!(svd.u.matmul_transpose_a(&svd.u).approx_eq(&Matrix::identity(4), 1e-9));
        ensure!(svd.v.matmul_transpose_a(&svd.v).approx_eq(&Matrix::identity(4), 1e-9));
        // Frobenius norm equals sqrt of sum of squared singular values.
        let fro2: f64 = svd.s.iter().map(|s| s * s).sum();
        ensure!((fro2.sqrt() - a.frobenius_norm()).abs() < 1e-8 * (1.0 + a.frobenius_norm()));
        Ok(())
    });
}

#[test]
fn svd_wide_matches_tall_of_transpose() {
    check(&cfg(), |rng| matrix(rng, 3, 7), |a| {
        let s1 = Svd::compute(a).unwrap();
        let s2 = Svd::compute(&a.transpose()).unwrap();
        for (x, y) in s1.s.iter().zip(s2.s.iter()) {
            ensure!((x - y).abs() < 1e-9 * (1.0 + a.max_abs()));
        }
        Ok(())
    });
}

#[test]
fn procrustes_is_optimal_orthogonal() {
    check(&cfg(), |rng| matrix(rng, 3, 3), |m| {
        let r = procrustes(m).unwrap();
        ensure!(r.matmul_transpose_a(&r).approx_eq(&Matrix::identity(3), 1e-8));
        let best = r.matmul_transpose_a(m).trace();
        // No other orthogonal matrix beats it.
        let q = polar_orthogonalize(&m.map(f64::sin)).unwrap();
        ensure!(q.matmul_transpose_a(m).trace() <= best + 1e-7);
        Ok(())
    });
}

#[test]
fn polar_projects_to_stiefel() {
    check(&cfg(), |rng| matrix(rng, 6, 3), |m| {
        let f = polar_orthogonalize(m).unwrap();
        ensure!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(3), 1e-8));
        // Maximality of tr(FᵀM) against another orthonormal frame.
        let q = polar_orthogonalize(&m.map(f64::sin)).unwrap();
        ensure!(q.matmul_transpose_a(m).trace() <= f.matmul_transpose_a(m).trace() + 1e-7);
        Ok(())
    });
}

/// `U·diag(s)·Vᵀ` with orthonormal `U` (`n × k`), orthogonal `V` and
/// singular values spread geometrically from `scale` down to
/// `scale / cond`, in a random order.
fn with_condition(rng: &mut umsc_rt::Rng, cond: f64) -> Matrix {
    let k = rng.gen_range(1..9);
    let n = k + rng.gen_range(0..60);
    let u = polar_orthogonalize(&matrix(rng, n, k)).unwrap();
    let v = polar_orthogonalize(&matrix(rng, k, k)).unwrap();
    let scale = rng.gen_range_f64(0.1, 10.0);
    let mut s: Vec<f64> =
        (0..k).map(|i| scale * cond.powf(-(i as f64) / (k.max(2) - 1) as f64)).collect();
    rng.shuffle(&mut s);
    let us = Matrix::from_fn(n, k, |i, j| u[(i, j)] * s[j]);
    us.matmul_transpose_b(&v)
}

/// The polar factor matches the SVD oracle `U Vᵀ` on both sides of the
/// Gram route's conditioning bound (`cond(M) ≤ √1000 ≈ 31.6`): the Gram
/// route up to 30, the SVD fallback from 35.
#[test]
fn polar_matches_svd_oracle_across_condition_numbers() {
    for cond in [1.0, 10.0, 30.0, 35.0, 99.0, 1e3, 1e5] {
        check(&Config::cases(24), |rng| with_condition(rng, cond), |m| {
            let f = polar_orthogonalize(m).unwrap();
            let svd = Svd::compute(m).unwrap();
            let oracle = svd.u.matmul_transpose_b(&svd.v);
            let dist = (&f - &oracle).max_abs();
            ensure!(dist <= 1e-12, "cond {cond}: max |F − F_svd| = {dist:e}");
            let ortho = (&f.matmul_transpose_a(&f) - &Matrix::identity(m.cols())).max_abs();
            ensure!(ortho <= 1e-12, "cond {cond}: max |FᵀF − I| = {ortho:e}");
            Ok(())
        });
    }
}

#[test]
fn matmul_associativity() {
    check(
        &cfg(),
        |rng| (matrix(rng, 3, 4), matrix(rng, 4, 2), matrix(rng, 2, 5)),
        |(a, b, c)| {
            let left = a.matmul(b).matmul(c);
            let right = a.matmul(&b.matmul(c));
            ensure!(left.approx_eq(&right, 1e-9 * (1.0 + left.max_abs())));
            Ok(())
        },
    );
}

#[test]
fn transpose_of_product() {
    check(&cfg(), |rng| (matrix(rng, 3, 4), matrix(rng, 4, 2)), |(a, b)| {
        let lhs = a.matmul(b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        ensure!(lhs.approx_eq(&rhs, 1e-10));
        Ok(())
    });
}
