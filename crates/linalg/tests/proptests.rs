//! Property-based tests: the eigensolvers, SVD, QR and solvers must satisfy
//! their defining algebraic identities on arbitrary well-scaled inputs, and
//! the two independent eigensolver implementations must agree.

use umsc_linalg::testkit::{matrix, spd_matrix, sym_matrix};
use umsc_linalg::{cholesky, jacobi_eigen, polar_orthogonalize, procrustes, qr, Matrix, Svd, SymEigen};
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
fn qr_identities() {
    check(&cfg(), |rng| matrix(rng, 7, 4), |a| {
        let d = qr(a);
        ensure!(d.q.matmul(&d.r).approx_eq(a, 1e-9 * (1.0 + a.max_abs())));
        ensure!(d.q.matmul_transpose_a(&d.q).approx_eq(&Matrix::identity(4), 1e-9));
        for j in 0..4 {
            ensure!(d.r[(j, j)] >= 0.0, "canonical R diagonal must be non-negative");
        }
        Ok(())
    });
}

#[test]
fn cholesky_reconstructs() {
    check(&cfg(), |rng| spd_matrix(rng, 5), |a| {
        let l = cholesky(a).unwrap();
        ensure!(l.matmul_transpose_b(&l).approx_eq(a, 1e-8 * (1.0 + a.max_abs())));
        Ok(())
    });
}

#[test]
fn procrustes_is_optimal_orthogonal() {
    check(&cfg(), |rng| matrix(rng, 3, 3), |m| {
        let r = procrustes(m).unwrap();
        ensure!(r.matmul_transpose_a(&r).approx_eq(&Matrix::identity(3), 1e-8));
        let best = r.matmul_transpose_a(m).trace();
        // Any random rotation built from QR of a perturbation can't beat it.
        let q = qr(m).q;
        ensure!(q.matmul_transpose_a(m).trace() <= best + 1e-7);
        Ok(())
    });
}

#[test]
fn polar_projects_to_stiefel() {
    check(&cfg(), |rng| matrix(rng, 6, 3), |m| {
        let f = polar_orthogonalize(m).unwrap();
        ensure!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(3), 1e-8));
        // Maximality of tr(FᵀM) against the QR orthonormalization.
        let q = qr(m).q;
        ensure!(q.matmul_transpose_a(m).trace() <= f.matmul_transpose_a(m).trace() + 1e-7);
        Ok(())
    });
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
