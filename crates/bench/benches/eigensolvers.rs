//! Microbench: the eigensolver substrate across problem sizes — dense QL
//! vs Jacobi (full spectrum), and Lanczos (partial spectrum, the
//! embedding solve of every spectral method in the workspace) on a
//! connected Laplacian and on one with a repeated zero eigenvalue, whose
//! missed copies the restart runs recover.

use std::hint::black_box;
use umsc_linalg::{jacobi_eigen, lanczos_smallest, LanczosConfig, Matrix, SymEigen};
use umsc_rt::bench::{smoke, Bench};

/// Banded symmetric diagonally-dominant matrix (Laplacian-shaped).
fn laplacian_like(n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let mut deg = 0.0;
        for off in 1..=4usize {
            let j = (i + off) % n;
            let w = 0.5 + 0.5 * ((i * 7 + j) as f64).sin().abs();
            m[(i, j)] = -w;
            m[(j, i)] = -w;
            deg += w;
        }
        m[(i, i)] += 2.0 * deg;
    }
    m.symmetrize_mut();
    m
}

fn bench_dense_eigen(samples: usize, sizes: &[usize], jacobi_cap: usize) {
    let mut g = Bench::new("dense_eigen_full_spectrum").sample_size(samples);
    for &n in sizes {
        let a = laplacian_like(n);
        g.run(&format!("ql_tridiag/{n}"), || SymEigen::compute_unchecked(black_box(&a)).unwrap());
        if n <= jacobi_cap {
            g.run(&format!("jacobi/{n}"), || jacobi_eigen(black_box(&a)).unwrap());
        }
    }
}

/// Graph Laplacian of four disjoint banded graphs of unequal sizes
/// (weights as in [`laplacian_like`], no wrap-around): the eigenvalue 0
/// has multiplicity 4, and a single Lanczos run finds only some of its
/// copies at these sizes.
fn four_components(n: usize) -> Matrix {
    let cuts = [0, n / 8, n / 8 + n / 4, n / 2 + n / 8, n];
    let mut m = Matrix::zeros(n, n);
    for w in cuts.windows(2) {
        for i in w[0]..w[1] {
            for j in (i + 1..=i + 4).take_while(|&j| j < w[1]) {
                let wt = 0.5 + 0.5 * ((i * 7 + j) as f64).sin().abs();
                m[(i, j)] = -wt;
                m[(j, i)] = -wt;
                m[(i, i)] += wt;
                m[(j, j)] += wt;
            }
        }
    }
    m
}

/// The 8 smallest eigenpairs, under the name of the solve's trace span.
fn bench_lanczos_solve(samples: usize, sizes: &[usize], dense_cap: usize) {
    let mut g = Bench::new("lanczos.solve").sample_size(samples);
    for &n in sizes {
        let distinct = laplacian_like(n);
        let repeated = four_components(n);
        g.run(&format!("distinct/{n}"), || {
            lanczos_smallest(black_box(&distinct), 8, &LanczosConfig::default()).unwrap()
        });
        g.run(&format!("repeated/{n}"), || {
            lanczos_smallest(black_box(&repeated), 8, &LanczosConfig::default()).unwrap()
        });
        if n <= dense_cap {
            g.run(&format!("dense_then_slice/{n}"), || {
                SymEigen::compute_unchecked(black_box(&distinct)).unwrap().smallest(8)
            });
        }
    }
}

fn main() {
    if smoke() {
        bench_dense_eigen(2, &[32], 32);
        bench_lanczos_solve(2, &[48], 48);
    } else {
        bench_dense_eigen(10, &[32, 64, 128, 256], 128);
        bench_lanczos_solve(10, &[128, 256, 512], 512);
    }
}
