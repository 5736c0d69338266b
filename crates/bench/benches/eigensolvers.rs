//! Microbench: the eigensolver substrate across problem sizes — dense QL
//! vs Jacobi (full spectrum) and Lanczos (partial spectrum), the cost
//! centers of every spectral method in the workspace.

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

fn bench_partial_eigen(samples: usize, sizes: &[usize], dense_cap: usize) {
    let mut g = Bench::new("partial_eigen_smallest_8").sample_size(samples);
    for &n in sizes {
        let a = laplacian_like(n);
        g.run(&format!("lanczos/{n}"), || {
            lanczos_smallest(black_box(&a), 8, &LanczosConfig::default()).unwrap()
        });
        if n <= dense_cap {
            g.run(&format!("dense_then_slice/{n}"), || {
                SymEigen::compute_unchecked(black_box(&a)).unwrap().smallest(8)
            });
        }
    }
}

fn main() {
    if smoke() {
        bench_dense_eigen(2, &[32], 32);
        bench_partial_eigen(2, &[48], 48);
    } else {
        bench_dense_eigen(10, &[32, 64, 128, 256], 128);
        bench_partial_eigen(10, &[128, 256, 512, 1024], 512);
    }
}
