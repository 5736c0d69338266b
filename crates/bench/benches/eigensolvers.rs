//! Microbench: the eigensolver substrate across problem sizes — dense QL
//! vs Jacobi (full spectrum) and Lanczos (partial spectrum), the cost
//! centers of every spectral method in the workspace.

use std::hint::black_box;
use umsc_linalg::{
    blanczos_smallest_ws, jacobi_eigen, lanczos_smallest, BlanczosConfig, BlanczosWorkspace,
    LanczosConfig, Matrix, SymEigen,
};
use umsc_rt::bench::{smoke, Bench};

/// Banded symmetric diagonally-dominant matrix (Laplacian-shaped) whose
/// off-diagonal weights are re-weighted by up to `±drift`, the way a
/// w-step moves the fused operator.
fn laplacian_like(n: usize, drift: f64) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let mut deg = 0.0;
        for off in 1..=4usize {
            let j = (i + off) % n;
            let w = (0.5 + 0.5 * ((i * 7 + j) as f64).sin().abs()) * (1.0 + drift * ((i + j) as f64).cos());
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
        let a = laplacian_like(n, 0.0);
        g.run(&format!("ql_tridiag/{n}"), || SymEigen::compute_unchecked(black_box(&a)).unwrap());
        if n <= jacobi_cap {
            g.run(&format!("jacobi/{n}"), || jacobi_eigen(black_box(&a)).unwrap());
        }
    }
}

fn bench_partial_eigen(samples: usize, sizes: &[usize], dense_cap: usize) {
    let mut g = Bench::new("partial_eigen_smallest_8").sample_size(samples);
    for &n in sizes {
        let a = laplacian_like(n, 0.0);
        g.run(&format!("lanczos/{n}"), || {
            lanczos_smallest(black_box(&a), 8, &LanczosConfig::default()).unwrap()
        });
        // Block Lanczos cold (fresh workspace each sample, random start
        // block) vs warm: every sample restarts from the Ritz subspace of
        // a drifted operator (off-diagonals re-weighted by up to ±10%),
        // as the fit's warm start re-solves the re-weighted operator from
        // the uniform one's eigenvectors.
        g.run(&format!("blanczos_cold/{n}"), || {
            let mut ws = BlanczosWorkspace::new();
            blanczos_smallest_ws(black_box(&a), 8, &BlanczosConfig::default(), &mut ws).unwrap();
            ws.values()[0]
        });
        let mut warm_ws = BlanczosWorkspace::new();
        blanczos_smallest_ws(&laplacian_like(n, 0.1), 8, &BlanczosConfig::default(), &mut warm_ws)
            .unwrap();
        let drifted_ritz = warm_ws.subspace().clone();
        g.run(&format!("blanczos_warm/{n}"), || {
            warm_ws.seed_from(&drifted_ritz);
            blanczos_smallest_ws(black_box(&a), 8, &BlanczosConfig::default(), &mut warm_ws)
                .unwrap();
            warm_ws.values()[0]
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
