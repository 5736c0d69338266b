//! Microbench: the embedding eigensolve of every spectral method in the
//! workspace — Lanczos for the 8 smallest eigenpairs — on a connected k-NN
//! Laplacian and on one with a repeated zero eigenvalue, whose missed
//! copies the restart runs recover.

use std::hint::black_box;
use umsc_bench::inputs::knn_laplacian;
use umsc_linalg::{lanczos_smallest, LanczosConfig, Matrix};
use umsc_rt::bench::{smoke, Bench};

/// Graph Laplacian of four disjoint banded graphs of unequal sizes (each
/// vertex linked to its next four, weights in `[0.5, 1]`, no wrap-around):
/// the eigenvalue 0 has multiplicity 4, and a single Lanczos run finds
/// only some of its copies at these sizes.
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
fn bench_lanczos_solve(samples: usize, sizes: &[usize]) {
    let mut g = Bench::new("lanczos.solve").sample_size(samples);
    for &n in sizes {
        let distinct = knn_laplacian(n);
        let repeated = four_components(n);
        g.run(&format!("distinct/{n}"), || {
            lanczos_smallest(black_box(&distinct), 8, &LanczosConfig::default()).unwrap()
        });
        g.run(&format!("repeated/{n}"), || {
            lanczos_smallest(black_box(&repeated), 8, &LanczosConfig::default()).unwrap()
        });
    }
}

fn main() {
    if smoke() {
        bench_lanczos_solve(2, &[48]);
    } else {
        bench_lanczos_solve(10, &[128, 256, 512]);
    }
}
