//! Microbench: the matrix-free operator layer (`umsc-op`) — one operator
//! application per node kind, under perfbench's `op.apply_block` layer: a
//! vector apply is the one-column block (`dense/{n}`), a block apply has
//! `{n}x{ncols}` in its id. The interesting comparisons: CSR vs dense on
//! the same normalized k-NN Laplacian (the sparse solver's whole premise),
//! the overhead a 3-view `WeightedSum` adds over its raw CSR members, and
//! the anchor solver's fused operator (`anchor_fused_operator`) over three
//! real anchor factors (`k = 5` nonzeros per row, as `AnchorUmsc` builds
//! them), timed at the gmm-anchor workload's shape (n = 10 000, 200
//! anchors per view).

use std::hint::black_box;
use umsc_bench::inputs::knn_laplacian;
use umsc_graph::{anchor_weights_sparse, normalized_factor_sparse, select_anchors, SparseFactor};
use umsc_linalg::Matrix;
use umsc_core::{anchor_fused_operator, AnchorLaplacian};
use umsc_op::{DenseOp, LinOp, WeightedSum};
use umsc_rt::bench::{smoke, Bench};
use umsc_rt::Rng;

/// Nearest anchors per point, as in `AnchorUmscConfig::new`.
const ANCHOR_NEIGHBORS: usize = 5;

/// A normalized anchor factor `B` as the anchor solver builds it: `m`
/// D²-sampled anchors over `n` Gaussian points in 8 dimensions around 10
/// centres, `k` nonzeros per row.
fn anchor_factor(n: usize, m: usize, seed: u64) -> SparseFactor {
    let mut rng = Rng::from_seed(seed);
    let centres = Matrix::from_fn(10, 8, |_, _| 3.0 * rng.normal());
    let x = Matrix::from_fn(n, 8, |i, j| centres[(i % 10, j)] + rng.normal());
    let anchors = select_anchors(&x, m, 0);
    normalized_factor_sparse(&anchor_weights_sparse(&x, &anchors, ANCHOR_NEIGHBORS)).0
}

/// The anchor solver's fused operator over three views' factors.
fn anchor_operator(n: usize, m: usize) -> AnchorLaplacian {
    let factors: Vec<SparseFactor> = (0..3).map(|v| anchor_factor(n, m, 17 + v)).collect();
    anchor_fused_operator(&factors, &[0.5, 0.3, 0.2])
}

fn test_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13 + 3) as f64).sin()).collect()
}

/// The operator views must agree bitwise before their timings mean
/// anything: CSR and dense wrap the very same matrix here.
fn spot_check(n: usize) {
    let csr = knn_laplacian(n);
    let a = csr.to_dense();
    let dense_op = DenseOp::new(n, a.as_slice());
    let x = test_vector(n);
    let (mut yd, mut ys, mut yw) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    dense_op.apply_into(&x, &mut yd);
    csr.apply_into(&x, &mut ys);
    assert_eq!(yd, ys, "CSR apply diverges from dense apply");
    let fused = WeightedSum::with_weights(vec![&csr], &[1.0]);
    fused.apply_into(&x, &mut yw);
    for (w, s) in yw.iter().zip(ys.iter()) {
        assert_eq!(w, s, "unit WeightedSum diverges from its single member");
    }
}

fn bench_vector_apply(samples: usize, sizes: &[usize], anchor: (usize, usize)) {
    let mut g = Bench::new("op.apply_block").sample_size(samples);
    for &n in sizes {
        let csrs = vec![knn_laplacian(n); 3];
        let a = csrs[0].to_dense();
        let x = test_vector(n);
        let mut y = vec![0.0; n];

        let dense_op = DenseOp::new(n, a.as_slice());
        g.run(&format!("dense/{n}"), || dense_op.apply_into(black_box(&x), &mut y));
        let csr_op = &csrs[0];
        g.run(&format!("csr/{n}"), || csr_op.apply_into(black_box(&x), &mut y));
        let fused =
            WeightedSum::with_weights(csrs.iter().collect(), &[0.5, 0.3, 0.2]);
        g.run(&format!("weighted_sum3/{n}"), || fused.apply_into(black_box(&x), &mut y));
    }
    let (n, m) = anchor;
    let op = anchor_operator(n, m);
    let x = test_vector(n);
    let mut y = vec![0.0; n];
    g.run(&format!("anchor3_k{ANCHOR_NEIGHBORS}_m{m}/{n}"), || op.apply_into(black_box(&x), &mut y));
}

fn bench_block_apply(samples: usize, sizes: &[usize], ncols: usize, anchor: (usize, usize)) {
    let mut g = Bench::new("op.apply_block").sample_size(samples);
    for &n in sizes {
        let csrs = vec![knn_laplacian(n); 3];
        let a = csrs[0].to_dense();
        let x: Vec<f64> = (0..n * ncols).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        let mut y = vec![0.0; n * ncols];

        let dense_op = DenseOp::new(n, a.as_slice());
        g.run(&format!("dense/{n}x{ncols}"), || {
            dense_op.apply_block_into(black_box(&x), ncols, &mut y)
        });
        let csr_op = &csrs[0];
        g.run(&format!("csr/{n}x{ncols}"), || {
            csr_op.apply_block_into(black_box(&x), ncols, &mut y)
        });
        let fused =
            WeightedSum::with_weights(csrs.iter().collect(), &[0.5, 0.3, 0.2]);
        g.run(&format!("weighted_sum3/{n}x{ncols}"), || {
            fused.apply_block_into(black_box(&x), ncols, &mut y)
        });
    }
    let (n, m) = anchor;
    let op = anchor_operator(n, m);
    let x: Vec<f64> = (0..n * ncols).map(|i| ((i * 7 + 1) as f64).sin()).collect();
    let mut y = vec![0.0; n * ncols];
    g.run(&format!("anchor3_k{ANCHOR_NEIGHBORS}_m{m}/{n}x{ncols}"), || {
        op.apply_block_into(black_box(&x), ncols, &mut y)
    });
}

/// Untimed counting pass: with tracing on, one apply per node kind so
/// the CSR row-chunk counter lands in the trajectory file. The timed
/// passes above run with tracing disabled so their medians stay
/// comparable with the pre-observability trajectory.
fn count_dispatch_rates(n: usize, ncols: usize, anchors: usize) {
    umsc_obs::set_enabled(true);
    let csr = knn_laplacian(n);
    let a = csr.to_dense();
    let anchor = anchor_operator(n, anchors);
    let x: Vec<f64> = (0..n * ncols).map(|i| ((i * 7 + 1) as f64).sin()).collect();
    let mut y = vec![0.0; n * ncols];
    csr.apply_into(&x[..n], &mut y[..n]);
    csr.apply_block_into(&x, ncols, &mut y);
    DenseOp::new(n, a.as_slice()).apply_block_into(&x, ncols, &mut y);
    anchor.apply_block_into(&x, ncols, &mut y);
    for (name, value) in umsc_obs::counters_snapshot() {
        umsc_rt::bench::record_counter("op.apply_block", &name, value);
    }
    umsc_obs::set_enabled(false);
}

fn main() {
    if smoke() {
        spot_check(96);
        bench_vector_apply(2, &[256], (256, 16));
        bench_block_apply(2, &[256], 4, (256, 16));
        count_dispatch_rates(256, 4, 16);
    } else {
        spot_check(512);
        bench_vector_apply(10, &[1024, 4096], (10_000, 200));
        bench_block_apply(10, &[1024, 4096], 8, (10_000, 200));
        count_dispatch_rates(4096, 8, 64);
    }
}
