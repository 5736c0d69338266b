//! Property tests for the anchor-graph substrate: Z rows are sparse
//! probability distributions, the induced affinity is row-stochastic, the
//! construction is deterministic, and every product with a sparse factor
//! is bitwise-identical to the dense kernel it replaced.

use umsc_graph::{
    anchor_view_factor, anchor_weights, anchor_weights_sparse, normalized_factor,
    normalized_factor_sparse, select_anchors, SparseFactor,
};
use umsc_linalg::Matrix;
use umsc_op::{dense_rows_into, LinOp, LowRankAnchor};
use umsc_rt::check::{check, Config};
use umsc_rt::par::with_threads;
use umsc_rt::{ensure, Rng};

fn cfg() -> Config {
    Config::cases(24)
}

fn points(rng: &mut Rng, n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |_, _| rng.gen_range_f64(-10.0, 10.0))
}

fn dense(b: &SparseFactor) -> Matrix {
    Matrix::from_vec(b.rows(), b.cols(), b.csr().to_dense())
}

#[test]
fn z_rows_are_sparse_distributions() {
    check(
        &cfg(),
        |rng| (points(rng, 25, 3), rng.gen_range(3..10), rng.gen_range(1..4)),
        |(x, m, k)| {
            let k = (*k).min(*m);
            let anchors = select_anchors(x, *m, 1);
            let z = anchor_weights(x, &anchors, k);
            for i in 0..25 {
                let row = z.row(i);
                let s: f64 = row.iter().sum();
                ensure!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
                ensure!(row.iter().all(|&v| v >= 0.0 && v.is_finite()));
                ensure!(row.iter().filter(|&&v| v > 0.0).count() <= k);
            }
            Ok(())
        },
    );
}

#[test]
fn induced_affinity_row_stochastic() {
    check(&cfg(), |rng| (points(rng, 20, 2), rng.gen_range(4..9)), |(x, m)| {
        let (b, _) = anchor_view_factor(x, *m, 3.min(*m), 0);
        let b = dense(&b);
        let w = b.matmul_transpose_b(&b);
        for i in 0..20 {
            let s: f64 = w.row(i).iter().sum();
            ensure!((s - 1.0).abs() < 1e-8, "row {i} sums to {s}");
            ensure!(w.row(i).iter().all(|&v| v >= -1e-12));
        }
        // Symmetric by construction.
        ensure!(w.is_symmetric(1e-10));
        Ok(())
    });
}

#[test]
fn deterministic_in_seed() {
    check(
        &cfg(),
        |rng| (points(rng, 15, 2), rng.gen_range(0..100) as u64),
        |(x, seed)| {
            let a1 = select_anchors(x, 5, *seed);
            let a2 = select_anchors(x, 5, *seed);
            ensure!(a1.approx_eq(&a2, 0.0));
            let z1 = normalized_factor(&anchor_weights(x, &a1, 2));
            let z2 = normalized_factor(&anchor_weights(x, &a2, 2));
            ensure!(z1.approx_eq(&z2, 0.0));
            Ok(())
        },
    );
}

#[test]
fn anchors_are_actual_points() {
    check(&cfg(), |rng| (points(rng, 12, 2), rng.gen_range(1..6)), |(x, m)| {
        let anchors = select_anchors(x, *m, 3);
        for j in 0..*m {
            let found = (0..12).any(|i| umsc_linalg::ops::sq_dist(anchors.row(j), x.row(i)) < 1e-18);
            ensure!(found, "anchor {j} is not a data point");
        }
        Ok(())
    });
}

/// The dense `Z Zᵀ X` kernel `LowRankAnchor` ran before its factor went
/// sparse, kept as the bitwise oracle: `T = ZᵀX` summed over ascending
/// rows, then `Y = Z T` by the dense row kernel, both from an exact `0.0`
/// with the zero-skip.
fn dense_low_rank_oracle(z: &Matrix, x: &[f64], ncols: usize) -> Vec<f64> {
    let (n, m) = z.shape();
    let mut t = vec![0.0; m * ncols];
    for (j, trow) in t.chunks_exact_mut(ncols).enumerate() {
        for i in 0..n {
            let a = z[(i, j)];
            if a == 0.0 {
                continue;
            }
            for (o, &b) in trow.iter_mut().zip(&x[i * ncols..(i + 1) * ncols]) {
                *o += a * b;
            }
        }
    }
    let mut y = vec![0.0; n * ncols];
    for (i, yrow) in y.chunks_exact_mut(ncols).enumerate() {
        for (p, &a) in z.row(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in yrow.iter_mut().zip(&t[p * ncols..(p + 1) * ncols]) {
                *o += a * b;
            }
        }
    }
    y
}

/// Anchor factors where ties decide: random points, duplicated points on
/// an integer grid (tied `d_{k+1}` gives exact-zero simplex weights), and
/// all-equal points.
fn tie_factors(rng: &mut Rng) -> Vec<(&'static str, Matrix, SparseFactor)> {
    let n = 40;
    let random = points(rng, n, 3);
    let grid = Matrix::from_fn(n, 2, |_, _| rng.gen_range(0..3) as f64);
    let same = Matrix::from_fn(n, 2, |_, _| 1.5);
    [("random", random), ("grid", grid), ("duplicates", same)]
        .into_iter()
        .map(|(what, x)| {
            let anchors = select_anchors(&x, 9, 4);
            let z = anchor_weights(&x, &anchors, 4);
            let (b, _) = normalized_factor_sparse(&anchor_weights_sparse(&x, &anchors, 4));
            (what, z, b)
        })
        .collect()
}

#[test]
fn sparse_low_rank_apply_matches_dense_kernel_bitwise() {
    let mut rng = Rng::from_seed(0xa1c0);
    let mut zero_weights = 0;
    for (what, z, b) in tie_factors(&mut rng) {
        let (n, m) = b.shape();
        zero_weights += n * 4 - z.as_slice().iter().filter(|&&v| v != 0.0).count();
        let bd = normalized_factor(&z);
        assert_eq!(dense(&b).as_slice(), bd.as_slice(), "{what}: factor");
        for ncols in [1, 3] {
            let x: Vec<f64> = (0..n * ncols).map(|_| rng.normal()).collect();
            let expect = dense_low_rank_oracle(&bd, &x, ncols);
            let compacted = LowRankAnchor::new(n, m, bd.as_slice());
            for threads in 1..=4 {
                // The built factor's own products, as the anchor fit runs them.
                let (mut t, mut y) = (vec![f64::NAN; m * ncols], vec![f64::NAN; n * ncols]);
                with_threads(threads, || {
                    b.mul_transpose_into(&x, ncols, &mut t);
                    b.mul_into(&t, ncols, &mut y);
                });
                assert_eq!(y, expect, "{what} ncols={ncols} threads={threads}");
                let mut y = vec![f64::NAN; n * ncols];
                with_threads(threads, || compacted.apply_block_into(&x, ncols, &mut y));
                assert_eq!(y, expect, "{what} ncols={ncols} threads={threads} compacted");
            }
            let mut y = vec![f64::NAN; n * ncols];
            if ncols == 1 {
                compacted.apply_into(&x, &mut y);
            } else {
                compacted.apply_block_into(&x, ncols, &mut y);
            }
            assert_eq!(y, expect, "{what} ncols={ncols} gated");
        }
    }
    assert!(zero_weights > 0, "no case produced an exact-zero simplex weight");
}

#[test]
fn sparse_factor_products_match_dense_matmuls_bitwise() {
    let mut rng = Rng::from_seed(0xb7);
    for (what, _, b) in tie_factors(&mut rng) {
        let (n, m) = b.shape();
        let bd = dense(&b);
        let c = 3;
        let f = Matrix::from_fn(n, c, |_, _| rng.normal());
        let p = Matrix::from_fn(m, c, |_, _| rng.normal());
        for threads in 1..=4 {
            let mut btf = vec![f64::NAN; m * c];
            with_threads(threads, || b.mul_transpose_into(f.as_slice(), c, &mut btf));
            assert_eq!(btf, with_threads(threads, || bd.matmul_transpose_a(&f)).as_slice(), "{what} Bᵀ·F");
            let mut bp = vec![f64::NAN; n * c];
            with_threads(threads, || b.mul_into(p.as_slice(), c, &mut bp));
            let mut dense_bp = vec![f64::NAN; n * c];
            dense_rows_into(threads, bd.as_slice(), m, p.as_slice(), c, &mut dense_bp);
            assert_eq!(bp, dense_bp, "{what} B·P");
        }
    }
}
