//! Property tests: distance/affinity/Laplacian invariants on arbitrary
//! point clouds, CSR ↔ dense agreement, and bitwise equality of the
//! streamed k-NN / CAN builder and the bounded selectors with the
//! sort-based and dense constructions they replaced.

use umsc_graph::{
    adaptive_neighbor_affinity, anchor_weights, anchor_weights_sparse, cosine_distance_matrix, degrees,
    gaussian_affinity, knn_affinity, neighbor_graph, normalized_laplacian, pairwise_sq_distances,
    select_anchors, unnormalized_laplacian, Bandwidth, CsrMatrix, Metric, Neighbors, TILE_ROWS,
};
use umsc_linalg::{LinOp, Matrix, SymEigen};
use umsc_rt::check::{check, Config};
use umsc_rt::par::with_threads;
use umsc_rt::{ensure, Rng};

fn cfg() -> Config {
    Config::cases(32)
}

fn points(rng: &mut Rng, n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |_, _| rng.gen_range_f64(-10.0, 10.0))
}

/// `m` compacted into CSR.
fn csr(m: &Matrix) -> CsrMatrix {
    CsrMatrix::from_dense(m.rows(), m.cols(), m.as_slice())
}

/// `a` densified.
fn dense(a: &CsrMatrix) -> Matrix {
    Matrix::from_vec(a.rows(), a.cols(), a.to_dense())
}

#[test]
fn distances_are_a_metric_skeleton() {
    check(&cfg(), |rng| points(rng, 8, 3), |x| {
        let d = pairwise_sq_distances(x);
        ensure!(d.is_symmetric(1e-9));
        for i in 0..8 {
            ensure!(d[(i, i)] == 0.0);
            for j in 0..8 {
                ensure!(d[(i, j)] >= 0.0);
            }
        }
        // Triangle inequality on the *square roots*.
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..8 {
                    let (a, b, c) = (d[(i, j)].sqrt(), d[(j, k)].sqrt(), d[(i, k)].sqrt());
                    ensure!(c <= a + b + 1e-9);
                }
            }
        }
        Ok(())
    });
}

#[test]
fn affinity_in_unit_interval_and_symmetric() {
    check(&cfg(), |rng| points(rng, 7, 2), |x| {
        let d = pairwise_sq_distances(x);
        for bw in [Bandwidth::Global(1.0), Bandwidth::SelfTuning { k: 3 }] {
            let w = gaussian_affinity(&d, &bw);
            ensure!(w.is_symmetric(1e-12));
            ensure!(w.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
            for i in 0..7 {
                ensure!(w[(i, i)] == 0.0);
            }
        }
        Ok(())
    });
}

#[test]
fn laplacians_are_psd_with_zero_eigenvalue() {
    check(&cfg(), |rng| points(rng, 8, 2), |x| {
        let d = pairwise_sq_distances(x);
        let w = gaussian_affinity(&d, &Bandwidth::SelfTuning { k: 3 });
        for l in [unnormalized_laplacian(&w), normalized_laplacian(&w)] {
            let eig = SymEigen::compute(&l).unwrap();
            ensure!(eig.eigenvalues[0].abs() < 1e-8, "λ_min = {}", eig.eigenvalues[0]);
            ensure!(eig.eigenvalues.iter().all(|&v| v > -1e-8));
        }
        // Degrees are the row sums.
        let deg = degrees(&w);
        for (i, &g) in deg.iter().enumerate() {
            let s: f64 = w.row(i).iter().sum();
            ensure!((g - s).abs() < 1e-12);
        }
        Ok(())
    });
}

#[test]
fn can_affinity_valid() {
    check(&cfg(), |rng| points(rng, 9, 2), |x| {
        let d = pairwise_sq_distances(x);
        let w = adaptive_neighbor_affinity(&d, 3);
        ensure!(w.is_symmetric(1e-12));
        ensure!(w.as_slice().iter().all(|&v| v >= 0.0 && v.is_finite()));
        for i in 0..9 {
            ensure!(w[(i, i)] == 0.0);
            // Each row touches at least one neighbour.
            ensure!(w.row(i).iter().any(|&v| v > 0.0));
        }
        Ok(())
    });
}

#[test]
fn csr_round_trips_dense() {
    check(&cfg(), |rng| umsc_linalg::testkit::vector(rng, 30, -3.0, 3.0), |v| {
        let m = Matrix::from_vec(5, 6, v.clone());
        let s = csr(&m);
        ensure!(dense(&s).approx_eq(&m, 0.0));
        // Transpose twice is identity.
        ensure!(dense(&s.transpose().transpose()).approx_eq(&m, 0.0));
        // The operator apply (square only) agrees with the dense product
        // on the leading 5×5 block.
        let m5 = Matrix::from_fn(5, 5, |i, j| m[(i, j)]);
        let s5 = csr(&m5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![0.0; 5];
        s5.apply_into(&x, &mut y);
        let yd = m5.matmul(&Matrix::from_vec(5, 1, x));
        for (a, b) in y.iter().zip(yd.as_slice()) {
            ensure!((a - b).abs() < 1e-10);
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Streamed k-NN / CAN builder vs the sort-based reference construction
// ---------------------------------------------------------------------------

mod oracle {
    //! The sort-based graph construction the streamed builder replaced:
    //! full-GEMM distance matrices, a dense Gaussian, and a stable sort of
    //! every row. Kept verbatim as the reference the selector must match.
    //! The anchor graph's references are the sequential scalar loops the
    //! threaded, lane-blocked builders replaced.

    use std::cmp::Ordering;
    use std::collections::HashMap;
    use umsc_graph::{Bandwidth, CsrMatrix, Metric};
    use umsc_linalg::Matrix;
    use umsc_rt::SplitMix64;

    pub fn distances(x: &Matrix, metric: Metric) -> Matrix {
        let n = x.rows();
        // Entry by entry from the scalar dot product, not from the Gram
        // kernel under test.
        let gram = Matrix::from_fn(n, n, |i, j| umsc_linalg::ops::dot(x.row(i), x.row(j)));
        let sq: Vec<f64> = (0..n).map(|i| umsc_linalg::ops::dot(x.row(i), x.row(i))).collect();
        let norms: Vec<f64> = (0..n).map(|i| umsc_linalg::ops::norm2(x.row(i))).collect();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                return 0.0;
            }
            match metric {
                Metric::Euclidean => (sq[i] + sq[j] - 2.0 * gram[(i, j)]).max(0.0),
                Metric::Cosine => {
                    let denom = norms[i] * norms[j];
                    let c = if denom > 0.0 { (1.0 - gram[(i, j)] / denom).clamp(0.0, 2.0) } else { 1.0 };
                    c * c
                }
            }
        })
    }

    fn sorted_neighbors(d: &[f64], skip: Option<usize>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..d.len()).filter(|&j| Some(j) != skip).collect();
        order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(Ordering::Equal));
        order
    }

    pub fn gaussian(d: &Matrix, bw: &Bandwidth) -> Matrix {
        let n = d.rows();
        let denom: Box<dyn Fn(usize, usize) -> f64> = match bw {
            Bandwidth::Global(s) => {
                let v = 2.0 * s * s;
                Box::new(move |_, _| v)
            }
            Bandwidth::SelfTuning { k } => {
                // σ_i from the sorted row, then floored at 1e-8·max(σ̄, 1)
                // with σ̄ the mean of the unfloored σ_i in index order.
                let mut local: Vec<f64> = (0..n)
                    .map(|i| {
                        let order = sorted_neighbors(d.row(i), Some(i));
                        if order.is_empty() {
                            return 1.0;
                        }
                        let idx = (*k).min(order.len()).saturating_sub(1);
                        d[(i, order[idx])].sqrt()
                    })
                    .collect();
                let mut sum = 0.0;
                for &s in &local {
                    sum += s;
                }
                let floor = 1e-8 * (sum / n as f64).max(1.0);
                for s in &mut local {
                    *s = s.max(floor);
                }
                Box::new(move |i, j| (local[i] * local[j]).max(f64::MIN_POSITIVE))
            }
        };
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = (-d[(i, j)] / denom(i, j)).exp();
                w[(i, j)] = v;
                w[(j, i)] = v;
            }
        }
        w
    }

    pub fn symmetrize_max(a: &CsrMatrix) -> CsrMatrix {
        let mut map: HashMap<(usize, usize), f64> = HashMap::new();
        for i in 0..a.rows() {
            for (&j, &v) in a.row_entries(i) {
                let e = map.entry((i, j)).or_insert(f64::NEG_INFINITY);
                *e = e.max(v);
                let e = map.entry((j, i)).or_insert(f64::NEG_INFINITY);
                *e = e.max(v);
            }
        }
        let triplets: Vec<(usize, usize, f64)> = map.into_iter().map(|((i, j), v)| (i, j, v)).collect();
        CsrMatrix::from_triplets(a.rows(), a.cols(), &triplets)
    }

    pub fn knn(d: &Matrix, k: usize, bw: &Bandwidth) -> CsrMatrix {
        let n = d.rows();
        let dense = gaussian(d, bw);
        let mut triplets = Vec::new();
        for i in 0..n {
            for &j in sorted_neighbors(d.row(i), Some(i)).iter().take(k) {
                triplets.push((i, j, dense[(i, j)]));
            }
        }
        symmetrize_max(&CsrMatrix::from_triplets(n, n, &triplets))
    }

    /// CAN closed form over the sorted candidates of one row.
    fn simplex_row(dist: &[f64], order: &[usize], k: usize, out: &mut [f64]) {
        let dk1 = if k < order.len() { dist[order[k]] } else { dist[order[k - 1]] };
        let top_sum: f64 = order.iter().take(k).map(|&j| dist[j]).sum();
        let denom = k as f64 * dk1 - top_sum;
        for &j in order.iter().take(k) {
            out[j] = if denom > 1e-12 { (dk1 - dist[j]) / denom } else { 1.0 / k as f64 };
        }
    }

    /// The dense CAN graph the streamed CAN kind replaced: an `n × n`
    /// simplex matrix `S`, row by row, then `(S + Sᵀ)/2` entrywise.
    pub fn can(d: &Matrix, k: usize) -> Matrix {
        let n = d.rows();
        let mut s = Matrix::zeros(n, n);
        for i in 0..n {
            let order = sorted_neighbors(d.row(i), Some(i));
            simplex_row(d.row(i), &order, k, s.row_mut(i));
        }
        Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
    }

    pub fn anchor_weights(x: &Matrix, anchors: &Matrix, k: usize) -> Matrix {
        let m = anchors.rows();
        let mut z = Matrix::zeros(x.rows(), m);
        for i in 0..x.rows() {
            let dist: Vec<f64> = (0..m).map(|j| umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j))).collect();
            let order = sorted_neighbors(&dist, None);
            simplex_row(&dist, &order, k, z.row_mut(i));
        }
        z
    }

    /// D² anchor sampling as one sequential loop of scalar distances.
    pub fn select_anchors(x: &Matrix, m: usize, seed: u64) -> Matrix {
        let n = x.rows();
        let d = x.cols();
        let mut rng = SplitMix64::new(seed);
        let mut anchors = Matrix::zeros(m, d);

        let first = (rng.next_u64() % n as u64) as usize;
        anchors.row_mut(0).copy_from_slice(x.row(first));
        let mut min_dist: Vec<f64> =
            (0..n).map(|i| umsc_linalg::ops::sq_dist(x.row(i), anchors.row(0))).collect();

        for j in 1..m {
            let total: f64 = min_dist.iter().sum();
            let pick = if total <= 0.0 {
                (rng.next_u64() % n as u64) as usize
            } else {
                let mut target = rng.next_f64() * total;
                let mut pick = n - 1;
                for (i, &w) in min_dist.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            anchors.row_mut(j).copy_from_slice(x.row(pick));
            for (i, md) in min_dist.iter_mut().enumerate() {
                let dist = umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j));
                if dist < *md {
                    *md = dist;
                }
            }
        }
        anchors
    }
}

/// Bitwise CSR equality (NaN weights of degenerate bandwidths included).
fn same_csr(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    let bits = |m: &CsrMatrix| -> Vec<(usize, usize, u64)> {
        (0..m.rows()).flat_map(|i| m.row_entries(i).map(move |(&j, &v)| (i, j, v.to_bits()))).collect()
    };
    a.rows() == b.rows() && a.cols() == b.cols() && bits(a) == bits(b)
}

/// Point clouds where ties decide: random, duplicated rows on an integer
/// grid, and all-equal rows; a zero row exercises the cosine convention.
fn tie_cases(rng: &mut Rng, n: usize) -> Vec<(&'static str, Matrix)> {
    let random = Matrix::from_fn(n, 3, |_, _| rng.normal());
    let grid = Matrix::from_fn(n, 2, |_, _| rng.gen_range(0..3) as f64);
    let mut zero_row = Matrix::from_fn(n, 4, |_, _| rng.gen_range_f64(-1.0, 1.0));
    zero_row.row_mut(n / 2).fill(0.0);
    // Nine copies of the origin and a row 1e-7 from them, in a wide cloud:
    // the copies' self-tuning σ is the floor, and their edges to the near
    // row weigh exp(−1e-7/floor), so the floor's value shows in the bits.
    let mut near = Matrix::from_fn(n, 2, |_, _| 10.0 * rng.normal());
    for i in 0..n.min(10) {
        near.row_mut(i).fill(0.0);
    }
    if n > 9 {
        near[(9, 0)] = 1e-7;
    }
    vec![
        ("random", random),
        ("grid duplicates", grid),
        ("all equal", Matrix::filled(n, 2, 1.5)),
        ("zero row", zero_row),
        ("near duplicates", near),
    ]
}

fn bandwidths() -> [Bandwidth; 3] {
    [Bandwidth::Global(0.8), Bandwidth::SelfTuning { k: 7 }, Bandwidth::SelfTuning { k: 0 }]
}

#[test]
fn streamed_graph_matches_sort_based_oracle_bitwise() {
    let b = TILE_ROWS;
    let mut rng = Rng::from_seed(0x57_4ea4);
    for n in [2, 3, b - 1, b, b + 1, 2 * b + 7] {
        for (what, x) in tie_cases(&mut rng, n) {
            for metric in [Metric::Euclidean, Metric::Cosine] {
                let d = oracle::distances(&x, metric);
                let dense = match metric {
                    Metric::Euclidean => pairwise_sq_distances(&x),
                    Metric::Cosine => cosine_distance_matrix(&x).map(|v| v * v),
                };
                assert_eq!(dense.as_slice(), d.as_slice(), "half-flop distances, n={n} {what} {metric:?}");
                // k = 1, the default 10, and k ≥ n−1 (clamped).
                for bandwidth in bandwidths() {
                    for k in [1, 10, n + 5] {
                        let neighbors = Neighbors::Knn { k, bandwidth };
                        let expect = oracle::knn(&d, k, &bandwidth);
                        let front = knn_affinity(&d, k, &bandwidth);
                        let ctx = format!("n={n} {what} {metric:?} {neighbors:?}");
                        assert!(same_csr(&front, &expect), "precomputed front-end, {ctx}:\n{front:?}\n{expect:?}");
                        for threads in [1, 2, 3, 8] {
                            let got = with_threads(threads, || neighbor_graph(&x, metric, neighbors));
                            assert!(same_csr(&got, &expect), "streamed builder, {ctx}, threads={threads}");
                        }
                    }
                }
                // CAN: the streamed kind and its dense front-end both equal
                // the dense construction they replaced.
                for k in [1, 10, n + 5] {
                    let expect = oracle::can(&d, k.min(n - 1));
                    let ctx = format!("CAN n={n} {what} {metric:?} k={k}");
                    let front = adaptive_neighbor_affinity(&d, k.min(n - 1));
                    assert_eq!(bits(&front), bits(&expect), "precomputed front-end, {ctx}");
                    let expect = csr(&expect);
                    for threads in [1, 2, 3, 8] {
                        let got = with_threads(threads, || neighbor_graph(&x, metric, Neighbors::Adaptive { k }));
                        assert!(same_csr(&got, &expect), "streamed builder, {ctx}, threads={threads}");
                    }
                }
            }
        }
    }
}

/// The `to_bits` of every entry of a dense matrix.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn streamed_graph_matches_oracle_on_random_clouds() {
    check(&cfg(), |rng| points(rng, 40, 3), |x| {
        let d = oracle::distances(x, Metric::Euclidean);
        let bandwidth = Bandwidth::SelfTuning { k: 7 };
        let got = neighbor_graph(x, Metric::Euclidean, Neighbors::Knn { k: 5, bandwidth });
        ensure!(got == oracle::knn(&d, 5, &bandwidth));
        let got = neighbor_graph(x, Metric::Euclidean, Neighbors::Adaptive { k: 5 });
        ensure!(got == csr(&oracle::can(&d, 5)));
        Ok(())
    });
}

#[test]
fn can_and_anchor_selectors_match_sort_based_oracle_bitwise() {
    let mut rng = Rng::from_seed(0xca11);
    for n in [3, 12, 41] {
        for (what, x) in tie_cases(&mut rng, n) {
            let d = oracle::distances(&x, Metric::Euclidean);
            for k in [1, 2, 5, n - 1] {
                if k >= n {
                    continue;
                }
                let got = adaptive_neighbor_affinity(&d, k);
                assert_eq!(got.as_slice(), oracle::can(&d, k).as_slice(), "CAN n={n} {what} k={k}");
            }
            let anchors = Matrix::from_fn(7.min(n), x.cols(), |i, j| x[(i * 2 % n, j)]);
            for k in 1..=anchors.rows() {
                let got = anchor_weights(&x, &anchors, k);
                let expect = oracle::anchor_weights(&x, &anchors, k);
                assert_eq!(got.as_slice(), expect.as_slice(), "anchor n={n} {what} k={k}");
                // The CSR builder stores exactly the oracle's nonzeros.
                let sparse = anchor_weights_sparse(&x, &anchors, k);
                let expect_csr = csr(&expect);
                assert!(same_csr(&sparse, &expect_csr), "sparse anchor n={n} {what} k={k}");
            }
        }
    }
}

/// Point sets where the D² draw and the anchor ranking meet ties: random,
/// rows repeated from a few distinct grid rows, and all-equal rows, whose
/// distances are all zero so every draw is the uniform one.
fn anchor_cases(rng: &mut Rng, n: usize, d: usize) -> Vec<(&'static str, Matrix)> {
    let random = Matrix::from_fn(n, d, |_, _| rng.normal());
    let distinct = Matrix::from_fn(n.div_ceil(4), d, |_, _| rng.gen_range(0..3) as f64);
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..distinct.rows())).collect();
    let duplicates = Matrix::from_fn(n, d, |i, j| distinct[(picks[i], j)]);
    vec![("random", random), ("duplicate rows", duplicates), ("all equal", Matrix::filled(n, d, 1.5))]
}

#[test]
fn threaded_anchor_graph_matches_sequential_oracle_bitwise() {
    let mut rng = Rng::from_seed(0xa9c4);
    for n in [1, 3, 4, 5, 127, 1001] {
        for d in [1, 3, 64] {
            for (what, x) in anchor_cases(&mut rng, n, d) {
                for m in [1, 3, 4, 5, 9].into_iter().filter(|&m| m <= n) {
                    let seed = rng.next_u64();
                    let anchors = oracle::select_anchors(&x, m, seed);
                    let ctx = format!("n={n} d={d} {what} m={m}");
                    assert_eq!(bits(&select_anchors(&x, m, seed)), bits(&anchors), "select_anchors, {ctx}");
                    for threads in [1, 2, 3, 8] {
                        let got = with_threads(threads, || select_anchors(&x, m, seed));
                        assert_eq!(bits(&got), bits(&anchors), "select_anchors, {ctx}, threads={threads}");
                    }
                    for k in 1..=m {
                        let expect = csr(&oracle::anchor_weights(&x, &anchors, k));
                        assert!(same_csr(&anchor_weights_sparse(&x, &anchors, k), &expect), "weights, {ctx} k={k}");
                        for threads in [1, 2, 3, 8] {
                            let got = with_threads(threads, || anchor_weights_sparse(&x, &anchors, k));
                            assert!(same_csr(&got, &expect), "weights, {ctx} k={k}, threads={threads}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn symmetrize_max_matches_hash_map_reference() {
    check(&cfg(), |rng| umsc_linalg::testkit::vector(rng, 49, -1.0, 1.0), |v| {
        // Sparse-ish asymmetric pattern with some exact zeros.
        let m = Matrix::from_vec(7, 7, v.iter().map(|&a| if a < 0.2 { 0.0 } else { a }).collect());
        let a = csr(&m);
        ensure!(a.symmetrize_max() == oracle::symmetrize_max(&a));
        Ok(())
    });
}
