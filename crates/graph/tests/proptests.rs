//! Property tests: distance/affinity/Laplacian invariants on arbitrary
//! point clouds, CSR ↔ dense agreement, and bitwise equality of the
//! streamed k-NN / ε builder and the bounded selectors with the sort-based
//! construction they replaced.

use umsc_graph::{
    adaptive_neighbor_affinity, anchor_weights, cosine_distance_matrix, degrees, epsilon_affinity,
    gaussian_affinity, knn_affinity, neighbor_graph, neighbor_graph_with_threads,
    normalized_laplacian, pairwise_sq_distances, unnormalized_laplacian, Bandwidth, CsrMatrix,
    Metric, Neighbors, TILE_ROWS,
};
use umsc_linalg::{Matrix, SymEigen};
use umsc_rt::check::{check, Config};
use umsc_rt::{ensure, Rng};

fn cfg() -> Config {
    Config::cases(32)
}

fn points(rng: &mut Rng, n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |_, _| rng.gen_range_f64(-10.0, 10.0))
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
        for bw in [Bandwidth::Global(1.0), Bandwidth::MeanDistance, Bandwidth::SelfTuning { k: 3 }] {
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
        let w = gaussian_affinity(&d, &Bandwidth::MeanDistance);
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
        let s = CsrMatrix::from_dense(&m, 0.0);
        ensure!(s.to_dense().approx_eq(&m, 0.0));
        // spmv agrees with dense matvec.
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![0.0; 5];
        s.spmv(&x, &mut y);
        let yd = m.matvec(&x);
        for (a, b) in y.iter().zip(yd.iter()) {
            ensure!((a - b).abs() < 1e-10);
        }
        // Transpose twice is identity.
        ensure!(s.transpose().transpose().to_dense().approx_eq(&m, 0.0));
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Streamed k-NN / ε builder vs the sort-based reference construction
// ---------------------------------------------------------------------------

mod oracle {
    //! The sort-based graph construction the streamed builder replaced:
    //! full-GEMM distance matrices, a dense Gaussian, and a stable sort of
    //! every row. Kept verbatim as the reference the selector must match.

    use std::cmp::Ordering;
    use std::collections::HashMap;
    use umsc_graph::{Bandwidth, CsrMatrix, Metric};
    use umsc_linalg::Matrix;

    pub fn distances(x: &Matrix, metric: Metric) -> Matrix {
        let n = x.rows();
        let gram = x.matmul_transpose_b_with_threads(1, x);
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

    fn mean_distance(d: &Matrix) -> f64 {
        let n = d.rows();
        if n < 2 {
            return 1.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                sum += d[(i, j)].sqrt();
            }
        }
        sum / (n * (n - 1) / 2) as f64
    }

    pub fn gaussian(d: &Matrix, bw: &Bandwidth) -> Matrix {
        let n = d.rows();
        let denom: Box<dyn Fn(usize, usize) -> f64> = match bw {
            Bandwidth::Global(s) => {
                let v = 2.0 * s * s;
                Box::new(move |_, _| v)
            }
            Bandwidth::MeanDistance => {
                let s = mean_distance(d).max(f64::MIN_POSITIVE);
                let v = 2.0 * s * s;
                Box::new(move |_, _| v)
            }
            Bandwidth::SelfTuning { k } => {
                let mean = mean_distance(d);
                let local: Vec<f64> = (0..n)
                    .map(|i| {
                        let order = sorted_neighbors(d.row(i), Some(i));
                        if order.is_empty() {
                            return 1.0;
                        }
                        let idx = (*k).min(order.len()).saturating_sub(1);
                        d[(i, order[idx])].sqrt().max(1e-8 * mean.max(1.0))
                    })
                    .collect();
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

    pub fn epsilon(d: &Matrix, eps: f64, bw: &Bandwidth) -> CsrMatrix {
        let n = d.rows();
        let dense = gaussian(d, bw);
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if d[(i, j)] <= eps * eps {
                    triplets.push((i, j, dense[(i, j)]));
                    triplets.push((j, i, dense[(i, j)]));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets)
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
    vec![
        ("random", random),
        ("grid duplicates", grid),
        ("all equal", Matrix::filled(n, 2, 1.5)),
        ("zero row", zero_row),
    ]
}

fn bandwidths() -> [Bandwidth; 4] {
    [Bandwidth::Global(0.8), Bandwidth::MeanDistance, Bandwidth::SelfTuning { k: 7 }, Bandwidth::SelfTuning { k: 0 }]
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
                let graphs = [Neighbors::Knn(1), Neighbors::Knn(10), Neighbors::Knn(n + 5), Neighbors::Epsilon(0.9)];
                for neighbors in graphs {
                    for bw in bandwidths() {
                        let expect = match neighbors {
                            Neighbors::Knn(k) => oracle::knn(&d, k, &bw),
                            Neighbors::Epsilon(eps) => oracle::epsilon(&d, eps, &bw),
                        };
                        let front = match neighbors {
                            Neighbors::Knn(k) => knn_affinity(&d, k, &bw),
                            Neighbors::Epsilon(eps) => epsilon_affinity(&d, eps, &bw),
                        };
                        let ctx = format!("n={n} {what} {metric:?} {neighbors:?} {bw:?}");
                        assert!(same_csr(&front, &expect), "precomputed front-end, {ctx}:\n{front:?}\n{expect:?}");
                        for threads in [1, 2, 3, 8] {
                            let got = neighbor_graph_with_threads(threads, &x, metric, neighbors, &bw);
                            assert!(same_csr(&got, &expect), "streamed builder, {ctx}, threads={threads}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn streamed_graph_matches_oracle_on_random_clouds() {
    check(&cfg(), |rng| points(rng, 40, 3), |x| {
        let d = oracle::distances(x, Metric::Euclidean);
        let bw = Bandwidth::SelfTuning { k: 7 };
        let got = neighbor_graph(x, Metric::Euclidean, Neighbors::Knn(5), &bw);
        ensure!(got == oracle::knn(&d, 5, &bw));
        let got = neighbor_graph(x, Metric::Euclidean, Neighbors::Epsilon(6.0), &bw);
        ensure!(got == oracle::epsilon(&d, 6.0, &bw));
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
            }
        }
    }
}

#[test]
fn symmetrize_max_matches_hash_map_reference() {
    check(&cfg(), |rng| umsc_linalg::testkit::vector(rng, 49, -1.0, 1.0), |v| {
        // Sparse-ish asymmetric pattern with some exact zeros.
        let m = Matrix::from_vec(7, 7, v.iter().map(|&a| if a < 0.2 { 0.0 } else { a }).collect());
        let a = CsrMatrix::from_dense(&m, 0.0);
        ensure!(a.symmetrize_max() == oracle::symmetrize_max(&a));
        Ok(())
    });
}
