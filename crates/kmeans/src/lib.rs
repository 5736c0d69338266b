//! # umsc-kmeans
//!
//! Lloyd's K-means with k-means++ seeding, empty-cluster repair and
//! multi-restart. This is the discretization step of every *two-stage*
//! spectral clustering baseline — exactly the component whose instability
//! the paper's one-stage method is designed to remove, so it is implemented
//! carefully and its restart-to-restart variance is measured in the ablation
//! bench.
//!
//! Determinism: every run is fully determined by [`KMeansConfig::seed`].

use umsc_linalg::ops::sq_dist;
use umsc_linalg::Matrix;
use umsc_rt::Rng;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Relative inertia improvement below which a restart stops early.
    pub tol: f64,
    /// Number of independent k-means++ restarts; the best (lowest inertia)
    /// result wins.
    pub n_init: usize,
    /// RNG seed (restart `r` uses `seed + r`).
    pub seed: u64,
}

impl KMeansConfig {
    /// Sensible defaults for `k` clusters: 100 iterations, 10 restarts.
    pub fn new(k: usize) -> Self {
        KMeansConfig { k, max_iter: 100, tol: 1e-7, n_init: 10, seed: 0 }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the restart count (builder style).
    pub fn with_restarts(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }
}

/// Output of a K-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster id per row of the input.
    pub labels: Vec<usize>,
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Lloyd iterations used by the winning restart.
    pub iterations: usize,
    /// Empty-cluster repairs performed by the winning restart.
    pub repairs: usize,
}

impl KMeansResult {
    /// Assigns new rows to the nearest learned centroid.
    ///
    /// # Panics
    /// Panics if the feature dimension differs from the centroids'.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert_eq!(
            x.cols(),
            self.centroids.cols(),
            "KMeansResult::predict: {} features, trained with {}",
            x.cols(),
            self.centroids.cols()
        );
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mut best = (0usize, f64::INFINITY);
                for j in 0..self.centroids.rows() {
                    let d = sq_dist(row, self.centroids.row(j));
                    if d < best.1 {
                        best = (j, d);
                    }
                }
                best.0
            })
            .collect()
    }
}

/// Runs multi-restart K-means on the rows of `x`.
///
/// ```
/// use umsc_kmeans::{kmeans, KMeansConfig};
/// use umsc_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0], vec![9.1]]);
/// let res = kmeans(&x, &KMeansConfig::new(2).with_seed(7));
/// assert_eq!(res.labels[0], res.labels[1]);
/// assert_ne!(res.labels[0], res.labels[2]);
/// assert!(res.inertia < 0.1);
/// ```
///
/// The assignment sweeps are threaded past the flop gate on a Lloyd
/// sweep's `2·n·d·k`. Each point's nearest centroid is found independently
/// and the inertia is summed sequentially in point order afterwards, so
/// the result is bitwise-identical for every thread count.
///
/// # Panics
/// Panics if `cfg.k == 0`, `cfg.k > x.rows()`, or `x` has no columns while
/// having rows.
pub fn kmeans(x: &Matrix, cfg: &KMeansConfig) -> KMeansResult {
    let threads = umsc_rt::par::threads_for(2 * x.rows() * x.cols().max(1) * cfg.k);
    let n = x.rows();
    assert!(cfg.k >= 1, "kmeans: k must be >= 1");
    assert!(cfg.k <= n, "kmeans: k = {} exceeds n = {n}", cfg.k);
    let mut best: Option<KMeansResult> = None;
    for restart in 0..cfg.n_init.max(1) {
        let result = kmeans_single(x, cfg, cfg.seed.wrapping_add(restart as u64), threads);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

/// Nearest-centroid assignment of every row of `x`, threaded over points:
/// returns `(label, sq-dist)` pairs in row order.
fn assign_points(x: &Matrix, centroids: &Matrix, threads: usize) -> Vec<(usize, f64)> {
    let k = centroids.rows();
    umsc_rt::par::parallel_map_range_with(threads, x.rows(), |i| {
        let row = x.row(i);
        let (mut best_j, mut best_d) = (0usize, f64::INFINITY);
        for j in 0..k {
            let dist = sq_dist(row, centroids.row(j));
            if dist < best_d {
                best_d = dist;
                best_j = j;
            }
        }
        (best_j, best_d)
    })
}

fn kmeans_single(x: &Matrix, cfg: &KMeansConfig, seed: u64, threads: usize) -> KMeansResult {
    let n = x.rows();
    let d = x.cols();
    let k = cfg.k;
    let mut rng = Rng::from_seed(seed);

    let mut centroids = plus_plus_init(x, k, &mut rng);
    let mut labels = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    let mut repairs = 0usize;

    for iter in 0..cfg.max_iter.max(1) {
        iterations = iter + 1;
        // Assignment step (threaded; inertia summed in point order so the
        // total is bitwise-independent of the thread count).
        let mut new_inertia = 0.0;
        for (i, (best_j, best_d)) in assign_points(x, &centroids, threads).into_iter().enumerate() {
            labels[i] = best_j;
            new_inertia += best_d;
        }

        // Update step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[labels[i]] += 1;
            let srow = sums.row_mut(labels[i]);
            for (s, &v) in srow.iter_mut().zip(x.row(i).iter()) {
                *s += v;
            }
        }
        // `live` tracks cluster sizes across repairs within this update
        // (the mean divisors keep the pre-repair `counts`).
        let mut live = counts.clone();
        for (j, &count) in counts.iter().enumerate() {
            if count == 0 {
                repair_empty_cluster(x, &mut centroids, &mut labels, &mut live, j);
                repairs += 1;
            } else {
                let inv = 1.0 / count as f64;
                let crow = centroids.row_mut(j);
                for (c, &s) in crow.iter_mut().zip(sums.row(j).iter()) {
                    *c = s * inv;
                }
            }
        }

        // Convergence: relative inertia improvement.
        let converged = inertia.is_finite() && (inertia - new_inertia) <= cfg.tol * inertia.max(1e-30);
        inertia = new_inertia;
        if converged {
            break;
        }
    }

    // Final assignment pass so labels match the last centroids exactly.
    let mut final_inertia = 0.0;
    for (i, (best_j, best_d)) in assign_points(x, &centroids, threads).into_iter().enumerate() {
        labels[i] = best_j;
        final_inertia += best_d;
    }
    // The final pass can re-empty a cluster the update-step repair just
    // filled: exact distance ties break toward the lower-index centroid,
    // so a centroid sharing its location with an earlier one loses every
    // point. Repair the final labeling too, so the result always has
    // exactly k non-empty clusters. Stealing a point only ever lowers the
    // inertia (its distance contribution drops to zero).
    let mut counts = vec![0usize; k];
    for &l in &labels {
        counts[l] += 1;
    }
    for j in 0..k {
        if counts[j] == 0 {
            let stolen = repair_empty_cluster(x, &mut centroids, &mut labels, &mut counts, j);
            final_inertia = (final_inertia - stolen).max(0.0);
            repairs += 1;
        }
    }
    KMeansResult { labels, centroids, inertia: final_inertia, iterations, repairs }
}

/// Fills empty cluster `j` by stealing the point farthest from its current
/// centroid, excluding points that are their cluster's only member —
/// stealing those would just move the hole (and with duplicate points the
/// old repair did exactly that, re-emptying the cluster it had just
/// filled). Returns the stolen point's previous squared distance; `counts`
/// is updated in place.
///
/// A candidate always exists: while some cluster is empty, the `n >= k`
/// points occupy at most `k − 1` clusters, so one holds at least two.
fn repair_empty_cluster(
    x: &Matrix,
    centroids: &mut Matrix,
    labels: &mut [usize],
    counts: &mut [usize],
    j: usize,
) -> f64 {
    let far = (0..x.rows())
        .filter(|&i| counts[labels[i]] > 1)
        .max_by(|&a, &b| {
            let da = sq_dist(x.row(a), centroids.row(labels[a]));
            let db = sq_dist(x.row(b), centroids.row(labels[b]));
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("n >= k leaves a multi-member cluster while any cluster is empty");
    let stolen = sq_dist(x.row(far), centroids.row(labels[far]));
    centroids.row_mut(j).copy_from_slice(x.row(far));
    counts[labels[far]] -= 1;
    counts[j] = 1;
    labels[far] = j;
    stolen
}

/// k-means++ seeding: first centroid uniform, each next centroid sampled
/// with probability proportional to squared distance from the nearest
/// already-chosen centroid.
fn plus_plus_init(x: &Matrix, k: usize, rng: &mut Rng) -> Matrix {
    let n = x.rows();
    let d = x.cols();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(x.row(first));

    let mut min_dist: Vec<f64> = (0..n).map(|i| sq_dist(x.row(i), centroids.row(0))).collect();
    for j in 1..k {
        // `choose_weighted` falls back to a uniform pick when every point
        // coincides with an already-chosen centroid (zero total mass).
        let chosen = rng.choose_weighted(&min_dist);
        centroids.row_mut(j).copy_from_slice(x.row(chosen));
        for (i, md) in min_dist.iter_mut().enumerate() {
            let dist = sq_dist(x.row(i), centroids.row(j));
            if dist < *md {
                *md = dist;
            }
        }
    }
    centroids
}

/// Computes the K-means inertia of an arbitrary labeling (for tests and
/// for scoring non-K-means discretizations on the same footing).
pub fn labeling_inertia(x: &Matrix, labels: &[usize], k: usize) -> f64 {
    assert_eq!(x.rows(), labels.len(), "labeling_inertia: length mismatch");
    let d = x.cols();
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < k, "labeling_inertia: label {l} out of range");
        counts[l] += 1;
        for (s, &v) in sums.row_mut(l).iter_mut().zip(x.row(i).iter()) {
            *s += v;
        }
    }
    for (j, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            for s in sums.row_mut(j) {
                *s *= inv;
            }
        }
    }
    labels.iter().enumerate().map(|(i, &l)| sq_dist(x.row(i), sums.row(l))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::par::with_threads;

    fn three_blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..12 {
                // Deterministic low-amplitude jitter.
                let a = (i as f64 * 2.39996) % (2.0 * std::f64::consts::PI);
                let r = 0.3 + 0.2 * ((i * 7 + c) as f64).sin().abs();
                rows.push(vec![cx + r * a.cos(), cy + r * a.sin()]);
                truth.push(c);
            }
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (x, truth) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(1));
        // Same partition as truth (label names may differ).
        for i in 0..truth.len() {
            for j in 0..truth.len() {
                assert_eq!(res.labels[i] == res.labels[j], truth[i] == truth[j], "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, _) = three_blobs();
        let a = kmeans(&x, &KMeansConfig::new(3).with_seed(7));
        let b = kmeans(&x, &KMeansConfig::new(3).with_seed(7));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (x, _) = three_blobs();
        let i2 = kmeans(&x, &KMeansConfig::new(2).with_seed(3)).inertia;
        let i3 = kmeans(&x, &KMeansConfig::new(3).with_seed(3)).inertia;
        let i6 = kmeans(&x, &KMeansConfig::new(6).with_seed(3)).inertia;
        assert!(i3 < i2);
        assert!(i6 <= i3 + 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]);
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(0));
        assert!(res.inertia < 1e-20);
        let mut l = res.labels.clone();
        l.sort_unstable();
        assert_eq!(l, vec![0, 1, 2]);
    }

    #[test]
    fn k_equals_one() {
        let (x, _) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(1).with_seed(0));
        assert!(res.labels.iter().all(|&l| l == 0));
        // Centroid is the mean.
        let mean_x: f64 = (0..x.rows()).map(|i| x[(i, 0)]).sum::<f64>() / x.rows() as f64;
        assert!((res.centroids[(0, 0)] - mean_x).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_handled() {
        let x = Matrix::from_rows(&vec![vec![1.0, 2.0]; 8]);
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(0));
        assert!(res.inertia < 1e-20);
        assert!(res.labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn labels_cover_all_clusters_on_separable_data() {
        let (x, _) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(11));
        let mut used: Vec<usize> = res.labels.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 3, "a cluster died on trivially separable data");
    }

    #[test]
    fn labeling_inertia_matches_result() {
        let (x, _) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(2));
        let recomputed = labeling_inertia(&x, &res.labels, 3);
        assert!((recomputed - res.inertia).abs() < 1e-9, "{recomputed} vs {}", res.inertia);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let (x, _) = three_blobs();
        let one = kmeans(&x, &KMeansConfig::new(3).with_seed(5).with_restarts(1)).inertia;
        let many = kmeans(&x, &KMeansConfig::new(3).with_seed(5).with_restarts(8)).inertia;
        assert!(many <= one + 1e-12);
    }

    #[test]
    fn threaded_assignment_is_bitwise_identical() {
        let (x, _) = three_blobs();
        let cfg = KMeansConfig::new(3).with_seed(13);
        let seq = with_threads(1, || kmeans(&x, &cfg));
        for t in [2, 3, 4, 8] {
            let par = with_threads(t, || kmeans(&x, &cfg));
            assert_eq!(seq.labels, par.labels, "labels differ at {t} threads");
            assert_eq!(seq.inertia.to_bits(), par.inertia.to_bits(), "inertia differs at {t} threads");
            assert_eq!(seq.centroids.as_slice(), par.centroids.as_slice());
            assert_eq!(seq.iterations, par.iterations);
        }
        // The implicit entry point agrees with the forced-sequential run.
        let auto = kmeans(&x, &cfg);
        assert_eq!(auto.labels, seq.labels);
        assert_eq!(auto.inertia.to_bits(), seq.inertia.to_bits());
    }

    #[test]
    fn empty_cluster_repair_yields_k_nonempty_clusters() {
        // Five points on two distinct locations, fit with k = 3: k-means++
        // must place two centroids on the same location (only two exist),
        // so the duplicate centroid loses every point to an exact-distance
        // tie at the first assignment — the empty-cluster repair path.
        // Before the repair was fixed it stole a point whose distance ties
        // at zero and lost it again in the final assignment pass, leaving
        // fewer than k clusters.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![10.0, 10.0],
            vec![10.0, 10.0],
        ]);
        let k = 3;
        let mut seeds_with_repair = 0usize;
        for seed in 0..50u64 {
            let cfg = KMeansConfig::new(k).with_seed(seed).with_restarts(1);
            let res = kmeans(&x, &cfg);
            if res.repairs > 0 {
                seeds_with_repair += 1;
            }
            let mut counts = vec![0usize; k];
            for &l in &res.labels {
                counts[l] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "empty cluster survived to the final labeling (seed {seed}): {counts:?}"
            );
            // Splitting duplicate locations costs nothing: the objective
            // stays at the two-location optimum despite the repairs.
            assert!(res.inertia < 1e-20, "seed {seed}: inertia {}", res.inertia);
            // Objective is non-increasing in the iteration budget even
            // across repairs (stealing the farthest point removes that
            // point's inertia contribution).
            let mut prev = f64::INFINITY;
            for max_iter in 1..=4 {
                let partial = kmeans(&x, &KMeansConfig { max_iter, ..cfg.clone() });
                assert!(
                    partial.inertia <= prev + 1e-12,
                    "objective rose (seed {seed}, max_iter {max_iter}): {prev} -> {}",
                    partial.inertia
                );
                prev = partial.inertia;
            }
        }
        assert!(
            seeds_with_repair > 0,
            "no seed in 0..50 exercised the empty-cluster repair path — construction too benign"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn k_larger_than_n_panics() {
        let x = Matrix::from_rows(&[vec![0.0]]);
        let _ = kmeans(&x, &KMeansConfig::new(2));
    }

    #[test]
    fn predict_assigns_nearest_centroid() {
        let (x, _) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(3).with_seed(1));
        // Training points map back to their own labels.
        assert_eq!(res.predict(&x), res.labels);
        // A fresh point near (10, 0) joins that blob's cluster.
        let probe = Matrix::from_rows(&[vec![10.2, -0.1]]);
        let assigned = res.predict(&probe)[0];
        let near_idx = (0..x.rows())
            .min_by(|&a, &b| {
                let da = umsc_linalg::ops::sq_dist(x.row(a), probe.row(0));
                let db = umsc_linalg::ops::sq_dist(x.row(b), probe.row(0));
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        assert_eq!(assigned, res.labels[near_idx]);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn predict_dimension_checked() {
        let (x, _) = three_blobs();
        let res = kmeans(&x, &KMeansConfig::new(2).with_seed(0));
        let _ = res.predict(&Matrix::zeros(1, 5));
    }
}
