//! The dense-input, CSR and anchor fits share one validation routine and
//! one engine, so they must accept, reject and degenerate identically:
//!
//! - every malformed input is an `InvalidInput` error on every path that
//!   accepts it, and none panics; a non-finite Laplacian or factor entry
//!   is one, named by its view, and so is a Laplacian that is not
//!   symmetric;
//! - `c = 1` is the cold eigensolve of the uniform operator, so dense and
//!   sparse fits of the same Laplacians return the same embedding;
//! - the two-stage `KMeans` ablation runs on the sparse path too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use umsc_core::{
    build_view_laplacians_sparse, AnchorUmsc, AnchorUmscConfig, Discretization, Umsc, UmscConfig,
    UmscError, UmscResult, Weighting,
};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_data::MultiViewDataset;
use umsc_graph::{anchor_view_factor, CsrMatrix, SparseFactor};
use umsc_linalg::Matrix;

fn gmm(clusters: usize, per: usize, seed: u64) -> MultiViewDataset {
    let views = vec![ViewSpec::clean(5), ViewSpec::clean(6), ViewSpec::clean(4)];
    let mut gen = MultiViewGmm::new("validation", clusters, per, views);
    gen.separation = 5.0;
    gen.generate(seed)
}

/// The same views in all three representations.
struct Inputs {
    dense: Vec<Matrix>,
    sparse: Vec<CsrMatrix>,
    factors: Vec<SparseFactor>,
}

impl Inputs {
    fn new(data: &MultiViewDataset) -> Self {
        let sparse = build_view_laplacians_sparse(data, &UmscConfig::new(2).graph_config()).unwrap();
        let dense = sparse.iter().map(|l| Matrix::from_vec(l.rows(), l.cols(), l.to_dense())).collect();
        let factors = data.views.iter().map(|x| anchor_view_factor(x, 12, 4, 3).0).collect();
        Inputs { dense, sparse, factors }
    }

    /// Fits all three paths with `c` clusters and the given weighting.
    fn fit_all(&self, c: usize, weighting: &Weighting, disc: &Discretization) -> [umsc_core::Result<UmscResult>; 3] {
        self.fit_all_with(UmscConfig::new(c).with_weighting(weighting.clone()).with_discretization(disc.clone()))
    }

    /// Fits all three paths with `cfg`; the anchor fit takes its cluster
    /// count, weighting, λ and sweep cap.
    fn fit_all_with(&self, cfg: UmscConfig) -> [umsc_core::Result<UmscResult>; 3] {
        let mut anchor_cfg = AnchorUmscConfig::new(cfg.num_clusters).with_lambda(cfg.lambda);
        anchor_cfg.weighting = cfg.weighting.clone();
        anchor_cfg.max_iter = cfg.max_iter;
        let model = Umsc::new(cfg);
        [
            model.fit_laplacians(&self.dense),
            model.fit_laplacians_sparse(&self.sparse),
            AnchorUmsc::new(anchor_cfg).fit_sparse_factors(&self.factors),
        ]
    }
}

#[test]
fn every_path_rejects_the_same_inputs() {
    let data = gmm(3, 10, 1);
    let n = data.n();
    let good = Inputs::new(&data);
    let empty = Inputs { dense: Vec::new(), sparse: Vec::new(), factors: Vec::new() };
    let mismatched = Inputs {
        dense: vec![good.dense[0].clone(), Matrix::identity(n + 1)],
        sparse: vec![good.sparse[0].clone(), CsrMatrix::identity(n + 1)],
        factors: vec![good.factors[0].clone(), SparseFactor::new(CsrMatrix::zeros(n + 1, 12))],
    };
    let fixed = |w: &[f64]| Weighting::Fixed(w.to_vec());
    let cases: Vec<(&str, &Inputs, usize, Weighting)> = vec![
        ("no views", &empty, 3, Weighting::Auto),
        ("size mismatch", &mismatched, 3, Weighting::Auto),
        ("c = 0", &good, 0, Weighting::Auto),
        ("c > n", &good, n + 1, Weighting::Auto),
        ("fixed weight count", &good, 3, fixed(&[1.0, 2.0])),
        ("negative fixed weight", &good, 3, fixed(&[1.0, -1.0, 0.5])),
        ("NaN fixed weight", &good, 3, fixed(&[1.0, f64::NAN, 0.5])),
        ("infinite fixed weight", &good, 3, fixed(&[1.0, f64::INFINITY, 0.5])),
        ("all-zero fixed weights", &good, 3, fixed(&[0.0, 0.0, 0.0])),
    ];
    for (case, inputs, c, weighting) in cases {
        let fits = catch_unwind(AssertUnwindSafe(|| inputs.fit_all(c, &weighting, &Discretization::Rotation)))
            .unwrap_or_else(|_| panic!("{case}: a fit panicked"));
        for (path, res) in ["dense", "sparse", "anchor"].iter().zip(fits) {
            assert!(
                matches!(res, Err(UmscError::InvalidInput(_))),
                "{case}: {path} returned {:?} instead of InvalidInput",
                res.map(|r| r.labels.len())
            );
        }
    }
    // The anchor fit fixes its own GPI cap, so only the dense and sparse
    // configs can ask for zero GPI iterations.
    let model = Umsc::new(UmscConfig { gpi_max_iter: 0, ..UmscConfig::new(3) });
    let fits = catch_unwind(AssertUnwindSafe(|| {
        [("dense", model.fit_laplacians(&good.dense)), ("sparse", model.fit_laplacians_sparse(&good.sparse))]
    }))
    .unwrap_or_else(|_| panic!("gpi_max_iter = 0: a fit panicked"));
    for (path, res) in fits {
        assert!(
            matches!(res, Err(UmscError::InvalidInput(_))),
            "gpi_max_iter = 0: {path} returned {:?} instead of InvalidInput",
            res.map(|r| r.labels.len())
        );
    }
    // A Laplacian that is not symmetric within 1e-8·max|L| is rejected,
    // naming its view, on both Laplacian entries.
    let mut dense = good.dense.clone();
    dense[1][(ROW, ROW + 1)] += 1e-3;
    let sparse: Vec<CsrMatrix> = dense.iter().map(|l| CsrMatrix::from_dense(l.rows(), l.cols(), l.as_slice())).collect();
    let model = Umsc::new(UmscConfig::new(3));
    let fits = catch_unwind(AssertUnwindSafe(|| {
        [("dense", model.fit_laplacians(&dense)), ("sparse", model.fit_laplacians_sparse(&sparse))]
    }))
    .unwrap_or_else(|_| panic!("asymmetric Laplacian: a fit panicked"));
    for (path, res) in fits {
        assert_rejects_view_one(path, res);
    }
    // The valid baseline passes everywhere.
    for res in good.fit_all(3, &fixed(&[1.0, 2.0, 0.5]), &Discretization::Rotation) {
        assert_eq!(res.unwrap().labels.len(), n);
    }
}

#[test]
fn every_path_rejects_a_bad_lambda_or_no_sweeps() {
    // A non-finite λ used to end in an opaque SVD non-convergence, a
    // negative one in an `Ok` fit that rewards moving away from the
    // indicator, and `max_iter = 0` in an `Ok` fit with no sweep, so no
    // objective.
    let good = Inputs::new(&gmm(3, 10, 1));
    let cases = [
        ("λ = NaN", f64::NAN, 50),
        ("λ = ∞", f64::INFINITY, 50),
        ("λ = −∞", f64::NEG_INFINITY, 50),
        ("λ = −5", -5.0, 50),
        ("max_iter = 0", 1.0, 0),
    ];
    for (case, lambda, max_iter) in cases {
        let cfg = UmscConfig { lambda, max_iter, ..UmscConfig::new(3) };
        let fits = catch_unwind(AssertUnwindSafe(|| good.fit_all_with(cfg)))
            .unwrap_or_else(|_| panic!("{case}: a fit panicked"));
        for (path, res) in ["dense", "sparse", "anchor"].iter().zip(fits) {
            assert!(
                matches!(res, Err(UmscError::InvalidInput(_))),
                "{case}: {path} returned {:?} instead of InvalidInput",
                res.map(|r| r.history.len())
            );
        }
    }
    // λ = 0 (no rotation term) and one sweep stay valid.
    for res in good.fit_all_with(UmscConfig { lambda: 0.0, max_iter: 1, ..UmscConfig::new(3) }) {
        assert_eq!(res.unwrap().history.len(), 1);
    }
}

#[test]
fn single_cluster_is_the_cold_uniform_eigensolve_on_every_path() {
    // One blob: a connected graph, so the smallest eigenvector is unique.
    let inputs = Inputs::new(&gmm(1, 40, 2));
    let [dense, sparse, anchor] = inputs.fit_all(1, &Weighting::Auto, &Discretization::Rotation);
    let (dense, sparse, anchor) = (dense.unwrap(), sparse.unwrap(), anchor.unwrap());
    for res in [&dense, &sparse, &anchor] {
        assert!(res.labels.iter().all(|&l| l == 0));
        assert!(res.converged && res.history.is_empty());
        assert_eq!(res.embedding.shape(), (40, 1));
        let norm = res.embedding.frobenius_norm();
        assert!((norm - 1.0).abs() < 1e-9, "embedding norm {norm}");
        assert!(res.view_weights.iter().all(|&w| (w - 1.0 / 3.0).abs() < 1e-15));
    }
    let dot = umsc_linalg::ops::dot(dense.embedding.as_slice(), sparse.embedding.as_slice());
    assert!(dot.abs() > 1.0 - 1e-8, "dense and sparse c = 1 embeddings disagree: |<f_d, f_s>| = {}", dot.abs());
}

#[test]
fn sparse_kmeans_runs_the_two_stage_loop() {
    let data = gmm(3, 15, 3);
    let inputs = Inputs::new(&data);
    let kmeans = Discretization::KMeans { restarts: 3 };
    let [dense, sparse, _] = inputs.fit_all(3, &Weighting::Auto, &kmeans);
    let (dense, sparse) = (dense.unwrap(), sparse.unwrap());
    assert!(!sparse.history.is_empty());
    assert!(sparse.history.iter().all(|h| h.rotation_term == 0.0), "sparse KMeans ran the one-stage loop");
    assert_eq!(sparse.rotation.as_slice(), Matrix::identity(3).as_slice());
    assert_eq!(dense.labels, sparse.labels, "dense and sparse two-stage fits disagree");

    // A fit from features runs the same CSR solve whatever the discretization.
    let auto = Umsc::new(UmscConfig::new(3).with_discretization(kmeans)).fit(&data).unwrap();
    assert!(auto.history.iter().all(|h| h.rotation_term == 0.0));
    assert_eq!(auto.labels, sparse.labels);
}

/// Asserts `res` is the `InvalidInput` error naming view 1.
fn assert_rejects_view_one(path: &str, res: umsc_core::Result<UmscResult>) {
    match res {
        Err(UmscError::InvalidInput(msg)) => assert!(msg.contains("view 1"), "{path}: message {msg:?} does not name view 1"),
        other => panic!("{path}: returned {:?} instead of InvalidInput", other.map(|r| r.view_weights)),
    }
}

/// The row of view 1 that gets a non-finite entry.
const ROW: usize = 5;

#[test]
fn dense_fit_rejects_a_non_finite_laplacian() {
    let mut inputs = Inputs::new(&gmm(3, 10, 4));
    inputs.dense[1][(ROW, ROW)] = f64::NAN;
    assert_rejects_view_one("dense", Umsc::new(UmscConfig::new(3)).fit_laplacians(&inputs.dense));
    inputs.dense[1][(ROW, ROW)] = f64::INFINITY;
    assert_rejects_view_one("dense", Umsc::new(UmscConfig::new(3)).fit_laplacians(&inputs.dense));
}

#[test]
fn sparse_fit_rejects_a_non_finite_laplacian() {
    let inputs = Inputs::new(&gmm(3, 10, 4));
    let l = &inputs.sparse[1];
    let mut triplets: Vec<(usize, usize, f64)> =
        (0..l.rows()).flat_map(|r| l.row_entries(r).map(move |(&c, &v)| (r, c, v))).collect();
    // Duplicates are summed, so the stored diagonal entry becomes NaN.
    triplets.push((ROW, ROW, f64::NAN));
    let mut sparse = inputs.sparse.clone();
    sparse[1] = CsrMatrix::from_triplets(l.rows(), l.cols(), &triplets);
    assert!(sparse[1].get(ROW, ROW).is_nan());
    assert_rejects_view_one("sparse", Umsc::new(UmscConfig::new(3)).fit_laplacians_sparse(&sparse));
}

#[test]
fn anchor_fits_reject_a_non_finite_factor() {
    let inputs = Inputs::new(&gmm(3, 10, 4));
    let (n, m) = inputs.factors[1].shape();
    let mut z = inputs.factors[1].csr().to_dense();
    let j = (0..m).find(|&j| z[ROW * m + j] != 0.0).expect("row has a stored entry");
    z[ROW * m + j] = f64::NAN;
    let mut dense: Vec<Matrix> =
        inputs.factors.iter().map(|b| Matrix::from_vec(b.rows(), b.cols(), b.csr().to_dense())).collect();
    dense[1] = Matrix::from_vec(n, m, z.clone());
    let mut sparse = inputs.factors.clone();
    sparse[1] = SparseFactor::new(CsrMatrix::from_dense(n, m, &z));
    let model = AnchorUmsc::new(AnchorUmscConfig::new(3));
    assert_rejects_view_one("anchor (dense factors)", model.fit_factors(&dense));
    assert_rejects_view_one("anchor (sparse factors)", model.fit_sparse_factors(&sparse));
}
