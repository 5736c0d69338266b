//! The anchor fit and the dense fit run the same engine and the same GPI
//! F-step; they differ only in storage. Fed the same graphs — sparse
//! factors `B_v` on one side, the densified Laplacians `I − B_v B_vᵀ` on
//! the other — they must find the same partition at the same objective.

use umsc_core::{AnchorUmsc, AnchorUmscConfig, Umsc, UmscConfig, UmscResult};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::{anchor_view_factor, SparseFactor};
use umsc_linalg::Matrix;

fn dataset(seed: u64) -> umsc_data::MultiViewDataset {
    let mut gen = MultiViewGmm::new(
        "cross-path",
        3,
        30,
        vec![ViewSpec::clean(5), ViewSpec::clean(7), ViewSpec { signal: 0.6, ..ViewSpec::clean(4) }],
    );
    gen.separation = 3.0;
    gen.generate(seed)
}

/// `L = I − B Bᵀ` as a dense matrix.
fn densified_laplacian(b: &SparseFactor) -> Matrix {
    let dense = Matrix::from_vec(b.rows(), b.cols(), b.csr().to_dense());
    let mut l = Matrix::identity(b.rows());
    l.axpy(-1.0, &dense.matmul_transpose_b(&dense));
    l
}

fn final_objective(res: &UmscResult) -> f64 {
    res.history.last().expect("the fit ran at least one sweep").objective
}

#[test]
fn anchor_fit_matches_dense_fit_on_the_densified_laplacians() {
    for seed in 1..=8 {
        let data = dataset(seed);
        let factors: Vec<SparseFactor> = data
            .views
            .iter()
            .enumerate()
            .map(|(v, x)| anchor_view_factor(x, 20, 5, seed ^ ((v as u64) << 32)).0)
            .collect();
        let laplacians: Vec<Matrix> = factors.iter().map(densified_laplacian).collect();

        let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3).with_seed(seed)).fit_sparse_factors(&factors).unwrap();
        let cfg = UmscConfig { gpi_max_iter: 20, ..UmscConfig::new(3).with_seed(seed) };
        let dense = Umsc::new(cfg).fit_laplacians(&laplacians).unwrap();

        assert_eq!(anchor.labels, dense.labels, "seed {seed}: partitions differ");
        let (a, d) = (final_objective(&anchor), final_objective(&dense));
        assert!((a - d).abs() <= 1e-6 * d.abs(), "seed {seed}: final objectives {a} (anchor) vs {d} (dense)");
    }
}
