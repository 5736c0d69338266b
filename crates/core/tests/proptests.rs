//! Property tests on the unified solver: for arbitrary generated
//! multi-view inputs the solver must return valid structures (orthonormal
//! F, orthogonal R, indicator Y with no empty clusters), a monotone
//! objective, normalized weights, and deterministic output.

use umsc_core::{Discretization, Umsc, UmscConfig, UmscResult};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::{knn_affinity, pairwise_sq_distances, unnormalized_laplacian, Bandwidth, CsrMatrix};
use umsc_linalg::Matrix;
use umsc_rt::check::{check, Config};
use umsc_rt::{ensure, Rng, Shrink};

#[derive(Debug, Clone)]
struct Scenario {
    c: usize,
    per_cluster: usize,
    dims: Vec<usize>,
    separation: f64,
    seed: u64,
    lambda: f64,
}

// Shrunk scenarios would leave the generator's support (c < 2, no views);
// report counterexamples as-is.
impl Shrink for Scenario {
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

fn cases(n: usize) -> Config {
    Config::cases(n)
}

fn scenario(rng: &mut Rng) -> Scenario {
    let n_dims = rng.gen_range(1..4);
    Scenario {
        c: rng.gen_range(2..5),
        per_cluster: rng.gen_range(6..14),
        dims: (0..n_dims).map(|_| rng.gen_range(2..12)).collect(),
        separation: rng.gen_range_f64(2.0, 8.0),
        seed: rng.gen_range(0..1000) as u64,
        lambda: rng.gen_range_f64(0.01, 10.0),
    }
}

fn generate(s: &Scenario) -> umsc_data::MultiViewDataset {
    let mut cfg = MultiViewGmm::new(
        "prop",
        s.c,
        s.per_cluster,
        s.dims.iter().map(|&d| ViewSpec::clean(d)).collect(),
    );
    cfg.separation = s.separation;
    cfg.generate(s.seed)
}

#[test]
fn solver_invariants() {
    check(&cases(24), scenario, |s| {
        let data = generate(s);
        let cfg = UmscConfig::new(s.c).with_lambda(s.lambda).with_seed(s.seed);
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let n = data.n();
        let c = s.c;

        // Labels valid and every cluster inhabited (n ≥ c by construction).
        ensure!(res.labels.len() == n);
        for j in 0..c {
            ensure!(res.labels.contains(&j), "cluster {j} empty");
        }

        // F orthonormal columns; R orthogonal.
        let ftf = res.embedding.matmul_transpose_a(&res.embedding);
        ensure!(ftf.approx_eq(&Matrix::identity(c), 1e-7));
        let rtr = res.rotation.matmul_transpose_a(&res.rotation);
        ensure!(rtr.approx_eq(&Matrix::identity(c), 1e-7));

        // Y is the indicator of `labels`.
        for (i, &l) in res.labels.iter().enumerate() {
            ensure!(res.indicator.row(i)[l] == 1.0);
            ensure!(res.indicator.row(i).iter().sum::<f64>() == 1.0);
        }

        // Weights: normalized, non-negative.
        ensure!((res.view_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        ensure!(res.view_weights.iter().all(|&w| w >= 0.0));
        ensure!(res.view_weights.len() == data.num_views());

        // Objective monotone non-increasing.
        for w in res.history.windows(2) {
            ensure!(
                w[1].objective <= w[0].objective + 1e-6 * (1.0 + w[0].objective.abs()),
                "objective rose {} -> {}",
                w[0].objective,
                w[1].objective
            );
        }
        // Objective terms consistent.
        for s in &res.history {
            ensure!((s.objective - (s.embedding_term + s.rotation_term)).abs() < 1e-9);
            ensure!(s.rotation_term >= 0.0);
        }
        Ok(())
    });
}

#[test]
fn deterministic() {
    check(&cases(24), scenario, |s| {
        let data = generate(s);
        let mk = || {
            Umsc::new(UmscConfig::new(s.c).with_lambda(s.lambda).with_seed(s.seed))
                .fit(&data)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        ensure!(a.labels == b.labels);
        ensure!(a.embedding.approx_eq(&b.embedding, 0.0));
        Ok(())
    });
}

#[test]
fn two_stage_also_valid() {
    check(&cases(24), scenario, |s| {
        let data = generate(s);
        let cfg = UmscConfig::new(s.c)
            .with_discretization(Discretization::KMeans { restarts: 3 })
            .with_seed(s.seed);
        let res = Umsc::new(cfg).fit(&data).unwrap();
        ensure!(res.labels.len() == data.n());
        ensure!(res.labels.iter().all(|&l| l < s.c));
        for w in res.history.windows(2) {
            ensure!(w[1].objective <= w[0].objective + 1e-6 * (1.0 + w[0].objective.abs()));
        }
        Ok(())
    });
}

/// Whether every history step stays within the monotonicity tolerance.
fn non_increasing(res: &UmscResult) -> bool {
    res.history.windows(2).all(|w| w[1].objective <= w[0].objective + 1e-6 * (1.0 + w[0].objective.abs()))
}

/// Unnormalized k-NN Laplacians `D − W` have `λ_max` far above 2, so a
/// GPI shift assuming normalized Laplacians (`L ⪯ 2I`) would no longer
/// make each F-step a descent step. Both Laplacian entries shift by the
/// fused Gershgorin bound and stay monotone.
#[test]
fn unnormalized_laplacians_stay_monotone_on_both_entries() {
    check(&cases(12), scenario, |s| {
        let data = generate(s);
        let dense: Vec<Matrix> = data
            .views
            .iter()
            .map(|x| {
                let k = 10.min(x.rows() - 1);
                let w = knn_affinity(&pairwise_sq_distances(x), k, &Bandwidth::SelfTuning { k: 7 });
                unnormalized_laplacian(&Matrix::from_vec(w.rows(), w.cols(), w.to_dense()))
            })
            .collect();
        let sparse: Vec<CsrMatrix> = dense.iter().map(|l| CsrMatrix::from_dense(l.rows(), l.cols(), l.as_slice())).collect();
        let model = Umsc::new(UmscConfig::new(s.c).with_lambda(s.lambda).with_seed(s.seed));
        ensure!(non_increasing(&model.fit_laplacians(&dense).unwrap()), "dense entry's objective rose");
        ensure!(non_increasing(&model.fit_laplacians_sparse(&sparse).unwrap()), "sparse entry's objective rose");
        Ok(())
    });
}
