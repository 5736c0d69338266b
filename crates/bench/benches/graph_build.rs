//! Microbench: graph construction — distances, Gaussian/CAN affinities,
//! Laplacians — per dataset size, plus the streamed k-NN builder against
//! the distance-matrix route it replaced.

use std::hint::black_box;
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::{
    adaptive_neighbor_affinity, gaussian_affinity, knn_affinity, neighbor_graph,
    normalized_laplacian, pairwise_sq_distances, Bandwidth, Metric, Neighbors,
};
use umsc_rt::bench::{smoke, Bench};

fn main() {
    let (dense_sizes, knn_sizes): (&[usize], &[usize]) =
        if smoke() { (&[50], &[100]) } else { (&[50, 100, 200], &[100, 500]) };
    let mut g = Bench::new("graph_build").sample_size(10);
    for &n_per in dense_sizes {
        let data = MultiViewGmm::new("bench", 4, n_per, vec![ViewSpec::clean(32)]).generate(1);
        let x = &data.views[0];
        let n = x.rows();
        g.run(&format!("pairwise_distances/{n}"), || pairwise_sq_distances(black_box(x)));
        let d = pairwise_sq_distances(x);
        g.run(&format!("gaussian_self_tuning/{n}"), || {
            gaussian_affinity(black_box(&d), &Bandwidth::SelfTuning { k: 7 })
        });
        g.run(&format!("knn_graph_k10/{n}"), || {
            knn_affinity(black_box(&d), 10, &Bandwidth::SelfTuning { k: 7 })
        });
        g.run(&format!("can_adaptive_k10/{n}"), || adaptive_neighbor_affinity(black_box(&d), 10));
        let w = gaussian_affinity(&d, &Bandwidth::SelfTuning { k: 7 });
        g.run(&format!("normalized_laplacian/{n}"), || normalized_laplacian(black_box(&w)));
    }
    // The default k-NN graph (k = 10, self-tuning σ) from features: the
    // streamed builder vs the full distance matrix plus the selector.
    let bw = Bandwidth::SelfTuning { k: 7 };
    for &n_per in knn_sizes {
        let data = MultiViewGmm::new("bench", 4, n_per, vec![ViewSpec::clean(64)]).generate(2);
        let x = &data.views[0];
        let n = x.rows();
        g.run(&format!("knn_streamed/{n}"), || {
            neighbor_graph(black_box(x), Metric::Euclidean, Neighbors::Knn(10), &bw)
        });
        g.run(&format!("distances_plus_knn/{n}"), || {
            knn_affinity(&pairwise_sq_distances(black_box(x)), 10, &bw)
        });
    }
}
