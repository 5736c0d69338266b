//! Microbench: graph construction per dataset size, each kernel under the
//! trace span or perfbench layer of the fit phase it times — distances
//! (`graph.distances`, also at the Gram shapes of the handwritten-knn and
//! orl-can workloads on one thread), the k-NN and Gaussian affinities
//! (`graph.knn_select`), the CAN front-end over precomputed distances
//! (`graph.can`), Laplacians (`graph.laplacian`) — plus whole builds from
//! features (`graph.build`): the streamed k-NN builder against the
//! distance-matrix route it replaced, and the streamed CAN build that CAN
//! fits run. The anchor graph's two builders, D² anchor selection
//! (`graph.anchor_select`) and the sparse point→anchor weights
//! (`graph.anchor_weights`), are timed at the gmm-anchor workload's
//! largest view (n = 10 000, d = 128, 200 anchors, 5 per point) on 1 and
//! 2 threads.

use std::hint::black_box;
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::{
    adaptive_neighbor_affinity, anchor_weights_sparse, gaussian_affinity, knn_affinity, neighbor_graph,
    normalized_laplacian, pairwise_sq_distances, select_anchors, Bandwidth, Metric, Neighbors,
};
use umsc_rt::bench::{smoke, Bench};
use umsc_rt::par::with_threads;

fn main() {
    let (dense_sizes, knn_sizes): (&[usize], &[usize]) =
        if smoke() { (&[50], &[100]) } else { (&[50, 100, 200], &[100, 500]) };
    let group = |name: &str| Bench::new(name).sample_size(10);
    let (mut distances, mut select, mut can, mut laplacian, mut build) = (
        group("graph.distances"),
        group("graph.knn_select"),
        group("graph.can"),
        group("graph.laplacian"),
        group("graph.build"),
    );
    for &n_per in dense_sizes {
        let data = MultiViewGmm::new("bench", 4, n_per, vec![ViewSpec::clean(32)]).generate(1);
        let x = &data.views[0];
        let n = x.rows();
        distances.run(&format!("pairwise_distances/{n}"), || pairwise_sq_distances(black_box(x)));
        let d = pairwise_sq_distances(x);
        select.run(&format!("gaussian_self_tuning/{n}"), || {
            gaussian_affinity(black_box(&d), &Bandwidth::SelfTuning { k: 7 })
        });
        select.run(&format!("knn_graph_k10/{n}"), || {
            knn_affinity(black_box(&d), 10, &Bandwidth::SelfTuning { k: 7 })
        });
        can.run(&format!("can_adaptive_k10/{n}"), || adaptive_neighbor_affinity(black_box(&d), 10));
        let w = gaussian_affinity(&d, &Bandwidth::SelfTuning { k: 7 });
        laplacian.run(&format!("normalized_laplacian/{n}"), || normalized_laplacian(black_box(&w)));
    }
    // The Gram tiles at the workloads' shapes, on one thread:
    // handwritten-knn's n = 2000 at its narrowest view, a middle one and
    // its widest (d = 6, 76, 240), and orl-can's n = 400 at d = 3304 and
    // 6750.
    let shapes: [(usize, usize, &[usize]); 2] =
        if smoke() { [(10, 5, &[6, 76, 240]), (4, 5, &[3304, 6750])] } else { [(10, 200, &[6, 76, 240]), (40, 10, &[3304, 6750])] };
    for (c, per, dims) in shapes {
        let data = MultiViewGmm::new("bench", c, per, dims.iter().map(|&d| ViewSpec::clean(d)).collect()).generate(4);
        for x in &data.views {
            distances.run(&format!("pairwise_sq/{}x{}/t1", x.rows(), x.cols()), || {
                with_threads(1, || pairwise_sq_distances(black_box(x)))
            });
        }
    }
    // The default k-NN graph (k = 10, self-tuning σ) from features: the
    // streamed builder vs the full distance matrix plus the selector; and
    // the streamed CAN graph (k = 10), the route of every CAN fit.
    let bw = Bandwidth::SelfTuning { k: 7 };
    for &n_per in knn_sizes {
        let data = MultiViewGmm::new("bench", 4, n_per, vec![ViewSpec::clean(64)]).generate(2);
        let x = &data.views[0];
        let n = x.rows();
        build.run(&format!("knn_streamed/{n}"), || {
            neighbor_graph(black_box(x), Metric::Euclidean, Neighbors::Knn { k: 10, bandwidth: bw })
        });
        build.run(&format!("distances_plus_knn/{n}"), || {
            knn_affinity(&pairwise_sq_distances(black_box(x)), 10, &bw)
        });
        build.run(&format!("can_streamed/{n}"), || {
            neighbor_graph(black_box(x), Metric::Euclidean, Neighbors::Adaptive { k: 10 })
        });
    }
    // The anchor graph at the gmm-anchor shape: 10 clusters of 1000
    // points, its 128-dimensional view, m = 200 anchors, k = 5.
    let (per, anchors, neighbors) = if smoke() { (20, 20, 5) } else { (1000, 200, 5) };
    let data = MultiViewGmm::new("bench", 10, per, vec![ViewSpec::clean(128)]).generate(3);
    let x = &data.views[0];
    let n = x.rows();
    let (mut select, mut weights) = (group("graph.anchor_select"), group("graph.anchor_weights"));
    let a = select_anchors(x, anchors, 0);
    for threads in [1, 2] {
        select.run(&format!("d2_sampling/{n}x{anchors}/t{threads}"), || {
            with_threads(threads, || select_anchors(black_box(x), anchors, 0))
        });
        weights.run(&format!("can_weights_k{neighbors}/{n}x{anchors}/t{threads}"), || {
            with_threads(threads, || anchor_weights_sparse(black_box(x), &a, neighbors))
        });
    }
}
