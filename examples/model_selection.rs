//! Model selection: how many clusters? Truth-free diagnostics.
//!
//! ```text
//! cargo run --release --example model_selection
//! ```
//!
//! Real deployments rarely know `c`. This example sweeps candidate cluster
//! counts on a multi-view dataset and reports three truth-free signals:
//! the fused Laplacian **eigengap** (spectral theory's answer), and the
//! **silhouette** / **Calinski–Harabasz** indices of each candidate
//! clustering in embedding space — then compares against the planted truth.

use umsc::core::estimate_num_clusters;
use umsc::data::synth::{MultiViewGmm, ViewSpec};
use umsc::metrics::{calinski_harabasz, clustering_accuracy, silhouette_score};
use umsc::{Umsc, UmscConfig};

fn main() {
    // Planted: 5 clusters.
    let mut gen = MultiViewGmm::new(
        "select",
        5,
        40,
        vec![ViewSpec::clean(10), ViewSpec::clean(14)],
    );
    gen.separation = 4.5;
    let data = gen.generate(11);

    // Eigengaps λ_c − λ_{c−1} of the fused (average) Laplacian.
    let graph = UmscConfig::new(2).graph_config();
    let (best_gap, gaps) = estimate_num_clusters(&data, &graph, 1..=9, 0).expect("spectrum");
    println!("fused Laplacian eigengaps:");
    for (c, gap) in &gaps {
        println!("  λ_{c:<2} − λ_{:<2} = {gap:.5}", c - 1);
    }
    println!("\neigengap heuristic suggests c = {best_gap}");

    println!("\n{:>3} {:>12} {:>10} {:>12}", "c", "silhouette", "CH index", "ACC vs truth");
    println!("{}", "-".repeat(42));
    for c in 2..=8usize {
        let res = Umsc::new(UmscConfig::new(c)).fit(&data).expect("fit");
        let sil = silhouette_score(&res.embedding, &res.labels);
        let ch = calinski_harabasz(&res.embedding, &res.labels);
        let acc = clustering_accuracy(&res.labels, &data.labels);
        let mark = if c == data.num_clusters { "  <- planted" } else { "" };
        println!("{c:>3} {sil:>12.4} {ch:>10.1} {acc:>12.4}{mark}");
    }
}
