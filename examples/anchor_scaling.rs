//! Large-scale scenario: exact vs anchor-graph unified clustering.
//!
//! ```text
//! cargo run --release --example anchor_scaling
//! ```
//!
//! Sweeps the dataset size and compares the exact k-NN fit (an O(n²·d)
//! graph build, then the CSR solve) against
//! the anchor-based O(n·k·c) solver at a fixed anchor budget: accuracy
//! should stay comparable while runtime scales linearly instead.

use std::time::Instant;
use umsc::core::anchor::{AnchorUmsc, AnchorUmscConfig};
use umsc::data::synth::{MultiViewGmm, ViewSpec};
use umsc::metrics::clustering_accuracy;
use umsc::{Umsc, UmscConfig};

fn main() {
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10}   (m = 120 anchors)",
        "n", "exact time", "exact ACC", "anchor time", "anchor ACC"
    );
    println!("{}", "-".repeat(64));

    for &n_per in &[100usize, 200, 400, 800] {
        let mut gen = MultiViewGmm::new(
            "scale",
            4,
            n_per,
            vec![ViewSpec::clean(12), ViewSpec::clean(16)],
        );
        gen.separation = 5.0;
        let data = gen.generate(9);
        let n = data.n();

        let t0 = Instant::now();
        let exact = Umsc::new(UmscConfig::new(4)).fit(&data).expect("exact fit");
        let t_exact = t0.elapsed();
        let acc_exact = clustering_accuracy(&exact.labels, &data.labels);

        let t0 = Instant::now();
        let anchor = AnchorUmsc::new(AnchorUmscConfig::new(4).with_anchors(120))
            .fit(&data)
            .expect("anchor fit");
        let t_anchor = t0.elapsed();
        let acc_anchor = clustering_accuracy(&anchor.labels, &data.labels);

        println!(
            "{n:>6} {t_exact:>12.2?} {acc_exact:>10.4} {t_anchor:>12.2?} {acc_anchor:>10.4}"
        );
    }

    println!("\nThe exact fit grows superlinearly (its O(n^2) graph build); the anchor path stays\nnear-linear in n — that is the extension that makes the one-stage method deployable.");
}
