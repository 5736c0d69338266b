//! Allocation-regression gate driven by `scripts/verify.sh`.
//!
//! Runs one k-NN fit, one CAN-graph fit (the dense graph builder) and one
//! anchor fit with telemetry on and
//! prints the `workspace.realloc` counter — the number of times a solver
//! workspace buffer had to be re-shaped (and therefore reallocated). Each
//! fit sizes its buffers once; every warm sweep after that must reuse
//! them, so the count is a small structural constant. The gate compares it
//! against the committed baseline in `scripts/alloc_baseline.txt`: a
//! higher number means someone re-introduced per-sweep reallocation into
//! the hot loop.
//!
//! Output (stable, machine-readable): `workspace.realloc=<n>`.

use umsc_core::{AnchorUmsc, AnchorUmscConfig, GraphKind, Umsc, UmscConfig};
use umsc_data::synth::{MultiViewGmm, ViewSpec};

fn main() {
    umsc_obs::set_enabled(true);
    umsc_obs::reset();

    let mut gen = MultiViewGmm::new(
        "alloc-gate",
        3,
        40,
        vec![ViewSpec::clean(6), ViewSpec::clean(8), ViewSpec::clean(5)],
    );
    gen.separation = 6.0;
    let data = gen.generate(7);

    let knn = Umsc::new(UmscConfig::new(3).with_max_iter(30)).fit(&data).expect("k-NN fit failed");
    let can = Umsc::new(UmscConfig::new(3).with_max_iter(30).with_graph(GraphKind::Adaptive { k: 10 }))
        .fit(&data)
        .expect("CAN fit failed");
    let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(30)).fit(&data).expect("anchor fit failed");
    assert_eq!(knn.labels.len(), data.n());
    assert_eq!(can.labels.len(), data.n());
    assert_eq!(anchor.labels.len(), data.n());

    let realloc = umsc_obs::counters_snapshot()
        .iter()
        .find(|(name, _)| name == "workspace.realloc")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    println!("workspace.realloc={realloc}");
}
