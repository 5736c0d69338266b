//! Allocation-regression gate driven by `scripts/verify.sh`.
//!
//! Runs one dense, one sparse and one anchor fit with telemetry on and
//! prints the `workspace.realloc` counter — the number of times a solver
//! workspace buffer had to be re-shaped (and therefore reallocated). Each
//! fit sizes its buffers once; every warm sweep after that must reuse
//! them, so the count is a small structural constant. The gate compares it
//! against the committed baseline in `scripts/alloc_baseline.txt`: a
//! higher number means someone re-introduced per-sweep reallocation into
//! the hot loop.
//!
//! Output (stable, machine-readable): `workspace.realloc=<n>`.

use umsc_core::{AnchorUmsc, AnchorUmscConfig, Umsc, UmscConfig};
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

    let model = Umsc::new(UmscConfig::new(3).with_max_iter(30));
    let dense = model.fit(&data).expect("dense fit failed");
    let sparse = model.fit_auto(&data).expect("sparse fit failed");
    let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(30)).fit(&data).expect("anchor fit failed");
    assert_eq!(dense.labels.len(), data.n());
    assert_eq!(sparse.labels.len(), data.n());
    assert_eq!(anchor.labels.len(), data.n());

    let realloc = umsc_obs::counters_snapshot()
        .iter()
        .find(|(name, _)| name == "workspace.realloc")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    println!("workspace.realloc={realloc}");
}
