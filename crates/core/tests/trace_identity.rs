//! Observability must be a pure observer: running a fit with tracing
//! enabled must produce **bitwise-identical** results to running it with
//! tracing disabled, for all three solver flavors (dense, sparse,
//! anchor). The instruments (spans, counters, JSONL sink) may only
//! watch — never steer.
//!
//! These tests live in their own integration binary because the obs
//! enable state is process-global: flipping it here must not race the
//! unit tests of other crates (each `tests/*.rs` file is its own
//! process).

use std::sync::Mutex;

use umsc_core::{AnchorUmsc, AnchorUmscConfig, GraphKind, Umsc, UmscConfig, UmscResult};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_data::MultiViewDataset;

/// Tests in this binary still run on multiple threads; the obs state is
/// process-global, so serialize every on/off flip.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> MultiViewDataset {
    let mut gen = MultiViewGmm::new(
        "trace-identity",
        3,
        12,
        vec![ViewSpec::clean(6), ViewSpec::clean(4), ViewSpec::clean(5)],
    );
    gen.separation = 3.0;
    gen.generate(7)
}

/// The fixture of `golden_bits.rs`.
fn golden_dataset() -> MultiViewDataset {
    let mut gen = MultiViewGmm::new(
        "golden",
        3,
        16,
        vec![ViewSpec::clean(5), ViewSpec::clean(7), ViewSpec { signal: 0.6, ..ViewSpec::clean(4) }],
    );
    gen.separation = 3.0;
    gen.generate(11)
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

fn trace_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("umsc_trace_identity_{tag}_{}.jsonl", std::process::id()))
}

/// What the traced run recorded: its counters and the names of its spans.
struct Recorded {
    counters: Vec<(String, u64)>,
    spans: Vec<String>,
}

/// Runs `fit` once with tracing off and once with tracing on (JSONL sink
/// pointed at a scratch file), asserts the trace was actually written,
/// and returns both results for the bitwise comparison, plus what the
/// traced run recorded.
fn run_off_then_on(tag: &str, fit: impl Fn() -> UmscResult) -> (UmscResult, UmscResult, Recorded) {
    let _guard = TEST_LOCK.lock().unwrap();
    // Belt and braces: a previous test in this binary must not leak state.
    umsc_obs::set_trace_path(None);
    umsc_obs::set_enabled(false);
    umsc_obs::reset();

    let off = fit();

    let path = trace_path(tag);
    let _ = std::fs::remove_file(&path);
    umsc_obs::set_trace_path(Some(path.to_str().unwrap()));
    let on = fit();
    let counters = umsc_obs::counters_snapshot();
    let spans = umsc_obs::spans_snapshot().into_iter().map(|(name, _)| name).collect();
    umsc_obs::set_trace_path(None);
    umsc_obs::set_enabled(false);
    umsc_obs::reset();

    let trace = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    assert!(
        trace.lines().any(|l| l.contains("\"event\":\"sweep\"")),
        "{tag}: traced run emitted no sweep records"
    );
    assert!(
        trace.lines().all(|l| l.contains("\"schema\":\"umsc-trace/v1\"")),
        "{tag}: trace contains unversioned lines"
    );
    (off, on, Recorded { counters, spans })
}

/// Bitwise comparison of everything a caller can observe in a result.
fn assert_identical(tag: &str, a: &UmscResult, b: &UmscResult) {
    assert_eq!(a.labels, b.labels, "{tag}: labels differ");
    assert_eq!(a.embedding.as_slice(), b.embedding.as_slice(), "{tag}: embedding differs");
    assert_eq!(a.rotation.as_slice(), b.rotation.as_slice(), "{tag}: rotation differs");
    assert_eq!(a.indicator.as_slice(), b.indicator.as_slice(), "{tag}: indicator differs");
    assert_eq!(a.converged, b.converged, "{tag}: convergence flag differs");
    assert_eq!(a.history.len(), b.history.len(), "{tag}: iteration counts differ");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.objective.to_bits(), y.objective.to_bits(), "{tag}: objective[{i}] differs");
        assert_eq!(x.weights, y.weights, "{tag}: weights[{i}] differ");
    }
    let wa: Vec<u64> = a.view_weights.iter().map(|w| w.to_bits()).collect();
    let wb: Vec<u64> = b.view_weights.iter().map(|w| w.to_bits()).collect();
    assert_eq!(wa, wb, "{tag}: final weights differ");
}

#[test]
fn dense_solver_is_bitwise_identical_with_tracing() {
    let data = dataset();
    let (off, on, _) = run_off_then_on("dense", || {
        Umsc::new(UmscConfig::new(3).with_seed(11)).fit(&data).unwrap()
    });
    assert_identical("dense", &off, &on);
}

#[test]
fn sparse_solver_is_bitwise_identical_with_tracing() {
    let data = dataset();
    let model = Umsc::new(UmscConfig::new(3).with_seed(11));
    let laplacians =
        umsc_core::build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let (off, on, _) = run_off_then_on("sparse", || model.fit_laplacians_sparse(&laplacians).unwrap());
    assert_identical("sparse", &off, &on);
}

#[test]
fn anchor_solver_is_bitwise_identical_with_tracing() {
    let data = dataset();
    let (off, on, _) = run_off_then_on("anchor", || {
        let cfg = AnchorUmscConfig::new(3).with_anchors(12).with_seed(11);
        AnchorUmsc::new(cfg).fit_model(&data).unwrap().result
    });
    assert_identical("anchor", &off, &on);
}

/// A traced anchor fit sees its graph phase: the whole build and its
/// anchor selection and anchor weights.
#[test]
fn traced_anchor_fit_records_its_graph_spans() {
    let data = dataset();
    let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(12).with_seed(11));
    let (_, _, recorded) = run_off_then_on("anchor-graph", || model.fit(&data).unwrap());
    for span in ["graph.build", "graph.anchor_select", "graph.anchor_weights"] {
        assert!(recorded.spans.iter().any(|s| s == span), "no {span} span in {:?}", recorded.spans);
    }
}

/// A traced CAN fit builds its graph by the streamed route: distance
/// tiles and the neighbour selector under the whole build, then the
/// Laplacian; there is no separate CAN phase.
#[test]
fn traced_can_fit_records_the_streamed_graph_spans() {
    let data = dataset();
    let model = Umsc::new(UmscConfig::new(3).with_graph(GraphKind::Adaptive { k: 10 }).with_seed(11));
    let (off, on, recorded) = run_off_then_on("can-graph", || model.fit(&data).unwrap());
    assert_identical("can-graph", &off, &on);
    for span in ["graph.build", "graph.distances", "graph.knn_select", "graph.laplacian"] {
        assert!(recorded.spans.iter().any(|s| s == span), "no {span} span in {:?}", recorded.spans);
    }
    assert!(!recorded.spans.iter().any(|s| s == "graph.can"), "{:?}", recorded.spans);
}

/// With a one-iteration cap every F-step's GPI ends at its cap, on the
/// fit from features and the CSR entry alike (the anchor fit fixes its
/// own cap).
#[test]
fn capped_gpi_is_counted_once_per_f_step() {
    let data = dataset();
    let model = Umsc::new(UmscConfig { gpi_max_iter: 1, ..UmscConfig::new(3).with_seed(11) });
    let laplacians =
        umsc_core::build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let fits: [(&str, &dyn Fn() -> UmscResult); 2] = [
        ("dense-capped", &|| model.fit(&data).unwrap()),
        ("sparse-capped", &|| model.fit_laplacians_sparse(&laplacians).unwrap()),
    ];
    for (tag, fit) in fits {
        let (off, on, recorded) = run_off_then_on(tag, fit);
        assert_identical(tag, &off, &on);
        let capped = counter(&recorded.counters, "gpi.capped");
        assert_eq!(capped, on.history.len() as u64, "{tag}: one gpi.capped per F-step");
    }
}

/// Every GPI iterate of the golden fixture is well conditioned, so no
/// polar step leaves the Gram route on any of the three paths; nor does
/// any Lanczos restart recover an eigenpair there, so every embedding
/// solve of those fits returns its first run's pairs.
#[test]
fn golden_fits_never_take_the_polar_svd_fallback() {
    let data = golden_dataset();
    let model = Umsc::new(UmscConfig::new(3).with_seed(5));
    let laplacians =
        umsc_core::build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(20).with_seed(5));
    let fits: [(&str, &dyn Fn() -> UmscResult); 3] = [
        ("golden-dense", &|| model.fit(&data).unwrap()),
        ("golden-sparse", &|| model.fit_laplacians_sparse(&laplacians).unwrap()),
        ("golden-anchor", &|| anchor.fit(&data).unwrap()),
    ];
    for (tag, fit) in fits {
        let (off, on, recorded) = run_off_then_on(tag, fit);
        assert_identical(tag, &off, &on);
        let counters = &recorded.counters;
        assert!(counter(counters, "gpi.iters") > 0, "{tag}: no GPI iteration was traced");
        assert_eq!(counter(counters, "polar.svd_fallback"), 0, "{tag}: polar step fell back to the SVD");
        assert_eq!(counter(counters, "lanczos.recovered"), 0, "{tag}: a Lanczos restart recovered a pair");
    }
}

/// Well-separated clusters whose anchor graphs fall apart into one
/// component per cluster: the first Lanczos run of the embedding solve
/// misses copies of the repeated eigenvalue, and the restart runs that
/// recover them are counted without moving a bit of the fit.
#[test]
fn recovered_eigenpairs_are_counted_and_leave_the_fit_alone() {
    let mut gen = MultiViewGmm::new("separated", 3, 60, vec![ViewSpec::clean(10), ViewSpec::clean(14)]);
    gen.separation = 12.0;
    let data = gen.generate(35);
    let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(60));
    let (off, on, recorded) = run_off_then_on("recovered", || model.fit(&data).unwrap());
    assert_identical("recovered", &off, &on);
    assert!(counter(&recorded.counters, "lanczos.recovered") > 0, "no Lanczos restart recovered a pair");
}
