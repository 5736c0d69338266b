//! Counting-allocator proofs about the solver's memory behavior, on the
//! shared [`umsc_rt::alloc_track`] instrumentation:
//!
//! 1. warm `one_step_solve` sweeps are **allocation-free** (both rotation
//!    discretizations), the fused Laplacian's weight change included;
//! 2. warm anchor sweeps (`AnchorUmsc::one_step_solve`) are allocation-free,
//!    the persistent anchor fused operator included;
//! 3. the solve of either Laplacian entry (dense or CSR input) peaks below
//!    one `n × n` dense matrix on top of its input — the memory claim of
//!    the one CSR fused Laplacian;
//! 4. building those k-NN Laplacians from features stays below one
//!    `n × n` matrix too (the streamed graph builder);
//! 5. a whole anchor fit, graph build included, peaks below 0.6 of one
//!    dense `n × m` anchor factor on top of its input (the sparse
//!    factors);
//! 6. a warm polar step (`polar_orthogonalize_into`) is allocation-free on
//!    its Gram route and on its SVD fallback;
//! 7. warm sweeps stay allocation-free with observability on: the obs
//!    registry allocates only for a span or counter name it has not seen.
//!
//! Each test runs under `with_threads(1, ..)` because the counters are
//! thread-local (see the module docs of `alloc_track` for why) and worker
//! threads would both allocate stacks and hide their traffic. The pin is
//! scoped to the test's own thread, so it holds whatever order the tests
//! run in. The obs switch is process-global, so the zero-allocation tests
//! hold one lock: a test that turns obs on must not turn a concurrent
//! one's first sight of a name into a heap allocation.

use std::sync::{Mutex, MutexGuard, PoisonError};

use umsc_core::{
    anchor_fused_operator, build_view_laplacians_sparse, sparse_fused_operator, AnchorUmsc,
    AnchorUmscConfig, Discretization, GraphKind, SolverState, SolverWorkspace, Umsc, UmscConfig,
    UmscResult,
};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::SparseFactor;
use umsc_linalg::{polar_orthogonalize_into, Matrix, SvdScratch};
use umsc_rt::alloc_track::{measure, CountingAlloc};
use umsc_rt::par::with_threads;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the zero-allocation tests against the one that turns obs on.
static OBS_SWITCH: Mutex<()> = Mutex::new(());

fn obs_switch() -> MutexGuard<'static, ()> {
    OBS_SWITCH.lock().unwrap_or_else(PoisonError::into_inner)
}

fn gmm(per: usize, seed: u64) -> umsc_data::MultiViewDataset {
    MultiViewGmm::new("alloc", 3, per, vec![ViewSpec::clean(5), ViewSpec::clean(6)]).generate(seed)
}

#[test]
fn one_step_solve_is_allocation_free_once_warm() {
    let _obs = obs_switch();
    // Single-threaded kernels: thread spawns allocate stacks, and the flop
    // gates would engage threads on larger inputs.
    with_threads(1, || {
        let data = gmm(20, 7);
        for discretization in [Discretization::Rotation, Discretization::ScaledRotation] {
            let cfg = UmscConfig::new(3).with_discretization(discretization.clone());
            let model = Umsc::new(cfg);
            let laplacians = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();

            let mut fused = sparse_fused_operator(&laplacians, &[0.5, 0.5]);
            let mut st = model.init_solver_state(&mut fused).unwrap();
            let mut ws = SolverWorkspace::new();
            // Warm-up: the first sweeps size every buffer (including the two
            // SVD scratches, which see their final shapes mid-iteration).
            for _ in 0..2 {
                model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
            }

            let stats = measure(|| {
                for _ in 0..3 {
                    model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
                }
            });
            assert_eq!(
                stats.allocations, 0,
                "{discretization:?}: warm one_step_solve touched the heap {} times",
                stats.allocations
            );
        }
    })
}

#[test]
fn anchor_one_step_solve_is_allocation_free_once_warm() {
    let _obs = obs_switch();
    with_threads(1, || {
        let data = gmm(20, 11);
        let factors: Vec<SparseFactor> = data
            .views
            .iter()
            .enumerate()
            .map(|(v, x)| umsc_graph::anchor_view_factor(x, 15, 4, v as u64).0)
            .collect();
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3));
        let mut st = state_of(model.fit_sparse_factors(&factors).unwrap());
        let mut fused = anchor_fused_operator(&factors, &st.weights);
        let mut ws = SolverWorkspace::new();
        for _ in 0..2 {
            model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
        }

        let stats = measure(|| {
            for _ in 0..3 {
                model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
            }
        });
        assert_eq!(
            stats.allocations, 0,
            "warm anchor one_step_solve touched the heap {} times",
            stats.allocations
        );
    })
}

#[test]
fn traced_warm_sweeps_are_allocation_free() {
    let _obs = obs_switch();
    with_threads(1, || {
        let data = gmm(20, 7);
        let model = Umsc::new(UmscConfig::new(3));
        let laplacians = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
        let mut fused = sparse_fused_operator(&laplacians, &[0.5, 0.5]);
        let mut st = model.init_solver_state(&mut fused).unwrap();
        let mut ws = SolverWorkspace::new();

        let factors: Vec<SparseFactor> = data
            .views
            .iter()
            .enumerate()
            .map(|(v, x)| umsc_graph::anchor_view_factor(x, 15, 4, v as u64).0)
            .collect();
        let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3));
        let mut anchor_st = state_of(anchor.fit_sparse_factors(&factors).unwrap());
        let mut anchor_fused = anchor_fused_operator(&factors, &anchor_st.weights);
        let mut anchor_ws = SolverWorkspace::new();

        umsc_obs::set_enabled(true);
        // One warm-up sweep each sizes the buffers and puts every span and
        // counter name of a sweep in the registry.
        model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
        anchor.one_step_solve(&mut anchor_fused, &mut anchor_st, &mut anchor_ws).unwrap();
        let umsc = measure(|| {
            model.one_step_solve(&mut fused, &mut st, &mut ws).unwrap();
        });
        let anchored = measure(|| {
            anchor.one_step_solve(&mut anchor_fused, &mut anchor_st, &mut anchor_ws).unwrap();
        });
        let recorded = umsc_obs::spans_snapshot().iter().any(|(name, _)| name == "solve.f_step");
        umsc_obs::set_enabled(false);

        assert!(recorded, "the traced sweeps recorded no solve.f_step span");
        assert_eq!(umsc.allocations, 0, "traced warm one_step_solve touched the heap {} times", umsc.allocations);
        assert_eq!(
            anchored.allocations, 0,
            "traced warm anchor one_step_solve touched the heap {} times",
            anchored.allocations
        );
    })
}

/// The BCD state a fit ended in — exactly what a sweep advances.
fn state_of(res: UmscResult) -> SolverState {
    SolverState {
        f: res.embedding,
        r: res.rotation,
        y: res.indicator,
        labels: res.labels,
        weights: res.view_weights,
    }
}

#[test]
fn warm_polar_step_is_allocation_free_on_both_routes() {
    let _obs = obs_switch();
    with_threads(1, || {
        // A GPI-shaped, well-conditioned iterate takes the Gram route; a
        // rank-1 one of the same shape takes the SVD fallback.
        let (n, c) = (60, 4);
        let gram_route =
            Matrix::from_fn(n, c, |i, j| ((i * 7 + j * 3) as f64).sin() + if i % c == j { 1.0 } else { 0.0 });
        let fallback = Matrix::from_fn(n, c, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let mut out = Matrix::zeros(n, c);
        // Only the fallback fills the scratch's SVD factors.
        for (m, svd_u_shape) in [(&gram_route, (0, 0)), (&fallback, (n, c))] {
            let mut ws = SvdScratch::new();
            polar_orthogonalize_into(m, &mut ws, &mut out).unwrap();
            assert_eq!(ws.u.shape(), svd_u_shape, "polar step took the other route");
            let stats = measure(|| polar_orthogonalize_into(m, &mut ws, &mut out).unwrap());
            assert_eq!(stats.allocations, 0, "warm polar step touched the heap {} times", stats.allocations);
        }
    })
}

#[test]
fn every_laplacian_entry_solve_peaks_below_one_dense_matrix() {
    with_threads(1, || {
        // Big enough that one n × n matrix dwarfs every n × c intermediate.
        let data = gmm(80, 9);
        let n = data.n();
        let model = Umsc::new(UmscConfig::new(3));
        let sparse_ls = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| Matrix::from_vec(l.rows(), l.cols(), l.to_dense())).collect();

        // Each door's input is allocated before its measurement starts, so
        // the peak is what the solve adds on top of it.
        let mut dense_res = None;
        let dense_peak = measure(|| dense_res = Some(model.fit_laplacians(&dense_ls))).peak_bytes;
        let mut sparse_res = None;
        let sparse_peak =
            measure(|| sparse_res = Some(model.fit_laplacians_sparse(&sparse_ls))).peak_bytes;
        dense_res.unwrap().unwrap();
        sparse_res.unwrap().unwrap();

        let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
        for (door, peak) in [("dense", dense_peak), ("sparse", sparse_peak)] {
            assert!(
                peak < dense_matrix_bytes,
                "{door} entry's solve peaked at {peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
            );
        }
    })
}

#[test]
fn sparse_graph_build_peak_stays_below_one_dense_matrix() {
    with_threads(1, || {
        // Low-dimensional data keeps the O(n²·d) distance work cheap at a size
        // where one n × n matrix (72 MB) dwarfs the O(TILE_ROWS·n + n·k) build.
        let data = MultiViewGmm::new("alloc", 3, 1000, vec![ViewSpec::clean(3), ViewSpec::clean(4)]).generate(5);
        let n = data.n();
        assert_eq!(n, 3000);
        let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
        // The default k-NN graph and the CAN graph: both streamed.
        for graph in [UmscConfig::new(3).graph, GraphKind::Adaptive { k: 10 }] {
            let model = Umsc::new(UmscConfig::new(3).with_graph(graph.clone()));
            let mut laplacians = None;
            let peak = measure(|| {
                laplacians = Some(build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap())
            })
            .peak_bytes;
            assert_eq!(laplacians.unwrap().len(), 2);
            assert!(
                peak < dense_matrix_bytes,
                "{graph:?} graph build peaked at {peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
            );
        }
    })
}

#[test]
fn anchor_fit_peak_stays_below_six_tenths_of_a_dense_factor() {
    with_threads(1, || {
        // Three low-dimensional views keep the input small next to one dense
        // n × m factor (9.6 MB), which sparse factors with k = 5 nonzeros per
        // row never come near: the whole fit stays under 0.6 of one.
        let views = vec![ViewSpec::clean(3), ViewSpec::clean(4), ViewSpec::clean(5)];
        let data = MultiViewGmm::new("alloc", 3, 2000, views).generate(3);
        let (n, m) = (data.n(), 200);
        assert_eq!(n, 6000);
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(m));
        let mut res = None;
        let peak = measure(|| res = Some(model.fit(&data).unwrap())).peak_bytes;
        assert_eq!(res.unwrap().labels.len(), n);
        let f64_bytes = std::mem::size_of::<f64>();
        let input_bytes: usize = data.views.iter().map(|x| x.rows() * x.cols() * f64_bytes).sum();
        let bound = (input_bytes + n * m * f64_bytes * 6 / 10) as u64;
        assert!(
            peak < bound,
            "anchor fit peaked at {peak} B ≥ input views + 0.6 × one {n}x{m} dense factor ({bound} B)"
        );
    })
}
