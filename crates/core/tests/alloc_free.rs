//! Counting-allocator proofs about the solver's memory behavior, on the
//! shared [`umsc_rt::alloc_track`] instrumentation:
//!
//! 1. warm `one_step_solve` sweeps are **allocation-free** (dense path,
//!    both rotation discretizations);
//! 2. warm `one_step_solve_sparse` sweeps are allocation-free too — the
//!    fused [`WeightedSum`] operator included;
//! 3. warm anchor sweeps (`AnchorUmsc::one_step_solve`) are allocation-free,
//!    the persistent anchor fused operator included;
//! 4. the sparse path's **peak live bytes** beat the dense path's by a
//!    wide margin on a k-NN graph, and in particular never reach one
//!    `n × n` dense matrix — the memory claim of the matrix-free design;
//! 5. building those k-NN Laplacians from features stays below one
//!    `n × n` matrix too (the streamed graph builder);
//! 6. a whole anchor fit, graph build included, peaks below one dense
//!    `n × m` anchor factor on top of its input (the sparse factors);
//! 7. a warm polar step (`polar_orthogonalize_into`) is allocation-free on
//!    its Gram route and on its SVD fallback.
//!
//! Threads are pinned to one (`UMSC_THREADS=1`) because the counters are
//! thread-local (see the module docs of `alloc_track` for why) and worker
//! threads would both allocate stacks and hide their traffic.

use umsc_core::{
    anchor_fused_operator, build_view_laplacians, build_view_laplacians_sparse,
    sparse_fused_operator, AnchorUmsc, AnchorUmscConfig, Discretization, SolverState,
    SolverWorkspace, Umsc, UmscConfig, UmscResult,
};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::SparseFactor;
use umsc_linalg::{
    blanczos_smallest_ws, polar_orthogonalize_into, BlanczosConfig, BlanczosWorkspace, Matrix,
    SvdScratch,
};
use umsc_rt::alloc_track::{measure, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn gmm(per: usize, seed: u64) -> umsc_data::MultiViewDataset {
    MultiViewGmm::new("alloc", 3, per, vec![ViewSpec::clean(5), ViewSpec::clean(6)]).generate(seed)
}

#[test]
fn one_step_solve_is_allocation_free_once_warm() {
    // Single-threaded kernels: thread spawns allocate stacks, and the flop
    // gates would engage threads on larger inputs.
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(20, 7);
    for discretization in [Discretization::Rotation, Discretization::ScaledRotation] {
        let cfg = UmscConfig::new(3).with_discretization(discretization.clone());
        let model = Umsc::new(cfg);
        let laplacians = build_view_laplacians(&data, &model.config().graph_config()).unwrap();

        let mut st = model.init_solver_state(&laplacians).unwrap();
        let mut ws = SolverWorkspace::new();
        // Warm-up: the first sweeps size every buffer (including the two
        // SVD scratches, which see their final shapes mid-iteration).
        for _ in 0..2 {
            model.one_step_solve(&laplacians, &mut st, &mut ws).unwrap();
        }

        let stats = measure(|| {
            for _ in 0..3 {
                model.one_step_solve(&laplacians, &mut st, &mut ws).unwrap();
            }
        });
        assert_eq!(
            stats.allocations, 0,
            "{discretization:?}: warm one_step_solve touched the heap {} times",
            stats.allocations
        );
    }
}

#[test]
fn one_step_solve_sparse_is_allocation_free_once_warm() {
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(20, 8);
    let model = Umsc::new(UmscConfig::new(3));
    let laplacians = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();

    // Seed the solver state from one full sparse fit — the state layout is
    // exactly what the sweep advances.
    let mut st = state_of(model.fit_laplacians_sparse(&laplacians).unwrap());
    let mut fused = sparse_fused_operator(&laplacians, &st.weights);
    let mut ws = SolverWorkspace::new();
    for _ in 0..2 {
        model.one_step_solve_sparse(&laplacians, &mut fused, &mut st, &mut ws).unwrap();
    }

    let stats = measure(|| {
        for _ in 0..3 {
            model.one_step_solve_sparse(&laplacians, &mut fused, &mut st, &mut ws).unwrap();
        }
    });
    assert_eq!(
        stats.allocations, 0,
        "warm one_step_solve_sparse touched the heap {} times",
        stats.allocations
    );
}

#[test]
fn anchor_one_step_solve_is_allocation_free_once_warm() {
    std::env::set_var("UMSC_THREADS", "1");

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
        model.one_step_solve(&factors, &mut fused, &mut st, &mut ws).unwrap();
    }

    let stats = measure(|| {
        for _ in 0..3 {
            model.one_step_solve(&factors, &mut fused, &mut st, &mut ws).unwrap();
        }
    });
    assert_eq!(
        stats.allocations, 0,
        "warm anchor one_step_solve touched the heap {} times",
        stats.allocations
    );
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
fn warm_blanczos_solve_is_allocation_free() {
    std::env::set_var("UMSC_THREADS", "1");

    // The exact shape of a solver sweep: a fused dense Laplacian whose
    // view weights drift slightly between eigensolves.
    let data = gmm(20, 10);
    let model = Umsc::new(UmscConfig::new(3));
    let laplacians = build_view_laplacians(&data, &model.config().graph_config()).unwrap();
    let n = laplacians[0].rows();
    let mut a = Matrix::zeros(n, n);
    for l in &laplacians {
        a.axpy(1.0 / laplacians.len() as f64, l);
    }

    let cfg = BlanczosConfig::default();
    let mut ws = BlanczosWorkspace::new();
    // Cold solve sizes every grow-only buffer; a drifted warm solve
    // exercises the full warm path (expansion, reorth, projected solves)
    // inside the already-reserved capacity.
    blanczos_smallest_ws(&a, 3, &cfg, &mut ws).unwrap();
    a.axpy(0.02, &laplacians[0]);
    blanczos_smallest_ws(&a, 3, &cfg, &mut ws).unwrap();

    a.axpy(0.02, &laplacians[1]);
    let stats = measure(|| blanczos_smallest_ws(&a, 3, &cfg, &mut ws).unwrap());
    assert_eq!(
        stats.allocations, 0,
        "warm blanczos solve touched the heap {} times",
        stats.allocations
    );
}

#[test]
fn warm_polar_step_is_allocation_free_on_both_routes() {
    std::env::set_var("UMSC_THREADS", "1");

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
}

#[test]
fn sparse_path_peak_memory_beats_dense_by_4x() {
    std::env::set_var("UMSC_THREADS", "1");

    // Big enough that one n × n matrix dwarfs every n × c intermediate.
    let data = gmm(80, 9);
    let n = data.n();
    let model = Umsc::new(UmscConfig::new(3));
    let sparse_ls = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| l.to_dense()).collect();

    let mut dense_res = None;
    let dense_peak = measure(|| dense_res = Some(model.fit_laplacians(&dense_ls))).peak_bytes;
    let mut sparse_res = None;
    let sparse_peak =
        measure(|| sparse_res = Some(model.fit_laplacians_sparse(&sparse_ls))).peak_bytes;
    dense_res.unwrap().unwrap();
    sparse_res.unwrap().unwrap();

    // The all-CSR solve must never materialize an n × n dense matrix …
    let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
    assert!(
        sparse_peak < dense_matrix_bytes,
        "sparse solve peaked at {sparse_peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
    );
    // … and its high-water mark must sit far below the dense path's.
    assert!(
        dense_peak > 4 * sparse_peak,
        "dense/sparse peak ratio {:.2} ≤ 4 ({dense_peak} B vs {sparse_peak} B)",
        dense_peak as f64 / sparse_peak as f64
    );
}

#[test]
fn sparse_graph_build_peak_stays_below_one_dense_matrix() {
    std::env::set_var("UMSC_THREADS", "1");

    // Low-dimensional data keeps the O(n²·d) distance work cheap at a size
    // where one n × n matrix (72 MB) dwarfs the O(TILE_ROWS·n + n·k) build.
    let data = MultiViewGmm::new("alloc", 3, 1000, vec![ViewSpec::clean(3), ViewSpec::clean(4)]).generate(5);
    let n = data.n();
    assert_eq!(n, 3000);
    let model = Umsc::new(UmscConfig::new(3));
    let mut laplacians = None;
    let peak = measure(|| {
        laplacians = Some(build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap())
    })
    .peak_bytes;
    assert_eq!(laplacians.unwrap().len(), 2);
    let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
    assert!(
        peak < dense_matrix_bytes,
        "graph build peaked at {peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
    );
}

#[test]
fn anchor_fit_peak_stays_below_one_dense_factor() {
    std::env::set_var("UMSC_THREADS", "1");

    // Three low-dimensional views keep the input small next to one dense
    // n × m factor (9.6 MB), which sparse factors with k = 5 nonzeros per
    // row never come near.
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
    let bound = (input_bytes + n * m * f64_bytes) as u64;
    assert!(
        peak < bound,
        "anchor fit peaked at {peak} B ≥ input views + one {n}x{m} dense factor ({bound} B)"
    );
}
