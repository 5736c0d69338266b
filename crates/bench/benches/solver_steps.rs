//! Microbench: per-block cost of the unified solver — the ablation bench
//! for the design choices DESIGN.md calls out (embedding eigensolve vs
//! GPI inner iteration vs Procrustes vs Y-step). Each block is timed under
//! the trace span of the fit phase it is: `spectral.embedding`,
//! `gpi.solve`, `solve.r_step`, `solve.y_step`, `solve.w_step`, and
//! `graph.build` for the threaded vs sequential per-view Laplacian build
//! (its speedup line is only meaningful on a multi-core machine).
//!
//! Also times the GPI polar step (`linalg.polar`, perfbench's name for
//! that layer) at the benchmark workloads' `n × c` shapes: its Gram route
//! against the SVD of the iterate it replaced.
//!
//! `UMSC_BENCH_SMOKE=1` shrinks every problem to smoke scale so
//! `scripts/verify.sh` can exercise the harness end to end in seconds.

use std::hint::black_box;
use umsc_core::indicator::{discretize_rows, labels_to_indicator};
use umsc_core::pipeline::{build_view_laplacians, spectral_embedding, GraphConfig};
use umsc_core::{gpi_stiefel_op_ws, init_rotation, GpiWorkspace};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_linalg::{polar_orthogonalize, polar_orthogonalize_into, procrustes, Matrix, Svd, SvdScratch};
use umsc_rt::bench::{smoke, Bench};
use umsc_rt::par::with_threads;

fn setup(per_cluster: usize) -> (Vec<Matrix>, Matrix, Matrix, Matrix, umsc_data::MultiViewDataset) {
    let mut gen = MultiViewGmm::new(
        "bench",
        5,
        per_cluster,
        vec![ViewSpec::clean(20), ViewSpec::clean(30)],
    );
    gen.separation = 4.0;
    let data = gen.generate(2);
    let laplacians = build_view_laplacians(&data, &GraphConfig::default()).unwrap();
    let mut fused = Matrix::zeros(data.n(), data.n());
    for l in &laplacians {
        fused.axpy(1.0 / laplacians.len() as f64, l);
    }
    let f = spectral_embedding(&fused, 5, 0).unwrap();
    let r = init_rotation(&f).unwrap();
    let y = labels_to_indicator(&discretize_rows(&f.matmul(&r)), 5);
    (laplacians, fused, f, y, data)
}

/// The dense solver's GPI shift: the Gershgorin bound plus a margin.
fn gershgorin_shift(a: &Matrix) -> f64 {
    a.gershgorin_upper_bound().max(0.0) + 1e-9
}

fn bench_solver_blocks(samples: usize, per_cluster: usize) {
    let (laplacians, fused, f, y, data) = setup(per_cluster);
    let n = fused.rows();
    let id = format!("n{n}_c5");
    let group = |name: &str| Bench::new(name).sample_size(samples);

    // The engine's embedding solve on this kNN graph.
    group("spectral.embedding").run(&id, || spectral_embedding(black_box(&fused), 5, 0).unwrap());

    let b_mat = y.matmul_transpose_b(&Matrix::identity(5)).scale(0.01);
    let eta = gershgorin_shift(&fused);
    let mut gpi_ws = GpiWorkspace::new();
    group("gpi.solve").run(&format!("{id}/40_inner"), || {
        let mut f_gpi = f.clone();
        gpi_stiefel_op_ws(black_box(&fused), eta, black_box(&b_mat), &mut f_gpi, 40, 1e-10, &mut gpi_ws)
            .unwrap();
        f_gpi
    });
    group("solve.r_step").run(&id, || procrustes(black_box(&f.matmul_transpose_a(&y))).unwrap());
    let fr = f.clone();
    group("solve.y_step").run(&id, || discretize_rows(black_box(&fr)));
    group("solve.w_step").run(&id, || {
        laplacians
            .iter()
            .map(|l| {
                let lf = l.matmul(black_box(&f));
                f.matmul_transpose_a(&lf).trace()
            })
            .collect::<Vec<f64>>()
    });

    // Threaded vs sequential per-view Laplacian construction.
    let threads = umsc_rt::par::max_threads();
    let cfg = GraphConfig::default();
    let mut build = group("graph.build");
    let seq = build.run(&format!("per_view_laplacians/seq/{id}"), || {
        with_threads(1, || build_view_laplacians(black_box(&data), &cfg))
    });
    let par = build.run(&format!("per_view_laplacians/threads_{threads}/{id}"), || {
        with_threads(threads, || build_view_laplacians(black_box(&data), &cfg))
    });
    println!(
        "per_view_laplacians speedup at {threads} threads: {:.2}x",
        seq.median_ns / par.median_ns
    );
}

/// The GPI polar step at `n × c`: `gram` is `polar_orthogonalize_into`
/// (two thin GEMMs around a `c × c` eigensolve), `svd` the one-sided
/// Jacobi SVD of the iterate followed by `U Vᵀ`, which it replaced as the
/// default route.
fn bench_polar(samples: usize, shapes: &[(usize, usize)]) {
    let mut g = Bench::new("linalg.polar").sample_size(samples);
    for &(n, c) in shapes {
        // A GPI-like iterate: a shifted orthonormal frame plus a small
        // pull, so cond(M) stays near 1 as on the benchmark workloads.
        let frame = polar_orthogonalize(&Matrix::from_fn(n, c, |i, j| ((i * 31 + j * 17) as f64).sin())).unwrap();
        let pull = Matrix::from_fn(n, c, |i, j| ((i * 13 + j * 7) as f64).cos());
        let mut m = frame.scale(2.0);
        m.axpy(0.02, &pull);

        let mut out = Matrix::zeros(n, c);
        let mut ws = SvdScratch::new();
        let mut svd_ws = SvdScratch::new();
        let mut svd_out = Matrix::zeros(n, c);
        let svd_route = |ws: &mut SvdScratch, out: &mut Matrix| {
            Svd::compute_scratch(black_box(&m), ws).unwrap();
            ws.u.matmul_transpose_b_into(&ws.v, out);
        };
        // Both routes must give the same polar factor before either is timed.
        polar_orthogonalize_into(&m, &mut ws, &mut out).unwrap();
        svd_route(&mut svd_ws, &mut svd_out);
        let dist = (&out - &svd_out).max_abs();
        assert!(dist <= 1e-12, "polar routes differ by {dist:e} at {n}x{c}");

        let gram = g.run(&format!("gram/{n}x{c}"), || {
            polar_orthogonalize_into(black_box(&m), &mut ws, &mut out).unwrap();
        });
        let svd = g.run(&format!("svd/{n}x{c}"), || svd_route(&mut svd_ws, &mut svd_out));
        println!("linalg.polar at {n}x{c}: gram route {:.2}x faster than svd", svd.median_ns / gram.median_ns);
    }
}

/// Untimed counting pass: with tracing on, re-run one F-step and one
/// embedding solve so the observability counters (GPI and Lanczos
/// iterations, CSR chunking) land in the snapshot under `solve.total`.
/// Separate from the timed passes above, which run with tracing disabled
/// so their medians stay comparable with the pre-observability trajectory
/// (BENCH_3.json).
fn count_dispatch_rates(per_cluster: usize) {
    umsc_obs::set_enabled(true);
    let (_laplacians, fused, f, y, _data) = setup(per_cluster);
    let b_mat = y.matmul_transpose_b(&Matrix::identity(5)).scale(0.01);
    let mut f_gpi = f.clone();
    gpi_stiefel_op_ws(&fused, gershgorin_shift(&fused), &b_mat, &mut f_gpi, 40, 1e-10, &mut GpiWorkspace::new())
        .unwrap();
    black_box(f_gpi);
    // One embedding eigensolve so the `lanczos.*` counters land in the
    // snapshot.
    black_box(spectral_embedding(&fused, 5, 0).unwrap());

    for (name, value) in umsc_obs::counters_snapshot() {
        umsc_rt::bench::record_counter("solve.total", &name, value);
    }
    umsc_obs::set_enabled(false);
}

fn main() {
    if smoke() {
        bench_solver_blocks(2, 8);
        bench_polar(2, &[(40, 4)]);
        count_dispatch_rates(8);
    } else {
        bench_solver_blocks(10, 50);
        // The shapes of orl-can, handwritten-knn and gmm-anchor.
        bench_polar(10, &[(400, 40), (2000, 10), (10000, 10)]);
        count_dispatch_rates(50);
    }
}
