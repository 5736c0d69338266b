//! Microbench: per-block cost of the unified solver — the ablation bench
//! for the design choices DESIGN.md calls out (embedding eigensolve vs
//! GPI inner iteration vs Procrustes vs Y-step). The eigensolve dominates;
//! everything downstream is cheap, which is why the one-stage loop costs
//! little more than a single two-stage embedding.
//!
//! Also measures the threaded vs sequential per-view Laplacian build and
//! the cache-blocked GEMM against the naive row kernel (the speedup lines
//! are only meaningful on a multi-core machine; the ≥2x GEMM assertion is
//! gated on ≥4 cores so single-core CI still records honest numbers), and
//! the GPI polar step (`linalg.polar`, perfbench's name for that layer) at
//! the benchmark workloads' `n × c` shapes: its Gram route against the
//! SVD of the iterate it replaced.
//!
//! `UMSC_BENCH_SMOKE=1` shrinks every problem to smoke scale so
//! `scripts/verify.sh` can exercise the harness end to end in seconds.

use std::hint::black_box;
use umsc_core::indicator::{discretize_rows, labels_to_indicator};
use umsc_core::pipeline::{
    build_laplacians_threaded_with, build_view_laplacians, spectral_embedding, GraphConfig,
};
use umsc_core::{gpi_stiefel_op_ws, init_rotation, GpiWorkspace};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_linalg::{polar_orthogonalize_into, procrustes, qr, Matrix, Svd, SvdScratch};
use umsc_rt::bench::{smoke, Bench};

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
    let mut g = Bench::new(&format!("solver_steps_n{n}_c5")).sample_size(samples);

    // The engine's embedding solve on this kNN graph.
    g.run("embedding_eigensolve", || spectral_embedding(black_box(&fused), 5, 0).unwrap());

    let b_mat = y.matmul_transpose_b(&Matrix::identity(5)).scale(0.01);
    let eta = gershgorin_shift(&fused);
    let mut gpi_ws = GpiWorkspace::new();
    g.run("gpi_f_step_40_inner", || {
        let mut f_gpi = f.clone();
        gpi_stiefel_op_ws(black_box(&fused), eta, black_box(&b_mat), &mut f_gpi, 40, 1e-10, &mut gpi_ws)
            .unwrap();
        f_gpi
    });
    g.run("procrustes_r_step", || procrustes(black_box(&f.matmul_transpose_a(&y))).unwrap());
    let fr = f.clone();
    g.run("argmax_y_step", || discretize_rows(black_box(&fr)));
    g.run("trace_w_step", || {
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
    let seq = g.run("per_view_laplacians/seq", || {
        build_laplacians_threaded_with(1, black_box(&data.views), &cfg)
    });
    let par = g.run(&format!("per_view_laplacians/threads_{threads}"), || {
        build_laplacians_threaded_with(threads, black_box(&data.views), &cfg)
    });
    println!(
        "per_view_laplacians speedup at {threads} threads: {:.2}x",
        seq.median_ns / par.median_ns
    );
}

/// Square GEMM: the cache-blocked packed kernel (what `Matrix::matmul`
/// dispatches to for wide outputs) vs the naive row kernel at one thread.
/// This is the tentpole's headline number; the trajectory file records it
/// at every size so future PRs can track regressions.
fn bench_square_gemm(samples: usize, sizes: &[usize]) {
    let threads = umsc_rt::par::max_threads();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut g = Bench::new("square_gemm").sample_size(samples);

    for &n in sizes {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) as f64).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) as f64).cos());

        // Bitwise spot-check before timing: every kernel path must agree.
        let reference = a.matmul_naive_with(1, &b);
        let blocked = a.matmul_tiled_with(threads, 32, 64, &b);
        assert_eq!(reference.as_slice(), blocked.as_slice(), "GEMM paths diverge at n={n}");
        assert_eq!(reference.as_slice(), a.matmul(&b).as_slice(), "dispatch diverges at n={n}");

        let naive = g.run(&format!("naive_seq/{n}"), || a.matmul_naive_with(1, black_box(&b)));
        // `blocked_seq_forced` forces the packed kernel at one thread — a
        // path the dispatcher never picks (sequential products stay on the
        // row kernel; see `matmul_dispatch`) but worth tracking to justify
        // that policy. `dispatch_seq` is what one thread actually runs.
        g.run(&format!("blocked_seq_forced/{n}"), || {
            black_box(&a).matmul_tiled_with(1, 32, 64, black_box(&b))
        });
        g.run(&format!("dispatch_seq/{n}"), || {
            black_box(&a).matmul_with_threads(1, black_box(&b))
        });
        let fast =
            g.run(&format!("dispatch_t{threads}/{n}"), || black_box(&a).matmul(black_box(&b)));
        let speedup = naive.median_ns / fast.median_ns;
        println!("square_gemm speedup at n={n}, {threads} threads: {speedup:.2}x");

        // ≥2x on the headline size — only meaningful with real parallelism,
        // so gate on core count rather than fail honest single-core runs.
        if n >= 512 && cores >= 4 && threads >= 4 {
            assert!(
                speedup >= 2.0,
                "blocked GEMM at n={n} only {speedup:.2}x over naive on {cores} cores"
            );
        }
    }
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
        let frame = qr(&Matrix::from_fn(n, c, |i, j| ((i * 31 + j * 17) as f64).sin())).q;
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

/// Untimed counting pass: with tracing on, re-run one iteration of the
/// workloads so the observability counters tally which kernel paths the
/// dispatcher actually picked at these sizes. Separate from the timed
/// passes above, which run with tracing disabled so their medians stay
/// comparable with the pre-observability trajectory (BENCH_3.json).
fn count_dispatch_rates(gemm_sizes: &[usize], per_cluster: usize) {
    umsc_obs::set_enabled(true);
    for &n in gemm_sizes {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) as f64).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) as f64).cos());
        black_box(a.matmul(&b));
    }
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
        umsc_rt::bench::record_counter("solver_steps", &name, value);
    }
    umsc_obs::set_enabled(false);
}

fn main() {
    if smoke() {
        bench_solver_blocks(2, 8);
        bench_square_gemm(2, &[48]);
        bench_polar(2, &[(40, 4)]);
        count_dispatch_rates(&[48], 8);
    } else {
        bench_solver_blocks(10, 50);
        bench_square_gemm(5, &[128, 256, 512]);
        // The shapes of orl-can, handwritten-knn and gmm-anchor.
        bench_polar(10, &[(400, 40), (2000, 10), (10000, 10)]);
        count_dispatch_rates(&[128, 256, 512], 50);
    }
}
