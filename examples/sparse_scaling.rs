//! The two Laplacian doors of the solver — dense and CSR input — and the
//! one solve they share: peak memory and wall time, plus the peak memory
//! of building the k-NN Laplacians themselves.
//!
//! ```text
//! cargo run --release --example sparse_scaling
//! UMSC_BENCH_SMOKE=1 cargo run --release --example sparse_scaling   # tiny sizes (CI)
//! ```
//!
//! Builds the same k-NN Laplacians once per size, then fits the unified
//! model through both doors — [`Umsc::fit_laplacians`] on densified
//! matrices and [`Umsc::fit_laplacians_sparse`] on the CSR originals —
//! and reports wall time, the counting allocator's peak-live-bytes
//! high-water mark (on top of the door's input), and accuracy for each.
//! The dense door compacts its input at exact zeros and then runs the
//! CSR door's solve, so both return the same labels and both peaks stay
//! O(nnz + n·c); the dense door only pays the O(n²) scan of its input.
//! The graph build is measured too: the streamed k-NN builder
//! holds one `TILE_ROWS × n` distance tile plus `O(n·k)` selectors, so
//! from a few tiles up (every size here, smoke included) it must stay
//! below one `n × n` `f64` matrix; the example exits non-zero if it does
//! not (a gate `scripts/verify.sh` relies on).
//!
//! The run is pinned to one thread (`with_threads(1, ..)`): the allocation
//! tracker's counters are thread-local, so worker threads would hide
//! their share of the traffic and understate the peaks.
//! Wall times are therefore sequential — relative, not best-case.

use std::time::Instant;
use umsc::data::synth::{MultiViewGmm, ViewSpec};
use umsc::linalg::Matrix;
use umsc::metrics::clustering_accuracy;
use umsc::{Umsc, UmscConfig};
use umsc_rt::alloc_track::{measure, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    }
}

fn main() {
    umsc_rt::par::with_threads(1, run)
}

fn run() {
    let smoke = std::env::var("UMSC_BENCH_SMOKE").is_ok();
    // Smoke n = 600 (~5 tiles): at n ≲ 2·TILE_ROWS the tile alone is most
    // of an n × n matrix and the graph gate would say nothing.
    let sizes: &[usize] = if smoke { &[200] } else { &[150, 300, 500] };

    println!("{:>6} {:>11}  {:^32}  {:^32} {:>7}", "", "graph", "dense input", "CSR input", "");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>8}",
        "n", "peak", "time", "peak", "ACC", "time", "peak", "ACC", "labels"
    );
    println!("{}", "-".repeat(92));
    let mut graph_gate_failed = false;

    for &n_per in sizes {
        let mut gen =
            MultiViewGmm::new("sparse", 3, n_per, vec![ViewSpec::clean(8), ViewSpec::clean(10)]);
        gen.separation = 6.0;
        let data = gen.generate(11);
        let n = data.n();

        let model = Umsc::new(UmscConfig::new(3));
        let mut built = None;
        let graph_peak = measure(|| {
            built = Some(umsc::core::build_view_laplacians_sparse(&data, &model.config().graph_config()))
        })
        .peak_bytes;
        let sparse_ls = built.unwrap().expect("laplacians");
        let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
        graph_gate_failed |= graph_peak >= dense_matrix_bytes;
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| Matrix::from_vec(l.rows(), l.cols(), l.to_dense())).collect();

        let t0 = Instant::now();
        let mut dense_res = None;
        let dense_peak = measure(|| dense_res = Some(model.fit_laplacians(&dense_ls))).peak_bytes;
        let t_dense = t0.elapsed();
        let dense_res = dense_res.unwrap().expect("dense fit");
        let acc_dense = clustering_accuracy(&dense_res.labels, &data.labels);

        let t0 = Instant::now();
        let mut sparse_res = None;
        let sparse_peak =
            measure(|| sparse_res = Some(model.fit_laplacians_sparse(&sparse_ls))).peak_bytes;
        let t_sparse = t0.elapsed();
        let sparse_res = sparse_res.unwrap().expect("sparse fit");
        let acc_sparse = clustering_accuracy(&sparse_res.labels, &data.labels);

        let same = if dense_res.labels == sparse_res.labels { "same" } else { "differ" };
        println!(
            "{n:>6} {:>11} {t_dense:>11.2?} {:>11} {acc_dense:>8.4} {t_sparse:>11.2?} {:>11} {acc_sparse:>8.4} {same:>8}",
            human(graph_peak),
            human(dense_peak),
            human(sparse_peak),
        );
    }

    println!(
        "\nSame Laplacians, one solve: the dense door compacts its input at exact zeros, and\nneither door materializes an n x n matrix — each peak is the CSR payload plus n x c\niterates. The graph build streams distance tiles, so it stays below one n x n\nmatrix as well."
    );
    if graph_gate_failed {
        eprintln!("sparse_scaling: a k-NN graph build reached the size of one n x n f64 matrix");
        std::process::exit(1);
    }
}
