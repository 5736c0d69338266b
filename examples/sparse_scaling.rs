//! Dense vs matrix-free sparse solve: peak memory and wall time, plus the
//! peak memory of building the k-NN Laplacians themselves.
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
//! high-water mark, and accuracy for each. The sparse path's peak stays
//! O(nnz + n·c) while the dense path carries O(n²) matrices through the
//! whole solve. The graph build is measured too: the streamed k-NN builder
//! holds one `TILE_ROWS × n` distance tile plus `O(n·k)` selectors, so
//! from a few tiles up (every size here, smoke included) it must stay
//! below one `n × n` `f64` matrix; the example exits non-zero if it does
//! not (a gate `scripts/verify.sh` relies on).
//!
//! The run is pinned to one thread (`UMSC_THREADS=1`): the allocation
//! tracker's counters are thread-local, so worker threads would hide
//! their share of the traffic and understate the dense path's peak.
//! Wall times are therefore sequential — relative, not best-case.

use std::time::Instant;
use umsc::data::synth::{MultiViewGmm, ViewSpec};
use umsc::graph::CsrMatrix;
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
    std::env::set_var("UMSC_THREADS", "1");
    let smoke = std::env::var("UMSC_BENCH_SMOKE").is_ok();
    // Smoke n = 600 (~5 tiles): at n ≲ 2·TILE_ROWS the tile alone is most
    // of an n × n matrix and the graph gate would say nothing.
    let sizes: &[usize] = if smoke { &[200] } else { &[150, 300, 500] };

    println!("{:>6} {:>11}  {:^32}  {:^32} {:>7}", "", "graph", "dense", "sparse", "");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>8}",
        "n", "peak", "time", "peak", "ACC", "time", "peak", "ACC", "ratio"
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
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(CsrMatrix::to_dense).collect();

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

        println!(
            "{n:>6} {:>11} {t_dense:>11.2?} {:>11} {acc_dense:>8.4} {t_sparse:>11.2?} {:>11} {acc_sparse:>8.4} {:>7.1}x",
            human(graph_peak),
            human(dense_peak),
            human(sparse_peak),
            dense_peak as f64 / sparse_peak.max(1) as f64
        );
    }

    println!(
        "\nSame Laplacians, same labels — the sparse path just never materializes an n x n\nmatrix: its peak is the CSR payload plus n x c iterates, so the dense/sparse peak\nratio grows linearly with n at fixed k-NN degree. The graph build streams\ndistance tiles, so it stays below one n x n matrix as well."
    );
    if graph_gate_failed {
        eprintln!("sparse_scaling: a k-NN graph build reached the size of one n x n f64 matrix");
        std::process::exit(1);
    }
}
