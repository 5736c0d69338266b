//! End-to-end `fit` benchmark for umsc.
//!
//! One closed loop of whole fits, features in and labels out, one fit at a
//! time from one process, with `UMSC_THREADS` pinned to at most
//! [`MAX_THREADS`] and at most the machine's parallelism.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload handwritten-knn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off, over
//!   [`DATASETS`] datasets made from the seed. The first fit, on the first
//!   dataset, runs with the process-wide heap counter armed (giving
//!   `peak_heap_mb`) and is not timed. Timed fits then go round the
//!   datasets in whole rounds until `--seconds` pass. `nmi`, `acc` and
//!   `final_objective` are means over the datasets.
//! * `--trace 1` gives the per-layer ledger on the first dataset: fits
//!   alternating between tracing off and `umsc-obs` spans and counters on,
//!   then the public functions of each layer timed on the same data.
//!
//! Every fit's output is checked (labels length `n`, every label `< c`, no
//! empty cluster, NMI at or above the workload's floor, labels bit-equal to
//! the first passing fit on the same data); a fit that fails counts in
//! `failed`, never in a time.
//! stdout ends with a `perfbench` record (workload, seed, threads, label
//! hash, ledger flag) and then the result line; stderr gets a table of
//! every metric with its unit. `tool.py compare` diffs two files of such
//! lines.

mod alloc;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use umsc_core::UmscResult;
use umsc_data::MultiViewDataset;
use umsc_linalg::{polar_orthogonalize, Matrix};
use workload::{GraphPhases, Workload};

#[global_allocator]
static GLOBAL: alloc::PeakAlloc = alloc::PeakAlloc;

/// Worker threads the fits may use.
const MAX_THREADS: usize = 2;
/// Data generations timed for `setup_s`.
const SETUP_REPS: usize = 3;
/// Datasets one end-to-end run fits, all made from its seed. Fit time
/// (through the sweep count) and the quality metrics vary with the data;
/// measuring over several datasets keeps that variation from reading as
/// run-to-run spread.
const DATASETS: usize = 4;
/// Fewest untraced/traced fit pairs in a traced run, however short
/// `--seconds` is.
const MIN_TRACE_FITS: usize = 2;
/// Largest share of the traced wall time the top-level phases may miss.
const LEDGER_TOLERANCE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("bad seconds {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Median of `xs`; not finite for an empty slice.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median seconds of `f`, repeated until a quarter second has passed (at
/// least 5 and at most 100 calls).
fn median_time(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (times.len() < 100 && start.elapsed().as_secs_f64() < 0.25) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// FNV-1a over the labels, so runs can be compared bit for bit by hash.
fn label_hash(labels: &[usize]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        for b in (l as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The output check every fit must pass.
fn check(r: &UmscResult, data: &MultiViewDataset, floor: f64) -> Result<(), String> {
    let (n, c) = (data.n(), data.num_clusters);
    if r.labels.len() != n {
        return Err(format!("{} labels for {n} points", r.labels.len()));
    }
    let mut sizes = vec![0usize; c];
    for &l in &r.labels {
        *sizes
            .get_mut(l)
            .ok_or_else(|| format!("label {l} not below c = {c}"))? += 1;
    }
    if let Some(k) = sizes.iter().position(|&s| s == 0) {
        return Err(format!("cluster {k} is empty"));
    }
    if !r.history.last().is_some_and(|h| h.objective.is_finite()) {
        return Err("no finite objective in the history".into());
    }
    let nmi = umsc_metrics::nmi(&r.labels, &data.labels);
    if nmi.is_nan() || nmi < floor {
        return Err(format!("nmi {nmi} below the floor {floor}"));
    }
    Ok(())
}

/// One generated dataset and the first passing fit on it, whose labels
/// every later fit on the same data must reproduce.
struct Case {
    data: MultiViewDataset,
    reference: Option<UmscResult>,
}

/// Fits counted toward `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Runs one fit, checks it, and returns its wall seconds if it passed.
    fn fit(&mut self, w: Workload, case: &mut Case) -> Option<f64> {
        let t = Instant::now();
        let r = w.fit(&case.data);
        let secs = t.elapsed().as_secs_f64();
        self.record(r, case, w.nmi_floor()).then_some(secs)
    }

    /// Checks one result; the first passing result becomes the reference.
    fn record(&mut self, r: umsc_core::Result<UmscResult>, case: &mut Case, floor: f64) -> bool {
        self.attempted += 1;
        let verdict = r.map_err(|e| e.to_string()).and_then(|r| {
            check(&r, &case.data, floor)?;
            match &case.reference {
                Some(first) if first.labels != r.labels => {
                    Err("labels differ from the first fit".into())
                }
                Some(_) => Ok(()),
                None => {
                    case.reference = Some(r);
                    Ok(())
                }
            }
        });
        if let Err(e) = &verdict {
            eprintln!("perfbench: fit {} failed its check: {e}", self.attempted);
            self.failed += 1;
        }
        verdict.is_ok()
    }

    /// Times passing fits, one per case in turn, in whole rounds until
    /// `seconds` have passed (at least one round).
    fn loop_for(&mut self, w: Workload, cases: &mut [Case], seconds: f64) -> Vec<f64> {
        let start = Instant::now();
        let mut times = Vec::new();
        loop {
            for case in cases.iter_mut() {
                times.extend(self.fit(w, case));
            }
            if start.elapsed().as_secs_f64() >= seconds {
                return times;
            }
        }
    }
}

/// Metrics as `(name, value, unit)`, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Report {
    tally: Tally,
    cases: Vec<Case>,
    metrics: Metrics,
    /// Extra `"key":value` pairs for the `perfbench` record.
    notes: String,
}

/// Generates the run's `count` datasets [`SETUP_REPS`] times; returns them
/// and the median time one generation of all of them took. Dataset `i` of
/// seed `s` is generated from `s * DATASETS + i`.
fn setup(w: Workload, seed: u64, count: usize) -> (Vec<Case>, f64) {
    let mut times = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cases = (0..count as u64)
            .map(|i| Case {
                data: w.generate(seed * DATASETS as u64 + i),
                reference: None,
            })
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    (cases, median(&times))
}

/// Mean of `f` over the cases' reference fits; not finite if one is missing.
fn mean_over(cases: &[Case], f: impl Fn(&UmscResult, &MultiViewDataset) -> f64) -> f64 {
    let sum: f64 = cases
        .iter()
        .map(|c| c.reference.as_ref().map_or(f64::NAN, |r| f(r, &c.data)))
        .sum();
    sum / cases.len() as f64
}

fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let (mut cases, setup_s) = setup(w, seed, DATASETS);
    let mut tally = Tally::default();
    let (_, peak) = alloc::peak_during(|| tally.fit(w, &mut cases[0]));
    let times = tally.loop_for(w, &mut cases, seconds);
    let metrics = vec![
        ("fit_s", median(&times), "s"),
        ("setup_s", setup_s, "s"),
        ("peak_heap_mb", peak as f64 / 1e6, "MB"),
        (
            "nmi",
            mean_over(&cases, |r, d| umsc_metrics::nmi(&r.labels, &d.labels)),
            "ratio",
        ),
        (
            "acc",
            mean_over(&cases, |r, d| {
                umsc_metrics::clustering_accuracy(&r.labels, &d.labels)
            }),
            "ratio",
        ),
        (
            "final_objective",
            mean_over(&cases, |r, _| {
                r.history.last().map_or(f64::NAN, |h| h.objective)
            }),
            "objective",
        ),
        (
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "ratio",
        ),
    ];
    let fit_times: Vec<String> = times.iter().map(|&t| json_num(t)).collect();
    let nmi_min = cases
        .iter()
        .filter_map(|c| {
            c.reference
                .as_ref()
                .map(|r| umsc_metrics::nmi(&r.labels, &c.data.labels))
        })
        .fold(f64::INFINITY, f64::min);
    let notes = format!(
        ",\"datasets\":{},\"nmi_min\":{},\"fit_times\":[{}]",
        cases.len(),
        json_num(nmi_min),
        fit_times.join(",")
    );
    Report {
        tally,
        cases,
        metrics,
        notes,
    }
}

/// Per-fit aggregates of the spans and counters recorded over `fits` fits.
struct Trace {
    spans: Vec<(String, umsc_obs::PhaseAgg)>,
    counters: Vec<(String, u64)>,
    fits: f64,
}

impl Trace {
    fn span(&self, name: &str) -> umsc_obs::PhaseAgg {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(Default::default, |(_, a)| *a)
    }
    fn span_s(&self, name: &str) -> f64 {
        self.span(name).total_ns as f64 / 1e9 / self.fits
    }
    fn span_count(&self, name: &str) -> f64 {
        self.span(name).count as f64 / self.fits
    }
    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
            / self.fits
    }
}

/// Alternates an untraced and a traced fit on `case` until `seconds` have
/// passed (at least [`MIN_TRACE_FITS`] pairs), so drift in machine speed
/// hits both sides alike. Returns the wall seconds `(untraced, traced)` of
/// each pair that passed, and the spans and counters of the traced fits.
fn paired_fits(
    tally: &mut Tally,
    w: Workload,
    case: &mut Case,
    seconds: f64,
) -> (Vec<(f64, f64)>, Trace) {
    umsc_obs::reset();
    let start = Instant::now();
    let (mut pairs, mut traced) = (Vec::new(), 0);
    while traced < MIN_TRACE_FITS || start.elapsed().as_secs_f64() < seconds {
        let off = tally.fit(w, case);
        umsc_obs::set_enabled(true);
        let on = tally.fit(w, case);
        umsc_obs::set_enabled(false);
        traced += 1;
        if let (Some(off), Some(on)) = (off, on) {
            pairs.push((off, on));
        }
    }
    let trace = Trace {
        spans: umsc_obs::spans_snapshot(),
        counters: umsc_obs::counters_snapshot(),
        fits: traced as f64,
    };
    (pairs, trace)
}

fn per_layer(w: Workload, seed: u64, seconds: f64) -> Report {
    let (mut cases, _) = setup(w, seed, 1);
    let (n, c) = (cases[0].data.n(), cases[0].data.num_clusters);
    let mut tally = Tally::default();
    tally.fit(w, &mut cases[0]);
    let (pairs, trace) = paired_fits(&mut tally, w, &mut cases[0], seconds);

    // Each layer's public functions, untraced, on the workload's data.
    let case = &mut cases[0];
    let mut phases = GraphPhases::default();
    let t = Instant::now();
    let (graphs, graph_peak) = alloc::peak_during(|| w.build_graphs(&case.data, &mut phases));
    let graph_build_s = t.elapsed().as_secs_f64();
    w.graph_phases(&case.data, &mut phases);
    let t = Instant::now();
    let solved = w.solve(&graphs, c);
    let solve_total_s = t.elapsed().as_secs_f64();
    // The layer calls must compose to the same fit as the public entry.
    tally.record(solved, case, w.nmi_floor());

    let (mut apply_s, mut polar_s, mut sweeps, mut objective_drop) =
        (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    if let Some(r) = &case.reference {
        let f = &r.embedding;
        let mut af = vec![0.0; n * c];
        graphs.with_fused_op(&r.view_weights, |op| {
            apply_s = median_time(|| op.apply_block_into(f.as_slice(), c, &mut af));
        });
        // A GPI-like iterate 2F − A·F of the workload's n×c shape.
        let iterate: Vec<f64> = f
            .as_slice()
            .iter()
            .zip(&af)
            .map(|(x, y)| 2.0 * x - y)
            .collect();
        let iterate = Matrix::from_vec(n, c, iterate);
        polar_s = median_time(|| {
            std::hint::black_box(polar_orthogonalize(&iterate).expect("finite iterate"));
        });
        let first = r.history.first().map_or(f64::NAN, |h| h.objective);
        let last = r.history.last().map_or(f64::NAN, |h| h.objective);
        sweeps = r.history.len() as f64;
        objective_drop = (first - last) / first.abs();
    }

    // The span totals are sums over the traced fits, so the ledger
    // reconciles them against the mean traced wall time, not a median.
    let traced: Vec<f64> = pairs.iter().map(|&(_, on)| on).collect();
    let traced_mean = traced.iter().sum::<f64>() / traced.len() as f64;
    let overheads: Vec<f64> = pairs.iter().map(|&(off, on)| on / off - 1.0).collect();
    // `AnchorUmsc::fit` records no graph span, so its anchor graph counts
    // at the time of the benchmark's own build with the same functions.
    let graph_top = match w {
        Workload::GmmAnchor => graph_build_s,
        _ => trace.span_s("graph.build"),
    };
    let solve_top: f64 = [
        "solve.warm_start",
        "solve.w_step",
        "solve.f_step",
        "solve.r_step",
        "solve.y_step",
    ]
    .iter()
    .map(|s| trace.span_s(s))
    .sum();
    let unaccounted = 1.0 - (graph_top + solve_top) / traced_mean;
    let ledger_ok = unaccounted.abs() <= LEDGER_TOLERANCE;
    if !ledger_ok {
        eprintln!(
            "perfbench: ledger does not reconcile: top-level phases miss {:.1}% of the traced wall time",
            100.0 * unaccounted
        );
    }
    let gpi_iters = trace.counter("gpi.iters");
    let f_steps = trace.span_count("solve.f_step");
    let metrics = vec![
        ("graph.build_s", graph_build_s, "s"),
        ("graph.distances_s", phases.distances_s, "s"),
        ("graph.knn_select_s", phases.knn_select_s, "s"),
        ("graph.can_s", phases.can_s, "s"),
        ("graph.laplacian_s", phases.laplacian_s, "s"),
        ("graph.anchor_select_s", phases.anchor_select_s, "s"),
        ("graph.anchor_weights_s", phases.anchor_weights_s, "s"),
        ("graph.nnz", graphs.nnz() as f64, "count"),
        ("graph.peak_heap_mb", graph_peak as f64 / 1e6, "MB"),
        ("solve.total_s", solve_total_s, "s"),
        ("solve.warm_start_s", trace.span_s("solve.warm_start"), "s"),
        ("solve.f_step_s", trace.span_s("solve.f_step"), "s"),
        ("solve.w_step_s", trace.span_s("solve.w_step"), "s"),
        ("solve.r_step_s", trace.span_s("solve.r_step"), "s"),
        ("solve.y_step_s", trace.span_s("solve.y_step"), "s"),
        ("solve.sweeps", sweeps, "count"),
        ("solve.objective_drop", objective_drop, "ratio"),
        ("gpi.iters", gpi_iters, "count"),
        (
            "gpi.cap_frac",
            gpi_iters / (w.gpi_cap(c) as f64 * f_steps),
            "ratio",
        ),
        // The dense path's cold solve is `spectral.embedding` (which wraps
        // Lanczos above its size threshold); the matrix-free paths call
        // Lanczos directly. The larger span is the cold solve either way.
        (
            "eig.cold_s",
            trace
                .span_s("spectral.embedding")
                .max(trace.span_s("lanczos.solve")),
            "s",
        ),
        ("eig.warm_s", trace.span_s("eig.warm"), "s"),
        ("lanczos.iters", trace.counter("lanczos.iters"), "count"),
        ("blanczos.iters", trace.counter("blanczos.iters"), "count"),
        ("linalg.polar_s", polar_s, "s"),
        ("gemm.rowwise", trace.counter("gemm.rowwise"), "count"),
        ("gemm.blocked", trace.counter("gemm.blocked"), "count"),
        ("op.apply_block_s", apply_s, "s"),
        ("spmv.row_chunks", trace.counter("spmv.row_chunks"), "count"),
        ("obs.overhead_frac", median(&overheads), "ratio"),
        ("trace.unaccounted_frac", unaccounted, "ratio"),
    ];
    let notes = format!(
        ",\"fit_pairs\":{},\"traced_fit_s\":{},\"ledger_ok\":{ledger_ok}",
        pairs.len(),
        json_num(median(&traced))
    );
    Report {
        tally,
        cases,
        metrics,
        notes,
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    // Before any umsc call: the thread cap is read once per process.
    std::env::set_var("UMSC_THREADS", threads.to_string());
    umsc_obs::set_trace_path(None);
    umsc_obs::set_enabled(false);

    let w = args.workload;
    let report = if args.trace {
        per_layer(w, args.seed, args.seconds)
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    let Report {
        tally,
        cases,
        metrics,
        notes,
    } = report;

    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let references: Option<Vec<&UmscResult>> = cases.iter().map(|c| c.reference.as_ref()).collect();
    let correct = tally.failed == 0 && references.is_some() && all_finite;
    let hash = references.map_or_else(
        || "none".into(),
        |rs| {
            label_hash(
                &rs.iter()
                    .flat_map(|r| r.labels.iter().copied())
                    .collect::<Vec<_>>(),
            )
        },
    );
    println!(
        "{{\"perfbench\":\"umsc-fit/v1\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{nproc},\
         \"threads\":{threads},\"nmi_floor\":{},\"label_hash\":\"{hash}\",\"failed_frac\":{}{notes}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        w.nmi_floor(),
        json_num(tally.failed as f64 / tally.attempted as f64),
    );
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        // A value that is not finite makes the run incorrect; print 0 so
        // the line stays valid JSON.
        let v = if value.is_finite() {
            json_num(*value)
        } else {
            "0".into()
        };
        let _ = write!(
            body,
            "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
        );
        eprintln!("{name:<24} {value:>14.6} {unit}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.attempted, tally.failed
    );
    ExitCode::SUCCESS
}
