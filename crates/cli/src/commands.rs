//! Subcommand implementations.

use crate::args::Args;
use std::path::Path;
use umsc_baselines::standard_suite;
use umsc_bench::report::TextTable;
use umsc_core::{
    AnchorAssigner, AnchorUmsc, AnchorUmscConfig, GraphKind, IterationStats, Metric, Umsc, UmscConfig,
};
use umsc_data::{benchmark, BenchmarkId, MultiViewDataset};
use umsc_metrics::MetricSuite;

/// The usage block of the crate docs, printed by `umsc help`, `--help`,
/// `-h` and a bare `umsc`.
const USAGE: &str = include_str!("usage.txt");

/// Routes a parsed command line to its implementation.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    if argv.first().is_none_or(|a| a == "help") || argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(argv)?;
    match args.command.as_deref() {
        Some("generate") => generate(&args),
        Some("info") => info(&args),
        Some("cluster") => cluster(&args),
        Some("assign") => assign(&args),
        Some("evaluate") => evaluate(&args),
        Some("trace-report") => trace_report(&args),
        Some("methods") => {
            for m in standard_suite(2) {
                println!("{}", m.name());
            }
            println!("anchor-umsc");
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown command {other:?}; try: generate, info, cluster, assign, evaluate, trace-report, methods, help"
        )),
        None => Err("no command given; see `umsc help`".into()),
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let name = args.require("benchmark")?;
    let id = BenchmarkId::parse(name)
        .ok_or_else(|| format!("unknown benchmark {name:?}; known: {:?}", BenchmarkId::ALL.map(|b| b.name())))?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let out = args.require("out")?;
    let data = benchmark(id, seed);
    umsc_data::io::save_csv(&data, Path::new(out)).map_err(|e| e.to_string())?;
    println!("wrote {} (n = {}, views = {:?}, clusters = {}) to {out}", data.name, data.n(), data.view_dims(), data.num_clusters);
    Ok(())
}

fn load(args: &Args) -> Result<MultiViewDataset, String> {
    let dir = args.require("data")?;
    umsc_data::io::load_csv(Path::new(dir), dir).map_err(|e| e.to_string())
}

fn info(args: &Args) -> Result<(), String> {
    let data = load(args)?;
    println!("dataset:   {}", data.name);
    println!("objects:   {}", data.n());
    println!("views:     {} (dims {:?})", data.num_views(), data.view_dims());
    println!("clusters:  {}", data.num_clusters);
    let mut counts = vec![0usize; data.num_clusters];
    for &l in &data.labels {
        counts[l] += 1;
    }
    println!("balance:   {counts:?}");
    Ok(())
}

/// Every option `cluster` reads; anything else is an error.
const CLUSTER_OPTIONS: &[&str] = &[
    "data", "clusters", "method", "lambda", "metric", "graph", "anchors", "seed", "out", "save-model", "trace",
    "verbose",
];

fn cluster(args: &Args) -> Result<(), String> {
    args.reject_unknown(CLUSTER_OPTIONS)?;
    // Observability surface: --trace <path> points the umsc-trace/v1
    // JSONL sink at a file (and turns instruments on); --verbose turns
    // instruments on and prints the convergence + phase tables below.
    if let Some(path) = args.get("trace") {
        umsc_obs::set_trace_path(Some(path));
    }
    let verbose = args.flag("verbose");
    if verbose {
        umsc_obs::set_enabled(true);
    }

    let method_name = args.get("method").unwrap_or("umsc").to_ascii_lowercase();
    reject_unread(args, &method_name)?;
    let data = load(args)?;
    let c: usize = args.get_parsed("clusters", data.num_clusters)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let metric = match args.get("metric").unwrap_or("euclidean") {
        "euclidean" => Metric::Euclidean,
        "cosine" => Metric::Cosine,
        other => return Err(format!("unknown --metric {other:?} (euclidean|cosine)")),
    };
    // `knn` is the default graph of `UmscConfig`; `can` the CAN graph with
    // the same 10 neighbours per node.
    let graph = match args.get("graph").unwrap_or("knn") {
        "knn" => UmscConfig::new(c).graph,
        "can" => GraphKind::Adaptive { k: 10 },
        other => return Err(format!("unknown --graph {other:?} (knn|can)")),
    };

    let t0 = std::time::Instant::now();
    let (labels, weights, history) = if method_name == "anchor-umsc" {
        let anchors: usize = args.get_parsed("anchors", 100)?;
        let lambda: f64 = args.get_parsed("lambda", 1.0)?;
        let cfg = AnchorUmscConfig::new(c)
            .with_anchors(anchors)
            .with_lambda(lambda)
            .with_seed(seed);
        let model = AnchorUmsc::new(cfg).fit_model(&data).map_err(|e| e.to_string())?;
        if let Some(path) = args.get("save-model") {
            model.assigner.save(Path::new(path)).map_err(|e| e.to_string())?;
            println!("saved assignable model to {path}");
        }
        let res = model.result;
        (res.labels, Some(res.view_weights), Some(res.history))
    } else if method_name == "umsc" {
        let lambda: f64 = args.get_parsed("lambda", 1.0)?;
        let cfg = UmscConfig::new(c).with_lambda(lambda).with_metric(metric).with_graph(graph).with_seed(seed);
        let res = Umsc::new(cfg).fit(&data).map_err(|e| e.to_string())?;
        (res.labels, Some(res.view_weights), Some(res.history))
    } else {
        let method = standard_suite(c)
            .into_iter()
            .find(|m| m.name().to_ascii_lowercase().contains(&method_name))
            .ok_or_else(|| format!("unknown --method {method_name:?}; run `umsc methods`"))?;
        let out = method.cluster(&data, seed).map_err(|e| e.to_string())?;
        (out.labels, out.view_weights, None)
    };
    let elapsed = t0.elapsed();

    if let Some(out) = args.get("out") {
        let body: String = labels.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(out, body).map_err(|e| e.to_string())?;
        println!("wrote {} labels to {out}", labels.len());
    }
    println!("method:  {method_name} ({elapsed:.2?})");
    if let Some(w) = weights {
        println!("weights: {:?}", w.iter().map(|x| (x * 1000.0).round() / 1000.0).collect::<Vec<_>>());
    }
    // Ground truth travels with the CSV layout, so always report metrics.
    let m = MetricSuite::evaluate(&labels, &data.labels);
    println!("ACC = {:.4}  NMI = {:.4}  Purity = {:.4}  ARI = {:.4}", m.acc, m.nmi, m.purity, m.ari);

    if verbose {
        match history.as_deref() {
            Some(history) if !history.is_empty() => print_convergence(history),
            Some(_) => println!("(no convergence history: solver finished without iterating)"),
            None => println!("(no convergence history: baseline methods do not expose one)"),
        }
        print_obs_tables(&umsc_obs::spans_snapshot(), &umsc_obs::counters_snapshot());
    }
    if let Some(path) = args.get("trace") {
        println!("trace:   {path} (umsc-trace/v1; inspect with `umsc trace-report --trace {path}`)");
    }
    Ok(())
}

/// Fails on an option of `cluster` that `method` does not read: the anchor
/// graph is Euclidean and has no graph kind, only `anchor-umsc` has
/// anchors and a model to save, and the baselines take neither λ, a
/// metric nor a graph kind.
fn reject_unread(args: &Args, method: &str) -> Result<(), String> {
    let unread: &[&str] = match method {
        "anchor-umsc" => &["metric", "graph"],
        "umsc" => &["anchors", "save-model"],
        _ => &["lambda", "metric", "graph", "anchors", "save-model"],
    };
    match unread.iter().find(|&&key| args.get(key).is_some()) {
        Some(key) => Err(format!("--{key} is not read by --method {method}")),
        None => Ok(()),
    }
}

/// `--verbose` convergence table: one row per outer sweep with the
/// objective, its relative change, and the normalized view weights.
fn print_convergence(history: &[IterationStats]) {
    let mut table = TextTable::new(&["iter", "objective", "delta", "weights"]);
    let mut prev: Option<f64> = None;
    for (i, st) in history.iter().enumerate() {
        let delta = prev.map_or("-".to_string(), |p| {
            format!("{:.3e}", (p - st.objective).abs() / (1.0 + p.abs()))
        });
        let weights =
            st.weights.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" ");
        table.row(vec![i.to_string(), format!("{:.6}", st.objective), delta, weights]);
        prev = Some(st.objective);
    }
    println!("\nconvergence ({} sweeps):", history.len());
    print!("{}", table.render());
}

/// The phases table (count, total, mean, max) and the counters table,
/// each skipped when empty: `cluster --verbose` prints them from the
/// in-process obs registry, `trace-report` from a trace file.
fn print_obs_tables(phases: &[(String, umsc_obs::PhaseAgg)], counters: &[(String, u64)]) {
    if !phases.is_empty() {
        let mut table = TextTable::new(&["phase", "count", "total", "mean", "max"]);
        for (name, agg) in phases {
            table.row(vec![
                name.clone(),
                agg.count.to_string(),
                fmt_ns(agg.total_ns as f64),
                fmt_ns(agg.total_ns as f64 / agg.count.max(1) as f64),
                fmt_ns(agg.max_ns as f64),
            ]);
        }
        println!("\nphases:");
        print!("{}", table.render());
    }
    if !counters.is_empty() {
        let mut table = TextTable::new(&["counter", "value"]);
        for (name, value) in counters {
            table.row(vec![name.clone(), value.to_string()]);
        }
        println!("\ncounters:");
        print!("{}", table.render());
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// `trace-report`: aggregates an `umsc-trace/v1` JSONL file into
/// per-phase time/count tables. Every line is run through the same
/// strict parser the bench harness uses (`umsc_rt::json`), so a
/// malformed or wrong-schema trace fails the command instead of being
/// silently skipped.
fn trace_report(args: &Args) -> Result<(), String> {
    use std::collections::BTreeMap;
    use umsc_rt::json::Json;

    let path = args.require("trace")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;

    fn field_f64(v: &Json, key: &str) -> Option<f64> {
        v.get(key).and_then(|x| x.as_f64())
    }
    fn field_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
        v.get(key).and_then(|x| x.as_str())
    }

    // Phase/counter dumps are cumulative per fit, so the last record per
    // name wins; sweeps accumulate per solver.
    let mut phases: BTreeMap<String, umsc_obs::PhaseAgg> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut sweeps: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    let mut fits: Vec<(String, u64, bool, u64)> = Vec::new();
    let mut records = 0usize;

    for (lineno, line) in raw.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        let v = umsc_rt::json::parse(line).map_err(|e| bad(&e))?;
        match field_str(&v, "schema") {
            Some(umsc_obs::TRACE_SCHEMA) => {}
            Some(other) => return Err(bad(&format!("unsupported schema {other:?}"))),
            None => return Err(bad("missing \"schema\" field")),
        }
        records += 1;
        match field_str(&v, "event") {
            Some("sweep") => {
                let solver = field_str(&v, "solver").ok_or_else(|| bad("sweep without solver"))?;
                let obj = field_f64(&v, "objective").ok_or_else(|| bad("sweep without objective"))?;
                sweeps
                    .entry(solver.to_string())
                    .and_modify(|(n, _first, last)| {
                        *n += 1;
                        *last = obj;
                    })
                    .or_insert((1, obj, obj));
            }
            Some("phase") => {
                let name = field_str(&v, "name").ok_or_else(|| bad("phase without name"))?;
                let count = field_f64(&v, "count").unwrap_or(0.0) as u64;
                let total_ns = field_f64(&v, "total_ns").unwrap_or(0.0) as u64;
                let max_ns = field_f64(&v, "max_ns").unwrap_or(0.0) as u64;
                phases.insert(name.to_string(), umsc_obs::PhaseAgg { count, total_ns, max_ns });
            }
            Some("counter") => {
                let name = field_str(&v, "name").ok_or_else(|| bad("counter without name"))?;
                let value = field_f64(&v, "value").unwrap_or(0.0) as u64;
                counters.insert(name.to_string(), value);
            }
            Some("fit") => {
                let solver = field_str(&v, "solver").ok_or_else(|| bad("fit without solver"))?;
                let iters = field_f64(&v, "iters").unwrap_or(0.0) as u64;
                let converged = matches!(v.get("converged"), Some(Json::Bool(true)));
                let elapsed = field_f64(&v, "elapsed_ns").unwrap_or(0.0) as u64;
                fits.push((solver.to_string(), iters, converged, elapsed));
            }
            Some(other) => return Err(bad(&format!("unknown event {other:?}"))),
            None => return Err(bad("missing \"event\" field")),
        }
    }
    if records == 0 {
        return Err(format!("{path}: no trace records"));
    }
    println!("{path}: {records} records ({})", umsc_obs::TRACE_SCHEMA);

    if !fits.is_empty() {
        let mut table = TextTable::new(&["solver", "sweeps", "converged", "elapsed"]);
        for (solver, iters, converged, elapsed) in &fits {
            table.row(vec![
                solver.clone(),
                iters.to_string(),
                converged.to_string(),
                fmt_ns(*elapsed as f64),
            ]);
        }
        println!("\nfits:");
        print!("{}", table.render());
    }
    if !sweeps.is_empty() {
        let mut table = TextTable::new(&["solver", "sweeps", "first objective", "last objective"]);
        for (solver, (n, first, last)) in &sweeps {
            table.row(vec![
                solver.clone(),
                n.to_string(),
                format!("{first:.6}"),
                format!("{last:.6}"),
            ]);
        }
        println!("\nsweeps:");
        print!("{}", table.render());
    }
    print_obs_tables(&phases.into_iter().collect::<Vec<_>>(), &counters.into_iter().collect::<Vec<_>>());
    Ok(())
}

fn assign(args: &Args) -> Result<(), String> {
    let model_path = args.require("model")?;
    let assigner = AnchorAssigner::load(Path::new(model_path)).map_err(|e| e.to_string())?;
    let data = load(args)?;
    let labels = assigner.assign(&data.views).map_err(|e| e.to_string())?;
    if let Some(out) = args.get("out") {
        let body: String = labels.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(out, body).map_err(|e| e.to_string())?;
        println!("wrote {} labels to {out}", labels.len());
    }
    let m = MetricSuite::evaluate(&labels, &data.labels);
    println!("ACC = {:.4}  NMI = {:.4}  Purity = {:.4}", m.acc, m.nmi, m.purity);
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let pred = read_labels(args.require("pred")?)?;
    let truth = read_labels(args.require("truth")?)?;
    if pred.len() != truth.len() {
        return Err(format!("label lengths differ: {} vs {}", pred.len(), truth.len()));
    }
    let m = MetricSuite::evaluate(&pred, &truth);
    println!("ACC     = {:.4}", m.acc);
    println!("NMI     = {:.4}", m.nmi);
    println!("Purity  = {:.4}", m.purity);
    println!("ARI     = {:.4}", m.ari);
    println!("F-score = {:.4}", m.f_score);
    println!("V-meas  = {:.4}", umsc_metrics::v_measure(&pred, &truth));
    Ok(())
}

fn read_labels(path: &str) -> Result<Vec<usize>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    raw.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse::<usize>().map_err(|e| format!("{path}: bad label {l:?}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `umsc_obs` trace path and enable flag are process-global, and
    /// test threads run in parallel: every test that turns tracing on
    /// holds this lock, so one cannot clear another's trace path before
    /// its records are written.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("umsc_cli_{tag}_{}", std::process::id()))
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn generate_info_cluster_evaluate_flow() {
        let dir = tmp("flow");
        let _ = std::fs::remove_dir_all(&dir);
        // Small synthetic dataset written through the library directly
        // (generate would write a full benchmark; keep the test fast).
        let data = umsc_data::synth::MultiViewGmm::new(
            "cli",
            2,
            12,
            vec![umsc_data::ViewSpec::clean(3), umsc_data::ViewSpec::clean(4)],
        )
        .generate(0);
        umsc_data::io::save_csv(&data, &dir).unwrap();

        dispatch(&argv(&["info", "--data", dir.to_str().unwrap()])).unwrap();

        let labels_out = dir.join("pred.csv");
        dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--clusters",
            "2",
            "--out",
            labels_out.to_str().unwrap(),
        ]))
        .unwrap();

        dispatch(&argv(&[
            "evaluate",
            "--pred",
            labels_out.to_str().unwrap(),
            "--truth",
            dir.join("labels.csv").to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_prints_the_usage_of_every_command() {
        for help in [&["--help"][..], &["-h"], &["help"], &[], &["cluster", "--help"]] {
            assert_eq!(dispatch(&argv(help)), Ok(()), "{help:?}");
        }
        for command in ["generate", "info", "cluster", "assign", "evaluate", "trace-report", "methods", "help"] {
            let listed = USAGE.lines().any(|l| l.split_whitespace().take(2).eq(["umsc", command]));
            assert!(listed, "usage omits {command}");
        }
    }

    #[test]
    fn removed_solver_flags_are_rejected() {
        for (name, value) in [("eig", "jacobi"), ("representation", "dense")] {
            let flag = format!("--{name}");
            let err = dispatch(&argv(&["cluster", "--data", "unused", &flag, value])).unwrap_err();
            assert!(err.contains(&flag), "{flag}: got {err:?}");
        }
    }

    #[test]
    fn options_the_method_does_not_read_are_rejected() {
        for (method, name, value) in [
            ("anchor-umsc", "metric", "cosine"),
            ("anchor-umsc", "graph", "can"),
            ("umsc", "anchors", "10"),
            ("umsc", "save-model", "model.bin"),
            ("amgl", "lambda", "2"),
            ("amgl", "metric", "cosine"),
            ("amgl", "graph", "knn"),
        ] {
            let flag = format!("--{name}");
            let err = dispatch(&argv(&["cluster", "--data", "unused", "--method", method, &flag, value]))
                .unwrap_err();
            assert!(err.contains(&flag) && err.contains(method), "{method} {flag}: got {err:?}");
        }
    }

    /// Tracing is observation only: a default fit, whose embedding
    /// solves run Lanczos, must write bitwise-identical labels whether the
    /// trace sink is attached or not.
    #[test]
    fn labels_identical_with_and_without_tracing() {
        let _obs = obs_lock();
        let dir = tmp("eigtrace");
        let _ = std::fs::remove_dir_all(&dir);
        let data = umsc_data::synth::MultiViewGmm::new(
            "bt",
            3,
            15,
            vec![umsc_data::ViewSpec::clean(4), umsc_data::ViewSpec::clean(3)],
        )
        .generate(5);
        umsc_data::io::save_csv(&data, &dir).unwrap();

        let plain = dir.join("plain.csv");
        dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--clusters",
            "3",
            "--out",
            plain.to_str().unwrap(),
        ]))
        .unwrap();

        let traced = dir.join("traced.csv");
        let trace = dir.join("eig_trace.jsonl");
        dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--clusters",
            "3",
            "--out",
            traced.to_str().unwrap(),
            "--verbose",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        umsc_obs::set_trace_path(None);
        umsc_obs::set_enabled(false);
        umsc_obs::reset();

        let a = std::fs::read(&plain).unwrap();
        let b = std::fs::read(&traced).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "tracing changed the label output");

        // The traced run must have recorded eigensolver activity, and
        // the report must parse it.
        let raw = std::fs::read_to_string(&trace).unwrap();
        assert!(
            raw.contains("lanczos.iters"),
            "trace has no lanczos counters"
        );
        dispatch(&argv(&["trace-report", "--trace", trace.to_str().unwrap()])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_command_and_method_rejected() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        let dir = tmp("badmethod");
        let _ = std::fs::remove_dir_all(&dir);
        let data = umsc_data::synth::MultiViewGmm::new("x", 2, 6, vec![umsc_data::ViewSpec::clean(2)]).generate(0);
        umsc_data::io::save_csv(&data, &dir).unwrap();
        let err = dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--method",
            "nonexistent-method",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown --method"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_and_verbose_flow_produces_parseable_trace() {
        let _obs = obs_lock();
        let dir = tmp("trace");
        let _ = std::fs::remove_dir_all(&dir);
        let data = umsc_data::synth::MultiViewGmm::new(
            "t",
            2,
            14,
            vec![umsc_data::ViewSpec::clean(3), umsc_data::ViewSpec::clean(2)],
        )
        .generate(3);
        umsc_data::io::save_csv(&data, &dir).unwrap();
        let trace = dir.join("trace.jsonl");
        dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--clusters",
            "2",
            "--verbose",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let raw = std::fs::read_to_string(&trace).unwrap();
        assert!(!raw.trim().is_empty(), "trace file is empty");
        assert!(raw.lines().all(|l| l.contains("\"schema\":\"umsc-trace/v1\"")));
        // The report must parse the very file the run just wrote.
        dispatch(&argv(&["trace-report", "--trace", trace.to_str().unwrap()])).unwrap();
        // Tracing is process-global; switch it back off for other tests.
        umsc_obs::set_trace_path(None);
        umsc_obs::set_enabled(false);
        umsc_obs::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--graph can` fits through the streamed builder: its trace holds
    /// the Gram tiles and the neighbour selection, and no `graph.can`
    /// front-end over a distance matrix.
    #[test]
    fn traced_can_fit_records_the_streamed_graph_phases() {
        let _obs = obs_lock();
        umsc_obs::reset();
        let dir = tmp("can");
        let _ = std::fs::remove_dir_all(&dir);
        let data = umsc_data::synth::MultiViewGmm::new(
            "can",
            2,
            15,
            vec![umsc_data::ViewSpec::clean(4), umsc_data::ViewSpec::clean(3)],
        )
        .generate(5);
        umsc_data::io::save_csv(&data, &dir).unwrap();
        let d = dir.to_str().unwrap();
        let err = dispatch(&argv(&["cluster", "--data", d, "--graph", "dense"])).unwrap_err();
        assert!(err.contains("unknown --graph"), "got {err:?}");
        let trace = dir.join("trace.jsonl");
        dispatch(&argv(&["cluster", "--data", d, "--clusters", "2", "--graph", "can", "--trace", trace.to_str().unwrap()]))
            .unwrap();
        let raw = std::fs::read_to_string(&trace).unwrap();
        let phases: Vec<&str> = raw
            .lines()
            .filter(|l| l.contains("\"event\":\"phase\""))
            .filter_map(|l| l.split("\"name\":\"").nth(1)?.split('"').next())
            .collect();
        for phase in ["graph.build", "graph.distances", "graph.knn_select"] {
            assert!(phases.contains(&phase), "{phase} missing from {phases:?}");
        }
        assert!(!phases.contains(&"graph.can"), "{phases:?}");
        umsc_obs::set_trace_path(None);
        umsc_obs::set_enabled(false);
        umsc_obs::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_report_rejects_garbage() {
        let d = tmp("badtrace");
        let _ = std::fs::create_dir_all(&d);
        let p = d.join("bad.jsonl");
        std::fs::write(&p, "this is not json\n").unwrap();
        let err = dispatch(&argv(&["trace-report", "--trace", p.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("bad.jsonl:1"), "got {err:?}");
        std::fs::write(&p, "{\"schema\":\"other/v9\",\"event\":\"sweep\"}\n").unwrap();
        let err = dispatch(&argv(&["trace-report", "--trace", p.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("unsupported schema"), "got {err:?}");
        std::fs::write(&p, "\n\n").unwrap();
        let err = dispatch(&argv(&["trace-report", "--trace", p.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no trace records"), "got {err:?}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn evaluate_length_mismatch() {
        let d = tmp("eval");
        let _ = std::fs::create_dir_all(&d);
        std::fs::write(d.join("a.csv"), "0\n1\n").unwrap();
        std::fs::write(d.join("b.csv"), "0\n").unwrap();
        let err = dispatch(&argv(&[
            "evaluate",
            "--pred",
            d.join("a.csv").to_str().unwrap(),
            "--truth",
            d.join("b.csv").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("differ"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn methods_lists() {
        dispatch(&argv(&["methods"])).unwrap();
        dispatch(&[]).unwrap();
    }

    #[test]
    fn anchor_method_runs_and_model_round_trips() {
        let dir = tmp("anchor");
        let _ = std::fs::remove_dir_all(&dir);
        let data = umsc_data::synth::MultiViewGmm::new(
            "a",
            2,
            15,
            vec![umsc_data::ViewSpec::clean(3)],
        )
        .generate(1);
        umsc_data::io::save_csv(&data, &dir).unwrap();
        let model_path = dir.join("model.bin");
        dispatch(&argv(&[
            "cluster",
            "--data",
            dir.to_str().unwrap(),
            "--method",
            "anchor-umsc",
            "--anchors",
            "10",
            "--save-model",
            model_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(model_path.exists());
        // Assign the same data through the persisted model.
        dispatch(&argv(&[
            "assign",
            "--model",
            model_path.to_str().unwrap(),
            "--data",
            dir.to_str().unwrap(),
            "--out",
            dir.join("assigned.csv").to_str().unwrap(),
        ]))
        .unwrap();
        assert!(dir.join("assigned.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
