//! Assembles the machine-readable perf-trajectory snapshot.
//!
//! ```text
//! bench_report <records.jsonl> <out.json>
//! ```
//!
//! Reads the JSONL stream that `umsc_rt::bench` appends to
//! `$UMSC_BENCH_JSON` (one record per `Bench::run`), folds it into a
//! single snapshot object — median ns per kernel plus the machine's core
//! and thread counts — and writes it to `<out.json>`. The output is
//! re-parsed as a self-check before the process exits 0; any parse or
//! shape failure exits 1 so `scripts/bench.sh` fails loudly instead of
//! committing a corrupt snapshot.

use std::process::ExitCode;

use umsc_rt::json::{parse, Json};

const SCHEMA: &str = "umsc-bench-trajectory/v1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, jsonl_in, json_out] = args.as_slice() else {
        eprintln!("usage: bench_report <records.jsonl> <out.json>");
        return ExitCode::FAILURE;
    };

    let text = match std::fs::read_to_string(jsonl_in) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_report: cannot read {jsonl_in}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut kernels = Vec::new();
    let mut counters = Vec::new();
    let mut threads_seen: Option<f64> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("bench_report: {jsonl_in}:{}: {e}", lineno + 1);
        let record = match parse(line).map_err(at) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        // Counter records (from `umsc_rt::bench::record_counter`) carry a
        // `kind` tag and a different shape than timing records.
        let (kept, numbers) = if record.get("kind").and_then(Json::as_str) == Some("counter") {
            (&mut counters, &["value"][..])
        } else {
            if let Some(t) = record.get("threads").and_then(Json::as_f64) {
                threads_seen = Some(t);
            }
            (&mut kernels, &["min_ns", "median_ns", "mean_ns", "max_ns", "samples"][..])
        };
        match pick(&record, numbers).map_err(at) {
            Ok(v) => kept.push(v),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if kernels.is_empty() {
        eprintln!("bench_report: {jsonl_in} holds no records — did the benches run?");
        return ExitCode::FAILURE;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = threads_seen.unwrap_or(umsc_rt::par::max_threads() as f64);

    let snapshot = Json::obj([
        ("schema", SCHEMA.into()),
        ("cores", cores.into()),
        ("threads", threads.into()),
        ("kernels", Json::Arr(kernels)),
        ("counters", Json::Arr(counters)),
    ]);

    let rendered = format!("{}\n", snapshot.to_string_compact());
    if let Err(e) = std::fs::write(json_out, &rendered) {
        eprintln!("bench_report: cannot write {json_out}: {e}");
        return ExitCode::FAILURE;
    }

    // Self-check: the file we just wrote must parse back to the same value.
    match std::fs::read_to_string(json_out).map_err(|e| e.to_string()).and_then(|t| parse(t.trim()))
    {
        Ok(back) if back == snapshot => {}
        Ok(_) => {
            eprintln!("bench_report: {json_out} does not round-trip");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench_report: re-parse of {json_out} failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let n = snapshot.get("kernels").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let nc = snapshot.get("counters").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    println!(
        "bench_report: wrote {json_out} ({n} kernels, {nc} counters, {cores} cores, {threads} threads)"
    );
    ExitCode::SUCCESS
}

/// The record's `group` and `id` strings and its `numbers`; an error
/// names the first one missing.
fn pick(record: &Json, numbers: &[&str]) -> Result<Json, String> {
    let mut fields = Vec::new();
    for key in ["group", "id"] {
        let s = record.get(key).and_then(Json::as_str).ok_or(format!("missing string {key:?}"))?;
        fields.push((key, s.into()));
    }
    for &key in numbers {
        let x = record.get(key).and_then(Json::as_f64).ok_or(format!("missing number {key:?}"))?;
        fields.push((key, x.into()));
    }
    Ok(Json::obj(fields))
}
