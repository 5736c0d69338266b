//! Micro-bench timer (the in-tree replacement for `criterion`).
//!
//! Deliberately small: warm up, take N wall-clock samples of the closure,
//! report min / median / mean. No statistical regression machinery — the
//! bench binaries print a table and the numbers land in CHANGES.md /
//! EXPERIMENTS.md by hand. Bench targets keep `harness = false` and call
//! this from `main`, so `cargo bench` works exactly as before.
//!
//! Two environment hooks make the timer scriptable:
//!
//! * `UMSC_BENCH_JSON=<path>` — every [`Bench::run`] additionally appends
//!   one JSON object per line (JSONL) to `<path>`, so `scripts/bench.sh`
//!   can assemble a machine-readable perf trajectory (`BENCH_3.json`)
//!   without scraping stdout;
//! * `UMSC_BENCH_SMOKE=1` — bench binaries that consult [`smoke`] shrink
//!   their problem sizes to seconds-scale, letting `scripts/verify.sh`
//!   exercise the whole harness (including the JSON output) offline.
//!
//! ```
//! use umsc_rt::bench::Bench;
//! let mut b = Bench::new("demo").sample_size(3);
//! let stats = b.run("sum_1k", || (0..1000u64).sum::<u64>());
//! assert!(stats.min_ns > 0.0);
//! ```

use std::time::Instant;

use crate::json::Json;

/// True when `UMSC_BENCH_SMOKE` is set to `1`/`true`: bench binaries
/// should use tiny problem sizes (CI smoke of the harness itself, not a
/// measurement).
pub fn smoke() -> bool {
    matches!(std::env::var("UMSC_BENCH_SMOKE").as_deref(), Ok("1") | Ok("true"))
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean of all samples.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// A named group of benchmarks sharing a sample budget.
pub struct Bench {
    group: String,
    sample_size: usize,
    warmup: usize,
}

impl Bench {
    /// New group with 10 samples and 2 warmup runs per benchmark.
    pub fn new(group: &str) -> Self {
        Bench { group: group.to_string(), sample_size: 10, warmup: 2 }
    }

    /// Replaces the per-benchmark sample count (builder style).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f`, prints a `group/id  min .. median .. max` line, and
    /// returns the stats. The closure's result is passed through
    /// [`std::hint::black_box`] so the computation is not optimized away.
    pub fn run<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> Stats {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples: Vec<f64> = (0..self.sample_size)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            min_ns: samples[0],
            median_ns: samples[samples.len() / 2],
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            max_ns: *samples.last().expect("sample_size >= 1"),
        };
        println!(
            "{:<48} {:>10} .. {:>10} .. {:>10}  (mean {})",
            format!("{}/{}", self.group, id),
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.max_ns),
            fmt_ns(stats.mean_ns),
        );
        record_json(&self.group, id, self.sample_size, &stats);
        stats
    }
}

/// Appends one timing record to `$UMSC_BENCH_JSON` (no-op when unset).
fn record_json(group: &str, id: &str, samples: usize, stats: &Stats) {
    append_record([
        ("group", group.into()),
        ("id", id.into()),
        ("min_ns", stats.min_ns.into()),
        ("median_ns", stats.median_ns.into()),
        ("mean_ns", stats.mean_ns.into()),
        ("max_ns", stats.max_ns.into()),
        ("samples", samples.into()),
    ]);
}

/// Appends one counter record to `$UMSC_BENCH_JSON` (no-op when unset).
///
/// Counter records carry `"kind":"counter"` so `bench_report` can route
/// them into the snapshot's `counters` array instead of validating them
/// as timing records. Bench binaries use this to publish observability
/// counters (e.g. the `spmv.row_chunks` tally from `umsc-obs`) alongside
/// their timings.
pub fn record_counter(group: &str, id: &str, value: u64) {
    append_record([
        ("kind", "counter".into()),
        ("group", group.into()),
        ("id", id.into()),
        ("value", value.into()),
    ]);
}

/// Appends `fields` plus the thread count as one JSONL record to
/// `$UMSC_BENCH_JSON` (no-op when unset). Failures are warnings, not
/// panics — a broken trajectory file must not take the measurement down
/// with it.
fn append_record<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) {
    let Ok(path) = std::env::var("UMSC_BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let threads = ("threads", crate::par::max_threads().into());
    let line = Json::obj(fields.into_iter().chain([threads])).to_string_compact();
    if let Err(e) = crate::jsonl::append_line(&path, &line) {
        eprintln!("warning: could not append to UMSC_BENCH_JSON={path}: {e}");
    }
}

/// Human-readable duration from nanoseconds: `"500 ns"`, `"1.50 µs"`,
/// `"2.50 ms"`, `"3.200 s"`.
pub fn fmt_ns(ns: f64) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_positive() {
        let mut b = Bench::new("test").sample_size(5);
        let s = b.run("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.max_ns);
        assert!(s.mean_ns >= s.min_ns && s.mean_ns <= s.max_ns);
    }

    #[test]
    fn formatting_covers_magnitudes() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.200 s");
    }

    #[test]
    fn jsonl_recording_appends_one_line_per_run() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("umsc_bench_json_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("UMSC_BENCH_JSON", &path);
        let mut b = Bench::new("json_test").sample_size(2);
        b.run("first", || 1 + 1);
        b.run("second", || 2 + 2);
        std::env::remove_var("UMSC_BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Other tests run concurrently and may also record while the env var
        // is set — filter to this test's group before asserting.
        let lines: Vec<&str> =
            text.lines().filter(|l| l.contains("\"group\":\"json_test\"")).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":\"first\""));
        assert!(lines[1].contains("\"id\":\"second\""));
        assert!(lines[1].contains("\"median_ns\":"));
        assert!(lines[1].contains("\"threads\":"));
    }
}
