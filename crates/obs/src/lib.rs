//! Zero-dependency observability for the umsc workspace.
//!
//! Three instruments, all gated behind a single relaxed atomic load so
//! that the disabled path costs one predictable branch and never
//! touches the heap, a clock, or a lock:
//!
//! * **Spans** — [`span!`] returns an RAII guard that times a phase
//!   with the monotonic clock and, when it drops, folds the measurement
//!   into the one registry under its mutex. A span closed on a worker
//!   thread is in [`spans_snapshot`] as soon as the guard drops.
//! * **Counters** — [`counter!`] adds to a named total in the same
//!   registry, under the same lock.
//! * **Traces** — versioned JSONL records (schema
//!   [`TRACE_SCHEMA`] = `umsc-trace/v1`) built with [`umsc_rt::json`]
//!   and appended line-atomically via [`umsc_rt::jsonl`] to the path in
//!   `UMSC_TRACE_JSON` (or one set programmatically with
//!   [`set_trace_path`]). Solvers emit one [`SweepRecord`] per sweep
//!   plus a final `fit` record and a dump of all phase/counter
//!   aggregates.
//!
//! One mutex suffices: a traced fit closes at most a few hundred spans
//! and adds under a thousand counter units, so an uncontended lock per
//! event costs well under a millisecond per fit. The registry keys on
//! `&'static str` names and allocates only the first time it sees a
//! name, so warm traced sweeps stay allocation-free.
//!
//! Enabling rule: observability turns itself on lazily when
//! `UMSC_TRACE_JSON` is set to a non-empty path or `UMSC_OBS=1`;
//! otherwise it stays off. [`set_enabled`] overrides either way (used
//! by tests, benches, and the CLI `--trace`/`--verbose` flags).
//! Instrumented kernels must be bitwise-identical with observability
//! on or off — instruments only *watch*, never steer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use umsc_rt::json::Json;

/// Schema tag stamped on every emitted JSONL line.
pub const TRACE_SCHEMA: &str = "umsc-trace/v1";

// ---------------------------------------------------------------------------
// Enable state
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether instruments are live. One relaxed load on the hot path; the
/// first call per process resolves the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let env_on = trace_path().is_some()
        || std::env::var("UMSC_OBS").map(|v| v == "1" || v == "true").unwrap_or(false);
    let want = if env_on { STATE_ON } else { STATE_OFF };
    // A concurrent set_enabled wins; only fill in the uninit slot.
    let _ = STATE.compare_exchange(STATE_UNINIT, want, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Force instruments on or off, overriding the environment.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Aggregate statistics for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time across spans, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl PhaseAgg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }
}

/// Every span aggregate and counter total of the process.
struct Registry {
    spans: BTreeMap<&'static str, PhaseAgg>,
    counters: BTreeMap<&'static str, u64>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { spans: BTreeMap::new(), counters: BTreeMap::new() });

/// The registry, locked. A panic while it was held cannot leave it
/// half-updated, so a poisoned lock is taken as is.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `n` to the counter `name` if observability is enabled. Prefer
/// the [`counter!`] macro, which takes the name as a literal.
#[inline]
pub fn add_to_counter(name: &'static str, n: u64) {
    if enabled() {
        *registry().counters.entry(name).or_insert(0) += n;
    }
}

/// Increment a named counter from a hot path; the disabled path is a
/// single relaxed atomic load and branch.
///
/// ```
/// umsc_obs::counter!("spmv.row_chunks", 4);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal, $n:expr) => {
        $crate::add_to_counter($name, $n as u64)
    };
}

/// Snapshot of every counter added to since process start, sorted by
/// name. A counter zeroed by [`reset_counters`] is still listed, at 0.
#[must_use]
pub fn counters_snapshot() -> Vec<(String, u64)> {
    registry().counters.iter().map(|(k, &v)| ((*k).to_string(), v)).collect()
}

/// Zero every counter (names stay listed).
pub fn reset_counters() {
    registry().counters.values_mut().for_each(|v| *v = 0);
}

/// RAII guard produced by [`span!`]. Timing starts at construction
/// (only when observability is enabled) and is recorded on drop.
#[must_use = "binding a span to `_` drops it immediately; use `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Start timing `name` if observability is enabled.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = if enabled() { Some(Instant::now()) } else { None };
        SpanGuard { name, start }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry().spans.entry(self.name).or_default().record(ns);
        }
    }
}

/// Time a phase until the guard drops.
///
/// ```
/// umsc_obs::set_enabled(true);
/// {
///     let _span = umsc_obs::span!("gpi.sweep");
///     // ... work ...
/// }
/// assert!(umsc_obs::spans_snapshot().iter().any(|(n, _)| n == "gpi.sweep"));
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Snapshot of all phase aggregates, sorted by name.
#[must_use]
pub fn spans_snapshot() -> Vec<(String, PhaseAgg)> {
    registry().spans.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

/// Clear all span aggregates.
pub fn reset_spans() {
    registry().spans.clear();
}

/// Reset counters and spans; used by tests and benches between runs.
pub fn reset() {
    reset_counters();
    reset_spans();
}

// ---------------------------------------------------------------------------
// JSONL trace emission
// ---------------------------------------------------------------------------

static TRACE_PATH: Mutex<TracePathSlot> = Mutex::new(TracePathSlot { init: false, path: None });

struct TracePathSlot {
    init: bool,
    path: Option<String>,
}

fn with_trace_slot<R>(f: impl FnOnce(&mut TracePathSlot) -> R) -> R {
    let mut slot = TRACE_PATH.lock().unwrap_or_else(PoisonError::into_inner);
    if !slot.init {
        slot.init = true;
        slot.path = std::env::var("UMSC_TRACE_JSON").ok().filter(|p| !p.is_empty());
    }
    f(&mut slot)
}

/// The trace sink path, from [`set_trace_path`] or `UMSC_TRACE_JSON`.
#[must_use]
pub fn trace_path() -> Option<String> {
    with_trace_slot(|slot| slot.path.clone())
}

/// Point trace emission at `path` (`None` disables emission). Also
/// flips the master enable switch on when a path is set.
pub fn set_trace_path(path: Option<&str>) {
    with_trace_slot(|slot| slot.path = path.map(str::to_string));
    if path.is_some() {
        set_enabled(true);
    }
}

/// The trace sink, when instruments are on and a path is set.
fn sink() -> Option<String> {
    if enabled() {
        trace_path()
    } else {
        None
    }
}

/// Appends one `umsc-trace/v1` record of `event` from `solver`, plus
/// `fields`, to the sink at `path`.
fn emit(path: &str, event: &str, solver: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) {
    let head = [("schema", TRACE_SCHEMA.into()), ("event", event.into()), ("solver", solver.into())];
    let line = Json::obj(head.into_iter().chain(fields)).to_string_compact();
    if let Err(err) = umsc_rt::jsonl::append_line(path, &line) {
        eprintln!("umsc-obs: failed to append trace record to {path}: {err}");
    }
}

/// One solver sweep's telemetry, emitted as an `event: "sweep"` line.
#[derive(Clone, Copy, Debug)]
pub struct SweepRecord<'a> {
    /// Solver flavor: `"sparse"` (every `Umsc` fit) or `"anchor"`.
    pub solver: &'static str,
    /// Zero-based sweep index.
    pub iter: usize,
    /// Overall objective after the sweep.
    pub objective: f64,
    /// Embedding term `Σ_v w_v tr(FᵀL_vF)` (or the anchor analogue).
    pub embedding_term: f64,
    /// Rotation/indicator term `‖FR − Y‖²`.
    pub rotation_term: f64,
    /// Relative objective change vs the previous sweep
    /// (`|prev − obj| / (1 + |prev|)`); non-finite on the first sweep.
    pub residual: f64,
    /// Per-view weights after the sweep.
    pub weights: &'a [f64],
    /// Wall time of the sweep, nanoseconds.
    pub elapsed_ns: u64,
    /// Peak live bytes seen by `umsc_rt::alloc_track` on this thread
    /// (zero unless the counting allocator is installed and armed).
    pub peak_live_bytes: u64,
}

/// Append one sweep record to the trace sink, if any.
pub fn emit_sweep(r: &SweepRecord<'_>) {
    let Some(path) = sink() else { return };
    emit(
        &path,
        "sweep",
        r.solver,
        [
            ("iter", r.iter.into()),
            ("objective", r.objective.into()),
            ("embedding_term", r.embedding_term.into()),
            ("rotation_term", r.rotation_term.into()),
            ("residual", r.residual.into()),
            ("weights", r.weights.iter().copied().collect()),
            ("elapsed_ns", r.elapsed_ns.into()),
            ("peak_live_bytes", r.peak_live_bytes.into()),
        ],
    );
}

/// Append a fit-summary record (`event: "fit"`) to the trace sink.
pub fn emit_fit(solver: &str, iters: usize, converged: bool, elapsed_ns: u64) {
    let Some(path) = sink() else { return };
    emit(
        &path,
        "fit",
        solver,
        [("iters", iters.into()), ("converged", converged.into()), ("elapsed_ns", elapsed_ns.into())],
    );
}

/// Dump every phase aggregate (`event: "phase"`) and counter
/// (`event: "counter"`) to the trace sink. Values are cumulative since
/// process start or the last [`reset`]; consumers (e.g. the CLI
/// `trace-report`) keep the last record per name.
pub fn emit_aggregates(solver: &str) {
    let Some(path) = sink() else { return };
    for (name, agg) in spans_snapshot() {
        emit(
            &path,
            "phase",
            solver,
            [
                ("name", name.into()),
                ("count", agg.count.into()),
                ("total_ns", agg.total_ns.into()),
                ("max_ns", agg.max_ns.into()),
            ],
        );
    }
    for (name, value) in counters_snapshot() {
        emit(&path, "counter", solver, [("name", name.into()), ("value", value.into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests in this file share the process-global obs state; keep
    // them on one lock so enable/reset toggles don't race each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_disabled_do_not_register() {
        let _g = locked();
        set_enabled(false);
        reset();
        counter!("test.disabled", 5);
        assert!(!counters_snapshot().iter().any(|(n, v)| n == "test.disabled" && *v > 0));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = locked();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            counter!("test.acc", 2);
        }
        counter!("test.acc", 4);
        let snap = counters_snapshot();
        let v = snap.iter().find(|(n, _)| n == "test.acc").map(|(_, v)| *v);
        assert_eq!(v, Some(10));
        reset_counters();
        let snap = counters_snapshot();
        let v = snap.iter().find(|(n, _)| n == "test.acc").map(|(_, v)| *v);
        assert_eq!(v, Some(0));
        set_enabled(false);
    }

    #[test]
    fn counters_merge_across_threads() {
        let _g = locked();
        set_enabled(true);
        reset();
        let hits = umsc_rt::par::parallel_map_with(4, &[1u64, 2, 3, 4], |_, &n| {
            counter!("test.par", n);
            n
        });
        let expect: u64 = hits.iter().sum();
        let snap = counters_snapshot();
        let v = snap.iter().find(|(n, _)| n == "test.par").map(|(_, v)| *v);
        assert_eq!(v, Some(expect));
        set_enabled(false);
    }

    #[test]
    fn spans_record_and_merge_from_worker_threads() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _span = span!("test.outer");
            let _ = umsc_rt::par::parallel_map_with(3, &[0usize; 6], |_, _| {
                let _inner = span!("test.inner");
                std::hint::black_box(1 + 1)
            });
        }
        let snap = spans_snapshot();
        let outer = snap.iter().find(|(n, _)| n == "test.outer").map(|(_, a)| *a).unwrap();
        let inner = snap.iter().find(|(n, _)| n == "test.inner").map(|(_, a)| *a).unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 6);
        assert!(outer.total_ns >= outer.max_ns);
        assert!(inner.total_ns >= inner.max_ns);
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = locked();
        set_enabled(false);
        reset_spans();
        {
            let _span = span!("test.off");
        }
        assert!(spans_snapshot().iter().all(|(n, _)| n != "test.off"));
    }

    #[test]
    fn sweep_record_emits_valid_jsonl() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("umsc-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        set_trace_path(Some(path.to_str().unwrap()));
        emit_sweep(&SweepRecord {
            solver: "dense",
            iter: 0,
            objective: 1.5,
            embedding_term: 1.0,
            rotation_term: 0.5,
            residual: f64::NAN,
            weights: &[0.25, 0.75],
            elapsed_ns: 1234,
            peak_live_bytes: 0,
        });
        emit_fit("dense", 7, true, 99999);
        emit_aggregates("dense");
        set_trace_path(None);
        set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut sweeps = 0;
        let mut fits = 0;
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
            assert!(line.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")));
            if line.contains("\"event\":\"sweep\"") {
                sweeps += 1;
                assert!(line.contains("\"residual\":null"), "NaN must serialize as null");
                assert!(line.contains("\"weights\":[0.25,0.75]"));
            }
            if line.contains("\"event\":\"fit\"") {
                fits += 1;
                assert!(line.contains("\"converged\":true"));
            }
        }
        assert_eq!((sweeps, fits), (1, 1));
        let _ = std::fs::remove_file(&path);
    }
}
