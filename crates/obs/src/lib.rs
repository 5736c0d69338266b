//! Zero-dependency observability for the umsc workspace.
//!
//! Three instruments, all gated behind a single relaxed atomic load so
//! that the disabled path costs one predictable branch and never
//! touches the heap, a clock, or a lock:
//!
//! * **Spans** — [`span!`] returns an RAII guard that times a phase
//!   with the monotonic clock and folds the measurement into a
//!   thread-local table; tables merge into a global registry when the
//!   guard's thread exits (or on [`flush_thread`]). Snapshots are
//!   available any time via [`spans_snapshot`].
//! * **Counters** — [`counter!`] expands to a per-call-site
//!   `static` [`CounterSite`] holding an `AtomicU64`. Sites register
//!   themselves on first hit through an intrusive lock-free list, so
//!   incrementing is one atomic add and enumeration needs no
//!   allocation-on-hot-path bookkeeping.
//! * **Traces** — versioned JSONL records (schema
//!   [`TRACE_SCHEMA`] = `umsc-trace/v1`) appended line-atomically via
//!   [`umsc_rt::jsonl`] to the path in `UMSC_TRACE_JSON` (or one set
//!   programmatically with [`set_trace_path`]). Solvers emit one
//!   [`SweepRecord`] per sweep plus a final `fit` record and a dump of
//!   all phase/counter aggregates.
//!
//! Enabling rule: observability turns itself on lazily when
//! `UMSC_TRACE_JSON` is set to a non-empty path or `UMSC_OBS=1`;
//! otherwise it stays off. [`set_enabled`] overrides either way (used
//! by tests, benches, and the CLI `--trace`/`--verbose` flags).
//! Instrumented kernels must be bitwise-identical with observability
//! on or off — instruments only *watch*, never steer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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
// Counters
// ---------------------------------------------------------------------------

/// One named counter, declared `static` by the [`counter!`] macro.
///
/// Sites link themselves into a global intrusive list on first
/// increment; the list only ever grows and only ever holds `&'static`
/// sites, so traversal is safe without synchronizing with writers.
pub struct CounterSite {
    name: &'static str,
    value: AtomicU64,
    next: AtomicPtr<CounterSite>,
    registered: AtomicU8,
}

static COUNTER_HEAD: AtomicPtr<CounterSite> = AtomicPtr::new(ptr::null_mut());

impl CounterSite {
    /// Const constructor for `static` declaration.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        CounterSite {
            name,
            value: AtomicU64::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            registered: AtomicU8::new(0),
        }
    }

    /// Add `n` to the counter if observability is enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if self.registered.load(Ordering::Acquire) == 0 {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        // First caller claims registration and links the site.
        if self.registered.swap(1, Ordering::AcqRel) != 0 {
            return;
        }
        let me: *mut CounterSite = ptr::from_ref(self).cast_mut();
        let mut head = COUNTER_HEAD.load(Ordering::Acquire);
        loop {
            self.next.store(head, Ordering::Relaxed);
            match COUNTER_HEAD.compare_exchange_weak(
                head,
                me,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
    }
}

fn for_each_counter(mut f: impl FnMut(&'static CounterSite)) {
    let mut p = COUNTER_HEAD.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: only `&'static CounterSite`s are ever linked (see
        // `register`, reachable solely through `add(&'static self)`),
        // and the list is append-only, so every node pointer stays
        // valid for the life of the process.
        let site: &'static CounterSite = unsafe { &*p };
        f(site);
        p = site.next.load(Ordering::Acquire);
    }
}

/// Snapshot of all counters that have fired at least once, summed per
/// name (several call sites may share a name) and sorted by name.
#[must_use]
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let mut map: BTreeMap<&'static str, u64> = BTreeMap::new();
    for_each_counter(|site| {
        *map.entry(site.name).or_insert(0) += site.value.load(Ordering::Relaxed);
    });
    map.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Zero every registered counter (sites stay registered).
pub fn reset_counters() {
    for_each_counter(|site| site.value.store(0, Ordering::Relaxed));
}

/// Increment a named counter from a hot path.
///
/// Expands to a per-call-site `static` [`CounterSite`]; the disabled
/// path is a single relaxed atomic load and branch.
///
/// ```
/// umsc_obs::counter!("spmv.row_chunks", 4);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal, $n:expr) => {{
        static __UMSC_OBS_SITE: $crate::CounterSite = $crate::CounterSite::new($name);
        __UMSC_OBS_SITE.add($n as u64);
    }};
}

// ---------------------------------------------------------------------------
// Spans
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

    fn merge(&mut self, other: PhaseAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

static GLOBAL_SPANS: Mutex<BTreeMap<&'static str, PhaseAgg>> = Mutex::new(BTreeMap::new());

struct LocalSpans {
    table: RefCell<BTreeMap<&'static str, PhaseAgg>>,
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        merge_into_global(&mut self.table.borrow_mut());
    }
}

thread_local! {
    static LOCAL_SPANS: LocalSpans =
        const { LocalSpans { table: RefCell::new(BTreeMap::new()) } };
}

fn merge_into_global(local: &mut BTreeMap<&'static str, PhaseAgg>) {
    if local.is_empty() {
        return;
    }
    let mut global = GLOBAL_SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (name, agg) in std::mem::take(local) {
        global.entry(name).or_default().merge(agg);
    }
}

fn record_span(name: &'static str, ns: u64) {
    // During thread teardown the TLS slot may already be gone; drop the
    // measurement rather than panic.
    let _ = LOCAL_SPANS.try_with(|l| l.table.borrow_mut().entry(name).or_default().record(ns));
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
            record_span(self.name, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
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

/// Merge the calling thread's pending span aggregates into the global
/// registry (worker threads do this automatically at thread exit).
pub fn flush_thread() {
    let _ = LOCAL_SPANS.try_with(|l| merge_into_global(&mut l.table.borrow_mut()));
}

/// Snapshot of all phase aggregates (global registry plus the calling
/// thread's pending table), sorted by name.
#[must_use]
pub fn spans_snapshot() -> Vec<(String, PhaseAgg)> {
    flush_thread();
    let global = GLOBAL_SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    global.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Clear all span aggregates (global and the calling thread's).
pub fn reset_spans() {
    let _ = LOCAL_SPANS.try_with(|l| l.table.borrow_mut().clear());
    GLOBAL_SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
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
    let mut slot = TRACE_PATH.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

fn emit_line(line: &str) {
    if let Some(path) = trace_path() {
        if let Err(err) = umsc_rt::jsonl::append_line(&path, line) {
            eprintln!("umsc-obs: failed to append trace record to {path}: {err}");
        }
    }
}

/// Format a finite f64 as JSON; non-finite values become `null`.
fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
        // Ensure a numeric token stays a JSON number (e.g. `1` not `1.`).
        if !out.ends_with(|c: char| c.is_ascii_digit()) {
            out.push('0');
        }
    } else {
        out.push_str("null");
    }
}

fn record_head(event: &str) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"schema\":\"{}\",\"event\":\"{}\"",
        umsc_rt::jsonl::escape(TRACE_SCHEMA),
        umsc_rt::jsonl::escape(event)
    );
    s
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
    if !enabled() {
        return;
    }
    let mut s = record_head("sweep");
    let _ = write!(s, ",\"solver\":\"{}\",\"iter\":{}", umsc_rt::jsonl::escape(r.solver), r.iter);
    s.push_str(",\"objective\":");
    push_f64(&mut s, r.objective);
    s.push_str(",\"embedding_term\":");
    push_f64(&mut s, r.embedding_term);
    s.push_str(",\"rotation_term\":");
    push_f64(&mut s, r.rotation_term);
    s.push_str(",\"residual\":");
    push_f64(&mut s, r.residual);
    s.push_str(",\"weights\":[");
    for (i, &w) in r.weights.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(&mut s, w);
    }
    let _ = write!(
        s,
        "],\"elapsed_ns\":{},\"peak_live_bytes\":{}}}",
        r.elapsed_ns, r.peak_live_bytes
    );
    emit_line(&s);
}

/// Append a fit-summary record (`event: "fit"`) to the trace sink.
pub fn emit_fit(solver: &str, iters: usize, converged: bool, elapsed_ns: u64) {
    if !enabled() {
        return;
    }
    let mut s = record_head("fit");
    let _ = write!(
        s,
        ",\"solver\":\"{}\",\"iters\":{},\"converged\":{},\"elapsed_ns\":{}}}",
        umsc_rt::jsonl::escape(solver),
        iters,
        converged,
        elapsed_ns
    );
    emit_line(&s);
}

/// Dump every phase aggregate (`event: "phase"`) and counter
/// (`event: "counter"`) to the trace sink. Values are cumulative since
/// process start or the last [`reset`]; consumers (e.g. the CLI
/// `trace-report`) keep the last record per name.
pub fn emit_aggregates(solver: &str) {
    if !enabled() || trace_path().is_none() {
        return;
    }
    let solver = umsc_rt::jsonl::escape(solver);
    for (name, agg) in spans_snapshot() {
        let mut s = record_head("phase");
        let _ = write!(
            s,
            ",\"solver\":\"{}\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            solver,
            umsc_rt::jsonl::escape(&name),
            agg.count,
            agg.total_ns,
            agg.max_ns
        );
        emit_line(&s);
    }
    for (name, value) in counters_snapshot() {
        let mut s = record_head("counter");
        let _ = write!(
            s,
            ",\"solver\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
            solver,
            umsc_rt::jsonl::escape(&name),
            value
        );
        emit_line(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests in this file share the process-global obs state; keep
    // them on one lock so enable/reset toggles don't race each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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

    #[test]
    fn push_f64_keeps_numbers_numeric() {
        let mut s = String::new();
        push_f64(&mut s, 2.0);
        s.push(' ');
        push_f64(&mut s, -0.125);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "2 -0.125 null null");
    }
}
