//! Schema round-trip: every `umsc-trace/v1` line that `umsc-obs` emits
//! must parse with the workspace's strict JSON parser (`umsc_rt::json`)
//! and carry the fields the trace-report aggregation relies on. This is
//! the contract test between the writer (obs) and the reader (bench/cli)
//! — if the schema drifts on either side, this binary fails.

use umsc_rt::json::{parse, Json};

/// The obs sink is process-global; the tests below each rebuild it, so
/// they must not interleave.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn emitted_trace() -> String {
    let _guard = TEST_LOCK.lock().unwrap();
    let path = std::env::temp_dir()
        .join(format!("umsc_trace_schema_{}_{:?}.jsonl", std::process::id(), std::thread::current().id()));
    let _ = std::fs::remove_file(&path);
    umsc_obs::set_trace_path(Some(path.to_str().unwrap()));

    // Exercise every record shape the writer knows, including the
    // non-finite residual of a first sweep (must serialize as null).
    {
        let _span = umsc_obs::span!("schema.phase");
        umsc_obs::counter!("schema.counter", 3);
    }
    umsc_obs::emit_sweep(&umsc_obs::SweepRecord {
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
    umsc_obs::emit_fit("dense", 1, true, 5678);
    umsc_obs::emit_aggregates("dense");

    umsc_obs::set_trace_path(None);
    umsc_obs::set_enabled(false);
    umsc_obs::reset();
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn every_emitted_line_parses_and_is_versioned() {
    let text = emitted_trace();
    let mut events = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some(umsc_obs::TRACE_SCHEMA),
            "line not versioned: {line:?}"
        );
        events.push(v.get("event").and_then(Json::as_str).expect("event field").to_string());
    }
    for required in ["sweep", "fit", "phase", "counter"] {
        assert!(events.iter().any(|e| e == required), "no {required:?} record in {events:?}");
    }
}

#[test]
fn sweep_fields_round_trip_including_null_residual() {
    let text = emitted_trace();
    let sweep = text
        .lines()
        .map(|l| parse(l).expect("parse"))
        .find(|v| v.get("event").and_then(Json::as_str) == Some("sweep"))
        .expect("sweep record present");

    assert_eq!(sweep.get("solver").and_then(Json::as_str), Some("dense"));
    assert_eq!(sweep.get("iter").and_then(Json::as_f64), Some(0.0));
    assert_eq!(sweep.get("objective").and_then(Json::as_f64), Some(1.5));
    assert_eq!(sweep.get("embedding_term").and_then(Json::as_f64), Some(1.0));
    assert_eq!(sweep.get("rotation_term").and_then(Json::as_f64), Some(0.5));
    assert_eq!(sweep.get("elapsed_ns").and_then(Json::as_f64), Some(1234.0));
    // NaN is not representable in JSON; the writer degrades it to null.
    assert_eq!(sweep.get("residual"), Some(&Json::Null));
    let weights: Vec<f64> = sweep
        .get("weights")
        .and_then(Json::as_arr)
        .expect("weights array")
        .iter()
        .map(|w| w.as_f64().expect("numeric weight"))
        .collect();
    assert_eq!(weights, vec![0.25, 0.75]);
}

#[test]
fn phase_and_counter_aggregates_round_trip() {
    let text = emitted_trace();
    let records: Vec<Json> = text.lines().map(|l| parse(l).expect("parse")).collect();

    let phase = records
        .iter()
        .find(|v| {
            v.get("event").and_then(Json::as_str) == Some("phase")
                && v.get("name").and_then(Json::as_str) == Some("schema.phase")
        })
        .expect("schema.phase aggregate present");
    assert!(phase.get("count").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    assert!(phase.get("total_ns").and_then(Json::as_f64).is_some());
    assert!(phase.get("max_ns").and_then(Json::as_f64).is_some());

    let counter = records
        .iter()
        .find(|v| {
            v.get("event").and_then(Json::as_str) == Some("counter")
                && v.get("name").and_then(Json::as_str) == Some("schema.counter")
        })
        .expect("schema.counter present");
    assert!(counter.get("value").and_then(Json::as_f64).unwrap_or(0.0) >= 3.0);
}
