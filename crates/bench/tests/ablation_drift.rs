//! A1 drift gate: the quick-profile ablation table must reproduce the
//! committed `ablation_quick.json` field for field. Only `seconds`, a
//! wall time, may move.
//!
//! The fresh table is the one `tables ablation` last wrote to
//! `target/bench-results/ablation.json`. `scripts/verify.sh` runs
//! `cargo run --release -p umsc-bench --bin tables -- ablation` (about
//! 18 s on 2 cores) and then this test with `--ignored`; a plain
//! `cargo test` skips it because it needs that run first.
//!
//! To re-record the table after a deliberate change of the A1 numbers,
//! run the `tables -- ablation` command above and copy
//! `target/bench-results/ablation.json` over
//! `crates/bench/tests/ablation_quick.json`.

use std::collections::BTreeSet;
use std::path::Path;

use umsc_rt::json::{parse, Json};

/// Fields that are measurements of the machine, not of the method.
const UNPINNED: &[&str] = &["seconds"];

fn load(path: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("{}: {e} (run `cargo run --release -p umsc-bench --bin tables -- ablation` first)", path.display())
    });
    let value = parse(text.trim()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    value.as_arr().unwrap_or_else(|| panic!("{}: not an array of run summaries", path.display())).to_vec()
}

/// `method @ dataset` of a summary row, for messages.
fn row_name(row: &Json) -> String {
    let field = |key| row.get(key).and_then(Json::as_str).unwrap_or("?");
    format!("{} @ {}", field("method"), field("dataset"))
}

#[test]
#[ignore = "needs a fresh `tables ablation` run; scripts/verify.sh runs it first"]
fn quick_ablation_table_matches_the_committed_one() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = load(&manifest.join("tests/ablation_quick.json"));
    let fresh = load(&manifest.join("../../target/bench-results/ablation.json"));
    assert_eq!(fresh.len(), committed.len(), "the table has {} rows, the committed one {}", fresh.len(), committed.len());

    let mut drift = Vec::new();
    for (new, old) in fresh.iter().zip(&committed) {
        let (Json::Obj(new_fields), Json::Obj(old_fields)) = (new, old) else {
            panic!("run summaries must be objects: {new:?} / {old:?}");
        };
        let keys: BTreeSet<&String> = new_fields.keys().chain(old_fields.keys()).collect();
        for key in keys.into_iter().filter(|k| !UNPINNED.contains(&k.as_str())) {
            let (was, is) = (old.get(key), new.get(key));
            if was != is {
                drift.push(format!("{}: {key}: {was:?} -> {is:?}", row_name(old)));
            }
        }
    }
    assert!(drift.is_empty(), "A1 drifted from crates/bench/tests/ablation_quick.json:\n{}", drift.join("\n"));
}
