//! Shared JSONL sink: line-atomic appends.
//!
//! Both machine-readable hooks in the workspace — the bench timer's
//! `UMSC_BENCH_JSON` trajectory records and `umsc-obs`'s
//! `UMSC_TRACE_JSON` solver traces — append one JSON object per line to
//! a file named by an environment variable. Records are built with
//! [`crate::json`]; this module is the one sink behind both.
//!
//! Line atomicity: the file is opened with `O_APPEND` and each record
//! (payload plus trailing `\n`) goes down in a **single** `write_all`
//! of a single buffer. On Linux, appends of one buffer to an
//! `O_APPEND` file do not interleave with each other, so concurrent
//! writers — including the scoped pool's worker threads — produce a
//! parseable file with whole lines in some order. Verified by
//! `tests/jsonl_concurrent.rs`.

use std::io::Write;

/// Appends `line` plus a trailing newline to `path` as one write.
///
/// `line` must be a single record without embedded newlines (checked in
/// debug builds). Creates the file if missing.
///
/// # Errors
/// Returns the underlying I/O error if the file cannot be opened or
/// written.
pub fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    debug_assert!(!line.contains('\n'), "JSONL records must be single lines");
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_creates_and_appends() {
        let path = std::env::temp_dir()
            .join(format!("umsc_jsonl_append_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        append_line(&path, "{\"a\":1}").unwrap();
        append_line(&path, "{\"b\":2}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
    }
}
