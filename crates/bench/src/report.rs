//! Plain-text table/series rendering plus JSON persistence, so every
//! experiment leaves both a human-readable record (stdout) and a
//! machine-readable one (`target/bench-results/*.json`).

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use umsc_rt::json::Json;

/// A rendered text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "TextTable: row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (j, cell) in row.iter().enumerate() {
                widths[j] = widths[j].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (j, cell) in cells.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                let pad = widths[j] - cell.chars().count();
                if j == 0 {
                    // Left-align the first column, right-align the rest.
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// `mean ± std` cell.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.3}±{std:.3}")
}

/// Where JSON results are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Persists `json` under `target/bench-results/<name>.json`, one compact
/// line.
pub fn save_json(name: &str, json: &Json) {
    let path = results_dir().join(format!("{name}.json"));
    if let Err(e) = fs::write(&path, json.to_string_compact() + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["method", "ACC"]);
        t.row(vec!["UMSC".into(), "0.91".into()]);
        t.row(vec!["a-longer-name".into(), "0.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width for the numeric column alignment.
        assert!(lines[0].contains("method"));
        assert!(lines[2].starts_with("UMSC"));
        assert!(lines[3].starts_with("a-longer-name"));
        assert!(lines[2].trim_end().ends_with("0.91"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(0.91234, 0.0456), "0.912±0.046");
    }
}
