//! `umsc` — command-line front end for the workspace.
//!
//! ```text
#![doc = include_str!("usage.txt")]
//! ```
//!
//! `umsc help`, `--help` and `-h` print the block above (from
//! `usage.txt`). `DIR` uses the CSV layout of `umsc_data::io`
//! (`view_K.csv` + `labels.csv`). `cluster` rejects an option its method
//! does not read.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
