//! `umsc` — command-line front end for the workspace.
//!
//! ```text
//! umsc generate  --benchmark MSRC-v1 [--seed N] --out DIR
//! umsc info      --data DIR
//! umsc cluster   --data DIR --clusters C [--method NAME] [--lambda X]
//!                [--metric euclidean|cosine] [--anchors M] [--seed N]
//!                [--out labels.csv] [--save-model FILE] [--trace FILE]
//!                [--verbose]
//! umsc assign    --model FILE --data DIR [--out labels.csv]
//! umsc evaluate  --pred FILE --truth FILE
//! umsc methods
//! ```
//!
//! `DIR` uses the CSV layout of `umsc_data::io` (`view_K.csv` + `labels.csv`).

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
