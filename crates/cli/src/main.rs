//! `umsc` — command-line front end for the workspace.
//!
//! ```text
//! umsc generate  --benchmark MSRC-v1 [--seed N] --out DIR
//! umsc info      --data DIR
//! umsc cluster   --data DIR --clusters C [--method NAME] [--seed N]
//!                [--out labels.csv] [--trace FILE] [--verbose]
//!                [--lambda X]                       (umsc, anchor-umsc)
//!                [--metric euclidean|cosine]        (umsc)
//!                [--anchors M] [--save-model FILE]  (anchor-umsc)
//! umsc assign    --model FILE --data DIR [--out labels.csv]
//! umsc evaluate  --pred FILE --truth FILE
//! umsc methods
//! ```
//!
//! `DIR` uses the CSV layout of `umsc_data::io` (`view_K.csv` + `labels.csv`).
//! `cluster` rejects an option its method does not read.

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
