//! # umsc-bench
//!
//! The evaluation harness: regenerates **every table and figure** of the
//! paper's evaluation section (as reconstructed in `DESIGN.md` §3 and
//! recorded against measurements in `EXPERIMENTS.md`).
//!
//! Two binaries:
//!
//! ```text
//! cargo run --release -p umsc-bench --bin tables  -- [t1|t2|t3|ablation|all] [--full] [--seeds N]
//! cargo run --release -p umsc-bench --bin figures -- [f1|f2|f3|f4|f5|all] [--full]
//! ```
//!
//! The default **quick profile** subsamples each benchmark to ≤240 points
//! and uses 5 seeds so the whole suite runs in minutes on a laptop core;
//! `--full` uses the published dataset sizes and 10 seeds (hours).
//! Microbenches for the substrate live in `benches/`; [`inputs`] holds the
//! operators they share.

pub mod figures;
pub mod inputs;
pub mod report;
pub mod runner;
pub mod tables;

pub use runner::{BenchProfile, RunSummary};
