//! Regenerates the paper's figures (as data series). Usage:
//!
//! ```text
//! cargo run --release -p umsc-bench --bin figures -- [f1|f2|f3|f4|f5|all] [--full]
//! ```

use umsc_bench::figures;
use umsc_bench::runner::BenchProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = BenchProfile::from_args(&args);
    let what = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".into());

    match what.as_str() {
        "f1" => figures::figure1(profile),
        "f2" => figures::figure2(profile),
        "f3" => figures::figure3(profile),
        "f4" => figures::figure4(profile),
        "f5" => figures::figure5(profile),
        "all" => {
            figures::figure1(profile);
            figures::figure2(profile);
            figures::figure3(profile);
            figures::figure4(profile);
            figures::figure5(profile);
        }
        other => {
            eprintln!("unknown figure '{other}': expected f1|f2|f3|f4|f5|all");
            std::process::exit(2);
        }
    }
}
