//! Regenerates the paper's figures (as data series). Usage:
//!
//! ```text
//! cargo run --release -p umsc-bench --bin figures -- [f1|f2|f3|f4|f5|all] [--full]
//! ```

use umsc_bench::figures;
use umsc_bench::runner::{parse_cli, Cli};

const USAGE: &str = "usage: figures [f1|f2|f3|f4|f5|all] [--full]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, profile) = match parse_cli(&args, false) {
        Ok(Cli::Run { name, profile, .. }) => (name, profile),
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

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
            eprintln!("error: unknown figure '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
