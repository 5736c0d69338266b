//! Regenerates the paper's tables. Usage:
//!
//! ```text
//! cargo run --release -p umsc-bench --bin tables -- [t1|t2|t3|ablation|graph-ablation|all] [--full] [--seeds N]
//! ```

use umsc_bench::runner::{parse_cli, Cli};
use umsc_bench::tables;

const USAGE: &str = "usage: tables [t1|t2|t3|ablation|graph-ablation|all] [--full] [--seeds N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, profile, seeds) = match parse_cli(&args, true) {
        Ok(Cli::Run { name, profile, seeds }) => (name, profile, seeds),
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
        "t1" => tables::table1(profile),
        "t2" => tables::table2(profile, seeds),
        "t3" => tables::table3(profile, seeds),
        "ablation" => tables::ablation(profile, seeds),
        "graph-ablation" => tables::graph_ablation(profile, seeds),
        "all" => {
            tables::table1(profile);
            tables::table2_and_3(profile, seeds);
            tables::ablation(profile, seeds);
            tables::graph_ablation(profile, seeds);
        }
        other => {
            eprintln!("error: unknown table '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
