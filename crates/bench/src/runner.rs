//! Shared experiment machinery: profiles, seeded multi-run evaluation,
//! and aggregate statistics.

use std::time::Instant;
use umsc_baselines::ClusteringMethod;
use umsc_data::{benchmark, BenchmarkId, MultiViewDataset};
use umsc_linalg::ops::{mean, std_dev};
use umsc_metrics::MetricSuite;

/// Execution profile: how big, how many repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchProfile {
    /// Subsample each dataset to ≤240 points, 5 seeds (default; minutes).
    Quick,
    /// Published dataset sizes, 10 seeds (hours on one core).
    Full,
}

impl BenchProfile {
    /// Point cap per dataset (None = published size).
    pub fn max_n(&self) -> Option<usize> {
        match self {
            BenchProfile::Quick => Some(240),
            BenchProfile::Full => None,
        }
    }

    /// Number of evaluation seeds.
    pub fn default_seeds(&self) -> usize {
        match self {
            BenchProfile::Quick => 5,
            BenchProfile::Full => 10,
        }
    }

    /// Loads a benchmark under this profile. The *data* seed is fixed (the
    /// dataset is the dataset); evaluation seeds vary the solvers.
    pub fn load(&self, id: BenchmarkId) -> MultiViewDataset {
        let data = benchmark(id, 2026);
        match self.max_n() {
            Some(cap) => data.subsample(cap, 7),
            None => data,
        }
    }
}

/// Aggregated metrics over several seeded runs of one method on one dataset.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Method display name.
    pub method: String,
    /// Dataset display name.
    pub dataset: String,
    /// Mean and sample std-dev of ACC over seeds.
    pub acc: (f64, f64),
    /// Mean and sample std-dev of NMI.
    pub nmi: (f64, f64),
    /// Mean and sample std-dev of purity.
    pub purity: (f64, f64),
    /// Mean wall-clock seconds per run.
    pub seconds: f64,
    /// Number of successful runs (failed runs are dropped and reported).
    pub runs: usize,
}

/// Runs `method` on `data` once per seed and aggregates the metrics.
pub fn evaluate_method(
    method: &dyn ClusteringMethod,
    data: &MultiViewDataset,
    seeds: usize,
) -> RunSummary {
    let mut accs = Vec::with_capacity(seeds);
    let mut nmis = Vec::with_capacity(seeds);
    let mut purities = Vec::with_capacity(seeds);
    let mut secs = Vec::with_capacity(seeds);
    for seed in 0..seeds as u64 {
        let t0 = Instant::now();
        match method.cluster(data, seed) {
            Ok(out) => {
                secs.push(t0.elapsed().as_secs_f64());
                let m = MetricSuite::evaluate(&out.labels, &data.labels);
                accs.push(m.acc);
                nmis.push(m.nmi);
                purities.push(m.purity);
            }
            Err(e) => eprintln!("warning: {} failed on {} (seed {seed}): {e}", method.name(), data.name),
        }
    }
    RunSummary {
        method: method.name(),
        dataset: data.name.clone(),
        acc: (mean(&accs), std_dev(&accs)),
        nmi: (mean(&nmis), std_dev(&nmis)),
        purity: (mean(&purities), std_dev(&purities)),
        seconds: mean(&secs),
        runs: accs.len(),
    }
}

/// A parsed `tables` / `figures` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cli {
    /// `--help` or `-h`: print the usage line.
    Help,
    /// Run the named table or figure (`all` when none is named).
    Run {
        /// The positional name.
        name: String,
        /// `--full` or the quick default.
        profile: BenchProfile,
        /// `--seeds N`, or the profile's default.
        seeds: usize,
    },
}

/// Parses a `tables` / `figures` command line: at most one positional
/// name, in any position, plus `--full` and, when `takes_seeds`,
/// `--seeds N`. Any other option, a second name or a bad seed count is an
/// error naming it.
pub fn parse_cli(args: &[String], takes_seeds: bool) -> Result<Cli, String> {
    let (mut name, mut full, mut seeds) = (None, false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--full" => full = true,
            "--seeds" if takes_seeds => {
                let v = it.next().ok_or("--seeds expects a value")?;
                let n = v.parse().ok().filter(|&n: &usize| n > 0);
                seeds = Some(n.ok_or_else(|| format!("bad --seeds value '{v}'"))?);
            }
            opt if opt.starts_with('-') => return Err(format!("unknown option '{opt}'")),
            pos if name.is_none() => name = Some(pos.to_string()),
            pos => return Err(format!("unexpected argument '{pos}'")),
        }
    }
    let profile = if full { BenchProfile::Full } else { BenchProfile::Quick };
    Ok(Cli::Run {
        name: name.unwrap_or_else(|| "all".into()),
        profile,
        seeds: seeds.unwrap_or_else(|| profile.default_seeds()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_baselines::UmscMethod;

    fn parse(args: &[&str], takes_seeds: bool) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), takes_seeds)
    }

    fn run(name: &str, profile: BenchProfile, seeds: usize) -> Result<Cli, String> {
        Ok(Cli::Run { name: name.into(), profile, seeds })
    }

    #[test]
    fn profile_parsing() {
        assert_eq!(parse(&["t2", "--full"], true), run("t2", BenchProfile::Full, 10));
        assert_eq!(parse(&["t2"], true), run("t2", BenchProfile::Quick, 5));
        assert_eq!(parse(&["--seeds", "3"], true), run("all", BenchProfile::Quick, 3));
        assert_eq!(parse(&[], false), run("all", BenchProfile::Quick, 5));
    }

    #[test]
    fn cli_takes_the_name_anywhere_and_rejects_unknown_options() {
        // The name may follow an option's value.
        assert_eq!(parse(&["--seeds", "2", "ablation"], true), run("ablation", BenchProfile::Quick, 2));
        assert_eq!(parse(&["--full", "f4"], false), run("f4", BenchProfile::Full, 10));
        assert_eq!(parse(&["t1", "--help"], true), Ok(Cli::Help));
        assert_eq!(parse(&["-h"], false), Ok(Cli::Help));
        // A misspelt flag is an error, not a silent run of `all`.
        assert_eq!(parse(&["--seed", "2"], true), Err("unknown option '--seed'".into()));
        assert_eq!(parse(&["--seeds", "2"], false), Err("unknown option '--seeds'".into()));
        assert_eq!(parse(&["--seeds"], true), Err("--seeds expects a value".into()));
        assert_eq!(parse(&["--seeds", "x"], true), Err("bad --seeds value 'x'".into()));
        assert_eq!(parse(&["--seeds", "0"], true), Err("bad --seeds value '0'".into()));
        assert_eq!(parse(&["t1", "t2"], true), Err("unexpected argument 't2'".into()));
    }

    #[test]
    fn quick_profile_caps_n() {
        let d = BenchProfile::Quick.load(BenchmarkId::Caltech7);
        // Cap plus the per-class floor slack (the subsampler keeps every
        // cluster k-NN-representable on heavily unbalanced data).
        let floor = 240 / (2 * d.num_clusters);
        assert!(d.n() <= 240 + d.num_clusters * floor, "n = {}", d.n());
        assert!(d.n() < 400);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn evaluate_aggregates() {
        let data = BenchProfile::Quick.load(BenchmarkId::Msrcv1).subsample(100, 0);
        let m = UmscMethod::new(data.num_clusters);
        let s = evaluate_method(&m, &data, 2);
        assert_eq!(s.runs, 2);
        assert!(s.acc.0 > 0.0 && s.acc.0 <= 1.0);
        assert!(s.seconds > 0.0);
    }
}
