//! Table generators (experiments T1, T2, T3, A1 in DESIGN.md §3).

use crate::report::{pm, save_json, TextTable};
use crate::runner::{evaluate_method, BenchProfile, RunSummary};
use umsc_baselines::{ablation_suite, standard_suite};
use umsc_data::BenchmarkId;
use umsc_rt::json::Json;

/// T1 — dataset statistics (the paper's dataset table).
pub fn table1(profile: BenchProfile) {
    println!("\n=== Table 1: dataset statistics ({:?} profile) ===\n", profile);
    let mut t = TextTable::new(&["dataset", "#objects", "#views", "#clusters", "view dims"]);
    for id in BenchmarkId::ALL {
        let d = profile.load(id);
        t.row(vec![
            d.name.clone(),
            d.n().to_string(),
            d.num_views().to_string(),
            d.num_clusters.to_string(),
            format!("{:?}", d.view_dims()),
        ]);
    }
    print!("{}", t.render());
}

/// Runs the full method × dataset grid once; T2 and T3 are both views of
/// this result set.
fn run_grid(profile: BenchProfile, seeds: usize) -> Vec<RunSummary> {
    let mut all: Vec<RunSummary> = Vec::new();
    for id in BenchmarkId::ALL {
        let data = profile.load(id);
        for method in standard_suite(data.num_clusters) {
            all.push(evaluate_method(method.as_ref(), &data, seeds));
        }
    }
    all
}

/// T2 — the main results table: ACC/NMI/Purity (mean±std over seeds) for
/// every method on every dataset.
pub fn table2(profile: BenchProfile, seeds: usize) {
    let all = run_grid(profile, seeds);
    print_table2(profile, seeds, &all);
}

fn print_table2(profile: BenchProfile, seeds: usize, all: &[RunSummary]) {
    println!("\n=== Table 2: clustering results, mean±std over {seeds} seeds ({:?} profile) ===", profile);
    let mut by_dataset: Vec<(&str, Vec<&RunSummary>)> = Vec::new();
    for s in all {
        match by_dataset.iter_mut().find(|(name, _)| *name == s.dataset) {
            Some((_, group)) => group.push(s),
            None => by_dataset.push((&s.dataset, vec![s])),
        }
    }
    for (name, group) in by_dataset {
        println!("\n--- {name} ---\n");
        let mut t = TextTable::new(&["method", "ACC", "NMI", "Purity"]);
        for s in group {
            t.row(vec![s.method.clone(), pm(s.acc.0, s.acc.1), pm(s.nmi.0, s.nmi.1), pm(s.purity.0, s.purity.1)]);
        }
        print!("{}", t.render());
    }
    save_json("table2", &summaries_json(all));
    print_winner_counts(all);
}

/// T3 — runtime comparison (mean seconds per run).
pub fn table3(profile: BenchProfile, seeds: usize) {
    let all = run_grid(profile, seeds);
    print_table3(profile, seeds, &all);
}

fn print_table3(profile: BenchProfile, seeds: usize, all: &[RunSummary]) {
    println!("\n=== Table 3: runtime (mean seconds over {seeds} seeds, {:?} profile) ===\n", profile);
    // Column per dataset (first-seen order), row per method.
    let mut datasets: Vec<&str> = Vec::new();
    let mut methods: Vec<&str> = Vec::new();
    for s in all {
        if !datasets.contains(&s.dataset.as_str()) {
            datasets.push(&s.dataset);
        }
        if !methods.contains(&s.method.as_str()) {
            methods.push(&s.method);
        }
    }
    let mut header: Vec<&str> = vec!["method"];
    header.extend(datasets.iter());
    let mut t = TextTable::new(&header);
    for m in &methods {
        let mut row = vec![m.to_string()];
        for d in &datasets {
            let cell = all
                .iter()
                .find(|s| s.method == *m && s.dataset == *d)
                .map_or_else(|| "-".into(), |s| format!("{:.2}s", s.seconds));
            row.push(cell);
        }
        t.row(row);
    }
    print!("{}", t.render());
    save_json("table3", &summaries_json(all));
}

/// T2 and T3 from a single grid of runs (used by `all`; halves the cost).
pub fn table2_and_3(profile: BenchProfile, seeds: usize) {
    let all = run_grid(profile, seeds);
    print_table2(profile, seeds, &all);
    print_table3(profile, seeds, &all);
}

/// A1 — ablation: UMSC discretization / weighting variants.
pub fn ablation(profile: BenchProfile, seeds: usize) {
    println!("\n=== Ablation A1: UMSC variants, mean±std over {seeds} seeds ({:?} profile) ===", profile);
    let mut all: Vec<RunSummary> = Vec::new();
    for id in BenchmarkId::ALL {
        let data = profile.load(id);
        println!("\n--- {} ---\n", data.name);
        let mut t = TextTable::new(&["variant", "ACC", "NMI", "ACC std (stability)"]);
        for method in ablation_suite(data.num_clusters) {
            let s = evaluate_method(method.as_ref(), &data, seeds);
            t.row(vec![s.method.clone(), pm(s.acc.0, s.acc.1), pm(s.nmi.0, s.nmi.1), format!("{:.4}", s.acc.1)]);
            all.push(s);
        }
        print!("{}", t.render());
    }
    save_json("ablation", &summaries_json(&all));
    println!(
        "\nReading guide: 'rotation' is the paper's one-stage scheme. Its ACC std of 0 per dataset\n\
         (deterministic — no K-means) versus the two-stage variant's nonzero std is the paper's\n\
         stability claim; the ACC gap is the relaxation-gap claim."
    );
}

/// A2 — graph-construction ablation: UMSC with k-NN (default), dense
/// Gaussian, and CAN adaptive graphs. Backs the design decision recorded
/// in DESIGN.md §1.2b (rotation discretization wants near-block-diagonal
/// affinities).
pub fn graph_ablation(profile: BenchProfile, seeds: usize) {
    use umsc_baselines::UmscMethod;
    use umsc_core::{GraphKind, UmscConfig};
    use umsc_graph::Bandwidth;

    println!("\n=== Ablation A2: graph construction, mean ACC over {seeds} seeds ({:?} profile) ===\n", profile);
    let mut all: Vec<RunSummary> = Vec::new();
    let mut t = TextTable::new(&["dataset", "k-NN (default)", "dense Gaussian", "CAN adaptive"]);
    for id in BenchmarkId::ALL {
        let data = profile.load(id);
        let c = data.num_clusters;
        let variants = [
            UmscMethod::with_config(UmscConfig::new(c), "UMSC knn"),
            UmscMethod::with_config(
                UmscConfig::new(c).with_graph(GraphKind::Dense(Bandwidth::SelfTuning { k: 7 })),
                "UMSC dense",
            ),
            UmscMethod::with_config(UmscConfig::new(c).with_graph(GraphKind::Adaptive { k: 10 }), "UMSC can"),
        ];
        let mut cells = vec![data.name.clone()];
        for v in variants {
            let s = evaluate_method(&v, &data, seeds);
            cells.push(format!("{:.3}", s.acc.0));
            all.push(s);
        }
        t.row(cells);
    }
    print!("{}", t.render());
    save_json("graph_ablation", &summaries_json(&all));
}

/// How often each method wins (highest mean ACC) across datasets.
fn print_winner_counts(all: &[RunSummary]) {
    use std::collections::HashMap;
    let mut by_dataset: HashMap<&str, Vec<&RunSummary>> = HashMap::new();
    for s in all {
        by_dataset.entry(&s.dataset).or_default().push(s);
    }
    let mut wins: HashMap<String, usize> = HashMap::new();
    for (_, group) in by_dataset {
        if let Some(best) = group.iter().max_by(|a, b| a.acc.0.partial_cmp(&b.acc.0).unwrap_or(std::cmp::Ordering::Equal)) {
            *wins.entry(best.method.clone()).or_default() += 1;
        }
    }
    let mut wins: Vec<(String, usize)> = wins.into_iter().collect();
    wins.sort_by_key(|x| std::cmp::Reverse(x.1));
    println!("\nwins by mean ACC: {wins:?}");
}

/// One object per run summary.
fn summaries_json(all: &[RunSummary]) -> Json {
    all.iter()
        .map(|s| {
            Json::obj([
                ("method", s.method.as_str().into()),
                ("dataset", s.dataset.as_str().into()),
                ("acc_mean", s.acc.0.into()),
                ("acc_std", s.acc.1.into()),
                ("nmi_mean", s.nmi.0.into()),
                ("nmi_std", s.nmi.1.into()),
                ("purity_mean", s.purity.0.into()),
                ("purity_std", s.purity.1.into()),
                ("seconds", s.seconds.into()),
                ("runs", s.runs.into()),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_round_trip_through_the_codec() {
        let s = RunSummary {
            method: "M".into(),
            dataset: "D\"q".into(),
            acc: (0.5, 0.1),
            nmi: (0.4, 0.0),
            purity: (0.6, 0.0),
            seconds: 1.0,
            runs: 3,
        };
        let text = summaries_json(&[s]).to_string_compact();
        let back = umsc_rt::json::parse(&text).unwrap();
        let row = &back.as_arr().unwrap()[0];
        assert_eq!(row.get("dataset").and_then(Json::as_str), Some("D\"q"));
        assert_eq!(row.get("acc_std").and_then(Json::as_f64), Some(0.1));
        assert_eq!(row.get("runs").and_then(Json::as_f64), Some(3.0));
    }
}
