//! Golden bit patterns: every solver path must keep producing the exact
//! same floating-point output for a fixed input.
//!
//! Each case fits a small fixture and compares, bit for bit:
//! - the labels (FNV-1a hash);
//! - the `to_bits` of every history objective;
//! - the `to_bits` of the final view weights;
//! - the `to_bits` of the embedding `F` (FNV-1a hash).
//!
//! The table was first recorded from the solvers before they were merged
//! into one block-coordinate-descent engine; a refactor that moves a
//! single bit fails here. It has been re-recorded for six deliberate
//! changes of rounding, each time with the same labels and sweep counts:
//! the anchor rows when the anchor F-step moved onto the shared GPI loop
//! (objectives within 6 ULP); every GPI row when the polar step moved
//! from the SVD of the `n × c` iterate to its `c × c` Gram matrix
//! (objectives within 13 ULP; the three k-means rows, whose embedding
//! never passes through GPI, did not move); and every row when the
//! re-weighted embedding solves stopped warm-starting block Lanczos and
//! ran the view set's own solve (objectives within 1.5e5 ULP, 2e-11
//! relative, on the auto-weighted dense and sparse rows, within 50 ULP on
//! the others); the nine dense rows when the dense embedding solves
//! moved from Householder + QL to the scalar Lanczos of the other paths
//! and the first operator from `(Σ_v L⁽ᵛ⁾)/V` to `Σ_v (1/V)·L⁽ᵛ⁾`
//! (objectives within 50 ULP; the sparse and anchor rows did not move);
//! and the two sparse rows when the per-view weighted sum with the shift
//! `2·Σw` gave way to one fused CSR matrix shifted by its Gershgorin
//! bound (objectives within 1.4e-8 relative; the dense rows, the same
//! solve on the dense Laplacians compacted at exact zeros, did not move);
//! and the two anchor rows when `σI − Σ_v w_v B_v B_vᵀ` over per-view
//! factors gave way to `−Σ_v w_v B_v B_vᵀ` over one stacked factor
//! (objectives within 30 ULP, weights within 8 ULP; the other rows did
//! not move); and the nine dense rows when the dense normalized Laplacian
//! took the CSR formula `−(w_ij·(sᵢ·sⱼ))` (objectives within 8 ULP,
//! weights within 4 ULP; the auto rows landed on the sparse rows' bits,
//! which `dense_and_sparse_laplacians_fit_to_the_same_bits` now pins).
//! The `can/auto/rotation` row fits a CAN graph from features.
//! To print a fresh table (for a
//! deliberate numerical change only), run
//! `cargo test -p umsc-core --test golden_bits -- --ignored --nocapture`.

use umsc_core::{
    build_view_laplacians, build_view_laplacians_sparse, AnchorUmsc, AnchorUmscConfig,
    Discretization, GraphKind, Umsc, UmscConfig, UmscResult, Weighting,
};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_data::MultiViewDataset;

/// What one case pins.
struct Golden {
    name: &'static str,
    labels: u64,
    objectives: &'static [u64],
    weights: &'static [u64],
    embedding: u64,
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dataset() -> MultiViewDataset {
    let mut gen = MultiViewGmm::new(
        "golden",
        3,
        16,
        vec![ViewSpec::clean(5), ViewSpec::clean(7), ViewSpec { signal: 0.6, ..ViewSpec::clean(4) }],
    );
    gen.separation = 3.0;
    gen.generate(11)
}

fn umsc(weighting: Weighting, discretization: Discretization) -> Umsc {
    Umsc::new(UmscConfig::new(3).with_weighting(weighting).with_discretization(discretization).with_seed(5))
}

fn anchor(weighting: Weighting) -> AnchorUmsc {
    let mut cfg = AnchorUmscConfig::new(3).with_anchors(20).with_seed(5);
    cfg.weighting = weighting;
    AnchorUmsc::new(cfg)
}

/// Every case, in table order.
fn run_all() -> Vec<(String, UmscResult)> {
    let data = dataset();
    let graph = UmscConfig::new(3).graph_config();
    let dense = build_view_laplacians(&data, &graph).unwrap();
    let sparse = build_view_laplacians_sparse(&data, &graph).unwrap();
    let fixed = || Weighting::Fixed(vec![2.0, 1.0, 0.5]);
    let mut out = Vec::new();

    for (wname, weighting) in [("auto", Weighting::Auto), ("uniform", Weighting::Uniform), ("fixed", fixed())] {
        for (dname, disc) in [
            ("rotation", Discretization::Rotation),
            ("scaled", Discretization::ScaledRotation),
            ("kmeans", Discretization::KMeans { restarts: 3 }),
        ] {
            let res = umsc(weighting.clone(), disc).fit_laplacians(&dense).unwrap();
            out.push((format!("dense/{wname}/{dname}"), res));
        }
    }
    for (dname, disc) in [("rotation", Discretization::Rotation), ("scaled", Discretization::ScaledRotation)] {
        let res = umsc(Weighting::Auto, disc).fit_laplacians_sparse(&sparse).unwrap();
        out.push((format!("sparse/auto/{dname}"), res));
    }
    let can = Umsc::new(UmscConfig::new(3).with_graph(GraphKind::Adaptive { k: 10 }).with_seed(5));
    out.push(("can/auto/rotation".to_string(), can.fit(&data).unwrap()));
    for (wname, weighting) in [("auto", Weighting::Auto), ("uniform", Weighting::Uniform)] {
        out.push((format!("anchor/{wname}"), anchor(weighting).fit(&data).unwrap()));
    }
    out
}

fn labels_hash(res: &UmscResult) -> u64 {
    fnv1a(res.labels.iter().map(|&l| l as u64))
}

fn objective_bits(res: &UmscResult) -> Vec<u64> {
    res.history.iter().map(|h| h.objective.to_bits()).collect()
}

fn weight_bits(res: &UmscResult) -> Vec<u64> {
    res.view_weights.iter().map(|w| w.to_bits()).collect()
}

fn embedding_hash(res: &UmscResult) -> u64 {
    fnv1a(res.embedding.as_slice().iter().map(|x| x.to_bits()))
}

#[test]
fn every_solver_path_reproduces_its_golden_bits() {
    let results = run_all();
    assert_eq!(results.len(), GOLDEN.len(), "case count changed");
    for ((name, res), golden) in results.iter().zip(GOLDEN) {
        assert_eq!(name, golden.name, "case order changed");
        assert_eq!(labels_hash(res), golden.labels, "{name}: labels moved");
        assert_eq!(objective_bits(res), golden.objectives, "{name}: history objectives moved");
        assert_eq!(weight_bits(res), golden.weights, "{name}: view weights moved");
        assert_eq!(embedding_hash(res), golden.embedding, "{name}: embedding moved");
    }
}

/// The dense and CSR Laplacians of one graph hold the same bits, so the
/// auto-weighted dense and sparse rows are one fit.
#[test]
fn dense_and_sparse_laplacians_fit_to_the_same_bits() {
    let results = run_all();
    let row = |name: &str| &results.iter().find(|(n, _)| n == name).expect("case present").1;
    for disc in ["rotation", "scaled"] {
        let (dense, sparse) = (row(&format!("dense/auto/{disc}")), row(&format!("sparse/auto/{disc}")));
        assert_eq!(labels_hash(dense), labels_hash(sparse), "{disc}: labels differ");
        assert_eq!(objective_bits(dense), objective_bits(sparse), "{disc}: objectives differ");
        assert_eq!(weight_bits(dense), weight_bits(sparse), "{disc}: weights differ");
        assert_eq!(embedding_hash(dense), embedding_hash(sparse), "{disc}: embeddings differ");
    }
}

fn hex_list(bits: &[u64]) -> String {
    bits.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>().join(", ")
}

/// Prints the table in source form (see the module docs).
#[test]
#[ignore]
fn print_golden_table() {
    println!("const GOLDEN: &[Golden] = &[");
    for (name, res) in run_all() {
        println!("    Golden {{");
        println!("        name: {name:?},");
        println!("        labels: {:#018x},", labels_hash(&res));
        println!("        objectives: &[{}],", hex_list(&objective_bits(&res)));
        println!("        weights: &[{}],", hex_list(&weight_bits(&res)));
        println!("        embedding: {:#018x},", embedding_hash(&res));
        println!("    }},");
    }
    println!("];");
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "dense/auto/rotation",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fffd9c122630e81, 0x3fffd95164485702, 0x3fffd947553e827f, 0x3fffd94600832bcd],
        weights: &[0x3fda14e4c54cfbb9, 0x3fda4fe917ee5f6b, 0x3fc73664458949b7],
        embedding: 0x2a91b3dbd879b96b,
    },
    Golden {
        name: "dense/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd16145d3322eb, 0x3ffd15b739467053, 0x3ffd15aeaa9feac4, 0x3ffd15ad8aa9c4ca],
        weights: &[0x3fda1d801d1f672c, 0x3fda3cc65ac1e49a, 0x3fc74b73103d6879],
        embedding: 0xfb09f5745147e298,
    },
    Golden {
        name: "dense/auto/kmeans",
        labels: 0x044493e202f4a906,
        objectives: &[0x3ffd178ed5af4458, 0x3ffd108d38eb5016, 0x3ffd1036460ec68e, 0x3ffd102e3c1a5290, 0x3ffd102d2e7cc912],
        weights: &[0x3fda20849712ab99, 0x3fda360e403421a5, 0x3fc752da51726584],
        embedding: 0x9525bb12a6067db0,
    },
    Golden {
        name: "dense/uniform/rotation",
        labels: 0x238361c65f32ff06,
        objectives: &[0x3fe2f61e73f0d6f8, 0x3fe2f61c56ffa0ce],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0xe1c5c24f39925829,
    },
    Golden {
        name: "dense/uniform/scaled",
        labels: 0x238361c65f32ff06,
        objectives: &[0x3fdab8c62ee67076, 0x3fdab8c5906cc5b0],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x4becc00816be7b79,
    },
    Golden {
        name: "dense/uniform/kmeans",
        labels: 0xfb73ee89ef8eecc4,
        objectives: &[0x3fda9539257ffd78],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x6b335511771f9e7a,
    },
    Golden {
        name: "dense/fixed/rotation",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fdd34aa3ab5d240, 0x3fdd34a8a6c990b6],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0xbf8a12605265799e,
    },
    Golden {
        name: "dense/fixed/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fd226c24b5c21b8, 0x3fd226c2148cfa2e],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0xf16241867d30c9aa,
    },
    Golden {
        name: "dense/fixed/kmeans",
        labels: 0x044493e202f4a906,
        objectives: &[0x3fd210664acf05b4],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0xd441e34e01647cab,
    },
    Golden {
        name: "sparse/auto/rotation",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fffd9c122630e81, 0x3fffd95164485702, 0x3fffd947553e827f, 0x3fffd94600832bcd],
        weights: &[0x3fda14e4c54cfbb9, 0x3fda4fe917ee5f6b, 0x3fc73664458949b7],
        embedding: 0x2a91b3dbd879b96b,
    },
    Golden {
        name: "sparse/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd16145d3322eb, 0x3ffd15b739467053, 0x3ffd15aeaa9feac4, 0x3ffd15ad8aa9c4ca],
        weights: &[0x3fda1d801d1f672c, 0x3fda3cc65ac1e49a, 0x3fc74b73103d6879],
        embedding: 0xfb09f5745147e298,
    },
    Golden {
        name: "can/auto/rotation",
        labels: 0x185fef774a80e4c4,
        objectives: &[0x3ffd80a071b8250a, 0x3ffd7f4e43716786, 0x3ffd7f244f0f6763, 0x3ffd7f1d6951ef45, 0x3ffd7f1c2e81e77f],
        weights: &[0x3fd8f240049d6038, 0x3fdb668944dea954, 0x3fc74e6d6d07ece7],
        embedding: 0xd4581d55f31040c6,
    },
    Golden {
        name: "anchor/auto",
        labels: 0xfea03cbbba3ab144,
        objectives: &[0x4000f8f2b1c5c526, 0x4000f8aa41f8925c, 0x4000f8a9e3ebfcc0],
        weights: &[0x3fda9d7b1d580651, 0x3fd8d99c82aa3018, 0x3fc911d0bffb9329],
        embedding: 0x3263a2320add1d5f,
    },
    Golden {
        name: "anchor/uniform",
        labels: 0x88df13cb62d03ea6,
        objectives: &[0x3fe4a5c683fb9332, 0x3fe4a39ee7885e89, 0x3fe4a39e236a2a47],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0xded300567265156d,
    },
];
