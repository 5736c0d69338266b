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
//! single bit fails here. It has been re-recorded for two deliberate
//! changes of rounding, each time with the same labels and sweep counts:
//! the anchor rows when the anchor F-step moved onto the shared GPI loop
//! (objectives within 6 ULP), and every GPI row when the polar step moved
//! from the SVD of the `n × c` iterate to its `c × c` Gram matrix
//! (objectives within 13 ULP; the three k-means rows, whose embedding
//! never passes through GPI, did not move). To print a fresh table (for a
//! deliberate numerical change only), run
//! `cargo test -p umsc-core --test golden_bits -- --ignored --nocapture`.

use umsc_core::{
    build_view_laplacians, build_view_laplacians_sparse, AnchorUmsc, AnchorUmscConfig,
    Discretization, Umsc, UmscConfig, UmscResult, Weighting,
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
        objectives: &[0x3fffd9c12263c074, 0x3fffd9516448720c, 0x3fffd947553e8664, 0x3fffd94600832c5e],
        weights: &[0x3fda14e4c55885dc, 0x3fda4fe917e1ce21, 0x3fc73664458b5807],
        embedding: 0xc87dc48c40583fd5,
    },
    Golden {
        name: "dense/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd16145d33c61d, 0x3ffd15b739468966, 0x3ffd15aeaa9fee5b, 0x3ffd15ad8aa9c550],
        weights: &[0x3fda1d801d2b16dd, 0x3fda3cc65ab521d0, 0x3fc74b73103f8ea8],
        embedding: 0x1bd4c2258ca3f625,
    },
    Golden {
        name: "dense/auto/kmeans",
        labels: 0x044493e202f4a906,
        objectives: &[0x3ffd178ed5b1791f, 0x3ffd108d38ebff7a, 0x3ffd1036460eb53a, 0x3ffd102e3c1a413b, 0x3ffd102d2e7cc363],
        weights: &[0x3fda20849682f857, 0x3fda360e408956b1, 0x3fc752da51e761ed],
        embedding: 0xb140d095a0f6bd3a,
    },
    Golden {
        name: "dense/uniform/rotation",
        labels: 0x238361c65f32ff06,
        objectives: &[0x3fe2f61e73f0d6f6, 0x3fe2f61c56ffa0cd],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x0f29173e2e8b0dd5,
    },
    Golden {
        name: "dense/uniform/scaled",
        labels: 0x238361c65f32ff06,
        objectives: &[0x3fdab8c62ee67071, 0x3fdab8c5906cc5b1],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0xaa773aaadf673c65,
    },
    Golden {
        name: "dense/uniform/kmeans",
        labels: 0xfb73ee89ef8eecc4,
        objectives: &[0x3fda9539257ffd7b],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x12d0f463b4b45c00,
    },
    Golden {
        name: "dense/fixed/rotation",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fdd34aa3ab5d228, 0x3fdd34a8a6c990b0],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0x2187dc98f0eb574a,
    },
    Golden {
        name: "dense/fixed/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fd226c24b5c21ba, 0x3fd226c2148cfa32],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0x64e1663fb9bb3d1c,
    },
    Golden {
        name: "dense/fixed/kmeans",
        labels: 0x044493e202f4a906,
        objectives: &[0x3fd210664acf05b2],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0x35d0c94958be20a0,
    },
    Golden {
        name: "sparse/auto/rotation",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fffd9c11bcbd73c, 0x3fffd95163994412, 0x3fffd947550fc6c7, 0x3fffd9460072e081],
        weights: &[0x3fda14e45114a65e, 0x3fda4fe99fe95782, 0x3fc736641e04043e],
        embedding: 0xbb259fb739c443f0,
    },
    Golden {
        name: "sparse/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd1614565b5bda, 0x3ffd15b73844e3ef, 0x3ffd15aeaa759ed4, 0x3ffd15ad8aa2500e],
        weights: &[0x3fda1d7fa725ce23, 0x3fda3cc6ea8a5d46, 0x3fc74b72dc9fa92b],
        embedding: 0x25dad1f1b6131d48,
    },
    Golden {
        name: "anchor/auto",
        labels: 0xfea03cbbba3ab144,
        objectives: &[0x4000f8f2b1c5c52f, 0x4000f8aa41f8925e, 0x4000f8a9e3ebfcca],
        weights: &[0x3fda9d7b1d57d22f, 0x3fd8d99c82aa659f, 0x3fc911d0bffb9065],
        embedding: 0x3f731642a0047d3e,
    },
    Golden {
        name: "anchor/uniform",
        labels: 0x88df13cb62d03ea6,
        objectives: &[0x3fe4a5c683fb931c, 0x3fe4a39ee7885e90, 0x3fe4a39e236a2a54],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x759579bfe84b1552,
    },
];
