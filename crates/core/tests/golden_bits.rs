//! Golden bit patterns: every solver path must keep producing the exact
//! same floating-point output for a fixed input.
//!
//! Each case fits a small fixture and compares, bit for bit:
//! - the labels (FNV-1a hash);
//! - the `to_bits` of every history objective;
//! - the `to_bits` of the final view weights;
//! - the `to_bits` of the embedding `F` (FNV-1a hash).
//!
//! The table below was recorded from the solvers before they were merged
//! into one block-coordinate-descent engine; a refactor that moves a
//! single bit fails here. The two anchor rows were recorded again when the
//! anchor F-step moved onto the shared GPI loop, a deliberate change of
//! its rounding (same labels and sweep counts, objectives within 6 ULP). To print a fresh table (for a deliberate
//! numerical change only), run
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
        objectives: &[0x3fffd9c12263c076, 0x3fffd9516448720e, 0x3fffd947553e8664, 0x3fffd94600832c60],
        weights: &[0x3fda14e4c55885dd, 0x3fda4fe917e1ce1f, 0x3fc73664458b5808],
        embedding: 0xcfe08740b8550878,
    },
    Golden {
        name: "dense/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd16145d33c617, 0x3ffd15b739468966, 0x3ffd15aeaa9fee61, 0x3ffd15ad8aa9c54a],
        weights: &[0x3fda1d801d2b16dd, 0x3fda3cc65ab521d0, 0x3fc74b73103f8ea8],
        embedding: 0x405f1cae9780b425,
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
        objectives: &[0x3fe2f61e73f0d6f8, 0x3fe2f61c56ffa0ca],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x1be93c32d843575e,
    },
    Golden {
        name: "dense/uniform/scaled",
        labels: 0x238361c65f32ff06,
        objectives: &[0x3fdab8c62ee67079, 0x3fdab8c5906cc5ac],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0x27ce6f93ef581a51,
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
        objectives: &[0x3fdd34aa3ab5d22a, 0x3fdd34a8a6c990ae],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0xbcc108ac638bea83,
    },
    Golden {
        name: "dense/fixed/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3fd226c24b5c21b8, 0x3fd226c2148cfa2e],
        weights: &[0x3fe2492492492492, 0x3fd2492492492492, 0x3fc2492492492492],
        embedding: 0xce3653b9e68e3958,
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
        objectives: &[0x3fffd9c11bcbd73a, 0x3fffd9516399440c, 0x3fffd947550fc6c5, 0x3fffd9460072e088],
        weights: &[0x3fda14e45114a65d, 0x3fda4fe99fe95784, 0x3fc736641e04043d],
        embedding: 0x12c247475d837e87,
    },
    Golden {
        name: "sparse/auto/scaled",
        labels: 0x035c85518049ace7,
        objectives: &[0x3ffd1614565b5bd7, 0x3ffd15b73844e3f3, 0x3ffd15aeaa759ed5, 0x3ffd15ad8aa2500c],
        weights: &[0x3fda1d7fa725ce24, 0x3fda3cc6ea8a5d46, 0x3fc74b72dc9fa92a],
        embedding: 0xa40d1a5b8c38af04,
    },
    Golden {
        name: "anchor/auto",
        labels: 0xfea03cbbba3ab144,
        objectives: &[0x4000f8f2b1c5c52a, 0x4000f8aa41f89251, 0x4000f8a9e3ebfcd3],
        weights: &[0x3fda9d7b1d57d226, 0x3fd8d99c82aa65b2, 0x3fc911d0bffb904c],
        embedding: 0x4d4f8558718c2c4b,
    },
    Golden {
        name: "anchor/uniform",
        labels: 0x88df13cb62d03ea6,
        objectives: &[0x3fe4a5c683fb9321, 0x3fe4a39ee7885e96, 0x3fe4a39e236a2a56],
        weights: &[0x3fd5555555555555, 0x3fd5555555555555, 0x3fd5555555555555],
        embedding: 0xf8a516eea09072af,
    },
];
