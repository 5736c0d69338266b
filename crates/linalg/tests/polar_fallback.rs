//! The polar step's SVD fallback is visible: each `polar_orthogonalize_into`
//! call that leaves the Gram route counts one `polar.svd_fallback`.
//!
//! Its own test binary because the obs counters are process-global.

use umsc_linalg::{polar_orthogonalize, Matrix};

fn fallbacks() -> u64 {
    umsc_obs::counters_snapshot()
        .into_iter()
        .find(|(name, _)| name == "polar.svd_fallback")
        .map_or(0, |(_, v)| v)
}

#[test]
fn only_the_rank_deficient_input_counts_one_fallback() {
    umsc_obs::set_enabled(true);
    umsc_obs::reset_counters();

    // Well conditioned: the Gram route, no count.
    let m = Matrix::from_fn(9, 3, |i, j| (i as f64 * 0.5 - j as f64).cos() + if i == j { 2.0 } else { 0.0 });
    polar_orthogonalize(&m).unwrap();
    assert_eq!(fallbacks(), 0);

    // Rank 1: MᵀM is singular, so the SVD of M takes over.
    let rank1 = Matrix::from_fn(5, 3, |i, j| (i + 1) as f64 * (j + 1) as f64);
    let f = polar_orthogonalize(&rank1).unwrap();
    assert!(f.matmul_transpose_a(&f).approx_eq(&Matrix::identity(3), 1e-8));
    assert_eq!(fallbacks(), 1);

    umsc_obs::set_enabled(false);
}
