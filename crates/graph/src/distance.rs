//! Pairwise distance matrices.
//!
//! Spectral clustering starts from an `n × n` distance matrix per view.
//! Squared Euclidean distances are computed via the expansion
//! `‖x−y‖² = ‖x‖² + ‖y‖² − 2·xᵀy` so the dominant cost is one GEMM, with a
//! clamp at zero to absorb the cancellation error the expansion can incur.
//!
//! Distances are symmetric, so only the upper triangle is computed: row
//! blocks of [`TILE_ROWS`] rows take their Gram tile `X[lo..hi]·X[lo..n]ᵀ`
//! and the lower triangle is mirrored. That halves the GEMM flops, and
//! because the Gram is bitwise symmetric (dot products commute term by
//! term) the result equals the full-GEMM fill. Each tile is computed by
//! row quads: threads take contiguous runs of whole [`GRAM_TILE`]-row
//! blocks, and each block is one [`Matrix::gram_block_into`] call (the
//! 4 × 4 register-tiled kernel, every entry `ops::dot` of its rows bit
//! for bit) followed by the distance formula. The streamed graph builder
//! in [`crate::stream`] walks the same tiles, through the same helper,
//! without ever holding the whole matrix.

use umsc_linalg::matrix::GRAM_TILE;
use umsc_linalg::Matrix;

/// Rows per upper-triangular Gram tile. A tile holds at most
/// `TILE_ROWS · n` entries, which bounds the streamed builder's memory.
pub const TILE_ROWS: usize = 128;

/// Distance metric for graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared Euclidean distances (dense numeric views).
    Euclidean,
    /// Cosine distances (sparse text-like views; squared for the kernel).
    Cosine,
}

impl Metric {
    /// Per-row norms the Gram transform needs: squared norms for
    /// Euclidean, norms for cosine.
    pub(crate) fn row_norms(self, x: &Matrix) -> Vec<f64> {
        (0..x.rows())
            .map(|i| {
                let sq = umsc_linalg::ops::dot(x.row(i), x.row(i));
                match self {
                    Metric::Euclidean => sq,
                    Metric::Cosine => sq.sqrt(),
                }
            })
            .collect()
    }

    /// The (squared, for the kernel) distance between rows `i` and `j`
    /// from their norms and Gram entry `g`. Symmetric in `(ni, nj)`, so the
    /// upper triangle determines the lower bit for bit.
    #[inline]
    pub(crate) fn distance_from_gram(self, ni: f64, nj: f64, g: f64) -> f64 {
        match self {
            Metric::Euclidean => sq_distance_from_gram(ni, nj, g),
            Metric::Cosine => {
                let c = cosine_distance_from_gram(ni, nj, g);
                c * c
            }
        }
    }
}

#[inline]
fn sq_distance_from_gram(sq_i: f64, sq_j: f64, g: f64) -> f64 {
    (sq_i + sq_j - 2.0 * g).max(0.0)
}

#[inline]
fn cosine_distance_from_gram(norm_i: f64, norm_j: f64, g: f64) -> f64 {
    let denom = norm_i * norm_j;
    if denom > 0.0 {
        (1.0 - g / denom).clamp(0.0, 2.0)
    } else {
        1.0
    }
}

/// Thread count for the Gram tiles of the rows of `x`: the flop gate on
/// `n·n·d`.
pub(crate) fn gram_threads(x: &Matrix) -> usize {
    umsc_rt::par::threads_for(x.rows() * x.rows() * x.cols())
}

/// Pairwise **squared** Euclidean distances between the rows of `x`.
///
/// Returns a symmetric `n × n` matrix with an exactly-zero diagonal.
/// Threaded past the flop gate: each upper-triangular tile row is computed
/// whole by one thread and the lower triangle is its mirror, so the result
/// is bitwise symmetric and bitwise-identical for every thread count.
pub fn pairwise_sq_distances(x: &Matrix) -> Matrix {
    let sq_norms = Metric::Euclidean.row_norms(x);
    symmetric_fill(x, |i, j, g| sq_distance_from_gram(sq_norms[i], sq_norms[j], g))
}

/// Pairwise cosine distances `1 − cos(x_i, x_j)` between the rows of `x`.
///
/// Zero rows are treated as maximally distant (distance 1) from everything,
/// including other zero rows — a safe convention for sparse text views.
/// Threaded like [`pairwise_sq_distances`], with the same bits at any
/// thread count.
pub fn cosine_distance_matrix(x: &Matrix) -> Matrix {
    let norms = Metric::Cosine.row_norms(x);
    symmetric_fill(x, |i, j, g| cosine_distance_from_gram(norms[i], norms[j], g))
}

/// The distances of rows `lo..` against columns `lo..n`, row `lo + r` at
/// `out[r·ld..]` (as many rows as `out` reaches): `dist(i, j, xᵢ·xⱼ)`,
/// with a zero on the diagonal. Threads take contiguous runs of whole
/// [`GRAM_TILE`]-row blocks, and each block is one
/// [`Matrix::gram_block_into`] call, so every quad runs through the
/// register tile; the entries do not depend on the thread count.
pub(crate) fn distance_tile(
    x: &Matrix,
    threads: usize,
    lo: usize,
    out: &mut [f64],
    ld: usize,
    dist: impl Fn(usize, usize, f64) -> f64 + Sync,
) {
    let n = x.rows();
    umsc_rt::par::parallel_chunks_mut_with(threads, out, GRAM_TILE * ld, |q, block| {
        let first = lo + q * GRAM_TILE;
        let rows = first..first + block.len().div_ceil(ld);
        x.gram_block_into(rows.clone(), lo..n, block, ld);
        for (i, row) in rows.zip(block.chunks_mut(ld)) {
            for (j, v) in (lo..n).zip(row.iter_mut()) {
                *v = if j == i { 0.0 } else { dist(i, j, *v) };
            }
        }
    });
}

/// Fills the symmetric `n × n` matrix `d[i][j] = f(i, j, xᵢ·xⱼ)` (zero
/// diagonal) from upper-triangular distance tiles ([`distance_tile`])
/// written straight into `d`'s rows, then mirrors each finished tile into
/// the rows below it.
fn symmetric_fill(x: &Matrix, f: impl Fn(usize, usize, f64) -> f64 + Sync) -> Matrix {
    let n = x.rows();
    let threads = gram_threads(x);
    let mut d = Matrix::zeros(n, n);
    let data = d.as_mut_slice();
    for lo in (0..n).step_by(TILE_ROWS) {
        let hi = (lo + TILE_ROWS).min(n);
        let (top, bottom) = data.split_at_mut(hi * n);
        distance_tile(x, threads, lo, &mut top[lo * n + lo..], n, &f);
        let top = &*top;
        umsc_rt::par::parallel_chunks_mut_with(threads, bottom, n, |r, row| {
            let j = hi + r;
            for (i, v) in (lo..hi).zip(row[lo..hi].iter_mut()) {
                *v = top[i * n + j];
            }
        });
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::par::with_threads;

    #[test]
    fn sq_distances_match_definition() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![-1.0, 1.0]]);
        let d = pairwise_sq_distances(&x);
        assert_eq!(d[(0, 1)], 25.0);
        assert_eq!(d[(1, 0)], 25.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert!((d[(1, 2)] - (16.0 + 9.0)).abs() < 1e-12);
        for i in 0..3 {
            assert_eq!(d[(i, i)], 0.0);
        }
    }

    #[test]
    fn duplicate_points_zero_distance() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
        let d = pairwise_sq_distances(&x);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn never_negative_under_cancellation() {
        // Large norms with tiny differences stress the expansion formula.
        let x = Matrix::from_rows(&[vec![1e8, 1e8], vec![1e8 + 1e-4, 1e8]]);
        let d = pairwise_sq_distances(&x);
        assert!(d[(0, 1)] >= 0.0);
    }

    #[test]
    fn cosine_distance_basics() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0],  // parallel to row 0
            vec![0.0, 5.0],  // orthogonal
            vec![-1.0, 0.0], // anti-parallel
            vec![0.0, 0.0],  // zero row
        ]);
        let d = cosine_distance_matrix(&x);
        assert!(d[(0, 1)].abs() < 1e-12, "parallel → 0");
        assert!((d[(0, 2)] - 1.0).abs() < 1e-12, "orthogonal → 1");
        assert!((d[(0, 3)] - 2.0).abs() < 1e-12, "anti-parallel → 2");
        assert_eq!(d[(0, 4)], 1.0, "zero row convention");
        assert!(d.is_symmetric(0.0));
    }

    #[test]
    fn threaded_distances_are_bitwise_identical() {
        let mut rng = umsc_rt::Rng::from_seed(77);
        // Odd n so row blocks split unevenly; one zero row for the cosine
        // convention branch.
        let x = Matrix::from_fn(53, 7, |i, _| if i == 13 { 0.0 } else { rng.normal() });
        let seq_e = with_threads(1, || pairwise_sq_distances(&x));
        let seq_c = with_threads(1, || cosine_distance_matrix(&x));
        for t in [2, 3, 4, 8] {
            let par_e = with_threads(t, || pairwise_sq_distances(&x));
            let par_c = with_threads(t, || cosine_distance_matrix(&x));
            assert_eq!(seq_e.as_slice(), par_e.as_slice(), "euclidean differs at {t} threads");
            assert_eq!(seq_c.as_slice(), par_c.as_slice(), "cosine differs at {t} threads");
        }
        // Implicit entry points agree with the forced-sequential reference.
        assert_eq!(pairwise_sq_distances(&x).as_slice(), seq_e.as_slice());
        assert_eq!(cosine_distance_matrix(&x).as_slice(), seq_c.as_slice());
        // Full-row computation must still be exactly symmetric.
        assert!(seq_e.is_symmetric(0.0));
        assert!(seq_c.is_symmetric(0.0));
        for i in 0..x.rows() {
            assert_eq!(seq_e[(i, i)], 0.0);
        }
    }

    #[test]
    fn single_point_and_empty() {
        let d = pairwise_sq_distances(&Matrix::from_rows(&[vec![1.0]]));
        assert_eq!(d.shape(), (1, 1));
        assert_eq!(d[(0, 0)], 0.0);
        let d = pairwise_sq_distances(&Matrix::zeros(0, 3));
        assert_eq!(d.shape(), (0, 0));
    }
}
