//! Anchor (bipartite) graphs for large-scale spectral clustering.
//!
//! A full affinity is O(n²) to build and O(n³) to eigendecompose. The
//! anchor-graph construction (Liu et al., *Large Graph Construction for
//! Scalable Semi-Supervised Learning*, ICML 2010) replaces it with a
//! bipartite graph between the `n` points and `m ≪ n` representative
//! **anchors**:
//!
//! * anchors are picked by k-means++-style D² sampling (no Lloyd pass
//!   needed — coverage is what matters, not optimal centroids);
//! * each point connects to its `k` nearest anchors with CAN-style
//!   closed-form simplex weights, giving `Z ∈ R^{n×m}` with rows summing
//!   to 1;
//! * the induced point-point affinity `W = Z·Λ⁻¹·Zᵀ` (`Λ = diag(Zᵀ1)`) has
//!   **unit row sums**, so its normalized Laplacian is `I − W`, and the
//!   spectral embedding reduces to the top left singular vectors of the
//!   thin factor `B = Z·Λ^{-1/2}`.
//!
//! `Z` and `B` are built straight into CSR with at most `k` entries per
//! row ([`anchor_weights_sparse`], [`normalized_factor_sparse`]): a
//! factor costs O(n·k) memory, not O(n·m), and every product with it
//! O(n·k) per column. The dense [`anchor_weights`] / [`normalized_factor`]
//! are densified views of the same builders.
//!
//! Both `O(n·m·d)` loops are threaded over contiguous row blocks and
//! lane-blocked: [`umsc_linalg::ops::sq_dist4`] computes one row against
//! four, each lane summing in `sq_dist`'s order. [`select_anchors`] runs
//! its D² update on a scoped team that lives for the whole call, while the
//! `O(n)` total and the draw stay sequential in index order;
//! [`anchor_weights_sparse`] gives each block its own distance buffers and
//! output slots. Every distance, draw and weight is therefore the bits of
//! the sequential scalar loops at any thread count
//! (`crates/graph/tests/proptests.rs` keeps those loops as oracles).
//!
//! This is the substrate of the large-scale one-stage solver in
//! `umsc-core::anchor`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use crate::can::write_simplex_weights;
use crate::stream::smallest;
use umsc_linalg::ops::{sq_dist, sq_dist4};
use umsc_linalg::Matrix;
use umsc_op::{CsrMatrix, SparseFactor};
use umsc_rt::par::{parallel_chunks_mut_with, threads_for};
use umsc_rt::SplitMix64;

/// Selects `m` anchor rows from `x` by D² (k-means++) sampling.
///
/// Deterministic in `seed`. Returns an `m × d` matrix of anchor positions.
///
/// Threaded past the flop gate on one round's `3·n·d`: the `O(n·d)`
/// update of every point's squared distance to its nearest anchor runs on
/// contiguous row blocks, each entry computed alone, so the distances are
/// the same bits at any thread count. The `O(n)` total and
/// the scan that draws the next anchor stay sequential in index order:
/// they decide which row is drawn. One scoped team serves all `m − 1`
/// rounds, two barrier waits per round, instead of a spawn per anchor.
///
/// # Panics
/// Panics if `m == 0` or `m > x.rows()`.
pub fn select_anchors(x: &Matrix, m: usize, seed: u64) -> Matrix {
    let threads = threads_for(3 * x.rows() * x.cols());
    let _span = umsc_obs::span!("graph.anchor_select");
    let n = x.rows();
    assert!(m >= 1, "select_anchors: m must be >= 1");
    assert!(m <= n, "select_anchors: m = {m} exceeds n = {n}");
    let d = x.cols();
    let mut rng = SplitMix64::new(seed);
    let mut anchors = Matrix::zeros(m, d);

    let first = (rng.next_u64() % n as u64) as usize;
    anchors.row_mut(0).copy_from_slice(x.row(first));
    let mut min_dist = vec![0.0f64; n];
    let block = n.div_ceil(threads.max(1));
    let blocks: Vec<Mutex<&mut [f64]>> = min_dist.chunks_mut(block).map(Mutex::new).collect();
    // The row of `x` that is the newest anchor. A barrier wait separates
    // every store from the loads that read it, so `Relaxed` suffices.
    let newest = AtomicUsize::new(first);
    let barrier = &Barrier::new(blocks.len());
    let poisoned = "a team member panicked holding its block";
    // Round j: every member lowers its block to anchor j − 1 (anchor 0
    // sets it), then member 0 draws anchor j.
    let lower = |b: usize, j: usize| {
        let a = x.row(newest.load(Ordering::Relaxed));
        nearest_anchor_update(x, b * block, &mut blocks[b].lock().expect(poisoned), a, j == 1);
    };
    std::thread::scope(|s| {
        for b in 1..blocks.len() {
            s.spawn(move || {
                for j in 1..m {
                    lower(b, j);
                    barrier.wait();
                    barrier.wait();
                }
            });
        }
        for j in 1..m {
            lower(0, j);
            barrier.wait();
            let guards: Vec<_> = blocks.iter().map(|b| b.lock().expect(poisoned)).collect();
            let pick = draw(guards.iter().flat_map(|g| g.iter().copied()), n, &mut rng);
            drop(guards);
            anchors.row_mut(j).copy_from_slice(x.row(pick));
            newest.store(pick, Ordering::Relaxed);
            barrier.wait();
        }
    });
    anchors
}

/// Lowers `md[r]` to the squared distance between row `lo + r` of `x` and
/// the anchor `a` (`first`: sets it), four rows per [`sq_dist4`] pass.
fn nearest_anchor_update(x: &Matrix, lo: usize, md: &mut [f64], a: &[f64], first: bool) {
    let put = |md: &mut f64, dist: f64| {
        if first || dist < *md {
            *md = dist;
        }
    };
    let mut quads = md.chunks_exact_mut(4);
    let mut i = lo;
    for q in &mut quads {
        let dist = sq_dist4(a, [x.row(i), x.row(i + 1), x.row(i + 2), x.row(i + 3)]);
        for (md, dist) in q.iter_mut().zip(dist) {
            put(md, dist);
        }
        i += 4;
    }
    for md in quads.into_remainder() {
        put(md, sq_dist(x.row(i), a));
        i += 1;
    }
}

/// D² draw of the next anchor among `n` points: row `i` with probability
/// `min_dist[i] / Σ`, uniform when every point already sits on an anchor.
fn draw(min_dist: impl Iterator<Item = f64> + Clone, n: usize, rng: &mut SplitMix64) -> usize {
    let total: f64 = min_dist.clone().sum();
    if total <= 0.0 {
        return (rng.next_u64() % n as u64) as usize;
    }
    let mut target = rng.next_f64() * total;
    for (i, w) in min_dist.enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Builds the point→anchor weight matrix `Z` (`n × m`, rows sum to 1) in
/// CSR: each point gets CAN-style closed-form weights over its `k`
/// nearest anchors, so a row stores at most `k` entries, with ascending
/// columns and exact zeros (a tied `d_{k+1}`) dropped; no `n × m` matrix
/// is ever allocated.
///
/// Rows are threaded past the flop gate on `3·n·m·d`: each contiguous
/// block of rows computes its points' `m` anchor distances ([`sq_dist4`],
/// four anchors per pass) into its own `m`-length buffers and writes each
/// row into that row's own `k` slots of the output; one sequential pass
/// then closes the gaps in row order. Every row is computed alone, so `Z`
/// is the same bits at any thread count, and the output arrays are the
/// only `O(n·k)` allocation.
///
/// # Panics
/// Panics if `k` is not in `1..=m`.
pub fn anchor_weights_sparse(x: &Matrix, anchors: &Matrix, k: usize) -> CsrMatrix {
    let _span = umsc_obs::span!("graph.anchor_weights");
    let n = x.rows();
    let m = anchors.rows();
    let threads = threads_for(3 * n * m * x.cols());
    assert!(k >= 1 && k <= m, "anchor_weights: need 1 <= k <= m, got k={k}, m={m}");
    assert_eq!(x.cols(), anchors.cols(), "anchor_weights: feature dimension mismatch");

    // Row i owns slots [i·k, (i + 1)·k); row_ptr[i + 1] first holds its
    // entry count.
    let mut row_ptr = vec![0usize; n + 1];
    let mut col_idx = vec![0usize; n * k];
    let mut values = vec![0.0f64; n * k];
    let block = n.div_ceil(threads.max(1)).max(1);
    let mut blocks: Vec<(&mut [usize], &mut [usize], &mut [f64])> = row_ptr[1..]
        .chunks_mut(block)
        .zip(col_idx.chunks_mut(block * k))
        .zip(values.chunks_mut(block * k))
        .map(|((len, col), val)| (len, col, val))
        .collect();
    parallel_chunks_mut_with(threads, &mut blocks, 1, |b, part| {
        let (len, col, val) = &mut part[0];
        weight_rows(x, anchors, k, b * block, len, col, val);
    });

    let mut nnz = 0;
    for i in 0..n {
        let (start, len) = (i * k, row_ptr[i + 1]);
        col_idx.copy_within(start..start + len, nnz);
        values.copy_within(start..start + len, nnz);
        nnz += len;
        row_ptr[i + 1] = nnz;
    }
    col_idx.truncate(nnz);
    values.truncate(nnz);
    CsrMatrix::from_parts(n, m, row_ptr, col_idx, values)
}

/// The weight rows `lo..lo + len.len()` of `Z`: row `lo + r` stores its
/// entry count in `len[r]` and its entries, by ascending column, at the
/// front of its slots `col/val[r·k..(r + 1)·k]`.
fn weight_rows(x: &Matrix, anchors: &Matrix, k: usize, lo: usize, len: &mut [usize], col: &mut [usize], val: &mut [f64]) {
    let m = anchors.rows();
    let a = |j| anchors.row(j);
    let mut dist = vec![0.0f64; m];
    let mut row = vec![0.0f64; m];
    for (r, len) in len.iter_mut().enumerate() {
        let xi = x.row(lo + r);
        let mut quads = dist.chunks_exact_mut(4);
        let mut j = 0;
        for q in &mut quads {
            q.copy_from_slice(&sq_dist4(xi, [a(j), a(j + 1), a(j + 2), a(j + 3)]));
            j += 4;
        }
        for (d, j) in quads.into_remainder().iter_mut().zip(j..) {
            *d = sq_dist(xi, a(j));
        }
        let kept = smallest(k + 1, dist.iter().enumerate().map(|(j, &d)| (d, j)));
        // CAN closed form over the k nearest anchors; d_{k+1} plays γ.
        write_simplex_weights(&kept, k, |j, w| row[j] = w);
        let (col, val) = (&mut col[r * k..(r + 1) * k], &mut val[r * k..(r + 1) * k]);
        *len = 0;
        for (j, w) in row.iter_mut().enumerate() {
            if *w != 0.0 {
                col[*len] = j;
                val[*len] = *w;
                *len += 1;
                *w = 0.0;
            }
        }
    }
}

/// [`anchor_weights_sparse`] densified (small inputs and tests).
pub fn anchor_weights(x: &Matrix, anchors: &Matrix, k: usize) -> Matrix {
    crate::to_matrix(&anchor_weights_sparse(x, anchors, k))
}

/// The normalized factor `B = Z·Λ^{-1/2}` with `Λ = diag(Zᵀ·1)`, as a
/// [`SparseFactor`], plus the column scales `Λ^{-1/2}` (kept to normalize
/// out-of-sample rows the same way). The anchor-graph affinity is
/// `W = B·Bᵀ`; its normalized Laplacian is `I − W` (unit row sums), so
/// the spectral embedding is the top left singular subspace of `B`.
///
/// Columns whose anchor attracted no weight get scale 0 and stay empty.
pub fn normalized_factor_sparse(z: &CsrMatrix) -> (SparseFactor, Vec<f64>) {
    let (_, col_idx, values) = z.parts();
    let mut col_sums = vec![0.0f64; z.cols()];
    for (&j, &v) in col_idx.iter().zip(values) {
        col_sums[j] += v;
    }
    let inv_sqrt: Vec<f64> =
        col_sums.iter().map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 }).collect();
    (normalized_factor_with(z, &inv_sqrt), inv_sqrt)
}

/// `B = Z·diag(col_inv_sqrt)` as a [`SparseFactor`]: the training
/// normalization applied to (possibly new) rows `Z`.
///
/// # Panics
/// Panics if `col_inv_sqrt.len() != z.cols()`.
pub fn normalized_factor_with(z: &CsrMatrix, col_inv_sqrt: &[f64]) -> SparseFactor {
    assert_eq!(col_inv_sqrt.len(), z.cols(), "normalized_factor_with: one scale per anchor");
    let mut b = z.clone();
    let (_, col_idx, values) = b.parts_mut();
    for (v, &j) in values.iter_mut().zip(col_idx) {
        *v *= col_inv_sqrt[j];
    }
    SparseFactor::new(b)
}

/// [`normalized_factor_sparse`] of a dense `Z`, densified.
pub fn normalized_factor(z: &Matrix) -> Matrix {
    let (b, _) = normalized_factor_sparse(&CsrMatrix::from_dense(z.rows(), z.cols(), z.as_slice()));
    crate::to_matrix(b.csr())
}

/// Convenience: distances → anchors → weights → normalized factor for one
/// feature view. Returns `(B, anchors)`.
pub fn anchor_view_factor(x: &Matrix, m: usize, k: usize, seed: u64) -> (SparseFactor, Matrix) {
    let m = m.min(x.rows()).max(1);
    let k = k.min(m).max(1);
    let anchors = select_anchors(x, m, seed);
    let (b, _) = normalized_factor_sparse(&anchor_weights_sparse(x, &anchors, k));
    (b, anchors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(b: &SparseFactor) -> Matrix {
        crate::to_matrix(b.csr())
    }

    fn blobs(n_per: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
            for i in 0..n_per {
                let a = i as f64 * 2.4;
                rows.push(vec![center.0 + 0.4 * a.cos(), center.1 + 0.4 * a.sin()]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn anchors_cover_all_blobs() {
        let (x, labels) = blobs(30);
        let anchors = select_anchors(&x, 9, 1);
        // Every blob contains at least one anchor (D² sampling spreads).
        let mut covered = [false; 3];
        for j in 0..9 {
            let mut best = (f64::INFINITY, 0usize);
            for i in 0..x.rows() {
                let d = umsc_linalg::ops::sq_dist(anchors.row(j), x.row(i));
                if d < best.0 {
                    best = (d, i);
                }
            }
            covered[labels[best.1]] = true;
        }
        assert!(covered.iter().all(|&c| c), "{covered:?}");
    }

    #[test]
    fn z_rows_are_distributions() {
        let (x, _) = blobs(20);
        let anchors = select_anchors(&x, 8, 0);
        let z = anchor_weights(&x, &anchors, 3);
        for i in 0..x.rows() {
            let s: f64 = z.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(z.row(i).iter().all(|&v| v >= 0.0));
            let nnz = z.row(i).iter().filter(|&&v| v > 0.0).count();
            assert!(nnz <= 3);
        }
    }

    #[test]
    fn anchor_affinity_has_unit_row_sums() {
        let (x, _) = blobs(15);
        let (b, _) = anchor_view_factor(&x, 9, 3, 0);
        let b = dense(&b);
        // W = BBᵀ rows sum to 1.
        let w = b.matmul_transpose_b(&b);
        for i in 0..x.rows() {
            let s: f64 = w.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        // Top singular value of B is 1 (the constant direction).
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        assert!((svd.s[0] - 1.0).abs() < 1e-8, "σ₁ = {}", svd.s[0]);
    }

    #[test]
    fn anchor_embedding_separates_blobs() {
        let (x, labels) = blobs(25);
        let b = dense(&anchor_view_factor(&x, 12, 4, 0).0);
        // Embedding = top-3 left singular vectors of B.
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        let f = svd.u.columns(0, 3);
        // Within-blob embedding distance much smaller than across.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..x.rows() {
            for j in (i + 1)..x.rows() {
                let d = umsc_linalg::ops::sq_dist(f.row(i), f.row(j));
                if labels[i] == labels[j] {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    across = (across.0 + d, across.1 + 1);
                }
            }
        }
        assert!(across.0 / across.1 as f64 > 10.0 * within.0 / within.1 as f64);
    }

    #[test]
    fn deterministic() {
        let (x, _) = blobs(10);
        let a1 = select_anchors(&x, 5, 7);
        let a2 = select_anchors(&x, 5, 7);
        assert!(a1.approx_eq(&a2, 0.0));
    }

    #[test]
    fn degenerate_duplicates() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let (b, _) = anchor_view_factor(&x, 4, 2, 0);
        assert!(b.csr().is_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn too_many_anchors_panics() {
        let x = Matrix::from_rows(&[vec![0.0]]);
        let _ = select_anchors(&x, 2, 0);
    }
}
