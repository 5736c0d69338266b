//! Streamed k-NN / CAN graph construction: no `n × n` matrix per view.
//!
//! [`neighbor_graph`] walks the rows of a view in blocks of
//! [`TILE_ROWS`]. For the block `[lo, hi)` it computes only the
//! upper-triangular Gram tile `X[lo..hi]·X[lo..n]ᵀ` by row quads (four
//! rows per [`Matrix::gram_block_into`] call, the 4 × 4 register-tiled
//! kernel), turns it into distances in place (the exact formulas of
//! [`crate::distance`], through the helper that also fills the dense
//! distance matrices), and
//! feeds it to per-row bounded top-`kk` selectors: the block's own rows
//! take their columns `j ≥ lo`, the rows `j ≥ hi` take the transposed
//! entries. The Gram is bitwise symmetric, so every row sees exactly the
//! values its row of the full distance matrix would hold.
//!
//! * **Tie rule.** Neighbours are ranked by the total order
//!   `(distance, index)` — the order a stable sort of the index-ordered
//!   row produces — so the kept set never depends on feeding order,
//!   thread count or block size.
//! * **Self-tuning scales.** `σᵢ = max(sqrt(d_i,(k)), 1e-8·max(σ̄, 1))`,
//!   `σ̄` the mean of the unfloored `σᵢ` in index order, read off the
//!   kept distances by `affinity::self_tuning_scales`, the dense route's
//!   function, so the two routes hold the same bits. The selectors are
//!   the only pass over the tiles. The floor used to scale with the mean
//!   of all pairwise distances, a sequential all-pairs sum; the switch
//!   moved no bit on the gated inputs, because neither floor binds there:
//!   on 32 gated and benchmarked inputs (the six mimics at data seed 2026,
//!   quick and full, and Handwritten and ORL seeds 1–10) every view's
//!   smallest `σᵢ` is more than 10⁷× either floor.
//! * **Edges.** The k-NN kind evaluates the kernel only on kept edges;
//!   CAN keeps `k + 1` per row and puts its closed-form simplex weights on
//!   the `k` nearest. Edges go straight into CSR and are symmetrized
//!   there: k-NN by the max rule, CAN by the mean rule `(S + Sᵀ)/2`.
//!
//! Memory per view in flight is one tile plus the selectors,
//! `O(TILE_ROWS·n + n·kk)`, against the `n²` doubles of each distance,
//! affinity or Laplacian matrix of the dense route. The precomputed-distance
//! entry points [`crate::knn_affinity`] and
//! [`crate::adaptive_neighbor_affinity`] feed whole rows of a matrix
//! through the same selector, so there is one selection implementation.

use crate::affinity::{self_tuning_scales, Bandwidth};
use crate::can::write_simplex_weights;
use crate::distance::{distance_tile, gram_threads, Metric, TILE_ROWS};
use umsc_op::CsrMatrix;
use umsc_linalg::Matrix;

/// Which edges a sparse graph keeps, and how they are weighted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Neighbors {
    /// Gaussian weights on each node's `k` nearest neighbours (clamped to
    /// `n − 1`), symmetrized with the max rule.
    Knn {
        /// Neighbours kept per node.
        k: usize,
        /// Kernel bandwidth policy.
        bandwidth: Bandwidth,
    },
    /// CAN simplex weights (see [`crate::can`]) on each node's `k` nearest
    /// neighbours (clamped to `n − 1`), symmetrized as `(S + Sᵀ)/2`.
    Adaptive {
        /// Neighbours kept per node.
        k: usize,
    },
}

/// Rows of the transposed feed handled per work chunk: their selectors
/// stay hot while the tile's rows stream past.
const FEED_ROWS: usize = 64;

/// Empty selector slot: ranks after every real candidate.
const EMPTY: (f64, usize) = (f64::INFINITY, usize::MAX);

/// Whether candidate `(d, j)` ranks before `slot` in `(distance, index)`
/// order.
#[inline]
fn ranks_before(d: f64, j: usize, slot: (f64, usize)) -> bool {
    d < slot.0 || (d == slot.0 && j < slot.1)
}

/// Offers candidate `(d, j)` to a bounded selector: `slots` holds the
/// smallest candidates seen so far in ascending `(distance, index)` order,
/// padded with [`EMPTY`].
#[inline]
pub(crate) fn offer(slots: &mut [(f64, usize)], d: f64, j: usize) {
    let Some(&last) = slots.last() else { return };
    if !ranks_before(d, j, last) {
        return;
    }
    let mut p = slots.len() - 1;
    while p > 0 && ranks_before(d, j, slots[p - 1]) {
        slots[p] = slots[p - 1];
        p -= 1;
    }
    slots[p] = (d, j);
}

/// The `kk` smallest of `candidates` in ascending `(distance, index)`
/// order (fewer if there are fewer candidates) — the first `kk` entries
/// of a stable sort by distance of the index-ordered candidates.
pub(crate) fn smallest(kk: usize, candidates: impl Iterator<Item = (f64, usize)>) -> Vec<(f64, usize)> {
    let mut slots = vec![EMPTY; kk];
    let mut seen = 0;
    for (d, j) in candidates {
        offer(&mut slots, d, j);
        seen += 1;
    }
    slots.truncate(seen.min(kk));
    slots
}

/// Bandwidth resolved to what the edge weights need.
enum Kernel {
    /// `exp(−d / denom)` with one global denominator.
    Global(f64),
    /// `exp(−d / max(σᵢσⱼ, MIN_POSITIVE))`.
    Local(Vec<f64>),
}

impl Kernel {
    #[inline]
    fn weight(&self, i: usize, j: usize, d: f64) -> f64 {
        match self {
            Kernel::Global(denom) => (-d / denom).exp(),
            Kernel::Local(sigma) => (-d / (sigma[i] * sigma[j]).max(f64::MIN_POSITIVE)).exp(),
        }
    }
}

/// Per-view graph state fed one distance tile at a time.
struct Builder {
    n: usize,
    neighbors: Neighbors,
    /// Selector width: enough for the edges (CAN's `k + 1`, whose last
    /// distance plays γ) and the self-tuning rank.
    kk: usize,
    /// `n × kk` selector slots, row-major.
    slots: Vec<(f64, usize)>,
}

impl Builder {
    fn new(n: usize, neighbors: Neighbors) -> Self {
        let width = match neighbors {
            Neighbors::Knn { k, bandwidth } => {
                assert!(k >= 1, "knn_affinity: k must be >= 1");
                match bandwidth {
                    Bandwidth::Global(sigma) => {
                        assert!(sigma > 0.0, "gaussian_affinity: Global bandwidth must be positive, got {sigma}");
                        k
                    }
                    Bandwidth::SelfTuning { k: rank } => k.max(rank),
                }
            }
            Neighbors::Adaptive { k } => {
                assert!(k >= 1, "adaptive_neighbor_affinity: k must be >= 1");
                k.saturating_add(1)
            }
        };
        let kk = width.min(n.saturating_sub(1));
        Builder { n, neighbors, kk, slots: vec![EMPTY; n * kk] }
    }

    /// Absorbs the distances of rows `[lo, hi)` against columns `[lo, n)`:
    /// `tile[r·ld + c]` is the distance between `lo + r` and `lo + c`.
    /// Blocks must arrive in ascending order, covering every row once.
    fn absorb(&mut self, threads: usize, lo: usize, hi: usize, tile: &[f64], ld: usize) {
        let (n, kk) = (self.n, self.kk);
        if kk == 0 {
            return;
        }
        let (own, below) = self.slots[lo * kk..].split_at_mut((hi - lo) * kk);
        umsc_rt::par::parallel_chunks_mut_with(threads, own, kk, |r, slots| {
            let i = lo + r;
            for (c, &d) in tile[r * ld..r * ld + (n - lo)].iter().enumerate() {
                if lo + c != i {
                    offer(slots, d, lo + c);
                }
            }
        });
        umsc_rt::par::parallel_chunks_mut_with(threads, below, FEED_ROWS * kk, |ci, chunk| {
            let j0 = hi + ci * FEED_ROWS;
            let rows = chunk.len() / kk;
            for r in 0..hi - lo {
                let seg = &tile[r * ld + (j0 - lo)..r * ld + (j0 - lo) + rows];
                for (slots, &d) in chunk.chunks_exact_mut(kk).zip(seg) {
                    offer(slots, d, lo + r);
                }
            }
        });
    }

    /// The kept `(distance, index)` pairs of row `i`, ascending.
    fn kept(&self, i: usize) -> &[(f64, usize)] {
        &self.slots[i * self.kk..(i + 1) * self.kk]
    }

    fn kernel(&self, bandwidth: Bandwidth) -> Kernel {
        match bandwidth {
            Bandwidth::Global(sigma) => Kernel::Global(2.0 * sigma * sigma),
            Bandwidth::SelfTuning { k } => Kernel::Local(self_tuning_scales(self.n, k, |i, rank| self.kept(i)[rank].0)),
        }
    }

    /// The kept edges' weights as CSR, rows sorted and compacted, then
    /// symmetrized: k-NN by the max rule, CAN by the mean rule.
    fn finish(self) -> CsrMatrix {
        let n = self.n;
        let kernel = match self.neighbors {
            Neighbors::Knn { bandwidth, .. } => Some(self.kernel(bandwidth)),
            Neighbors::Adaptive { .. } => None,
        };
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(n * self.kk);
        let mut row: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            row.clear();
            match (self.neighbors, &kernel) {
                (Neighbors::Knn { k, .. }, Some(kernel)) => {
                    let kept = &self.kept(i)[..k.min(n - 1)];
                    row.extend(kept.iter().map(|&(d, j)| (j, kernel.weight(i, j, d))));
                }
                (Neighbors::Adaptive { k }, _) if n >= 2 => {
                    write_simplex_weights(self.kept(i), k.min(n - 1), |j, s| row.push((j, s)));
                }
                _ => {}
            }
            row.sort_unstable_by_key(|e| e.0);
            entries.extend_from_slice(&row);
            row_ptr.push(entries.len());
        }
        let (col_idx, values) = entries.into_iter().unzip();
        let w = CsrMatrix::from_parts(n, n, row_ptr, col_idx, values).compact();
        match self.neighbors {
            Neighbors::Knn { .. } => w.symmetrize_max(),
            Neighbors::Adaptive { .. } => w.symmetrize(),
        }
    }
}

/// Sparse k-NN or CAN graph of the rows of `x`, streamed through
/// upper-triangular distance tiles (see the module docs). Equal, entry for
/// entry, to [`crate::knn_affinity`] / [`crate::adaptive_neighbor_affinity`]
/// on the full distance matrix of `x` under `metric`.
///
/// Threaded past the flop gate on the Gram tiles' `n·n·d`: threads split
/// each tile's rows (in whole row quads), and the selectors, into
/// disjoint sets, so the output is bitwise-identical for every thread
/// count.
///
/// # Panics
/// Panics if a k-NN or CAN `k` is 0 or a `Global` bandwidth is not
/// positive.
pub fn neighbor_graph(x: &Matrix, metric: Metric, neighbors: Neighbors) -> CsrMatrix {
    let n = x.rows();
    let threads = gram_threads(x);
    let norms = metric.row_norms(x);
    let mut b = Builder::new(n, neighbors);
    let mut tile = vec![0.0; TILE_ROWS.min(n) * n];
    for lo in (0..n).step_by(TILE_ROWS) {
        let hi = (lo + TILE_ROWS).min(n);
        let ld = n - lo;
        {
            let _span = umsc_obs::span!("graph.distances");
            distance_tile(x, threads, lo, &mut tile[..(hi - lo) * ld], ld, |i, j, g| {
                metric.distance_from_gram(norms[i], norms[j], g)
            });
        }
        let _span = umsc_obs::span!("graph.knn_select");
        b.absorb(threads, lo, hi, &tile, ld);
    }
    drop(tile);
    let _span = umsc_obs::span!("graph.knn_select");
    b.finish()
}

/// The precomputed-distance front-end: every row of `dist_sq` (which must
/// be symmetric, as every distance builder here returns it) goes through
/// the streamed builder's selector as one whole-matrix block.
pub(crate) fn affinity_from_distances(dist_sq: &Matrix, neighbors: Neighbors) -> CsrMatrix {
    let n = dist_sq.rows();
    let mut b = Builder::new(n, neighbors);
    // Each of the n² entries is offered to a selector of kk slots.
    b.absorb(umsc_rt::par::threads_for(n * n * b.kk), 0, n, dist_sq.as_slice(), n);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_keeps_smallest_in_distance_then_index_order() {
        let cands = [(3.0, 0), (1.0, 1), (1.0, 2), (0.5, 3), (1.0, 4), (9.0, 5)];
        assert_eq!(smallest(3, cands.iter().copied()), vec![(0.5, 3), (1.0, 1), (1.0, 2)]);
        // Feeding order does not matter.
        assert_eq!(smallest(3, cands.iter().rev().copied()), vec![(0.5, 3), (1.0, 1), (1.0, 2)]);
        // Fewer candidates than slots: all of them, sorted.
        assert_eq!(smallest(10, cands[..2].iter().copied()), vec![(1.0, 1), (3.0, 0)]);
        assert!(smallest(0, cands.iter().copied()).is_empty());
        // Infinite distances are still real candidates.
        assert_eq!(smallest(2, [(f64::INFINITY, 7), (2.0, 8)].into_iter()), vec![(2.0, 8), (f64::INFINITY, 7)]);
    }
}
