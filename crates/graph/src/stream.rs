//! Streamed k-NN / ε graph construction: no `n × n` matrix per view.
//!
//! [`neighbor_graph`] walks the rows of a view in blocks of
//! [`TILE_ROWS`]. For the block `[lo, hi)` it computes only the
//! upper-triangular Gram tile `X[lo..hi]·X[lo..n]ᵀ`, turns it into
//! distances in place (the exact formulas of [`crate::distance`]), and
//! feeds it to per-row bounded top-`kk` selectors: the block's own rows
//! take their columns `j ≥ lo`, the rows `j ≥ hi` take the transposed
//! entries. The Gram is bitwise symmetric, so every row sees exactly the
//! values its row of the full distance matrix would hold.
//!
//! * **Tie rule.** Neighbours are ranked by the total order
//!   `(distance, index)` — the order a stable sort of the index-ordered
//!   row produces — so the kept set never depends on feeding order,
//!   thread count or block size.
//! * **Mean distance.** Where the bandwidth needs it (`MeanDistance`, and
//!   the `SelfTuning` floor), the sum of `sqrt(d)` over `j > i` runs
//!   sequentially in row-major order, the summation order of the dense
//!   `mean_distance`.
//! * **Edges.** `σᵢ` comes from the kept distances, and the Gaussian is
//!   evaluated only on kept k-NN edges (or the ε edges), which go straight
//!   into CSR.
//!
//! Memory per view in flight is one tile plus the selectors,
//! `O(TILE_ROWS·n + n·kk)`, against the `3·n²` doubles of building the
//! distance and dense Gaussian matrices. The precomputed-distance entry
//! points [`crate::knn_affinity`] and [`crate::epsilon_affinity`] feed
//! whole rows of a matrix through the same selector, so there is one
//! selection implementation.

use crate::affinity::Bandwidth;
use crate::distance::{default_threads, tile_row, Metric, TILE_ROWS};
use crate::sparse::CsrMatrix;
use umsc_linalg::Matrix;

/// Which edges a sparse Gaussian graph keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Neighbors {
    /// Each node's `k` nearest neighbours (clamped to `n − 1`),
    /// symmetrized with the max rule.
    Knn(usize),
    /// Every pair within (non-squared) distance ε.
    Epsilon(f64),
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
struct Builder<'a> {
    n: usize,
    neighbors: Neighbors,
    bandwidth: &'a Bandwidth,
    /// Selector width: enough for the k-NN edges and the self-tuning rank.
    kk: usize,
    /// `n × kk` selector slots, row-major.
    slots: Vec<(f64, usize)>,
    /// Running `Σ sqrt(d_ij)` over `i < j`, row-major; `None` when the
    /// bandwidth does not need the mean.
    mean_sum: Option<f64>,
    /// ε graphs: the upper triangle's kept `(j, d)` per row, in CSR form.
    upper_ptr: Vec<usize>,
    upper: Vec<(usize, f64)>,
}

impl<'a> Builder<'a> {
    fn new(n: usize, neighbors: Neighbors, bandwidth: &'a Bandwidth) -> Self {
        match neighbors {
            Neighbors::Knn(k) => assert!(k >= 1, "knn_affinity: k must be >= 1"),
            Neighbors::Epsilon(eps) => assert!(
                eps > 0.0 && eps.is_finite(),
                "epsilon_affinity: need a positive finite epsilon, got {eps}"
            ),
        }
        if let Bandwidth::Global(sigma) = bandwidth {
            assert!(*sigma > 0.0, "gaussian_affinity: Global bandwidth must be positive, got {sigma}");
        }
        let rank = match bandwidth {
            Bandwidth::SelfTuning { k } => (*k).max(1),
            _ => 0,
        };
        let edges = match neighbors {
            Neighbors::Knn(k) => k,
            Neighbors::Epsilon(_) => 0,
        };
        let kk = edges.max(rank).min(n.saturating_sub(1));
        let needs_mean = !matches!(bandwidth, Bandwidth::Global(_));
        Builder {
            n,
            neighbors,
            bandwidth,
            kk,
            slots: vec![EMPTY; n * kk],
            mean_sum: needs_mean.then_some(0.0),
            upper_ptr: vec![0],
            upper: Vec::new(),
        }
    }

    /// Absorbs the distances of rows `[lo, hi)` against columns `[lo, n)`:
    /// `tile[r·ld + c]` is the distance between `lo + r` and `lo + c`.
    /// Blocks must arrive in ascending order, covering every row once.
    fn absorb(&mut self, threads: usize, lo: usize, hi: usize, tile: &[f64], ld: usize) {
        let (n, kk) = (self.n, self.kk);
        if kk > 0 {
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
        for r in 0..hi - lo {
            let i = lo + r;
            let above = &tile[r * ld + (i + 1 - lo)..r * ld + (n - lo)];
            if let Some(sum) = self.mean_sum.as_mut() {
                for &d in above {
                    *sum += d.sqrt();
                }
            }
            if let Neighbors::Epsilon(eps) = self.neighbors {
                let eps_sq = eps * eps;
                let kept = above.iter().enumerate().filter(|&(_, &d)| d <= eps_sq);
                self.upper.extend(kept.map(|(c, &d)| (i + 1 + c, d)));
                self.upper_ptr.push(self.upper.len());
            }
        }
    }

    /// The kept `(distance, index)` pairs of row `i`, ascending.
    fn kept(&self, i: usize) -> &[(f64, usize)] {
        &self.slots[i * self.kk..(i + 1) * self.kk]
    }

    fn kernel(&self) -> Kernel {
        let n = self.n;
        let mean = match self.mean_sum {
            Some(sum) if n >= 2 => sum / (n * (n - 1) / 2) as f64,
            _ => 1.0,
        };
        match self.bandwidth {
            Bandwidth::Global(sigma) => Kernel::Global(2.0 * sigma * sigma),
            Bandwidth::MeanDistance => {
                let sigma = mean.max(f64::MIN_POSITIVE);
                Kernel::Global(2.0 * sigma * sigma)
            }
            Bandwidth::SelfTuning { k } => {
                let rank = (*k).min(n.saturating_sub(1)).saturating_sub(1);
                let floor = 1e-8 * mean.max(1.0);
                Kernel::Local(
                    (0..n)
                        .map(|i| if n < 2 { 1.0 } else { self.kept(i)[rank].0.sqrt().max(floor) })
                        .collect(),
                )
            }
        }
    }

    /// Gaussian weights on the kept edges as CSR: k-NN rows symmetrized
    /// with the max rule, the ε graph's upper triangle mirrored.
    fn finish(self) -> CsrMatrix {
        let n = self.n;
        let kernel = self.kernel();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        match self.neighbors {
            Neighbors::Knn(k) => {
                let k = k.min(n.saturating_sub(1));
                entries.reserve(n * k);
                for i in 0..n {
                    let start = entries.len();
                    for &(d, j) in &self.kept(i)[..k] {
                        let w = kernel.weight(i, j, d);
                        if w != 0.0 {
                            entries.push((j, w));
                        }
                    }
                    entries[start..].sort_unstable_by_key(|e| e.0);
                    row_ptr.push(entries.len());
                }
            }
            Neighbors::Epsilon(_) => {
                for i in 0..n {
                    let row = &self.upper[self.upper_ptr[i]..self.upper_ptr[i + 1]];
                    let weighted = row.iter().map(|&(j, d)| (j, kernel.weight(i, j, d)));
                    entries.extend(weighted.filter(|e| e.1 != 0.0));
                    row_ptr.push(entries.len());
                }
            }
        }
        let (col_idx, values) = entries.into_iter().unzip();
        let w = CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values);
        match self.neighbors {
            Neighbors::Knn(_) => w.symmetrize_max(),
            Neighbors::Epsilon(_) => w.mirror_upper(),
        }
    }
}

/// Sparse Gaussian k-NN or ε graph of the rows of `x`, streamed through
/// upper-triangular distance tiles (see the module docs). Equal, entry for
/// entry, to [`crate::knn_affinity`] / [`crate::epsilon_affinity`] on the
/// full distance matrix of `x` under `metric`. Large inputs are threaded;
/// see [`neighbor_graph_with_threads`].
///
/// # Panics
/// Panics if a k-NN `k` is 0, an ε is not positive and finite, or a
/// `Global` bandwidth is not positive.
pub fn neighbor_graph(x: &Matrix, metric: Metric, neighbors: Neighbors, bandwidth: &Bandwidth) -> CsrMatrix {
    neighbor_graph_with_threads(default_threads(x.rows()), x, metric, neighbors, bandwidth)
}

/// [`neighbor_graph`] with an explicit thread count. Threads split each
/// tile's rows, and the selectors, into disjoint sets; the mean sum stays
/// sequential, so the output is bitwise-identical for every thread count.
pub fn neighbor_graph_with_threads(
    threads: usize,
    x: &Matrix,
    metric: Metric,
    neighbors: Neighbors,
    bandwidth: &Bandwidth,
) -> CsrMatrix {
    let n = x.rows();
    let norms = metric.row_norms(x);
    let mut b = Builder::new(n, neighbors, bandwidth);
    let mut tile = vec![0.0; TILE_ROWS.min(n) * n];
    for lo in (0..n).step_by(TILE_ROWS) {
        let hi = (lo + TILE_ROWS).min(n);
        let ld = n - lo;
        {
            let _span = umsc_obs::span!("graph.distances");
            umsc_rt::par::parallel_chunks_mut_with(threads, &mut tile[..(hi - lo) * ld], ld, |r, row| {
                tile_row(x, lo + r, lo, row, |i, j, g| metric.distance_from_gram(norms[i], norms[j], g));
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
pub(crate) fn affinity_from_distances(dist_sq: &Matrix, neighbors: Neighbors, bandwidth: &Bandwidth) -> CsrMatrix {
    let n = dist_sq.rows();
    let mut b = Builder::new(n, neighbors, bandwidth);
    b.absorb(default_threads(n), 0, n, dist_sq.as_slice(), n);
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
