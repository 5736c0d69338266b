//! Matrix-free linear operators — the common currency between the
//! linalg, graph, and solver layers.
//!
//! The one-stage solver and both eigensolvers only ever need the fused
//! Laplacian through its action `x ↦ A·x`; nothing downstream requires
//! the `n × n` entries themselves. This crate makes that observation a
//! first-class abstraction: [`LinOp`] is the action. It also owns the
//! workspace's one sparse storage type, [`CsrMatrix`]: graphs,
//! Laplacians, the fused Laplacian and the anchor factors are all CSR
//! matrices, and a square one is a [`LinOp`] itself. The fits' two
//! operators (in `umsc-core`) never materialize an `n × n` matrix: one
//! CSR `Σ_v w_v L_v` for Laplacian views, and `−Σ_v w_v B_v B_vᵀ` for the
//! anchor path as `B̂·diag(−w ⊗ 1_m)·B̂ᵀ` over one stacked factor
//! `B̂ = [B_1 … B_V]` ([`SparseFactor::hstack`]). Anchor factors are
//! [`SparseFactor`]s: an `n × m` [`CsrMatrix`] with `k` nonzeros per row
//! plus its transpose. The other nodes ([`DenseOp`], [`DiagShift`],
//! [`WeightedSum`], [`LowRankAnchor`]) wrap dense storage or other
//! operators and compose reference operators for tests and benchmarks.
//!
//! # Kernel discipline
//!
//! Every `A·X` product in the workspace runs one of two row kernels,
//! [`dense_rows_into`] or [`csr_rows_into`] (`Matrix::matmul*` and the
//! anchor factors call them too), and every node follows three rules:
//!
//! * **Parallel past the flop gate.** Applies thread via [`umsc_rt::par`]
//!   once [`umsc_rt::par::threads_for`] says the estimated flop count pays
//!   for the spawn (a 2-thread call costs 78–87 µs on 2 cores); below it
//!   they run inline, and so does an apply made inside a `par` worker.
//! * **Bitwise identity.** Work is partitioned so that every output
//!   element is accumulated in the same order (ascending index, from an
//!   exact `0.0`) regardless of thread count. Parallel results are
//!   bitwise-identical to the sequential reference — asserted by the
//!   crate's tests for every node.
//! * **Allocation-free once warm.** Nodes that need scratch own a
//!   grow-only [`umsc_rt::par::PanelBuf`] behind a `RefCell` (applies
//!   take `&self`); after the first apply at a given shape, repeated
//!   applies never touch the heap. Verified by the counting-allocator
//!   test in `tests/alloc_free.rs`.

use std::cell::RefCell;

use umsc_rt::par::PanelBuf;

mod compose;
mod dense;
mod lowrank;
mod sparse;

pub use compose::{DiagShift, WeightedSum};
pub use dense::{dense_rows_into, DenseOp};
pub use lowrank::{LowRankAnchor, SparseFactor};
pub use sparse::{csr_rows_into, CsrMatrix};

/// Elementwise map over `y` (with the element's index), threaded past
/// the flop gate. Every element is computed independently, so the result
/// is bitwise-identical for any thread count.
pub(crate) fn map_indexed_gated(flops: usize, y: &mut [f64], f: impl Fn(usize, &mut f64) + Sync) {
    if y.is_empty() {
        return;
    }
    let threads = umsc_rt::par::threads_for(flops);
    let chunk = y.len().div_ceil(threads.max(1));
    umsc_rt::par::parallel_chunks_mut_with(threads, y, chunk, |ci, ych| {
        let base = ci * chunk;
        for (off, v) in ych.iter_mut().enumerate() {
            f(base + off, v);
        }
    });
}

/// Internal scratch: a grow-only panel behind a `RefCell` so that
/// `apply` methods taking `&self` can reuse it. Reallocation only ever
/// happens when an apply needs *more* scratch than any previous one —
/// i.e. never once warm at a fixed shape.
pub(crate) type Scratch = RefCell<PanelBuf>;

pub(crate) fn new_scratch() -> Scratch {
    RefCell::new(PanelBuf::new())
}

/// A symmetric linear operator known only through its action.
///
/// # Contract
///
/// * [`dim`](LinOp::dim) is the (square) dimension `n`.
/// * [`apply_into`](LinOp::apply_into) computes `y = A·x`, **overwriting
///   every element of `y`** (callers need not and must not rely on the
///   prior contents of `y`).
/// * [`apply_block_into`](LinOp::apply_block_into) computes `Y = A·X`
///   for row-major `n × k` blocks, also overwriting `Y` entirely. The
///   provided vector apply is the one-column block.
///
/// Implementations may use interior mutability for scratch space (see
/// [`WeightedSum`], [`LowRankAnchor`]); the trait deliberately takes
/// `&self` so operators can be shared by reference through `&dyn LinOp`.
pub trait LinOp {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// `Y = A·X` for row-major `n × ncols` blocks. Overwrites `Y`.
    ///
    /// # Panics
    /// Panics if `x.len()` or `y.len()` differ from `dim() * ncols`.
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]);

    /// `y = A·x`: the one-column block. Overwrites every element of `y`.
    ///
    /// # Panics
    /// Panics if `x.len()` or `y.len()` differ from [`dim`](LinOp::dim).
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.apply_block_into(x, 1, y);
    }
}

impl<T: LinOp + ?Sized> LinOp for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply_into(x, y)
    }
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        (**self).apply_block_into(x, ncols, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The provided vector apply is the one-column block of an
    /// implementor's own block kernel.
    struct BlockOnly<'a>(DenseOp<'a>);

    impl LinOp for BlockOnly<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
            self.0.apply_block_into(x, ncols, y)
        }
        // apply_into: trait default.
    }

    #[test]
    fn default_vector_apply_is_the_one_column_block() {
        let n = 7;
        let mut rng = umsc_rt::Rng::from_seed(11);
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        let mut y0 = vec![f64::NAN; n];
        let mut y1 = vec![f64::NAN; n];
        dense_rows_into(1, &a, n, &x, 1, &mut y0);
        BlockOnly(DenseOp::new(n, &a)).apply_into(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn reference_impl_forwards() {
        fn apply_via<T: LinOp>(op: T, x: &[f64], y: &mut [f64]) -> usize {
            op.apply_into(x, y);
            op.dim()
        }
        let n = 4;
        let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let op = DenseOp::new(n, &a);
        let x = vec![1.0; n];
        let mut y0 = vec![0.0; n];
        let mut y1 = vec![0.0; n];
        op.apply_into(&x, &mut y0);
        assert_eq!(apply_via(op, &x, &mut y1), n);
        assert_eq!(y0, y1);
        let dynop: &dyn LinOp = &op;
        assert_eq!(apply_via(dynop, &x, &mut y1), n);
        assert_eq!(y0, y1);
    }
}
