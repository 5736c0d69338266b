//! Counting-allocator proof that every operator node is allocation-free
//! once warm: after one apply at a given shape (which sizes any internal
//! scratch), repeated applies must not touch the heap at all.
//!
//! Threads are pinned to one (`with_threads(1, ..)`): spawning workers
//! allocates stacks, and the counters are thread-local — the point here
//! is the nodes' own memory behavior, not the runtime's.

use umsc_op::{CsrMatrix, DenseOp, DiagShift, LinOp, LowRankAnchor, WeightedSum};
use umsc_rt::alloc_track::{measure, CountingAlloc};
use umsc_rt::par::with_threads;
use umsc_rt::Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn random(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::from_seed(seed);
    (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

fn random_csr(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng::from_seed(seed);
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for _ in 0..n {
        let mut cols: Vec<usize> = (0..per_row).map(|_| rng.gen_range(0..n)).collect();
        cols.sort_unstable();
        cols.dedup();
        for j in cols {
            col_idx.push(j);
            values.push(rng.gen_range_f64(-1.0, 1.0));
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
}

/// Warm the op at both shapes, then assert zero allocations across
/// repeated vector and block applies.
fn assert_warm_applies_are_alloc_free(op: &dyn LinOp, label: &str) {
    let n = op.dim();
    let k = 4;
    let x = random(n, 1);
    let xb = random(n * k, 2);
    let mut y = vec![0.0; n];
    let mut yb = vec![0.0; n * k];

    op.apply_into(&x, &mut y);
    op.apply_block_into(&xb, k, &mut yb);

    let stats = measure(|| {
        for _ in 0..3 {
            op.apply_into(&x, &mut y);
            op.apply_block_into(&xb, k, &mut yb);
        }
    });
    assert_eq!(
        stats.allocations, 0,
        "{label}: warm applies touched the heap {} times",
        stats.allocations
    );
}

#[test]
fn all_nodes_are_allocation_free_once_warm() {
    with_threads(1, || {
        let n = 60;
        let m = 9;

        let dense = random(n * n, 10);
        assert_warm_applies_are_alloc_free(&DenseOp::new(n, &dense), "DenseOp");

        assert_warm_applies_are_alloc_free(&random_csr(n, 6, 11), "CsrMatrix");

        let z = random(n * m, 12);
        assert_warm_applies_are_alloc_free(&LowRankAnchor::new(n, m, &z), "LowRankAnchor");

        // A composed operator: σI − Σ_v w_v A_v over CSR views.
        let views: Vec<CsrMatrix> = (0..3).map(|v| random_csr(n, 5, 20 + v)).collect();
        let fused = WeightedSum::with_weights(views.iter().collect(), &[0.3, 0.5, 0.2]);
        assert_warm_applies_are_alloc_free(&DiagShift::new(2.0, &fused), "DiagShift(WeightedSum)");
    })
}
