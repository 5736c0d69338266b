//! Std-only data parallelism over scoped threads, and the workspace's one
//! thread policy.
//!
//! The workspace's hot kernels (row products, distance tiles, per-view
//! graph construction, k-means assignment sweeps, the anchor build) are
//! all embarrassingly parallel over rows / items / views. This module
//! gives them one shared vocabulary and decides every thread count:
//!
//! 1. **Determinism.** Work is partitioned into *contiguous* blocks; each
//!    block is computed independently (no shared accumulators, no
//!    reduction-order dependence) and results are reassembled in index
//!    order. A kernel threaded through here is therefore bitwise-identical
//!    to its sequential execution — asserted by tests next to each kernel.
//! 2. **One gate.** A kernel asks [`threads_for`] with its estimated flop
//!    count: all [`max_threads`] past 2¹⁸ flops, one thread below.
//!    [`max_threads`] is `std::thread::available_parallelism`, overridable
//!    with the `UMSC_THREADS` environment variable (read once per process).
//! 3. **One level of parallelism.** Every thread a `parallel_*` call
//!    spawns marks itself as a worker. Inside a worker, [`threads_for`]
//!    returns 1 and every `parallel_*` call runs inline, so a call never
//!    has more than its own thread count of threads working, however its
//!    kernels nest (e.g. per-view graphs mapped over views, each graph
//!    threaded over rows when built alone). Threads are scoped
//!    (`std::thread::scope`), so borrows of the caller's data need no
//!    `'static` bounds and panics propagate at the join.
//! 4. **One override.** [`with_threads`] pins the thread count of every
//!    gated call its closure makes on the calling thread, gate or no gate:
//!    the determinism tests force parallelism on small inputs and
//!    single-core machines with it, the allocation tests force one thread,
//!    and an operator whose apply is two products runs both on the one
//!    count gated on the whole apply.
//!
//! A call that spawns two threads costs 78–87 µs (measured on 2 cores),
//! which is what the gate pays for.

use std::cell::Cell;
use std::sync::OnceLock;

/// Estimated flop count from which [`threads_for`] engages every thread.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set on every thread a `parallel_*` call spawns.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The thread count pinned by the innermost [`with_threads`].
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker cap: the `UMSC_THREADS` environment variable if set to a
/// positive integer, otherwise `std::thread::available_parallelism()`
/// (1 if unknown).
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("UMSC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Thread count for a job of `flops` floating-point operations: 1 inside
/// a worker, the [`with_threads`] pin if one is in force, otherwise all
/// [`max_threads`] from 2¹⁸ flops and 1 below. Every threaded kernel of
/// the workspace asks here.
pub fn threads_for(flops: usize) -> usize {
    if IN_WORKER.get() {
        1
    } else if let Some(t) = PINNED.get() {
        t
    } else if flops >= PAR_FLOP_THRESHOLD {
        max_threads()
    } else {
        1
    }
}

/// Runs `f` with [`threads_for`] pinned to `threads` (at least 1) on this
/// thread. The previous pin is restored when `f` returns or panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.set(self.0);
        }
    }
    let _restore = Restore(PINNED.replace(Some(threads.max(1))));
    f()
}

/// Threads a call over `units` work units gets: `threads` clamped to
/// `1..=units`, and 1 inside a worker.
fn team(threads: usize, units: usize) -> usize {
    if IN_WORKER.get() {
        1
    } else {
        threads.max(1).min(units)
    }
}

/// `(0..n).map(f)` on up to `threads` threads (`<= 1`, or inside a
/// worker, runs inline), results in index order.
pub fn parallel_map_range_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let t = team(threads, n);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let block = n.div_ceil(t);
    let mut out: Vec<U> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..t)
            .map(|ti| {
                let lo = ti * block;
                let hi = ((ti + 1) * block).min(n);
                s.spawn(move || {
                    IN_WORKER.set(true);
                    (lo..hi).map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel_map worker panicked"));
        }
    });
    out
}

/// Maps `f` over a slice on up to `threads` threads, results in input
/// order. `f` receives `(index, &item)`.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_range_with(threads, items.len(), |i| f(i, &items[i]))
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (last
/// chunk may be shorter) and calls `f(chunk_index, chunk)` for each, on up
/// to `threads` threads (`<= 1`, or inside a worker, runs inline). Chunks
/// are assigned to threads in contiguous runs, so a chunk is always
/// processed whole by one thread.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn parallel_chunks_mut_with<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let t = team(threads, n_chunks.max(1));
    if t <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    // Hand each thread a contiguous run of whole chunks.
    let chunks_per_thread = n_chunks.div_ceil(t);
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = data;
        let mut next_chunk = 0usize;
        while !rest.is_empty() {
            let take = (chunks_per_thread * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let first_chunk = next_chunk;
            next_chunk += head.len().div_ceil(chunk_len);
            s.spawn(move || {
                IN_WORKER.set(true);
                for (k, c) in head.chunks_mut(chunk_len).enumerate() {
                    f(first_chunk + k, c);
                }
            });
        }
    });
}

/// Reusable grow-only scratch buffer (the operator nodes' staging areas).
///
/// [`PanelBuf::ensure`] allocates at the first (largest) request and
/// reuses the buffer for every later one, so repeated use costs no further
/// heap traffic. Contents are *not* zeroed between uses — callers
/// overwrite every slot they read back.
#[derive(Debug, Default)]
pub struct PanelBuf {
    buf: Vec<f64>,
}

impl PanelBuf {
    /// An empty buffer (no allocation until the first [`PanelBuf::ensure`]).
    pub fn new() -> Self {
        PanelBuf { buf: Vec::new() }
    }

    /// Returns a mutable slice of exactly `len` elements, growing the
    /// backing storage only when the current capacity is insufficient.
    pub fn ensure(&mut self, len: usize) -> &mut [f64] {
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }

    /// Current backing capacity in elements (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_buf_grows_once_and_reuses() {
        let mut p = PanelBuf::new();
        assert_eq!(p.capacity(), 0);
        {
            let s = p.ensure(128);
            assert_eq!(s.len(), 128);
            s[0] = 1.0;
            s[127] = 2.0;
        }
        // Smaller request reuses the same storage (no shrink).
        let s = p.ensure(16);
        assert_eq!(s.len(), 16);
        assert_eq!(s[0], 1.0, "contents persist across ensure calls");
        assert_eq!(p.capacity(), 128);
        // Larger request grows.
        assert_eq!(p.ensure(200).len(), 200);
        assert_eq!(p.capacity(), 200);
    }

    #[test]
    fn map_range_matches_sequential_for_all_thread_counts() {
        let expect: Vec<u64> = (0..103).map(|i| (i as u64).wrapping_mul(0x9E37).rotate_left(13)).collect();
        for t in [1, 2, 3, 4, 7, 16, 200] {
            let got = parallel_map_range_with(t, 103, |i| (i as u64).wrapping_mul(0x9E37).rotate_left(13));
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn map_range_edge_sizes() {
        assert_eq!(parallel_map_range_with(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_range_with(4, 1, |i| i * 2), vec![0]);
        assert_eq!(parallel_map_range_with(1, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_preserves_order_and_passes_indices() {
        let items: Vec<i32> = (0..57).map(|i| i - 20).collect();
        for t in [1, 2, 5, 64] {
            let got = parallel_map_with(t, &items, |i, &v| (i, v * 3));
            assert_eq!(got.len(), 57);
            for (i, &(gi, gv)) in got.iter().enumerate() {
                assert_eq!(gi, i);
                assert_eq!(gv, items[i] * 3);
            }
        }
    }

    #[test]
    fn chunks_mut_visits_every_chunk_exactly_once() {
        for (len, chunk) in [(100, 7), (100, 100), (100, 1), (5, 8), (96, 8)] {
            for t in [1, 2, 3, 4, 9] {
                let mut data = vec![0usize; len];
                parallel_chunks_mut_with(t, &mut data, chunk, |ci, c| {
                    for (off, v) in c.iter_mut().enumerate() {
                        *v = ci * chunk + off + 1;
                    }
                });
                let expect: Vec<usize> = (1..=len).collect();
                assert_eq!(data, expect, "len {len} chunk {chunk} threads {t}");
            }
        }
    }

    #[test]
    fn chunks_mut_empty_slice_is_noop() {
        let mut data: Vec<f64> = Vec::new();
        parallel_chunks_mut_with(4, &mut data, 3, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn chunks_mut_zero_chunk_panics() {
        parallel_chunks_mut_with(2, &mut [1, 2, 3], 0, |_, _| {});
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_range_with(4, 8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn gate_engages_every_thread_at_the_threshold() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PAR_FLOP_THRESHOLD - 1), 1);
        assert_eq!(threads_for(PAR_FLOP_THRESHOLD), max_threads());
    }

    #[test]
    fn gated_call_inside_a_worker_sees_one_thread() {
        let seen = parallel_map_range_with(2, 2, |_| threads_for(usize::MAX));
        assert_eq!(seen, vec![1, 1]);
        // A pin on the caller does not reach its workers.
        let seen = with_threads(4, || {
            let mut seen = vec![0; 3];
            parallel_chunks_mut_with(3, &mut seen, 1, |_, s| s[0] = threads_for(usize::MAX));
            seen
        });
        assert_eq!(seen, vec![1, 1, 1]);
    }

    #[test]
    fn nested_map_uses_at_most_t_distinct_threads() {
        use std::collections::HashSet;
        use std::thread::{current, ThreadId};
        for t in [2, 3] {
            let ids: Vec<Vec<ThreadId>> =
                parallel_map_range_with(t, 6, |_| parallel_map_range_with(t, 6, |_| current().id()));
            let distinct: HashSet<ThreadId> = ids.into_iter().flatten().collect();
            assert!(distinct.len() <= t, "{} threads worked for a {t}-thread call", distinct.len());
            let mut rows = vec![None; 6];
            parallel_chunks_mut_with(t, &mut rows, 1, |_, row| {
                let mut inner = [None; 4];
                parallel_chunks_mut_with(t, &mut inner, 1, |_, v| v[0] = Some(current().id()));
                assert!(inner.iter().all(|&id| id == Some(current().id())), "nested call left its worker");
                row[0] = Some(current().id());
            });
            assert!(rows.iter().flatten().collect::<HashSet<_>>().len() <= t);
        }
    }

    #[test]
    fn with_threads_overrides_the_gate() {
        assert_eq!(threads_for(1), 1);
        with_threads(3, || {
            assert_eq!(threads_for(1), 3, "below the gate");
            assert_eq!(threads_for(usize::MAX), 3, "past the gate");
        });
        with_threads(0, || assert_eq!(threads_for(usize::MAX), 1, "pins at least one thread"));
    }

    #[test]
    fn with_threads_restores_the_previous_pin_after_return_and_panic() {
        with_threads(5, || {
            assert_eq!(with_threads(2, || threads_for(1)), 2);
            assert_eq!(threads_for(1), 5, "after a return");
            let caught = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(threads_for(1), 5, "after a panic");
        });
        assert_eq!(threads_for(1), 1);
        assert_eq!(threads_for(usize::MAX), max_threads());
    }
}
