//! Std-only data parallelism over scoped threads.
//!
//! The workspace's hot kernels (GEMM, pairwise distances, per-view graph
//! construction, k-means assignment sweeps) are all embarrassingly
//! parallel over rows / items / views. This module gives them one shared
//! vocabulary with two invariants:
//!
//! 1. **Determinism.** Work is partitioned into *contiguous* blocks; each
//!    block is computed independently (no shared accumulators, no
//!    reduction-order dependence) and results are reassembled in index
//!    order. A kernel threaded through here is therefore bitwise-identical
//!    to its sequential execution — asserted by tests next to each kernel.
//! 2. **Boundedness.** At most [`max_threads`] OS threads exist per call
//!    (`std::thread::available_parallelism`, overridable with the
//!    `UMSC_THREADS` environment variable, read once per process). Threads
//!    are scoped (`std::thread::scope`), so borrows of the caller's data
//!    need no `'static` bounds and panics propagate at the join.
//!
//! Thread spawn costs ~10µs; callers gate on a work-size threshold and
//! fall back to the inline path for small inputs. The `*_with` variants
//! take an explicit thread count — used by the determinism tests (forcing
//! parallelism on single-core CI) and the speedup benches.

use std::sync::OnceLock;

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

/// Worker cap for the implicit-thread-count entry points: the
/// `UMSC_THREADS` environment variable if set to a positive integer,
/// otherwise `std::thread::available_parallelism()` (1 if unknown).
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

/// `(0..n).map(f)` computed on up to [`max_threads`] threads, results in
/// index order.
pub fn parallel_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    parallel_map_range_with(max_threads(), n, f)
}

/// [`parallel_map_range`] with an explicit thread count (`threads <= 1`
/// runs inline).
pub fn parallel_map_range_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let t = threads.max(1).min(n);
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
                s.spawn(move || (lo..hi).map(f).collect::<Vec<U>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel_map worker panicked"));
        }
    });
    out
}

/// Maps `f` over a slice on up to [`max_threads`] threads, results in
/// input order. `f` receives `(index, &item)`.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with(max_threads(), items, f)
}

/// [`parallel_map`] with an explicit thread count.
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
/// to [`max_threads`] threads. Chunks are assigned to threads in
/// contiguous runs, so a chunk is always processed whole by one thread.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    parallel_chunks_mut_with(max_threads(), data, chunk_len, f)
}

/// [`parallel_chunks_mut`] with an explicit thread count.
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
    let t = threads.max(1).min(n_chunks.max(1));
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
}
