//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the single dense container used across the workspace. It is
//! deliberately simple: a `Vec<f64>` plus a shape, with the operations the
//! spectral-clustering pipeline actually needs (GEMM in the three transpose
//! flavours, transposition, column slicing, norms, Gershgorin bounds).
//!
//! Hot loops follow the `i-k-j` ordering so the innermost loop streams over
//! contiguous rows of both operands (see the Rust Performance Book's advice
//! on iteration order and bounds-check elimination via slices).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense row-major matrix of `f64`.
///
/// ```
/// use umsc_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert!(c.approx_eq(&a, 0.0));
/// assert_eq!(a.trace(), 5.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Matrix::from_rows: row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when `rows == cols`.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Entry accessor (bounds-checked).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "Matrix::get: index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry setter (bounds-checked).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "Matrix::set: index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "Matrix::row: row {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "Matrix::row_mut: row {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j`, copied into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "Matrix::col: column {j} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Overwrite column `j` with `values`.
    ///
    /// # Panics
    /// Panics if `values.len() != rows`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "Matrix::set_col: length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.data[i * self.cols + j] = v;
        }
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies columns `lo..hi` into a new `rows × (hi-lo)` matrix.
    pub fn columns(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.cols, "Matrix::columns: range {lo}..{hi} out of bounds for {} cols", self.cols);
        let w = hi - lo;
        let mut out = Matrix::zeros(self.rows, w);
        for i in 0..self.rows {
            out.data[i * w..(i + 1) * w].copy_from_slice(&self.data[i * self.cols + lo..i * self.cols + hi]);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes `selfᵀ` into `out` without allocating. Every entry of `out`
    /// is overwritten.
    ///
    /// # Panics
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "Matrix::transpose_into: out is {}x{}, expected {}x{}",
            out.rows, out.cols, self.cols, self.rows
        );
        for i in 0..self.rows {
            let r = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &v) in r.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Overwrites `self` with the contents of `other` (same shape required).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::copy_from: shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Approximate flop count below which threading a GEMM costs more than
    /// it saves (thread spawn is ~10µs; a flop is well under a ns here).
    const PAR_FLOP_THRESHOLD: usize = 1 << 18;

    /// Default row-tile height for the cache-blocked GEMM. One tile is the
    /// parallel grain: a worker owns `GEMM_TILE_I` consecutive output rows.
    const GEMM_TILE_I: usize = 32;

    /// Default column-tile width for the cache-blocked GEMM. One packed
    /// `k × GEMM_TILE_J` panel of `B` is ~`64·k` doubles, streamed through
    /// L1/L2 once per row tile instead of once per output row.
    const GEMM_TILE_J: usize = 64;

    /// Output width below which packing a `B` panel costs more than the
    /// cache locality it buys; narrower products use the plain row kernel.
    const GEMM_MIN_BLOCK_COLS: usize = 32;

    /// Candidate tile geometries swept by [`Matrix::autotune_tiles`]:
    /// the default plus neighbours trading row-tile grain (parallel
    /// granularity) against packed-panel width (L1/L2 footprint).
    pub const GEMM_TILE_CANDIDATES: [(usize, usize); 4] = [(16, 64), (32, 64), (32, 128), (64, 64)];

    /// Tile geometry used by the implicit blocked-GEMM entry points:
    /// the `UMSC_GEMM_TILES` environment variable (a [`parse_tile_spec`]
    /// string like `32x64`, or `auto` to run [`Matrix::autotune_tiles`]
    /// once; read once per process) or the built-in defaults. Tile choice
    /// never changes results — only which cache level each packed panel
    /// streams through.
    pub fn gemm_tiles() -> (usize, usize) {
        static GEMM_TILES: std::sync::OnceLock<(usize, usize)> = std::sync::OnceLock::new();
        *GEMM_TILES.get_or_init(|| match std::env::var("UMSC_GEMM_TILES").ok() {
            Some(v) if v.trim().eq_ignore_ascii_case("auto") => Self::autotune_tiles(),
            Some(v) => parse_tile_spec(&v).unwrap_or((Self::GEMM_TILE_I, Self::GEMM_TILE_J)),
            None => (Self::GEMM_TILE_I, Self::GEMM_TILE_J),
        })
    }

    /// Times one warm 256×256 blocked product per candidate geometry in
    /// [`Matrix::GEMM_TILE_CANDIDATES`] at the process's thread count and
    /// returns the fastest. `UMSC_GEMM_TILES=auto` runs this once per
    /// process (cached by [`Matrix::gemm_tiles`]); the sweep costs four
    /// warm + four timed ~33 Mflop GEMMs at startup. Because every tile
    /// geometry is bitwise-identical in output (asserted by tests), the
    /// choice is pure performance policy.
    pub fn autotune_tiles() -> (usize, usize) {
        const N: usize = 256;
        let mut a = Matrix::zeros(N, N);
        let mut b = Matrix::zeros(N, N);
        for i in 0..N {
            for j in 0..N {
                a[(i, j)] = ((i * 31 + j * 17 + 1) as f64).sin();
                b[(i, j)] = ((i * 13 + j * 29 + 2) as f64).cos();
            }
        }
        let threads = umsc_rt::par::max_threads();
        let mut best = Self::GEMM_TILE_CANDIDATES[0];
        let mut best_ns = u128::MAX;
        for &(tile_i, tile_j) in Self::GEMM_TILE_CANDIDATES.iter() {
            let _warm = a.matmul_tiled_with(threads, tile_i, tile_j, &b);
            let start = std::time::Instant::now();
            let timed = a.matmul_tiled_with(threads, tile_i, tile_j, &b);
            let ns = start.elapsed().as_nanos();
            // Fold a value back in so the timed product cannot be DCE'd.
            std::hint::black_box(timed.as_slice()[0]);
            if ns < best_ns {
                best_ns = ns;
                best = (tile_i, tile_j);
            }
        }
        best
    }

    /// Matrix product `self · other`.
    ///
    /// Large products run on up to `umsc_rt::par::max_threads()` threads
    /// through a cache-blocked, packed kernel (see [`Matrix::matmul_tiled_with`]).
    /// Every output element is accumulated in the same order as the naive
    /// sequential triple loop (`p` ascending from an exact `0.0`, with the
    /// same zero-skip branch), so the result is bitwise-identical regardless
    /// of thread count, tile size, or which kernel path runs.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let flops = 2 * self.rows * self.cols * other.cols;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        self.matmul_with_threads(t, other)
    }

    /// [`Matrix::matmul`] with an explicit thread count (`threads <= 1`
    /// runs inline; no work-size gate).
    pub fn matmul_with_threads(&self, threads: usize, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_dispatch(threads, other, &mut out);
        out
    }

    /// Writes `self · other` into `out` without allocating (beyond the
    /// kernel's thread-local packing buffers for wide products). Every
    /// entry of `out` is overwritten. Threading is gated on the same
    /// work-size threshold as [`Matrix::matmul`].
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or `out` is not
    /// `self.rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        let flops = 2 * self.rows * self.cols * other.cols;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        out.data.fill(0.0);
        self.matmul_dispatch(t, other, out);
    }

    /// Cache-blocked GEMM with explicit thread count and tile sizes — the
    /// testing/tuning hook behind [`Matrix::matmul`]. Always takes the
    /// blocked/packed path, whatever the shape.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match, or a tile size is 0.
    pub fn matmul_tiled_with(&self, threads: usize, tile_i: usize, tile_j: usize, other: &Matrix) -> Matrix {
        self.assert_matmul_shapes(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_blocked(threads, tile_i, tile_j, other, &mut out);
        out
    }

    /// Forces the naive row kernel regardless of output width: the baseline
    /// the benches compare the blocked kernel against. `threads <= 1` runs
    /// inline. Bitwise-identical to every other matmul entry point.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_naive_with(&self, threads: usize, other: &Matrix) -> Matrix {
        self.assert_matmul_shapes(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rowwise(threads, other, &mut out);
        out
    }

    fn assert_matmul_shapes(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: inner dimension mismatch ({}x{} · {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// Shared entry point for the allocating and `_into` products: checks
    /// shapes, then picks the blocked kernel for wide outputs when running
    /// threaded and the plain row kernel otherwise. The blocked kernel's win
    /// is parallel scaling over row tiles; sequentially its packing overhead
    /// costs ~20% (measured, BENCH_2.json `square_gemm`), so one-thread
    /// products stay on the row kernel. `out` must be `rows × other.cols`
    /// and zeroed.
    fn matmul_dispatch(&self, threads: usize, other: &Matrix, out: &mut Matrix) {
        self.assert_matmul_shapes(other);
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "Matrix::matmul_into: out is {}x{}, expected {}x{}",
            out.rows, out.cols, self.rows, other.cols
        );
        if threads > 1 && other.cols >= Self::GEMM_MIN_BLOCK_COLS {
            umsc_obs::counter!("gemm.blocked", 1);
            let (tile_i, tile_j) = Self::gemm_tiles();
            self.matmul_blocked(threads, tile_i, tile_j, other, out);
        } else {
            umsc_obs::counter!("gemm.rowwise", 1);
            self.matmul_rowwise(threads, other, out);
        }
    }

    /// Naive row kernel: each output row is one independent `i-k-j` sweep.
    /// Right for narrow outputs (the solver's `n × c` products) where a
    /// whole row of `B` already fits in L1 and packing would be overhead.
    fn matmul_rowwise(&self, threads: usize, other: &Matrix, out: &mut Matrix) {
        let (k, n) = (self.cols, other.cols);
        if n == 0 {
            return;
        }
        umsc_rt::par::parallel_chunks_mut_with(threads, &mut out.data, n, |i, orow| {
            let arow = &self.data[i * k..(i + 1) * k];
            for (p, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        });
    }

    /// Cache-blocked, packed GEMM kernel.
    ///
    /// The output is tiled `tile_i × tile_j`. Workers own contiguous runs of
    /// row tiles (so reassembly is trivially in order); for each column tile
    /// the worker packs the corresponding `k × jw` panel of `B` into a
    /// thread-local [`umsc_rt::par::PanelBuf`] laid out in strips of 4
    /// columns, then runs a 4-accumulator micro-kernel over the full `k`
    /// extent per output row. Keeping `k` un-tiled preserves the naive
    /// kernel's accumulation order (ascending `p` from `0.0` with the
    /// zero-skip on `a`), which is what makes the result bitwise-identical
    /// to the sequential path; the locality win comes from `i`/`j` tiling
    /// alone, which only reorders independent output elements.
    fn matmul_blocked(&self, threads: usize, tile_i: usize, tile_j: usize, other: &Matrix, out: &mut Matrix) {
        assert!(tile_i > 0 && tile_j > 0, "Matrix::matmul_blocked: tile sizes must be positive");
        let (k, n) = (self.cols, other.cols);
        if n == 0 {
            return;
        }
        let a_data = &self.data;
        let b_data = &other.data;
        umsc_rt::par::parallel_chunks_mut_with(threads, &mut out.data, tile_i * n, |tile, chunk| {
            let i0 = tile * tile_i;
            let rows_here = chunk.len() / n;
            let mut panel = umsc_rt::par::PanelBuf::new();
            let mut j0 = 0;
            while j0 < n {
                let jw = tile_j.min(n - j0);
                let p = panel.ensure(k * jw);
                pack_panel(b_data, k, n, j0, jw, p);
                for ii in 0..rows_here {
                    let arow = &a_data[(i0 + ii) * k..(i0 + ii + 1) * k];
                    let orow = &mut chunk[ii * n + j0..ii * n + j0 + jw];
                    gemm_micro_row(arow, p, jw, orow);
                }
                j0 += jw;
            }
        });
    }

    /// Matrix product `selfᵀ · other` without forming the transpose.
    ///
    /// Threaded over contiguous blocks of output rows for large products;
    /// each block repeats the sequential kernel restricted to its column
    /// slice of `self`, so accumulation order per element is unchanged and
    /// the result is bitwise-identical for any thread count.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        let flops = 2 * self.rows * self.cols * other.cols;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        self.matmul_transpose_a_with_threads(t, other)
    }

    /// [`Matrix::matmul_transpose_a`] with an explicit thread count
    /// (`threads <= 1` runs inline; no work-size gate).
    pub fn matmul_transpose_a_with_threads(&self, threads: usize, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transpose_a_impl(threads, other, &mut out);
        out
    }

    /// Writes `selfᵀ · other` into `out` without allocating. Every entry of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics if the row counts differ or `out` is not
    /// `self.cols × other.cols`.
    pub fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
        let flops = 2 * self.rows * self.cols * other.cols;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        out.data.fill(0.0);
        self.matmul_transpose_a_impl(t, other, out);
    }

    /// `out` must be `cols × other.cols` and zeroed. Each worker owns a
    /// contiguous block of output rows `ilo..ihi` and runs the `p`-outer
    /// sequential kernel reading the contiguous slice `self[p][ilo..ihi]`,
    /// so both operands stream linearly.
    fn matmul_transpose_a_impl(&self, threads: usize, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_transpose_a: row mismatch ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        assert_eq!(
            out.shape(),
            (m, n),
            "Matrix::matmul_transpose_a_into: out is {}x{}, expected {m}x{n}",
            out.rows, out.cols
        );
        if m == 0 || n == 0 {
            return;
        }
        let rows_per = m.div_ceil(threads.max(1));
        let a_data = &self.data;
        let b_data = &other.data;
        umsc_rt::par::parallel_chunks_mut_with(threads, &mut out.data, rows_per * n, |ci, chunk| {
            let ilo = ci * rows_per;
            let rows_here = chunk.len() / n;
            for p in 0..k {
                let acols = &a_data[p * m + ilo..p * m + ilo + rows_here];
                let brow = &b_data[p * n..(p + 1) * n];
                for (local, &a) in acols.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &mut chunk[local * n..(local + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            }
        });
    }

    /// Matrix product `self · otherᵀ` without forming the transpose.
    ///
    /// Threaded by output row like [`Matrix::matmul`]; bitwise-identical
    /// to the sequential loop for any thread count.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let flops = 2 * self.rows * self.cols * other.rows;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        self.matmul_transpose_b_with_threads(t, other)
    }

    /// [`Matrix::matmul_transpose_b`] with an explicit thread count.
    pub fn matmul_transpose_b_with_threads(&self, threads: usize, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_b_impl(threads, other, &mut out);
        out
    }

    /// Writes `self · otherᵀ` into `out` without allocating. Every entry of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics if the column counts differ or `out` is not
    /// `self.rows × other.rows`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        let flops = 2 * self.rows * self.cols * other.rows;
        let t = if flops >= Self::PAR_FLOP_THRESHOLD { umsc_rt::par::max_threads() } else { 1 };
        self.matmul_transpose_b_impl(t, other, out);
    }

    /// One [`abt_row`] per output row; `out` is fully overwritten.
    fn matmul_transpose_b_impl(&self, threads: usize, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_transpose_b: column mismatch ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(
            out.shape(),
            (m, n),
            "Matrix::matmul_transpose_b_into: out is {}x{}, expected {m}x{n}",
            out.rows, out.cols
        );
        if n == 0 {
            return;
        }
        let a_data = &self.data;
        let b_data = &other.data;
        umsc_rt::par::parallel_chunks_mut_with(threads, &mut out.data, n, |i, orow| {
            abt_row(&a_data[i * k..(i + 1) * k], b_data, orow);
        });
    }

    /// One block of the Gram matrix `self · selfᵀ`: for every `i` in
    /// `rows` and `j` in `cols`, writes `dot(self.row(i), self.row(j))` to
    /// `out[(i − rows.start)·ld + (j − cols.start)]`. Entries of `out`
    /// outside those positions are left untouched, so `ld` may exceed
    /// `cols.len()` (e.g. to write straight into the rows of a larger
    /// matrix). Sequential: callers thread over rows.
    ///
    /// This is the [`Matrix::matmul_transpose_b`] kernel on row ranges:
    /// every entry is the same ascending-`k` dot product, and because
    /// products commute term by term the block holding `(i, j)` and the
    /// one holding `(j, i)` agree bitwise. That lets symmetric consumers
    /// (pairwise distances, kNN graphs) compute only the upper triangle.
    ///
    /// # Panics
    /// Panics if a range exceeds `self.rows()`, `ld < cols.len()`, or
    /// `out` is too short for `rows.len()` rows of stride `ld`.
    pub fn gram_block_into(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>, out: &mut [f64], ld: usize) {
        assert!(
            rows.end <= self.rows && cols.end <= self.rows,
            "Matrix::gram_block_into: ranges {rows:?}, {cols:?} exceed {} rows",
            self.rows
        );
        let (m, w, k) = (rows.len(), cols.len(), self.cols);
        assert!(ld >= w, "Matrix::gram_block_into: ld {ld} < block width {w}");
        if m == 0 || w == 0 {
            return;
        }
        let need = (m - 1) * ld + w;
        assert!(out.len() >= need, "Matrix::gram_block_into: out holds {} < {need} entries", out.len());
        let b_data = &self.data[cols.start * k..cols.end * k];
        for (r, i) in rows.enumerate() {
            abt_row(&self.data[i * k..(i + 1) * k], b_data, &mut out[r * ld..r * ld + w]);
        }
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Writes `self · x` into `y` without allocating. Every entry of `y`
    /// is overwritten.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.cols, x.len(), "Matrix::matvec: dimension mismatch");
        assert_eq!(self.rows, y.len(), "Matrix::matvec_into: output length mismatch");
        if self.cols == 0 {
            y.fill(0.0);
            return;
        }
        for (yi, r) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *yi = dot(r, x);
        }
    }

    /// `selfᵀ · x` without forming the transpose.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "Matrix::matvec_transpose: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, r) in self.rows_iter().enumerate() {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &v) in out.iter_mut().zip(r.iter()) {
                *o += xi * v;
            }
        }
        out
    }

    /// In-place scaling by `s`.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy `s · self`.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// `self += s · other` (AXPY on the whole matrix).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, s: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Applies `f` to every entry, in place.
    pub fn map_mut(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a copy with `f` applied to every entry.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_mut(f);
        out
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "Matrix::trace: matrix is {}x{}, not square", self.rows, self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Largest asymmetry `max |a_ij − a_ji|` (0 for non-square or empty).
    pub fn max_asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                m = m.max((self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs());
            }
        }
        m
    }

    /// True when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Replaces the matrix with `(A + Aᵀ)/2`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "Matrix::symmetrize_mut: matrix is not square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let a = self.data[i * self.cols + j];
                let b = self.data[j * self.cols + i];
                let m = 0.5 * (a + b);
                self.data[i * self.cols + j] = m;
                self.data[j * self.cols + i] = m;
            }
        }
    }

    /// True when every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Gershgorin upper bound on the largest eigenvalue of a symmetric
    /// matrix: `max_i (a_ii + Σ_{j≠i} |a_ij|)`.
    ///
    /// Used by the GPI Stiefel solver to pick a safe shift `η ≥ λ_max`.
    pub fn gershgorin_upper_bound(&self) -> f64 {
        assert!(self.is_square(), "gershgorin_upper_bound: matrix is not square");
        let mut bound = f64::NEG_INFINITY;
        for i in 0..self.rows {
            let row = self.row(i);
            let radius: f64 = row
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            bound = bound.max(row[i] + radius);
        }
        if bound.is_finite() {
            bound
        } else {
            0.0
        }
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "Matrix::hstack: row count mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.data[i * cols..i * cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * cols + self.cols..(i + 1) * cols].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation `[self ; other]`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "Matrix::vstack: column count mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `orow[j] = dot(arow, B[j])` for the rows `B[j]` of the row-major
/// `b_data` (`orow.len()` rows of `arow.len()` columns). Each entry is an
/// independent ascending-`k` dot product, so walking four `B` rows at once
/// (better ILP, `B` rows hot in L1 across the group) changes nothing
/// bitwise versus the one-row-at-a-time loop.
fn abt_row(arow: &[f64], b_data: &[f64], orow: &mut [f64]) {
    let k = arow.len();
    let n = orow.len();
    let mut j = 0;
    while j + 4 <= n {
        let b0 = &b_data[j * k..(j + 1) * k];
        let b1 = &b_data[(j + 1) * k..(j + 2) * k];
        let b2 = &b_data[(j + 2) * k..(j + 3) * k];
        let b3 = &b_data[(j + 3) * k..(j + 4) * k];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((((&a, &x0), &x1), &x2), &x3) in
            arow.iter().zip(b0.iter()).zip(b1.iter()).zip(b2.iter()).zip(b3.iter())
        {
            a0 += a * x0;
            a1 += a * x1;
            a2 += a * x2;
            a3 += a * x3;
        }
        orow[j] = a0;
        orow[j + 1] = a1;
        orow[j + 2] = a2;
        orow[j + 3] = a3;
        j += 4;
    }
    for (jj, o) in orow.iter_mut().enumerate().skip(j) {
        *o = dot(arow, &b_data[jj * k..(jj + 1) * k]);
    }
}

/// Packs the `k × jw` panel `B[0..k][j0..j0+jw]` into `panel`, laid out as
/// strips of 4 columns: strip `s` occupies `panel[s·4k..(s+1)·4k]` with the
/// 4 values of row `p` adjacent at offset `4p`. A final partial strip of
/// `jw % 4` columns follows the same scheme with width `jw % 4`. Packing
/// only copies values, so it cannot perturb the arithmetic downstream.
fn pack_panel(b: &[f64], k: usize, n: usize, j0: usize, jw: usize, panel: &mut [f64]) {
    let strips = jw / 4;
    let rem = jw % 4;
    for (p, brow) in b.chunks_exact(n.max(1)).take(k).enumerate() {
        let brow = &brow[j0..j0 + jw];
        for (s, quad) in brow.chunks_exact(4).enumerate() {
            panel[s * 4 * k + p * 4..s * 4 * k + p * 4 + 4].copy_from_slice(quad);
        }
        if rem > 0 {
            let base = strips * 4 * k + p * rem;
            panel[base..base + rem].copy_from_slice(&brow[strips * 4..]);
        }
    }
}

/// Micro-kernel: one output row against one packed panel. For each 4-column
/// strip, four register accumulators run the full-`k` loop in ascending `p`
/// order starting from exact `0.0`, with the same `a == 0.0` skip as the
/// naive kernel — so each of the four columns sees precisely the operation
/// sequence of the sequential triple loop, just interleaved across
/// independent accumulators. Stores overwrite `orow` (which the callers
/// pre-zero), matching the naive kernel's `0.0 + Σ` memory accumulation.
fn gemm_micro_row(arow: &[f64], panel: &[f64], jw: usize, orow: &mut [f64]) {
    let k = arow.len();
    let strips = jw / 4;
    let rem = jw % 4;
    for s in 0..strips {
        let strip = &panel[s * 4 * k..(s + 1) * 4 * k];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (&a, quad) in arow.iter().zip(strip.chunks_exact(4)) {
            if a == 0.0 {
                continue;
            }
            a0 += a * quad[0];
            a1 += a * quad[1];
            a2 += a * quad[2];
            a3 += a * quad[3];
        }
        let o = &mut orow[s * 4..s * 4 + 4];
        o[0] = a0;
        o[1] = a1;
        o[2] = a2;
        o[3] = a3;
    }
    if rem > 0 {
        let strip = &panel[strips * 4 * k..strips * 4 * k + rem * k];
        let mut acc = [0.0f64; 4];
        for (&a, part) in arow.iter().zip(strip.chunks_exact(rem)) {
            if a == 0.0 {
                continue;
            }
            for (t, &b) in part.iter().enumerate() {
                acc[t] += a * b;
            }
        }
        for (o, &v) in orow[strips * 4..].iter_mut().zip(acc.iter()) {
            *o = v;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "Matrix index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "Matrix index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "Matrix add: shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "Matrix sub: shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

/// Parses a blocked-GEMM tile spec of the form `MRxNC` (row-tile ×
/// column-tile, e.g. `32x64`; the separator is `x` or `X`, surrounding
/// whitespace is ignored). Returns `None` unless both sides are positive
/// integers. This is the format of the `UMSC_GEMM_TILES` environment
/// variable — see [`Matrix::gemm_tiles`].
pub fn parse_tile_spec(spec: &str) -> Option<(usize, usize)> {
    let (i, j) = spec.trim().split_once(['x', 'X'])?;
    let tile_i = i.trim().parse::<usize>().ok()?;
    let tile_j = j.trim().parse::<usize>().ok()?;
    if tile_i == 0 || tile_j == 0 {
        return None;
    }
    Some((tile_i, tile_j))
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for (i, row) in self.rows_iter().take(max_rows).enumerate() {
            write!(f, "  row {i}: [")?;
            for (j, v) in row.iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);

        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);

        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f[(1, 0)], 10.0);

        assert!(Matrix::zeros(0, 0).is_empty());
        assert!(!a23().is_square());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn row_col_access() {
        let m = a23();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        let mut m = m;
        m.set_col(0, &[9.0, 8.0]);
        assert_eq!(m[(0, 0)], 9.0);
        assert_eq!(m[(1, 0)], 8.0);
        m.row_mut(0)[1] = -1.0;
        assert_eq!(m.get(0, 1), -1.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = a23();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = a23();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert!(c.approx_eq(&Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]), 1e-12));
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = a23();
        let b = Matrix::from_vec(2, 4, (0..8).map(|v| v as f64 - 3.0).collect());
        // AᵀB via explicit transpose vs fused.
        let expected = a.transpose().matmul(&b);
        assert!(a.matmul_transpose_a(&b).approx_eq(&expected, 1e-12));
        // ABᵀ via explicit transpose vs fused.
        let c = Matrix::from_vec(5, 3, (0..15).map(|v| (v as f64).sin()).collect());
        let expected = a.matmul(&c.transpose());
        assert!(a.matmul_transpose_b(&c).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gram_blocks_match_full_gram_bitwise() {
        let x = Matrix::from_fn(23, 5, |i, j| ((i * 7 + j * 3) as f64).sin() * (i as f64 - 9.5));
        let full = x.matmul_transpose_b_with_threads(1, &x);
        for (rows, cols) in [(0..23, 0..23), (4..9, 4..23), (17..23, 0..6), (3..3, 0..5), (5..6, 22..23)] {
            // Stride wider than the block: the gaps must stay untouched.
            let ld = cols.len() + 3;
            let mut out = vec![f64::NAN; rows.len() * ld];
            x.gram_block_into(rows.clone(), cols.clone(), &mut out, ld);
            for (r, i) in rows.clone().enumerate() {
                for (c, j) in cols.clone().enumerate() {
                    assert_eq!(out[r * ld + c].to_bits(), full[(i, j)].to_bits(), "({i},{j})");
                    assert_eq!(out[r * ld + c].to_bits(), full[(j, i)].to_bits(), "({j},{i})");
                }
                assert!(out[r * ld + cols.len()..(r + 1) * ld].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = a23();
        let x = vec![1.0, -2.0, 0.5];
        let y = a.matvec(&x);
        assert_eq!(y, vec![1.0 - 4.0 + 1.5, 4.0 - 10.0 + 3.0]);
        let yt = a.matvec_transpose(&[2.0, -1.0]);
        assert_eq!(yt, vec![2.0 - 4.0, 4.0 - 5.0, 6.0 - 6.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 3.0);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 4.0);
        assert_eq!(s[(0, 1)], 3.0);
        let d = &s - &b;
        assert!(d.approx_eq(&a, 0.0));
        let n = -&a;
        assert_eq!(n[(1, 1)], -1.0);
        let sc = &a * 2.5;
        assert_eq!(sc[(0, 0)], 2.5);
        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn norms_and_trace() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.trace(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn symmetry_helpers() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 4.0, 1.0]);
        assert!(!m.is_symmetric(1e-9));
        assert_eq!(m.max_asymmetry(), 2.0);
        m.symmetrize_mut();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(a23().max_asymmetry(), f64::INFINITY);
    }

    #[test]
    fn columns_slice() {
        let m = a23();
        let c = m.columns(1, 3);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[2.0, 3.0]);
        assert_eq!(m.columns(0, 0).shape(), (2, 0));
    }

    #[test]
    fn stacking() {
        let a = Matrix::identity(2);
        let h = a.hstack(&a);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 1.0);
        let v = a.vstack(&a);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 1.0);
    }

    #[test]
    fn gershgorin_bounds_lambda_max() {
        // Symmetric matrix with known eigenvalues {1, 3}.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        assert!(m.gershgorin_upper_bound() >= 3.0);
        assert_eq!(m.gershgorin_upper_bound(), 3.0);
        // Diagonal case: exact.
        let d = Matrix::from_diag(&[5.0, -1.0]);
        assert_eq!(d.gershgorin_upper_bound(), 5.0);
    }

    #[test]
    fn map_and_axpy() {
        let mut a = Matrix::filled(2, 2, 2.0);
        let b = a.map(|v| v * v);
        assert_eq!(b[(0, 0)], 4.0);
        a.axpy(0.5, &b);
        assert_eq!(a[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_panic() {
        let _ = a23().matmul(&a23());
    }

    #[test]
    fn threaded_matmul_is_bitwise_identical() {
        let mut rng = umsc_rt::Rng::from_seed(31);
        // Odd sizes so row blocks split unevenly; a sprinkle of exact zeros
        // exercises the zero-skip branch under threading too.
        let a = Matrix::from_fn(37, 29, |_, _| {
            if rng.next_f64() < 0.1 { 0.0 } else { rng.normal() }
        });
        let b = Matrix::from_fn(29, 41, |_, _| rng.normal());
        let seq = a.matmul_with_threads(1, &b);
        for t in [2, 3, 4, 8] {
            let par = a.matmul_with_threads(t, &b);
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul differs at {t} threads");
        }
        // The implicit path agrees as well (whatever thread count it picks).
        assert_eq!(a.matmul(&b).as_slice(), seq.as_slice());
    }

    #[test]
    fn threaded_matmul_transpose_b_is_bitwise_identical() {
        let mut rng = umsc_rt::Rng::from_seed(32);
        let a = Matrix::from_fn(23, 17, |_, _| rng.normal());
        let c = Matrix::from_fn(31, 17, |_, _| rng.normal());
        let seq = a.matmul_transpose_b_with_threads(1, &c);
        for t in [2, 4, 7] {
            let par = a.matmul_transpose_b_with_threads(t, &c);
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul_transpose_b differs at {t} threads");
        }
        assert_eq!(a.matmul_transpose_b(&c).as_slice(), seq.as_slice());
    }

    #[test]
    fn threaded_matmul_edge_shapes() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul_with_threads(4, &b).shape(), (0, 4));
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(2, 0);
        assert_eq!(a.matmul_with_threads(4, &b).shape(), (3, 0));
        let a = Matrix::from_vec(1, 1, vec![2.0]);
        assert_eq!(a.matmul_with_threads(9, &a)[(0, 0)], 4.0);
    }

    /// The reference kernel: the naive sequential `i-p-j` triple loop the
    /// blocked/threaded paths must match bitwise.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let av = a.as_slice()[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b.as_slice()[p * n..(p + 1) * n];
                let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn random_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = umsc_rt::Rng::from_seed(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.next_f64() < 0.15 { 0.0 } else { rng.normal() }
        })
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive() {
        // Wide enough (n = 70 ≥ 32) that the implicit path takes the
        // blocked kernel; dims deliberately not multiples of any tile.
        let a = random_with_zeros(45, 37, 101);
        let b = random_with_zeros(37, 70, 102);
        let reference = naive_matmul(&a, &b);
        assert_eq!(a.matmul(&b).as_slice(), reference.as_slice());
        for t in [1, 2, 3, 8] {
            let got = a.matmul_with_threads(t, &b);
            assert_eq!(got.as_slice(), reference.as_slice(), "matmul differs at {t} threads");
        }
        for (ti, tj) in [(1, 1), (1, 4), (3, 5), (8, 16), (32, 64), (64, 128)] {
            for t in [1, 3] {
                let got = a.matmul_tiled_with(t, ti, tj, &b);
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "tiled matmul differs at tile {ti}x{tj}, {t} threads"
                );
            }
        }
        // Whatever geometry UMSC_GEMM_TILES resolved to for this process,
        // the implicit path agrees with the naive kernel bitwise.
        let (ti, tj) = Matrix::gemm_tiles();
        assert_eq!(
            a.matmul_tiled_with(3, ti, tj, &b).as_slice(),
            reference.as_slice(),
            "env-selected tile {ti}x{tj} diverges"
        );
    }

    #[test]
    fn tile_spec_parsing() {
        assert_eq!(parse_tile_spec("32x64"), Some((32, 64)));
        assert_eq!(parse_tile_spec(" 8 X 16 "), Some((8, 16)));
        assert_eq!(parse_tile_spec("1x1"), Some((1, 1)));
        for bad in ["", "x", "32", "32x", "x64", "0x64", "32x0", "-4x8", "axb", "32x64x128"] {
            assert_eq!(parse_tile_spec(bad), None, "accepted {bad:?}");
        }
        // Tile geometry is positive whichever way it was chosen.
        let (ti, tj) = Matrix::gemm_tiles();
        assert!(ti >= 1 && tj >= 1);
    }

    #[test]
    fn autotune_picks_a_candidate_and_all_candidates_agree_bitwise() {
        let choice = Matrix::autotune_tiles();
        assert!(
            Matrix::GEMM_TILE_CANDIDATES.contains(&choice),
            "autotune returned non-candidate geometry {choice:?}"
        );
        // Whatever the sweep picks is pure policy: every candidate (and
        // therefore `UMSC_GEMM_TILES=auto`) produces bitwise-identical
        // products.
        let a = random_with_zeros(67, 53, 901);
        let b = random_with_zeros(53, 71, 902);
        let reference = a.matmul_naive_with(1, &b);
        for &(ti, tj) in Matrix::GEMM_TILE_CANDIDATES.iter() {
            for t in [1, 3] {
                assert_eq!(
                    a.matmul_tiled_with(t, ti, tj, &b).as_slice(),
                    reference.as_slice(),
                    "candidate tile {ti}x{tj} at {t} threads diverges"
                );
            }
        }
        let (ti, tj) = choice;
        assert_eq!(
            a.matmul_tiled_with(umsc_rt::par::max_threads(), ti, tj, &b).as_slice(),
            reference.as_slice(),
            "autotuned tile {ti}x{tj} diverges"
        );
    }

    #[test]
    fn blocked_matmul_edge_geometry() {
        // 1×1.
        let a = Matrix::from_vec(1, 1, vec![3.0]);
        assert_eq!(a.matmul_tiled_with(4, 1, 1, &a).as_slice(), &[9.0]);
        // 1×k · k×1 (inner product) and k×1 · 1×k (outer product).
        let r = random_with_zeros(1, 19, 103);
        let c = random_with_zeros(19, 1, 104);
        assert_eq!(r.matmul_tiled_with(3, 2, 2, &c).as_slice(), naive_matmul(&r, &c).as_slice());
        assert_eq!(c.matmul_tiled_with(3, 2, 2, &r).as_slice(), naive_matmul(&c, &r).as_slice());
        // Empty shapes: n == 0, k == 0, m == 0.
        assert_eq!(Matrix::zeros(3, 2).matmul_tiled_with(4, 8, 8, &Matrix::zeros(2, 0)).shape(), (3, 0));
        let kz = Matrix::zeros(3, 0).matmul_tiled_with(4, 8, 8, &Matrix::zeros(0, 4));
        assert_eq!(kz.shape(), (3, 4));
        assert!(kz.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(Matrix::zeros(0, 3).matmul_tiled_with(4, 8, 8, &Matrix::zeros(3, 4)).shape(), (0, 4));
        // Remainder strips: jw % 4 ∈ {1, 2, 3} via n = 33, 34, 35.
        for n in [33, 34, 35] {
            let a = random_with_zeros(9, 11, 200 + n as u64);
            let b = random_with_zeros(11, n, 300 + n as u64);
            let reference = naive_matmul(&a, &b);
            assert_eq!(a.matmul(&b).as_slice(), reference.as_slice(), "n = {n}");
            assert_eq!(a.matmul_tiled_with(2, 4, 16, &b).as_slice(), reference.as_slice(), "n = {n} tiled");
        }
    }

    #[test]
    fn threaded_matmul_transpose_a_is_bitwise_identical() {
        let a = random_with_zeros(41, 27, 105);
        let b = random_with_zeros(41, 33, 106);
        let seq = a.matmul_transpose_a_with_threads(1, &b);
        // Sequential path matches the naive definition.
        assert_eq!(seq.as_slice(), naive_matmul(&a.transpose(), &b).as_slice());
        for t in [2, 3, 5, 8] {
            let par = a.matmul_transpose_a_with_threads(t, &b);
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul_transpose_a differs at {t} threads");
        }
        assert_eq!(a.matmul_transpose_a(&b).as_slice(), seq.as_slice());
        // Edge shapes.
        assert_eq!(Matrix::zeros(0, 3).matmul_transpose_a_with_threads(4, &Matrix::zeros(0, 2)).shape(), (3, 2));
        assert_eq!(Matrix::zeros(3, 0).matmul_transpose_a_with_threads(4, &Matrix::zeros(3, 2)).shape(), (0, 2));
    }

    #[test]
    fn into_variants_match_allocating_versions_bitwise() {
        let a = random_with_zeros(21, 34, 107);
        let b = random_with_zeros(34, 39, 108);
        let mut out = Matrix::filled(21, 39, f64::NAN); // dirty buffer must be fully overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&b).as_slice());

        let c = random_with_zeros(21, 18, 109);
        let mut out = Matrix::filled(34, 18, f64::NAN);
        a.matmul_transpose_a_into(&c, &mut out);
        assert_eq!(out.as_slice(), a.matmul_transpose_a(&c).as_slice());

        let d = random_with_zeros(27, 34, 110);
        let mut out = Matrix::filled(21, 27, f64::NAN);
        a.matmul_transpose_b_into(&d, &mut out);
        assert_eq!(out.as_slice(), a.matmul_transpose_b(&d).as_slice());

        let x: Vec<f64> = (0..34).map(|i| (i as f64).cos()).collect();
        let mut y = vec![f64::NAN; 21];
        a.matvec_into(&x, &mut y);
        assert_eq!(y, a.matvec(&x));

        let mut t = Matrix::filled(34, 21, f64::NAN);
        a.transpose_into(&mut t);
        assert_eq!(t.as_slice(), a.transpose().as_slice());

        let mut cp = Matrix::filled(21, 34, f64::NAN);
        cp.copy_from(&a);
        assert_eq!(cp.as_slice(), a.as_slice());
    }

    #[test]
    fn matvec_into_zero_width_fills_zeros() {
        let a = Matrix::zeros(3, 0);
        let mut y = vec![f64::NAN; 3];
        a.matvec_into(&[], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }
}
