//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the single dense container used across the workspace. It is
//! deliberately simple: a `Vec<f64>` plus a shape, with the operations the
//! spectral-clustering pipeline actually needs (products in the three
//! transpose flavours, transposition, column slicing, norms, Gershgorin
//! bounds).
//!
//! Hot loops follow the `i-k-j` ordering so the innermost loop streams over
//! contiguous rows of both operands (see the Rust Performance Book's advice
//! on iteration order and bounds-check elimination via slices).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense row-major matrix of `f64`. Entries are read and written through
/// `m[(i, j)]` (bounds-checked). `from_diag`, `columns`, `transpose` and
/// `approx_eq` serve the tests and the test oracles; no fit calls them.
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

    /// Reallocates `self` as `rows × cols` zeros when its shape differs,
    /// and returns whether it did. Contents are unspecified afterwards —
    /// a scratch buffer's caller overwrites every entry it reads back.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) -> bool {
        let realloc = self.shape() != (rows, cols);
        if realloc {
            *self = Matrix::zeros(rows, cols);
        }
        realloc
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

    /// Matrix product `self · other`.
    ///
    /// Runs the workspace's dense row kernel [`umsc_op::dense_rows_into`],
    /// threaded past the flop gate [`umsc_rt::par::threads_for`]. Every output
    /// element is accumulated in the order of the sequential triple loop
    /// (`p` ascending from an exact `0.0`, skipping exact zeros of `self`),
    /// so the result is bitwise-identical for any thread count.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Writes `self · other` into `out` without allocating. Every entry of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or `out` is not
    /// `self.rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: inner dimension mismatch ({}x{} · {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "Matrix::matmul_into: out is {}x{}, expected {}x{}",
            out.rows, out.cols, self.rows, other.cols
        );
        let threads = umsc_rt::par::threads_for(2 * self.rows * self.cols * other.cols);
        umsc_op::dense_rows_into(threads, &self.data, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Matrix product `selfᵀ · other` without forming the transpose.
    ///
    /// Threaded over contiguous blocks of output rows for large products;
    /// each block repeats the sequential kernel restricted to its column
    /// slice of `self`, so accumulation order per element is unchanged and
    /// the result is bitwise-identical for any thread count.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transpose_a_into(other, &mut out);
        out
    }

    /// Writes `selfᵀ · other` into `out` without allocating. Every entry of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics if the row counts differ or `out` is not
    /// `self.cols × other.cols`.
    pub fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
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
        out.data.fill(0.0);
        // Each worker owns a contiguous block of output rows `ilo..ihi` and
        // runs the `p`-outer sequential kernel reading the contiguous slice
        // `self[p][ilo..ihi]`, so both operands stream linearly.
        let threads = umsc_rt::par::threads_for(2 * k * m * n);
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
    /// Threaded by blocks of four output rows; bitwise-identical to the
    /// sequential loop for any thread count.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// Writes `self · otherᵀ` into `out` without allocating. Every entry of
    /// `out` is overwritten, entry `(i, j)` with
    /// [`crate::ops::dot`]`(self.row(i), other.row(j))` bit for bit (see
    /// [`Matrix::gram_block_into`] for the kernel).
    ///
    /// # Panics
    /// Panics if the column counts differ or `out` is not
    /// `self.rows × other.rows`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
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
        let threads = umsc_rt::par::threads_for(2 * m * k * n);
        umsc_rt::par::parallel_chunks_mut_with(threads, &mut out.data, GRAM_TILE * n, |q, block| {
            let lo = q * GRAM_TILE;
            abt_block(self, lo..lo + block.len() / n, other, 0..n, block, n);
        });
    }

    /// One block of the Gram matrix `self · selfᵀ`: for every `i` in
    /// `rows` and `j` in `cols`, writes [`crate::ops::dot`]`(self.row(i),
    /// self.row(j))`, bit for bit, to `out[(i − rows.start)·ld + (j −
    /// cols.start)]`. Entries of `out` outside those positions are left
    /// untouched, so `ld` may exceed `cols.len()` (e.g. to write straight
    /// into the rows of a larger matrix). Sequential: callers thread over
    /// blocks of rows, best in multiples of four.
    ///
    /// The kernel is a 4 × 4 register tile, the one A·Bᵀ kernel (it also
    /// serves [`Matrix::matmul_transpose_b_into`]): each pass over `k`
    /// reads four rows of `self` in `rows` and four in `cols` and updates
    /// 16 accumulators, 8 loads for 16 multiply-adds. Rows and columns
    /// left over from the quads take the same lanes one row or column at a
    /// time. Every lane starts from `-0.0` and adds its products in
    /// ascending `k`, the order and start of `ops::dot`'s `Sum`, so the
    /// tile shape, the block bounds and the thread count move no bit, and
    /// because products commute term by term the block holding `(i, j)`
    /// and the one holding `(j, i)` agree bitwise. That lets symmetric
    /// consumers (pairwise distances, kNN graphs) compute only the upper
    /// triangle.
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
        abt_block(self, rows, self, cols, out, ld);
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
    /// No fit calls it: the GPI shift is the same bound of the fused CSR
    /// Laplacian, whose tests compare against this dense form bit for bit.
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
}

/// Side of the A·Bᵀ register tile: rows of `A`, and rows of `B`, per
/// pass. Callers that thread [`Matrix::gram_block_into`] hand each thread
/// whole multiples of it.
pub const GRAM_TILE: usize = 4;

/// `out[r·ld + c] = dot(a.row(rows.start + r), b.row(cols.start + c))`
/// for the rows in `rows` and the columns in `cols`: row quads through
/// [`GRAM_TILE`] × [`GRAM_TILE`] register tiles ([`lanes`]), leftover
/// rows one at a time. Sequential and allocation-free.
fn abt_block(a: &Matrix, rows: std::ops::Range<usize>, b: &Matrix, cols: std::ops::Range<usize>, out: &mut [f64], ld: usize) {
    let (m, w) = (rows.len(), cols.len());
    assert!(ld >= w, "Matrix::gram_block_into: ld {ld} < block width {w}");
    if m == 0 || w == 0 {
        return;
    }
    let need = (m - 1) * ld + w;
    assert!(out.len() >= need, "Matrix::gram_block_into: out holds {} < {need} entries", out.len());
    let m4 = m - m % GRAM_TILE;
    for r in (0..m4).step_by(GRAM_TILE) {
        let ar: [&[f64]; GRAM_TILE] = std::array::from_fn(|s| a.row(rows.start + r + s));
        abt_rows(ar, b, cols.clone(), &mut out[r * ld..], ld);
    }
    for r in m4..m {
        abt_rows([a.row(rows.start + r)], b, cols.clone(), &mut out[r * ld..], ld);
    }
}

/// The `R` rows `ar` against the rows of `b` in `cols`: column quads
/// through `R × 4` tiles, leftover columns one at a time, row `s` of the
/// result written at `out[s·ld..]`.
#[inline(always)]
fn abt_rows<const R: usize>(ar: [&[f64]; R], b: &Matrix, cols: std::ops::Range<usize>, out: &mut [f64], ld: usize) {
    fn store<const R: usize, const C: usize>(out: &mut [f64], ld: usize, c: usize, acc: [[f64; C]; R]) {
        for (s, lane) in acc.iter().enumerate() {
            out[s * ld + c..][..C].copy_from_slice(lane);
        }
    }
    let k = b.cols;
    let w = cols.len();
    let w4 = w - w % GRAM_TILE;
    for c in (0..w4).step_by(GRAM_TILE) {
        let bc: [&[f64]; GRAM_TILE] = std::array::from_fn(|t| b.row(cols.start + c + t));
        store(out, ld, c, lanes(k, ar, bc));
    }
    for c in w4..w {
        store(out, ld, c, lanes(k, ar, [b.row(cols.start + c)]));
    }
}

/// The `R × C` register tile: `acc[s][t] = Σ_p a[s][p]·b[t][p]` over
/// `p = 0..k` in ascending order, every lane started from `-0.0` — bit
/// for bit [`crate::ops::dot`]`(a[s], b[t])`. The `R·C` add chains are
/// independent, so they overlap in the pipeline, and each step of `p`
/// loads `R + C` values for `R·C` multiply-adds.
#[inline(always)]
fn lanes<const R: usize, const C: usize>(k: usize, a: [&[f64]; R], b: [&[f64]; C]) -> [[f64; C]; R] {
    let a = a.map(|row| &row[..k]);
    let b = b.map(|row| &row[..k]);
    let mut acc = [[-0.0f64; C]; R];
    for p in 0..k {
        let bp: [f64; C] = std::array::from_fn(|t| b[t][p]);
        for (lane, row) in acc.iter_mut().zip(a) {
            let ap = row[p];
            for (s, &x) in lane.iter_mut().zip(&bp) {
                *s += ap * x;
            }
        }
    }
    acc
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
    use umsc_rt::par::with_threads;

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

        assert!(Matrix::zeros(0, 0).as_slice().is_empty());
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
        assert_eq!(m[(0, 1)], -1.0);
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

    /// `a · b` through the row kernel at an explicit thread count.
    fn matmul_at(threads: usize, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::filled(a.rows(), b.cols(), f64::NAN);
        umsc_op::dense_rows_into(threads, a.as_slice(), a.cols(), b.as_slice(), b.cols(), out.as_mut_slice());
        out
    }

    #[test]
    fn threaded_matmul_is_bitwise_identical() {
        // Odd sizes so row blocks split unevenly; a sprinkle of exact zeros
        // exercises the zero-skip branch under threading too.
        let a = random_with_zeros(37, 29, 31);
        let b = random_with_zeros(29, 41, 32);
        let seq = matmul_at(1, &a, &b);
        assert_eq!(seq.as_slice(), naive_matmul(&a, &b).as_slice());
        for t in [2, 3, 4, 8] {
            assert_eq!(seq.as_slice(), matmul_at(t, &a, &b).as_slice(), "matmul differs at {t} threads");
        }
        // The gated path agrees as well (whatever thread count it picks).
        assert_eq!(a.matmul(&b).as_slice(), seq.as_slice());
    }

    /// Rows that mix random entries with sign-of-zero traps: a `[0, -1, …]`
    /// row against a `[-1, 0, …]` row has only `-0.0` products, so its dot
    /// product is `-0.0` only if the sum starts from `-0.0`, as `ops::dot`'s
    /// does.
    fn signed_zero_rows(rows: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = umsc_rt::Rng::from_seed(seed);
        Matrix::from_fn(rows, k, |i, p| match i % 3 {
            0 => [0.0, -1.0][p % 2],
            1 => [-1.0, 0.0][p % 2],
            _ => rng.normal(),
        })
    }

    #[test]
    fn gram_blocks_and_abt_equal_ops_dot_bitwise() {
        use crate::ops::dot;
        for k in [0, 1, 3, 4, 5, 600] {
            let x = signed_zero_rows(16, k, 41);
            for start in [0, 1, 3, 6] {
                for m in 0..=9 {
                    let rows = start..start + m;
                    for cols in [0..16, 2..9, 5..6, 7..7, 3..16, 13..16] {
                        let ld = cols.len() + 3;
                        let mut out = vec![f64::NAN; m * ld];
                        x.gram_block_into(rows.clone(), cols.clone(), &mut out, ld);
                        for (r, i) in rows.clone().enumerate() {
                            let row = &out[r * ld..(r + 1) * ld];
                            for (c, j) in cols.clone().enumerate() {
                                let want = dot(x.row(i), x.row(j));
                                assert_eq!(row[c].to_bits(), want.to_bits(), "k={k} ({i},{j}) in {rows:?}×{cols:?}");
                                // Symmetric consumers read (j, i) off this entry.
                                assert_eq!(want.to_bits(), dot(x.row(j), x.row(i)).to_bits());
                            }
                            assert!(row[cols.len()..].iter().all(|v| v.is_nan()), "gap written at k={k}");
                        }
                    }
                }
            }
            // The same kernel behind A·Bᵀ, on every thread count.
            let b = signed_zero_rows(11, k, 42);
            for t in [1, 3] {
                let ab = with_threads(t, || x.matmul_transpose_b(&b));
                for i in 0..x.rows() {
                    for j in 0..b.rows() {
                        assert_eq!(ab[(i, j)].to_bits(), dot(x.row(i), b.row(j)).to_bits(), "k={k} ({i},{j}) at {t}");
                    }
                }
            }
        }
        // The traps do reach the sign: an all-(−0.0) dot product.
        assert!(dot(&[0.0, -1.0], &[-1.0, 0.0]).is_sign_negative());
    }

    #[test]
    fn threaded_matmul_transpose_b_is_bitwise_identical() {
        let mut rng = umsc_rt::Rng::from_seed(32);
        let a = Matrix::from_fn(23, 17, |_, _| rng.normal());
        let c = Matrix::from_fn(31, 17, |_, _| rng.normal());
        let seq = with_threads(1, || a.matmul_transpose_b(&c));
        for t in [2, 4, 7] {
            let par = with_threads(t, || a.matmul_transpose_b(&c));
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul_transpose_b differs at {t} threads");
        }
        assert_eq!(a.matmul_transpose_b(&c).as_slice(), seq.as_slice());
    }

    #[test]
    fn threaded_matmul_edge_shapes() {
        assert_eq!(matmul_at(4, &Matrix::zeros(0, 3), &Matrix::zeros(3, 4)).shape(), (0, 4));
        assert_eq!(matmul_at(4, &Matrix::zeros(3, 2), &Matrix::zeros(2, 0)).shape(), (3, 0));
        // k = 0: every entry is the empty sum.
        let kz = matmul_at(4, &Matrix::zeros(3, 0), &Matrix::zeros(0, 4));
        assert_eq!(kz.as_slice(), &[0.0; 12]);
        let a = Matrix::from_vec(1, 1, vec![2.0]);
        assert_eq!(matmul_at(9, &a, &a)[(0, 0)], 4.0);
        // Inner and outer products.
        let r = random_with_zeros(1, 19, 103);
        let c = random_with_zeros(19, 1, 104);
        assert_eq!(matmul_at(3, &r, &c).as_slice(), naive_matmul(&r, &c).as_slice());
        assert_eq!(matmul_at(3, &c, &r).as_slice(), naive_matmul(&c, &r).as_slice());
    }

    /// The reference kernel: the naive sequential `i-p-j` triple loop the
    /// threaded row kernel must match bitwise.
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
    fn threaded_matmul_transpose_a_is_bitwise_identical() {
        let a = random_with_zeros(41, 27, 105);
        let b = random_with_zeros(41, 33, 106);
        let seq = with_threads(1, || a.matmul_transpose_a(&b));
        // Sequential path matches the naive definition.
        assert_eq!(seq.as_slice(), naive_matmul(&a.transpose(), &b).as_slice());
        for t in [2, 3, 5, 8] {
            let par = with_threads(t, || a.matmul_transpose_a(&b));
            assert_eq!(seq.as_slice(), par.as_slice(), "matmul_transpose_a differs at {t} threads");
        }
        assert_eq!(a.matmul_transpose_a(&b).as_slice(), seq.as_slice());
        // Edge shapes.
        assert_eq!(with_threads(4, || Matrix::zeros(0, 3).matmul_transpose_a(&Matrix::zeros(0, 2))).shape(), (3, 2));
        assert_eq!(with_threads(4, || Matrix::zeros(3, 0).matmul_transpose_a(&Matrix::zeros(3, 2))).shape(), (0, 2));
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

        let mut t = Matrix::filled(34, 21, f64::NAN);
        a.transpose_into(&mut t);
        assert_eq!(t.as_slice(), a.transpose().as_slice());

        let mut cp = Matrix::filled(21, 34, f64::NAN);
        cp.copy_from(&a);
        assert_eq!(cp.as_slice(), a.as_slice());
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }
}
