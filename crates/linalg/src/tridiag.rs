//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! `Qᵀ A Q = T` with `Q` orthogonal and `T` tridiagonal. This is the first
//! half of the dense symmetric eigensolver (EISPACK `tred2` lineage, 0-based
//! and on row-major storage); the second half is the implicit-shift QL sweep
//! in [`crate::eigen`].

use crate::matrix::Matrix;

/// Result of tridiagonalizing a symmetric matrix: `A = Q · T · Qᵀ`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (length `n`).
    pub diagonal: Vec<f64>,
    /// Sub/super-diagonal of `T` (length `n`; entry 0 is always 0 so that
    /// `off_diagonal[i]` couples rows `i-1` and `i`, matching the QL sweep).
    pub off_diagonal: Vec<f64>,
    /// Accumulated orthogonal transform `Q` (columns are the Householder
    /// product applied to the standard basis).
    pub q: Matrix,
}

impl Tridiagonal {
    /// Reconstructs the dense tridiagonal matrix `T` (mostly for tests).
    pub fn to_dense(&self) -> Matrix {
        let n = self.diagonal.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = self.diagonal[i];
            if i > 0 {
                t[(i, i - 1)] = self.off_diagonal[i];
                t[(i - 1, i)] = self.off_diagonal[i];
            }
        }
        t
    }
}

/// Reduces symmetric `a` to tridiagonal form with accumulated transforms.
///
/// The input is *assumed* symmetric; only its lower triangle is read in the
/// reduction proper (mirroring the classic algorithm). Use
/// [`Matrix::symmetrize_mut`] first if the input is only symmetric up to
/// floating-point noise.
///
/// # Panics
/// Panics if `a` is not square.
pub fn tridiagonalize(a: &Matrix) -> Tridiagonal {
    let (mut q, mut diagonal, mut off_diagonal) = (Matrix::zeros(0, 0), Vec::new(), Vec::new());
    tridiagonalize_into(a, &mut q, &mut diagonal, &mut off_diagonal);
    Tridiagonal { diagonal, off_diagonal, q }
}

/// [`tridiagonalize`] on caller buffers: writes `Q` into `z`, the diagonal
/// into `d` and the off-diagonal into `e` (the [`Tridiagonal`] fields).
/// `z` is reallocated only when its shape differs from `a`'s and `d`/`e`
/// only when their capacity is short, so repeated calls on one shape are
/// allocation-free. Whatever the buffers held before is ignored.
///
/// # Panics
/// Panics if `a` is not square.
pub fn tridiagonalize_into(a: &Matrix, z: &mut Matrix, d: &mut Vec<f64>, e: &mut Vec<f64>) {
    assert!(a.is_square(), "tridiagonalize: matrix is {}x{}, not square", a.rows(), a.cols());
    let n = a.rows();
    if z.shape() != a.shape() {
        *z = Matrix::zeros(n, n);
    }
    z.copy_from(a);
    d.clear();
    d.resize(n, 0.0);
    e.clear();
    e.resize(n, 0.0);

    if n == 0 {
        return;
    }

    // Householder reduction, processing rows from the bottom up.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    // Store u/H in column i for the later accumulation pass.
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g_acc = 0.0;
                    for k in 0..=j {
                        g_acc += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g_acc += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let upd = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= upd;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;

    // Accumulate the Householder transforms into `z` (becomes Q).
    for i in 0..n {
        if d[i] != 0.0 {
            // d[i] holds H of the i-th reflector at this point.
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let upd = g * z[(k, i)];
                    z[(k, j)] -= upd;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| f(i.min(j), i.max(j)));
        m.symmetrize_mut();
        m
    }

    fn check_decomposition(a: &Matrix, tol: f64) {
        let t = tridiagonalize(a);
        let n = a.rows();
        // Q is orthogonal.
        let qtq = t.q.matmul_transpose_a(&t.q);
        assert!(qtq.approx_eq(&Matrix::identity(n), tol), "QᵀQ != I: {qtq:?}");
        // Q T Qᵀ reconstructs A.
        let recon = t.q.matmul(&t.to_dense()).matmul_transpose_b(&t.q);
        assert!(recon.approx_eq(a, tol), "Q T Qᵀ != A");
        // T is genuinely tridiagonal (to_dense built only from d/e by
        // construction) and preserves the trace.
        let trace_t: f64 = t.diagonal.iter().sum();
        assert!((trace_t - a.trace()).abs() < tol * n.max(1) as f64);
    }

    #[test]
    fn empty_and_trivial() {
        let t = tridiagonalize(&Matrix::zeros(0, 0));
        assert!(t.diagonal.is_empty());
        let t = tridiagonalize(&Matrix::from_vec(1, 1, vec![7.0]));
        assert_eq!(t.diagonal, vec![7.0]);
        assert_eq!(t.q[(0, 0)], 1.0);
    }

    #[test]
    fn two_by_two() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn already_tridiagonal_is_preserved_up_to_signs() {
        let a = sym(5, |i, j| if i == j { (i + 1) as f64 } else if j == i + 1 { 0.5 } else { 0.0 });
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn dense_symmetric_matrices() {
        for n in [3usize, 4, 6, 10, 17] {
            let a = sym(n, |i, j| ((i * 31 + j * 17) as f64).sin() + if i == j { 2.0 } else { 0.0 });
            check_decomposition(&a, 1e-9);
        }
    }

    #[test]
    fn matrix_with_zero_rows() {
        // Rows of zeros exercise the scale == 0 branch.
        let mut a = Matrix::zeros(4, 4);
        a[(0, 0)] = 1.0;
        a[(3, 3)] = 2.0;
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn into_with_dirty_buffers_matches_allocating_version_bitwise() {
        // One set of buffers across two shapes, each visited twice: stale
        // contents and a shape change must not leak into the result.
        let (mut z, mut d, mut e) = (Matrix::filled(2, 2, f64::NAN), vec![f64::NAN; 9], vec![f64::NAN; 1]);
        let small = sym(4, |i, j| ((i * 5 + j * 3) as f64).cos() + if i == j { 1.0 } else { 0.0 });
        let large = sym(7, |i, j| ((i * 31 + j * 17) as f64).sin() + if i == j { 2.0 } else { 0.0 });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for a in [&large, &small, &large, &small] {
            let want = tridiagonalize(a);
            tridiagonalize_into(a, &mut z, &mut d, &mut e);
            assert_eq!(bits(z.as_slice()), bits(want.q.as_slice()));
            assert_eq!(bits(&d), bits(&want.diagonal));
            assert_eq!(bits(&e), bits(&want.off_diagonal));
        }
    }

    #[test]
    #[should_panic(expected = "not square")]
    fn non_square_panics() {
        let _ = tridiagonalize(&Matrix::zeros(2, 3));
    }
}
