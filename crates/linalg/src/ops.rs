//! Free-function vector kernels shared across the crate.
//!
//! These operate on plain `&[f64]` slices so callers (including the graph
//! and clustering crates) can use them on rows of a [`crate::Matrix`] or on
//! standalone buffers without conversions.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// [`sq_dist`] of `a` against four rows at once:
/// `[sq_dist(a, b[0]), …, sq_dist(a, b[3])]`, bit for bit.
///
/// Each lane has its own accumulator and adds `(a_t − b_t)²` in ascending
/// `t` starting from `-0.0`, the order and start of `sq_dist`'s `Sum`
/// fold. The four add chains are independent, so they overlap in the
/// pipeline where a single chain waits on every add. (`sq_dist` is also
/// symmetric bit for bit: round-to-nearest gives `fl(x − y) = −fl(y − x)`.)
///
/// # Panics
/// Panics if a row's length differs from `a`'s.
#[inline]
pub fn sq_dist4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let d = a.len();
    for r in &b {
        assert_eq!(r.len(), d, "sq_dist4: length mismatch {d} vs {}", r.len());
    }
    let [b0, b1, b2, b3] = b;
    let mut acc = [-0.0f64; 4];
    for (t, &x) in a.iter().enumerate() {
        let e = [x - b0[t], x - b1[t], x - b2[t], x - b3[t]];
        for (s, e) in acc.iter_mut().zip(e) {
            *s += e * e;
        }
    }
    acc
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm; returns the original norm.
///
/// A zero vector is left unchanged and 0.0 is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Index of the maximum entry (first occurrence). Returns `None` on an
/// empty slice or when every entry is NaN.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum entry (first occurrence). Returns `None` on an
/// empty slice or when every entry is NaN.
pub fn argmin(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Numerically safe `hypot`-style Givens magnitude `sqrt(a² + b²)` without
/// overflow/underflow, as used by the QL and Jacobi sweeps.
#[inline]
pub fn pythag(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    if a > b {
        let r = b / a;
        a * (1.0 + r * r).sqrt()
    } else if b > 0.0 {
        let r = a / b;
        b * (1.0 + r * r).sqrt()
    } else {
        0.0
    }
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Unbiased sample standard deviation (0.0 for fewer than two values).
///
/// Works on the shifted values `v − x[0]`, so equal values give exactly
/// 0: their plain mean can miss the value itself by an ulp.
pub fn std_dev(x: &[f64]) -> f64 {
    let Some(&x0) = x.first().filter(|_| x.len() >= 2) else { return 0.0 };
    let m = x.iter().map(|v| v - x0).sum::<f64>() / x.len() as f64;
    (x.iter().map(|v| (v - x0 - m) * (v - x0 - m)).sum::<f64>() / (x.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sq_dist4_is_sq_dist_bit_for_bit() {
        let mut rng = umsc_rt::Rng::from_seed(4);
        for d in [0, 1, 2, 3, 5, 64, 129] {
            let rows: Vec<Vec<f64>> = (0..5).map(|_| crate::testkit::vector(&mut rng, d, -1e3, 1e3)).collect();
            let mut b = [rows[1].as_slice(), rows[2].as_slice(), rows[3].as_slice(), rows[4].as_slice()];
            // A duplicate lane gives an exact-zero distance.
            b[3] = &rows[0];
            let got = sq_dist4(&rows[0], b);
            for (l, r) in b.iter().enumerate() {
                assert_eq!(got[l].to_bits(), sq_dist(&rows[0], r).to_bits(), "d = {d}, lane {l}");
                assert_eq!(got[l].to_bits(), sq_dist(r, &rows[0]).to_bits(), "symmetry, d = {d}, lane {l}");
            }
        }
    }

    #[test]
    fn axpy_scale_normalize() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, -0.5]);
        let mut v = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_argmin_edge_cases() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, -3.0, -3.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
    }

    #[test]
    fn pythag_matches_hypot_and_survives_extremes() {
        for &(a, b) in &[(3.0, 4.0), (-3.0, 4.0), (0.0, 0.0), (1e-300, 1e-300), (1e300, 1e300)] {
            let p = pythag(a, b);
            let h = f64::hypot(a, b);
            if h == 0.0 {
                assert_eq!(p, 0.0);
            } else {
                assert!((p - h).abs() / h < 1e-12, "a={a} b={b}: {p} vs {h}");
            }
            assert!(p.is_finite());
        }
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn std_dev_of_equal_values_is_zero() {
        // Five equal values whose plain mean is one ulp off (238/240, an
        // accuracy on 240 points): centring on it gave 1.24e-16.
        assert_eq!(std_dev(&[238.0 / 240.0; 5]), 0.0);
        for v in [0.1, 0.7, 0.95, 0.8833333333333333, 1e300, -3.5] {
            assert_eq!(std_dev(&[v; 3]), 0.0, "{v}");
            assert_eq!(std_dev(&[v; 5]), 0.0, "{v}");
        }
    }
}
