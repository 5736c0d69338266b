//! Seedable PRNG: xoshiro256\*\* seeded through splitmix64.
//!
//! xoshiro256\*\* (Blackman & Vigna) is the standard small fast generator
//! for non-cryptographic simulation work: 256 bits of state, period
//! 2²⁵⁶−1, passes BigCrush. Seeding expands a single `u64` through
//! splitmix64 so that nearby seeds (0, 1, 2, …) — which is how every
//! experiment in this workspace numbers its runs — land on uncorrelated
//! points of the state space.
//!
//! **Stream stability is API.** Dataset fixtures, k-means restarts and the
//! anchor selections are all "deterministic in the seed", which really
//! means deterministic in *this stream*. The golden-value tests at the
//! bottom of this file pin it; if you change the generator you must re-pin
//! them and regenerate every documented fixture (see DESIGN.md §7).

/// Splitmix64 step: the seeding PRNG.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Standalone splitmix64 stream: the Lanczos start vectors and the D²
/// anchor sampling draw from it. Its state starts one step ahead of the
/// seed, so its first output is the *second* `splitmix64` output of
/// `seed`. That offset is part of the pinned stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates the stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// xoshiro256\*\* generator with the convenience methods the workspace
/// needs. Construction from a `u64` seed is the only entry point, so two
/// `Rng`s built from the same seed always produce identical streams.
///
/// ```
/// use umsc_rt::Rng;
/// let mut a = Rng::from_seed(7);
/// let mut b = Rng::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one fixed point of xoshiro; splitmix64
        // cannot produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng { s }
    }

    /// Next raw 64-bit output (xoshiro256\*\* scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `lo..hi` (exclusive upper bound), bias-free via
    /// rejection sampling.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "Rng::gen_range: empty range {range:?}");
        let span = (range.end - range.start) as u64;
        // Largest multiple of `span` that fits in u64; values at or above
        // it would bias the modulo, so they are rejected (at most ~50%
        // rejection probability in the worst case, typically far less).
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return range.start + (v % span) as usize;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal via Box–Muller (cosine branch, one value per call —
    /// matches the convention the dataset generators have always used, so
    /// draw counts per sample are easy to reason about).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples an index with probability proportional to `weights[i]`
    /// (the k-means++ / anchor-selection primitive). Non-finite or
    /// negative weights are treated as zero. Falls back to a uniform draw
    /// when the total mass is zero.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "Rng::choose_weighted: no weights");
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let total: f64 = weights.iter().map(|&w| clean(w)).sum();
        if total <= 0.0 {
            return self.gen_range(0..weights.len());
        }
        let mut target = self.next_f64() * total;
        let mut pick = weights.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            target -= clean(w);
            if target <= 0.0 {
                pick = i;
                break;
            }
        }
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values pin the raw xoshiro256** stream (splitmix64-seeded).
    /// If these fail, every seeded fixture in the workspace has silently
    /// changed — re-pin only as part of a deliberate, documented re-seed
    /// (DESIGN.md §7 "Hermetic build").
    #[test]
    fn golden_stream_seed_0() {
        let mut r = Rng::from_seed(0);
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
                13521403990117723737,
            ]
        );
    }

    /// Pins the standalone stream that seeds Lanczos start vectors and D²
    /// anchor sampling: any change moves every Krylov solve and anchor set.
    #[test]
    fn golden_splitmix64_stream_seed_42() {
        let mut r = SplitMix64::new(42);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                2949826092126892291,
                5139283748462763858,
                6349198060258255764,
                701532786141963250,
            ]
        );
        assert_eq!(r.next_f64().to_bits(), 4605995522829291547);
        // One step ahead of the seeding function's stream.
        let mut state = 42;
        splitmix64(&mut state);
        assert_eq!(splitmix64(&mut state), 2949826092126892291);
    }

    #[test]
    fn golden_stream_seed_42() {
        let mut r = Rng::from_seed(42);
        let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
            ]
        );
    }

    #[test]
    fn golden_f64_and_normal() {
        let mut r = Rng::from_seed(0);
        assert!((r.next_f64() - 0.601_262_999_417_904_8).abs() < 1e-16);
        assert!((r.next_f64() - 0.747_774_092_547_239_8).abs() < 1e-16);
        let mut r = Rng::from_seed(0);
        assert!((r.normal() - -0.0141067973812492).abs() < 1e-14);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::from_seed(123);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut r = Rng::from_seed(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.gen_range(3..10);
            assert!((3..10).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        // Single-element range is deterministic.
        assert_eq!(r.gen_range(5..6), 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        Rng::from_seed(0).gen_range(3..3);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::from_seed(77);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::from_seed(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle left 50 elements in order");
        // Empty and single-element slices are fine.
        r.shuffle(&mut [] as &mut [usize]);
        r.shuffle(&mut [1]);
    }

    #[test]
    fn choose_weighted_respects_mass() {
        let mut r = Rng::from_seed(11);
        // Zero-weight entries are never chosen.
        for _ in 0..2_000 {
            let i = r.choose_weighted(&[0.0, 1.0, 0.0, 3.0]);
            assert!(i == 1 || i == 3);
        }
        // Frequencies approach the weight ratio 1:3.
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[r.choose_weighted(&[0.0, 1.0, 0.0, 3.0])] += 1;
        }
        let ratio = counts[3] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        // All-zero mass falls back to uniform over the full index range.
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[r.choose_weighted(&[0.0, 0.0, 0.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // NaN / negative weights are ignored, not propagated.
        for _ in 0..200 {
            assert_eq!(r.choose_weighted(&[f64::NAN, -3.0, 2.0]), 2);
        }
    }

    #[test]
    fn seeds_decorrelate() {
        // Nearby seeds produce unrelated streams (the point of splitmix
        // seeding): compare the first 64 outputs bitwise.
        let a: Vec<u64> = {
            let mut r = Rng::from_seed(1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::from_seed(2);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x != y));
    }

    #[test]
    fn clone_continues_identically() {
        let mut a = Rng::from_seed(3);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
