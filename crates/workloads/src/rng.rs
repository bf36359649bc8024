//! A tiny deterministic RNG for program synthesis.
//!
//! Program generation must be bit-for-bit reproducible across platforms and
//! dependency upgrades (the whole evaluation depends on it), so we use our
//! own splitmix64-based generator rather than an external crate whose stream
//! could change between versions.

use crate::behavior::mix64;

/// Deterministic pseudo-random generator (splitmix64 sequence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Srng {
    state: u64,
}

impl Srng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Srng {
            // Avoid the all-zero fixed point of some seeds; mix once.
            state: mix64(seed ^ 0xa076_1d64_78bd_642f),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform integer in `[lo, hi)` (empty ranges return `lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo + 1 {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// [`Srng::range`] narrowed to `u32` for the generator's small bounded
    /// draws (periods, depths, milli-probabilities). The draw is `< hi`,
    /// so the narrowing is lossless whenever the requested bound fits.
    #[expect(clippy::cast_possible_truncation, reason = "draw < hi ≤ 2^32")]
    pub fn range_u32(&mut self, lo: u64, hi: u64) -> u32 {
        debug_assert!(hi <= 1 << 32, "range_u32 bound {hi} exceeds u32");
        self.range(lo, hi) as u32
    }

    /// [`Srng::range`] narrowed to `u16` (architectural register indices).
    #[expect(clippy::cast_possible_truncation, reason = "draw < hi ≤ 2^16")]
    pub(crate) fn range_u16(&mut self, lo: u64, hi: u64) -> u16 {
        debug_assert!(hi <= 1 << 16, "range_u16 bound {hi} exceeds u16");
        self.range(lo, hi) as u16
    }

    /// [`Srng::range`] over `usize` bounds, for index and count draws.
    #[expect(clippy::cast_possible_truncation, reason = "draw < hi, a usize")]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Geometric-ish draw with mean `mean`, clamped to `[1, cap]`.
    ///
    /// Used for basic-block sizes: integer-code block sizes are short-tailed
    /// and skewed, which a clamped geometric reproduces well.
    pub(crate) fn geometric(&mut self, mean: f64, cap: u64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        // Inverse-CDF sampling of a geometric with mean `mean`.
        let p = 1.0 / mean;
        let u = self.f64().max(1e-12);
        #[expect(clippy::cast_possible_truncation, reason = "clamped to [1, cap]")]
        let g = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
        g.clamp(1, cap)
    }

    /// Picks an element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.range_usize(0, items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Srng::new(42);
        let mut b = Srng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Srng::new(1);
        let mut b = Srng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Srng::new(7);
        for _ in 0..10_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(5, 6), 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Srng::new(3);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = Srng::new(11);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| r.geometric(8.0, 64)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.25, "observed mean {mean}");
    }

    #[test]
    fn geometric_clamps() {
        let mut r = Srng::new(13);
        for _ in 0..10_000 {
            let v = r.geometric(50.0, 16);
            assert!((1..=16).contains(&v));
        }
        assert_eq!(r.geometric(0.5, 16), 1);
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = Srng::new(17);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "observed {rate}");
    }
}
