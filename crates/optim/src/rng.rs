//! Small deterministic pseudo-random number generators.
//!
//! The global minimizers need reproducible random streams (the paper's
//! evaluation fixes a configuration and reports deterministic-looking
//! results). We keep a tiny SplitMix64/xoshiro-style generator in-crate so
//! every algorithm can be seeded with a plain `u64` without pulling RNG
//! trait plumbing through the public API. The `rand` crate is still used by
//! higher layers (fuzzers, samplers) where distribution adapters help.

/// A SplitMix64 generator.
///
/// SplitMix64 passes BigCrush for the bit-mixing quality needed here and has
/// a one-word state, which makes seeding derived streams trivial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed value, including zero, is
    /// acceptable.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 raw pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not strictly less than `hi` or either bound is not
    /// finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniformly chosen index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Forks a statistically independent child generator.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds look identical");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = rng.uniform(-3.0, 2.5);
            assert!((-3.0..2.5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_empty_range() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.uniform(2.0, 2.0);
    }

    #[test]
    fn index_stays_in_range() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SplitMix64::new(5);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SplitMix64::new(77);
        let mut child = a.fork();
        let overlapping = (0..16).filter(|_| a.next_u64() == child.next_u64()).count();
        assert!(overlapping < 2);
    }
}
