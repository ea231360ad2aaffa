//! Sampling strategies for starting points and Monte-Carlo perturbations.
//!
//! Two pieces of the paper's Algorithm 1 are stochastic and configurable:
//!
//! * line 9 — "Randomly take a starting point x", and
//! * line 27 — "Let δ be a random perturbation generation from a predefined
//!   distribution".
//!
//! This module captures both as small strategy enums so that the CoverMe
//! driver (and its ablation benchmarks) can swap them without touching the
//! minimization algorithms.

use crate::rng::SplitMix64;

/// How Monte-Carlo perturbations `δ` are drawn during Basinhopping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationKind {
    /// Isotropic Gaussian with the given standard deviation.
    Gaussian {
        /// Standard deviation of each coordinate of `δ`.
        stddev: f64,
    },
    /// Uniform in `[-half_width, half_width]` per coordinate (this is what
    /// SciPy's basinhopping calls `stepsize`).
    Uniform {
        /// Half width of the sampling interval per coordinate.
        half_width: f64,
    },
    /// Heavy-tailed Cauchy-like perturbation: a Gaussian scaled by the
    /// inverse of another uniform draw. Occasionally takes very large hops,
    /// which helps escape wide flat regions of a representing function.
    HeavyTailed {
        /// Base scale of the perturbation.
        scale: f64,
    },
}

impl Default for PerturbationKind {
    fn default() -> Self {
        // SciPy's default stepsize is 0.5; CoverMe relies on the default.
        PerturbationKind::Uniform { half_width: 0.5 }
    }
}

impl PerturbationKind {
    /// Draws a perturbation vector of dimension `dim`.
    pub fn sample(&self, rng: &mut SplitMix64, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| self.sample_scalar(rng)).collect()
    }

    /// Draws a single coordinate of the perturbation.
    pub fn sample_scalar(&self, rng: &mut SplitMix64) -> f64 {
        match *self {
            PerturbationKind::Gaussian { stddev } => rng.gaussian() * stddev,
            PerturbationKind::Uniform { half_width } => rng.uniform(-half_width, half_width),
            PerturbationKind::HeavyTailed { scale } => {
                let g = rng.gaussian();
                let u = rng.next_f64().max(1e-6);
                scale * g / u
            }
        }
    }

    /// Human readable name used by benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            PerturbationKind::Gaussian { .. } => "gaussian",
            PerturbationKind::Uniform { .. } => "uniform",
            PerturbationKind::HeavyTailed { .. } => "heavy-tailed",
        }
    }
}

/// How starting points for each minimization round are chosen (Algorithm 1,
/// line 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StartingPointStrategy {
    /// Uniform over a box `[lo, hi]^n`.
    UniformBox {
        /// Lower bound of every coordinate.
        lo: f64,
        /// Upper bound of every coordinate.
        hi: f64,
    },
    /// Standard Gaussian scaled by `scale`.
    Gaussian {
        /// Standard deviation of every coordinate.
        scale: f64,
    },
    /// Reinterpret uniformly random 64-bit patterns as doubles, filtering out
    /// NaN/inf. This reaches the far exponent ranges (including subnormals)
    /// that uniform boxes never touch; the paper's Sect. D attributes some of
    /// CoverMe's missed branches to the backend never producing subnormals,
    /// so this strategy exists to quantify that effect.
    BitPattern,
    /// Always start at the origin (useful for deterministic tests).
    Origin,
}

impl Default for StartingPointStrategy {
    fn default() -> Self {
        StartingPointStrategy::UniformBox {
            lo: -100.0,
            hi: 100.0,
        }
    }
}

impl StartingPointStrategy {
    /// Draws a starting point of dimension `dim`.
    pub fn sample(&self, rng: &mut SplitMix64, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| self.sample_scalar(rng)).collect()
    }

    /// Draws `count` starting points in one call — the batch counterpart of
    /// [`sample`](Self::sample), used by schedule builders (a sharded
    /// search's shared starting-point schedule) that want the whole
    /// candidate set up front. Consumes exactly the draws `count`
    /// sequential [`sample`](Self::sample) calls would, so the generated
    /// points are bit-identical to sampling one at a time.
    pub fn sample_batch(&self, rng: &mut SplitMix64, dim: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count).map(|_| self.sample(rng, dim)).collect()
    }

    fn sample_scalar(&self, rng: &mut SplitMix64) -> f64 {
        match *self {
            StartingPointStrategy::UniformBox { lo, hi } => rng.uniform(lo, hi),
            StartingPointStrategy::Gaussian { scale } => rng.gaussian() * scale,
            StartingPointStrategy::BitPattern => loop {
                let candidate = f64::from_bits(rng.next_u64());
                if candidate.is_finite() {
                    return candidate;
                }
            },
            StartingPointStrategy::Origin => 0.0,
        }
    }

    /// Human readable name used by benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            StartingPointStrategy::UniformBox { .. } => "uniform-box",
            StartingPointStrategy::Gaussian { .. } => "gaussian",
            StartingPointStrategy::BitPattern => "bit-pattern",
            StartingPointStrategy::Origin => "origin",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_perturbation_within_bounds() {
        let mut rng = SplitMix64::new(1);
        let kind = PerturbationKind::Uniform { half_width: 0.5 };
        for _ in 0..1000 {
            let delta = kind.sample(&mut rng, 3);
            assert_eq!(delta.len(), 3);
            assert!(delta.iter().all(|d| d.abs() <= 0.5));
        }
    }

    #[test]
    fn gaussian_perturbation_scales_with_stddev() {
        let mut rng = SplitMix64::new(2);
        let small = PerturbationKind::Gaussian { stddev: 0.1 };
        let large = PerturbationKind::Gaussian { stddev: 10.0 };
        let small_mean: f64 = (0..2000)
            .map(|_| small.sample_scalar(&mut rng).abs())
            .sum::<f64>()
            / 2000.0;
        let large_mean: f64 = (0..2000)
            .map(|_| large.sample_scalar(&mut rng).abs())
            .sum::<f64>()
            / 2000.0;
        assert!(large_mean > small_mean * 10.0);
    }

    #[test]
    fn heavy_tailed_occasionally_hops_far() {
        let mut rng = SplitMix64::new(3);
        let kind = PerturbationKind::HeavyTailed { scale: 1.0 };
        let max = (0..5000)
            .map(|_| kind.sample_scalar(&mut rng).abs())
            .fold(0.0_f64, f64::max);
        assert!(max > 50.0, "heavy tail never produced a large hop: {max}");
    }

    #[test]
    fn uniform_box_start_within_bounds() {
        let mut rng = SplitMix64::new(4);
        let strat = StartingPointStrategy::UniformBox { lo: -2.0, hi: 3.0 };
        for _ in 0..1000 {
            let x = strat.sample(&mut rng, 2);
            assert!(x.iter().all(|v| (-2.0..3.0).contains(v)));
        }
    }

    #[test]
    fn bit_pattern_start_is_always_finite() {
        let mut rng = SplitMix64::new(5);
        let strat = StartingPointStrategy::BitPattern;
        for _ in 0..1000 {
            let x = strat.sample(&mut rng, 1);
            assert!(x[0].is_finite());
        }
    }

    #[test]
    fn bit_pattern_reaches_extreme_exponents() {
        let mut rng = SplitMix64::new(6);
        let strat = StartingPointStrategy::BitPattern;
        let mut saw_huge = false;
        let mut saw_tiny = false;
        for _ in 0..20_000 {
            let v = strat.sample(&mut rng, 1)[0].abs();
            if v > 1e100 {
                saw_huge = true;
            }
            if v < 1e-100 && v > 0.0 {
                saw_tiny = true;
            }
        }
        assert!(saw_huge && saw_tiny);
    }

    #[test]
    fn sample_batch_matches_sequential_sampling() {
        let strat = StartingPointStrategy::UniformBox { lo: -7.0, hi: 7.0 };
        let mut batch_rng = SplitMix64::new(11);
        let batch = strat.sample_batch(&mut batch_rng, 2, 10);
        let mut seq_rng = SplitMix64::new(11);
        let sequential: Vec<Vec<f64>> = (0..10).map(|_| strat.sample(&mut seq_rng, 2)).collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn origin_strategy_is_zero() {
        let mut rng = SplitMix64::new(7);
        assert_eq!(
            StartingPointStrategy::Origin.sample(&mut rng, 4),
            vec![0.0; 4]
        );
    }

    #[test]
    fn default_matches_scipy_conventions() {
        assert_eq!(
            PerturbationKind::default(),
            PerturbationKind::Uniform { half_width: 0.5 }
        );
        assert_eq!(PerturbationKind::default().name(), "uniform");
        assert_eq!(StartingPointStrategy::default().name(), "uniform-box");
    }
}
