//! Sampling of starting points and Monte-Carlo perturbations.
//!
//! Two pieces of the paper's Algorithm 1 are stochastic:
//!
//! * line 9 — "Randomly take a starting point x", and
//! * line 27 — "Let δ be a random perturbation generation from a predefined
//!   distribution".
//!
//! Both are fixed to the paper's choices. Starting points are uniform over
//! a box ([`uniform_box`]; the driver owns the box, `[-100, 100]^n`), and
//! perturbations are SciPy basinhopping's default uniform step
//! ([`PerturbationKind::Uniform`] with `half_width = 0.5`).

use crate::rng::SplitMix64;

/// How Monte-Carlo perturbations `δ` are drawn during Basinhopping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationKind {
    /// Uniform in `[-half_width, half_width]` per coordinate (this is what
    /// SciPy's basinhopping calls `stepsize`).
    Uniform {
        /// Half width of the sampling interval per coordinate.
        half_width: f64,
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
        let PerturbationKind::Uniform { half_width } = *self;
        (0..dim)
            .map(|_| rng.uniform(-half_width, half_width))
            .collect()
    }
}

/// Draws `count` points of dimension `dim`, every coordinate uniform in
/// `[lo, hi)` (Algorithm 1, line 9). Point by point, coordinate by
/// coordinate: the draws are exactly those of `count · dim` sequential
/// [`SplitMix64::uniform`] calls, so a schedule built up front is
/// bit-identical to sampling one start at a time.
pub fn uniform_box(
    rng: &mut SplitMix64,
    (lo, hi): (f64, f64),
    dim: usize,
    count: usize,
) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..dim).map(|_| rng.uniform(lo, hi)).collect())
        .collect()
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
    fn uniform_box_start_within_bounds() {
        let mut rng = SplitMix64::new(4);
        let points = uniform_box(&mut rng, (-2.0, 3.0), 2, 1000);
        assert_eq!(points.len(), 1000);
        for x in points {
            assert_eq!(x.len(), 2);
            assert!(x.iter().all(|v| (-2.0..3.0).contains(v)));
        }
    }

    #[test]
    fn sample_batch_matches_sequential_sampling() {
        let mut batch_rng = SplitMix64::new(11);
        let batch = uniform_box(&mut batch_rng, (-7.0, 7.0), 2, 10);
        let mut seq_rng = SplitMix64::new(11);
        let sequential: Vec<Vec<f64>> = (0..10)
            .map(|_| vec![seq_rng.uniform(-7.0, 7.0), seq_rng.uniform(-7.0, 7.0)])
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn default_matches_scipy_conventions() {
        assert_eq!(
            PerturbationKind::default(),
            PerturbationKind::Uniform { half_width: 0.5 }
        );
    }
}
