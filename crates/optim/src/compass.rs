//! Compass (coordinate pattern) search.
//!
//! A very simple derivative-free local minimizer: probe `x ± h·e_i` along
//! every coordinate axis, move to the best improving probe, and halve the
//! step when no probe improves. It converges slowly but makes no smoothness
//! assumptions at all, which makes it a useful ablation point against Powell
//! and Nelder–Mead on the piecewise-quadratic representing functions CoverMe
//! produces.
//!
//! Each sweep probes the `2n` directions at two step scales, `h` and
//! `h/2`, so one sweep discovers the contraction a classic
//! single-scale search needs a second sweep for. The whole star is always
//! evaluated, so it goes to the objective as one
//! [`Objective::eval_batch`] call; which points are evaluated, in which
//! order, and which probe wins never depend on how the objective serves
//! the batch.
//!
//! `+∞` carries no descent information; a search that has seen nothing else
//! stops. A sweep in which the incumbent and every probe are `+∞` (every
//! execution aborted or was NaN) converges at once instead of contracting
//! the step down to its `1e-10` floor: no probe of a
//! flat `+∞` plateau can ever improve on the incumbent.

use crate::objective::Objective;
use crate::result::{Minimum, OptimStats};
use crate::sanitize_value as sanitize;

/// Step scales probed per sweep: `h` and `h·CONTRACTION`.
const PROBE_SCALES: usize = 2;
/// Initial step size applied to every coordinate.
const INITIAL_STEP: f64 = 1.0;
/// The search stops when the step size drops below this threshold.
const MIN_STEP: f64 = 1e-10;
/// Step contraction factor applied after an unsuccessful sweep.
const CONTRACTION: f64 = 0.5;
/// Step expansion factor applied after a successful sweep.
const EXPANSION: f64 = 2.0;

/// Configuration and entry point for compass search.
#[derive(Debug, Clone, PartialEq)]
pub struct CompassSearch {
    /// Maximum number of probe sweeps.
    pub max_iterations: usize,
}

impl Default for CompassSearch {
    fn default() -> Self {
        CompassSearch {
            max_iterations: 2000,
        }
    }
}

impl CompassSearch {
    /// Creates a compass search with the fixed step schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sweep budget.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Minimizes `f` starting from `x0`. Every sweep's probe star goes
    /// through [`Objective::eval_batch`] in one call.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn minimize_objective<O>(&self, f: &mut O, x0: &[f64]) -> Minimum
    where
        O: Objective + ?Sized,
    {
        assert!(
            !x0.is_empty(),
            "cannot minimize a zero-dimensional function"
        );
        let n = x0.len();
        let mut evals = 0usize;

        let mut point = x0.to_vec();
        let mut value = {
            evals += 1;
            sanitize(f.eval_scalar(&point))
        };
        let mut step = INITIAL_STEP;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut probes: Vec<Vec<f64>> = Vec::with_capacity(2 * n * PROBE_SCALES);
        let mut probe_values: Vec<f64> = Vec::with_capacity(2 * n * PROBE_SCALES);

        while iterations < self.max_iterations {
            iterations += 1;
            // The probe star `x ± h·e_i` at both scales (`h, h·c`), + before
            // - per coordinate, coarsest scale first, evaluated as one batch.
            probes.clear();
            let mut contracted_step = step;
            for _ in 0..PROBE_SCALES {
                for i in 0..n {
                    for sign in [1.0, -1.0] {
                        let mut probe = point.clone();
                        probe[i] += sign * contracted_step;
                        probes.push(probe);
                    }
                }
                contracted_step *= CONTRACTION;
            }
            probe_values.clear();
            f.eval_batch(&probes, &mut probe_values);
            evals += probes.len();

            // First strictly-best improving probe, exactly as the scalar
            // loop selected it.
            let mut best_probe: Option<(usize, f64)> = None;
            for (index, &raw) in probe_values.iter().enumerate() {
                let pv = sanitize(raw);
                let improves_current = pv < value;
                let improves_best = best_probe.as_ref().map(|&(_, bv)| pv < bv).unwrap_or(true);
                if improves_current && improves_best {
                    best_probe = Some((index, pv));
                }
            }
            match best_probe {
                Some((index, pv)) => {
                    point.clone_from(&probes[index]);
                    value = pv;
                    // Expand from the scale that produced the winner.
                    let winner_scale = index / (2 * n);
                    let mut winning_step = step;
                    for _ in 0..winner_scale {
                        winning_step *= CONTRACTION;
                    }
                    step = winning_step * EXPANSION;
                }
                None => {
                    // Every probed scale failed; resume below the finest.
                    // With a `+∞` incumbent, "failed" means every probe
                    // was `+∞` too.
                    step = contracted_step;
                    if step < MIN_STEP || value == f64::INFINITY {
                        converged = true;
                        break;
                    }
                }
            }
        }

        Minimum {
            x: point,
            value,
            stats: OptimStats {
                evaluations: evals,
                iterations,
                converged,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    #[test]
    fn minimizes_sphere() {
        let mut f = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[2.0, -3.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
    }

    #[test]
    fn minimizes_absolute_value_nonsmooth() {
        // |x - 2| + |y + 1| is non-smooth at the optimum; compass search
        // handles it without derivatives or interpolation.
        let mut f = |p: &[f64]| (p[0] - 2.0).abs() + (p[1] + 1.0).abs();
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[10.0, 10.0]);
        assert!(m.value < 1e-6, "value {}", m.value);
        assert!((m.x[0] - 2.0).abs() < 1e-6);
        assert!((m.x[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn handles_plateau_objective() {
        let mut f = |p: &[f64]| {
            if p[0] <= 1.0 {
                0.0
            } else {
                (p[0] - 1.0).powi(2)
            }
        };
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[8.0]);
        assert_eq!(m.value, 0.0);
    }

    #[test]
    fn converged_flag_and_eval_count() {
        let mut count = 0usize;
        let mut f = |p: &[f64]| {
            count += 1;
            (p[0] - 4.0).powi(2)
        };
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!(m.stats.converged);
        assert_eq!(m.stats.evaluations, count);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut f = |p: &[f64]| (p[0] - 4.0).powi(2);
        let m = CompassSearch::new()
            .max_iterations(2)
            .minimize_objective(&mut FnObjective(&mut f), &[1000.0]);
        assert!(m.stats.iterations <= 2);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_input() {
        let mut f = |_: &[f64]| 0.0;
        let _ = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[]);
    }

    #[test]
    fn all_infinite_sweep_converges_after_one_star() {
        // `+∞` everywhere, and NaN everywhere (sanitized to `+∞`): the
        // incumbent plus one two-scale star of 2n·2 probes is the whole
        // search.
        let x0 = [3.0, -1.0];
        for plateau in [f64::INFINITY, f64::NAN] {
            let mut count = 0usize;
            let mut f = |_: &[f64]| {
                count += 1;
                plateau
            };
            let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &x0);
            let expected = 1 + 2 * x0.len() * 2;
            assert_eq!(m.stats.evaluations, expected, "{plateau}");
            assert_eq!(count, expected, "{plateau}");
            assert!(m.stats.converged);
            assert_eq!(m.stats.iterations, 1);
            assert_eq!(m.x, x0);
        }
    }

    #[test]
    fn one_finite_probe_keeps_the_search_moving() {
        // From x = 0 with step 1 the star probes ±1 and ±0.5; only x = 1 is
        // finite, so the search is not all-`+∞` and walks on to 3.
        let mut f = |p: &[f64]| {
            if p[0] >= 0.75 {
                (p[0] - 3.0).powi(2)
            } else {
                f64::INFINITY
            }
        };
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
        assert!(m.stats.converged);
        assert!(m.stats.evaluations > 5);
    }

    #[test]
    fn default_star_is_two_scales() {
        // Every sweep, not only the first, probes ±h and ±h/2: the
        // incumbent plus four probes per 1-D sweep is the whole count.
        let mut f = |p: &[f64]| (p[0] - 4.0).powi(2);
        let m = CompassSearch::new().minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!(m.value < 1e-8);
        assert_eq!(m.stats.evaluations, 1 + 4 * m.stats.iterations);
    }

    #[test]
    fn auto_star_depth_tracks_the_engine_lane_width() {
        // The star depth is the constant two scales whatever lane width
        // the engine advertises: each 1-D sweep's star is 2·1·2 = 4 probes
        // on a scalar, an 8-lane and a 16-lane engine alike. The star size
        // is visible through the first sweep's batch length.
        struct Counting {
            batch: usize,
            first_batch_len: Option<usize>,
        }
        impl Objective for Counting {
            fn eval_scalar(&mut self, x: &[f64]) -> f64 {
                (x[0] - 4.0).powi(2)
            }
            fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
                self.first_batch_len.get_or_insert(points.len());
                for p in points {
                    values.push(self.eval_scalar(p));
                }
            }
            fn preferred_batch(&self) -> usize {
                self.batch
            }
        }
        for batch in [1, 8, 16] {
            let mut f = Counting {
                batch,
                first_batch_len: None,
            };
            let m = CompassSearch::new().minimize_objective(&mut f, &[0.0]);
            assert!(m.value < 1e-8);
            assert_eq!(f.first_batch_len, Some(4), "batch {batch}");
        }
    }
}
