//! Compass (coordinate pattern) search.
//!
//! A very simple derivative-free local minimizer: probe `x ± h·e_i` along
//! every coordinate axis, move to the best improving probe, and halve the
//! step when no probe improves. It converges slowly but makes no smoothness
//! assumptions at all, which makes it a useful ablation point against Powell
//! and Nelder–Mead on the piecewise-quadratic representing functions CoverMe
//! produces.
//!
//! The probe star of every sweep — all `2n` candidates — was always
//! evaluated unconditionally, so it is submitted as a single
//! [`Objective::eval_batch`] call: a batch-capable engine amortizes its
//! per-evaluation setup with zero change to which points are evaluated, in
//! which order, or which probe is selected.
//!
//! For low dimensions the classic star is small (`2` candidates in 1-D,
//! `4` in 2-D) — too small to fill the lanes of a data-parallel engine.
//! [`probe_scales`](CompassSearch::probe_scales) widens the star: each
//! sweep probes the same `2n` directions at `k` step scales
//! (`h, h/2, h/4, …`) in one batch, which both fills lanes and lets a
//! single sweep discover the contraction a classic search would need `k`
//! sweeps for. The default is `2`, on every objective: the star depth is
//! part of the algorithm, so it never depends on the objective's
//! [`preferred_batch`](Objective::preferred_batch) hint. Set
//! `probe_scales(1)` to recover the textbook algorithm, bit for bit.

use crate::objective::{FnObjective, Objective};
use crate::result::{Minimum, OptimStats};
use crate::sanitize_value as sanitize;

/// Configuration and entry point for compass search.
#[derive(Debug, Clone, PartialEq)]
pub struct CompassSearch {
    /// Initial step size applied to every coordinate.
    pub initial_step: f64,
    /// The search stops when the step size drops below this threshold.
    pub min_step: f64,
    /// Step contraction factor applied after an unsuccessful sweep.
    pub contraction: f64,
    /// Step expansion factor applied after a successful sweep.
    pub expansion: f64,
    /// Maximum number of probe sweeps.
    pub max_iterations: usize,
    /// Number of step scales probed per sweep (`1` = the classic star; `k`
    /// probes `h·contraction^j` for `j < k`, all in one batch). The
    /// default is `2`. See the [module docs](self).
    pub probe_scales: usize,
}

impl Default for CompassSearch {
    fn default() -> Self {
        CompassSearch {
            initial_step: 1.0,
            min_step: 1e-10,
            contraction: 0.5,
            expansion: 2.0,
            max_iterations: 2000,
            probe_scales: 2,
        }
    }
}

impl CompassSearch {
    /// Creates a compass search with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the initial probe step.
    pub fn initial_step(mut self, step: f64) -> Self {
        self.initial_step = step;
        self
    }

    /// Sets the sweep budget.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the number of step scales probed per sweep (`1` keeps the
    /// classic star).
    ///
    /// # Panics
    ///
    /// Panics if `scales` is zero.
    pub fn probe_scales(mut self, scales: usize) -> Self {
        assert!(scales > 0, "at least one probe scale is required");
        self.probe_scales = scales;
        self
    }

    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn minimize<F>(&self, f: &mut F, x0: &[f64]) -> Minimum
    where
        F: FnMut(&[f64]) -> f64,
    {
        self.minimize_objective(&mut FnObjective(f), x0)
    }

    /// Trait-based twin of [`minimize`](Self::minimize): every sweep's `2n`
    /// probe star goes through [`Objective::eval_batch`] in one call.
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
        let scales = self.probe_scales.max(1);
        let mut step = self.initial_step;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut probes: Vec<Vec<f64>> = Vec::with_capacity(2 * n * scales);
        let mut probe_values: Vec<f64> = Vec::with_capacity(2 * n * scales);

        while iterations < self.max_iterations {
            iterations += 1;
            // The probe star `x ± h·e_i` at every configured scale
            // (`h, h·c, h·c², …`), in the historical evaluation order
            // (+ before - per coordinate, coarsest scale first), evaluated
            // as one batch. With `probe_scales == 1` this is exactly the
            // classic single-scale star.
            probes.clear();
            let mut contracted_step = step;
            for _ in 0..scales {
                for i in 0..n {
                    for sign in [1.0, -1.0] {
                        let mut probe = point.clone();
                        probe[i] += sign * contracted_step;
                        probes.push(probe);
                    }
                }
                contracted_step *= self.contraction;
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
                    // Expand from the scale that produced the winner, so a
                    // single-scale search keeps its classic step dynamics.
                    let winner_scale = index / (2 * n);
                    let mut winning_step = step;
                    for _ in 0..winner_scale {
                        winning_step *= self.contraction;
                    }
                    step = winning_step * self.expansion;
                }
                None => {
                    // Every probed scale failed; resume below the finest.
                    step = contracted_step;
                    if step < self.min_step {
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

    #[test]
    fn minimizes_sphere() {
        let mut f = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let m = CompassSearch::new().minimize(&mut f, &[2.0, -3.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
    }

    #[test]
    fn minimizes_absolute_value_nonsmooth() {
        // |x - 2| + |y + 1| is non-smooth at the optimum; compass search
        // handles it without derivatives or interpolation.
        let mut f = |p: &[f64]| (p[0] - 2.0).abs() + (p[1] + 1.0).abs();
        let m = CompassSearch::new().minimize(&mut f, &[10.0, 10.0]);
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
        let m = CompassSearch::new().minimize(&mut f, &[8.0]);
        assert_eq!(m.value, 0.0);
    }

    #[test]
    fn converged_flag_and_eval_count() {
        let mut count = 0usize;
        let mut f = |p: &[f64]| {
            count += 1;
            (p[0] - 4.0).powi(2)
        };
        let m = CompassSearch::new().minimize(&mut f, &[0.0]);
        assert!(m.stats.converged);
        assert_eq!(m.stats.evaluations, count);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut f = |p: &[f64]| (p[0] - 4.0).powi(2);
        let m = CompassSearch::new()
            .max_iterations(2)
            .minimize(&mut f, &[1000.0]);
        assert!(m.stats.iterations <= 2);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_input() {
        let mut f = |_: &[f64]| 0.0;
        let _ = CompassSearch::new().minimize(&mut f, &[]);
    }

    #[test]
    fn multi_scale_star_finds_the_same_minimum() {
        let mut classic_f = |p: &[f64]| (p[0] - 2.0).abs() + (p[1] + 1.0).abs();
        let classic = CompassSearch::new().minimize(&mut classic_f, &[10.0, 10.0]);
        let mut wide_f = |p: &[f64]| (p[0] - 2.0).abs() + (p[1] + 1.0).abs();
        let wide = CompassSearch::new()
            .probe_scales(2)
            .minimize(&mut wide_f, &[10.0, 10.0]);
        assert!(wide.value < 1e-6, "value {}", wide.value);
        assert!(classic.value < 1e-6);
        // The wider star spends fewer sweeps: each sweep covers two scales.
        assert!(wide.stats.iterations <= classic.stats.iterations);
    }

    #[test]
    fn default_star_is_two_scales_and_one_scale_stays_classic() {
        // The default is the two-scale star; probe_scales(1) recovers the
        // textbook algorithm, which must find the same minimum.
        assert_eq!(CompassSearch::default().probe_scales, 2);
        let mut classic_f = |p: &[f64]| (p[0] - 4.0).powi(2);
        let classic = CompassSearch::new()
            .probe_scales(1)
            .minimize(&mut classic_f, &[0.0]);
        let mut wide_f = |p: &[f64]| (p[0] - 4.0).powi(2);
        let wide = CompassSearch::new().minimize(&mut wide_f, &[0.0]);
        assert!(classic.value < 1e-8);
        assert!(wide.value < 1e-8);
        // Each two-scale sweep covers what two classic sweeps would.
        assert!(wide.stats.iterations <= classic.stats.iterations);
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

    #[test]
    #[should_panic(expected = "at least one probe scale")]
    fn rejects_zero_probe_scales() {
        let _ = CompassSearch::new().probe_scales(0);
    }
}
