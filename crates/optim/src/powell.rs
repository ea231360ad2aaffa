//! Powell's direction-set method.
//!
//! This is the local minimizer the paper's CoverMe configuration uses
//! (`LM = "powell"`). It minimizes along a set of directions in turn,
//! replacing the direction of largest decrease with the overall displacement
//! after each sweep, which (for smooth functions) builds up a set of mutually
//! conjugate directions without any derivative information.

use crate::line_search::minimize_along_ray;
use crate::objective::Objective;
use crate::result::{Minimum, OptimStats};
use crate::sanitize_value as sanitize;

/// Initial step used when bracketing each line minimization.
const INITIAL_STEP: f64 = 1.0;
/// Relative tolerance on the decrease of the objective per sweep.
const F_TOLERANCE: f64 = 1e-10;
/// Tolerance passed to the Brent line minimizer.
const LINE_TOLERANCE: f64 = 1e-8;

/// Configuration and entry point for Powell's method.
#[derive(Debug, Clone, PartialEq)]
pub struct Powell {
    /// Maximum number of direction-set sweeps.
    pub max_iterations: usize,
}

impl Default for Powell {
    fn default() -> Self {
        Powell { max_iterations: 60 }
    }
}

impl Powell {
    /// Creates a minimizer with the fixed tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sweep budget.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Minimizes `f` starting from `x0`: the sweep loop, written against
    /// the [`Objective`] protocol. Powell's method
    /// is inherently sequential — every line search depends on the previous
    /// one — so it uses the scalar entry point throughout; batch-capable
    /// engines still win here through their per-call fast path.
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

        // Direction set: initially the coordinate axes.
        let mut directions: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut d = vec![0.0; n];
                d[i] = 1.0;
                d
            })
            .collect();

        let mut iterations = 0usize;
        let mut converged = false;

        while iterations < self.max_iterations {
            iterations += 1;
            let start_point = point.clone();
            let start_value = value;
            let mut largest_decrease = 0.0_f64;
            let mut largest_decrease_index = 0usize;

            for (i, direction) in directions.iter().enumerate() {
                let before = value;
                let (new_point, new_value, line_evals) = self.line_minimize(f, &point, direction);
                evals += line_evals;
                if new_value < value {
                    point = new_point;
                    value = new_value;
                }
                let decrease = before - value;
                if decrease > largest_decrease {
                    largest_decrease = decrease;
                    largest_decrease_index = i;
                }
            }

            // Convergence: relative decrease over the whole sweep. Equal
            // values are no decrease even when both are `+∞`, where the
            // subtraction would be NaN.
            let decrease = if start_value == value {
                0.0
            } else {
                start_value - value
            };
            if 2.0 * decrease.abs() <= F_TOLERANCE * (start_value.abs() + value.abs() + 1e-25) {
                converged = true;
                break;
            }

            // Direction update heuristic (Numerical Recipes §10.7): consider
            // replacing the direction of largest decrease with the total
            // displacement of this sweep.
            let displacement: Vec<f64> =
                point.iter().zip(&start_point).map(|(a, b)| a - b).collect();
            if norm(&displacement) < 1e-15 {
                converged = true;
                break;
            }
            let extrapolated: Vec<f64> = point
                .iter()
                .zip(&displacement)
                .map(|(p, d)| p + d)
                .collect();
            let f_extrapolated = {
                evals += 1;
                sanitize(f.eval_scalar(&extrapolated))
            };
            if f_extrapolated < start_value {
                let t = 2.0
                    * (start_value - 2.0 * value + f_extrapolated)
                    * (start_value - value - largest_decrease).powi(2)
                    - largest_decrease * (start_value - f_extrapolated).powi(2);
                if t < 0.0 {
                    let (new_point, new_value, line_evals) =
                        self.line_minimize(f, &point, &displacement);
                    evals += line_evals;
                    if new_value < value {
                        point = new_point;
                        value = new_value;
                    }
                    directions[largest_decrease_index] = directions.last().expect("n >= 1").clone();
                    let last = directions.len() - 1;
                    directions[last] = normalized(&displacement);
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

    /// Minimizes `f` along the ray `t ↦ point + t·direction`.
    fn line_minimize<O>(
        &self,
        f: &mut O,
        point: &[f64],
        direction: &[f64],
    ) -> (Vec<f64>, f64, usize)
    where
        O: Objective + ?Sized,
    {
        minimize_along_ray(f, point, direction, INITIAL_STEP, LINE_TOLERANCE)
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalized(v: &[f64]) -> Vec<f64> {
    let n = norm(v);
    if n == 0.0 {
        v.to_vec()
    } else {
        v.iter().map(|x| x / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    #[test]
    fn minimizes_sphere() {
        let mut f = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[3.0, -4.0, 5.0, 1.0]);
        assert!(m.value < 1e-10, "value {}", m.value);
    }

    #[test]
    fn minimizes_shifted_quadratic() {
        // The paper's Eq. (1) example: minimum at (3, 5).
        let mut f = |p: &[f64]| (p[0] - 3.0).powi(2) + (p[1] - 5.0).powi(2);
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[-10.0, 40.0]);
        assert!((m.x[0] - 3.0).abs() < 1e-5);
        assert!((m.x[1] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let mut f = |p: &[f64]| 100.0 * (p[1] - p[0] * p[0]).powi(2) + (1.0 - p[0]).powi(2);
        let m = Powell::new()
            .max_iterations(500)
            .minimize_objective(&mut FnObjective(&mut f), &[-1.2, 1.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
    }

    #[test]
    fn handles_piecewise_flat_objective() {
        // Representing-function shape from the paper's Table 1 row 3:
        // 0 for x > 1, (x-1)^2 + eps otherwise.
        let eps = 1e-10;
        let mut f = |p: &[f64]| {
            if p[0] > 1.0 {
                0.0
            } else {
                (p[0] - 1.0).powi(2) + eps
            }
        };
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[-6.0]);
        assert!(m.value <= eps, "value {}", m.value);
    }

    #[test]
    fn converges_flag_set_on_smooth_problem() {
        let mut f = |p: &[f64]| (p[0] + 2.0).powi(2);
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[10.0]);
        assert!(m.stats.converged);
    }

    #[test]
    fn evaluation_count_is_tracked() {
        let mut count = 0usize;
        let mut f = |p: &[f64]| {
            count += 1;
            p[0] * p[0]
        };
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[2.0]);
        assert_eq!(count, m.stats.evaluations);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_input() {
        let mut f = |_: &[f64]| 0.0;
        let _ = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[]);
    }

    #[test]
    fn all_infinite_objective_converges_after_one_sweep() {
        // `+∞` everywhere, and NaN everywhere (sanitized to `+∞`): one
        // evaluation at x0, then n line searches that each stop at their
        // 3-point bracket, and the sweep's zero decrease converges.
        let x0 = [0.5, -7.0, 2.0];
        for plateau in [f64::INFINITY, f64::NAN] {
            let mut count = 0usize;
            let mut f = |_: &[f64]| {
                count += 1;
                plateau
            };
            let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &x0);
            assert_eq!(m.stats.evaluations, 1 + 3 * x0.len(), "plateau {plateau}");
            assert_eq!(count, 1 + 3 * x0.len(), "plateau {plateau}");
            assert!(m.stats.converged);
            assert_eq!(m.stats.iterations, 1);
            assert_eq!(m.x, x0);
            assert_eq!(m.value, f64::INFINITY);
        }
    }

    #[test]
    fn does_not_increase_objective() {
        let mut f = |p: &[f64]| (p[0] - 1.0).powi(2) * ((p[0] - 1.0).powi(2) + 0.7);
        let start = 25.0_f64;
        let f0 = f(&[start]);
        let m = Powell::new().minimize_objective(&mut FnObjective(&mut f), &[start]);
        assert!(m.value <= f0);
    }
}
