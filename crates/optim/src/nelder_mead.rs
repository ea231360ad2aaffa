//! The Nelder–Mead downhill simplex method.
//!
//! A derivative-free local minimizer that maintains a simplex of `n + 1`
//! points in `R^n` and moves it through reflection, expansion, contraction
//! and shrink steps. It is less sample-efficient than Powell's method on
//! smooth objectives but copes better with the mildly discontinuous
//! representing functions produced by `pen` when a branch flips.
//!
//! Candidate generation is batch-friendly: the initial simplex (`n + 1`
//! vertices), the reflection/expansion probe pair of every iteration, and
//! the shrink step (`n` vertices) are each submitted through
//! [`Objective::eval_batch`] in one call, so a batch-capable engine
//! amortizes its per-evaluation setup. The reflected and expanded probes
//! are evaluated together even though the classic formulation only consults
//! the expansion when the reflection improves on the best vertex; the
//! decision tree uses exactly the classic comparisons, so the simplex
//! trajectory — and therefore the returned minimum — is identical, the
//! expansion value is simply discarded when unused.
//!
//! `+∞` carries no descent information; a search that has seen nothing else
//! stops. A simplex whose best vertex is `+∞` (every vertex aborted or was
//! NaN) has converged: the classic spread test cannot say so, because
//! `∞ − ∞` is NaN, and the strict comparisons of the reflect/contract rules
//! never move the best vertex on such a plateau anyway.

use crate::objective::Objective;
use crate::result::{Minimum, OptimStats};
use crate::sanitize_value as sanitize;

/// Configuration and entry point for the Nelder–Mead simplex method.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMead {
    /// Reflection coefficient (`alpha`), conventionally `1.0`.
    pub alpha: f64,
    /// Expansion coefficient (`gamma`), conventionally `2.0`.
    pub gamma: f64,
    /// Contraction coefficient (`rho`), conventionally `0.5`.
    pub rho: f64,
    /// Shrink coefficient (`sigma`), conventionally `0.5`.
    pub sigma: f64,
    /// Edge length of the initial simplex relative to `max(1, |x0_i|)`.
    pub initial_step: f64,
    /// Convergence tolerance on the spread of objective values.
    pub f_tolerance: f64,
    /// Convergence tolerance on the simplex diameter.
    pub x_tolerance: f64,
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            initial_step: 0.1,
            f_tolerance: 1e-12,
            x_tolerance: 1e-10,
            max_iterations: 400,
        }
    }
}

impl NelderMead {
    /// Creates a minimizer with the conventional coefficient choices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the relative edge length of the initial simplex.
    pub fn initial_step(mut self, step: f64) -> Self {
        self.initial_step = step;
        self
    }

    /// Sets the iteration budget.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Minimizes `f` starting from `x0`.
    ///
    /// NaN objective values are treated as `+inf` so a single undefined
    /// evaluation cannot capture the simplex. See the [module docs](self)
    /// for which candidate sets are submitted as batches.
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
        let eval = |f: &mut O, x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            sanitize(f.eval_scalar(x))
        };
        let eval_batch = |f: &mut O, points: &[Vec<f64>], evals: &mut usize| -> Vec<f64> {
            *evals += points.len();
            let mut raw = Vec::new();
            f.eval_batch(points, &mut raw);
            raw.iter().map(|&v| sanitize(v)).collect()
        };

        // The starting simplex: x0 plus one perturbed vertex per
        // dimension, evaluated as one batch.
        let mut simplex: Vec<Vec<f64>> = vec![x0.to_vec()];
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += self.initial_step * v[i].abs().max(1.0);
            simplex.push(v);
        }
        let mut values = eval_batch(f, &simplex, &mut evals);

        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.max_iterations {
            iterations += 1;

            // Order the simplex by objective value.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).unwrap());
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // Convergence checks; an all-`+∞` simplex has nowhere to go.
            if values[best] == f64::INFINITY {
                converged = true;
                break;
            }
            let f_spread = values[worst] - values[best];
            let x_spread = simplex
                .iter()
                .map(|v| distance(v, &simplex[best]))
                .fold(0.0_f64, f64::max);
            if f_spread.abs() <= self.f_tolerance && x_spread <= self.x_tolerance {
                converged = true;
                break;
            }

            // Centroid of all vertices except the worst.
            let mut centroid = vec![0.0; n];
            for (idx, vertex) in simplex.iter().enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, v) in centroid.iter_mut().zip(vertex) {
                    *c += v;
                }
            }
            for c in centroid.iter_mut() {
                *c /= n as f64;
            }

            // Reflection and expansion probes, submitted as one batch. The
            // expansion value is only consulted when the reflection beats
            // the best vertex (the classic rule), so the trajectory is the
            // textbook one.
            let probes = vec![
                affine(&centroid, &simplex[worst], self.alpha),
                affine(&centroid, &simplex[worst], self.gamma),
            ];
            let probe_values = eval_batch(f, &probes, &mut evals);
            let mut probes = probes.into_iter();
            let (reflected, expanded) = (
                probes.next().expect("two probes"),
                probes.next().expect("two probes"),
            );
            let (f_reflected, f_expanded) = (probe_values[0], probe_values[1]);

            if f_reflected < values[best] {
                if f_expanded < f_reflected {
                    simplex[worst] = expanded;
                    values[worst] = f_expanded;
                } else {
                    simplex[worst] = reflected;
                    values[worst] = f_reflected;
                }
            } else if f_reflected < values[second_worst] {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
            } else {
                // Contraction (outside if the reflected point improved on the
                // worst vertex, inside otherwise).
                let (contracted, f_contracted) = if f_reflected < values[worst] {
                    let c = affine(&centroid, &simplex[worst], self.rho * self.alpha);
                    let fc = eval(f, &c, &mut evals);
                    (c, fc)
                } else {
                    let c = affine(&centroid, &simplex[worst], -self.rho);
                    let fc = eval(f, &c, &mut evals);
                    (c, fc)
                };
                if f_contracted < values[worst].min(f_reflected) {
                    simplex[worst] = contracted;
                    values[worst] = f_contracted;
                } else {
                    // Shrink towards the best vertex: move the n non-best
                    // vertices, then evaluate them as one batch.
                    let best_vertex = simplex[best].clone();
                    let mut shrunk: Vec<Vec<f64>> = Vec::with_capacity(n);
                    for (idx, vertex) in simplex.iter_mut().enumerate() {
                        if idx == best {
                            continue;
                        }
                        for (v, b) in vertex.iter_mut().zip(&best_vertex) {
                            *v = b + self.sigma * (*v - b);
                        }
                        shrunk.push(vertex.clone());
                    }
                    let shrunk_values = eval_batch(f, &shrunk, &mut evals);
                    let mut shrunk_values = shrunk_values.into_iter();
                    for (idx, value) in values.iter_mut().enumerate() {
                        if idx == best {
                            continue;
                        }
                        *value = shrunk_values.next().expect("one value per vertex");
                    }
                }
            }
        }

        let (best_idx, &best_value) = values
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .expect("simplex is never empty");
        Minimum {
            x: simplex[best_idx].clone(),
            value: best_value,
            stats: OptimStats {
                evaluations: evals,
                iterations,
                converged,
            },
        }
    }
}

fn affine(centroid: &[f64], vertex: &[f64], coefficient: f64) -> Vec<f64> {
    centroid
        .iter()
        .zip(vertex)
        .map(|(c, v)| c + coefficient * (c - v))
        .collect()
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    #[test]
    fn minimizes_sphere() {
        let mut f = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[3.0, -4.0, 5.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
        assert!(m.x.iter().all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let mut f = |p: &[f64]| 100.0 * (p[1] - p[0] * p[0]).powi(2) + (1.0 - p[0]).powi(2);
        let m = NelderMead::new()
            .max_iterations(5000)
            .minimize_objective(&mut FnObjective(&mut f), &[-1.2, 1.0]);
        assert!(m.value < 1e-6, "value {}", m.value);
        assert!((m.x[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn handles_one_dimension() {
        let mut f = |p: &[f64]| (p[0] - 7.0).powi(2);
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!((m.x[0] - 7.0).abs() < 1e-4);
    }

    #[test]
    fn reports_convergence_on_easy_problem() {
        let mut f = |p: &[f64]| p[0] * p[0];
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[1.0]);
        assert!(m.stats.converged);
        assert!(m.stats.evaluations > 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut f = |p: &[f64]| 100.0 * (p[1] - p[0] * p[0]).powi(2) + (1.0 - p[0]).powi(2);
        let m = NelderMead::new()
            .max_iterations(3)
            .minimize_objective(&mut FnObjective(&mut f), &[-1.2, 1.0]);
        assert!(m.stats.iterations <= 3);
        assert!(!m.stats.converged);
    }

    #[test]
    fn nan_regions_do_not_trap_the_simplex() {
        // NaN for x < 0, a parabola elsewhere.
        let mut f = |p: &[f64]| {
            if p[0] < 0.0 {
                f64::NAN
            } else {
                (p[0] - 2.0).powi(2)
            }
        };
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[5.0]);
        assert!((m.x[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_input() {
        let mut f = |_: &[f64]| 0.0;
        let _ = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[]);
    }

    #[test]
    fn all_infinite_simplex_converges_on_the_starting_simplex() {
        // `+∞` everywhere, and NaN everywhere (sanitized to `+∞`): the
        // starting simplex's n + 1 evaluations are the whole search.
        let x0 = [1.5, -2.0, 4.0];
        for plateau in [f64::INFINITY, f64::NAN] {
            let mut count = 0usize;
            let mut f = |_: &[f64]| {
                count += 1;
                plateau
            };
            let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &x0);
            assert_eq!(m.stats.evaluations, x0.len() + 1, "plateau {plateau}");
            assert_eq!(count, x0.len() + 1, "plateau {plateau}");
            assert!(m.stats.converged);
            assert_eq!(m.x, x0, "simplex vertex 0");
            assert_eq!(m.value, f64::INFINITY);
        }
    }

    #[test]
    fn one_finite_vertex_keeps_the_simplex_moving() {
        // Vertex 0 (x = 0) is `+∞`, vertex 1 (x = 0.1) is finite: the
        // simplex is not all-`+∞`, so it walks on to the minimum at 2.
        let mut f = |p: &[f64]| {
            if p[0] > 0.05 {
                (p[0] - 2.0).powi(2)
            } else {
                f64::INFINITY
            }
        };
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!((m.x[0] - 2.0).abs() < 1e-3, "x {}", m.x[0]);
        assert!(m.value < 1e-6, "value {}", m.value);
        assert!(m.stats.evaluations > 2);
    }

    #[test]
    fn single_restart_matches_the_classic_start_bit_for_bit() {
        // The first batch is exactly the classic starting simplex: x0, then
        // x0 with coordinate i moved by initial_step · max(1, |x0_i|).
        struct FirstBatch(Option<Vec<Vec<f64>>>);
        impl Objective for FirstBatch {
            fn eval_scalar(&mut self, x: &[f64]) -> f64 {
                (x[0] - 3.0).powi(2) + x[1].powi(2)
            }
            fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
                self.0.get_or_insert_with(|| points.to_vec());
                for p in points {
                    values.push(self.eval_scalar(p));
                }
            }
        }
        let mut f = FirstBatch(None);
        let m = NelderMead::new().minimize_objective(&mut f, &[0.5, -20.0]);
        assert!(m.value < 1e-8, "value {}", m.value);
        assert_eq!(
            f.0,
            Some(vec![vec![0.5, -20.0], vec![0.6, -20.0], vec![0.5, -18.0]])
        );
    }

    #[test]
    fn piecewise_representing_function_shape() {
        // Shape of the paper's Table 1 row 2 objective:
        // ((x+1)^2-4)^2 for x <= 1, (x^2-4)^2 otherwise.
        let mut f = |p: &[f64]| {
            let x = p[0];
            if x <= 1.0 {
                ((x + 1.0).powi(2) - 4.0).powi(2)
            } else {
                (x * x - 4.0).powi(2)
            }
        };
        // From a start near a basin the simplex reaches one of the roots
        // {-3, 1, 2}.
        let m = NelderMead::new().minimize_objective(&mut FnObjective(&mut f), &[0.5]);
        assert!(m.value < 1e-8, "value {}", m.value);
    }
}
