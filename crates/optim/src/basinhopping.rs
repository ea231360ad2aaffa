//! Basinhopping: MCMC sampling over the space of local minima.
//!
//! This is a faithful implementation of the `MCMC(f, x)` procedure of the
//! paper's Algorithm 1 (lines 24–34), which in turn is the Basinhopping
//! algorithm of Leitner et al. used by SciPy:
//!
//! 1. locally minimize from the starting point (`x_L = LM(f, x)`),
//! 2. repeat `n_iter` times: perturb, locally minimize, and accept the new
//!    local minimum with the Metropolis rule
//!    `accept ⇔ f(x̃_L) < f(x_L)  ∨  m < exp((f(x_L) − f(x̃_L)) / T)`.
//!
//! CoverMe stops the chain as soon as a minimum point saturates a new
//! branch by setting [`BasinHopping::target_value`] to `0`.

use crate::derive_rng;
use crate::objective::Objective;
use crate::result::Minimum;
use crate::sampling::PerturbationKind;
use crate::LocalMethod;

/// The Basinhopping global minimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct BasinHopping {
    /// Number of Monte-Carlo iterations (`n_iter` in Algorithm 1).
    pub iterations: usize,
    /// The local minimizer `LM`.
    pub local_method: LocalMethod,
    /// Distribution of the perturbation `δ`. Product code always runs the
    /// default (SciPy's uniform step, `half_width = 0.5`); the field stays
    /// settable because the end-to-end benchmark harness (`perfbench/`)
    /// passes the `coverme` crate's `CoverMeConfig::perturbation` through
    /// [`perturbation()`](Self::perturbation()).
    pub perturbation: PerturbationKind,
    /// Metropolis annealing temperature `T` (the paper sets `T = 1`).
    pub temperature: f64,
    /// Seed for the Monte-Carlo moves.
    pub seed: u64,
    /// Stop as soon as the objective reaches this value (inclusive), if set.
    /// CoverMe sets this to `0.0` because the representing function is
    /// non-negative and `0` certifies a newly saturated branch.
    pub target_value: Option<f64>,
}

impl Default for BasinHopping {
    fn default() -> Self {
        BasinHopping {
            iterations: 5,
            local_method: LocalMethod::Powell,
            perturbation: PerturbationKind::default(),
            temperature: 1.0,
            seed: 0,
            target_value: None,
        }
    }
}

impl BasinHopping {
    /// Creates a Basinhopping minimizer with the paper's defaults
    /// (`n_iter = 5`, Powell local minimization, `T = 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of Monte-Carlo iterations (`n_iter`).
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the local minimization method (`LM`).
    pub fn local_method(mut self, method: LocalMethod) -> Self {
        self.local_method = method;
        self
    }

    /// Sets the perturbation distribution for Monte-Carlo moves (see the
    /// field of the same name for who sets it).
    pub fn perturbation(mut self, perturbation: PerturbationKind) -> Self {
        self.perturbation = perturbation;
        self
    }

    /// Sets the Metropolis temperature `T`.
    pub fn temperature(mut self, temperature: f64) -> Self {
        self.temperature = temperature;
        self
    }

    /// Sets the random seed driving the Monte-Carlo moves.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stops early once the objective value is `<= target`.
    pub fn target_value(mut self, target: f64) -> Self {
        self.target_value = Some(target);
        self
    }

    /// Minimizes `f` starting from `x0`, stopping early once the best
    /// value reaches [`target_value`](Self::target_value). The Markov
    /// chain is sequential — every hop perturbs the current local minimum
    /// — so candidates flow through the local method one at a time;
    /// batch-capable objectives still amortize inside the local
    /// minimizations.
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
        let mut rng = derive_rng(self.seed, 0xB5_1A_55);
        let dim = x0.len();

        // Line 25: x_L = LM(f, x).
        let initial = self.local_method.minimize_objective(f, x0);
        let mut stats = initial.stats;
        let mut current = initial.x;
        let mut current_value = initial.value;
        let mut best = current.clone();
        let mut best_value = current_value;

        if self.reached_target(best_value) {
            return Minimum {
                x: best,
                value: best_value,
                stats,
            };
        }

        // Lines 26-33.
        for _ in 0..self.iterations {
            stats.iterations += 1;

            // Line 27: a random perturbation from the predefined distribution.
            let delta = self.perturbation.sample(&mut rng, dim);
            let perturbed: Vec<f64> = current.iter().zip(&delta).map(|(x, d)| x + d).collect();

            // Line 28: local minimization of the perturbed point.
            let proposal = self.local_method.minimize_objective(f, &perturbed);
            stats.evaluations += proposal.stats.evaluations;

            // Lines 29-32: Metropolis acceptance.
            let accepted = if proposal.value < current_value {
                true
            } else {
                let m = rng.next_f64();
                let exponent = (current_value - proposal.value) / self.temperature.max(1e-300);
                m < exponent.exp()
            };

            if proposal.value < best_value {
                best_value = proposal.value;
                best = proposal.x.clone();
            }

            // Line 33.
            if accepted {
                current = proposal.x;
                current_value = proposal.value;
            }

            if self.reached_target(best_value) {
                break;
            }
        }

        stats.converged = self
            .target_value
            .map(|t| best_value <= t)
            .unwrap_or(stats.converged);
        Minimum {
            x: best,
            value: best_value,
            stats,
        }
    }

    fn reached_target(&self, value: f64) -> bool {
        self.target_value.map(|t| value <= t).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    /// The global-optimization example of Fig. 2(b) in the paper.
    fn fig2b(x: f64) -> f64 {
        if x <= 1.0 {
            ((x + 1.0).powi(2) - 4.0).powi(2)
        } else {
            (x * x - 4.0).powi(2)
        }
    }

    #[test]
    fn finds_global_minimum_of_fig2b() {
        let mut f = |p: &[f64]| fig2b(p[0]);
        let m = BasinHopping::new()
            .iterations(30)
            .seed(7)
            .minimize_objective(&mut FnObjective(&mut f), &[-8.0]);
        assert!(m.value < 1e-8, "value {} at {:?}", m.value, m.x);
        // The roots are x in {-3, 1, 2}.
        let x = m.x[0];
        assert!(
            (x + 3.0).abs() < 1e-3 || (x - 1.0).abs() < 1e-3 || (x - 2.0).abs() < 1e-3,
            "unexpected minimizer {x}"
        );
    }

    #[test]
    fn escapes_local_minimum_of_double_well() {
        // Double well with a shallow local minimum at x = 3 (value 1) and the
        // global minimum at x = -2 (value 0).
        let mut f = |p: &[f64]| {
            let x = p[0];
            ((x + 2.0).powi(2)) * ((x - 3.0).powi(2) + 1.0) / 10.0
        };
        let m = BasinHopping::new()
            .iterations(60)
            .perturbation(PerturbationKind::Uniform { half_width: 3.0 })
            .seed(11)
            .minimize_objective(&mut FnObjective(&mut f), &[3.0]);
        assert!((m.x[0] + 2.0).abs() < 1e-2, "stuck at {:?}", m.x);
    }

    #[test]
    fn respects_target_value_early_stop() {
        let mut count = 0usize;
        let mut f = |p: &[f64]| {
            count += 1;
            if p[0] <= 1.0 {
                0.0
            } else {
                (p[0] - 1.0).powi(2)
            }
        };
        let m = BasinHopping::new()
            .iterations(1000)
            .target_value(0.0)
            .seed(3)
            .minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert_eq!(m.value, 0.0);
        // Early stop: far fewer evaluations than 1000 iterations would need.
        assert!(count < 2000, "no early stop: {count} evaluations");
        assert!(m.stats.converged);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = |seed: u64| {
            let mut f = |p: &[f64]| fig2b(p[0]);
            BasinHopping::new()
                .iterations(10)
                .seed(seed)
                .minimize_objective(&mut FnObjective(&mut f), &[6.0])
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.x, b.x);
        assert_eq!(a.value, b.value);
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
    }

    #[test]
    fn zero_iterations_is_just_local_minimization() {
        let mut f = |p: &[f64]| (p[0] - 2.0).powi(2);
        let m = BasinHopping::new()
            .iterations(0)
            .minimize_objective(&mut FnObjective(&mut f), &[0.0]);
        assert!((m.x[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn works_with_every_local_method() {
        for method in [
            LocalMethod::Powell,
            LocalMethod::NelderMead,
            LocalMethod::Compass,
        ] {
            let mut f = |p: &[f64]| fig2b(p[0]);
            let m = BasinHopping::new()
                .iterations(40)
                .local_method(method)
                .perturbation(PerturbationKind::Uniform { half_width: 2.0 })
                .seed(5)
                .minimize_objective(&mut FnObjective(&mut f), &[-6.0]);
            assert!(
                m.value < 0.5,
                "{} made no progress: {}",
                method.name(),
                m.value
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_input() {
        let mut f = |_: &[f64]| 0.0;
        let _ = BasinHopping::new().minimize_objective(&mut FnObjective(&mut f), &[]);
    }
}
