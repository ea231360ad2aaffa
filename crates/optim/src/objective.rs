//! The objective protocol shared by every minimizer in this crate.
//!
//! [`Objective`] has two entry points:
//!
//! * [`eval_scalar`](Objective::eval_scalar) — one candidate, one value;
//! * [`eval_batch`](Objective::eval_batch) — a slice of candidates
//!   evaluated in one call. Minimizers submit candidate sets they always
//!   evaluate whole through this seam: compass search its probe star,
//!   Nelder–Mead its starting simplex, its reflection/expansion pair and
//!   its shrink step. The default implementation loops over
//!   [`eval_scalar`](Objective::eval_scalar), and CoverMe's evaluation
//!   engine does the same, point by point, so **batching never changes
//!   results**: the values produced are bit for bit the ones sequential
//!   evaluation yields, in the same order.
//!
//! Closures work everywhere: wrap one in [`FnObjective`] and pass it to any
//! minimizer's `minimize_objective`.

/// A minimization objective `f: R^n -> R`.
///
/// Implementations must be deterministic: evaluating the same point twice
/// (scalar or batched, in any grouping) must produce bit-identical values.
/// Every minimizer in this crate relies on that to keep its search
/// trajectory independent of how evaluations are grouped into batches.
pub trait Objective {
    /// Evaluates the objective at one point.
    fn eval_scalar(&mut self, x: &[f64]) -> f64;

    /// Evaluates the objective at every point of `points`, appending one
    /// value per point (in order) to `values`.
    ///
    /// `values` is *not* cleared: callers that reuse a buffer clear it
    /// themselves, callers that accumulate (e.g. an initial simplex built
    /// vertex-group by vertex-group) just keep extending.
    ///
    /// The default implementation loops over
    /// [`eval_scalar`](Objective::eval_scalar); engines override it to
    /// amortize per-evaluation setup. Overrides must preserve value
    /// semantics exactly (same values, same order) — the batch API is a
    /// throughput seam, never a semantic one.
    fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        values.reserve(points.len());
        for point in points {
            let value = self.eval_scalar(point);
            values.push(value);
        }
    }

    /// Batch-size granularity hint; `1` unless an implementation says
    /// otherwise, and no implementation in this workspace does.
    ///
    /// Never a semantic knob: no minimizer reads it, and search results
    /// must not depend on its value. No product code calls it either; the
    /// end-to-end benchmark harness (`perfbench/`) forwards it through its
    /// timing wrapper, and the benchmark-archetype change deletes it.
    fn preferred_batch(&self) -> usize {
        1
    }
}

/// Mutable references to objectives are objectives, so a caller can lend an
/// engine to a minimizer without giving it up.
impl<O: Objective + ?Sized> Objective for &mut O {
    fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        (**self).eval_scalar(x)
    }

    fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        (**self).eval_batch(points, values)
    }

    fn preferred_batch(&self) -> usize {
        (**self).preferred_batch()
    }
}

/// Adapter turning an `FnMut(&[f64]) -> f64` closure into an [`Objective`].
///
/// `minimize_objective(&mut FnObjective(f), x0)` runs any minimizer on a
/// plain closure.
#[derive(Debug, Clone)]
pub struct FnObjective<F>(pub F);

impl<F: FnMut(&[f64]) -> f64> Objective for FnObjective<F> {
    fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        (self.0)(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_wraps_closures() {
        let mut calls = 0usize;
        let mut objective = FnObjective(|x: &[f64]| {
            calls += 1;
            x[0] * 2.0
        });
        assert_eq!(objective.eval_scalar(&[3.0]), 6.0);
        let mut values = Vec::new();
        objective.eval_batch(&[vec![1.0], vec![2.0]], &mut values);
        assert_eq!(values, vec![2.0, 4.0]);
        assert_eq!(calls, 3);
    }

    #[test]
    fn default_batch_matches_scalar_bit_for_bit() {
        // A deliberately awkward objective (catastrophic cancellation) so
        // "equal" really means "bit-identical", not "approximately equal".
        let f = |x: &[f64]| (x[0] + 1e16) - 1e16 + x[0].sin();
        let points: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 * 0.37 - 5.0]).collect();
        let mut a = FnObjective(f);
        let mut batched = Vec::new();
        a.eval_batch(&points, &mut batched);
        let mut b = FnObjective(f);
        for (point, value) in points.iter().zip(&batched) {
            assert_eq!(b.eval_scalar(point).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn batch_appends_without_clearing() {
        let mut objective = FnObjective(|x: &[f64]| x[0]);
        let mut values = vec![9.0];
        objective.eval_batch(&[vec![1.0]], &mut values);
        assert_eq!(values, vec![9.0, 1.0]);
    }

    #[test]
    fn mutable_references_are_objectives() {
        fn takes_objective<O: Objective>(mut o: O) -> f64 {
            o.eval_scalar(&[2.0])
        }
        let mut objective = FnObjective(|x: &[f64]| x[0] + 1.0);
        assert_eq!(takes_objective(&mut objective), 3.0);
        // The original is still usable afterwards.
        assert_eq!(objective.eval_scalar(&[0.0]), 1.0);
    }

    #[test]
    fn preferred_batch_never_changes_search_results() {
        // The same objective behind wrappers that advertise different
        // batch sizes: compass and Nelder–Mead must return the same
        // minimum — point, value and evaluations.
        use crate::compass::CompassSearch;
        use crate::nelder_mead::NelderMead;
        use crate::result::Minimum;

        struct Advertising(usize);
        impl Objective for Advertising {
            fn eval_scalar(&mut self, x: &[f64]) -> f64 {
                (x[0] - 1.5).powi(2) + ((x[1] + 0.25) * 3.0).powi(2)
            }
            fn preferred_batch(&self) -> usize {
                self.0
            }
        }
        let searches: [fn(&mut Advertising) -> Minimum; 2] = [
            |f| CompassSearch::new().minimize_objective(f, &[4.0, 2.0]),
            |f| NelderMead::new().minimize_objective(f, &[4.0, 2.0]),
        ];
        for search in searches {
            let reference = search(&mut Advertising(1));
            for batch in [8, 16] {
                let m = search(&mut Advertising(batch));
                let bits = |m: &Minimum| m.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&m), bits(&reference), "batch {batch}");
                assert_eq!(m.value.to_bits(), reference.value.to_bits());
                assert_eq!(m.stats, reference.stats, "batch {batch}");
            }
        }
    }
}
