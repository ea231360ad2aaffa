//! The representing function `FOO_R` (Step 2 of the paper's approach).
//!
//! Given the instrumented program `FOO_I` and a snapshot of the currently
//! saturated branches, the representing function is
//!
//! ```text
//! double FOO_R(double x) { r = 1; FOO_I(x); return r; }
//! ```
//!
//! Its two defining conditions (Sect. 3.2) are enforced by construction:
//!
//! * **C1** `FOO_R(x) ≥ 0` for all `x` — `r` starts at `1` and is only ever
//!   assigned `pen(...)`, which is a branch distance (non-negative) or `0`;
//! * **C2** `FOO_R(x) = 0` iff `x` saturates a branch not yet saturated —
//!   Theorem 4.3.

use std::cell::RefCell;

use coverme_runtime::{BranchSet, ExecCtx, Program, RunOutcome, Trace};

/// The result of evaluating the representing function on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `FOO_R(x)` — the value of `r` after executing the instrumented
    /// program.
    pub value: f64,
    /// Branches covered by this execution.
    pub covered: BranchSet,
    /// Ordered decision trace of this execution.
    pub trace: Trace,
    /// How the execution ended. Anything but [`RunOutcome::Done`] means the
    /// run aborted (fuel exhausted, runtime fault): `value` is a truncated
    /// accumulator, `covered` and `trace` describe a path that was never
    /// completed, and none of them may feed coverage or saturation
    /// updates.
    pub outcome: RunOutcome,
}

/// The representing function of a program against a saturation snapshot.
///
/// The snapshot is immutable for the lifetime of the value, exactly as the
/// paper rebuilds `FOO_R`'s behaviour whenever `Saturate` changes. Searches
/// evaluate `FOO_R` through the [`ObjectiveEngine`](crate::ObjectiveEngine);
/// this type is the direct Definition 4.2 reference the engine's tests
/// check it against.
#[derive(Debug, Clone)]
pub struct RepresentingFunction<P> {
    program: P,
    saturated: BranchSet,
    epsilon: f64,
    /// Reusable fast-path context for [`eval`](Self::eval): built once (one
    /// snapshot clone per `RepresentingFunction`, not per call), reset
    /// between executions, recording neither trace nor coverage — the
    /// minimizer only consumes the scalar, and `r` does not depend on
    /// either. Interior mutability keeps `eval(&self)` compatible with the
    /// borrowing [`objective`](Self::objective) adapter.
    scratch: RefCell<ExecCtx>,
}

impl<P: Program> RepresentingFunction<P> {
    /// Creates the representing function for `program` against the given
    /// saturation snapshot, using the default `ε`.
    pub fn new(program: P, saturated: BranchSet) -> Self {
        let scratch = ExecCtx::representing(saturated.clone())
            .without_trace()
            .without_coverage();
        RepresentingFunction {
            program,
            saturated,
            epsilon: coverme_runtime::DEFAULT_EPSILON,
            scratch: RefCell::new(scratch),
        }
    }

    /// Overrides the `ε` used by the branch distances.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        let scratch = self.scratch.get_mut();
        *scratch = ExecCtx::representing(self.saturated.clone())
            .with_epsilon(epsilon)
            .without_trace()
            .without_coverage();
        self
    }

    /// The wrapped program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The saturation snapshot this representing function was built against.
    pub fn saturated(&self) -> &BranchSet {
        &self.saturated
    }

    /// Number of inputs of the underlying program.
    pub fn arity(&self) -> usize {
        self.program.arity()
    }

    /// Evaluates `FOO_R(x)` and returns only its value. This is the closure
    /// handed to the unconstrained-programming backend.
    ///
    /// Fast path: the reusable scratch context is reset and re-executed —
    /// no snapshot clone, no trace, no covered-set inserts per call. The
    /// value is bit-identical to what [`eval_full`](Self::eval_full)
    /// computes, because `r` depends only on the saturation snapshot
    /// (`without_coverage_still_computes_r` in `coverme-runtime` pins
    /// that). Coverage of the interesting inputs — the zeros — is never
    /// lost: the driver re-evaluates every accepted minimum through
    /// [`eval_full`](Self::eval_full) before consuming it.
    pub fn eval(&self, input: &[f64]) -> f64 {
        let mut ctx = self.scratch.borrow_mut();
        ctx.reset();
        self.program.execute(input, &mut ctx);
        ctx.representing_value()
    }

    /// Evaluates `FOO_R(x)` keeping the covered branches and the decision
    /// trace, which the driver needs to update coverage, saturation and the
    /// infeasible-branch heuristic.
    pub fn eval_full(&self, input: &[f64]) -> Evaluation {
        let mut ctx = ExecCtx::representing(self.saturated.clone()).with_epsilon(self.epsilon);
        self.program.execute(input, &mut ctx);
        let outcome = ctx.run_outcome();
        let (covered, trace, value) = ctx.into_parts();
        Evaluation {
            value,
            covered,
            trace,
            outcome,
        }
    }

    /// Borrowing adapter usable as an `FnMut(&[f64]) -> f64` objective.
    pub fn objective(&self) -> impl FnMut(&[f64]) -> f64 + '_ {
        move |x: &[f64]| self.eval(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_runtime::{BranchId, Cmp, FnProgram};

    /// The paper's Fig. 3 program with `square` inlined.
    fn paper_example() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 2.5;
            }
            let y = x * x;
            if ctx.branch(1, Cmp::Eq, y, 4.0) {
                // target
            }
        })
    }

    #[test]
    fn row1_no_saturation_means_identically_zero() {
        let foo_r = RepresentingFunction::new(paper_example(), BranchSet::new());
        for x in [-5.2, 0.0, 0.7, 1.0, 1.1, 100.0] {
            assert_eq!(foo_r.eval(&[x]), 0.0, "x = {x}");
        }
    }

    #[test]
    fn row2_only_1f_saturated() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let foo_r = RepresentingFunction::new(paper_example(), saturated);
        // Zeros of the representing function are inputs driving y == 4:
        // on the x <= 1 side, (x + 2.5)^2 == 4 at x = -0.5 and x = -4.5;
        // on the x > 1 side, x^2 == 4 at x = 2.
        assert_eq!(foo_r.eval(&[-0.5]), 0.0);
        assert_eq!(foo_r.eval(&[-4.5]), 0.0);
        assert_eq!(foo_r.eval(&[2.0]), 0.0);
        assert!(foo_r.eval(&[0.7]) > 0.0);
        assert!(foo_r.eval(&[10.0]) > 0.0);
    }

    #[test]
    fn row4_everything_saturated_means_identically_one() {
        let saturated: BranchSet = [
            BranchId::true_of(0),
            BranchId::false_of(0),
            BranchId::true_of(1),
            BranchId::false_of(1),
        ]
        .into_iter()
        .collect();
        let foo_r = RepresentingFunction::new(paper_example(), saturated);
        for x in [-5.2, 0.7, 1.1, 2.0] {
            assert_eq!(foo_r.eval(&[x]), 1.0, "x = {x}");
        }
    }

    #[test]
    fn condition_c1_non_negative_everywhere() {
        // C1 must hold for every saturation snapshot, not just the ones the
        // driver produces.
        let snapshots: Vec<BranchSet> = vec![
            BranchSet::new(),
            [BranchId::true_of(0)].into_iter().collect(),
            [BranchId::true_of(0), BranchId::false_of(1)]
                .into_iter()
                .collect(),
            [
                BranchId::true_of(0),
                BranchId::false_of(0),
                BranchId::true_of(1),
                BranchId::false_of(1),
            ]
            .into_iter()
            .collect(),
        ];
        for saturated in snapshots {
            let foo_r = RepresentingFunction::new(paper_example(), saturated);
            let mut x = -10.0;
            while x <= 10.0 {
                assert!(foo_r.eval(&[x]) >= 0.0, "x = {x}");
                x += 0.37;
            }
        }
    }

    #[test]
    fn condition_c2_zero_implies_new_saturation() {
        // With {0T, 1F} saturated (covered by x = 0.7): a zero of FOO_R must
        // cover a branch outside that set.
        let saturated: BranchSet = [BranchId::true_of(0), BranchId::false_of(1)]
            .into_iter()
            .collect();
        let foo_r = RepresentingFunction::new(paper_example(), saturated.clone());
        let mut x = -10.0;
        while x <= 10.0 {
            let eval = foo_r.eval_full(&[x]);
            if eval.value == 0.0 {
                let covers_new = eval.covered.iter().any(|b| !saturated.contains(b));
                assert!(covers_new, "zero at x = {x} covers nothing new");
            }
            x += 0.01;
        }
    }

    #[test]
    fn eval_full_and_eval_agree() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let foo_r = RepresentingFunction::new(paper_example(), saturated);
        for x in [-3.0, -0.5, 0.3, 1.5, 2.0] {
            assert_eq!(foo_r.eval(&[x]), foo_r.eval_full(&[x]).value);
        }
    }

    #[test]
    fn custom_epsilon_reaches_the_fast_path_scratch_context() {
        // ε changes the distance of saturated equality branches, so the two
        // paths only agree if with_epsilon updated the reusable context too.
        let saturated: BranchSet = [BranchId::true_of(1), BranchId::false_of(1)]
            .into_iter()
            .collect();
        for epsilon in [coverme_runtime::DEFAULT_EPSILON, 0.5, 2.0] {
            let foo_r =
                RepresentingFunction::new(paper_example(), saturated.clone()).with_epsilon(epsilon);
            for x in [-2.0, -0.5, 0.7, 2.0, 5.0] {
                assert_eq!(
                    foo_r.eval(&[x]).to_bits(),
                    foo_r.eval_full(&[x]).value.to_bits(),
                    "epsilon = {epsilon}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn repeated_fast_path_evaluations_are_stable() {
        // The scratch context is reset between calls: interleaved and
        // repeated evaluations must not leak state into each other.
        let foo_r = RepresentingFunction::new(paper_example(), snapshot_for_stability());
        let first: Vec<u64> = [-0.5, 0.7, 2.0, 0.7, -0.5]
            .iter()
            .map(|&x| foo_r.eval(&[x]).to_bits())
            .collect();
        let second: Vec<u64> = [-0.5, 0.7, 2.0, 0.7, -0.5]
            .iter()
            .map(|&x| foo_r.eval(&[x]).to_bits())
            .collect();
        assert_eq!(first, second);
        assert_eq!(first[0], first[4]);
        assert_eq!(first[1], first[3]);
    }

    fn snapshot_for_stability() -> BranchSet {
        [BranchId::false_of(1)].into_iter().collect()
    }

    #[test]
    fn eval_full_reports_trace_in_execution_order() {
        let foo_r = RepresentingFunction::new(paper_example(), BranchSet::new());
        let eval = foo_r.eval_full(&[0.0]);
        let sites: Vec<u32> = eval.trace.iter().map(|e| e.site).collect();
        assert_eq!(sites, vec![0, 1]);
    }

    #[test]
    fn objective_closure_is_usable_by_the_optimizer() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let foo_r = RepresentingFunction::new(paper_example(), saturated);
        let mut objective = foo_r.objective();
        let result = coverme_optim::BasinHopping::new()
            .iterations(20)
            .seed(3)
            .target_value(0.0)
            .minimize_objective(&mut coverme_optim::FnObjective(&mut objective), &[10.0]);
        assert_eq!(result.value, 0.0);
    }
}
