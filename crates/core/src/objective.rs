//! The objective engine: the evaluation of representing functions.
//!
//! CoverMe's inner loop is millions of `FOO_R(x)` evaluations. Historically
//! every one of them built a fresh [`ExecCtx`] — cloning the saturation
//! snapshot, allocating a covered set and a trace — even though the
//! minimizer only consumes the scalar value. [`ObjectiveEngine`] is the
//! evaluation pipeline restructured around two ideas:
//!
//! * **an allocation-free scalar fast path** — one long-lived
//!   representing-mode context, [`reset`](ExecCtx::reset) between
//!   executions, with trace *and* coverage recording disabled (neither
//!   affects `r`, which `pen` computes from the saturation snapshot alone).
//!   A round boundary swaps the snapshot in place
//!   ([`ExecCtx::retarget`], one clone per round that changed it) instead
//!   of per call;
//! * **one point, one execution** — the engine speaks the [`Objective`]
//!   protocol of `coverme-optim`, and a batch (a Nelder–Mead simplex, a
//!   compass probe star, a shrink step submitted through
//!   [`Objective::eval_batch`]) is a per-point loop with exactly
//!   [`eval_scalar`](ObjectiveEngine::eval_scalar)'s abort handling and
//!   telemetry. Every call executes the program once, so every value and
//!   count is the one a scalar loop produces, whatever the batch size or
//!   grouping — as in the paper's Algorithm 1, which evaluates `FOO_R` one
//!   point at a time. A batch point executes through
//!   [`ExecBackend::run_lanes`] with a single index, which is `run` on the
//!   backend's own eager context (same snapshot, same `ε`), so the
//!   benchmark harness's tracing backend can count batch points apart
//!   from scalar calls.
//!
//! The engine also counts its work: [`EngineTelemetry`] reports objective
//! calls (each one program execution) and aborted executions, which the
//! driver surfaces per function in [`TestReport`](crate::TestReport) and
//! [`CampaignReport`](crate::CampaignReport) (evals, timeouts, traps,
//! evals/sec).
//!
//! The slow path — [`eval_full`](ObjectiveEngine::eval_full), which the
//! driver needs when a minimum reaches zero (Algorithm 1 line 11: record
//! coverage, update saturation, or blame the last conditional) — still
//! materializes everything. The scalar fast path never loses coverage
//! because every accepted zero is re-executed through `eval_full` before
//! the driver consumes it.

use coverme_optim::Objective;
use coverme_runtime::{
    BackendMode, BranchSet, ExecBackend, ExecCtx, InterpBackend, LaneEval, Program, RunOutcome,
    SimdIsa,
};

use crate::representing::Evaluation;

/// The objective value substituted for an aborted execution (fuel
/// exhaustion or a runtime trap, see [`RunOutcome`]). An aborted run's
/// accumulator is a truncated garbage distance; `+∞` is deterministic,
/// never mistaken for a zero, and steers every minimizer away from the
/// region. `+∞` also carries no descent information: a local minimizer
/// that has seen nothing else stops, so an aborted round costs `O(n)`
/// executions per local minimization, not the minimizer's full iteration
/// budget.
pub const ABORTED_VALUE: f64 = f64::INFINITY;

/// A no-op. No product code reads it; the end-to-end benchmark harness
/// (`perfbench/`) passes it from [`CoverMeConfig::cache`](crate::CoverMeConfig::cache)
/// to [`ObjectiveEngine::cache_mode`], and the benchmark-archetype change
/// deletes all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMode;

/// Work counters of an [`ObjectiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTelemetry {
    /// Objective calls answered (scalar, batched and full). Each one is
    /// exactly one program execution.
    pub calls: u64,
    /// Always 0. No product code reads it; the end-to-end benchmark
    /// harness (`perfbench/`) does, and the benchmark-archetype change
    /// deletes it.
    pub cache_hits: u64,
    /// Executions aborted by step-fuel exhaustion
    /// ([`RunOutcome::Timeout`]); their values were substituted with
    /// [`ABORTED_VALUE`].
    pub timeouts: u64,
    /// Executions aborted by a runtime fault ([`RunOutcome::Trap`]);
    /// substituted like timeouts.
    pub traps: u64,
}

impl EngineTelemetry {
    /// Total aborted executions (timeouts + traps).
    pub fn aborts(&self) -> u64 {
        self.timeouts + self.traps
    }

    /// Counts one execution and returns the objective value it stands
    /// for: its own value, or [`ABORTED_VALUE`] for an aborted run (whose
    /// accumulator is garbage), which also lands in the abort counters.
    fn record(&mut self, run: LaneEval) -> f64 {
        self.calls += 1;
        match run.outcome {
            RunOutcome::Done => return run.value,
            RunOutcome::Timeout => self.timeouts += 1,
            RunOutcome::Trap => self.traps += 1,
        }
        ABORTED_VALUE
    }
}

/// The evaluation engine for one program's representing function. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ObjectiveEngine<P> {
    program: P,
    epsilon: f64,
    /// The long-lived fast-path context: representing mode, no trace, no
    /// coverage. Owns the current saturation snapshot.
    ctx: ExecCtx,
    telemetry: EngineTelemetry,
    /// The execution backend every evaluation dispatches through: the
    /// generic [`InterpBackend`] ([`Program::execute`]), or whatever the
    /// program offered via [`Program::backend`] — e.g. the FPIR
    /// instruction tape. Scalar and full evaluations run against the
    /// engine's contexts; batch points run against the backend's own
    /// context, which the engine keeps on the same snapshot and `ε`.
    backend: Box<dyn ExecBackend>,
    /// Reused output buffer of [`ExecBackend::run_lanes`].
    lane_out: Vec<LaneEval>,
}

/// Resolves the execution backend for a program: the program's own offer
/// for the requested mode when it makes one, the generic interpreter
/// backend otherwise; either way configured with the engine's `ε` and
/// pointed at the current snapshot.
fn resolve_backend<P: Program>(
    program: &P,
    mode: BackendMode,
    epsilon: f64,
    saturated: &BranchSet,
) -> Box<dyn ExecBackend> {
    let mut backend = program
        .backend(mode)
        .unwrap_or_else(|| Box::new(InterpBackend::new()));
    backend.set_epsilon(epsilon);
    backend.retarget(saturated);
    backend
}

impl<P: Program> ObjectiveEngine<P> {
    /// Creates an engine for `program` with the given branch-distance `ε`,
    /// targeting the empty saturation snapshot (the state of round 0).
    ///
    /// # Panics
    ///
    /// Panics if the program takes no inputs.
    pub fn new(program: P, epsilon: f64) -> Self {
        assert!(
            program.arity() > 0,
            "program under test must take at least one input"
        );
        let backend = resolve_backend(&program, BackendMode::Auto, epsilon, &BranchSet::new());
        ObjectiveEngine {
            program,
            epsilon,
            ctx: ExecCtx::representing(BranchSet::new())
                .with_epsilon(epsilon)
                .without_trace()
                .without_coverage(),
            telemetry: EngineTelemetry::default(),
            backend,
            lane_out: Vec::new(),
        }
    }

    /// Selects the execution backend (see [`BackendMode`]; the default is
    /// [`BackendMode::Auto`]). Every mode produces bit-identical values,
    /// coverage and telemetry. No search calls it: `Interp` is the oracle
    /// switch of the differential tests and the `objective_engine` bench,
    /// and the end-to-end benchmark harness (`perfbench/`) passes
    /// [`CoverMeConfig::backend`](crate::CoverMeConfig::backend) through
    /// it until the benchmark-archetype change deletes both.
    pub fn backend_mode(mut self, mode: BackendMode) -> Self {
        self.backend = resolve_backend(&self.program, mode, self.epsilon, self.ctx.saturated());
        self
    }

    /// A no-op. No product code calls it; the end-to-end benchmark harness
    /// (`perfbench/`) does, and the benchmark-archetype change deletes it.
    pub fn simd(self, _isa: SimdIsa) -> Self {
        self
    }

    /// A no-op. No product code calls it; the end-to-end benchmark harness
    /// (`perfbench/`) does, and the benchmark-archetype change deletes it
    /// with [`CacheMode`].
    pub fn cache_mode(self, _mode: CacheMode) -> Self {
        self
    }

    /// The name of the execution backend actually in use (`"interp"`,
    /// `"tape"`, …) — the effective backend, not the requested mode: an
    /// engine asked for [`BackendMode::Auto`] on a native port, which has
    /// no tape, reports `"interp"`.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The program under evaluation.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Number of inputs of the underlying program.
    pub fn arity(&self) -> usize {
        self.program.arity()
    }

    /// The saturation snapshot the engine currently evaluates against.
    pub fn saturated(&self) -> &BranchSet {
        self.ctx.saturated()
    }

    /// Work counters accumulated so far.
    pub fn telemetry(&self) -> EngineTelemetry {
        self.telemetry
    }

    /// Points the engine at a new saturation snapshot (the start of a
    /// driver round). A snapshot equal to the current one is a no-op, so a
    /// round that made no saturation progress skips the clone.
    pub fn retarget(&mut self, saturated: &BranchSet) {
        if self.ctx.saturated() == saturated {
            return;
        }
        self.ctx.retarget(saturated.clone());
        self.backend.retarget(saturated);
    }

    /// Evaluates `FOO_R(x)` on the allocation-free fast path: one
    /// execution.
    pub fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        self.ctx.reset();
        self.backend.run(&self.program, x, &mut self.ctx);
        self.telemetry.record(LaneEval {
            value: self.ctx.representing_value(),
            outcome: self.ctx.run_outcome(),
        })
    }

    /// Evaluates `FOO_R` at every point of `points`, in order, appending one
    /// value per point to `values`. Each point gets exactly
    /// [`eval_scalar`](Self::eval_scalar)'s abort handling and telemetry,
    /// and executes through [`ExecBackend::run_lanes`] with the point's
    /// single index (see the [module docs](self)).
    pub fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        values.reserve(points.len());
        for index in 0..points.len() {
            self.lane_out.clear();
            self.backend
                .run_lanes(&self.program, points, &[index], &mut self.lane_out);
            values.push(self.telemetry.record(self.lane_out[0]));
        }
    }

    /// Evaluates `FOO_R(x)` keeping the covered branches and the decision
    /// trace — the slow path the driver uses on each round's minimum, on
    /// polished candidates and on warm-start replays. One execution,
    /// counted like a scalar call. An aborted run's value is
    /// [`ABORTED_VALUE`], and its truncated coverage and trace come back
    /// tagged with the outcome so the driver can discard them.
    pub fn eval_full(&mut self, x: &[f64]) -> Evaluation {
        let mut ctx =
            ExecCtx::representing(self.ctx.saturated().clone()).with_epsilon(self.epsilon);
        self.backend.run(&self.program, x, &mut ctx);
        let outcome = ctx.run_outcome();
        let (covered, trace, value) = ctx.into_parts();
        Evaluation {
            value: self.telemetry.record(LaneEval { value, outcome }),
            covered,
            trace,
            outcome,
        }
    }
}

impl<P: Program> Objective for ObjectiveEngine<P> {
    fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        ObjectiveEngine::eval_scalar(self, x)
    }

    fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        ObjectiveEngine::eval_batch(self, points, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representing::RepresentingFunction;
    use coverme_runtime::{BranchId, Cmp, FnProgram, DEFAULT_EPSILON};

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

    fn snapshot_1f() -> BranchSet {
        [BranchId::false_of(1)].into_iter().collect()
    }

    /// Asserts that the engine's fast path returns exactly the legacy
    /// representing function's value at every `x`.
    fn assert_fast_path_matches<P: Program>(program: &P, saturated: BranchSet, xs: &[f64]) {
        let foo_r = RepresentingFunction::new(program, saturated.clone());
        let mut engine = ObjectiveEngine::new(program, DEFAULT_EPSILON);
        engine.retarget(&saturated);
        for &x in xs {
            assert_eq!(
                engine.eval_scalar(&[x]).to_bits(),
                foo_r.eval(&[x]).to_bits(),
                "x = {x}"
            );
        }
    }

    #[test]
    fn fast_path_matches_representing_function_bit_for_bit() {
        let grid: Vec<f64> = (0..55).map(|i| -10.0 + 0.37 * i as f64).collect();
        assert_fast_path_matches(&paper_example(), snapshot_1f(), &grid);
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinct_keys() {
        // A program that branches on the raw sign bit tells -0.0 from 0.0,
        // and the fast path must too; NaN payloads must reach the program
        // bit for bit.
        let signbit = FnProgram::new("signbit", 1, 1, |input: &[f64], ctx: &mut ExecCtx| {
            // Fdlibm-style high-word extraction: the sign lands in bit 31
            // of the i32, so -0.0 has hi < 0 while 0.0 has hi == 0.
            let hi = (input[0].to_bits() >> 32) as i32;
            if ctx.branch_i32(0, Cmp::Lt, hi, 0) {
                // negative half, including -0.0
            }
        });
        let saturated: BranchSet = [BranchId::true_of(0)].into_iter().collect();
        let nan_payloads = [
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0002),
        ];
        let mut edges = vec![0.0, -0.0];
        edges.extend(nan_payloads);
        assert_fast_path_matches(&signbit, saturated.clone(), &edges);
        let mut engine = ObjectiveEngine::new(&signbit, DEFAULT_EPSILON);
        engine.retarget(&saturated);
        assert_ne!(
            engine.eval_scalar(&[0.0]).to_bits(),
            engine.eval_scalar(&[-0.0]).to_bits()
        );
    }

    #[test]
    fn eval_full_matches_legacy_full_evaluation() {
        let program = paper_example();
        let foo_r = RepresentingFunction::new(&program, snapshot_1f());
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
        engine.retarget(&snapshot_1f());
        for x in [-4.5, -0.5, 0.3, 1.5, 2.0] {
            let ours = engine.eval_full(&[x]);
            let legacy = foo_r.eval_full(&[x]);
            assert_eq!(ours.value.to_bits(), legacy.value.to_bits());
            assert_eq!(ours.covered, legacy.covered);
            assert_eq!(ours.trace, legacy.trace);
        }
    }

    #[test]
    fn batch_evaluation_matches_scalar_order_and_values() {
        let points: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 * 0.61 - 5.0]).collect();
        let mut batched_engine = ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON);
        batched_engine.retarget(&snapshot_1f());
        let mut values = Vec::new();
        batched_engine.eval_batch(&points, &mut values);
        let mut scalar_engine = ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON);
        scalar_engine.retarget(&snapshot_1f());
        for (point, value) in points.iter().zip(&values) {
            assert_eq!(scalar_engine.eval_scalar(point).to_bits(), value.to_bits());
        }
        assert_eq!(batched_engine.telemetry(), scalar_engine.telemetry());
    }

    #[test]
    fn batch_points_follow_the_snapshot_and_epsilon_across_a_backend_swap() {
        // Batch points execute against the backend's own context; a
        // backend chosen after a retarget must still see the engine's
        // snapshot and `ε`.
        let epsilon = 0.25;
        let points: Vec<Vec<f64>> = (0..11).map(|i| vec![i as f64 * 0.73 - 4.0]).collect();
        // With 0T and both sides of site 1 saturated, `r` is the strict
        // distance to `x > 1`, which carries `ε`.
        let saturated: BranchSet = [
            BranchId::true_of(0),
            BranchId::true_of(1),
            BranchId::false_of(1),
        ]
        .into_iter()
        .collect();
        let mut engine = ObjectiveEngine::new(paper_example(), epsilon);
        engine.retarget(&saturated);
        let mut engine = engine.backend_mode(BackendMode::Interp);
        let mut values = Vec::new();
        engine.eval_batch(&points, &mut values);
        for (point, value) in points.iter().zip(&values) {
            assert_eq!(engine.eval_scalar(point).to_bits(), value.to_bits());
        }
        assert!(values.iter().any(|&value| value > 0.0));
    }

    /// A program that aborts (marks a timeout) whenever its input is
    /// negative — the shape of an interpreted program whose loop diverges
    /// on half the domain.
    fn sometimes_aborting() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("flaky", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let x = input[0];
            if ctx.branch(0, Cmp::Lt, x, 0.0) {
                ctx.mark_timeout();
                return; // truncated run: site 1 never reached
            }
            if ctx.branch(1, Cmp::Eq, x, 4.0) {
                // target
            }
        })
    }

    #[test]
    fn aborted_scalar_evals_return_the_sentinel_and_count_as_aborts() {
        let mut engine = ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON);
        engine.retarget(&snapshot_1f());
        assert_eq!(engine.eval_scalar(&[-1.0]), ABORTED_VALUE);
        assert_eq!(engine.eval_scalar(&[-1.0]), ABORTED_VALUE);
        let t = engine.telemetry();
        assert_eq!(t.calls, 2);
        assert_eq!((t.timeouts, t.traps), (2, 0));
        assert_eq!(t.aborts(), 2);
        // Clean inputs still evaluate normally.
        assert!(engine.eval_scalar(&[2.0]).is_finite());
        assert_eq!(engine.telemetry().calls, 3);
        assert_eq!(engine.telemetry().aborts(), 2);
    }

    #[test]
    fn aborting_batch_matches_scalar_values_and_telemetry() {
        let points: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 * 0.7 - 5.0]).collect();
        let mut batched = ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON);
        batched.retarget(&snapshot_1f());
        let mut values = Vec::new();
        batched.eval_batch(&points, &mut values);
        let mut scalar = ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON);
        scalar.retarget(&snapshot_1f());
        for (point, value) in points.iter().zip(&values) {
            assert_eq!(
                scalar.eval_scalar(point).to_bits(),
                value.to_bits(),
                "{point:?}"
            );
        }
        assert_eq!(batched.telemetry(), scalar.telemetry());
        assert!(batched.telemetry().timeouts > 0);
    }

    #[test]
    fn eval_full_tags_aborted_runs() {
        let mut engine = ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON);
        engine.retarget(&snapshot_1f());
        let aborted = engine.eval_full(&[-2.0]);
        assert_eq!(aborted.outcome, RunOutcome::Timeout);
        assert_eq!(aborted.value, ABORTED_VALUE);
        let clean = engine.eval_full(&[2.0]);
        assert_eq!(clean.outcome, RunOutcome::Done);
        assert!(clean.value.is_finite());
        let t = engine.telemetry();
        assert_eq!((t.calls, t.timeouts, t.traps), (2, 1, 0));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_zero_arity_programs() {
        let program = FnProgram::new("nullary", 0, 0, |_: &[f64], _: &mut ExecCtx| {});
        let _ = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
    }
}
