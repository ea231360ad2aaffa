//! The execution-backend layer: how representing-function evaluations are
//! actually carried out.
//!
//! Every evaluation — scalar, batched or full — is one eager execution:
//! [`ExecBackend::run`] against an [`ExecCtx`] the caller owns, or, for a
//! batch point, [`ExecBackend::run_lanes`] with a single index, which runs
//! the same execution on the backend's own eager representing context:
//!
//! * [`InterpBackend`] calls [`Program::execute`] (whatever executor the
//!   program embeds — the fdlibm ports run native Rust). Works for every
//!   program.
//! * A program can provide its own backend through
//!   [`Program::backend`] — every FPIR program is lowered to a flat
//!   instruction tape and returns a tape backend that runs it. Its
//!   tree-walking interpreter is reached only under
//!   [`BackendMode::Interp`], as the differential tests' oracle.
//!
//! Whatever the backend, the contract is **bit-exactness**: values,
//! coverage, traces and [`RunOutcome`] classification must be
//! indistinguishable from [`Program::execute`] under an eager
//! [`ExecCtx`]. The backend seam is a throughput knob, never a semantic
//! one.
//!
//! The trait still carries names of the deleted lane path that the
//! end-to-end benchmark harness (`perfbench/`) links:
//! [`lane_width`](ExecBackend::lane_width),
//! [`simd_isa`](ExecBackend::simd_isa), [`set_simd`](ExecBackend::set_simd)
//! and [`min_batch`](ExecBackend::min_batch), plus [`SimdIsa`]. No product
//! code calls them. [`run_lanes`](ExecBackend::run_lanes) (with
//! [`LaneEval`], [`set_epsilon`](ExecBackend::set_epsilon) and
//! [`retarget`](ExecBackend::retarget)) is no lane kernel either: it loops
//! `run` through [`run_each`], and the objective engine sends batch points
//! through it one index at a time so that the harness's tracing backend
//! counts them apart from scalar calls. The benchmark-archetype change,
//! which may edit `perfbench/`, deletes all of them and sends batch points
//! through `run`.

use crate::branch::BranchSet;
use crate::context::{ExecCtx, RunOutcome};
use crate::program::Program;

/// Which execution backend an evaluation pipeline should use.
///
/// No product path sets it: every search runs [`Auto`](Self::Auto), and
/// [`Interp`](Self::Interp) is the oracle switch of the differential tests
/// and the `objective_engine` bench. The end-to-end benchmark harness
/// (`perfbench/`) links the type and [`Program::backend`] by name; the
/// benchmark-archetype change deletes both and gives the tests an
/// interpreter switch of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendMode {
    /// Let the program pick: programs that carry a compiled form (the FPIR
    /// tape) use it, everything else runs [`Program::execute`].
    #[default]
    Auto,
    /// Force [`Program::execute`] per evaluation, which for FPIR programs
    /// is the tree-walking interpreter. Every program supports this.
    Interp,
}

/// A single-variant instruction-set type of the deleted lane kernels. No
/// product code calls it; the benchmark harness (`perfbench/`) links it by
/// name, and the benchmark-archetype change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdIsa {
    /// Plain scalar code, the only kind there is.
    Portable,
}

impl SimdIsa {
    /// Stable lowercase label (`"portable"`). Benchmark-harness shim.
    pub fn label(self) -> &'static str {
        "portable"
    }

    /// Parses a label (the inverse of [`label`](Self::label)).
    /// Benchmark-harness shim.
    pub fn parse(s: &str) -> Option<SimdIsa> {
        (s == "portable").then_some(SimdIsa::Portable)
    }

    /// Always `true`. Benchmark-harness shim.
    pub fn is_supported(self) -> bool {
        true
    }

    /// Always 1: there are no lanes. Benchmark-harness shim.
    pub fn lane_width(self) -> usize {
        1
    }

    /// Accepts the only ISA there is; a no-op. Benchmark-harness shim.
    pub fn force(_isa: SimdIsa) -> Result<(), String> {
        Ok(())
    }

    /// Always [`SimdIsa::Portable`]. Benchmark-harness shim.
    pub fn active() -> SimdIsa {
        SimdIsa::Portable
    }
}

/// Value and classification of one point of a
/// [`run_lanes`](ExecBackend::run_lanes) call. The benchmark-archetype
/// change deletes it with `run_lanes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneEval {
    /// The representing-function value. Meaningless (and discarded by
    /// consumers) when `outcome` is not [`RunOutcome::Done`].
    pub value: f64,
    /// How the execution ended.
    pub outcome: RunOutcome,
}

/// An execution strategy for representing-function evaluations.
///
/// Implementations must be observably identical to executing the program
/// through [`Program::execute`]: same values (bit-for-bit), same coverage
/// and trace on recording contexts, same [`RunOutcome`] classification.
pub trait ExecBackend: std::fmt::Debug + Send {
    /// Stable backend name recorded in reports and bench artifacts.
    fn name(&self) -> &'static str;

    /// Always 1: there are no lanes. No product code calls it; the
    /// benchmark harness's tracing backend forwards it, and the
    /// benchmark-archetype change deletes it.
    fn lane_width(&self) -> usize {
        1
    }

    /// Always [`SimdIsa::Portable`]. No product code calls it; kept for
    /// the benchmark harness until the benchmark-archetype change.
    fn simd_isa(&self) -> SimdIsa {
        SimdIsa::Portable
    }

    /// A no-op. No product code calls it; kept for the benchmark harness
    /// until the benchmark-archetype change.
    fn set_simd(&mut self, _isa: SimdIsa) {}

    /// Always 1: every batch runs point by point. No product code calls
    /// it; kept for the benchmark harness until the benchmark-archetype
    /// change.
    fn min_batch(&self) -> usize {
        1
    }

    /// Sets the `ε` of the context behind [`run_lanes`](Self::run_lanes)
    /// (the [`ExecCtx`] passed to [`run`](Self::run) carries its own `ε`).
    /// Deleted with `run_lanes` by the benchmark-archetype change.
    fn set_epsilon(&mut self, epsilon: f64);

    /// Points the context behind [`run_lanes`](Self::run_lanes) at a new
    /// saturation snapshot. Deleted with `run_lanes` by the
    /// benchmark-archetype change.
    fn retarget(&mut self, saturated: &BranchSet);

    /// Executes `program` on `input` against `ctx`. `ctx` may be in any
    /// mode (eager representing, observe, …); the backend must report
    /// branches through it exactly as [`Program::execute`] would.
    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx);

    /// Evaluates the representing function at `points[i]` for every `i` in
    /// `indices`, appending one [`LaneEval`] per index (in order) to `out`,
    /// against the snapshot and `ε` last given to
    /// [`retarget`](Self::retarget) and [`set_epsilon`](Self::set_epsilon).
    /// Implementations loop [`run`](Self::run) through [`run_each`], so a
    /// point's value is bit-identical to `run` on an eager context. The
    /// objective engine calls it with one index per batch point; the
    /// benchmark harness's tracing backend counts those calls. The
    /// benchmark-archetype change deletes it.
    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    );

    /// Clones the backend into a box (manual object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn ExecBackend>;
}

impl Clone for Box<dyn ExecBackend> {
    fn clone(&self) -> Box<dyn ExecBackend> {
        self.clone_box()
    }
}

/// The shared body of every backend's
/// [`run_lanes`](ExecBackend::run_lanes): runs `execute` (the backend's
/// [`run`](ExecBackend::run)) on `points[i]` against `ctx` for every `i` in
/// `indices`, one point at a time, appending one [`LaneEval`] per index.
/// `ctx` is the backend's eager representing context without trace or
/// coverage, kept current by [`set_epsilon`](ExecBackend::set_epsilon) and
/// [`retarget`](ExecBackend::retarget). Deleted with `run_lanes` by the
/// benchmark-archetype change.
pub fn run_each(
    ctx: &mut ExecCtx,
    points: &[Vec<f64>],
    indices: &[usize],
    out: &mut Vec<LaneEval>,
    mut execute: impl FnMut(&[f64], &mut ExecCtx),
) {
    for &index in indices {
        ctx.reset();
        execute(&points[index], ctx);
        out.push(LaneEval {
            value: ctx.representing_value(),
            outcome: ctx.run_outcome(),
        });
    }
}

/// The historical backend: [`Program::execute`] per evaluation. Works for
/// every program.
#[derive(Debug, Clone)]
pub struct InterpBackend {
    /// The context behind [`run_lanes`](ExecBackend::run_lanes).
    lanes: ExecCtx,
}

impl InterpBackend {
    /// Creates the backend.
    pub fn new() -> InterpBackend {
        InterpBackend {
            lanes: ExecCtx::representing(BranchSet::new())
                .without_trace()
                .without_coverage(),
        }
    }
}

impl Default for InterpBackend {
    fn default() -> InterpBackend {
        InterpBackend::new()
    }
}

impl ExecBackend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        self.lanes = self.lanes.clone().with_epsilon(epsilon);
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.lanes.retarget(saturated.clone());
    }

    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        program.execute(input, ctx);
    }

    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        run_each(&mut self.lanes, points, indices, out, |input, ctx| {
            program.execute(input, ctx)
        });
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchId;
    use crate::distance::{Cmp, DEFAULT_EPSILON};
    use crate::program::FnProgram;

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
    fn interp_backend_lanes_match_eager_execution() {
        // `run_lanes` loops `run` on the backend's own context; it must answer
        // exactly what `run` does on an eager context.
        let program = paper_example();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut backend = InterpBackend::new();
        backend.set_epsilon(DEFAULT_EPSILON);
        backend.retarget(&saturated);
        assert_eq!(backend.name(), "interp");
        assert_eq!(backend.lane_width(), 1);
        assert_eq!(backend.min_batch(), 1);

        let points: Vec<Vec<f64>> = (0..19).map(|i| vec![i as f64 * 0.61 - 7.0]).collect();
        let indices: Vec<usize> = (0..points.len()).rev().step_by(2).collect();
        let mut evals = Vec::new();
        backend.run_lanes(&program, &points, &indices, &mut evals);
        assert_eq!(evals.len(), indices.len());
        for (&index, eval) in indices.iter().zip(&evals) {
            let mut eager = ExecCtx::representing(saturated.clone());
            backend.run(&program, &points[index], &mut eager);
            assert_eq!(eval.value.to_bits(), eager.representing_value().to_bits());
            assert_eq!(eval.outcome, RunOutcome::Done);
        }
    }

    #[test]
    fn simd_isa_labels_round_trip_and_reject_unknowns() {
        let isa = SimdIsa::active();
        assert_eq!(SimdIsa::parse(isa.label()), Some(isa));
        assert_eq!(isa.lane_width(), 1);
        assert!(isa.is_supported());
        assert_eq!(SimdIsa::force(isa), Ok(()));
        for gone in ["sse2", "avx2", "avx512", ""] {
            assert_eq!(SimdIsa::parse(gone), None);
        }
    }

    #[test]
    fn interp_backend_run_reports_through_the_ctx() {
        let program = paper_example();
        let mut backend = InterpBackend::new();
        let mut ctx = ExecCtx::observe();
        backend.run(&program, &[2.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::false_of(0)));
        assert!(ctx.covered().contains(BranchId::true_of(1)));
    }

    #[test]
    fn boxed_backends_clone() {
        let backend: Box<dyn ExecBackend> = Box::new(InterpBackend::new());
        let clone = backend.clone();
        assert_eq!(clone.name(), "interp");
    }
}
