//! The lane backend: data-parallel evaluation of a representing function
//! over a batch of independent inputs.
//!
//! The candidates a minimizer submits in one batch — a Nelder–Mead simplex,
//! a compass probe star, a shard's start schedule — are independent, so
//! their evaluations can execute in lockstep. Programs under test are
//! native code (hand-instrumented Rust ports, the FPIR interpreter or the
//! compiled FPIR tape), so their *control flow* is not run
//! one-instruction-per-lane the way a SIMT interpreter would; what fuses
//! across lanes instead is the instrumentation itself, split into two
//! phases:
//!
//! 1. **record** — each lane executes the program once through a shared
//!    deferred-penalty [`ExecCtx`] ([`ExecCtx::deferred_pen`]). Per
//!    conditional, the injected `r = pen(...)` assignment collapses to a
//!    single *gather* into a per-site pen-code table plus a mask-style
//!    overwrite of the lane's pending-event slot — no distance arithmetic,
//!    no coverage or trace bookkeeping. This exploits the algebra of
//!    Definition 4.2: `pen` either overwrites `r` with a value that does
//!    not depend on the previous `r`, or keeps `r`; so the final `r` is a
//!    function of the **last** event at a not-fully-saturated site alone,
//!    and every earlier distance computation is dead work. Per-lane
//!    divergence costs nothing here — lanes that branch differently simply
//!    record different pending events;
//! 2. **finalize** — the harvested pending events sit in structure-of-array
//!    lane buffers (`[f64; LANE_WIDTH]` operand arrays, one code byte per
//!    lane), and the one distance per lane that actually determines the
//!    value is computed for all lanes by the [`crate::simd`] lane kernels.
//!
//! One finalize packs [`LANE_WIDTH`] lanes, on every machine. The record
//! phase takes the execution as a closure, so every backend — the
//! interpreter/native one and the FPIR tape — batches through this one
//! protocol ([`LaneCtx::run_lanes`]).
//!
//! Bit-exactness with the scalar path is non-negotiable and holds by
//! construction: the finalize performs exactly the [`distance`] call
//! (same operands, same `ε`, same operation order) the last live `pen` of
//! an eager execution performs — the lane kernel mirrors the scalar
//! select structure operation for operation — and dropping the overwritten
//! earlier calls cannot change the bits of the surviving one. The property
//! suites (`lane_properties` in `coverme-core`) pin this on generated
//! programs, snapshots, and NaN/inf inputs at every batch size.
//!
//! [`distance`]: crate::distance

use crate::backend::LaneEval;
use crate::branch::BranchSet;
use crate::context::{pen_code, ExecCtx, PendingPen, RunOutcome};
use crate::distance::Cmp;
use crate::simd;

/// Number of lanes one lockstep finalize packs: the size of a
/// [`LaneCtx`]'s SoA buffers and of every backend's lane chunks. Batch
/// producers that size a candidate stream freely learn it through
/// `Objective::preferred_batch` in `coverme-optim`; fixed-size sets (a
/// probe star, a simplex) are evaluated as-is in partially filled chunks.
pub const LANE_WIDTH: usize = 8;

/// Smallest batch for which the lane path beats the scalar fast path.
/// Below this, per-batch setup (harvest + finalize) outweighs the deferred
/// per-branch savings, so batch dispatchers fall back to scalar evaluation.
/// Record (a full program execution per lane) dominates below it.
pub const MIN_LANE_BATCH: usize = 4;

/// The lane-parallel evaluation context. See the [module docs](self).
///
/// A `LaneCtx` is long-lived, like the objective engine's scalar context:
/// [`retarget`](Self::retarget) swaps the saturation snapshot per round
/// (one pen-code table rebuild), and recording reuses one deferred
/// [`ExecCtx`] across every lane of every batch.
#[derive(Debug, Clone)]
pub struct LaneCtx {
    /// The shared deferred-penalty recording context.
    ctx: ExecCtx,
    /// Pen-dispatch code per recorded lane ([`pen_code`] values).
    codes: [u8; LANE_WIDTH],
    /// Comparison operator per recorded lane.
    ops: [Cmp; LANE_WIDTH],
    /// Left comparison operand per recorded lane.
    lhs: [f64; LANE_WIDTH],
    /// Right comparison operand per recorded lane.
    rhs: [f64; LANE_WIDTH],
    /// How each recorded lane's execution ended.
    outcomes: [RunOutcome; LANE_WIDTH],
    /// Value scratch [`run_lanes`](Self::run_lanes) finalizes into.
    values: Vec<f64>,
    /// Number of recorded, not-yet-finalized lanes.
    lanes: usize,
}

impl LaneCtx {
    /// Creates a lane context evaluating against the given saturation
    /// snapshot with the default `ε`.
    pub fn new(saturated: BranchSet) -> LaneCtx {
        LaneCtx {
            ctx: ExecCtx::representing(saturated).deferred_pen(),
            codes: [pen_code::IDLE; LANE_WIDTH],
            ops: [Cmp::Eq; LANE_WIDTH],
            lhs: [0.0; LANE_WIDTH],
            rhs: [0.0; LANE_WIDTH],
            outcomes: [RunOutcome::Done; LANE_WIDTH],
            values: Vec::with_capacity(LANE_WIDTH),
            lanes: 0,
        }
    }

    /// Overrides the `ε` used by the branch distances.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive.
    pub fn with_epsilon(mut self, epsilon: f64) -> LaneCtx {
        self.ctx = self.ctx.with_epsilon(epsilon);
        self
    }

    /// The `ε` in use.
    pub fn epsilon(&self) -> f64 {
        self.ctx.epsilon()
    }

    /// The saturation snapshot the lanes evaluate against.
    pub fn saturated(&self) -> &BranchSet {
        self.ctx.saturated()
    }

    /// Replaces the saturation snapshot (one pen-code table rebuild, no
    /// per-evaluation cost).
    ///
    /// # Panics
    ///
    /// Panics if lanes were recorded but not yet finalized.
    pub fn retarget(&mut self, saturated: BranchSet) {
        assert_eq!(self.lanes, 0, "retarget with unfinalized lanes pending");
        self.ctx.retarget(saturated);
    }

    /// Number of recorded, not-yet-finalized lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether every lane slot is filled (the caller should finalize).
    pub fn is_full(&self) -> bool {
        self.lanes == LANE_WIDTH
    }

    /// Whether no lane is recorded.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Records one lane: runs `execute` once against the deferred context
    /// and harvests the surviving pending event into the lane buffers.
    /// `execute` is the program's execution on the lane's input — a
    /// [`Program::execute`](crate::Program::execute) call, or any other
    /// executor that reports branches through the [`ExecCtx`] (the FPIR
    /// tape). Returns how the execution ended so a dispatcher can handle
    /// aborted runs (substitute a sentinel value, skip memoization) — the
    /// lane itself is recorded either way, keeping lane/value indices
    /// aligned.
    ///
    /// # Panics
    ///
    /// Panics if all [`LANE_WIDTH`] lanes are already filled.
    pub fn record(&mut self, execute: impl FnOnce(&mut ExecCtx)) -> RunOutcome {
        assert!(self.lanes < LANE_WIDTH, "all lanes filled; finalize first");
        self.ctx.reset();
        execute(&mut self.ctx);
        let PendingPen { code, op, lhs, rhs } = self.ctx.pending_pen();
        let lane = self.lanes;
        self.codes[lane] = code;
        self.ops[lane] = op;
        self.lhs[lane] = lhs;
        self.rhs[lane] = rhs;
        self.outcomes[lane] = self.ctx.run_outcome();
        self.lanes += 1;
        self.outcomes[lane]
    }

    /// Resolves every recorded lane in one lockstep pass, appending one
    /// value per lane (in record order) to `values`, and clears the lanes.
    ///
    /// Delegates to [`resolve_pen_lanes`]: runs whose lanes agree on the
    /// pen code and comparison go through the distance lane kernel over the
    /// SoA operand arrays; divergent lanes fall back to the scalar per-lane
    /// resolve. Either path computes exactly the `distance` call the eager
    /// path would have kept, bit for bit.
    pub fn finalize_into(&mut self, values: &mut Vec<f64>) {
        let epsilon = self.epsilon();
        let lanes = self.lanes;
        resolve_pen_lanes(
            &self.codes[..lanes],
            &self.ops[..lanes],
            &self.lhs[..lanes],
            &self.rhs[..lanes],
            epsilon,
            values,
        );
        self.lanes = 0;
    }

    /// Evaluates `FOO_R` at `points[i]` for every `i` in `indices`,
    /// appending one [`LaneEval`] per index (in order) to `out`: the indices
    /// are packed into [`LANE_WIDTH`]-wide chunks, each chunk recorded lane
    /// by lane through `execute(point, ctx)` and finalized in lockstep. This
    /// is the whole batched path of every [`ExecBackend`](crate::ExecBackend).
    ///
    /// # Panics
    ///
    /// Panics if lanes were recorded but not yet finalized.
    pub fn run_lanes(
        &mut self,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
        mut execute: impl FnMut(&[f64], &mut ExecCtx),
    ) {
        assert_eq!(self.lanes, 0, "run_lanes with unfinalized lanes pending");
        out.reserve(indices.len());
        for chunk in indices.chunks(LANE_WIDTH) {
            for &index in chunk {
                self.record(|ctx| execute(&points[index], ctx));
            }
            let mut values = std::mem::take(&mut self.values);
            values.clear();
            self.finalize_into(&mut values);
            out.extend(
                values
                    .iter()
                    .zip(&self.outcomes)
                    .map(|(&value, &outcome)| LaneEval { value, outcome }),
            );
            self.values = values;
        }
    }

    /// Evaluates `FOO_R` over a whole batch of points, executing each
    /// through `execute(point, ctx)`: points are packed into
    /// [`LANE_WIDTH`]-wide chunks, each chunk recorded lane by lane and
    /// finalized in lockstep. One value per point is appended to `values`
    /// in input order; `values` is not cleared.
    ///
    /// # Panics
    ///
    /// Panics if lanes were recorded but not yet finalized.
    pub fn eval_batch(
        &mut self,
        points: &[Vec<f64>],
        values: &mut Vec<f64>,
        mut execute: impl FnMut(&[f64], &mut ExecCtx),
    ) {
        assert_eq!(self.lanes, 0, "eval_batch with unfinalized lanes pending");
        values.reserve(points.len());
        for chunk in points.chunks(LANE_WIDTH) {
            for point in chunk {
                self.record(|ctx| execute(point, ctx));
            }
            self.finalize_into(values);
        }
    }
}

impl Default for LaneCtx {
    fn default() -> LaneCtx {
        LaneCtx::new(BranchSet::new())
    }
}

/// Resolves one pending penalty event — the scalar counterpart of
/// [`resolve_pen_lanes`], bit-identical to the last live `pen` of an eager
/// execution.
///
/// # Panics
///
/// Panics if `code` is [`pen_code::KEEP`] (a kept event is never pending).
pub fn resolve_pen(code: u8, op: Cmp, lhs: f64, rhs: f64, epsilon: f64) -> f64 {
    PendingPen { code, op, lhs, rhs }.resolve(epsilon)
}

/// Resolves a structure-of-arrays batch of pending penalty events,
/// appending one value per event (in order) to `values`.
///
/// The batch is scanned for maximal *uniform runs* — consecutive lanes
/// carrying the same pen code and comparison operator, the common case
/// since a batch usually probes one program around one target. Each run
/// of at least [`MIN_LANE_BATCH`] lanes becomes a single
/// [`simd::distance_lanes`] kernel call over the operand slices. Shorter
/// or divergent runs resolve lane by lane. Both paths compute exactly
/// [`crate::distance`] on the recorded operands, so values are
/// bit-identical to scalar resolution whichever path runs.
///
/// # Panics
///
/// Panics if the slice lengths disagree or a code is [`pen_code::KEEP`].
pub fn resolve_pen_lanes(
    codes: &[u8],
    ops: &[Cmp],
    lhs: &[f64],
    rhs: &[f64],
    epsilon: f64,
    values: &mut Vec<f64>,
) {
    let n = codes.len();
    assert!(
        ops.len() == n && lhs.len() == n && rhs.len() == n,
        "SoA slice lengths disagree"
    );
    values.reserve(n);
    let mut start = 0;
    while start < n {
        let code = codes[start];
        let op = ops[start];
        let mut end = start + 1;
        while end < n && codes[end] == code && ops[end] == op {
            end += 1;
        }
        if code != pen_code::KEEP && end - start >= MIN_LANE_BATCH {
            let at = values.len();
            values.resize(at + (end - start), 0.0);
            let out = &mut values[at..];
            match code {
                pen_code::IDLE => out.fill(1.0),
                pen_code::OPEN => out.fill(0.0),
                pen_code::FALSE_SATURATED => {
                    simd::distance_lanes(op, &lhs[start..end], &rhs[start..end], epsilon, out);
                }
                pen_code::TRUE_SATURATED => {
                    simd::distance_lanes(
                        op.negate(),
                        &lhs[start..end],
                        &rhs[start..end],
                        epsilon,
                        out,
                    );
                }
                _ => unreachable!(),
            }
        } else {
            for lane in start..end {
                values.push(resolve_pen(
                    codes[lane],
                    ops[lane],
                    lhs[lane],
                    rhs[lane],
                    epsilon,
                ));
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchId;
    use crate::distance::DEFAULT_EPSILON;
    use crate::program::{FnProgram, Program};

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

    fn snapshots() -> Vec<BranchSet> {
        vec![
            BranchSet::new(),
            [BranchId::false_of(1)].into_iter().collect(),
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
        ]
    }

    #[test]
    fn lane_values_match_eager_execution_bit_for_bit() {
        let program = paper_example();
        for saturated in snapshots() {
            let mut lane = LaneCtx::new(saturated.clone());
            let points: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 * 0.61 - 7.0]).collect();
            let mut values = Vec::new();
            lane.eval_batch(&points, &mut values, |x, ctx| program.execute(x, ctx));
            assert_eq!(values.len(), points.len());
            for (point, value) in points.iter().zip(&values) {
                let mut eager = ExecCtx::representing(saturated.clone());
                program.execute(point, &mut eager);
                assert_eq!(
                    value.to_bits(),
                    eager.representing_value().to_bits(),
                    "snapshot {saturated:?}, point {point:?}"
                );
            }
        }
    }

    #[test]
    fn deferred_context_matches_eager_on_specials() {
        let program = paper_example();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut deferred = ExecCtx::representing(saturated.clone()).deferred_pen();
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1e300,
            5e-324,
        ] {
            deferred.reset();
            program.execute(&[x], &mut deferred);
            let mut eager = ExecCtx::representing(saturated.clone());
            program.execute(&[x], &mut eager);
            assert_eq!(
                deferred.representing_value().to_bits(),
                eager.representing_value().to_bits(),
                "x = {x}"
            );
        }
    }

    #[test]
    fn record_and_finalize_clear_the_lanes() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        assert!(lane.is_empty());
        lane.record(|ctx| program.execute(&[0.5], ctx));
        lane.record(|ctx| program.execute(&[2.0], ctx));
        assert_eq!(lane.lanes(), 2);
        let mut values = Vec::new();
        lane.finalize_into(&mut values);
        assert_eq!(values, vec![0.0, 0.0]);
        assert!(lane.is_empty());
    }

    #[test]
    fn retarget_changes_the_target_snapshot() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        let mut values = Vec::new();
        lane.eval_batch(&[vec![0.3]], &mut values, |x, ctx| program.execute(x, ctx));
        assert_eq!(values, vec![0.0]);
        lane.retarget([BranchId::false_of(1)].into_iter().collect());
        values.clear();
        lane.eval_batch(&[vec![0.3]], &mut values, |x, ctx| program.execute(x, ctx));
        assert!(values[0] > 0.0);
    }

    #[test]
    fn partially_filled_last_chunk_is_finalized() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        let points: Vec<Vec<f64>> = (0..LANE_WIDTH + 3).map(|i| vec![i as f64]).collect();
        let mut values = Vec::new();
        lane.eval_batch(&points, &mut values, |x, ctx| program.execute(x, ctx));
        assert_eq!(values.len(), LANE_WIDTH + 3);
    }

    #[test]
    #[should_panic(expected = "all lanes filled")]
    fn overfilling_the_lanes_panics() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        for i in 0..=LANE_WIDTH {
            lane.record(|ctx| program.execute(&[i as f64], ctx));
        }
    }

    #[test]
    fn custom_epsilon_reaches_the_finalize() {
        let program = paper_example();
        // Both branches of site 1 saturated on one side only matters with
        // an equality op; use a snapshot whose pen goes through distance.
        let saturated: BranchSet = [BranchId::true_of(1)].into_iter().collect();
        for epsilon in [DEFAULT_EPSILON, 0.25, 2.0] {
            let mut lane = LaneCtx::new(saturated.clone()).with_epsilon(epsilon);
            let mut values = Vec::new();
            lane.eval_batch(&[vec![2.0]], &mut values, |x, ctx| program.execute(x, ctx));
            let mut eager = ExecCtx::representing(saturated.clone()).with_epsilon(epsilon);
            program.execute(&[2.0], &mut eager);
            assert_eq!(values[0].to_bits(), eager.representing_value().to_bits());
        }
    }

    #[test]
    fn mixed_stream_resolution_matches_the_scalar_resolve() {
        // A mixed stream of pending events (every code, every op, special
        // operands) resolves to the bits of the per-lane scalar resolve,
        // through both the uniform-run kernel and the lane-by-lane path.
        let ops_pool = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
        let operands = [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, -3.5, 1e300];
        let mut codes = Vec::new();
        let mut ops = Vec::new();
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        let mut k = 0usize;
        for code in [
            pen_code::IDLE,
            pen_code::OPEN,
            pen_code::FALSE_SATURATED,
            pen_code::TRUE_SATURATED,
        ] {
            for &a in &operands {
                for &b in &operands {
                    codes.push(code);
                    // Runs of one op long enough for the kernel path.
                    ops.push(ops_pool[(k / MIN_LANE_BATCH) % ops_pool.len()]);
                    lhs.push(a);
                    rhs.push(b);
                    k += 1;
                }
            }
        }
        let mut values = Vec::new();
        resolve_pen_lanes(&codes, &ops, &lhs, &rhs, DEFAULT_EPSILON, &mut values);
        assert_eq!(values.len(), codes.len());
        for (k, value) in values.iter().enumerate() {
            let expect = resolve_pen(codes[k], ops[k], lhs[k], rhs[k], DEFAULT_EPSILON);
            assert_eq!(value.to_bits(), expect.to_bits(), "lane {k}");
        }
    }
}
