//! The per-execution context threaded through an instrumented program.
//!
//! `ExecCtx` plays the role of the paper's injected global variable `r`
//! together with the Gcov-style coverage recorder. Every conditional of an
//! instrumented program calls [`ExecCtx::branch`] (or one of the integer
//! promotion helpers), which:
//!
//! 1. evaluates the comparison and records the taken branch,
//! 2. in [`ExecMode::Representing`] mode, updates `r` with
//!    `pen(l_i, op, a, b)` exactly as the injected assignment
//!    `r = pen(...)` would, and
//! 3. returns the comparison outcome so the program can branch on it.
//!
//! The representing function `FOO_R(x)` of the paper is then: create a
//! representing-mode context (which initializes `r = 1`), execute the
//! program on `x`, and read [`ExecCtx::representing_value`].

use crate::branch::{BranchId, BranchSet, Direction, SiteId};
use crate::distance::{Cmp, DEFAULT_EPSILON};
use crate::pen::{pen, SiteSaturation};
use crate::trace::{TakenBranch, Trace};

/// How one execution of a program under test ended.
///
/// Interpreted or otherwise untrusted programs (the `coverme-fpir` front
/// end, generated test programs) may fail to terminate cleanly: they can
/// exhaust their step fuel in a loop or hit a runtime fault. Such runs used
/// to be indistinguishable from clean ones — the truncated trace and the
/// partial accumulator `r` fed the representing function as if they were a
/// real path. An executor classifies each run by marking the context
/// ([`ExecCtx::mark_timeout`]/[`ExecCtx::mark_trap`]); consumers read the
/// classification back with [`ExecCtx::run_outcome`] and must exclude
/// aborted runs from coverage and saturation updates.
///
/// Hand-instrumented native programs (fdlibm) never mark, so their contexts
/// always report [`RunOutcome::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// The program ran to completion; its trace and coverage are real.
    #[default]
    Done,
    /// The executor's step fuel ran out before the program finished (the
    /// usual fate of an infinite loop under a bounded interpreter).
    Timeout,
    /// The program faulted: recursion depth exceeded, a missing call
    /// target, or any other condition the executor cannot recover from.
    Trap,
}

impl RunOutcome {
    /// Whether the run finished cleanly.
    pub fn is_done(self) -> bool {
        self == RunOutcome::Done
    }

    /// Stable lowercase label (used by JSON artifacts and the CLI).
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Done => "done",
            RunOutcome::Timeout => "timeout",
            RunOutcome::Trap => "trap",
        }
    }
}

/// The two ways an instrumented program can be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Record coverage and the trace only; `r` is not maintained. This is
    /// what plain coverage measurement (and the baseline testers) use.
    Observe,
    /// Additionally maintain the representing-function accumulator `r`
    /// against a saturation snapshot.
    Representing,
}

/// Per-execution instrumentation state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecCtx {
    mode: ExecMode,
    epsilon: f64,
    /// The injected global `r`. Initialized to 1 in representing mode
    /// (Algorithm 1, line 5).
    r: f64,
    /// Snapshot of the saturated branches (empty in observe mode).
    saturated: BranchSet,
    /// Branches covered by this execution.
    covered: BranchSet,
    /// Ordered decisions taken by this execution.
    trace: Trace,
    /// Whether the trace is recorded.
    record_trace: bool,
    /// Whether the covered set is recorded. Disabled by the scalar fast
    /// path of the objective engine, which only needs `r`.
    record_coverage: bool,
    /// Per-site saturation lookup table, indexed by `SiteId`. Built by
    /// [`retarget`](Self::retarget) — i.e. by contexts that live across
    /// many executions, such as the objective engine's — so each `branch`
    /// call replaces two bitset probes with one indexed load. Empty (and
    /// unused) on per-execution contexts, whose construction must stay
    /// allocation-light. Sites past the end of the table are unsaturated.
    site_saturation: Vec<SiteSaturation>,
    /// How the current execution ended. [`RunOutcome::Done`] unless the
    /// executor marked the run aborted; reset to `Done` by
    /// [`reset`](Self::reset).
    outcome: RunOutcome,
}

impl ExecCtx {
    /// Creates a context that only observes coverage and the trace.
    pub fn observe() -> ExecCtx {
        ExecCtx {
            mode: ExecMode::Observe,
            epsilon: DEFAULT_EPSILON,
            r: 1.0,
            saturated: BranchSet::new(),
            covered: BranchSet::new(),
            trace: Trace::new(),
            record_trace: true,
            record_coverage: true,
            site_saturation: Vec::new(),
            outcome: RunOutcome::Done,
        }
    }

    /// Creates a representing-function context against a saturation
    /// snapshot. The accumulator `r` starts at `1`, which guarantees
    /// `FOO_R(x) > 0` once every branch is saturated (condition C1/C2 of the
    /// paper's Sect. 3.2).
    pub fn representing(saturated: BranchSet) -> ExecCtx {
        ExecCtx {
            mode: ExecMode::Representing,
            epsilon: DEFAULT_EPSILON,
            r: 1.0,
            saturated,
            covered: BranchSet::new(),
            trace: Trace::new(),
            record_trace: true,
            record_coverage: true,
            site_saturation: Vec::new(),
            outcome: RunOutcome::Done,
        }
    }

    /// Overrides the `ε` used by the branch distances.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive.
    pub fn with_epsilon(mut self, epsilon: f64) -> ExecCtx {
        assert!(epsilon > 0.0, "epsilon must be strictly positive");
        self.epsilon = epsilon;
        self
    }

    /// Disables trace recording (coverage is still recorded). Useful for the
    /// many millions of executions a fuzzing baseline performs.
    pub fn without_trace(mut self) -> ExecCtx {
        self.record_trace = false;
        self
    }

    /// Disables covered-set recording as well. This is the objective
    /// engine's scalar fast path: an evaluation that only needs `FOO_R(x)`
    /// pays for neither the trace nor the per-branch coverage inserts —
    /// `r` is unaffected, because `pen` reads only the saturation snapshot.
    /// [`covered`](Self::covered) stays empty on such a context.
    pub fn without_coverage(mut self) -> ExecCtx {
        self.record_coverage = false;
        self
    }

    /// The execution mode of this context.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The `ε` in use.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Evaluates the instrumented conditional `a op b` at site `site`.
    ///
    /// Returns the concrete outcome of the comparison so the caller can
    /// branch on it, after recording coverage and (in representing mode)
    /// performing the injected `r = pen(site, op, a, b)` assignment.
    #[inline]
    pub fn branch(&mut self, site: SiteId, op: Cmp, a: f64, b: f64) -> bool {
        // The assignment to r happens *before* the conditional in the
        // instrumented program, so update r first.
        if self.mode == ExecMode::Representing {
            let saturation = if self.site_saturation.is_empty() {
                SiteSaturation {
                    true_saturated: self.saturated.contains(BranchId::true_of(site)),
                    false_saturated: self.saturated.contains(BranchId::false_of(site)),
                }
            } else {
                // Retargeted (long-lived) context: one indexed load instead
                // of two bitset probes. Sites past the table are
                // unsaturated by construction.
                self.site_saturation
                    .get(site as usize)
                    .copied()
                    .unwrap_or_default()
            };
            self.r = pen(saturation, op, a, b, self.epsilon, self.r);
        }

        let outcome = op.eval(a, b);
        let direction = Direction::from_outcome(outcome);
        if self.record_coverage {
            self.covered.insert(BranchId { site, direction });
        }
        if self.record_trace {
            self.trace.push(TakenBranch {
                site,
                direction,
                op,
                lhs: a,
                rhs: b,
            });
        }
        outcome
    }

    /// Instrumented conditional over `i64` operands.
    ///
    /// Real-world floating-point code (all of Fdlibm) branches on integer
    /// bit patterns extracted from doubles. The paper's Sect. 5.3 handles
    /// such comparisons by promoting the operands to doubles before calling
    /// `pen`; this helper does exactly that.
    pub fn branch_i64(&mut self, site: SiteId, op: Cmp, a: i64, b: i64) -> bool {
        self.branch(site, op, a as f64, b as f64)
    }

    /// Instrumented conditional over `i32` operands (promoted to doubles).
    pub fn branch_i32(&mut self, site: SiteId, op: Cmp, a: i32, b: i32) -> bool {
        self.branch(site, op, f64::from(a), f64::from(b))
    }

    /// Instrumented conditional over `u32` operands (promoted to doubles).
    pub fn branch_u32(&mut self, site: SiteId, op: Cmp, a: u32, b: u32) -> bool {
        self.branch(site, op, f64::from(a), f64::from(b))
    }

    /// Instrumented conditional over a boolean condition that is *not* an
    /// arithmetic comparison (e.g. a logical combination the front end chose
    /// not to decompose). Such conditionals cannot contribute a meaningful
    /// branch distance, so in representing mode they behave like an
    /// unsaturatable-site: coverage is recorded, and `r` is updated with the
    /// 0/ε distance of the boolean seen as `flag != 0` / `flag == 0`.
    pub fn branch_bool(&mut self, site: SiteId, value: bool) -> bool {
        let numeric = if value { 1.0 } else { 0.0 };
        self.branch(site, Cmp::Ne, numeric, 0.0)
    }

    /// Marks the current execution as aborted by step-fuel exhaustion.
    /// Called by bounded executors (the FPIR interpreter) when a run does
    /// not finish within its fuel; sticky until [`reset`](Self::reset).
    pub fn mark_timeout(&mut self) {
        if self.outcome == RunOutcome::Done {
            self.outcome = RunOutcome::Timeout;
        }
    }

    /// Marks the current execution as aborted by a runtime fault (depth
    /// exhaustion, missing call target, …); sticky until
    /// [`reset`](Self::reset).
    pub fn mark_trap(&mut self) {
        if self.outcome == RunOutcome::Done {
            self.outcome = RunOutcome::Trap;
        }
    }

    /// How the current execution ended. [`RunOutcome::Done`] unless the
    /// executor marked it; consumers must discard the trace, coverage and
    /// representing value of a non-`Done` run.
    pub fn run_outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// The current value of the injected accumulator `r`.
    ///
    /// For a representing-mode context this is `FOO_R(x)` once the program
    /// has finished executing on `x`; for an observe-mode context it stays
    /// at its initial value `1`.
    pub fn representing_value(&self) -> f64 {
        self.r
    }

    /// Branches covered by this execution (empty if coverage recording is
    /// disabled, see [`without_coverage`](Self::without_coverage)).
    pub fn covered(&self) -> &BranchSet {
        &self.covered
    }

    /// The saturation snapshot this context evaluates `pen` against (empty
    /// in observe mode).
    pub fn saturated(&self) -> &BranchSet {
        &self.saturated
    }

    /// Replaces the saturation snapshot while keeping the mode, `ε` and the
    /// recording flags. Together with [`reset`](Self::reset) this lets one
    /// long-lived context serve every round of a search: the snapshot is
    /// swapped (one clone per *round*) instead of a fresh context being
    /// built per *evaluation*. Retargeting also indexes the snapshot into
    /// the per-site saturation table consulted by [`branch`](Self::branch)
    /// — an O(sites) cost paid once per round that removes two bitset
    /// probes from every conditional of every subsequent execution.
    pub fn retarget(&mut self, saturated: BranchSet) {
        self.saturated = saturated;
        self.site_saturation.clear();
        if let Some(max_site) = self.saturated.iter().map(|b| b.site).max() {
            self.site_saturation
                .resize(max_site as usize + 1, SiteSaturation::default());
            for branch in self.saturated.iter() {
                let entry = &mut self.site_saturation[branch.site as usize];
                match branch.direction {
                    Direction::True => entry.true_saturated = true,
                    Direction::False => entry.false_saturated = true,
                }
            }
        }
    }

    /// The ordered decision trace of this execution (empty if disabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the context, returning the covered set and the trace.
    pub fn into_parts(self) -> (BranchSet, Trace, f64) {
        (self.covered, self.trace, self.r)
    }

    /// Resets the per-execution state (covered set, trace, `r`) while
    /// keeping the mode, the saturation snapshot and `ε`. This lets a caller
    /// reuse one allocation across many executions.
    #[inline]
    pub fn reset(&mut self) {
        self.covered.clear();
        self.trace.clear();
        self.r = 1.0;
        self.outcome = RunOutcome::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-conditional program of the paper's Fig. 3:
    /// `l0: if (x <= 1) x += 2.5;  y = x*x;  l1: if (y == 4) {..}`.
    fn run_foo(ctx: &mut ExecCtx, x: f64) {
        let mut x = x;
        if ctx.branch(0, Cmp::Le, x, 1.0) {
            x += 2.5;
        }
        let y = x * x;
        if ctx.branch(1, Cmp::Eq, y, 4.0) {
            // nothing
        }
    }

    #[test]
    fn observe_mode_records_coverage_and_trace() {
        let mut ctx = ExecCtx::observe();
        run_foo(&mut ctx, 0.7);
        assert_eq!(ctx.trace().len(), 2);
        assert!(ctx.covered().contains(BranchId::true_of(0)));
        assert!(ctx.covered().contains(BranchId::false_of(1)));
        assert_eq!(ctx.covered().len(), 2);
        // r untouched in observe mode.
        assert_eq!(ctx.representing_value(), 1.0);
    }

    #[test]
    fn representing_r_is_zero_when_nothing_is_saturated() {
        // Table 1 row 1: Saturate = ∅ ⇒ FOO_R ≡ 0.
        for x in [-5.2, 0.7, 1.0, 42.0] {
            let mut ctx = ExecCtx::representing(BranchSet::new());
            run_foo(&mut ctx, x);
            assert_eq!(ctx.representing_value(), 0.0, "x = {x}");
        }
    }

    #[test]
    fn representing_r_matches_table1_row2() {
        // Saturate = {1F}. FOO_R(x) = ((x+2.5)^2 - 4)^2 for x <= 1,
        // (x^2 - 4)^2 otherwise (the paper plots the x+1 variant; the body
        // here adds 2.5, the shape is identical).
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let foo_r = |x: f64| {
            let mut ctx = ExecCtx::representing(saturated.clone());
            run_foo(&mut ctx, x);
            ctx.representing_value()
        };
        // x = -0.5 takes 0T: y = (x+2.5)^2 = 4 ⇒ distance 0.
        assert_eq!(foo_r(-0.5), 0.0);
        // x = 2 takes 0F: y = 4 ⇒ distance 0.
        assert_eq!(foo_r(2.0), 0.0);
        // x = 0 takes 0T: y = 6.25 ⇒ (6.25-4)^2.
        assert!((foo_r(0.0) - (6.25_f64 - 4.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn representing_r_is_one_when_everything_is_saturated() {
        // Table 1 row 4: all four branches saturated ⇒ FOO_R ≡ 1.
        let saturated: BranchSet = [
            BranchId::true_of(0),
            BranchId::false_of(0),
            BranchId::true_of(1),
            BranchId::false_of(1),
        ]
        .into_iter()
        .collect();
        for x in [-5.2, 0.7, 1.1, 2.0] {
            let mut ctx = ExecCtx::representing(saturated.clone());
            run_foo(&mut ctx, x);
            assert_eq!(ctx.representing_value(), 1.0, "x = {x}");
        }
    }

    #[test]
    fn integer_promotion_helpers_agree_with_double_branch() {
        let mut a = ExecCtx::observe();
        let mut b = ExecCtx::observe();
        let taken_int = a.branch_i32(0, Cmp::Ge, 0x7ff0_0000u32 as i32, 0x4036_0000);
        let taken_f64 = b.branch(
            0,
            Cmp::Ge,
            (0x7ff0_0000u32 as i32) as f64,
            0x4036_0000 as f64,
        );
        assert_eq!(taken_int, taken_f64);

        let mut c = ExecCtx::observe();
        assert!(c.branch_u32(1, Cmp::Lt, 1, 2));
        assert!(c.branch_i64(2, Cmp::Eq, -7, -7));
        assert!(c.branch_bool(3, true));
        assert!(!c.branch_bool(4, false));
    }

    #[test]
    fn without_trace_still_records_coverage() {
        let mut ctx = ExecCtx::observe().without_trace();
        run_foo(&mut ctx, 0.7);
        assert!(ctx.trace().is_empty());
        assert_eq!(ctx.covered().len(), 2);
    }

    #[test]
    fn reset_clears_per_execution_state() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut ctx = ExecCtx::representing(saturated);
        run_foo(&mut ctx, 0.0);
        assert!(ctx.representing_value() > 0.0);
        ctx.reset();
        assert_eq!(ctx.representing_value(), 1.0);
        assert!(ctx.covered().is_empty());
        assert!(ctx.trace().is_empty());
        // The saturation snapshot is retained.
        run_foo(&mut ctx, 0.0);
        assert!(ctx.representing_value() > 0.0);
    }

    #[test]
    fn without_coverage_still_computes_r() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut fast = ExecCtx::representing(saturated.clone())
            .without_trace()
            .without_coverage();
        let mut full = ExecCtx::representing(saturated);
        for x in [-4.5, -0.5, 0.0, 0.7, 2.0, 10.0] {
            fast.reset();
            full.reset();
            run_foo(&mut fast, x);
            run_foo(&mut full, x);
            assert_eq!(
                fast.representing_value().to_bits(),
                full.representing_value().to_bits(),
                "x = {x}"
            );
            assert!(fast.covered().is_empty());
            assert!(fast.trace().is_empty());
        }
    }

    #[test]
    fn retarget_swaps_the_snapshot_in_place() {
        let mut ctx = ExecCtx::representing(BranchSet::new())
            .without_trace()
            .without_coverage();
        run_foo(&mut ctx, 0.7);
        // Nothing saturated: FOO_R ≡ 0.
        assert_eq!(ctx.representing_value(), 0.0);

        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        ctx.retarget(saturated.clone());
        assert_eq!(ctx.saturated(), &saturated);
        ctx.reset();
        run_foo(&mut ctx, 0.7);
        let retargeted = ctx.representing_value();
        // Against {1F} the value matches a freshly built context.
        let mut fresh = ExecCtx::representing(saturated);
        run_foo(&mut fresh, 0.7);
        assert_eq!(retargeted.to_bits(), fresh.representing_value().to_bits());
        assert!(retargeted > 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be strictly positive")]
    fn rejects_non_positive_epsilon() {
        let _ = ExecCtx::observe().with_epsilon(0.0);
    }

    #[test]
    fn run_outcome_defaults_done_sticks_and_resets() {
        let mut ctx = ExecCtx::representing(BranchSet::new());
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
        ctx.mark_timeout();
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
        // The first classification wins: a later trap does not overwrite.
        ctx.mark_trap();
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
        ctx.reset();
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
        ctx.mark_trap();
        assert_eq!(ctx.run_outcome(), RunOutcome::Trap);
    }

    #[test]
    fn into_parts_returns_everything() {
        let mut ctx = ExecCtx::observe();
        run_foo(&mut ctx, 3.0);
        let (covered, trace, r) = ctx.into_parts();
        assert_eq!(covered.len(), 2);
        assert_eq!(trace.len(), 2);
        assert_eq!(r, 1.0);
    }
}
