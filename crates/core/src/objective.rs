//! The objective engine: cache-aware evaluation of representing functions.
//!
//! CoverMe's inner loop is millions of `FOO_R(x)` evaluations. Historically
//! every one of them built a fresh [`ExecCtx`] — cloning the saturation
//! snapshot, allocating a covered set and a trace — even though the
//! minimizer only consumes the scalar value. [`ObjectiveEngine`] is the
//! evaluation pipeline restructured around three ideas:
//!
//! * **an allocation-free scalar fast path** — one long-lived
//!   representing-mode context, [`reset`](ExecCtx::reset) between
//!   executions, with trace *and* coverage recording disabled (neither
//!   affects `r`, which `pen` computes from the saturation snapshot alone).
//!   A round boundary swaps the snapshot in place
//!   ([`ExecCtx::retarget`], one clone per round) instead of per call;
//! * **one point at a time** — the engine speaks the [`Objective`]
//!   protocol of `coverme-optim`, and a batch (a Nelder–Mead simplex, a
//!   compass probe star, a shrink step submitted through
//!   [`Objective::eval_batch`]) is a per-point loop with exactly
//!   [`eval_scalar`](ObjectiveEngine::eval_scalar)'s memo probe, abort
//!   handling and telemetry. Every value and count is therefore the one a
//!   scalar loop produces, whatever the batch size or grouping — as in the
//!   paper's Algorithm 1, which evaluates `FOO_R` one point at a time. A
//!   batch point that misses the cache executes through
//!   [`ExecBackend::run_lanes`] with a single index, which is `run` on the
//!   backend's own eager context (same snapshot, same `ε`), so the
//!   benchmark harness's tracing backend can count batch points apart
//!   from scalar calls;
//! * **bit-exact memoization** — a direct-mapped memo table keyed on the
//!   input's [`f64::to_bits`] patterns. Programs under test are
//!   deterministic functions of their input bits (a [`Program`] contract),
//!   so a hit returns exactly the value an execution would; searches
//!   therefore produce identical results with the cache on or off, just
//!   faster when the minimizer revisits points (Powell's line searches
//!   re-evaluate the incumbent at `t = 0` every sweep, the polish step
//!   re-probes rounded candidates). The table is small on purpose — one
//!   probe, collision overwrites, L2-resident (see
//!   [`DEFAULT_CACHE_SLOTS`]) — and is invalidated by a single epoch bump
//!   whenever the snapshot actually changes (`FOO_R` is a different
//!   function then), while rounds that left saturation untouched inherit
//!   every memoized value.
//!
//! The engine also counts its work: [`EngineTelemetry`] reports objective
//! calls, real program executions, and cache hits, which the driver
//! surfaces per function in [`TestReport`](crate::TestReport) and
//! [`CampaignReport`](crate::CampaignReport) (evals, cache hits,
//! evals/sec).
//!
//! The slow path — [`eval_full`](ObjectiveEngine::eval_full), which the
//! driver needs when a minimum reaches zero (Algorithm 1 line 11: record
//! coverage, update saturation, or blame the last conditional) — still
//! materializes everything. That is the 0-hit path: the scalar fast path
//! never loses coverage because every accepted zero is re-executed through
//! `eval_full` before the driver consumes it.

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
/// budget. Aborted evaluations are also never memoized — a cache entry
/// must represent a real `FOO_R(x)` value.
pub const ABORTED_VALUE: f64 = f64::INFINITY;

/// Widest input arity the memoization cache supports. Inputs are keyed as a
/// fixed-size array of bit patterns so a lookup never allocates; programs
/// with more inputs (none in the Fdlibm suite, whose widest function takes
/// 2) simply run uncached.
pub const MAX_CACHED_ARITY: usize = 4;

/// Default number of slots of the direct-mapped memo table (a power of
/// two). Slots are 48 bytes, so the default keeps the whole table under
/// 25 KiB — resident in L1/L2, which is what makes a probe cost
/// nanoseconds instead of a trip to DRAM. The hit population is temporally
/// local (the incumbent a line search re-probes at `t = 0`, polish
/// candidates, simplex vertices), so a small table captures almost all of
/// the hits a growing map would; an unbounded map was measured *slower*
/// than no cache at all once it outgrew the cache hierarchy.
pub const DEFAULT_CACHE_SLOTS: usize = 1 << 9;

/// Fewest conditional sites for [`CacheMode::Auto`] to turn memoization
/// on. A hit only pays when it saves more execution time than the probe
/// and insert traffic cost; measured on the Fdlibm suite (best-of-7 driver
/// runs), the crossover sits between `ieee754_fmod` (22 sites — a wash)
/// and `ieee754_pow` (30 sites — a clear win), while everything cheaper
/// loses a few percent. Programs at least this branch-dense cache by
/// default; leaner ones run the bare fast path.
pub const AUTO_CACHE_MIN_SITES: usize = 24;

/// Memoization policy of an [`ObjectiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Let the engine decide from the program's shape: memoize when the
    /// program has at least [`AUTO_CACHE_MIN_SITES`] conditional sites
    /// (execution is then expensive enough for hits to pay for probes).
    #[default]
    Auto,
    /// Always memoize (arity permitting). Used by the property tests that
    /// pin cache-invisibility and by workloads known to revisit points.
    On,
    /// Never memoize.
    Off,
}

/// Work counters of an [`ObjectiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTelemetry {
    /// Objective calls answered (scalar, batched and full), including the
    /// ones served from the cache.
    pub calls: u64,
    /// Real program executions performed (`calls - cache_hits`).
    pub evals: u64,
    /// Calls answered from the memoization cache without executing.
    pub cache_hits: u64,
    /// Executions aborted by step-fuel exhaustion
    /// ([`RunOutcome::Timeout`]); their values were substituted with
    /// [`ABORTED_VALUE`] and not memoized.
    pub timeouts: u64,
    /// Executions aborted by a runtime fault ([`RunOutcome::Trap`]);
    /// substituted and unmemoized like timeouts.
    pub traps: u64,
}

impl EngineTelemetry {
    /// Cache hit rate in `[0, 1]` (0 when nothing was asked yet).
    pub fn hit_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.calls as f64
        }
    }

    /// Total aborted executions (timeouts + traps).
    pub fn aborts(&self) -> u64 {
        self.timeouts + self.traps
    }

    /// Records one execution's outcome in the abort counters.
    fn classify(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Done => {}
            RunOutcome::Timeout => self.timeouts += 1,
            RunOutcome::Trap => self.traps += 1,
        }
    }
}

type CacheKey = [u64; MAX_CACHED_ARITY];

/// FNV-1a over the raw `u64` words of a cache key, with a final avalanche
/// so the low bits (the slot index) depend on every input word. Input bit
/// patterns are already high-entropy; a short multiplicative hash keeps the
/// per-evaluation cost in the nanoseconds without adding a dependency.
fn hash_key(key: &CacheKey) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &word in key {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// One slot of the direct-mapped memo table. `epoch` ties the entry to the
/// saturation snapshot it was computed against: a slot is live only while
/// its epoch equals the engine's, so invalidating the whole table on a
/// snapshot change is a single counter increment, not a scan.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    key: CacheKey,
    value: f64,
    /// Engine epoch the entry belongs to; 0 marks a never-written slot
    /// (the engine's epoch starts at 1).
    epoch: u64,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    key: [0; MAX_CACHED_ARITY],
    value: 0.0,
    epoch: 0,
};

/// Direct-mapped, epoch-invalidated memo table. Collisions overwrite (the
/// newest value wins), which bounds both memory and probe cost at exactly
/// one slot — the right trade for a hot path whose hits are temporally
/// local. Purely an accelerator: values are bit-exact, so an evicted or
/// colliding entry only ever costs a re-execution, never a wrong answer.
#[derive(Debug, Clone)]
struct Cache {
    slots: Box<[CacheSlot]>,
    /// `slots.len() - 1`; the slot count is a power of two.
    index_mask: usize,
}

impl Cache {
    fn new(slots: usize) -> Cache {
        let slots = slots.next_power_of_two().max(1);
        Cache {
            slots: vec![EMPTY_SLOT; slots].into_boxed_slice(),
            index_mask: slots - 1,
        }
    }

    /// Slot a key maps to; computed once per evaluation and shared by the
    /// probe and the insert so a miss hashes exactly once.
    fn slot_of(&self, key: &CacheKey) -> usize {
        (hash_key(key) as usize) & self.index_mask
    }

    fn get_at(&self, slot: usize, key: &CacheKey, epoch: u64) -> Option<f64> {
        let slot = &self.slots[slot];
        (slot.epoch == epoch && slot.key == *key).then_some(slot.value)
    }

    fn insert_at(&mut self, slot: usize, key: CacheKey, value: f64, epoch: u64) {
        self.slots[slot] = CacheSlot { key, value, epoch };
    }

    fn insert(&mut self, key: CacheKey, value: f64, epoch: u64) {
        let slot = self.slot_of(&key);
        self.insert_at(slot, key, value, epoch);
    }

    fn live_entries(&self, epoch: u64) -> usize {
        self.slots.iter().filter(|slot| slot.epoch == epoch).count()
    }
}

/// The cache-aware evaluation engine for one program's representing
/// function. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ObjectiveEngine<P> {
    program: P,
    epsilon: f64,
    /// The long-lived fast-path context: representing mode, no trace, no
    /// coverage. Owns the current saturation snapshot.
    ctx: ExecCtx,
    /// Bit-pattern memoization, `None` when disabled (by configuration or
    /// because the arity exceeds [`MAX_CACHED_ARITY`]).
    cache: Option<Cache>,
    /// Requested memo-table slot count; honored by every later
    /// [`cache_mode`](Self::cache_mode) rebuild, so builder-call order
    /// doesn't matter.
    cache_slots: usize,
    /// Current cache epoch; bumped on every snapshot change so stale slots
    /// die in O(1).
    epoch: u64,
    telemetry: EngineTelemetry,
    /// How the execution backend was selected (the [`BackendMode`] the
    /// engine was configured with; the default is [`BackendMode::Auto`]).
    mode: BackendMode,
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
        let arity = program.arity();
        assert!(arity > 0, "program under test must take at least one input");
        let backend = resolve_backend(&program, BackendMode::Auto, epsilon, &BranchSet::new());
        let engine = ObjectiveEngine {
            program,
            epsilon,
            ctx: ExecCtx::representing(BranchSet::new())
                .with_epsilon(epsilon)
                .without_trace()
                .without_coverage(),
            cache: None,
            cache_slots: DEFAULT_CACHE_SLOTS,
            epoch: 1,
            telemetry: EngineTelemetry::default(),
            mode: BackendMode::Auto,
            backend,
            lane_out: Vec::new(),
        };
        engine.cache_mode(CacheMode::Auto)
    }

    /// Selects the execution backend (see [`BackendMode`]; the default is
    /// [`BackendMode::Auto`]). Every mode produces bit-identical values,
    /// coverage and telemetry — the backend is a throughput seam, never a
    /// semantic one — so this only trades interpretation overhead against
    /// the program's compiled form, when it has one.
    pub fn backend_mode(mut self, mode: BackendMode) -> Self {
        self.mode = mode;
        self.backend = resolve_backend(&self.program, mode, self.epsilon, self.ctx.saturated());
        self
    }

    /// A no-op. No product code calls it; the end-to-end benchmark harness
    /// (`perfbench/`) does, and the benchmark-archetype change deletes it.
    pub fn simd(self, _isa: SimdIsa) -> Self {
        self
    }

    /// The name of the execution backend actually in use (`"interp"`,
    /// `"tape"`, …) — the effective backend, not the requested mode: an
    /// engine asked for [`BackendMode::Auto`] on a program without a tape
    /// reports `"interp"`.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Sets the memoization policy (see [`CacheMode`]; the default is
    /// [`CacheMode::Auto`]). Searches produce identical results under every
    /// mode (property-tested in `tests/objective_properties.rs`) — the mode
    /// only trades probe overhead against re-execution cost. Programs wider
    /// than [`MAX_CACHED_ARITY`] never cache regardless.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        let enabled = match mode {
            CacheMode::Auto => self.program.num_sites() >= AUTO_CACHE_MIN_SITES,
            CacheMode::On => true,
            CacheMode::Off => false,
        };
        self.cache = (enabled && self.program.arity() <= MAX_CACHED_ARITY)
            .then(|| Cache::new(self.cache_slots));
        self
    }

    /// Overrides the memo-table slot count (rounded up to a power of two;
    /// see [`DEFAULT_CACHE_SLOTS`]). Order-independent with the mode
    /// builders: the count is remembered and honored by any later
    /// [`cache_mode`](Self::cache_mode) call too.
    pub fn cache_capacity(mut self, slots: usize) -> Self {
        self.cache_slots = slots;
        if self.cache.is_some() {
            self.cache = Some(Cache::new(slots));
        }
        self
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

    /// Number of live memoized entries (0 when the cache is disabled).
    /// Scans the table — diagnostics and tests only, not a hot-path call.
    pub fn cache_len(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |cache| cache.live_entries(self.epoch))
    }

    /// Points the engine at a new saturation snapshot (the start of a
    /// driver round). When the snapshot actually differs, the representing
    /// function changed and the memoized values are stale, so the cache
    /// epoch is bumped — an O(1) invalidation of every live entry; a
    /// snapshot equal to the current one keeps the epoch, so a round that
    /// made no saturation progress inherits every value the previous
    /// rounds computed.
    pub fn retarget(&mut self, saturated: &BranchSet) {
        if self.ctx.saturated() == saturated {
            return;
        }
        self.ctx.retarget(saturated.clone());
        self.backend.retarget(saturated);
        self.epoch += 1;
    }

    /// Evaluates `FOO_R(x)` on the allocation-free fast path, consulting
    /// the memoization cache first.
    pub fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        self.eval_memoized(x, |engine| {
            engine.ctx.reset();
            engine.backend.run(&engine.program, x, &mut engine.ctx);
            LaneEval {
                value: engine.ctx.representing_value(),
                outcome: engine.ctx.run_outcome(),
            }
        })
    }

    /// Evaluates `FOO_R` at every point of `points`, in order, appending one
    /// value per point to `values`. Each point gets exactly
    /// [`eval_scalar`](Self::eval_scalar)'s memo probe, abort handling and
    /// telemetry; a miss executes through [`ExecBackend::run_lanes`] with
    /// the point's single index (see the [module docs](self)).
    pub fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        values.reserve(points.len());
        for (index, point) in points.iter().enumerate() {
            let value = self.eval_memoized(point, |engine| {
                engine.lane_out.clear();
                engine
                    .backend
                    .run_lanes(&engine.program, points, &[index], &mut engine.lane_out);
                engine.lane_out[0]
            });
            values.push(value);
        }
    }

    /// The memoized evaluation shared by the scalar and batch paths: probe
    /// the cache, otherwise `execute` the program once, substitute
    /// [`ABORTED_VALUE`] for an aborted run and memoize a completed one.
    fn eval_memoized(&mut self, x: &[f64], execute: impl FnOnce(&mut Self) -> LaneEval) -> f64 {
        self.telemetry.calls += 1;
        // Hash once; probe and (on a miss) insert share the slot index.
        let keyed = self.cache.as_ref().map(|cache| {
            let key = cache_key(x);
            (cache.slot_of(&key), key)
        });
        if let (Some(cache), Some((slot, key))) = (&self.cache, &keyed) {
            if let Some(value) = cache.get_at(*slot, key, self.epoch) {
                self.telemetry.cache_hits += 1;
                return value;
            }
        }
        self.telemetry.evals += 1;
        let LaneEval { value, outcome } = execute(self);
        if !outcome.is_done() {
            // Aborted run: the accumulator is garbage. Substitute the
            // deterministic sentinel and keep it out of the memo table.
            self.telemetry.classify(outcome);
            return ABORTED_VALUE;
        }
        if let (Some(cache), Some((slot, key))) = (&mut self.cache, keyed) {
            cache.insert_at(slot, key, value, self.epoch);
        }
        value
    }

    /// Evaluates `FOO_R(x)` keeping the covered branches and the decision
    /// trace — the slow path the driver uses on each round's minimum, on
    /// polished candidates and on warm-start replays. Always executes the
    /// program (the trace cannot come from the cache) and is counted as an
    /// evaluation; the scalar cache is seeded with the value so a later
    /// fast-path probe of the same point is free.
    pub fn eval_full(&mut self, x: &[f64]) -> Evaluation {
        self.telemetry.calls += 1;
        self.telemetry.evals += 1;
        let mut ctx =
            ExecCtx::representing(self.ctx.saturated().clone()).with_epsilon(self.epsilon);
        self.backend.run(&self.program, x, &mut ctx);
        let outcome = ctx.run_outcome();
        let (covered, trace, value) = ctx.into_parts();
        if !outcome.is_done() {
            // Aborted run: substitute the sentinel (same as the scalar
            // path), skip the memo seed, and hand back the truncated
            // coverage/trace tagged with the outcome so the driver can
            // discard them.
            self.telemetry.classify(outcome);
            return Evaluation {
                value: ABORTED_VALUE,
                covered,
                trace,
                outcome,
            };
        }
        if let Some(cache) = &mut self.cache {
            cache.insert(cache_key(x), value, self.epoch);
        }
        Evaluation {
            value,
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

/// Packs an input point into the fixed-width bit-pattern key.
///
/// Distinct bit patterns are distinct keys — `-0.0` and `0.0`, or two
/// different NaN payloads, are deliberately *not* identified, because the
/// program under test may branch on the raw bits (Fdlibm's `__HI`/`__LO`
/// word extraction does exactly that).
///
/// # Panics
///
/// Panics if `x` is wider than [`MAX_CACHED_ARITY`]; callers gate on the
/// arity when constructing the cache.
fn cache_key(x: &[f64]) -> CacheKey {
    assert!(
        x.len() <= MAX_CACHED_ARITY,
        "input too wide for the cache key"
    );
    let mut key = [0u64; MAX_CACHED_ARITY];
    for (slot, value) in key.iter_mut().zip(x) {
        *slot = value.to_bits();
    }
    key
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

    #[test]
    fn fast_path_matches_representing_function_bit_for_bit() {
        let program = paper_example();
        let foo_r = RepresentingFunction::new(&program, snapshot_1f());
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
        engine.retarget(&snapshot_1f());
        let mut x = -10.0;
        while x <= 10.0 {
            assert_eq!(
                engine.eval_scalar(&[x]).to_bits(),
                foo_r.eval(&[x]).to_bits(),
                "x = {x}"
            );
            x += 0.37;
        }
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
    fn cache_hits_skip_executions_without_changing_values() {
        let mut engine =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&snapshot_1f());
        let first = engine.eval_scalar(&[0.3]);
        let t = engine.telemetry();
        assert_eq!((t.calls, t.evals, t.cache_hits), (1, 1, 0));
        let second = engine.eval_scalar(&[0.3]);
        assert_eq!(first.to_bits(), second.to_bits());
        let t = engine.telemetry();
        assert_eq!((t.calls, t.evals, t.cache_hits), (2, 1, 1));
        assert_eq!(t.hit_rate(), 0.5);
    }

    #[test]
    fn retarget_to_a_new_snapshot_invalidates_the_cache() {
        let mut engine =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        // Against the empty snapshot FOO_R ≡ 0.
        assert_eq!(engine.eval_scalar(&[0.3]), 0.0);
        assert_eq!(engine.cache_len(), 1);
        // Against {1F} the same point has a positive value; a stale cache
        // would wrongly return 0.
        engine.retarget(&snapshot_1f());
        assert_eq!(engine.cache_len(), 0);
        assert!(engine.eval_scalar(&[0.3]) > 0.0);
    }

    #[test]
    fn retarget_to_the_same_snapshot_keeps_the_cache() {
        let mut engine =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&snapshot_1f());
        let _ = engine.eval_scalar(&[0.3]);
        assert_eq!(engine.cache_len(), 1);
        engine.retarget(&snapshot_1f());
        assert_eq!(engine.cache_len(), 1);
        let _ = engine.eval_scalar(&[0.3]);
        assert_eq!(engine.telemetry().cache_hits, 1);
    }

    #[test]
    fn eval_full_seeds_the_scalar_cache() {
        let mut engine =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&snapshot_1f());
        let full = engine.eval_full(&[2.0]);
        let scalar = engine.eval_scalar(&[2.0]);
        assert_eq!(full.value.to_bits(), scalar.to_bits());
        let t = engine.telemetry();
        assert_eq!((t.calls, t.evals, t.cache_hits), (2, 1, 1));
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

    #[test]
    fn disabled_cache_never_hits_but_agrees() {
        let mut cached =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        let mut uncached =
            ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON).cache_mode(CacheMode::Off);
        cached.retarget(&snapshot_1f());
        uncached.retarget(&snapshot_1f());
        for x in [0.3, 0.3, 2.0, 2.0, -0.5] {
            assert_eq!(
                cached.eval_scalar(&[x]).to_bits(),
                uncached.eval_scalar(&[x]).to_bits()
            );
        }
        assert_eq!(uncached.telemetry().cache_hits, 0);
        assert_eq!(uncached.telemetry().evals, 5);
        assert!(cached.telemetry().cache_hits > 0);
    }

    #[test]
    fn cache_capacity_bounds_the_table() {
        let mut engine = ObjectiveEngine::new(paper_example(), DEFAULT_EPSILON)
            .cache_mode(CacheMode::On)
            .cache_capacity(2);
        for i in 0..10 {
            let _ = engine.eval_scalar(&[i as f64]);
        }
        // Direct-mapped with 2 slots: at most 2 live entries, however many
        // distinct points were evaluated.
        assert!(engine.cache_len() <= 2);
        // Evicted points still evaluate correctly (just uncached).
        assert_eq!(
            engine.eval_scalar(&[7.0]).to_bits(),
            engine.eval_scalar(&[7.0]).to_bits()
        );
    }

    #[test]
    fn collisions_overwrite_and_stay_correct() {
        // A 1-slot table maximizes collisions: every distinct point evicts
        // the previous one, and correctness must be untouched.
        let program = paper_example();
        let foo_r = RepresentingFunction::new(&program, snapshot_1f());
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON)
            .cache_mode(CacheMode::On)
            .cache_capacity(1);
        engine.retarget(&snapshot_1f());
        for x in [0.3, 2.0, 0.3, -0.5, 2.0, 0.3] {
            assert_eq!(
                engine.eval_scalar(&[x]).to_bits(),
                foo_r.eval(&[x]).to_bits(),
                "x = {x}"
            );
        }
        assert!(engine.cache_len() <= 1);
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinct_keys() {
        // A program that branches on the raw sign bit distinguishes -0.0
        // from 0.0; the cache must too.
        let program = FnProgram::new("signbit", 1, 1, |input: &[f64], ctx: &mut ExecCtx| {
            // Fdlibm-style high-word extraction: the sign lands in bit 31
            // of the i32, so -0.0 has hi < 0 while 0.0 has hi == 0.
            let hi = (input[0].to_bits() >> 32) as i32;
            if ctx.branch_i32(0, Cmp::Lt, hi, 0) {
                // negative half, including -0.0
            }
        });
        let saturated: BranchSet = [BranchId::true_of(0)].into_iter().collect();
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&saturated);
        let pos = engine.eval_scalar(&[0.0]);
        let neg = engine.eval_scalar(&[-0.0]);
        assert_ne!(pos.to_bits(), neg.to_bits());
        assert_eq!(engine.telemetry().cache_hits, 0);
    }

    #[test]
    fn wide_arity_disables_the_cache_automatically() {
        let program = FnProgram::new("wide", 6, 1, |input: &[f64], ctx: &mut ExecCtx| {
            let sum: f64 = input.iter().sum();
            if ctx.branch(0, Cmp::Gt, sum, 1.0) {
                // then
            }
        });
        // Forcing the cache on cannot override the arity gate.
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).cache_mode(CacheMode::On);
        let x = vec![0.1; 6];
        let a = engine.eval_scalar(&x);
        let b = engine.eval_scalar(&x);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(engine.telemetry().cache_hits, 0);
        assert_eq!(engine.telemetry().evals, 2);
        assert_eq!(engine.cache_len(), 0);
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
    fn aborted_scalar_evals_return_the_sentinel_and_skip_the_cache() {
        let mut engine =
            ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&snapshot_1f());
        assert_eq!(engine.eval_scalar(&[-1.0]), ABORTED_VALUE);
        assert_eq!(engine.cache_len(), 0, "aborted value must not be memoized");
        // Re-probing the same point re-executes (no hit on an aborted run).
        assert_eq!(engine.eval_scalar(&[-1.0]), ABORTED_VALUE);
        let t = engine.telemetry();
        assert_eq!((t.calls, t.evals, t.cache_hits), (2, 2, 0));
        assert_eq!((t.timeouts, t.traps), (2, 0));
        assert_eq!(t.aborts(), 2);
        // Clean inputs still evaluate and memoize normally.
        let clean = engine.eval_scalar(&[2.0]);
        assert!(clean.is_finite());
        assert_eq!(engine.cache_len(), 1);
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
    fn eval_full_tags_aborted_runs_and_skips_the_seed() {
        let mut engine =
            ObjectiveEngine::new(sometimes_aborting(), DEFAULT_EPSILON).cache_mode(CacheMode::On);
        engine.retarget(&snapshot_1f());
        let aborted = engine.eval_full(&[-2.0]);
        assert_eq!(aborted.outcome, RunOutcome::Timeout);
        assert_eq!(aborted.value, ABORTED_VALUE);
        assert_eq!(engine.cache_len(), 0);
        let clean = engine.eval_full(&[2.0]);
        assert_eq!(clean.outcome, RunOutcome::Done);
        assert!(clean.value.is_finite());
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(engine.telemetry().timeouts, 1);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_zero_arity_programs() {
        let program = FnProgram::new("nullary", 0, 0, |_: &[f64], _: &mut ExecCtx| {});
        let _ = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
    }
}
