//! The CoverMe driver — Algorithm 1 of the paper.
//!
//! The driver repeatedly points the objective engine
//! ([`crate::objective::ObjectiveEngine`]) at the current saturation
//! snapshot, minimizes the representing function with Basinhopping (MCMC
//! over a local minimizer) — every evaluation flowing through the engine's
//! allocation-free scalar fast path, one program execution per call — and
//! interprets the result:
//!
//! * `FOO_R(x*) = 0` — `x*` is a genuine test input that saturates a new
//!   branch (Theorem 4.3); it is added to the generated input set `X` and
//!   coverage/saturation are updated;
//! * `FOO_R(x*) > 0` — the backend could not reach zero; the
//!   infeasible-branch heuristic of Sect. 5.3 deems the unvisited branch of
//!   the last conditional on `x*`'s path infeasible so later rounds stop
//!   chasing it.
//!
//! The loop stops when every branch is saturated, when the configured number
//! of starting points (`n_start`) is exhausted, or when an optional wall
//! clock budget runs out.
//!
//! This module owns the loop itself — [`SearchState::run`] takes one
//! shard's search from its warm-start replay to its stop — and its
//! configuration. It does not schedule: [`CoverMe::run`] is a one-function
//! run of the campaign's executor ([`crate::campaign`]), so a standalone
//! search and a campaign row share one code path. With `shards > 1` the
//! starting-point budget is split across shard searches whose snapshots
//! are merged afterwards (see [`crate::shard`]). A search's results depend
//! on `(seed, shards, budget)` only — never on the worker count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coverme_optim::rng::SplitMix64;
use coverme_optim::sampling::uniform_box;
use coverme_optim::{BasinHopping, LocalMethod, PerturbationKind};
use coverme_runtime::{fingerprint_bytes, fingerprint_seed, CoverageMap, Program, DEFAULT_EPSILON};

use crate::campaign::FunctionStatus;
use crate::objective::{CacheMode, ObjectiveEngine};

use crate::report::{RoundOutcome, RoundRecord, TestReport};
use crate::saturation::SaturationTracker;
use crate::shard::{AcceptedInput, ShardOutcome};

/// The box `[lo, hi]^n` every starting point is drawn from, uniformly
/// (Algorithm 1, line 9).
const START_BOX: (f64, f64) = (-100.0, 100.0);

/// Whether the infeasible-branch heuristic of Sect. 5.3 is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InfeasiblePolicy {
    /// When a round's minimum is positive, deem the unvisited branch of the
    /// last conditional on the minimizing input's path infeasible (the
    /// paper's heuristic).
    #[default]
    LastConditional,
    /// Generalized blame with two-stage escalation. A first failure on a
    /// path blames the classic anchor exactly like
    /// [`LastConditional`](Self::LastConditional) — the representing value
    /// is the branch distance of the last live conditional, so that is the
    /// only branch the nonzero minimum indicts. But when a path fails
    /// *again* with its anchor already written off (covered or previously
    /// blamed), the minimizer is provably stuck upstream: every
    /// still-uncovered untaken sibling along the path is then deemed
    /// infeasible in one verdict (see
    /// [`SaturationTracker::blame_uncovered_path`]). Verdicts stay
    /// refutable: real coverage from any shard drops them at merge time
    /// exactly as under `LastConditional`, so shard merges remain
    /// order-independent. This is what lets a
    /// search with several infeasible branches on one path genuinely
    /// saturate instead of exhausting `n_start` re-blaming the same anchor
    /// once per failed round.
    Generalized,
    /// Never deem branches infeasible; keep trying until the budget runs
    /// out.
    Disabled,
}

/// A shared cooperative-cancellation flag. Cloning shares the flag;
/// [`cancel`](Self::cancel) makes every search and campaign carrying a
/// clone stop at its next round boundary with
/// [`StopReason::DeadlineExpired`] semantics — partial results are
/// finalized exactly like a wall-clock deadline expiry, nothing leaks.
/// This is how `coverme serve` tears a campaign down when its client
/// disconnects mid-stream.
///
/// Equality is identity: two tokens compare equal when they share the
/// same flag (so configs stay `PartialEq` without comparing the
/// unobservable bool).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Prior knowledge a search replays before its first round — the corpus
/// store's warm-start payload (see [`crate::corpus::CorpusStore`]).
///
/// `inputs` are a previous run's representative test inputs for the same
/// function fingerprint: each is re-executed once (one representing-
/// function evaluation apiece, counted in the report and in
/// [`TestReport::warm_replayed`](crate::TestReport::warm_replayed)), and
/// the ones that still run to completion seed coverage, saturation and
/// the accepted-input set. `infeasible` re-seeds prior infeasibility
/// verdicts — revocable exactly like live verdicts: a branch the replay
/// (or any later round or sibling shard) actually covers drops the
/// verdict again.
///
/// A function whose prior inputs still saturate it stops after just the
/// replay evaluations, before its first round. When they don't
/// (some branches end the run uncovered *without* an infeasibility
/// verdict), `prior_coverage` carries the second saving: the recorded
/// run already spent the identical schedule — same program fingerprint,
/// same [search key](CoverMeConfig::search_key) — and exhausted it at
/// that coverage. A search is deterministic in (program, search key), so
/// once the replay reproduces exactly that coverage count, re-running
/// the schedule is guaranteed to rediscover the same result and the
/// search finishes [`StopReason::Exhausted`] by transitivity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarmStart {
    /// Representative inputs from a prior run, replayed in order.
    pub inputs: Vec<Vec<f64>>,
    /// Prior infeasibility verdicts, re-seeded (and refutable) on replay.
    pub infeasible: Vec<coverme_runtime::BranchId>,
    /// Covered-branch count at which a prior run *with the same search
    /// key* exhausted this exact schedule, if one is on record. `None`
    /// (the default, and the value for any key mismatch) replays inputs
    /// and verdicts only, never crediting the schedule.
    pub prior_coverage: Option<usize>,
}

impl WarmStart {
    /// Whether there is anything to replay at all.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty() && self.infeasible.is_empty()
    }
}

/// Configuration of a CoverMe run. The defaults reproduce the paper's
/// experimental settings (`n_start = 500`, `n_iter = 5`, `LM = powell`).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`CoverMeConfig::new`]/[`default`](CoverMeConfig::default) and the
/// builder-style `with_*` methods (every knob a search varies has one),
/// so future fields stop being breaking changes for downstream crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CoverMeConfig {
    /// Number of starting points (`n_start`).
    pub n_start: usize,
    /// Number of Monte-Carlo iterations per start (`n_iter`).
    pub n_iter: usize,
    /// Local minimization algorithm (`LM`).
    pub local_method: LocalMethod,
    /// `ε` used by the branch distances.
    pub epsilon: f64,
    /// Distribution of Monte-Carlo perturbations. Always the default
    /// (SciPy's uniform step, `half_width = 0.5`): nothing in the product
    /// sets it, and it stays a field only because the end-to-end benchmark
    /// harness (`perfbench/`) reads it.
    pub perturbation: PerturbationKind,
    /// Master random seed.
    pub seed: u64,
    /// Infeasible-branch heuristic.
    pub infeasible_policy: InfeasiblePolicy,
    /// A minimum is accepted as "zero" when `FOO_R(x*) <=` this threshold.
    /// The representing function reaches exactly `0.0` by construction, so
    /// the default is `0.0`.
    pub zero_threshold: f64,
    /// Optional wall-clock budget for the whole run.
    pub time_budget: Option<Duration>,
    /// Optional per-search evaluation allowance: each search (each shard of
    /// a sharded one, and each function of a campaign) finishes with
    /// [`StopReason::BudgetExhausted`] before starting any round once its
    /// representing-function evaluations reach the allowance. The last
    /// round may overshoot it by its own evaluations — rounds are atomic.
    /// `None` (the default) means unlimited.
    pub budget: Option<usize>,
    /// Number of shards the `n_start` budget is split across (see
    /// [`crate::shard`]). `0` and `1` both mean unsharded; the merged result
    /// is deterministic for a fixed shard count regardless of scheduling.
    pub shards: usize,
    /// Extension (on by default): when a round's minimum is positive but the
    /// backend clearly converged near a point (e.g. `x* = 1.9999999999997`
    /// for an exact-equality branch), probe a handful of "rounded"
    /// candidates per coordinate and accept one that drives the representing
    /// function to zero. This mitigates the floating-point-inaccuracy
    /// incompleteness the paper's Remark 6.1 describes; the
    /// `ablation_polish` bench measures its effect.
    pub polish: bool,
    /// Ignored. No product code reads it; the end-to-end benchmark harness
    /// (`perfbench/`) passes it to [`ObjectiveEngine::cache_mode`], and the
    /// benchmark-archetype change deletes both.
    pub cache: CacheMode,
    /// Ignored: a search always runs
    /// [`BackendMode::Auto`](coverme_runtime::BackendMode), so every FPIR
    /// program runs on its compiled tape and every native port on
    /// [`Program::execute`]. No product code sets it; it stays a field only
    /// because the end-to-end benchmark harness (`perfbench/`) passes it to
    /// [`ObjectiveEngine::backend_mode`], and the benchmark-archetype change
    /// deletes both.
    pub backend: coverme_runtime::BackendMode,
    /// Ignored. No product code reads it; the end-to-end benchmark harness
    /// (`perfbench/`) sets it through [`with_simd`](Self::with_simd), and
    /// the benchmark-archetype change deletes both.
    pub simd: Option<coverme_runtime::SimdIsa>,
    /// Corpus warm start (off by default): prior inputs and infeasibility
    /// verdicts replayed before the first round (see [`WarmStart`]). With
    /// `None` the search is bit-identical to earlier releases.
    pub warm_start: Option<WarmStart>,
    /// Cooperative cancellation (none by default): when the token fires,
    /// the search stops at its next round boundary with
    /// [`StopReason::DeadlineExpired`] semantics, exactly like a
    /// wall-clock deadline. A campaign copies its base configuration into
    /// every function's search, so one token on the base cancels the whole
    /// campaign (the serve daemon's teardown seam).
    pub cancel: Option<CancelToken>,
}

impl Default for CoverMeConfig {
    fn default() -> Self {
        CoverMeConfig {
            n_start: 500,
            n_iter: 5,
            local_method: LocalMethod::Powell,
            epsilon: DEFAULT_EPSILON,
            perturbation: PerturbationKind::default(),
            seed: 0,
            infeasible_policy: InfeasiblePolicy::LastConditional,
            zero_threshold: 0.0,
            time_budget: None,
            budget: None,
            shards: 1,
            polish: true,
            cache: CacheMode,
            backend: coverme_runtime::BackendMode::Auto,
            simd: None,
            warm_start: None,
            cancel: None,
        }
    }
}

impl CoverMeConfig {
    /// Creates the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of starting points (`n_start`).
    pub fn with_n_start(mut self, n_start: usize) -> Self {
        self.n_start = n_start;
        self
    }

    /// Sets the number of Monte-Carlo iterations per start (`n_iter`).
    pub fn with_n_iter(mut self, n_iter: usize) -> Self {
        self.n_iter = n_iter;
        self
    }

    /// Sets the local minimization method.
    pub fn with_local_method(mut self, method: LocalMethod) -> Self {
        self.local_method = method;
        self
    }

    /// Sets the branch-distance `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the infeasible-branch policy.
    pub fn with_infeasible_policy(mut self, policy: InfeasiblePolicy) -> Self {
        self.infeasible_policy = policy;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the evaluation allowance (see [`CoverMeConfig::budget`]).
    pub fn with_budget(mut self, evaluations: usize) -> Self {
        self.budget = Some(evaluations);
        self
    }

    /// Sets the number of shards the `n_start` budget is split across
    /// (`0` and `1` both mean unsharded).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count a run of this configuration actually uses: the
    /// requested count, at least 1, and never so many that a shard owns
    /// fewer than [`crate::shard::MIN_ROUNDS_PER_SHARD`] starting points —
    /// splitting finer than that measurably loses coverage to duplicated
    /// easy-branch work (see the constant's docs). A pure function of the
    /// configuration, so determinism per requested shard count is kept.
    pub fn effective_shards(&self) -> usize {
        let widest = (self.n_start / crate::shard::MIN_ROUNDS_PER_SHARD).max(1);
        self.shards.clamp(1, widest)
    }

    /// Enables or disables the rounding-based polish step applied to
    /// near-miss minima.
    pub fn with_polish(mut self, enabled: bool) -> Self {
        self.polish = enabled;
        self
    }

    /// Sets the ignored [`simd`](Self::simd) field. No product code calls
    /// it; kept for the benchmark harness until the benchmark-archetype
    /// change.
    pub fn with_simd(mut self, isa: coverme_runtime::SimdIsa) -> Self {
        self.simd = Some(isa);
        self
    }

    /// Attaches a corpus warm start (see [`WarmStart`]): prior inputs and
    /// infeasibility verdicts replayed before the first round.
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Attaches a cooperative-cancellation token (see [`CancelToken`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Hash of every knob that determines a search's *results* — the
    /// schedule and its processing: `seed`, `n_start`, `n_iter`, the
    /// local method, `ε`, the perturbation's half width (by bit pattern),
    /// the infeasible policy, the zero threshold, `polish`, the eval
    /// allowance and the shard split. Knobs pinned result-invisible by the
    /// property suites stay out: `backend`, the ignored `cache` and `simd`,
    /// `time_budget` (wall-clock never decides a *complete* run's content),
    /// `warm_start`/`cancel` themselves.
    ///
    /// Constant words stand where earlier releases mixed knobs that are now
    /// fixed or deleted, so the keys those releases recorded stay valid:
    /// `0` and the bit patterns of `-100.0` and `100.0` for the uniform
    /// starting-point box, `5` (the uniform tag) before the perturbation's
    /// half width, `0` for the pen policy (saturation), and one `0` each
    /// after `polish` and after the shard split.
    ///
    /// Two runs of the same program fingerprint with equal search keys
    /// are bit-identical, which is what lets a corpus warm start credit
    /// a recorded run's exhausted schedule (see
    /// [`WarmStart::prior_coverage`]).
    pub fn search_key(&self) -> u64 {
        let mut hash = fingerprint_seed();
        let mut mix = |word: u64| hash = fingerprint_bytes(hash, &word.to_le_bytes());
        mix(self.seed);
        mix(self.n_start as u64);
        mix(self.n_iter as u64);
        mix(match self.local_method {
            LocalMethod::Powell => 0,
            LocalMethod::NelderMead => 1,
            LocalMethod::Compass => 2,
        });
        mix(self.epsilon.to_bits());
        mix(0);
        mix(START_BOX.0.to_bits());
        mix(START_BOX.1.to_bits());
        let PerturbationKind::Uniform { half_width } = self.perturbation;
        mix(5);
        mix(half_width.to_bits());
        mix(0);
        mix(match self.infeasible_policy {
            InfeasiblePolicy::LastConditional => 0,
            InfeasiblePolicy::Generalized => 1,
            InfeasiblePolicy::Disabled => 2,
        });
        mix(self.zero_threshold.to_bits());
        mix(match self.budget {
            None => u64::MAX,
            Some(allowance) => allowance as u64,
        });
        mix(u64::from(self.polish));
        mix(0);
        mix(self.shards.max(1) as u64);
        mix(0);
        hash
    }
}

/// The CoverMe tester.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoverMe {
    config: CoverMeConfig,
}

impl CoverMe {
    /// Creates a tester with the given configuration.
    pub fn new(config: CoverMeConfig) -> CoverMe {
        CoverMe { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoverMeConfig {
        &self.config
    }

    /// Runs branch coverage-based testing on `program` (Algorithm 1).
    ///
    /// A one-function run of the campaign executor ([`crate::campaign`])
    /// on the calling thread, with the configuration's own seed: with
    /// `shards > 1` the shards run one after another and their snapshots
    /// are merged ([`crate::shard`]).
    pub fn run<P: Program>(&self, program: &P) -> TestReport {
        crate::campaign::run_standalone(&self.config, program).0
    }

    /// [`run`](Self::run), plus how far the search got: `Partial` when
    /// the wall-clock budget or degradation cut it short. Only a
    /// `Complete` search proves anything about the rounds it was given,
    /// so only its report belongs in a corpus store.
    pub fn run_with_status<P: Program>(&self, program: &P) -> (TestReport, FunctionStatus) {
        crate::campaign::run_standalone(&self.config, program)
    }
}

/// Why a search ([`SearchState::run`]) stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every branch is saturated.
    Saturated,
    /// The shard's strided slice of the starting-point schedule is
    /// exhausted.
    Exhausted,
    /// The configured wall-clock budget ran out, or the search was
    /// cancelled (see [`CancelToken`]); the snapshot holds every round
    /// completed before that.
    DeadlineExpired,
    /// The evaluation allowance ([`CoverMeConfig::budget`]) is spent.
    BudgetExhausted,
    /// Too many consecutive rounds aborted — the program kept timing out or
    /// trapping on every minimum the backend returned (see
    /// [`crate::report::RoundOutcome::Aborted`]) — so the search gave up
    /// rather than burn the remaining budget on evaluations that can never
    /// feed coverage. The snapshot holds everything completed so far; a
    /// campaign marks the function `partial`.
    Degraded,
}

/// The search loop of Algorithm 1 for one shard.
///
/// A `SearchState` owns everything one shard's search needs: its
/// [`ObjectiveEngine`] (scalar fast path, execution backend), the
/// regenerated starting-point schedule (the shard's RNG stream — per-round
/// minimizer seeds are derived from the global round index, never from
/// scheduling), its [`SaturationTracker`], coverage, accepted inputs and
/// round records. [`new`](Self::new) only prepares the search;
/// [`run`](Self::run) runs it to its end and returns the shard's snapshot.
#[derive(Debug)]
pub struct SearchState<'a, P: Program> {
    config: CoverMeConfig,
    program: &'a P,
    shard_index: usize,
    shards: usize,
    engine: ObjectiveEngine<&'a P>,
    tracker: SaturationTracker,
    coverage: CoverageMap,
    accepted: Vec<AcceptedInput>,
    rounds: Vec<RoundRecord>,
    /// The full starting-point schedule, regenerated identically by every
    /// shard from the function seed (see [`crate::shard`] module docs).
    schedule: Vec<Vec<f64>>,
    /// Next global round index this shard will run (always ≡ `shard_index`
    /// mod `shards`).
    cursor: usize,
    started: Instant,
    /// Consecutive rounds whose final evaluation aborted (reset by any
    /// round that runs to completion); at [`ABORT_PATIENCE`] the search
    /// finishes with [`StopReason::Degraded`].
    abort_streak: usize,
    /// Corpus inputs replayed by the warm start (0 for a cold search).
    warm_replayed: usize,
    /// Set when the warm replay reproduced exactly the coverage at which
    /// a prior run with the same search key exhausted this identical
    /// schedule ([`WarmStart::prior_coverage`]); the search then finishes
    /// [`StopReason::Exhausted`] without re-running the schedule —
    /// determinism guarantees it would only rediscover the recorded result.
    warm_satisfied: bool,
}

/// How many consecutive aborted rounds a search tolerates before degrading.
/// Aborted rounds record nothing — no input, no saturation update, no
/// infeasible blame — so a program that aborts on *every* returned minimum
/// (e.g. an unconditionally looping body) would otherwise burn the whole
/// `n_start` budget discovering the same timeout `n_iter`-fold per round.
/// A few in a row are tolerated because abort regions can be input-dependent
/// and later starting points may land outside them.
///
/// Patience counts rounds, not executions. A round whose every probe aborts
/// is cheap: the local minimizers stop on a flat [`ABORTED_VALUE`] plateau
/// after `O(n)` executions each, so the rounds themselves need no
/// execution cap.
///
/// [`ABORTED_VALUE`]: crate::ABORTED_VALUE
pub const ABORT_PATIENCE: usize = 4;

impl<'a, P: Program> SearchState<'a, P> {
    /// Creates the search state for shard `shard_index` of a search
    /// configured for `config.shards` shards (`<= 1` means unsharded).
    /// The wall-clock budget, if any, starts counting here. Creating a
    /// state never executes the program: the warm start replays in
    /// [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the program takes no inputs or `shard_index` is out of
    /// range for the configured shard count.
    pub fn new(config: &CoverMeConfig, program: &'a P, shard_index: usize) -> SearchState<'a, P> {
        let shards = config.shards.max(1);
        assert!(
            shard_index < shards,
            "shard index {shard_index} out of range for {shards} shards"
        );
        let num_sites = program.num_sites();
        let arity = program.arity();
        assert!(arity > 0, "program under test must take at least one input");

        let tracker = SaturationTracker::new(num_sites);
        let engine = ObjectiveEngine::new(program, config.epsilon);
        let mut start_rng = SplitMix64::new(config.seed ^ 0x5EED_0001);
        let schedule = uniform_box(&mut start_rng, START_BOX, arity, config.n_start);

        SearchState {
            config: config.clone(),
            program,
            shard_index,
            shards,
            engine,
            tracker,
            coverage: CoverageMap::new(num_sites),
            accepted: Vec::new(),
            rounds: Vec::new(),
            schedule,
            cursor: shard_index,
            started: Instant::now(),
            abort_streak: 0,
            warm_replayed: 0,
            warm_satisfied: false,
        }
    }

    /// Runs the search to its end — the sequential driver loop of
    /// Algorithm 1, restricted to the shard's strided slice — and returns
    /// the shard's snapshot.
    ///
    /// A configured warm start replays first. Before each round the stop
    /// checks run in a fixed order: schedule exhausted, every branch
    /// saturated, warm-start schedule credit, cancellation, evaluation
    /// allowance, abort patience, wall-clock budget. Each round's record
    /// goes to `on_round` the moment the round ends, in round order.
    pub fn run(mut self, on_round: &mut dyn FnMut(&RoundRecord)) -> ShardOutcome {
        self.replay_warm_start();
        let outcome = loop {
            if let Some(outcome) = self.stop() {
                break outcome;
            }
            let record = self.run_one_round();
            on_round(&record);
            self.rounds.push(record);
        };
        ShardOutcome {
            shard_index: self.shard_index,
            shards: self.shards,
            tracker: self.tracker,
            coverage: self.coverage,
            accepted: self.accepted,
            rounds: self.rounds,
            evaluations: self.engine.telemetry().calls as usize,
            timeouts: self.engine.telemetry().timeouts as usize,
            traps: self.engine.telemetry().traps as usize,
            warm_replayed: self.warm_replayed,
            backend: self.engine.backend_name(),
            outcome,
            started: self.started,
            finished: Instant::now(),
        }
    }

    /// Why the search must stop before its next round, if it must.
    fn stop(&self) -> Option<StopReason> {
        if self.cursor >= self.config.n_start {
            return Some(StopReason::Exhausted);
        }
        if self.tracker.all_saturated() {
            return Some(StopReason::Saturated);
        }
        if self.warm_satisfied {
            // The warm replay reproduced the coverage at which a prior run
            // with the same search key exhausted this schedule: the
            // remaining rounds are already spent by transitivity.
            return Some(StopReason::Exhausted);
        }
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            // Cooperative teardown: identical semantics to a deadline
            // expiry — everything completed so far is kept, a campaign
            // marks the function `partial`.
            return Some(StopReason::DeadlineExpired);
        }
        if let Some(allowance) = self.config.budget {
            // Checked before each round: rounds are atomic, so the final
            // round of an allowance may overshoot it by its own
            // evaluations.
            if self.engine.telemetry().calls >= allowance as u64 {
                return Some(StopReason::BudgetExhausted);
            }
        }
        if self.abort_streak >= ABORT_PATIENCE {
            return Some(StopReason::Degraded);
        }
        if let Some(budget) = self.config.time_budget {
            if self.started.elapsed() >= budget {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// Replays the configured [`WarmStart`] — the corpus store's prior
    /// winners and verdicts — through the exact accept path of
    /// [`run_one_round`](Self::run_one_round):
    ///
    /// * each prior input is re-executed once through the engine (counted
    ///   as a normal evaluation); if it still runs to completion its
    ///   coverage and trace seed the maps, and inputs that cover something
    ///   new are accepted as round-0 test inputs (replays in recorded
    ///   order, so a prior run's representative set re-selects itself);
    /// * prior infeasibility verdicts are re-seeded afterwards, skipping
    ///   any branch the replay just covered — verdicts stay refutable by
    ///   real coverage exactly like live ones;
    /// * when the entry carries a same-key exhaustion record
    ///   ([`WarmStart::prior_coverage`]) and the replay reproduced exactly
    ///   that coverage, the schedule is credited as spent and the search
    ///   finishes without re-running it.
    ///
    /// Inputs of the wrong arity (a stale entry after a fingerprint
    /// collision) are skipped, as are verdicts out of the site range. An
    /// empty warm start replays nothing.
    fn replay_warm_start(&mut self) {
        let Some(warm) = self.config.warm_start.clone().filter(|w| !w.is_empty()) else {
            return;
        };
        let snapshot = self.tracker.saturated_set();
        self.engine.retarget(&snapshot);
        let arity = self.program.arity();
        for input in &warm.inputs {
            if input.len() != arity {
                continue;
            }
            let evaluation = self.engine.eval_full(input);
            self.warm_replayed += 1;
            if evaluation.outcome.is_done() {
                let newly_covered = self.coverage.record_set(&evaluation.covered);
                self.tracker.record_trace(&evaluation.trace);
                if newly_covered > 0 {
                    self.accepted.push(AcceptedInput {
                        round: 0,
                        input: input.clone(),
                        covered: evaluation.covered.clone(),
                    });
                }
            }
        }
        let num_branches = self.program.num_sites() * 2;
        for &branch in &warm.infeasible {
            if branch.index() < num_branches
                && !self.tracker.covered().contains(branch)
                && !self.tracker.infeasible().contains(branch)
            {
                self.tracker.mark_infeasible(branch);
            }
        }
        // Schedule credit: the replay landed exactly where a same-key run
        // exhausted this schedule, so the remaining rounds would only
        // rediscover the recorded result (searches are deterministic in
        // (program, search key)). Anything else — more coverage, less, a
        // flaky execution — falls through to a full live run.
        if warm.prior_coverage == Some(self.coverage.covered_count()) {
            self.warm_satisfied = true;
        }
    }

    /// One iteration of the outer loop of Algorithm 1 (lines 9–12): take
    /// the shard's next starting point, minimize the representing function
    /// against the current snapshot, and either accept the zero as a test
    /// input or apply the infeasible-branch heuristic. Returns the round's
    /// record.
    fn run_one_round(&mut self) -> RoundRecord {
        let round = self.cursor;
        self.cursor += self.shards;

        // Line 9: the starting point this shard owns for this global round.
        let x0 = self.schedule[round].clone();

        // Step 2: the representing function against the current snapshot —
        // the engine swaps it in place (a no-op when the snapshot is
        // unchanged since the previous round).
        let snapshot = self.tracker.saturated_set();
        let saturated_before = snapshot.len();
        self.engine.retarget(&snapshot);

        // Line 10: x* = MCMC(FOO_R, x), seeded by the *global* round index
        // so the per-round minimizer stream matches the sequential driver.
        let config = &self.config;
        let hopper = BasinHopping::new()
            .iterations(config.n_iter)
            .local_method(config.local_method)
            .perturbation(config.perturbation)
            .temperature(1.0)
            .seed(
                config
                    .seed
                    .wrapping_add(round as u64)
                    .wrapping_mul(0x9E37_79B9),
            )
            .target_value(config.zero_threshold);

        let result = hopper.minimize_objective(&mut self.engine, &x0);

        // Line 11-12: accept the minimum point if FOO_R(x*) = 0, update
        // Saturate; otherwise apply the infeasible-branch heuristic.
        let mut minimum_point = result.x.clone();
        let mut evaluation = self.engine.eval_full(&minimum_point);
        if self.config.polish && evaluation.value > self.config.zero_threshold {
            if let Some((point, polished_eval)) = polish_minimum(
                &mut self.engine,
                &minimum_point,
                evaluation.value,
                self.config.zero_threshold,
            ) {
                minimum_point = point;
                evaluation = polished_eval;
            }
        }
        let outcome = if !evaluation.outcome.is_done() {
            // The final execution never completed: its value is the abort
            // sentinel and its coverage/trace are garbage. Record nothing —
            // in particular do not blame a branch as infeasible off a
            // truncated trace.
            self.abort_streak += 1;
            RoundOutcome::Aborted
        } else if evaluation.value <= self.config.zero_threshold {
            self.abort_streak = 0;
            let newly_covered = self.coverage.record_set(&evaluation.covered);
            self.tracker.record_trace(&evaluation.trace);
            self.accepted.push(AcceptedInput {
                round,
                input: minimum_point.clone(),
                covered: evaluation.covered.clone(),
            });
            if newly_covered > 0 {
                RoundOutcome::NewInput
            } else {
                RoundOutcome::RedundantInput
            }
        } else {
            self.abort_streak = 0;
            match self.config.infeasible_policy {
                InfeasiblePolicy::LastConditional => {
                    if let Some(last) = evaluation.trace.last() {
                        let blamed = last.untaken_branch();
                        self.tracker.mark_infeasible(blamed);
                        RoundOutcome::DeemedInfeasible(blamed)
                    } else {
                        RoundOutcome::NoProgress
                    }
                }
                InfeasiblePolicy::Generalized => {
                    // Two-stage escalation. A first failure on a path only
                    // indicts the classic anchor: the representing value is
                    // the distance of the *last* live conditional, so
                    // earlier siblings were never what the minimizer was
                    // stuck on. When a path fails again with its anchor
                    // already written off (covered or previously blamed),
                    // the blocker must sit upstream — blame every still
                    // uncovered untaken sibling along the path, each
                    // refutable by real coverage at the next merge.
                    if let Some(last) = evaluation.trace.last() {
                        let anchor = last.untaken_branch();
                        if self.tracker.covered().contains(anchor)
                            || self.tracker.infeasible().contains(anchor)
                        {
                            let blamed = self.tracker.blame_uncovered_path(&evaluation.trace);
                            RoundOutcome::DeemedInfeasiblePath(anchor, blamed.len())
                        } else {
                            self.tracker.mark_infeasible(anchor);
                            RoundOutcome::DeemedInfeasible(anchor)
                        }
                    } else {
                        RoundOutcome::NoProgress
                    }
                }
                InfeasiblePolicy::Disabled => RoundOutcome::NoProgress,
            }
        };

        RoundRecord {
            round,
            start: x0,
            minimum: minimum_point,
            value: evaluation.value,
            evaluations: result.stats.evaluations,
            saturated_before,
            outcome,
        }
    }
}

/// Probes "rounded" variants of a near-miss minimum point, one coordinate at
/// a time, looking for an exact zero of the representing function.
///
/// Unconstrained minimizers converge to `x*` only up to a tolerance, which is
/// not enough when the target branch needs an *exact* floating-point equality
/// (e.g. `y == 4` is only reached at `x = 2`, not at `x = 2 + 1e-12`). The
/// candidates tried here are the natural "intended" values a numeric method
/// narrowly missed: integers, halves, tenths, and a few ULP neighbours.
///
/// `value` is `FOO_R(x)` on the engine's current snapshot, which the caller
/// has already executed, so `x` itself is not run again.
///
/// Returns the polished point and its evaluation, or `None` if no
/// candidate reached the threshold. Candidate probes run through the
/// engine's scalar fast path, one execution each, counted by the engine.
fn polish_minimum<P: Program>(
    engine: &mut ObjectiveEngine<P>,
    x: &[f64],
    value: f64,
    threshold: f64,
) -> Option<(Vec<f64>, crate::representing::Evaluation)> {
    let mut best = x.to_vec();
    let mut best_value = value;

    for coord in 0..best.len() {
        let original = best[coord];
        for candidate in candidate_values(original) {
            if candidate == best[coord] {
                continue;
            }
            let mut trial = best.clone();
            trial[coord] = candidate;
            let value = engine.eval_scalar(&trial);
            if value < best_value {
                best_value = value;
                best = trial;
                if best_value <= threshold {
                    let evaluation = engine.eval_full(&best);
                    return Some((best, evaluation));
                }
            }
        }
    }

    if best_value <= threshold {
        let evaluation = engine.eval_full(&best);
        Some((best, evaluation))
    } else {
        None
    }
}

/// Candidate replacement values for one coordinate of a near-miss minimum.
fn candidate_values(x: f64) -> Vec<f64> {
    if !x.is_finite() {
        return vec![0.0];
    }
    let mut candidates = vec![
        x.round(),
        x.floor(),
        x.ceil(),
        (x * 2.0).round() / 2.0,
        (x * 10.0).round() / 10.0,
        (x * 100.0).round() / 100.0,
        0.0,
    ];
    // A few ULP neighbours in both directions.
    let mut up = x;
    let mut down = x;
    for _ in 0..3 {
        up = up.next_up();
        down = down.next_down();
        candidates.push(up);
        candidates.push(down);
    }
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_runtime::{BranchId, Cmp, CoverageMap, ExecCtx, FnProgram};
    use std::cell::Cell;

    /// The paper's Fig. 3 example program.
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

    /// The modified example of Sect. 5.3 with the infeasible branch
    /// `y == -1` (y is a square, so it can never be -1).
    fn infeasible_example() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("FOO_INF", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 1.0;
            }
            let y = x * x;
            if ctx.branch(1, Cmp::Eq, y, -1.0) {
                // unreachable
            }
        })
    }

    fn quick_config() -> CoverMeConfig {
        CoverMeConfig::default()
            .with_n_start(60)
            .with_n_iter(5)
            .with_seed(42)
    }

    #[test]
    fn search_keys_are_stable_across_releases() {
        // Corpus entries are stamped with the search key, so these literals
        // must not change: a key that drifts silently turns every stored
        // entry cold.
        assert_eq!(CoverMeConfig::default().search_key(), 0x6e2f_29f4_d987_bbf3);
        let tuned = CoverMeConfig::default()
            .with_seed(42)
            .with_n_start(80)
            .with_budget(5_000)
            .with_shards(2);
        assert_eq!(tuned.search_key(), 0xe9bb_d475_5e69_8d44);
        for (method, key) in [
            (LocalMethod::NelderMead, 0xb081_f413_f387_5e4a),
            (LocalMethod::Compass, 0xf48f_0200_b8ad_da45),
        ] {
            let config = CoverMeConfig::default().with_local_method(method);
            assert_eq!(config.search_key(), key, "{}", method.name());
        }
    }

    #[test]
    fn saturates_the_paper_example_fully() {
        let report = CoverMe::new(quick_config()).run(&paper_example());
        assert_eq!(report.branch_coverage_percent(), 100.0, "{report}");
        assert!(report.is_fully_covered());
        assert!(!report.inputs.is_empty());
        // The hard branch 1T (y == 4) requires x in {-4.5, -0.5, 2}.
        assert!(report.coverage.is_covered(BranchId::true_of(1)));
    }

    #[test]
    fn generated_inputs_reproduce_the_reported_coverage() {
        // Re-run the program on the generated inputs only, with a fresh
        // coverage map: it must reproduce the coverage the report claims,
        // because the report's coverage is defined over X.
        let program = paper_example();
        let report = CoverMe::new(quick_config()).run(&program);
        let mut check = CoverageMap::new(program.num_sites());
        for input in &report.inputs {
            let mut ctx = ExecCtx::observe();
            program.execute(input, &mut ctx);
            check.record(&ctx);
        }
        assert_eq!(check.covered_count(), report.coverage.covered_count());
    }

    #[test]
    fn detects_the_infeasible_branch_and_terminates() {
        let report = CoverMe::new(quick_config()).run(&infeasible_example());
        // 3 of 4 branches are feasible and should be covered.
        assert_eq!(report.coverage.covered_count(), 3, "{report}");
        // The infeasible branch is 1T (y == -1).
        assert!(report.infeasible.contains(&BranchId::true_of(1)));
        // Crucially the driver stopped long before exhausting n_start.
        assert!(report.rounds.len() < 60);
    }

    #[test]
    fn early_termination_when_everything_saturates() {
        let report = CoverMe::new(quick_config()).run(&paper_example());
        assert!(
            report.rounds.len() <= 10,
            "took {} rounds for a 2-conditional program",
            report.rounds.len()
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let a = CoverMe::new(quick_config()).run(&paper_example());
        let b = CoverMe::new(quick_config()).run(&paper_example());
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.coverage.covered_count(), b.coverage.covered_count());
    }

    #[test]
    fn respects_time_budget() {
        let config = quick_config()
            .with_n_start(1_000_000)
            .with_infeasible_policy(InfeasiblePolicy::Disabled)
            .with_time_budget(Duration::from_millis(50));
        let report = CoverMe::new(config).run(&infeasible_example());
        // Generous bound: the run must stop well under a second.
        assert!(report.wall_time < Duration::from_secs(5));
        assert!(report.rounds.len() < 1_000_000);
    }

    #[test]
    fn nelder_mead_backend_also_works() {
        // A weaker local minimizer can fail a round and trigger the
        // infeasible-branch heuristic on a feasible branch (the paper's
        // Remark 6.1 situation 2), so disable the heuristic here and let the
        // extra rounds recover full coverage.
        let config = quick_config()
            .with_local_method(LocalMethod::NelderMead)
            .with_infeasible_policy(InfeasiblePolicy::Disabled);
        let report = CoverMe::new(config).run(&paper_example());
        assert_eq!(report.branch_coverage_percent(), 100.0);
    }

    #[test]
    fn round_records_are_consistent() {
        let report = CoverMe::new(quick_config()).run(&paper_example());
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.round, i);
            assert_eq!(round.start.len(), 1);
            assert_eq!(round.minimum.len(), 1);
            assert!(round.value >= 0.0, "C1 violated in round {i}");
        }
        let productive = report.productive_rounds();
        assert!(productive >= 2, "need at least two inputs for 4 branches");
    }

    #[test]
    fn sharded_run_covers_the_paper_example_and_is_deterministic() {
        let config = quick_config().with_shards(4);
        let a = CoverMe::new(config.clone()).run(&paper_example());
        let b = CoverMe::new(config).run(&paper_example());
        assert_eq!(a.branch_coverage_percent(), 100.0, "{a}");
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.rounds.len(), b.rounds.len());
    }

    #[test]
    fn sharded_run_never_covers_less_than_unsharded() {
        for shards in [2usize, 3, 4] {
            let unsharded = CoverMe::new(quick_config()).run(&infeasible_example());
            let sharded =
                CoverMe::new(quick_config().with_shards(shards)).run(&infeasible_example());
            assert!(
                sharded.coverage.covered_count() >= unsharded.coverage.covered_count(),
                "{shards} shards covered {} < {}",
                sharded.coverage.covered_count(),
                unsharded.coverage.covered_count()
            );
        }
    }

    #[test]
    fn effective_shards_keeps_a_minimum_round_slice() {
        assert_eq!(
            CoverMeConfig::default()
                .with_n_start(40)
                .with_shards(4)
                .effective_shards(),
            2
        );
        assert_eq!(
            CoverMeConfig::default()
                .with_n_start(80)
                .with_shards(4)
                .effective_shards(),
            4
        );
        assert_eq!(
            CoverMeConfig::default()
                .with_n_start(8)
                .with_shards(4)
                .effective_shards(),
            1
        );
        assert_eq!(
            CoverMeConfig::default().with_shards(0).effective_shards(),
            1
        );
        // The paper's full budget splits comfortably.
        assert_eq!(
            CoverMeConfig::default().with_shards(16).effective_shards(),
            16
        );
    }

    #[test]
    fn shards_zero_and_one_mean_unsharded() {
        let baseline = CoverMe::new(quick_config()).run(&paper_example());
        let zero = CoverMe::new(quick_config().with_shards(0)).run(&paper_example());
        let one = CoverMe::new(quick_config().with_shards(1)).run(&paper_example());
        assert_eq!(baseline.inputs, zero.inputs);
        assert_eq!(baseline.inputs, one.inputs);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_zero_arity_programs() {
        let p = FnProgram::new("nullary", 0, 0, |_: &[f64], _: &mut ExecCtx| {});
        let _ = CoverMe::default().run(&p);
    }

    /// A program whose every execution runs out of fuel before completing —
    /// the interpreter analogue is an unconditionally infinite loop.
    fn always_aborting() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("SPIN", 1, 1, |input: &[f64], ctx: &mut ExecCtx| {
            ctx.branch(0, Cmp::Gt, input[0].abs() + 1.0, 0.0);
            ctx.mark_timeout();
        })
    }

    #[test]
    fn always_aborting_program_degrades_instead_of_burning_the_budget() {
        let program = always_aborting();
        // Every probe of an all-aborted search is `+∞`, so each local
        // minimization stops after O(n) executions. The bounds are the
        // measured totals over the ABORT_PATIENCE rounds; a minimizer that
        // walks the `+∞` plateau instead spends 2,550 (Powell), 38,502
        // (Nelder–Mead) and 1,710 (compass).
        for (method, max_evaluations) in [
            (LocalMethod::Powell, 146),
            (LocalMethod::NelderMead, 98),
            (LocalMethod::Compass, 170),
        ] {
            let config = quick_config().with_n_start(500).with_local_method(method);
            let outcome = SearchState::new(&config, &program, 0).run(&mut |_| {});
            let name = method.name();
            assert_eq!(outcome.outcome, StopReason::Degraded, "{name}");
            assert_eq!(outcome.rounds.len(), ABORT_PATIENCE, "{name}");
            let report = outcome.into_report("SPIN");
            assert!(
                report.evaluations <= max_evaluations,
                "{name}: {} evaluations",
                report.evaluations
            );
            assert!(
                report.inputs.is_empty(),
                "{name}: aborted rounds accept nothing"
            );
            assert!(
                report.infeasible.is_empty(),
                "{name}: no blame off garbage traces"
            );
            assert!(
                report
                    .rounds
                    .iter()
                    .all(|r| r.outcome == RoundOutcome::Aborted),
                "{name}"
            );
            assert!(report.timeouts > 0, "{name}: telemetry counts the timeouts");
            assert_eq!(report.traps, 0, "{name}");
        }
    }

    /// Wraps `inner` so that every execution adds one to `calls`.
    fn counting<'c, P: Program + 'c>(
        inner: P,
        calls: &'c Cell<usize>,
    ) -> FnProgram<impl Fn(&[f64], &mut ExecCtx) + 'c> {
        let (arity, num_sites) = (inner.arity(), inner.num_sites());
        FnProgram::new(
            inner.name().to_string(),
            arity,
            num_sites,
            move |input: &[f64], ctx: &mut ExecCtx| {
                calls.set(calls.get() + 1);
                inner.execute(input, ctx);
            },
        )
    }

    /// Runs shard 0 of `config` on `program` and checks that `on_round`
    /// saw every round exactly once, in round order, as the snapshot
    /// records them.
    fn run_watched<P: Program>(config: &CoverMeConfig, program: &P) -> ShardOutcome {
        let mut seen = Vec::new();
        let outcome =
            SearchState::new(config, program, 0).run(&mut |record| seen.push(record.clone()));
        assert_eq!(seen, outcome.rounds);
        assert!(seen.windows(2).all(|w| w[0].round < w[1].round));
        outcome
    }

    #[test]
    fn reported_evaluations_match_engine_calls() {
        // Every engine call is one execution, and every execution —
        // line-search probes, the final full evaluation, polish probes that
        // find nothing, warm-start replays — goes through the engine, whose
        // call counter is the reported `evaluations`, under every local
        // method.
        let warm = WarmStart {
            inputs: vec![vec![0.5], vec![3.0]],
            ..WarmStart::default()
        };
        fn check<P: Program>(config: &CoverMeConfig, program: P) {
            let name = program.name().to_string();
            let calls = Cell::new(0);
            let outcome = run_watched(config, &counting(program, &calls));
            assert_eq!(outcome.evaluations, calls.get(), "{name}");
        }
        for method in [
            LocalMethod::Powell,
            LocalMethod::NelderMead,
            LocalMethod::Compass,
        ] {
            let cold = quick_config().with_local_method(method);
            for config in [cold.clone(), cold.with_warm_start(warm.clone())] {
                check(&config, paper_example());
                check(&config, infeasible_example());
            }
        }
    }

    #[test]
    fn candidate_values_at_the_edges_of_f64() {
        // Bit patterns, so signed zeros and infinities compare exactly.
        let bits =
            |x: f64| -> Vec<u64> { candidate_values(x).iter().map(|c| c.to_bits()).collect() };
        const NEG: u64 = 1 << 63;
        const INF: u64 = 0x7ff0_0000_0000_0000;
        const MAX: u64 = 0x7fef_ffff_ffff_ffff;
        const ONE: u64 = 0x3ff0_0000_0000_0000;
        assert_eq!(bits(0.0), [0, 1, NEG | 1, 2, NEG | 2, 3, NEG | 3]);
        assert_eq!(bits(-0.0), [NEG, 1, NEG | 1, 2, NEG | 2, 3, NEG | 3]);
        assert_eq!(
            bits(f64::MAX),
            [MAX, INF, 0, INF, MAX - 1, INF, MAX - 2, INF, MAX - 3]
        );
        assert_eq!(
            bits(-f64::MAX),
            [
                NEG | MAX,
                NEG | INF,
                0,
                NEG | (MAX - 1),
                NEG | INF,
                NEG | (MAX - 2),
                NEG | INF,
                NEG | (MAX - 3),
                NEG | INF
            ]
        );
        // The smallest subnormal.
        assert_eq!(
            bits(f64::from_bits(1)),
            [0, ONE, 0, 2, 0, 3, NEG | 1, 4, NEG | 2]
        );
        assert_eq!(bits(f64::NAN), [0]);
    }

    #[test]
    fn new_never_executes_the_program() {
        let calls = Cell::new(0);
        let program = counting(paper_example(), &calls);
        let warm = WarmStart {
            inputs: vec![vec![0.5], vec![3.0]],
            ..WarmStart::default()
        };
        let config = quick_config().with_warm_start(warm);
        let state = SearchState::new(&config, &program, 0);
        assert_eq!(calls.get(), 0, "creating a state executes nothing");
        let outcome = state.run(&mut |_| {});
        assert_eq!(outcome.warm_replayed, 2);
        assert!(calls.get() >= outcome.warm_replayed);
    }

    #[test]
    fn on_round_sees_every_round_once_in_order() {
        // Cold: the paper example saturates.
        let cold = run_watched(&quick_config(), &paper_example());
        assert_eq!(cold.outcome, StopReason::Saturated);
        assert!(!cold.rounds.is_empty());

        // Warm: `0.5` covers 0T and 1F, so rounds still run after the
        // replay, which reports no round of its own.
        let warm = WarmStart {
            inputs: vec![vec![0.5]],
            ..WarmStart::default()
        };
        let warmed = run_watched(&quick_config().with_warm_start(warm), &paper_example());
        assert_eq!(warmed.warm_replayed, 1);
        assert!(!warmed.rounds.is_empty());

        // Degraded: the always-aborting program gives up after
        // ABORT_PATIENCE rounds.
        let spun = run_watched(&quick_config(), &always_aborting());
        assert_eq!(spun.outcome, StopReason::Degraded);
        assert_eq!(spun.rounds.len(), ABORT_PATIENCE);
    }

    #[test]
    fn budget_admits_one_overshooting_round() {
        // The allowance admits exactly one round, which overshoots it;
        // `on_round` sees that round and nothing after it.
        let config = quick_config()
            .with_n_start(500)
            .with_infeasible_policy(InfeasiblePolicy::Disabled)
            .with_budget(1);
        let outcome = run_watched(&config, &infeasible_example());
        assert_eq!(outcome.outcome, StopReason::BudgetExhausted);
        assert_eq!(outcome.rounds.len(), 1);
        assert!(outcome.evaluations > 1);
    }

    #[test]
    fn generalized_blame_saturates_where_last_conditional_cannot() {
        // Both untaken branches of the failed path are infeasible: the
        // classic heuristic blames only the last conditional per round,
        // the generalized policy blames the whole path at once.
        let doubly_infeasible = || {
            FnProgram::new("FOO_INF2", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
                let x = input[0];
                // 0F (x*x < 0) and 1T (x*x == -1) are both unreachable.
                ctx.branch(0, Cmp::Ge, x * x, 0.0);
                ctx.branch(1, Cmp::Eq, x * x, -1.0);
            })
        };
        let config = quick_config().with_infeasible_policy(InfeasiblePolicy::Generalized);
        let report = CoverMe::new(config).run(&doubly_infeasible());
        assert_eq!(report.coverage.covered_count(), 2, "{report}");
        assert!(report.infeasible.contains(&BranchId::false_of(0)));
        assert!(report.infeasible.contains(&BranchId::true_of(1)));
        assert!(report.infeasible_blamed() >= 2);
        // One failed round saturates everything the classic policy would
        // have needed two for.
        let classic = CoverMe::new(quick_config()).run(&doubly_infeasible());
        assert!(
            report.rounds.len() <= classic.rounds.len(),
            "generalized blame must not take longer ({} > {})",
            report.rounds.len(),
            classic.rounds.len()
        );
    }

    #[test]
    fn generalized_blame_matches_classic_on_the_paper_infeasible_example() {
        // A single infeasible site at the end of the path: the two policies
        // must find the same verdict and the same coverage.
        let classic = CoverMe::new(quick_config()).run(&infeasible_example());
        let config = quick_config().with_infeasible_policy(InfeasiblePolicy::Generalized);
        let general = CoverMe::new(config).run(&infeasible_example());
        assert_eq!(general.coverage.covered_count(), 3, "{general}");
        assert!(general.infeasible.contains(&BranchId::true_of(1)));
        assert!(general.rounds.len() <= classic.rounds.len());
    }

    #[test]
    fn abort_streak_resets_on_completed_rounds() {
        // Aborts only on negative inputs: the search keeps finding
        // completed rounds in between, so it must not degrade.
        let flaky = FnProgram::new("FLAKY", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let x = input[0];
            if x < 0.0 {
                ctx.mark_timeout();
                return;
            }
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                // easy
            }
            ctx.branch(1, Cmp::Eq, x, 4.0);
        });
        let report = CoverMe::new(quick_config()).run(&flaky);
        assert!(
            report.coverage.covered_count() > 0,
            "completed rounds still make progress: {report}"
        );
    }
}
