//! Parallel coverage campaigns, and the one search executor every search
//! runs on.
//!
//! The paper evaluates CoverMe one Fdlibm function at a time; reproducing a
//! whole table is embarrassingly parallel because every function is searched
//! independently. A [`Campaign`] runs its functions on one executor: a fixed
//! list of **tasks** — one *(function, shard)* search run to its end
//! ([`SearchState::run`]) — claimed front to back by one worker loop on a
//! pool of scoped threads ([`std::thread::scope`]).
//!
//! There is one schedule, the paper's: every function runs its own
//! `n_start` schedule. With `shards = 1` every function is a single task
//! running one [`CoverMe`](crate::CoverMe) search to exhaustion, exactly the
//! paper's setup; with `shards > 1` the schedule splits across shard units
//! ([`crate::shard`]), and when the last shard of a function returns, the
//! shard snapshots are merged and the function is finalized.
//!
//! [`CoverMe::run`](crate::CoverMe::run) is a one-function run of the same
//! executor on the calling thread:
//!
//! ```text
//!              tasks (function, shard)
//!   task list ──▶ worker loop ──▶ SearchState::run ──▶ settle the snapshot
//!                                                              │
//!            last shard of the function back? merge and finalize ◀──┘
//! ```
//!
//! Because tasks are claimed from one shared list built in function-major
//! order, a trailing heavy function (e.g. `ieee754_pow` with its 114
//! branches) fans out over the workers that would otherwise sit idle at the
//! end of a campaign.
//!
//! Finished functions do not wait for the suite: the moment a function is
//! finalized, its merged [`FunctionResult`] is emitted as a
//! [`CampaignEvent`] — [`Campaign::run_with`] hands every event to a caller
//! callback as it lands (the `fdlibm_campaign --stream` mode prints table
//! rows this way), while [`Campaign::run`] just collects them. With more
//! than one worker the calling thread runs no searches, only the handler.
//! Either way the final [`CampaignReport`] lists results in inventory
//! order.
//!
//! Properties the runner guarantees:
//!
//! * **Determinism across thread counts.** Every function's seed is derived
//!   from the campaign seed, the *function name* and its duplicate-name
//!   occurrence (never from scheduling or its inventory position, so a
//!   subset campaign reproduces the full campaign's rows); each task's work
//!   is a deterministic function of `(seed, shards, budget)`; and the shard
//!   merge is order-independent — so a campaign without a deadline
//!   produces identical searches whether it runs on 1 worker or 64.
//! * **Graceful budget expiry.** With a wall-clock budget set, workers check
//!   the deadline *before* claiming a task — a passed deadline never
//!   starts a zero-budget search that would be counted as completed — and
//!   searches created mid-campaign have their own time budget clamped to
//!   the time remaining. A fired [`CancelToken`] on the base configuration
//!   stops claiming the same way. Functions none of whose shards ran are
//!   reported as [`FunctionStatus::Skipped`]; functions the deadline or the
//!   token cut mid-search keep everything their shards completed and are
//!   reported as [`FunctionStatus::Partial`] instead of being dropped.
//! * **Work conservation.** Tasks are claimed from one shared list, so a
//!   slow function does not serialize the suite behind it, and idle workers
//!   exit: no task is ever added after the list is built.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use coverme_runtime::{fingerprint_bytes, fingerprint_seed, Program};

use crate::corpus::CorpusStore;
use crate::driver::{CancelToken, CoverMeConfig, SearchState, StopReason};
use crate::report::schema::{member, JsonValue, CAMPAIGN_REPORT};
use crate::report::TestReport;
use crate::shard::{merge_shards, ShardOutcome};

/// Configuration of a parallel campaign.
///
/// Non-exhaustive: construct via [`CampaignConfig::new`] /
/// [`Default::default`] and customize with the `with_*` builders, so
/// configurations written against this version keep compiling as the
/// campaign API grows fields.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Template CoverMe configuration applied to every function. Its `seed`
    /// acts as the campaign master seed; each function runs with a seed
    /// derived from it, the function's name and its duplicate-name
    /// occurrence. Its `shards` field sets the per-function shard count of
    /// the two-level schedule.
    pub base: CoverMeConfig,
    /// Number of worker threads. `0` (the default) autodetects: the
    /// machine's available parallelism, but at least two workers.
    pub workers: usize,
    /// Optional wall-clock budget for the whole campaign. Searches not
    /// started before the budget expires are skipped; the report still
    /// contains one entry per inventory function.
    pub time_budget: Option<Duration>,
    /// Optional persistent corpus store. When set, every function's search
    /// warm-starts from the store's entry for its fingerprint (prior
    /// winners replayed, prior infeasibility verdicts seeded), and every
    /// [`FunctionStatus::Complete`] result is recorded back. `None` (the
    /// default) reproduces the corpus-less behavior bit for bit.
    pub corpus: Option<Arc<CorpusStore>>,
}

impl PartialEq for CampaignConfig {
    fn eq(&self, other: &Self) -> bool {
        // The corpus store has no value identity (it is a directory
        // handle); two configs are equal when they share the same store.
        let corpus_eq = match (&self.corpus, &other.corpus) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        self.base == other.base
            && self.workers == other.workers
            && self.time_budget == other.time_budget
            && corpus_eq
    }
}

impl CampaignConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the template CoverMe configuration.
    pub fn with_base(mut self, base: CoverMeConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the worker-thread count (`0` autodetects, minimum two).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the campaign wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attaches a persistent corpus store (see [`crate::corpus`]): warm
    /// starts on the way in, [`FunctionStatus::Complete`] recordings on
    /// the way out.
    pub fn with_corpus(mut self, corpus: Arc<CorpusStore>) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// The worker count this configuration resolves to for `inventory_len`
    /// functions: the explicit count, or autodetected parallelism (≥ 2),
    /// never more than there are work units (functions × shards).
    pub fn effective_workers(&self, inventory_len: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        } else {
            self.workers
        };
        let units = inventory_len.saturating_mul(self.base.effective_shards());
        requested.clamp(1, units.max(1))
    }
}

/// How far the campaign got with one function before reporting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionStatus {
    /// Every shard ran its full schedule (to saturation or budget
    /// exhaustion) — the result a budget-less campaign always produces.
    Complete,
    /// The campaign deadline cut the search: some shards never ran, or a
    /// shard's wall-clock budget ran out mid-search. The report merges
    /// everything that did complete instead of dropping it.
    Partial,
    /// The deadline passed before any of the function's shards started;
    /// there is no report.
    Skipped,
}

impl FunctionStatus {
    /// Stable lowercase label (used by the JSON artifact).
    pub fn label(&self) -> &'static str {
        match self {
            FunctionStatus::Complete => "complete",
            FunctionStatus::Partial => "partial",
            FunctionStatus::Skipped => "skipped",
        }
    }
}

/// A progress notification of a running campaign, delivered to the
/// [`Campaign::run_with`] callback the moment the scheduler produces it —
/// the streaming seam `fdlibm_campaign --stream` prints rows from.
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// A function's last shard completed (or the deadline finalized its
    /// partial progress) and its merged result is ready. Events arrive in
    /// *completion* order, not inventory order; `index` is the function's
    /// inventory position.
    FunctionFinished {
        /// Inventory index of the finished function.
        index: usize,
        /// The function's merged result — the same value the final
        /// [`CampaignReport`] carries at `results[index]`.
        result: FunctionResult,
    },
}

/// The outcome of one function of the campaign.
#[derive(Debug, Clone)]
pub struct FunctionResult {
    /// The program's name, as reported by [`Program::name`].
    pub name: String,
    /// The search report (merged across shards), or `None` if the campaign
    /// budget ran out before any of this function's shards started.
    pub report: Option<TestReport>,
    /// How many of the function's shard units ran before the budget
    /// ran out (equals the configured shard count on an unconstrained
    /// campaign, `0` when skipped).
    pub shards_run: usize,
    /// Whether the function ran to completion, was cut by the deadline
    /// with partial progress kept, or never started.
    pub status: FunctionStatus,
}

impl FunctionResult {
    /// Branch coverage in percent, if the search ran **and** the function
    /// has branches to measure. Branch-free functions yield `None` so the
    /// mean over a suite is not diluted by vacuous 100s.
    pub fn branch_coverage_percent(&self) -> Option<f64> {
        self.report
            .as_ref()
            .filter(|report| report.coverage.total_branches() > 0)
            .map(TestReport::branch_coverage_percent)
    }

    /// Whether the search ran (was not skipped by the budget).
    pub fn completed(&self) -> bool {
        self.report.is_some()
    }

    /// Representing-function evaluations the search spent (0 if skipped).
    pub fn evaluations(&self) -> usize {
        self.report.as_ref().map_or(0, |report| report.evaluations)
    }

    /// Evaluation throughput of the search in evals/sec, if it ran.
    pub fn evals_per_second(&self) -> Option<f64> {
        self.report.as_ref().map(TestReport::evals_per_second)
    }

    /// Productive evaluation throughput in evals/sec, if the search ran —
    /// aborted (timeout/trap) executions are excluded from the numerator, so a function that mostly spins does not
    /// inflate the table (see
    /// [`TestReport::effective_evals_per_second`]).
    pub fn effective_evals_per_second(&self) -> Option<f64> {
        self.report
            .as_ref()
            .map(TestReport::effective_evals_per_second)
    }

    /// Executions of this search that aborted — timeouts plus traps (0 if
    /// skipped).
    pub fn aborted_evaluations(&self) -> usize {
        self.report
            .as_ref()
            .map_or(0, TestReport::aborted_evaluations)
    }

    /// Branches the generalized infeasibility heuristic blamed across the
    /// search's failed rounds (0 if skipped).
    pub fn infeasible_blamed(&self) -> usize {
        self.report
            .as_ref()
            .map_or(0, TestReport::infeasible_blamed)
    }

    /// One formatted campaign-table row (no trailing newline) — exactly
    /// the line [`CampaignReport`]'s `Display` prints for this function,
    /// exposed so streaming consumers can print rows as
    /// [`CampaignEvent`]s land.
    pub fn table_row(&self) -> String {
        match &self.report {
            Some(report) => {
                let mut row = format!(
                    "{:<22} {:>9} {:>9} {:>12.1} {:>10} {:>9.0} {:>10.3}",
                    self.name,
                    report.coverage.total_branches(),
                    report.inputs.len(),
                    report.branch_coverage_percent(),
                    report.evaluations,
                    // Productive throughput: aborted (timeout/trap)
                    // executions don't count toward the rate.
                    report.effective_evals_per_second(),
                    report.wall_time.as_secs_f64()
                );
                if self.status == FunctionStatus::Partial {
                    row.push_str(" (partial)");
                }
                row
            }
            None => format!(
                "{:<22} {:>9} {:>9} {:>12} {:>10} {:>9} {:>10}",
                self.name, "-", "-", "skipped", "-", "-", "-"
            ),
        }
    }

    /// This function's row of the campaign report's `functions` array.
    fn to_value(&self) -> JsonValue {
        let mut members = vec![
            member("name", self.name.as_str()),
            member("completed", self.completed()),
            member("status", self.status.label()),
            member("shards_run", self.shards_run),
        ];
        let Some(report) = &self.report else {
            members.push(member("evals", 0usize));
            return JsonValue::Object(members);
        };
        members.extend([
            member("backend", report.backend),
            member("branches", report.coverage.total_branches()),
            member("covered_branches", report.coverage.covered_count()),
            member("branch_coverage_percent", report.branch_coverage_percent()),
            member("inputs", report.inputs.len()),
            member("evals", report.evaluations),
            member("timeouts", report.timeouts),
            member("traps", report.traps),
            member("evals_per_second", report.evals_per_second()),
            member(
                "effective_evals_per_second",
                report.effective_evals_per_second(),
            ),
            member("infeasible_blamed", report.infeasible_blamed()),
        ]);
        if report.warm_replayed > 0 {
            members.push(member("corpus_warm_start", true));
            members.push(member("warm_replayed", report.warm_replayed));
        }
        members.push(member("wall_time_s", report.wall_time.as_secs_f64()));
        JsonValue::Object(members)
    }
}

/// Aggregated result of a [`Campaign::run`], one entry per inventory
/// function in inventory order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-function outcomes, in inventory order.
    pub results: Vec<FunctionResult>,
    /// Number of worker threads that ran the campaign.
    pub workers: usize,
    /// Per-function shard count of the schedule.
    pub shards: usize,
    /// Wall-clock time of the whole campaign.
    pub wall_time: Duration,
}

impl CampaignReport {
    /// Number of functions whose search produced a report (fully or cut by
    /// the deadline with partial progress kept).
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.completed()).count()
    }

    /// Number of functions skipped because the budget ran out.
    pub fn skipped(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Number of functions the deadline cut mid-search (their reports merge
    /// the progress their shards completed).
    pub fn partial(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status == FunctionStatus::Partial)
            .count()
    }

    /// Suite-level branch coverage in percent: covered branches over total
    /// branches, summed across completed functions. An empty inventory is
    /// vacuously 100; a non-empty inventory where nothing completed (budget
    /// ran out immediately) is 0.
    pub fn suite_branch_coverage_percent(&self) -> f64 {
        if let Some(zero) = self.vacuous_percent() {
            return zero;
        }
        let (covered, total) = self.branch_totals();
        if total == 0 {
            100.0
        } else {
            100.0 * covered as f64 / total as f64
        }
    }

    /// The percentage to report when no function completed: vacuously 100
    /// for an empty inventory, 0 when the budget skipped everything, `None`
    /// when at least one search ran.
    fn vacuous_percent(&self) -> Option<f64> {
        if self.completed() > 0 {
            None
        } else if self.results.is_empty() {
            Some(100.0)
        } else {
            Some(0.0)
        }
    }

    /// Suite-level block coverage in percent — the line-coverage proxy used
    /// by the Table 5 harness: per function, the entry block plus one block
    /// per branch arm. Vacuous cases as in
    /// [`suite_branch_coverage_percent`](Self::suite_branch_coverage_percent).
    pub fn suite_block_coverage_percent(&self) -> f64 {
        if let Some(zero) = self.vacuous_percent() {
            return zero;
        }
        let (covered, total) = self.branch_totals();
        let blocks_total = self.completed() + total;
        let blocks_covered = self.completed() + covered;
        100.0 * blocks_covered as f64 / blocks_total as f64
    }

    /// Mean per-function branch coverage in percent, the aggregation the
    /// paper's tables print. Branch-free functions contribute nothing to the
    /// mean; when *every* completed function is branch-free the mean is the
    /// vacuous 100 (there was nothing to miss), never `NaN`. Other vacuous
    /// cases as in
    /// [`suite_branch_coverage_percent`](Self::suite_branch_coverage_percent).
    pub fn mean_branch_coverage_percent(&self) -> f64 {
        if let Some(zero) = self.vacuous_percent() {
            return zero;
        }
        let percents: Vec<f64> = self
            .results
            .iter()
            .filter_map(FunctionResult::branch_coverage_percent)
            .collect();
        if percents.is_empty() {
            // Completed functions exist but none has branches: vacuously
            // full coverage, not 0/0.
            100.0
        } else {
            percents.iter().sum::<f64>() / percents.len() as f64
        }
    }

    /// Total representing-function evaluations across completed functions,
    /// each one program execution.
    pub fn total_evaluations(&self) -> usize {
        self.results.iter().map(FunctionResult::evaluations).sum()
    }

    /// Total evaluations that ran out of fuel across completed functions
    /// (see [`TestReport::timeouts`]).
    pub fn total_timeouts(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|r| r.timeouts)
            .sum()
    }

    /// Total evaluations that trapped mid-run across completed functions
    /// (see [`TestReport::traps`]).
    pub fn total_traps(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|r| r.traps)
            .sum()
    }

    /// Aggregate evaluation throughput of the campaign: total evaluations
    /// over the campaign's wall-clock time (0 when nothing ran or the
    /// campaign was too fast to measure). With several workers this exceeds
    /// any single search's rate — it measures the fleet, not a core.
    pub fn suite_evals_per_second(&self) -> f64 {
        let seconds = self.wall_time.as_secs_f64();
        if seconds > 0.0 {
            self.total_evaluations() as f64 / seconds
        } else {
            0.0
        }
    }

    /// Aggregate *productive* throughput: like
    /// [`suite_evals_per_second`](Self::suite_evals_per_second) with the
    /// aborted (timeout/trap) executions excluded from the numerator.
    pub fn suite_effective_evals_per_second(&self) -> f64 {
        let seconds = self.wall_time.as_secs_f64();
        if seconds <= 0.0 {
            return 0.0;
        }
        let aborted: usize = self
            .results
            .iter()
            .map(FunctionResult::aborted_evaluations)
            .sum();
        self.total_evaluations().saturating_sub(aborted) as f64 / seconds
    }

    /// Total branches the generalized infeasibility heuristic blamed
    /// across the suite's failed rounds.
    pub fn total_infeasible_blamed(&self) -> usize {
        self.results
            .iter()
            .map(FunctionResult::infeasible_blamed)
            .sum()
    }

    /// Total corpus inputs replayed across the suite's warm starts
    /// (0 for a campaign run without a corpus store).
    pub fn total_warm_replayed(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|t| t.warm_replayed)
            .sum()
    }

    /// Whether any function of this campaign warm-started from the corpus.
    pub fn corpus_warm_start(&self) -> bool {
        self.total_warm_replayed() > 0
    }

    /// Suite branch coverage per million evaluations — the
    /// machine-independent budget-economics ratio the benchmark gate
    /// tracks (covered branches per 1e6 evals; 0 when nothing ran).
    pub fn coverage_per_megaeval(&self) -> f64 {
        let evals = self.total_evaluations();
        if evals == 0 {
            return 0.0;
        }
        let (covered, _) = self.branch_totals();
        covered as f64 * 1.0e6 / evals as f64
    }

    /// The campaign report as a JSON value (schema [`CAMPAIGN_REPORT`]) —
    /// the machine-readable artifact the nightly CI job stores and the
    /// `coverme serve` `report` event embeds. Non-finite rates are
    /// written as 0.
    pub fn to_value(&self) -> JsonValue {
        let mut members = vec![
            member("schema", CAMPAIGN_REPORT.label()),
            member("workers", self.workers),
            member("shards", self.shards),
            member("wall_time_s", self.wall_time.as_secs_f64()),
            member("completed", self.completed()),
            member("skipped", self.skipped()),
            member(
                "suite_branch_coverage_percent",
                self.suite_branch_coverage_percent(),
            ),
            member(
                "suite_block_coverage_percent",
                self.suite_block_coverage_percent(),
            ),
            member(
                "mean_branch_coverage_percent",
                self.mean_branch_coverage_percent(),
            ),
            member("total_evaluations", self.total_evaluations()),
            member("total_timeouts", self.total_timeouts()),
            member("total_traps", self.total_traps()),
            member("suite_evals_per_second", self.suite_evals_per_second()),
            member(
                "suite_effective_evals_per_second",
                self.suite_effective_evals_per_second(),
            ),
            member("total_infeasible_blamed", self.total_infeasible_blamed()),
            member("coverage_per_megaeval", self.coverage_per_megaeval()),
        ];
        // Corpus keys are emitted only when a warm start actually replayed
        // inputs, so a corpus-less campaign's artifact stays byte-identical
        // to earlier releases (pinned by `schema_properties`).
        if self.corpus_warm_start() {
            members.push(member("corpus_warm_start", true));
            members.push(member("total_warm_replayed", self.total_warm_replayed()));
        }
        let rows = self.results.iter().map(FunctionResult::to_value).collect();
        members.push(member("functions", JsonValue::Array(rows)));
        JsonValue::Object(members)
    }

    /// [`to_value`](Self::to_value) as the indented document
    /// `coverme campaign --json` and `fdlibm_campaign --json` write.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// `(covered, total)` branch counts summed over completed functions.
    fn branch_totals(&self) -> (usize, usize) {
        self.results.iter().filter_map(|r| r.report.as_ref()).fold(
            (0, 0),
            |(covered, total), report| {
                (
                    covered + report.coverage.covered_count(),
                    total + report.coverage.total_branches(),
                )
            },
        )
    }
}

impl CampaignReport {
    /// The campaign table's header line (no trailing newline) — pairs with
    /// [`FunctionResult::table_row`] for streaming output.
    pub fn table_header() -> String {
        format!(
            "{:<22} {:>9} {:>9} {:>12} {:>10} {:>9} {:>10}",
            "function", "#branches", "#inputs", "coverage(%)", "evals", "evals/s", "time(s)"
        )
    }

    /// The suite summary line (no trailing newline) the campaign table ends
    /// with — exposed so a streaming consumer can print it after the last
    /// row lands.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "suite: {:.1}% branch, {:.1}% block coverage over {} functions \
             ({} skipped",
            self.suite_branch_coverage_percent(),
            self.suite_block_coverage_percent(),
            self.completed(),
            self.skipped(),
        );
        if self.partial() > 0 {
            line.push_str(&format!(", {} partial", self.partial()));
        }
        line.push_str(&format!(") on {} workers", self.workers));
        if self.shards > 1 {
            line.push_str(&format!(" × {} shards", self.shards));
        }
        line.push_str(&format!(
            " in {:.2?} — {} evals ({:.0} evals/s aggregate)",
            self.wall_time,
            self.total_evaluations(),
            self.suite_evals_per_second(),
        ));
        line
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", CampaignReport::table_header())?;
        for result in &self.results {
            write!(f, "{}", result.table_row())?;
            writeln!(f)?;
        }
        writeln!(f, "{}", self.summary())
    }
}

/// A parallel campaign runner. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign with the given configuration.
    pub fn new(config: CampaignConfig) -> Campaign {
        Campaign { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the schedule across the worker pool and aggregates the merged
    /// outcomes in inventory order. Equivalent to
    /// [`run_with`](Self::run_with) with a no-op event handler.
    pub fn run<P: Program + Sync>(&self, inventory: &[P]) -> CampaignReport {
        self.run_with(inventory, |_| {})
    }

    /// Runs the campaign, invoking `on_event` (on the calling thread) for
    /// every [`CampaignEvent`] the executor produces — a
    /// [`CampaignEvent::FunctionFinished`] the moment each function's
    /// merged result is ready, in completion order. The returned report is
    /// identical to [`run`](Self::run)'s; streaming only changes *when*
    /// rows become visible, never what they contain.
    pub fn run_with<P, F>(&self, inventory: &[P], mut on_event: F) -> CampaignReport
    where
        P: Program + Sync,
        F: FnMut(&CampaignEvent),
    {
        let started = Instant::now();
        let shards = self.config.base.effective_shards();
        let workers = self.config.effective_workers(inventory.len());
        let mut template = self.config.base.clone();
        // The worker grid is sized with the effective shard count; the
        // per-shard stride must agree with it.
        template.shards = shards;

        // Seed derivation input per function: how many *earlier* inventory
        // entries share its name. 0 for every uniquely named function, so a
        // subset campaign reproduces the full campaign's rows (position
        // independence); duplicates still get distinct seeds.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let occurrences: Vec<usize> = inventory
            .iter()
            .map(|program| {
                let count = counts.entry(program.name()).or_default();
                *count += 1;
                *count - 1
            })
            .collect();
        // Per-function configurations (derived seed, no deadline clamp —
        // the clamp is applied when a search state is actually created).
        // With a corpus attached, each function's fingerprint is resolved
        // once here: a hit installs the stored winners as the search's
        // warm start, a miss costs nothing.
        let fingerprints = self.fingerprints(inventory);
        let configs: Vec<CoverMeConfig> = inventory
            .iter()
            .zip(&occurrences)
            .enumerate()
            .map(|(index, (program, &occurrence))| {
                let mut config = template.clone();
                config.seed =
                    derive_function_seed(self.config.base.seed, program.name(), occurrence);
                if let (Some(store), Some(fps)) = (&self.config.corpus, &fingerprints) {
                    config.warm_start = store.warm_start_for(
                        fps[index],
                        program.arity(),
                        program.num_sites(),
                        config.search_key(),
                    );
                }
                config
            })
            .collect();

        // A budget too large to add to the start instant is no deadline.
        let deadline = self
            .config
            .time_budget
            .and_then(|budget| started.checked_add(budget));
        let cancel = self.config.base.cancel.clone();
        let executor = Executor::new(inventory, &configs, shards, deadline, cancel);
        let results = executor.run_on(workers, &mut on_event);
        self.record_corpus(&fingerprints, &configs, &results);
        CampaignReport {
            results,
            workers,
            shards,
            wall_time: started.elapsed(),
        }
    }

    /// Per-function fingerprints, resolved only when a corpus store is
    /// attached (lowering an FPIR tape just to hash it would be wasted
    /// work on corpus-less campaigns).
    fn fingerprints<P: Program>(&self, inventory: &[P]) -> Option<Vec<u64>> {
        self.config
            .corpus
            .as_ref()
            .map(|_| inventory.iter().map(Program::fingerprint).collect())
    }

    /// Records every [`FunctionStatus::Complete`] result into the corpus
    /// store (when one is attached). Partial and skipped functions are
    /// *not* recorded — a deadline-cut search's verdicts and winners are
    /// incomplete, and overwriting a prior complete entry with them would
    /// poison later warm starts. Write errors are swallowed: the corpus is
    /// an optimization, never a reason to fail a finished campaign.
    /// `configs` are the per-function configurations the searches ran
    /// with; each stamps its entry's search key and exhaustion verdict
    /// (see [`CorpusStore::record_report`]).
    fn record_corpus(
        &self,
        fingerprints: &Option<Vec<u64>>,
        configs: &[CoverMeConfig],
        results: &[FunctionResult],
    ) {
        let (Some(store), Some(fps)) = (&self.config.corpus, fingerprints) else {
            return;
        };
        for ((fingerprint, config), result) in fps.iter().zip(configs).zip(results) {
            if result.status != FunctionStatus::Complete {
                continue;
            }
            if let Some(report) = &result.report {
                let _ = store.record_report(*fingerprint, config, report);
            }
        }
    }
}

/// A standalone search ([`CoverMe::run`](crate::CoverMe::run)): a
/// one-function run of the executor with the configuration's own seed, on
/// the calling thread. Its one task is always claimed — no campaign
/// deadline, no claim-time cancellation — so a cancelled standalone search
/// still reports, stopped by its own first check.
pub(crate) fn run_standalone<P: Program>(config: &CoverMeConfig, program: &P) -> TestReport {
    let shards = config.effective_shards();
    let config = CoverMeConfig {
        shards,
        ..config.clone()
    };
    Executor::new(
        std::slice::from_ref(program),
        std::slice::from_ref(&config),
        shards,
        None,
        None,
    )
    .run_inline(&mut |_| {})
    .pop()
    .and_then(|result| result.report)
    .expect("a search without a campaign deadline always reports")
}

/// One task: run one (function, shard) search to its end.
#[derive(Debug, Clone, Copy)]
struct Task {
    function: usize,
    shard: usize,
}

/// Scheduling state of one function.
struct FunctionRun {
    /// One slot per shard; `None` until the shard's task returns its
    /// snapshot.
    outcomes: Vec<Option<ShardOutcome>>,
    /// Tasks not yet returned.
    pending: usize,
    /// Whether the function was finalized and its event emitted.
    finished: bool,
}

impl FunctionRun {
    fn new(shards: usize) -> Self {
        FunctionRun {
            outcomes: (0..shards).map(|_| None).collect(),
            pending: shards,
            finished: false,
        }
    }

    /// Marks the function finalized and takes its snapshots.
    /// `deadline_cut` marks a function the campaign deadline stopped; a
    /// shard that ran out of time or degraded mid-search (see
    /// [`StopReason::Degraded`]) cuts it short too.
    fn finalize(&mut self, index: usize, deadline_cut: bool) -> Finished {
        self.finished = true;
        let cut_short = deadline_cut
            || self.outcomes.iter().flatten().any(|shard| {
                matches!(
                    shard.outcome,
                    StopReason::DeadlineExpired | StopReason::Degraded
                )
            });
        Finished {
            index,
            shards: self.outcomes.len(),
            outcomes: self.outcomes.iter_mut().filter_map(Option::take).collect(),
            cut_short,
        }
    }
}

/// A finalized function's snapshots, merged into its result outside the
/// lock (the merge is real work).
struct Finished {
    index: usize,
    /// Shard slots the function was scheduled with.
    shards: usize,
    /// The snapshots of the shards that ran.
    outcomes: Vec<ShardOutcome>,
    /// Whether the function stopped before its full budget.
    cut_short: bool,
}

impl Finished {
    fn into_event(mut self, name: &str) -> CampaignEvent {
        let shards_run = self.outcomes.len();
        let report = match shards_run {
            0 => None,
            // The paper's setup: a single whole-budget search, passed
            // through without representative-input reselection so the
            // campaign reproduces a standalone `CoverMe::run` exactly.
            _ if self.shards == 1 => self.outcomes.pop().map(|outcome| outcome.into_report(name)),
            _ => Some(merge_shards(name, self.outcomes).report),
        };
        let status = if report.is_none() {
            FunctionStatus::Skipped
        } else if self.cut_short || shards_run < self.shards {
            FunctionStatus::Partial
        } else {
            FunctionStatus::Complete
        };
        CampaignEvent::FunctionFinished {
            index: self.index,
            result: FunctionResult {
                name: name.to_string(),
                report,
                shards_run,
                status,
            },
        }
    }
}

/// The executor state one mutex guards.
struct Shared {
    /// Every `(function, shard)` task, function-major; fixed once built.
    tasks: Vec<Task>,
    /// Index of the next unclaimed task.
    next: usize,
    functions: Vec<FunctionRun>,
}

impl Shared {
    /// Parks a returned task's snapshot; when it was the function's last
    /// task, finalizes the function.
    fn settle(&mut self, task: Task, outcome: ShardOutcome) -> Option<Finished> {
        let run = &mut self.functions[task.function];
        run.outcomes[task.shard] = Some(outcome);
        run.pending -= 1;
        if run.pending > 0 {
            return None;
        }
        Some(run.finalize(task.function, false))
    }
}

/// The one search executor behind every campaign and every standalone
/// search: a fixed list of `(function, shard)` tasks, one worker loop
/// ([`run_worker`]), the settling of a returned task ([`Shared::settle`]),
/// and one pass that finalizes the functions a deadline or cancellation
/// cut ([`Executor::run`]).
struct Executor<'c, 'inv, P: Program> {
    inventory: &'inv [P],
    /// Per-function search configurations.
    configs: &'c [CoverMeConfig],
    deadline: Option<Instant>,
    /// Stops claiming once fired.
    cancel: Option<CancelToken>,
    shared: Mutex<Shared>,
}

impl<'c, 'inv, P: Program> Executor<'c, 'inv, P> {
    fn new(
        inventory: &'inv [P],
        configs: &'c [CoverMeConfig],
        shards: usize,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
    ) -> Self {
        // One task per (function, shard) pair, function-major so the suite
        // streams front to back and a trailing heavy function still fans
        // out over idle workers.
        let tasks = (0..inventory.len())
            .flat_map(|function| (0..shards).map(move |shard| Task { function, shard }))
            .collect();
        Executor {
            inventory,
            configs,
            deadline,
            cancel,
            shared: Mutex::new(Shared {
                tasks,
                next: 0,
                functions: (0..inventory.len())
                    .map(|_| FunctionRun::new(shards))
                    .collect(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("executor lock poisoned")
    }

    /// Runs the executor to the end and returns the results in inventory
    /// order. `drive` runs the worker loops, handing every event they emit
    /// to the sink it is given; each event reaches `on_event` on the
    /// calling thread.
    fn run(
        self,
        on_event: &mut dyn FnMut(&CampaignEvent),
        drive: impl FnOnce(&Self, &mut dyn FnMut(CampaignEvent)),
    ) -> Vec<FunctionResult> {
        let mut results: Vec<Option<FunctionResult>> =
            self.inventory.iter().map(|_| None).collect();
        let mut deliver = |event: CampaignEvent| {
            on_event(&event);
            let CampaignEvent::FunctionFinished { index, result } = event;
            results[index] = Some(result);
        };
        drive(&self, &mut deliver);
        // The deadline pass: functions the expiry cut mid-search keep the
        // progress their returned shards completed (partial), functions
        // that never started are skipped. Emitted as events too, in inventory
        // order, so a streaming consumer sees every row exactly once.
        let inventory = self.inventory;
        let shared = self.shared.into_inner().expect("executor lock poisoned");
        for (index, mut run) in shared.functions.into_iter().enumerate() {
            if !run.finished {
                deliver(
                    run.finalize(index, true)
                        .into_event(inventory[index].name()),
                );
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every function finalized"))
            .collect()
    }

    /// Runs every task on the calling thread.
    fn run_inline(self, on_event: &mut dyn FnMut(&CampaignEvent)) -> Vec<FunctionResult> {
        self.run(on_event, |executor, deliver| run_worker(executor, deliver))
    }

    /// Claims the next task: `None` once the list is exhausted, the
    /// campaign deadline has passed or the cancel token has fired. Checked
    /// *before* the claim, so a post-deadline worker never starts a
    /// zero-budget search that would be counted as completed.
    fn claim(&self) -> Option<Task> {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        {
            return None;
        }
        let mut shared = self.lock();
        let task = *shared.tasks.get(shared.next)?;
        shared.next += 1;
        Some(task)
    }

    /// Creates a task's search state — outside the lock, since schedule
    /// regeneration is O(n_start) RNG draws — with the time budget clamped
    /// to what the campaign deadline leaves. A deadline that passed
    /// between the claim and here leaves zero, so the search stops at its
    /// first check instead of running unbounded.
    fn new_state(&self, task: Task) -> SearchState<'inv, P> {
        let mut config = Cow::Borrowed(&self.configs[task.function]);
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            let budget = config.time_budget.map_or(left, |budget| budget.min(left));
            config.to_mut().time_budget = Some(budget);
        }
        SearchState::new(&config, &self.inventory[task.function], task.shard)
    }

    /// Hands a task's snapshot back and finalizes its function when it was
    /// the last shard.
    fn settle(&self, task: Task, outcome: ShardOutcome) -> Option<Finished> {
        self.lock().settle(task, outcome)
    }
}

impl<P: Program + Sync> Executor<'_, '_, P> {
    /// Runs the executor on `workers` scoped worker threads; the calling
    /// thread runs no searches and hands each event to the handler the
    /// moment a worker lands it. A single worker runs on the calling
    /// thread instead, spawning nothing.
    fn run_on(
        self,
        workers: usize,
        on_event: &mut dyn FnMut(&CampaignEvent),
    ) -> Vec<FunctionResult> {
        if workers <= 1 {
            return self.run_inline(on_event);
        }
        self.run(on_event, |executor, deliver| {
            let (sender, receiver) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let sender = sender.clone();
                    scope.spawn(move || {
                        run_worker(executor, &mut |event| {
                            let _ = sender.send(event);
                        })
                    });
                }
                drop(sender);
                for event in receiver {
                    deliver(event);
                }
            });
        })
    }
}

/// The one worker loop: claim a task, run its search *outside* the lock,
/// hand the snapshot back, and emit every function that finished.
fn run_worker<P: Program>(executor: &Executor<'_, '_, P>, emit: &mut dyn FnMut(CampaignEvent)) {
    while let Some(task) = executor.claim() {
        let outcome = executor.new_state(task).run(&mut |_| {});
        if let Some(finished) = executor.settle(task, outcome) {
            emit(finished.into_event(executor.inventory[task.function].name()));
        }
    }
}

/// Derives a function's seed from the campaign seed, the function name and
/// its duplicate-name occurrence (FNV-1a over the name bytes then the
/// occurrence bytes). The occurrence is 0 unless an earlier inventory entry
/// has the same name, so a search is reproducible independent of scheduling
/// *and* of the function's position in the inventory (a subset campaign
/// reproduces the full campaign's rows) — while two entries that happen to
/// share a name still run distinct searches instead of silently duplicating
/// one.
fn derive_function_seed(campaign_seed: u64, name: &str, occurrence: usize) -> u64 {
    let hash = fingerprint_bytes(fingerprint_seed(), name.as_bytes());
    campaign_seed ^ fingerprint_bytes(hash, &(occurrence as u64).to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CancelToken;
    use coverme_runtime::{Cmp, ExecCtx, FnProgram};

    type ToyProgram = FnProgram<fn(&[f64], &mut ExecCtx)>;
    /// Per-function content a scheduler must not influence: generated
    /// inputs and covered-branch count (or `None` for a skipped function).
    type Fingerprint = Vec<(String, Option<(Vec<Vec<f64>>, usize)>)>;

    /// A small inventory of distinct single-input programs, each with one
    /// easy and one harder (exact equality) conditional.
    fn inventory() -> Vec<ToyProgram> {
        fn alpha(input: &[f64], ctx: &mut ExecCtx) {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 2.5;
            }
            if ctx.branch(1, Cmp::Eq, x * x, 4.0) {
                // target
            }
        }
        fn beta(input: &[f64], ctx: &mut ExecCtx) {
            let x = input[0];
            if ctx.branch(0, Cmp::Gt, x, 10.0) {
                // easy
            }
            if ctx.branch(1, Cmp::Eq, x, -3.5) {
                // point target
            }
        }
        // Site 1 must stay nested under site 0: the descendant relation is
        // what exercises saturation tracking.
        #[allow(clippy::collapsible_if)]
        fn gamma(input: &[f64], ctx: &mut ExecCtx) {
            let x = input[0];
            if ctx.branch(0, Cmp::Lt, x, 0.0) {
                if ctx.branch(1, Cmp::Ge, x, -2.0) {
                    // nested
                }
            }
        }
        vec![
            FnProgram::new("alpha", 1, 2, alpha as fn(&[f64], &mut ExecCtx)),
            FnProgram::new("beta", 1, 2, beta as fn(&[f64], &mut ExecCtx)),
            FnProgram::new("gamma", 1, 2, gamma as fn(&[f64], &mut ExecCtx)),
        ]
    }

    fn quick_base() -> CoverMeConfig {
        CoverMeConfig::default().with_n_start(40).with_seed(7)
    }

    /// The scheduling-independent content of a report, for equality checks.
    fn fingerprint(report: &CampaignReport) -> Fingerprint {
        report
            .results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.report
                        .as_ref()
                        .map(|t| (t.inputs.clone(), t.coverage.covered_count())),
                )
            })
            .collect()
    }

    #[test]
    fn identical_reports_across_thread_counts() {
        let programs = inventory();
        let runs: Vec<CampaignReport> = [1, 2, 4]
            .iter()
            .map(|&workers| {
                Campaign::new(
                    CampaignConfig::new()
                        .with_base(quick_base())
                        .with_workers(workers),
                )
                .run(&programs)
            })
            .collect();
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[1]));
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[2]));
        assert_eq!(runs[0].completed(), programs.len());
    }

    #[test]
    fn sharded_campaign_identical_across_thread_counts() {
        let programs = inventory();
        let runs: Vec<CampaignReport> = [1, 2, 5]
            .iter()
            .map(|&workers| {
                let config = CampaignConfig::new()
                    .with_base(quick_base().with_n_start(48).with_shards(3))
                    .with_workers(workers);
                Campaign::new(config).run(&programs)
            })
            .collect();
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[1]));
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[2]));
        assert_eq!(runs[0].shards, 3);
        assert!(runs[0].results.iter().all(|r| r.shards_run == 3));
    }

    #[test]
    fn sharded_campaign_covers_at_least_the_unsharded_one() {
        let programs = inventory();
        let base = || quick_base().with_n_start(64);
        let unsharded =
            Campaign::new(CampaignConfig::new().with_base(base()).with_workers(2)).run(&programs);
        for shards in [2usize, 4] {
            let sharded = Campaign::new(
                CampaignConfig::new()
                    .with_base(base().with_shards(shards))
                    .with_workers(2),
            )
            .run(&programs);
            for (a, b) in unsharded.results.iter().zip(&sharded.results) {
                let (a, b) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
                assert!(
                    b.coverage.covered_count() >= a.coverage.covered_count(),
                    "{}: {} shards covered {} < {}",
                    a.program,
                    shards,
                    b.coverage.covered_count(),
                    a.coverage.covered_count()
                );
            }
        }
    }

    #[test]
    fn unsharded_campaign_reproduces_standalone_coverme_runs() {
        // Every campaign row is exactly the report a standalone CoverMe
        // run with the derived seed produces, whatever the campaign's
        // worker count. Unsharded that includes redundant accepted inputs,
        // which a sharded merge drops.
        let shapes = [
            ("unsharded", quick_base()),
            ("sharded", quick_base().with_n_start(48).with_shards(3)),
        ];
        let programs = inventory();
        for (shape, base) in shapes {
            let standalone: Vec<TestReport> = programs
                .iter()
                .map(|program| {
                    let mut config = base.clone();
                    config.seed = derive_function_seed(base.seed, program.name(), 0);
                    crate::CoverMe::new(config).run(program)
                })
                .collect();
            for workers in [1, 2, 5] {
                let config = CampaignConfig::new()
                    .with_base(base.clone())
                    .with_workers(workers);
                let report = Campaign::new(config).run(&programs);
                for (result, standalone) in report.results.iter().zip(&standalone) {
                    let campaign = result.report.as_ref().unwrap();
                    let context = format!("{shape}, {workers} workers, {}", result.name);
                    assert_eq!(campaign.inputs, standalone.inputs, "{context}");
                    assert_eq!(campaign.coverage, standalone.coverage, "{context}");
                    assert_eq!(campaign.evaluations, standalone.evaluations, "{context}");
                    assert_eq!(campaign.rounds, standalone.rounds, "{context}");
                }
            }
        }
    }

    #[test]
    fn function_results_are_independent_of_inventory_position() {
        // A subset campaign must reproduce the full campaign's rows: seeds
        // depend on names (and duplicate-name occurrence), not position.
        let programs = inventory();
        let full = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        let subset = vec![inventory().remove(2)];
        let alone = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&subset);
        let (full_gamma, lone_gamma) = (
            full.results[2].report.as_ref().unwrap(),
            alone.results[0].report.as_ref().unwrap(),
        );
        assert_eq!(full_gamma.inputs, lone_gamma.inputs);
        assert_eq!(full_gamma.coverage, lone_gamma.coverage);
    }

    #[test]
    fn results_arrive_in_inventory_order() {
        let programs = inventory();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(3),
        )
        .run(&programs);
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn streaming_events_match_the_final_report() {
        let programs = inventory();
        let mut events: Vec<(usize, String, bool)> = Vec::new();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run_with(&programs, |event| {
            let CampaignEvent::FunctionFinished { index, result } = event;
            events.push((*index, result.name.clone(), result.completed()));
        });
        // Exactly one event per function, carrying the same result the
        // final report lists at that inventory index.
        assert_eq!(events.len(), programs.len());
        let mut indices: Vec<usize> = events.iter().map(|(i, _, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
        for (index, name, completed) in events {
            assert_eq!(report.results[index].name, name);
            assert_eq!(report.results[index].completed(), completed);
        }
        // The streamed run is the same run: identical to a collected one.
        let collected = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        assert_eq!(fingerprint(&report), fingerprint(&collected));
    }

    #[test]
    fn statuses_are_consistent_with_reports() {
        // Budget-free: everything completes.
        let programs = inventory();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        assert!(report
            .results
            .iter()
            .all(|r| r.status == FunctionStatus::Complete));
        assert_eq!(report.partial(), 0);
        assert!(!report.to_string().contains("partial"));
        assert!(report.to_json().contains("\"status\": \"complete\""));

        // Zero budget: everything skipped, no partials.
        let cut = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2)
                .with_time_budget(Duration::ZERO),
        )
        .run(&programs);
        assert!(cut
            .results
            .iter()
            .all(|r| r.status == FunctionStatus::Skipped && r.report.is_none()));
        assert!(cut.to_json().contains("\"status\": \"skipped\""));
    }

    #[test]
    fn partial_rows_keep_their_progress_and_say_so() {
        // Force the deadline to land mid-search: a large budget of rounds
        // on one function with a deadline long enough to start but far too
        // short to finish.
        fn slow(input: &[f64], ctx: &mut ExecCtx) {
            let mut x = input[0];
            for site in 0..8u32 {
                if ctx.branch(site, Cmp::Eq, x * x, -1.0) {
                    // unreachable: keeps every round failing (and slow).
                }
                x = x * 0.9 + 1.0;
            }
        }
        let programs = vec![FnProgram::new(
            "slowpoke",
            1,
            8,
            slow as fn(&[f64], &mut ExecCtx),
        )];
        let config = CampaignConfig::new()
            .with_base(
                quick_base()
                    .with_n_start(200_000)
                    .with_infeasible_policy(crate::InfeasiblePolicy::Disabled),
            )
            .with_workers(1)
            .with_time_budget(Duration::from_millis(60));
        let report = Campaign::new(config).run(&programs);
        let result = &report.results[0];
        assert_eq!(result.status, FunctionStatus::Partial, "{report}");
        let partial = result.report.as_ref().expect("progress kept");
        assert!(!partial.rounds.is_empty(), "progress dropped");
        assert!(partial.rounds.len() < 200_000);
        assert_eq!(report.partial(), 1);
        let text = report.to_string();
        assert!(text.contains("(partial)"), "{text}");
        assert!(text.contains("1 partial"), "{text}");
        assert!(report.to_json().contains("\"status\": \"partial\""));
    }

    #[test]
    fn degraded_functions_are_marked_partial_and_count_their_aborts() {
        // Every execution times out, so each shard degrades after
        // `ABORT_PATIENCE` aborted rounds instead of burning the budget.
        fn spin(input: &[f64], ctx: &mut ExecCtx) {
            ctx.branch(0, Cmp::Gt, input[0].abs() + 1.0, 0.0);
            ctx.mark_timeout();
        }
        let programs = vec![FnProgram::new(
            "spin",
            1,
            1,
            spin as fn(&[f64], &mut ExecCtx),
        )];
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(1),
        )
        .run(&programs);
        let result = &report.results[0];
        assert_eq!(result.status, FunctionStatus::Partial, "{report}");
        let partial = result.report.as_ref().expect("progress kept");
        assert!(partial.timeouts > 0, "timeouts surfaced: {partial}");
        assert!(partial.inputs.is_empty(), "aborted rounds accept nothing");
        assert!(report.total_timeouts() > 0);
        assert!(report.to_json().contains("\"status\": \"partial\""));
    }

    #[test]
    fn expired_budget_returns_partial_results() {
        let programs = inventory();
        let config = CampaignConfig::new()
            .with_base(quick_base())
            .with_workers(2)
            .with_time_budget(Duration::ZERO);
        let report = Campaign::new(config).run(&programs);
        // One entry per function either way, every one skipped: the deadline
        // had already passed when the workers started claiming.
        assert_eq!(report.results.len(), programs.len());
        assert_eq!(report.skipped(), programs.len());
        assert_eq!(report.completed(), 0);
        assert!(report.results.iter().all(|r| r.shards_run == 0));
        assert!(report.to_string().contains("skipped"));
        // Nothing ran, so nothing is covered — not vacuously 100%.
        assert_eq!(report.suite_branch_coverage_percent(), 0.0);
        assert_eq!(report.suite_block_coverage_percent(), 0.0);
        assert_eq!(report.mean_branch_coverage_percent(), 0.0);
    }

    #[test]
    fn a_cancel_token_on_the_base_config_reaches_every_search() {
        let token = CancelToken::new();
        token.cancel();
        let programs = inventory();
        let config = CampaignConfig::new()
            .with_base(quick_base().with_cancel(token))
            .with_workers(2);
        let report = Campaign::new(config).run(&programs);
        // A fired token stops claiming, so no search starts.
        assert_eq!(report.skipped(), programs.len(), "{report}");
        assert_eq!(report.total_evaluations(), 0, "{report}");
        assert!(report
            .results
            .iter()
            .all(|r| r.status == FunctionStatus::Skipped));
    }

    #[test]
    fn a_cancelled_campaign_never_executes_the_program() {
        // A warm start would replay its inputs before a search's first
        // stop check; a fired token must stop the campaign before that.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let counted = |input: &[f64], ctx: &mut ExecCtx| {
            calls.fetch_add(1, Ordering::Relaxed);
            ctx.branch(0, Cmp::Le, input[0], 1.0);
        };
        let programs = vec![FnProgram::new("counted", 1, 1, counted)];
        let token = CancelToken::new();
        token.cancel();
        let warm = crate::WarmStart {
            inputs: vec![vec![0.5], vec![3.0]],
            ..crate::WarmStart::default()
        };
        let config = CampaignConfig::new()
            .with_base(quick_base().with_cancel(token).with_warm_start(warm))
            .with_workers(1);
        let report = Campaign::new(config).run(&programs);
        assert_eq!(report.skipped(), 1, "{report}");
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_budget_past_the_end_of_time_is_no_deadline() {
        // `started + budget` overflows `Instant` here; the campaign must run
        // as if it had no budget.
        let programs = inventory();
        let unbounded = Campaign::new(CampaignConfig::new().with_base(quick_base())).run(&programs);
        for budget in [Duration::from_secs_f64(1e19), Duration::MAX] {
            let report = Campaign::new(
                CampaignConfig::new()
                    .with_base(quick_base())
                    .with_time_budget(budget),
            )
            .run(&programs);
            assert!(report
                .results
                .iter()
                .all(|r| r.status == FunctionStatus::Complete));
            assert_eq!(fingerprint(&report), fingerprint(&unbounded));
        }
    }

    #[test]
    fn empty_inventory_yields_empty_report() {
        let programs: Vec<ToyProgram> = Vec::new();
        let report = Campaign::new(CampaignConfig::default()).run(&programs);
        assert!(report.results.is_empty());
        assert_eq!(report.completed(), 0);
        assert_eq!(report.skipped(), 0);
        assert_eq!(report.suite_branch_coverage_percent(), 100.0);
        assert_eq!(report.mean_branch_coverage_percent(), 100.0);
    }

    #[test]
    fn branch_free_inventory_reports_vacuous_mean_not_nan() {
        // Regression: every completed function is branch-free, so no
        // function contributes a branch percentage; the mean used to be
        // 0/0 = NaN while completed() > 0 kept the vacuous guard silent.
        fn no_branches(_: &[f64], _: &mut ExecCtx) {}
        let programs = vec![
            FnProgram::new("straight_a", 1, 0, no_branches as fn(&[f64], &mut ExecCtx)),
            FnProgram::new("straight_b", 1, 0, no_branches as fn(&[f64], &mut ExecCtx)),
        ];
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        assert_eq!(report.completed(), 2);
        assert!(report
            .results
            .iter()
            .all(|r| r.branch_coverage_percent().is_none()));
        let mean = report.mean_branch_coverage_percent();
        assert!(!mean.is_nan(), "mean must not be NaN");
        assert_eq!(mean, 100.0);
        assert_eq!(report.suite_branch_coverage_percent(), 100.0);
        assert_eq!(report.suite_block_coverage_percent(), 100.0);
    }

    #[test]
    fn branch_free_functions_do_not_dilute_the_mean() {
        fn no_branches(_: &[f64], _: &mut ExecCtx) {}
        fn partial(input: &[f64], ctx: &mut ExecCtx) {
            // 1T (a square equal to -1) is infeasible, so this function
            // cannot reach 100% — 3 of 4 branches at best.
            let x = input[0];
            if ctx.branch(0, Cmp::Le, x, 0.0) {
                // easy
            }
            if ctx.branch(1, Cmp::Eq, x * x, -1.0) {
                // unreachable
            }
        }
        let programs = vec![
            FnProgram::new("straight", 1, 0, no_branches as fn(&[f64], &mut ExecCtx)),
            FnProgram::new("partial", 1, 2, partial as fn(&[f64], &mut ExecCtx)),
        ];
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        let partial_pct = report.results[1].branch_coverage_percent().unwrap();
        assert!(partial_pct < 100.0);
        // The mean is exactly the branchful function's percentage — the
        // branch-free entry neither drags it down nor pads it with 100.
        assert_eq!(report.mean_branch_coverage_percent(), partial_pct);
    }

    #[test]
    fn per_function_seeds_differ_and_are_stable() {
        assert_ne!(
            derive_function_seed(7, "ieee754_exp", 0),
            derive_function_seed(7, "ieee754_log", 1)
        );
        assert_eq!(
            derive_function_seed(7, "ieee754_exp", 0),
            derive_function_seed(7, "ieee754_exp", 0)
        );
        // Campaign seed participates.
        assert_ne!(
            derive_function_seed(7, "ieee754_exp", 0),
            derive_function_seed(8, "ieee754_exp", 0)
        );
        // Regression: duplicate names at different inventory positions must
        // not silently run identical searches.
        assert_ne!(
            derive_function_seed(7, "ieee754_exp", 0),
            derive_function_seed(7, "ieee754_exp", 1)
        );
    }

    #[test]
    fn duplicate_names_run_distinct_searches() {
        fn alpha(input: &[f64], ctx: &mut ExecCtx) {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 2.5;
            }
            if ctx.branch(1, Cmp::Eq, x * x, 4.0) {
                // target
            }
        }
        let programs = vec![
            FnProgram::new("twin", 1, 2, alpha as fn(&[f64], &mut ExecCtx)),
            FnProgram::new("twin", 1, 2, alpha as fn(&[f64], &mut ExecCtx)),
        ];
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        let a = report.results[0].report.as_ref().unwrap();
        let b = report.results[1].report.as_ref().unwrap();
        assert_ne!(
            a.inputs, b.inputs,
            "same-named entries ran identical searches"
        );
    }

    #[test]
    fn suite_aggregation_sums_branches() {
        let programs = inventory();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        let covered: usize = report
            .results
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|t| t.coverage.covered_count())
            .sum();
        let total: usize = report
            .results
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|t| t.coverage.total_branches())
            .sum();
        let expected = 100.0 * covered as f64 / total as f64;
        assert!((report.suite_branch_coverage_percent() - expected).abs() < 1e-9);
        // All three toy programs are fully coverable.
        assert_eq!(report.suite_branch_coverage_percent(), 100.0);
    }

    #[test]
    fn report_surfaces_evaluation_telemetry() {
        let programs = inventory();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        assert!(report.total_evaluations() > 0);
        let summed: usize = report.results.iter().map(FunctionResult::evaluations).sum();
        assert_eq!(report.total_evaluations(), summed);
        assert!(report.suite_evals_per_second() > 0.0);
        let text = report.to_string();
        assert!(text.contains("evals/s"));
        assert!(!text.contains("cache hits"));
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let programs = inventory();
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(2),
        )
        .run(&programs);
        let json = report.to_json();
        // One object per function plus matched braces/brackets.
        assert_eq!(json.matches("\"name\":").count(), programs.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"schema\": \"coverme-campaign-report/12\"",
            "\"backend\": \"",
            "\"suite_branch_coverage_percent\":",
            "\"total_evaluations\":",
            "\"total_timeouts\":",
            "\"total_traps\":",
            "\"suite_evals_per_second\":",
            "\"evals_per_second\":",
            "\"timeouts\":",
            "\"traps\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!json.contains("cache_hits"), "{json}");
        // No non-finite numbers may leak into the document (match value
        // position only — `infeasible_blamed` is a legitimate key).
        assert!(
            !json.contains(": inf") && !json.contains(": -inf") && !json.contains(": NaN"),
            "{json}"
        );
    }

    #[test]
    fn json_report_marks_skipped_functions() {
        let programs = inventory();
        let config = CampaignConfig::new()
            .with_base(quick_base())
            .with_workers(2)
            .with_time_budget(Duration::ZERO);
        let json = Campaign::new(config).run(&programs).to_json();
        assert_eq!(json.matches("\"completed\": false").count(), programs.len());
        assert!(json.contains("\"skipped\": 3"));
    }

    #[test]
    fn json_escapes_hostile_program_names() {
        fn body(_: &[f64], ctx: &mut ExecCtx) {
            ctx.branch(0, Cmp::Gt, 1.0, 0.0);
        }
        let programs = vec![FnProgram::new(
            "quo\"te\\back\nline",
            1,
            1,
            body as fn(&[f64], &mut ExecCtx),
        )];
        let json = Campaign::new(
            CampaignConfig::new()
                .with_base(quick_base())
                .with_workers(1),
        )
        .run(&programs)
        .to_json();
        assert!(json.contains("quo\\\"te\\\\back\\nline"));
    }

    #[test]
    fn effective_workers_defaults_to_at_least_two() {
        let config = CampaignConfig::default();
        assert!(config.effective_workers(40) >= 2);
        // Never more workers than work units; at least one for tiny suites.
        assert_eq!(config.effective_workers(1), 1);
        assert_eq!(
            CampaignConfig::new().with_workers(8).effective_workers(3),
            3
        );
        // Sharding multiplies the unit count, so one heavy function can
        // still fan out over several workers.
        assert_eq!(
            CampaignConfig::new()
                .with_base(CoverMeConfig::default().with_shards(4))
                .with_workers(8)
                .effective_workers(1),
            4
        );
        // The minimum-rounds floor caps how finely a small budget splits,
        // and the unit grid follows the effective count.
        let starved = CampaignConfig::new().with_base(quick_base().with_shards(4));
        assert_eq!(starved.base.effective_shards(), 2); // n_start 40 / 16
        assert_eq!(starved.clone().with_workers(8).effective_workers(1), 2);
    }
}
