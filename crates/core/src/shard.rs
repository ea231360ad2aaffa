//! Intra-function sharded search: split one CoverMe run's starting-point
//! budget across independent workers and merge the snapshots.
//!
//! The paper's Algorithm 1 is multistart at heart — coverage comes from many
//! independent starting points funneled through local minimization — which
//! makes a *single* function's search shardable, not just a benchmark suite.
//! This module splits the `n_start` budget of one
//! [`CoverMeConfig`](crate::CoverMeConfig) into `shards` disjoint slices,
//! runs each slice as its own local search loop
//! ([`SearchState::run`](crate::SearchState::run)), and merges the
//! per-shard snapshots into one [`TestReport`] ([`merge_shards`]).
//!
//! # Budget slicing and seed derivation
//!
//! Shard `i` of `k` owns the *strided* slice of global round indices
//! `{i, i + k, i + 2k, …} ∩ [0, n_start)` — disjoint across shards, and
//! together exactly the rounds the unsharded search would run. Each round's
//! randomness is derived from the **function seed and the global round
//! index**, never from scheduling:
//!
//! * all shards regenerate the same starting-point schedule from
//!   `seed ^ 0x5EED_0001` (the sequential driver's stream) and pick only the
//!   rounds they own, so the *set of explored starting points is invariant
//!   under the shard count*;
//! * round `j`'s Basinhopping seed is `seed + j` mixed exactly as in the
//!   sequential driver, so shard `i`'s whole workload is a deterministic
//!   function of `(function seed, shard index, shard count)`.
//!
//! Two invariants follow:
//!
//! * **Bitwise determinism per shard count.** For a fixed `(seed, shards)`,
//!   every shard's snapshot — and therefore the merged report — is
//!   reproducible regardless of how shards are scheduled onto threads.
//! * **Sharding mostly gains coverage, but not always.** A sharded run
//!   explores the same starting points with the same per-round minimizer
//!   seeds as the unsharded run; the only difference is that each shard
//!   minimizes against its own (smaller) saturation snapshot, and a smaller
//!   saturated set only makes zeros of the representing function *easier*
//!   to reach (more branches still count as new, Definition 4.2 case (a)).
//!   What a shard does lose is part of the sequential run's directed-search
//!   feedback — its snapshot refines over `n_start / shards` rounds instead
//!   of `n_start` — so a shard starved of rounds can burn its whole slice on
//!   branches every other shard also finds. That is why
//!   [`CoverMeConfig::effective_shards`](crate::CoverMeConfig::effective_shards)
//!   refuses to split below [`MIN_ROUNDS_PER_SHARD`] rounds per shard. Even
//!   with the floor, a lost feedback step can cost a branch. Over the
//!   40-function Fdlibm suite at `n_start` 500 and seed 42, 4 shards cover
//!   563 of 784 branches against 536 unsharded, at 13.13M evaluations
//!   against 13.00M: 10 functions gain, 29 tie and `erf` loses one branch
//!   (19 → 18). The property tests in `tests/shard_properties.rs` check
//!   that sharding never loses coverage on generated programs.
//!
//! # Merging
//!
//! [`merge_shards`] unions the [`SaturationTracker`] states (covered,
//! learned descendants, infeasible verdicts — a verdict refuted by another
//! shard's real coverage is dropped), unions the coverage maps, and selects
//! the best representing inputs per branch: accepted inputs are replayed in
//! global round order and one is kept only when it covers a branch no
//! earlier-kept input covers. The merge is a pure function of the shard
//! snapshots, so it inherits their determinism.
//!
//! The executor of [`crate::campaign`] — behind campaigns and
//! [`CoverMe::run`](crate::CoverMe::run) alike — runs one
//! [`SearchState`](crate::SearchState) per shard, one task each, on any
//! number of workers; all of them merge to the identical report for a
//! fixed `(seed, shards, budget)`.

use std::time::Instant;

use coverme_runtime::{BranchId, BranchSet, CoverageMap};

use crate::driver::StopReason;
use crate::report::{RoundRecord, TestReport};
use crate::saturation::SaturationTracker;

/// The fewest starting points a shard should own for splitting to be
/// worthwhile. A shard's rounds refine *its own* saturation snapshot, and
/// that directed-search feedback is what finds the hard branches; a shard
/// starved below roughly this many rounds duplicates the easy branches other
/// shards also find and never gets pushed toward the rest (measured on
/// `ieee754_pow`: 10 rounds per shard lost branches the unsharded search
/// found, 16+ reached parity).
/// [`CoverMeConfig::effective_shards`](crate::CoverMeConfig::effective_shards)
/// clamps the requested shard count so every shard keeps at least this many
/// rounds.
pub const MIN_ROUNDS_PER_SHARD: usize = 16;

/// One accepted zero of the representing function: a generated test input
/// together with the branches executing it covers.
#[derive(Debug, Clone)]
pub struct AcceptedInput {
    /// Global round index (position in the unsharded `n_start` schedule)
    /// that produced the input.
    pub round: usize,
    /// The input point (`x*` with `FOO_R(x*) = 0`).
    pub input: Vec<f64>,
    /// Branches covered by executing the program on `input`.
    pub covered: BranchSet,
}

/// The saturation/coverage snapshot produced by one shard of a search.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Which shard produced this snapshot.
    pub shard_index: usize,
    /// Total shard count of the run this snapshot belongs to.
    pub shards: usize,
    /// The shard's final saturation state (covered, descendants learned
    /// from its traces, infeasible verdicts).
    pub tracker: SaturationTracker,
    /// Branch coverage accumulated by the shard.
    pub coverage: CoverageMap,
    /// Accepted inputs in the shard's round order.
    pub accepted: Vec<AcceptedInput>,
    /// Per-round records; `round` fields are global round indices.
    pub rounds: Vec<RoundRecord>,
    /// Representing-function evaluations spent by the shard, each one
    /// program execution.
    pub evaluations: usize,
    /// Evaluations whose execution ran out of fuel (see
    /// [`coverme_runtime::RunOutcome::Timeout`]); they returned the abort
    /// sentinel and fed no coverage or saturation update.
    pub timeouts: usize,
    /// Evaluations whose execution trapped mid-run (see
    /// [`coverme_runtime::RunOutcome::Trap`]).
    pub traps: usize,
    /// Corpus inputs the shard's warm start replayed (see
    /// [`CoverMeConfig::warm_start`](crate::CoverMeConfig::warm_start); 0
    /// for a cold search).
    pub warm_replayed: usize,
    /// Name of the execution backend the shard's engine ran.
    pub backend: &'static str,
    /// Why the shard's search stopped.
    pub outcome: StopReason,
    /// When the shard started running.
    pub started: Instant,
    /// When the shard finished.
    pub finished: Instant,
}

impl ShardOutcome {
    /// Whether the shard stopped before its full schedule: its wall-clock
    /// budget ran out, it was cancelled, or it degraded.
    pub fn cut_short(&self) -> bool {
        matches!(
            self.outcome,
            StopReason::DeadlineExpired | StopReason::Degraded
        )
    }

    /// Converts a single-shard outcome into a [`TestReport`] without any
    /// representative-input reselection — for `shards == 1` this reproduces
    /// the sequential driver's report bit for bit (every accepted input is
    /// kept, redundant or not). Verdicts the shard's own coverage refutes
    /// are dropped, as [`merge_shards`] drops them.
    pub fn into_report(self, program_name: &str) -> TestReport {
        TestReport {
            program: program_name.to_string(),
            inputs: self.accepted.into_iter().map(|a| a.input).collect(),
            infeasible: unrefuted(&self.tracker, &self.coverage),
            coverage: self.coverage,
            rounds: self.rounds,
            evaluations: self.evaluations,
            timeouts: self.timeouts,
            traps: self.traps,
            warm_replayed: self.warm_replayed,
            backend: self.backend,
            wall_time: self.finished.duration_since(self.started),
        }
    }
}

/// The result of merging a search's shard snapshots.
#[derive(Debug, Clone)]
pub struct MergedSearch {
    /// The merged report: unioned coverage, representative inputs, all
    /// rounds in global order.
    pub report: TestReport,
    /// The merged saturation state (see [`SaturationTracker::merge_from`]).
    pub tracker: SaturationTracker,
}

/// Merges shard snapshots of one search into a single report plus the
/// merged saturation state (see the [module docs](self) for the semantics).
///
/// The outcomes may arrive in any order (they are sorted by shard index);
/// a partial set — e.g. when a campaign deadline expired before every shard
/// ran — merges the shards that did run. The report's `wall_time` is the
/// wall-clock span from the earliest shard start to the latest shard
/// finish, so a parallel run shows its real elapsed time, not the sum of
/// shard times.
///
/// # Panics
///
/// Panics if `outcomes` is empty, contains duplicate shard indices, or
/// mixes snapshots from runs with different shard counts (their strided
/// slices would overlap, violating the disjoint-budget invariant).
pub fn merge_shards(program_name: &str, mut outcomes: Vec<ShardOutcome>) -> MergedSearch {
    assert!(!outcomes.is_empty(), "cannot merge zero shard outcomes");
    let shards = outcomes[0].shards;
    assert!(
        outcomes.iter().all(|o| o.shards == shards),
        "cannot merge snapshots from different shard counts"
    );
    outcomes.sort_by_key(|o| o.shard_index);
    assert!(
        outcomes
            .windows(2)
            .all(|w| w[0].shard_index < w[1].shard_index),
        "duplicate shard index in merge"
    );

    let mut tracker = outcomes[0].tracker.clone();
    let mut coverage = outcomes[0].coverage.clone();
    for outcome in &outcomes[1..] {
        tracker.merge_from(&outcome.tracker);
        coverage.merge_from(&outcome.coverage);
    }

    // Best representing inputs per branch: replay accepted inputs in global
    // round order, keeping one only when it represents a branch no
    // earlier-kept input covers.
    let mut all_accepted: Vec<&AcceptedInput> = outcomes.iter().flat_map(|o| &o.accepted).collect();
    all_accepted.sort_by_key(|a| a.round);
    let mut represented = BranchSet::with_sites(coverage.num_sites());
    let mut inputs: Vec<Vec<f64>> = Vec::new();
    for a in all_accepted {
        if a.covered.iter().any(|b| !represented.contains(b)) {
            represented.union_with(&a.covered);
            inputs.push(a.input.clone());
        }
    }

    let mut rounds: Vec<RoundRecord> = outcomes.iter().flat_map(|o| o.rounds.clone()).collect();
    rounds.sort_by_key(|r| r.round);
    let evaluations = outcomes.iter().map(|o| o.evaluations).sum();
    let timeouts = outcomes.iter().map(|o| o.timeouts).sum();
    let traps = outcomes.iter().map(|o| o.traps).sum();
    let warm_replayed = outcomes.iter().map(|o| o.warm_replayed).sum();
    let started = outcomes.iter().map(|o| o.started).min().expect("non-empty");
    let finished = outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .expect("non-empty");
    let infeasible = unrefuted(&tracker, &coverage);
    // Every shard of a search runs the same program under the same
    // configuration, so they all resolved the same backend.
    let backend = outcomes[0].backend;

    MergedSearch {
        report: TestReport {
            program: program_name.to_string(),
            inputs,
            coverage,
            infeasible,
            rounds,
            evaluations,
            timeouts,
            traps,
            warm_replayed,
            backend,
            wall_time: finished.duration_since(started),
        },
        tracker,
    }
}

/// The tracker's infeasibility verdicts minus the branches `coverage`
/// shows covered: a covered branch is feasible, whatever blame it drew.
fn unrefuted(tracker: &SaturationTracker, coverage: &CoverageMap) -> Vec<BranchId> {
    let covered = coverage.covered();
    tracker
        .infeasible()
        .iter()
        .filter(|branch| !covered.contains(*branch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoverMe, CoverMeConfig, InfeasiblePolicy, SearchState};
    use coverme_runtime::{Cmp, ExecCtx, FnProgram, Program};

    /// Runs shard `shard_index` of `config` to its end.
    fn search_shard<P: Program>(
        config: &CoverMeConfig,
        program: &P,
        shard_index: usize,
    ) -> ShardOutcome {
        SearchState::new(config, program, shard_index).run(&mut |_| {})
    }

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

    fn config(shards: usize) -> CoverMeConfig {
        CoverMeConfig::default()
            .with_n_start(48)
            .with_n_iter(5)
            .with_seed(9)
            .with_shards(shards)
    }

    #[test]
    fn strided_slices_partition_the_budget() {
        let n_start = 10;
        for shards in 1..=4usize {
            let mut seen = vec![0usize; n_start];
            for index in 0..shards {
                for round in (index..n_start).step_by(shards) {
                    seen[round] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "shards={shards}: {seen:?}");
        }
    }

    #[test]
    fn one_shard_outcome_reproduces_the_sequential_driver() {
        let program = paper_example();
        let sequential = CoverMe::new(config(1)).run(&program);
        let outcome = search_shard(&config(1), &program, 0);
        let report = outcome.into_report(program.name());
        assert_eq!(report.inputs, sequential.inputs);
        assert_eq!(report.coverage, sequential.coverage);
        assert_eq!(report.rounds, sequential.rounds);
        assert_eq!(report.evaluations, sequential.evaluations);
    }

    #[test]
    fn shards_explore_disjoint_rounds_of_the_shared_schedule() {
        let program = paper_example();
        let cfg = config(3)
            // Keep every shard running its full slice so the round sets are
            // exactly the strided slices.
            .with_infeasible_policy(InfeasiblePolicy::Disabled)
            .with_n_start(12);
        let outcomes: Vec<ShardOutcome> = (0..3).map(|i| search_shard(&cfg, &program, i)).collect();
        let mut rounds_seen: Vec<usize> = outcomes
            .iter()
            .flat_map(|o| o.rounds.iter().map(|r| r.round))
            .collect();
        rounds_seen.sort_unstable();
        rounds_seen.dedup();
        // Shards may stop early on saturation, but the rounds they do run
        // are distinct global indices.
        let total: usize = outcomes.iter().map(|o| o.rounds.len()).sum();
        assert_eq!(rounds_seen.len(), total, "overlapping shard slices");
        // And the same global round gets the same starting point in every
        // shard count (shared schedule).
        let unsharded = search_shard(&cfg.clone().with_shards(1), &program, 0);
        for outcome in &outcomes {
            for record in &outcome.rounds {
                if let Some(seq) = unsharded.rounds.iter().find(|r| r.round == record.round) {
                    assert_eq!(seq.start, record.start, "round {}", record.round);
                }
            }
        }
    }

    #[test]
    fn merged_report_covers_union_of_shards() {
        let program = paper_example();
        let cfg = config(3);
        let outcomes: Vec<ShardOutcome> = (0..3).map(|i| search_shard(&cfg, &program, i)).collect();
        let mut union = BranchSet::with_sites(program.num_sites());
        for outcome in &outcomes {
            union.union_with(outcome.coverage.covered());
        }
        let merged = merge_shards(program.name(), outcomes);
        assert_eq!(merged.report.coverage.covered(), &union);
        assert_eq!(merged.tracker.covered(), &union);
    }

    #[test]
    fn merged_inputs_reproduce_the_merged_coverage() {
        let program = paper_example();
        let cfg = config(4);
        let outcomes: Vec<ShardOutcome> = (0..4).map(|i| search_shard(&cfg, &program, i)).collect();
        let merged = merge_shards(program.name(), outcomes);
        let mut check = CoverageMap::new(program.num_sites());
        for input in &merged.report.inputs {
            let mut ctx = ExecCtx::observe();
            program.execute(input, &mut ctx);
            check.record(&ctx);
        }
        assert_eq!(
            check.covered_count(),
            merged.report.coverage.covered_count()
        );
    }

    #[test]
    fn merge_accepts_partial_and_unordered_outcomes() {
        let program = paper_example();
        let cfg = config(4);
        // Only shards 3 and 1 ran (deadline expired for the rest), handed
        // over out of order.
        let outcomes = vec![
            search_shard(&cfg, &program, 3),
            search_shard(&cfg, &program, 1),
        ];
        let merged = merge_shards(program.name(), outcomes);
        assert!(merged.report.coverage.covered_count() > 0);
    }

    #[test]
    #[should_panic(expected = "zero shard outcomes")]
    fn merge_rejects_empty_input() {
        let _ = merge_shards("nothing", Vec::new());
    }

    #[test]
    #[should_panic(expected = "different shard counts")]
    fn merge_rejects_mixed_shard_counts() {
        let program = paper_example();
        let a = search_shard(&config(2), &program, 0);
        let b = search_shard(&config(3), &program, 1);
        let _ = merge_shards(program.name(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "duplicate shard index")]
    fn merge_rejects_duplicate_shards() {
        let program = paper_example();
        let cfg = config(2);
        let a = search_shard(&cfg, &program, 0);
        let _ = merge_shards(program.name(), vec![a.clone(), a]);
    }

    #[test]
    fn raw_shard_counts_are_normalized_like_everywhere_else() {
        // shards = 4 with n_start = 32 clamps to 2 effective shards; the
        // states must stride by the clamped count too (regression: they
        // used to stride by the raw count, silently dropping half the
        // rounds). Branch 1T is infeasible and the heuristic is off, so no
        // shard saturates early and every scheduled round runs.
        let program = FnProgram::new("FOO_INF", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 1.0;
            }
            ctx.branch(1, Cmp::Eq, x * x, -1.0);
        });
        let cfg = CoverMeConfig::default()
            .with_n_start(32)
            .with_n_iter(3)
            .with_seed(5)
            .with_shards(4)
            .with_infeasible_policy(InfeasiblePolicy::Disabled);
        let report = CoverMe::new(cfg).run(&program);
        assert_eq!(report.rounds.len(), 32, "every scheduled round ran");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn search_state_rejects_out_of_range_shard_index() {
        let program = paper_example();
        let _ = search_shard(&config(2), &program, 2);
    }
}
