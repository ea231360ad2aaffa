//! Property-based tests for the shard-merge invariants of `coverme::shard`.
//!
//! The sharded search promises (module docs of `coverme::shard`):
//!
//! * identical reports for identical `(seed, shards)` — bitwise determinism
//!   regardless of scheduling — that report no covered branch infeasible,
//! * coverage monotone in the shard count on these programs: splitting the
//!   same `n_start` budget never covers fewer branches than the unsharded
//!   search (on fdlibm's `erf` it can, see `coverme::shard`),
//! * the merged snapshot is the union of the shard snapshots: covered
//!   branches and coverage maps union exactly, infeasible verdicts union
//!   minus what real coverage refuted — and the merge is order-independent
//!   and idempotent;
//! * `SearchState::run` is exactly a reference round loop written against
//!   the public engine, minimizer and tracker API;
//! * results are deterministic per `(seed, shards, budget)` at any worker
//!   count — campaigns on 1, 2 and 5 workers (one executor, the same one
//!   `CoverMe::run` drives on the calling thread) agree, warm-started or
//!   cold.
//!
//! These are checked on randomly generated straight-line programs (affine
//! conditions over one input, with data flow between sites), not just the
//! hand-picked examples of the unit tests.

use proptest::prelude::*;

use coverme::shard::merge_shards;
use coverme::{
    Campaign, CampaignConfig, CoverMe, CoverMeConfig, InfeasiblePolicy, ObjectiveEngine,
    RoundOutcome, RoundRecord, SaturationTracker, SearchState, ShardOutcome, TestReport, WarmStart,
};
use coverme_optim::rng::SplitMix64;
use coverme_optim::BasinHopping;
use coverme_runtime::{BranchSet, Cmp, CoverageMap, ExecCtx, FnProgram, Program};

/// Specification of one conditional site of a generated program.
#[derive(Debug, Clone)]
struct SiteSpec {
    op: Cmp,
    /// The condition compares `coeff * x + offset` against `constant`.
    coeff: f64,
    offset: f64,
    constant: f64,
    /// Whether taking the true branch perturbs `x` before later sites.
    mutates: bool,
}

/// A generated straight-line program: a sequence of conditionals over a
/// single double input, with the true branches feeding modified values to
/// later sites.
fn build_program(specs: Vec<SiteSpec>) -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    let num_sites = specs.len();
    FnProgram::new(
        "generated",
        1,
        num_sites,
        move |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            for (site, spec) in specs.iter().enumerate() {
                let lhs = spec.coeff * x + spec.offset;
                if ctx.branch(site as u32, spec.op, lhs, spec.constant) && spec.mutates {
                    x = x * 0.5 + 1.0;
                }
            }
        },
    )
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Ne),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
    ]
}

fn site_strategy() -> impl Strategy<Value = SiteSpec> {
    (
        cmp_strategy(),
        -3.0..3.0f64,
        -10.0..10.0f64,
        -10.0..10.0f64,
        any::<bool>(),
    )
        .prop_map(|(op, coeff, offset, constant, mutates)| SiteSpec {
            op,
            coeff,
            offset,
            constant,
            mutates,
        })
}

fn program_strategy() -> impl Strategy<Value = Vec<SiteSpec>> {
    prop::collection::vec(site_strategy(), 1..5)
}

/// Runs shard `shard_index` of `config` to its end.
fn search_shard<P: Program>(
    config: &CoverMeConfig,
    program: &P,
    shard_index: usize,
) -> ShardOutcome {
    SearchState::new(config, program, shard_index).run(&mut |_| {})
}

fn config(seed: u64, shards: usize) -> CoverMeConfig {
    CoverMeConfig::default()
        .with_n_start(48)
        .with_n_iter(5)
        .with_seed(seed)
        .with_shards(shards)
}

/// A reference implementation of one shard's search: the
/// run-to-completion round loop of Algorithm 1 written directly against
/// the public engine/minimizer/tracker API. Kept `polish`-free — the
/// polish helper is internal — so comparisons run both sides with polish
/// disabled.
fn reference_shard_rounds<P: Program>(
    config: &CoverMeConfig,
    program: &P,
    shard_index: usize,
) -> (Vec<RoundRecord>, usize, Vec<Vec<f64>>) {
    assert!(!config.polish, "reference loop does not implement polish");
    let shards = config.shards.max(1);
    let mut tracker = SaturationTracker::new(program.num_sites());
    let mut coverage = coverme_runtime::CoverageMap::new(program.num_sites());
    let mut engine = ObjectiveEngine::new(program, config.epsilon);
    let mut start_rng = SplitMix64::new(config.seed ^ 0x5EED_0001);
    // Every start is uniform over the fixed box [-100, 100]^n.
    let schedule: Vec<Vec<f64>> = (0..config.n_start)
        .map(|_| {
            (0..program.arity())
                .map(|_| start_rng.uniform(-100.0, 100.0))
                .collect()
        })
        .collect();
    let mut rounds = Vec::new();
    let mut inputs = Vec::new();
    let mut evaluations = 0usize;
    for round in (shard_index..config.n_start).step_by(shards) {
        if tracker.all_saturated() {
            break;
        }
        let x0 = schedule[round].clone();
        let snapshot = tracker.saturated_set();
        let saturated_before = snapshot.len();
        engine.retarget(&snapshot);
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
        let result = hopper.minimize_objective(&mut engine, &x0);
        evaluations += result.stats.evaluations;
        let minimum_point = result.x.clone();
        let evaluation = engine.eval_full(&minimum_point);
        evaluations += 1;
        let outcome = if evaluation.value <= config.zero_threshold {
            let newly = coverage.record_set(&evaluation.covered);
            tracker.record_trace(&evaluation.trace);
            inputs.push(minimum_point.clone());
            if newly > 0 {
                RoundOutcome::NewInput
            } else {
                RoundOutcome::RedundantInput
            }
        } else {
            match config.infeasible_policy {
                InfeasiblePolicy::LastConditional => {
                    if let Some(last) = evaluation.trace.last() {
                        let blamed = last.untaken_branch();
                        tracker.mark_infeasible(blamed);
                        RoundOutcome::DeemedInfeasible(blamed)
                    } else {
                        RoundOutcome::NoProgress
                    }
                }
                InfeasiblePolicy::Generalized => {
                    if let Some(last) = evaluation.trace.last() {
                        let anchor = last.untaken_branch();
                        if tracker.covered().contains(anchor)
                            || tracker.infeasible().contains(anchor)
                        {
                            let blamed = tracker.blame_uncovered_path(&evaluation.trace);
                            RoundOutcome::DeemedInfeasiblePath(anchor, blamed.len())
                        } else {
                            tracker.mark_infeasible(anchor);
                            RoundOutcome::DeemedInfeasible(anchor)
                        }
                    } else {
                        RoundOutcome::NoProgress
                    }
                }
                InfeasiblePolicy::Disabled => RoundOutcome::NoProgress,
            }
        };
        rounds.push(RoundRecord {
            round,
            start: x0,
            minimum: minimum_point,
            value: evaluation.value,
            evaluations: result.stats.evaluations,
            saturated_before,
            outcome,
        });
    }
    (rounds, evaluations, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bitwise determinism: for a fixed `(seed, shards)` the merged report
    /// is identical run to run — generated inputs, covered set, and round
    /// records all match. At every shard count, the single-shard
    /// pass-through included, no covered branch is reported infeasible.
    #[test]
    fn identical_reports_for_identical_seed_and_shards(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 1..5usize,
    ) {
        let program = build_program(specs);
        let a = CoverMe::new(config(seed, shards)).run(&program);
        let b = CoverMe::new(config(seed, shards)).run(&program);
        prop_assert_eq!(&a.inputs, &b.inputs);
        prop_assert_eq!(a.coverage.covered(), b.coverage.covered());
        prop_assert_eq!(&a.infeasible, &b.infeasible);
        prop_assert_eq!(a.rounds.len(), b.rounds.len());
        prop_assert_eq!(a.evaluations, b.evaluations);
        for branch in &a.infeasible {
            prop_assert!(
                !a.coverage.covered().contains(*branch),
                "covered branch {:?} reported infeasible at {} shard(s)",
                branch,
                shards
            );
        }
    }

    /// Coverage is monotone in the shard count: a sharded run over the same
    /// total `n_start` never covers fewer branches than the unsharded run.
    #[test]
    fn coverage_monotone_in_shard_count(
        specs in program_strategy(),
        seed in 0..1000u64,
    ) {
        let program = build_program(specs);
        let unsharded = CoverMe::new(config(seed, 1)).run(&program);
        for shards in 2..=4usize {
            let sharded = CoverMe::new(config(seed, shards)).run(&program);
            prop_assert!(
                sharded.coverage.covered_count() >= unsharded.coverage.covered_count(),
                "{} shards covered {} < unsharded {}",
                shards,
                sharded.coverage.covered_count(),
                unsharded.coverage.covered_count()
            );
        }
    }

    /// The merged snapshot is the union of the shard snapshots: covered
    /// branches union exactly (tracker and coverage map agree), and every
    /// surviving infeasible verdict came from some shard and is not refuted
    /// by merged coverage.
    #[test]
    fn merged_saturation_is_union_of_shard_snapshots(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..5usize,
    ) {
        let program = build_program(specs);
        let cfg = config(seed, shards);
        let outcomes: Vec<_> = (0..shards).map(|i| search_shard(&cfg, &program, i)).collect();

        let mut covered_union = BranchSet::with_sites(program.num_sites());
        let mut infeasible_union = BranchSet::with_sites(program.num_sites());
        for outcome in &outcomes {
            covered_union.union_with(outcome.tracker.covered());
            infeasible_union.union_with(outcome.tracker.infeasible());
        }

        let merged = merge_shards(program.name(), outcomes);
        prop_assert_eq!(merged.tracker.covered(), &covered_union);
        prop_assert_eq!(merged.report.coverage.covered(), &covered_union);
        for branch in merged.tracker.infeasible().iter() {
            prop_assert!(infeasible_union.contains(branch), "verdict from nowhere");
            prop_assert!(!covered_union.contains(branch), "refuted verdict survived");
        }
        // The report's infeasible list is the merged tracker's.
        prop_assert_eq!(
            merged.report.infeasible.len(),
            merged.tracker.infeasible().len()
        );
    }

    /// The representative inputs selected by the merge reproduce the merged
    /// coverage when replayed — the report's coverage is still defined over
    /// its generated input set `X`.
    #[test]
    fn merged_inputs_replay_to_merged_coverage(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..5usize,
    ) {
        let program = build_program(specs);
        let report = CoverMe::new(config(seed, shards)).run(&program);
        let mut check = CoverageMap::new(program.num_sites());
        for input in &report.inputs {
            let mut ctx = ExecCtx::observe();
            program.execute(input, &mut ctx);
            check.record(&ctx);
        }
        prop_assert_eq!(check.covered_count(), report.coverage.covered_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `SearchState::run` produces exactly the rounds, evaluation counts
    /// and accepted inputs of the reference round loop.
    #[test]
    fn search_state_run_matches_the_reference_shard_loop(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 1..4usize,
    ) {
        let program = build_program(specs);
        let cfg = config(seed, shards).with_polish(false);
        for shard in 0..shards {
            let outcome = search_shard(&cfg, &program, shard);
            let (rounds, evaluations, inputs) =
                reference_shard_rounds(&cfg, &program, shard);
            prop_assert_eq!(&outcome.rounds, &rounds, "shard {}", shard);
            prop_assert_eq!(outcome.evaluations, evaluations);
            let accepted: Vec<Vec<f64>> =
                outcome.accepted.iter().map(|a| a.input.clone()).collect();
            prop_assert_eq!(accepted, inputs);
        }
    }

    /// Merging the trackers real searches produce is order-independent
    /// and idempotent, so the merged snapshot cannot depend on which
    /// shard finished first.
    #[test]
    fn merges_of_real_shard_outcomes_commute(
        specs in program_strategy(),
        seed in 0..1000u64,
    ) {
        let program = build_program(specs);
        let cfg = config(seed, 3);
        let outcomes: Vec<ShardOutcome> =
            (0..3).map(|i| search_shard(&cfg, &program, i)).collect();

        let merge_in = |order: &[usize]| {
            let mut tracker = SaturationTracker::new(program.num_sites());
            for &i in order {
                tracker.merge_from(&outcomes[i].tracker);
            }
            tracker
        };
        let abc = merge_in(&[0, 1, 2]);
        prop_assert_eq!(&abc, &merge_in(&[2, 1, 0]));
        prop_assert_eq!(&abc, &merge_in(&[1, 2, 0]));
        // Idempotent: a second pass of every shard changes nothing.
        let mut again = abc.clone();
        for outcome in &outcomes {
            again.merge_from(&outcome.tracker);
        }
        prop_assert_eq!(&again, &abc);
    }

    /// Sharded searches are deterministic per `(seed, shards)` at any
    /// worker count: campaigns on 1, 2 and 5 workers produce the same
    /// report.
    #[test]
    fn sharded_results_deterministic_at_any_worker_count(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..4usize,
    ) {
        let programs = vec![build_program(specs)];
        assert_identical_at_any_worker_count(&config(seed, shards), &programs);
    }

    /// A corpus warm start replays in each shard before any scheduled
    /// round: sharded warm runs stay deterministic across worker counts.
    #[test]
    fn warm_started_sharded_runs_stay_deterministic(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..4usize,
    ) {
        let program = build_program(specs);
        // Harvest replay material from a cold run of a different schedule
        // (different seed → different search key, so no schedule credit:
        // this pins the pure replay path).
        let donor = CoverMe::new(config(seed ^ 0x55, shards)).run(&program);
        let warm = WarmStart {
            inputs: donor.inputs.clone(),
            infeasible: donor.infeasible.clone(),
            prior_coverage: None,
        };
        let cfg = config(seed, shards).with_warm_start(warm);
        let one = assert_identical_at_any_worker_count(&cfg, &[program]);
        prop_assert!(one.warm_replayed > 0 || donor.inputs.is_empty());
    }
}

/// Runs a campaign of `programs` under the base configuration `cfg` on 1,
/// 2 and 5 workers, checks that every run reports the same first row
/// (inputs, coverage, rounds, evaluations, warm replays), and returns the
/// one-worker row.
fn assert_identical_at_any_worker_count<P: Program + Sync>(
    cfg: &CoverMeConfig,
    programs: &[P],
) -> TestReport {
    let run_campaign = |workers: usize| {
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(cfg.clone())
                .with_workers(workers),
        )
        .run(programs);
        report.results[0].report.clone().expect("ran")
    };
    let one = run_campaign(1);
    for workers in [2usize, 5] {
        let many = run_campaign(workers);
        prop_assert_eq!(&one.inputs, &many.inputs, "workers = {}", workers);
        prop_assert_eq!(&one.coverage, &many.coverage);
        prop_assert_eq!(&one.rounds, &many.rounds);
        prop_assert_eq!(one.evaluations, many.evaluations);
        prop_assert_eq!(one.warm_replayed, many.warm_replayed);
    }
    one
}
