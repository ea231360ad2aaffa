//! Property-based tests for the epoch-resumable search state machine and
//! the cross-shard saturation sync layer (`coverme::driver::SearchState`,
//! `coverme::sync`).
//!
//! The refactor promises:
//!
//! * `sync_epochs = 0` is **bit-identical to the pre-sync path**: the
//!   `SearchState`-based `run_shard` reproduces the historical
//!   run-to-completion shard loop exactly (checked against a reference
//!   reimplementation of that loop on generated programs);
//! * pausing at any round boundary is free: any slicing of a shard's
//!   schedule through `run_rounds` produces the same outcome as one
//!   run-to-exhaustion call;
//! * saturation-delta application is commutative and idempotent, so the
//!   barrier rendezvous may apply deltas in any arrival order;
//! * synced results are deterministic per `(seed, shards, sync_epochs)` at
//!   any worker count — `CoverMe::run` on the calling thread,
//!   `CoverMe::run_parallel` on one worker per shard and campaigns on any
//!   number of workers (all one executor) agree;
//! * on the generated corpus, coverage with sync on is a superset of
//!   coverage with sync off at equal budget. (This is an empirical pin of
//!   the easy-program regime, not a theorem — a larger snapshot changes
//!   the minimizer's trajectory, and on hard fdlibm functions an
//!   individual branch can go either way. The vendored proptest RNG is
//!   deterministic per test, so the pin cannot flake.)
//!
//! Programs are the same randomly generated straight-line conditionals the
//! shard-merge suite uses.

use proptest::prelude::*;

use coverme::driver::{EpochOutcome, SearchState};
use coverme::shard::run_shard;
use coverme::{
    Campaign, CampaignConfig, CoverMe, CoverMeConfig, InfeasiblePolicy, ObjectiveEngine,
    RoundOutcome, RoundRecord, SaturationTracker, ShardOutcome, WarmStart,
};
use coverme_optim::rng::SplitMix64;
use coverme_optim::BasinHopping;
use coverme_runtime::{Cmp, ExecCtx, FnProgram, Program};

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

fn config(seed: u64, shards: usize, sync_epochs: usize) -> CoverMeConfig {
    CoverMeConfig::default()
        .with_n_start(48)
        .with_n_iter(5)
        .with_seed(seed)
        .with_shards(shards)
        .with_sync_epochs(sync_epochs)
}

/// A reference reimplementation of the pre-`SearchState` shard loop (the
/// PR 4 path): the run-to-completion round loop written directly against
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
    let mut engine = ObjectiveEngine::new(program, config.epsilon).cache_mode(config.cache);
    let mut start_rng = SplitMix64::new(config.seed ^ 0x5EED_0001);
    let schedule: Vec<Vec<f64>> =
        config
            .starting_points
            .sample_batch(&mut start_rng, program.arity(), config.n_start);
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `sync_epochs = 0` (the default) is the PR 4 path, bit for bit: the
    /// `SearchState`-backed `run_shard` produces exactly the rounds,
    /// evaluation counts and accepted inputs of the historical
    /// run-to-completion loop.
    #[test]
    fn sync_off_matches_the_presync_reference_loop(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 1..4usize,
    ) {
        let program = build_program(specs);
        let cfg = config(seed, shards, 0).with_polish(false);
        for shard in 0..shards {
            let outcome = run_shard(&cfg, &program, shard);
            let (rounds, evaluations, inputs) =
                reference_shard_rounds(&cfg, &program, shard);
            prop_assert_eq!(&outcome.rounds, &rounds, "shard {}", shard);
            prop_assert_eq!(outcome.evaluations, evaluations);
            let accepted: Vec<Vec<f64>> =
                outcome.accepted.iter().map(|a| a.input.clone()).collect();
            prop_assert_eq!(accepted, inputs);
        }
    }

    /// Pausing is free: cutting a shard's schedule into arbitrary
    /// `run_rounds` slices produces the same outcome as one
    /// run-to-exhaustion call — rounds, inputs, coverage, evaluations.
    #[test]
    fn run_rounds_slicing_is_behavior_free(
        specs in program_strategy(),
        seed in 0..1000u64,
        chunks in prop::collection::vec(1..7usize, 1..32),
    ) {
        let program = build_program(specs);
        let cfg = config(seed, 1, 0);
        let whole = run_shard(&cfg, &program, 0);

        let mut state = SearchState::new(&cfg, &program, 0);
        let mut chunk_iter = chunks.iter().cycle();
        loop {
            let outcome = state.run_rounds(*chunk_iter.next().expect("cycle"));
            if outcome.is_finished() {
                break;
            }
        }
        let sliced = state.finish();
        prop_assert_eq!(&sliced.rounds, &whole.rounds);
        prop_assert_eq!(&sliced.coverage, &whole.coverage);
        prop_assert_eq!(sliced.evaluations, whole.evaluations);
        prop_assert_eq!(&sliced.tracker, &whole.tracker);
    }

    /// Saturation-delta application is commutative and idempotent on the
    /// trackers real searches produce, so the rendezvous may apply deltas
    /// in any arrival order.
    #[test]
    fn deltas_from_real_searches_commute(
        specs in program_strategy(),
        seed in 0..1000u64,
    ) {
        let program = build_program(specs);
        let cfg = config(seed, 3, 0);
        let outcomes: Vec<ShardOutcome> =
            (0..3).map(|i| run_shard(&cfg, &program, i)).collect();
        let deltas: Vec<_> = outcomes.iter().map(|o| o.tracker.delta()).collect();

        let apply_in = |order: &[usize]| {
            let mut tracker = SaturationTracker::new(program.num_sites());
            for &i in order {
                tracker.apply_delta(&deltas[i]);
            }
            tracker
        };
        let abc = apply_in(&[0, 1, 2]);
        prop_assert_eq!(&abc, &apply_in(&[2, 1, 0]));
        prop_assert_eq!(&abc, &apply_in(&[1, 2, 0]));
        // Idempotent: a second pass of every delta changes nothing.
        let mut again = abc.clone();
        for delta in &deltas {
            prop_assert!(!again.apply_delta(delta), "stale delta mutated state");
        }
        prop_assert_eq!(&again, &abc);
    }

    /// Synced searches are deterministic per `(seed, shards, sync_epochs)`
    /// at any worker count: `CoverMe::run` on the calling thread,
    /// `CoverMe::run_parallel` on one worker per shard, and campaigns at
    /// several worker counts all produce the same report.
    #[test]
    fn synced_results_deterministic_at_any_worker_count(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..4usize,
        sync_epochs in 2..5usize,
    ) {
        let program = build_program(specs.clone());
        let cfg = config(seed, shards, sync_epochs);
        let sequential = CoverMe::new(cfg.clone()).run(&program);
        let parallel = CoverMe::new(cfg.clone()).run_parallel(&program);
        prop_assert_eq!(&sequential.inputs, &parallel.inputs);
        prop_assert_eq!(&sequential.coverage, &parallel.coverage);
        prop_assert_eq!(sequential.evaluations, parallel.evaluations);
        prop_assert_eq!(&sequential.rounds, &parallel.rounds);

        // The campaign derives its own per-function seed, so compare the
        // campaign against itself across worker counts.
        let programs = vec![build_program(specs)];
        let run_campaign = |workers: usize| {
            Campaign::new(
                CampaignConfig::new()
                    .with_base(cfg.clone())
                    .with_workers(workers),
            )
            .run(&programs)
        };
        let one = run_campaign(1);
        for workers in [2usize, 5] {
            let many = run_campaign(workers);
            let (a, b) = (
                one.results[0].report.as_ref().expect("ran"),
                many.results[0].report.as_ref().expect("ran"),
            );
            prop_assert_eq!(&a.inputs, &b.inputs, "workers = {}", workers);
            prop_assert_eq!(&a.coverage, &b.coverage);
            prop_assert_eq!(a.evaluations, b.evaluations);
        }
    }

    /// A corpus warm start replays inside each shard's first `run_rounds`
    /// slice, before any scheduled round: synced warm runs remain
    /// deterministic between `CoverMe::run` and `CoverMe::run_parallel`,
    /// and the per-epoch evaluation ledger still covers
    /// every evaluation — replayed ones included.
    #[test]
    fn warm_started_synced_runs_stay_deterministic(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..4usize,
        sync_epochs in 2..5usize,
    ) {
        let program = build_program(specs);
        // Harvest replay material from a cold run of a different schedule
        // (different seed → different search key, so no schedule credit:
        // this pins the pure replay path under sync).
        let donor = CoverMe::new(config(seed ^ 0x55, shards, sync_epochs)).run(&program);
        let warm = WarmStart {
            inputs: donor.inputs.clone(),
            infeasible: donor.infeasible.clone(),
            prior_coverage: None,
        };
        let cfg = config(seed, shards, sync_epochs).with_warm_start(warm);
        let sequential = CoverMe::new(cfg.clone()).run(&program);
        let parallel = CoverMe::new(cfg).run_parallel(&program);
        prop_assert_eq!(&sequential.inputs, &parallel.inputs);
        prop_assert_eq!(&sequential.coverage, &parallel.coverage);
        prop_assert_eq!(sequential.evaluations, parallel.evaluations);
        prop_assert_eq!(sequential.warm_replayed, parallel.warm_replayed);
        prop_assert!(sequential.warm_replayed > 0 || donor.inputs.is_empty());
        for report in [&sequential, &parallel] {
            let ledger: usize = report.epochs.iter().map(|e| e.evaluations).sum();
            prop_assert_eq!(ledger, report.evaluations);
        }
    }

    /// On the generated corpus, coverage with sync on is a superset of
    /// coverage with sync off at equal budget — the directed-search
    /// feedback does not lose branches the blind run finds on these
    /// easily-saturable programs. (An empirical pin, deterministic thanks
    /// to the vendored proptest RNG; see the module docs for why this is
    /// not a theorem on hard programs.)
    #[test]
    fn sync_on_coverage_is_a_superset_at_equal_budget(
        specs in program_strategy(),
        seed in 0..1000u64,
        shards in 2..4usize,
        sync_epochs in 2..5usize,
    ) {
        let program = build_program(specs);
        let blind = CoverMe::new(config(seed, shards, 0)).run(&program);
        let synced = CoverMe::new(config(seed, shards, sync_epochs)).run(&program);
        for branch in blind.coverage.covered().iter() {
            prop_assert!(
                synced.coverage.covered().contains(branch),
                "sync lost branch {} (blind covered {}, synced covered {})",
                branch,
                blind.coverage.covered_count(),
                synced.coverage.covered_count()
            );
        }
    }
}

/// The sync layer's early-exit guarantee, pinned outside proptest: a shard
/// whose absorbed union saturates everything spends zero further
/// evaluations (see also `coverme::sync` unit tests).
#[test]
fn absorbed_saturation_exits_before_any_work() {
    let program = FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
        let mut x = input[0];
        if ctx.branch(0, Cmp::Le, x, 1.0) {
            x += 2.5;
        }
        if ctx.branch(1, Cmp::Eq, x * x, 4.0) {
            // target
        }
    });
    let cfg = config(7, 2, 4);
    let mut donor = SearchState::new(&cfg, &program, 0);
    donor.run_to_exhaustion();
    assert!(donor.tracker().all_saturated());
    let mut receiver = SearchState::new(&cfg, &program, 1);
    receiver.absorb_delta(&donor.extract_delta());
    assert_eq!(receiver.run_rounds(usize::MAX), EpochOutcome::Saturated);
    assert_eq!(receiver.evaluations(), 0);
    let outcome = receiver.finish();
    assert!(outcome.rounds.is_empty());
    // The telemetry still records the delta that ended the search.
    assert_eq!(outcome.epochs.len(), 1);
    assert_eq!(outcome.epochs[0].deltas_absorbed, 1);
}
