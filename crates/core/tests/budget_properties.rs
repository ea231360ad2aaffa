//! Property-based tests for the eval-budget economics layer: the bandit
//! campaign scheduler (`SchedulerPolicy::Bandit`), the global evaluation
//! budget (`CoverMeConfig::budget`), and generalized infeasibility blame
//! (`InfeasiblePolicy::Generalized`).
//!
//! The PR promises:
//!
//! * the bandit is **deterministic per `(seed, budget)`** — the allocator
//!   decides only at round barriers from completed-work telemetry, so the
//!   worker count cannot change a single grant, input, or covered branch;
//! * the bandit **conserves the pool**: the sum of granted evaluations
//!   never exceeds the global budget, and no function spends more than it
//!   was granted;
//! * the new knobs at their defaults (`scheduler = fixed`, no budget) are
//!   **bit-identical to the pre-budget path**: a campaign constructed
//!   through the new configuration surface reproduces a knob-free
//!   campaign exactly;
//! * saturation deltas from searches running **generalized blame** stay
//!   commutative and idempotent, so sync rendezvous and shard merges
//!   remain arrival-order-free under the new policy.
//!
//! Programs are the same randomly generated straight-line conditionals the
//! sync suite uses.

use proptest::prelude::*;

use coverme::{
    Campaign, CampaignConfig, CampaignReport, CoverMeConfig, InfeasiblePolicy, SaturationTracker,
    SchedulerPolicy, ShardOutcome,
};
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

/// A generated straight-line program over a single double input.
fn build_program(name: String, specs: Vec<SiteSpec>) -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    let num_sites = specs.len();
    FnProgram::new(
        name,
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

/// A generated inventory: one program per spec list, named by position.
fn build_inventory(suite: Vec<Vec<SiteSpec>>) -> Vec<FnProgram<impl Fn(&[f64], &mut ExecCtx)>> {
    suite
        .into_iter()
        .enumerate()
        .map(|(index, specs)| build_program(format!("fn_{index}"), specs))
        .collect()
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

fn suite_strategy() -> impl Strategy<Value = Vec<Vec<SiteSpec>>> {
    prop::collection::vec(prop::collection::vec(site_strategy(), 1..5), 2..5)
}

fn base_config(seed: u64) -> CoverMeConfig {
    CoverMeConfig::default()
        .with_n_start(32)
        .with_n_iter(4)
        .with_seed(seed)
}

/// The scheduling-independent content of a report, for equality checks.
type Fingerprint = Vec<(String, Option<(Vec<Vec<f64>>, usize, usize)>)>;

fn fingerprint(report: &CampaignReport) -> Fingerprint {
    report
        .results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.report
                    .as_ref()
                    .map(|t| (t.inputs.clone(), t.coverage.covered_count(), t.evaluations)),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bandit's grant history and search results are a pure function
    /// of `(seed, budget)` — never of the worker count.
    #[test]
    fn bandit_deterministic_at_any_worker_count(
        suite in suite_strategy(),
        seed in 0..1000u64,
        pool in 5_000..60_000usize,
    ) {
        let programs = build_inventory(suite);
        let run = |workers: usize| {
            Campaign::new(
                CampaignConfig::new()
                    .with_base(
                        base_config(seed)
                            .with_scheduler(SchedulerPolicy::Bandit)
                            .with_budget(pool),
                    )
                    .with_workers(workers),
            )
            .run(&programs)
        };
        let one = run(1);
        for workers in [2usize, 4] {
            let many = run(workers);
            prop_assert_eq!(
                fingerprint(&one),
                fingerprint(&many),
                "workers = {}",
                workers
            );
            for (a, b) in one.results.iter().zip(&many.results) {
                prop_assert_eq!(a.budget, b.budget, "{} grant history", a.name);
                prop_assert_eq!(a.status, b.status, "{} status", a.name);
            }
        }
    }

    /// The pool is conserved: granted totals never exceed the budget, and
    /// no function spends evaluations it was not granted.
    #[test]
    fn bandit_conserves_the_global_budget(
        suite in suite_strategy(),
        seed in 0..1000u64,
        pool in 2_000..40_000usize,
    ) {
        let programs = build_inventory(suite);
        let report = Campaign::new(
            CampaignConfig::new()
                .with_base(
                    base_config(seed)
                        .with_scheduler(SchedulerPolicy::Bandit)
                        .with_budget(pool),
                )
                .with_workers(2),
        )
        .run(&programs);
        let granted_total: usize = report
            .results
            .iter()
            .map(|r| r.budget.expect("bandit attaches a ledger").granted)
            .sum();
        prop_assert!(
            granted_total <= pool,
            "granted {} exceeds the pool {}",
            granted_total,
            pool
        );
        for result in &report.results {
            let ledger = result.budget.expect("bandit attaches a ledger");
            let evals = result.report.as_ref().map_or(0, |r| r.evaluations);
            // The ledger is settled against actual spend; only a final
            // round in flight while the pool ran completely dry may leave
            // spend above the granted total.
            prop_assert!(
                evals <= ledger.granted || granted_total == pool,
                "{} spent {} of {} granted with pool to spare",
                result.name,
                evals,
                ledger.granted
            );
            prop_assert!(ledger.grants > 0 || ledger.granted == 0);
        }
    }

    /// The new knobs at their defaults reproduce the pre-budget campaign
    /// bit for bit: fixed scheduling is the exact code path earlier
    /// releases ran.
    #[test]
    fn default_knobs_are_bit_identical_to_the_prebudget_path(
        suite in suite_strategy(),
        seed in 0..1000u64,
    ) {
        let programs = build_inventory(suite);
        let knobless = Campaign::new(
            CampaignConfig::new().with_base(base_config(seed)).with_workers(2),
        )
        .run(&programs);
        let explicit = Campaign::new(
            CampaignConfig::new()
                .with_base(base_config(seed).with_scheduler(SchedulerPolicy::Fixed))
                .with_workers(2),
        )
        .run(&programs);
        prop_assert_eq!(fingerprint(&knobless), fingerprint(&explicit));
        // And no ledger appears on the fixed path — the report shape is
        // unchanged, not just its values.
        prop_assert!(explicit.results.iter().all(|r| r.budget.is_none()));
        prop_assert_eq!(explicit.scheduler, SchedulerPolicy::Fixed);
    }

    /// Deltas from searches running generalized infeasibility blame stay
    /// commutative and idempotent, so every rendezvous and merge stays
    /// arrival-order-free under the new policy.
    #[test]
    fn generalized_blame_deltas_commute(
        specs in prop::collection::vec(site_strategy(), 1..5),
        seed in 0..1000u64,
    ) {
        let program = build_program("generated".to_string(), specs);
        let cfg = base_config(seed)
            .with_shards(3)
            .with_infeasible_policy(InfeasiblePolicy::Generalized);
        let outcomes: Vec<ShardOutcome> = (0..3)
            .map(|i| coverme::shard::run_shard(&cfg, &program, i))
            .collect();
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

}
