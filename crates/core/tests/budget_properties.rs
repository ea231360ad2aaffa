//! Property-based tests for the per-search evaluation allowance
//! (`CoverMeConfig::budget`) and generalized infeasibility blame
//! (`InfeasiblePolicy::Generalized`).
//!
//! The properties:
//!
//! * a campaign under an allowance is **deterministic per
//!   `(seed, budget)`** — the worker count cannot change a single input,
//!   covered branch or evaluation count — and **honors the allowance**:
//!   every function starts its last round with fewer evaluations spent
//!   than the allowance (rounds are atomic, so only that last round may
//!   overshoot it). `coverme serve` tiers rely on this to meter tenants;
//! * an allowance the search never reaches is **bit-identical to no
//!   allowance**: the check before each round perturbs nothing;
//! * shard merges of searches running **generalized blame** stay
//!   order-independent and idempotent under the new policy.
//!
//! Programs are the same randomly generated straight-line conditionals the
//! shard suite uses.

use proptest::prelude::*;

use coverme::{
    Campaign, CampaignConfig, CampaignReport, CoverMeConfig, InfeasiblePolicy, SaturationTracker,
    SearchState, ShardOutcome,
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

    /// A campaign under a per-search allowance is identical on 1 and 3
    /// workers, and every function starts its last round below the
    /// allowance. Polish is off so that a round's cost is exactly its
    /// minimizer's evaluations plus the final full evaluation.
    #[test]
    fn allowance_is_deterministic_and_checked_before_every_round(
        suite in suite_strategy(),
        seed in 0..1000u64,
        budget in 100..4_000usize,
    ) {
        let programs = build_inventory(suite);
        let run = |workers: usize| {
            Campaign::new(
                CampaignConfig::new()
                    .with_base(base_config(seed).with_polish(false).with_budget(budget))
                    .with_workers(workers),
            )
            .run(&programs)
        };
        let one = run(1);
        let three = run(3);
        prop_assert_eq!(fingerprint(&one), fingerprint(&three));
        for result in &one.results {
            let report = result.report.as_ref().expect("no deadline, nothing skipped");
            let last = report.rounds.last().expect("an allowance admits one round");
            let before_last = report.evaluations - (last.evaluations + 1);
            prop_assert!(
                before_last < budget,
                "{} started its last round at {} of {} evaluations",
                result.name,
                before_last,
                budget
            );
        }
    }

    /// An allowance the search never reaches reproduces the unbudgeted
    /// campaign bit for bit: the check before each round perturbs nothing.
    #[test]
    fn default_knobs_are_bit_identical_to_the_prebudget_path(
        suite in suite_strategy(),
        seed in 0..1000u64,
    ) {
        let programs = build_inventory(suite);
        let unbudgeted = Campaign::new(
            CampaignConfig::new().with_base(base_config(seed)).with_workers(2),
        )
        .run(&programs);
        let unreached = Campaign::new(
            CampaignConfig::new()
                .with_base(base_config(seed).with_budget(usize::MAX))
                .with_workers(2),
        )
        .run(&programs);
        prop_assert_eq!(fingerprint(&unbudgeted), fingerprint(&unreached));
    }

    /// Merging the shard trackers of searches running generalized
    /// infeasibility blame stays order-independent and idempotent.
    #[test]
    fn generalized_blame_merges_commute(
        specs in prop::collection::vec(site_strategy(), 1..5),
        seed in 0..1000u64,
    ) {
        let program = build_program("generated".to_string(), specs);
        let cfg = base_config(seed)
            .with_shards(3)
            .with_infeasible_policy(InfeasiblePolicy::Generalized);
        let outcomes: Vec<ShardOutcome> = (0..3)
            .map(|i| SearchState::new(&cfg, &program, i).run(&mut |_| {}))
            .collect();
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

}
