//! Cross-crate integration tests: the full pipeline from program definition
//! (native or mini-language) through CoverMe and the baselines.

use coverme::{Campaign, CampaignConfig, CoverMe, CoverMeConfig, SaturationTracker};
use coverme_baselines::{RandomConfig, RandomTester};
use coverme_fdlibm::by_name;
use coverme_fpir::compile;
use coverme_runtime::{ExecCtx, Program};

#[test]
fn coverme_fully_covers_the_paper_example_via_the_mini_language() {
    let program = compile(
        r#"
        double square(double x) { return x * x; }
        double foo(double x) {
            if (x <= 1.0) { x = x + 2.5; }
            double y = square(x);
            if (y == 4.0) { return 1.0; }
            return 0.0;
        }
        "#,
        "foo",
    )
    .expect("compiles");
    let report =
        CoverMe::new(CoverMeConfig::default().with_n_start(60).with_seed(11)).run(&program);
    assert_eq!(report.branch_coverage_percent(), 100.0, "{report}");
}

#[test]
fn coverme_achieves_high_coverage_on_tanh_quickly() {
    let tanh = by_name("tanh").unwrap();
    let report = CoverMe::new(CoverMeConfig::default().with_n_start(80).with_seed(1)).run(&tanh);
    // The +-inf/NaN guard branches of tanh ask the optimizer to push the
    // input's high word past 0x7ff00000, which the scaled-down test budget
    // does not always manage; 60% is the floor insisted on here, the full
    // budget reaches the paper's 100%.
    assert!(
        report.branch_coverage_percent() >= 60.0,
        "only {:.1}%",
        report.branch_coverage_percent()
    );
}

#[test]
fn coverme_outperforms_random_on_an_equality_heavy_benchmark() {
    let b = by_name("remainder").unwrap();
    let coverme = CoverMe::new(CoverMeConfig::default().with_n_start(60).with_seed(5)).run(&b);
    let rand = RandomTester::new(RandomConfig {
        max_executions: 20_000,
        seed: 5,
        ..RandomConfig::default()
    })
    .run(&b);
    assert!(
        coverme.branch_coverage_percent() >= rand.branch_coverage_percent(),
        "CoverMe {:.1}% < Rand {:.1}%",
        coverme.branch_coverage_percent(),
        rand.branch_coverage_percent()
    );
}

#[test]
fn generated_inputs_replay_to_the_reported_coverage() {
    let b = by_name("asinh").unwrap();
    let report = CoverMe::new(CoverMeConfig::default().with_n_start(60).with_seed(9)).run(&b);
    let mut check = coverme_runtime::CoverageMap::new(b.sites);
    for input in &report.inputs {
        let mut ctx = ExecCtx::observe();
        b.execute(input, &mut ctx);
        check.record(&ctx);
    }
    assert_eq!(check.covered_count(), report.coverage.covered_count());
}

#[test]
fn no_covered_branch_is_reported_infeasible() {
    // At seed 42 the search blames two branches of `newton_sqrt` as
    // infeasible and covers both later; the report must not list them,
    // whether the one shard's report passes through or shards merge.
    let program = compile(
        include_str!("../examples/fpir/newton_sqrt.fpir"),
        "newton_sqrt",
    )
    .expect("compiles");
    for shards in [1, 4] {
        let config = CoverMeConfig::default()
            .with_n_start(80)
            .with_seed(42)
            .with_shards(shards);
        let report = CoverMe::new(config).run(&program);
        let refuted: Vec<_> = report
            .infeasible
            .iter()
            .filter(|branch| report.coverage.covered().contains(**branch))
            .collect();
        assert!(refuted.is_empty(), "{shards} shard(s): {refuted:?}");
    }
}

#[test]
fn static_descendants_from_the_mini_language_feed_saturation_tracking() {
    let program = compile(
        r#"
        double f(double x) {
            if (x > 0.0) {
                if (x > 10.0) { return 2.0; }
                return 1.0;
            }
            return 0.0;
        }
        "#,
        "f",
    )
    .unwrap();
    let mut tracker = SaturationTracker::new(Program::num_sites(&program));
    let mut ctx = ExecCtx::observe();
    program.execute(&[5.0], &mut ctx);
    tracker.record_trace(ctx.trace());
    // The trace [0T, 1F] teaches the tracker that site 1 follows 0T. 0T is
    // covered but its descendant 1T (x > 10) is not, so it is not saturated.
    assert!(!tracker.is_saturated(coverme_runtime::BranchId::true_of(0)));
}

#[test]
fn parallel_campaign_over_fdlibm_matches_sequential_searches() {
    // A campaign over a slice of the suite must produce, per function, the
    // same search a standalone CoverMe run with the campaign-derived seed
    // produces — parallelism must not change results.
    let inventory: Vec<_> = ["tanh", "cbrt", "log10", "sin"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect();
    let base = CoverMeConfig::default().with_n_start(40).with_seed(17);
    let report =
        Campaign::new(CampaignConfig::new().with_base(base).with_workers(2)).run(&inventory);

    assert_eq!(report.completed(), inventory.len());
    let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
    // `by_name` accepts the short alias; the report carries the table name.
    assert_eq!(names, ["tanh", "cbrt", "ieee754_log10", "sin"]);

    // Re-running the campaign reproduces every generated input.
    let base = CoverMeConfig::default().with_n_start(40).with_seed(17);
    let again =
        Campaign::new(CampaignConfig::new().with_base(base).with_workers(4)).run(&inventory);
    for (a, b) in report.results.iter().zip(&again.results) {
        let (a, b) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
        assert_eq!(
            a.inputs, b.inputs,
            "{} diverged across worker counts",
            a.program
        );
        assert_eq!(a.coverage.covered_count(), b.coverage.covered_count());
    }

    // The aggregate is consistent with the per-function reports.
    assert!(report.suite_branch_coverage_percent() > 0.0);
    assert!(report.suite_branch_coverage_percent() <= 100.0);
}

#[test]
fn sharded_campaign_is_deterministic_and_loses_no_coverage() {
    // The two-level (functions × shards) schedule must behave like the
    // unsharded campaign, just spread over more work units: deterministic at
    // any worker count, and never covering fewer branches than shards = 1.
    let inventory: Vec<_> = ["tanh", "pow", "log10"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect();
    // 64 starting points keep 16 per shard at 4 shards — the floor below
    // which `effective_shards` would clamp the split.
    let base = CoverMeConfig::default().with_n_start(64).with_seed(17);

    let unsharded = Campaign::new(
        CampaignConfig::new()
            .with_base(base.clone())
            .with_workers(2),
    )
    .run(&inventory);
    let sharded = Campaign::new(
        CampaignConfig::new()
            .with_base(base.clone().with_shards(4))
            .with_workers(2),
    )
    .run(&inventory);
    let again = Campaign::new(
        CampaignConfig::new()
            .with_base(base.with_shards(4))
            .with_workers(5),
    )
    .run(&inventory);

    for ((a, b), c) in unsharded
        .results
        .iter()
        .zip(&sharded.results)
        .zip(&again.results)
    {
        let a = a.report.as_ref().unwrap();
        let b = b.report.as_ref().unwrap();
        let c = c.report.as_ref().unwrap();
        assert!(
            b.coverage.covered_count() >= a.coverage.covered_count(),
            "{}: sharding lost coverage ({} < {})",
            a.program,
            b.coverage.covered_count(),
            a.coverage.covered_count()
        );
        assert_eq!(
            b.inputs, c.inputs,
            "{} diverged across worker counts",
            b.program
        );
        assert_eq!(b.coverage.covered_count(), c.coverage.covered_count());
    }
    assert_eq!(sharded.shards, 4);
    assert!(sharded.results.iter().all(|r| r.shards_run == 4));

    // The merged inputs replay to the merged coverage, sharded or not.
    for result in &sharded.results {
        let report = result.report.as_ref().unwrap();
        let program = by_name(&result.name).unwrap();
        let mut check = coverme_runtime::CoverageMap::new(Program::num_sites(&program));
        for input in &report.inputs {
            let mut ctx = ExecCtx::observe();
            program.execute(input, &mut ctx);
            check.record(&ctx);
        }
        assert_eq!(check.covered_count(), report.coverage.covered_count());
    }
}

#[test]
fn the_whole_fdlibm_suite_is_executable_under_every_tester_interface() {
    for b in coverme_fdlibm::all() {
        let input = vec![0.5; b.arity];
        let mut ctx = ExecCtx::observe();
        b.execute(&input, &mut ctx);
        assert!(ctx.trace().len() <= 10_000, "{} trace too long", b.name);
    }
}
