//! Shared harness utilities for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` prints one table or figure of the evaluation
//! section; this library holds the code they share: running CoverMe and the
//! three baselines on a benchmark with comparable budgets, and formatting
//! rows.
//!
//! Budgets: the paper runs CoverMe with `n_start = 500`, then gives Rand and
//! AFL ten times CoverMe's wall-clock time, and lets Austin run to its own
//! termination. Re-running with those budgets takes hours; the harnesses
//! default to scaled-down budgets controlled by [`HarnessBudget`] (and the
//! `COVERME_FULL` environment variable switches to the paper's settings) so
//! that the *shape* of the comparison is reproduced quickly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use coverme::{Campaign, CampaignConfig, CampaignReport, CoverMe, CoverMeConfig, TestReport};
use coverme_baselines::{
    AflConfig, AflFuzzer, AustinConfig, AustinTester, BaselineReport, RandomConfig, RandomStrategy,
    RandomTester,
};
use coverme_fdlibm::Benchmark;

/// Budget preset for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessBudget {
    /// Quick preset: finishes the whole suite in a few minutes.
    Quick,
    /// The paper's settings (`n_start = 500`, 10× time for Rand/AFL).
    Full,
}

impl HarnessBudget {
    /// Reads the preset from the `COVERME_FULL` environment variable.
    pub fn from_env() -> HarnessBudget {
        if std::env::var_os("COVERME_FULL").is_some() {
            HarnessBudget::Full
        } else {
            HarnessBudget::Quick
        }
    }

    /// `n_start` for CoverMe under this preset.
    pub fn n_start(&self) -> usize {
        match self {
            HarnessBudget::Quick => 60,
            HarnessBudget::Full => 500,
        }
    }

    /// Execution budget for Rand/AFL when CoverMe took `coverme_time`.
    pub fn baseline_budget(&self, coverme_time: Duration) -> Duration {
        match self {
            // Ten times CoverMe's time, clamped so a slow benchmark cannot
            // stall the quick preset.
            HarnessBudget::Quick => (coverme_time * 10).min(Duration::from_millis(1500)),
            HarnessBudget::Full => coverme_time * 10,
        }
    }

    /// Execution cap for the baselines under this preset.
    pub fn baseline_max_executions(&self) -> usize {
        match self {
            HarnessBudget::Quick => 60_000,
            HarnessBudget::Full => 5_000_000,
        }
    }
}

/// Per-function shard count for the campaign harnesses, from the
/// `COVERME_SHARDS` environment variable (default 1 = unsharded). The
/// sharded schedule is deterministic per shard count, so table numbers are
/// reproducible for a fixed `COVERME_SHARDS` at any worker count.
pub fn shards_from_env() -> usize {
    std::env::var("COVERME_SHARDS")
        .ok()
        .and_then(|value| value.parse().ok())
        .filter(|&shards| shards > 0)
        .unwrap_or(1)
}

/// One row of the CoverMe-vs-baselines comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// The benchmark this row describes.
    pub benchmark: Benchmark,
    /// CoverMe's report.
    pub coverme: TestReport,
    /// Rand's report, if run.
    pub rand: Option<BaselineReport>,
    /// AFL's report, if run.
    pub afl: Option<BaselineReport>,
    /// Austin's report, if run.
    pub austin: Option<BaselineReport>,
}

/// The paper's CoverMe configuration (`n_iter = 5`, `LM = powell`), scaled
/// by the budget preset. Shared by the sequential and campaign entry points
/// so every table column runs the same search.
pub fn paper_config(budget: HarnessBudget, seed: u64) -> CoverMeConfig {
    CoverMeConfig::default()
        .with_n_start(budget.n_start())
        .with_n_iter(5)
        .with_seed(seed)
}

/// Runs CoverMe on one benchmark with the paper's configuration (scaled by
/// the budget preset).
pub fn run_coverme(benchmark: &Benchmark, budget: HarnessBudget, seed: u64) -> TestReport {
    CoverMe::new(paper_config(budget, seed)).run(benchmark)
}

/// Runs the CoverMe phase of a table as a parallel campaign: one search per
/// benchmark, fanned across worker threads with per-function seeds derived
/// from `seed`, and each function's `n_start` budget split across `shards`
/// shard units of the campaign's two-level schedule (`shards <= 1` is the
/// unsharded paper setup). The report's results are in `benchmarks` order,
/// so table harnesses can zip them back against the benchmark list and
/// hand each function's wall-clock time to the baseline budgets.
///
/// Caveat on those times: per-function `wall_time` is measured inside a
/// worker while sibling searches run on other cores. The campaign never
/// runs more workers than the machine's available parallelism, so each
/// search keeps a core to itself and the residual inflation (shared cache
/// and memory bandwidth) is small for this compute-bound workload — but
/// baseline budgets derived from these times are not identical to ones
/// measured sequentially, and under `COVERME_FULL=1` (no clamp) table
/// numbers can shift slightly with core count.
pub fn run_campaign(
    benchmarks: &[Benchmark],
    budget: HarnessBudget,
    seed: u64,
    shards: usize,
) -> CampaignReport {
    let base = paper_config(budget, seed).with_shards(shards);
    Campaign::new(CampaignConfig::new().with_base(base)).run(benchmarks)
}

/// Runs the Rand baseline with a budget derived from CoverMe's time.
pub fn run_rand(
    benchmark: &Benchmark,
    budget: HarnessBudget,
    coverme_time: Duration,
    seed: u64,
) -> BaselineReport {
    RandomTester::new(RandomConfig {
        strategy: RandomStrategy::UniformBox { lo: -1e6, hi: 1e6 },
        max_executions: budget.baseline_max_executions(),
        time_budget: Some(budget.baseline_budget(coverme_time)),
        seed,
    })
    .run(benchmark)
}

/// Runs the AFL-style baseline with a budget derived from CoverMe's time.
pub fn run_afl(
    benchmark: &Benchmark,
    budget: HarnessBudget,
    coverme_time: Duration,
    seed: u64,
) -> BaselineReport {
    AflFuzzer::new(AflConfig {
        max_executions: budget.baseline_max_executions(),
        time_budget: Some(budget.baseline_budget(coverme_time)),
        havoc_stack: 6,
        seed,
    })
    .run(benchmark)
}

/// Runs the Austin-style baseline (it terminates on its own, as in the
/// paper, but still respects a generous cap).
pub fn run_austin(benchmark: &Benchmark, budget: HarnessBudget, seed: u64) -> BaselineReport {
    AustinTester::new(AustinConfig {
        max_executions: budget.baseline_max_executions(),
        per_target_budget: match budget {
            HarnessBudget::Quick => 1_500,
            HarnessBudget::Full => 20_000,
        },
        restarts: 4,
        time_budget: Some(match budget {
            HarnessBudget::Quick => Duration::from_millis(1500),
            HarnessBudget::Full => Duration::from_secs(600),
        }),
        seed,
    })
    .run(benchmark)
}

/// The benchmarks a table binary's name operands select, all 40 when there
/// are none (see [`coverme_fdlibm::suite::select`]). An unknown name is a
/// usage error: the message on stderr, exit 2.
pub fn select_benchmarks(names: &[String]) -> Vec<Benchmark> {
    coverme_fdlibm::suite::select(names).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    })
}

/// Formats a percentage the way the paper's tables do (one decimal).
pub fn pct(value: f64) -> String {
    format!("{value:.1}")
}

/// Computes the mean of an iterator of f64 values (0 if empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_fdlibm::by_name;

    #[test]
    fn budgets_scale_sensibly() {
        assert!(HarnessBudget::Quick.n_start() < HarnessBudget::Full.n_start());
        let quick = HarnessBudget::Quick.baseline_budget(Duration::from_secs(10));
        assert!(quick <= Duration::from_secs(2));
        let full = HarnessBudget::Full.baseline_budget(Duration::from_secs(10));
        assert_eq!(full, Duration::from_secs(100));
    }

    #[test]
    fn mean_and_pct_helpers() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
        assert_eq!(pct(90.82), "90.8");
    }

    #[test]
    fn shards_env_parses_and_defaults_to_unsharded() {
        // Control the variable instead of assuming a clean environment; no
        // other test reads it.
        std::env::set_var("COVERME_SHARDS", "4");
        assert_eq!(shards_from_env(), 4);
        std::env::set_var("COVERME_SHARDS", "0");
        assert_eq!(shards_from_env(), 1, "0 falls back to unsharded");
        std::env::set_var("COVERME_SHARDS", "not-a-number");
        assert_eq!(shards_from_env(), 1);
        std::env::remove_var("COVERME_SHARDS");
        assert_eq!(shards_from_env(), 1);
    }

    #[test]
    fn sharded_campaign_keeps_tanh_coverage() {
        let benchmarks = vec![by_name("tanh").unwrap()];
        let unsharded = run_campaign(&benchmarks, HarnessBudget::Quick, 3, 1);
        let sharded = run_campaign(&benchmarks, HarnessBudget::Quick, 3, 4);
        let a = unsharded.results[0].report.as_ref().unwrap();
        let b = sharded.results[0].report.as_ref().unwrap();
        assert!(
            b.coverage.covered_count() >= a.coverage.covered_count(),
            "4 shards covered {} < {}",
            b.coverage.covered_count(),
            a.coverage.covered_count()
        );
    }

    #[test]
    fn coverme_beats_rand_on_tanh() {
        let tanh = by_name("tanh").unwrap();
        let coverme = run_coverme(&tanh, HarnessBudget::Quick, 1);
        let rand = run_rand(&tanh, HarnessBudget::Quick, coverme.wall_time, 1);
        assert!(
            coverme.branch_coverage_percent() >= rand.branch_coverage_percent(),
            "CoverMe {:.1}% vs Rand {:.1}%",
            coverme.branch_coverage_percent(),
            rand.branch_coverage_percent()
        );
        // Under the quick budget (and a debug build) CoverMe may stop short
        // of the full-budget figure; it must still clear a meaningful bar.
        assert!(
            coverme.branch_coverage_percent() >= 60.0,
            "only {:.1}%",
            coverme.branch_coverage_percent()
        );
    }
}
