//! Run a parallel CoverMe campaign over the Fdlibm benchmark suite — the
//! workload the paper's introduction motivates (s_tanh.c is its running
//! example) — and print a per-function coverage table plus the suite
//! aggregate (a mini version of Table 2).
//!
//! The campaign schedules epoch tasks over (function, shard) pairs: with
//! `--shards 1` (the default) that is one CoverMe search per function; with
//! `--shards N` each function's `n_start` budget additionally splits across
//! N shard units whose saturation snapshots are merged, so a heavy trailing
//! function (`pow`, 114 branches) fans out over idle workers instead of
//! serializing on one thread. `--sync-epochs E` makes the shards of each
//! function rendezvous at E deterministic barriers and exchange saturation
//! deltas, so later rounds stop chasing branches a sibling already covered.
//! Searches are deterministic per `(seed, shards, sync_epochs)`: the same
//! seed produces the same table regardless of the worker count. `--stream`
//! prints each function's row the moment it finishes instead of after the
//! whole suite.
//!
//! ```text
//! cargo run --release --example fdlibm_campaign [options] [names...]
//!   --workers N          worker threads (default: auto, at least 2)
//!   --shards N           shards per function (default 1 = unsharded)
//!   --sync-epochs E      cross-shard saturation sync epochs (default 0 = off)
//!   --stream             print rows as functions finish (streaming)
//!   --compare-shards N   run unsharded then with N shards and print the
//!                        per-function wall-clock speedup (asserted only
//!                        under COVERME_ASSERT_SPEEDUP=1)
//!   --compare-sync E     run sync-off then sync-on with E epochs at the
//!                        same shard count and print the per-function
//!                        evaluation savings
//!   --compare-budget N   run the fixed scheduler then the bandit at a
//!                        global budget of N evaluations and print coverage
//!                        and evals side by side
//!   --time-budget SECS   wall-clock budget; unstarted functions are skipped
//!   --budget N           global evaluation budget for --scheduler bandit
//!   --scheduler POLICY   campaign eval allocation: fixed (default), bandit
//!   --n-start N          starting points per function (default 80)
//!   --seed S             campaign master seed (default 42)
//!   --local METHOD       local minimizer: powell (default), nm, compass, none
//!   --backend MODE       execution backend: auto (default), interp
//!                        (native fdlibm ports have no tape, so auto runs
//!                        interp here — the knob exists for parity with the
//!                        coverme CLI, whose flags this example shares via
//!                        coverme_repro::args)
//!   --json PATH          also write the CampaignReport as JSON to PATH
//!                        (per-function coverage, evals, cache hits and
//!                        evals/sec — the artifact the nightly CI job and
//!                        the BENCH_campaign.json perf snapshot store);
//!                        written atomically (tmp file + rename) so an
//!                        interrupted run cannot leave truncated JSON.
//!                        With --compare-shards the sharded run is written;
//!                        with --compare-sync the sync-on report is written
//!                        with sync-off eval columns alongside
//!   names...             benchmark names (default: the full 40-function suite)
//! ```
//!
//! Unknown flags and flags missing their value abort with a usage message
//! (exit 2) rather than being misread as benchmark names.

use coverme::{Campaign, CampaignConfig, CampaignEvent, CampaignReport, SchedulerPolicy};
use coverme_fdlibm::{all, by_name};
use coverme_repro::args::{write_json_atomic, ArgParser, CommonOptions};

const USAGE: &str = "\
usage: cargo run --release --example fdlibm_campaign -- [options] [names...]
  --workers N          worker threads (default: auto, at least 2)
  --shards N           shards per function (default 1 = unsharded)
  --sync-epochs E      cross-shard saturation sync epochs (default 0 = off)
  --stream             print rows as functions finish (streaming)
  --compare-shards N   run unsharded then with N shards and print the
                       per-function wall-clock speedup (asserted only
                       under COVERME_ASSERT_SPEEDUP=1)
  --compare-sync E     run sync-off then sync-on with E epochs and print
                       the per-function evaluation savings
  --compare-budget N   run the fixed scheduler then the bandit at a global
                       budget of N evaluations, side by side
  --time-budget SECS   wall-clock budget; unstarted functions are skipped
  --budget N           global evaluation budget for --scheduler bandit
  --scheduler POLICY   campaign eval allocation: fixed (default), bandit
  --infeasible POLICY  infeasibility blame: last (default), all, off
  --n-start N          starting points per function (default 80)
  --seed S             campaign master seed (default 42)
  --local METHOD       local minimizer: powell (default), nm, compass, none
  --backend MODE       execution backend: auto (default), interp
  --json PATH          also write the CampaignReport as JSON to PATH
                       (atomic: tmp file + rename)
  --help               print this message
  names...             benchmark names (default: the full 40-function suite)";

fn main() {
    let mut parser = ArgParser::new("fdlibm_campaign", USAGE, std::env::args().skip(1));
    let mut options = CommonOptions::default();
    let mut compare_shards: Option<usize> = None;
    let mut compare_sync: Option<usize> = None;
    let mut compare_budget: Option<usize> = None;
    let mut names: Vec<String> = Vec::new();

    while let Some(arg) = parser.next_arg() {
        if parser.accept_common(&arg, &mut options) {
            continue;
        }
        match arg.as_str() {
            "--compare-shards" => compare_shards = Some(parser.parsed("--compare-shards")),
            "--compare-sync" => compare_sync = Some(parser.parsed("--compare-sync")),
            "--compare-budget" => compare_budget = Some(parser.parsed("--compare-budget")),
            "--all" => {}
            // Anything else dash-prefixed is a flag typo, not a function
            // name; reject it (exit 2) instead of running a surprise
            // campaign.
            flag if flag.starts_with('-') => parser.usage_error(&format!("unknown flag {flag}")),
            name => names.push(name.to_string()),
        }
    }
    let compares = [
        compare_shards.is_some(),
        compare_sync.is_some(),
        compare_budget.is_some(),
    ];
    if compares.iter().filter(|&&set| set).count() > 1 {
        parser.usage_error(
            "--compare-shards, --compare-sync and --compare-budget are mutually exclusive",
        );
    }
    if options.stream && compares.contains(&true) {
        parser.usage_error("--stream applies to single-run mode only");
    }
    if options.scheduler == SchedulerPolicy::Bandit
        && options.budget_evals.is_none()
        && compare_budget.is_none()
    {
        parser.usage_error("--scheduler bandit needs --budget N (the pool it allocates)");
    }

    let inventory = if names.is_empty() {
        all()
    } else {
        names
            .iter()
            .map(|name| {
                by_name(name)
                    .unwrap_or_else(|| parser.usage_error(&format!("unknown benchmark {name}")))
            })
            .collect()
    };

    let run = |base: CommonOptions, stream: bool| -> CampaignReport {
        let mut config = CampaignConfig::new()
            .with_base(base.search_config())
            .with_workers(options.workers);
        if let Some(budget) = options.time_budget {
            config = config.with_time_budget(budget);
        }
        let effective = config.effective_workers(inventory.len());
        let effective_sync = config.base.effective_sync_epochs();
        println!(
            "campaign: {} functions, {} workers, {} shard(s)/function, \
             {} sync epoch(s), n_start = {}, seed = {}, scheduler = {}{}",
            inventory.len(),
            effective,
            base.shards.max(1),
            effective_sync,
            options.n_start,
            options.seed,
            base.scheduler.label(),
            match base.budget_evals {
                Some(pool) => format!(", budget = {pool}"),
                None => String::new(),
            },
        );
        let campaign = Campaign::new(config);
        if stream {
            println!("{}", CampaignReport::table_header());
            let report = campaign.run_with(&inventory, |event| {
                let CampaignEvent::FunctionFinished { result, .. } = event;
                println!("{}", result.table_row());
            });
            println!("{}", report.summary());
            report
        } else {
            campaign.run(&inventory)
        }
    };

    match (compare_shards, compare_sync, compare_budget) {
        (None, None, None) => {
            let report = run(options.clone(), options.stream);
            if !options.stream {
                print!("{report}");
            }
            if let Some(path) = &options.json_path {
                write_json_atomic(path, &report.to_json());
            }
        }
        (None, Some(epochs), None) => {
            // Feedback-recovery measurement: sync-off vs sync-on at the
            // same shard count and budget. The JSON artifact carries the
            // sync-on report with sync-off eval columns alongside, so the
            // nightly run tracks the evaluation savings over time.
            let blind = run(
                CommonOptions {
                    sync_epochs: 0,
                    ..options.clone()
                },
                false,
            );
            print!("{blind}");
            let synced = run(
                CommonOptions {
                    sync_epochs: epochs,
                    ..options.clone()
                },
                false,
            );
            print!("{synced}");
            println!(
                "sync savings (0 -> {epochs} epochs, {} shards):",
                options.shards
            );
            println!(
                "{:<22} {:>12} {:>12} {:>9} {:>10}",
                "function", "evals off", "evals on", "saved", "coverage"
            );
            for (off, on) in blind.results.iter().zip(&synced.results) {
                let (Some(off), Some(on)) = (off.report.as_ref(), on.report.as_ref()) else {
                    continue;
                };
                let saved = if off.evaluations > 0 {
                    100.0 * (off.evaluations as f64 - on.evaluations as f64)
                        / off.evaluations as f64
                } else {
                    0.0
                };
                let coverage = if on.coverage.covered_count() == off.coverage.covered_count() {
                    format!("{:>9.1}%", on.branch_coverage_percent())
                } else {
                    format!(
                        "{:>4} vs {:<4}",
                        on.coverage.covered_count(),
                        off.coverage.covered_count()
                    )
                };
                println!(
                    "{:<22} {:>12} {:>12} {:>8.1}% {:>10}",
                    on.program, off.evaluations, on.evaluations, saved, coverage
                );
            }
            println!(
                "{:<22} {:>12} {:>12} {:>8.1}%",
                "suite",
                blind.total_evaluations(),
                synced.total_evaluations(),
                100.0 * (blind.total_evaluations() as f64 - synced.total_evaluations() as f64)
                    / blind.total_evaluations().max(1) as f64
            );
            if let Some(path) = &options.json_path {
                write_json_atomic(path, &synced.to_json_with_sync_baseline(&blind));
            }
        }
        (Some(sharded), None, None) => {
            let baseline = run(
                CommonOptions {
                    shards: 1,
                    sync_epochs: 0,
                    ..options.clone()
                },
                false,
            );
            print!("{baseline}");
            let report = run(
                CommonOptions {
                    shards: sharded,
                    ..options.clone()
                },
                false,
            );
            print!("{report}");
            if let Some(path) = &options.json_path {
                write_json_atomic(path, &report.to_json());
            }
            println!("shard speedup (1 -> {sharded} shards):");
            println!(
                "{:<22} {:>9} {:>9} {:>9} {:>10}",
                "function", "t1(s)", "tN(s)", "speedup", "coverage"
            );
            for (a, b) in baseline.results.iter().zip(&report.results) {
                let (Some(a), Some(b)) = (a.report.as_ref(), b.report.as_ref()) else {
                    continue;
                };
                let t1 = a.wall_time.as_secs_f64();
                let tn = b.wall_time.as_secs_f64();
                println!(
                    "{:<22} {:>9.3} {:>9.3} {:>8.2}x {:>9.1}%",
                    b.program,
                    t1,
                    tn,
                    if tn > 0.0 { t1 / tn } else { f64::INFINITY },
                    b.branch_coverage_percent(),
                );
                // Monotonicity only holds for full-budget, sync-off runs: a
                // deadline can cut the two runs at different points, and a
                // synced shard minimizes against a larger snapshot than the
                // blind run's, so its trajectory is not comparable.
                if options.time_budget.is_none() && options.sync_epochs == 0 {
                    assert!(
                        b.coverage.covered_count() >= a.coverage.covered_count(),
                        "{}: sharding lost coverage ({} < {})",
                        b.program,
                        b.coverage.covered_count(),
                        a.coverage.covered_count()
                    );
                }
            }
            let t1 = baseline.wall_time.as_secs_f64();
            let tn = report.wall_time.as_secs_f64();
            let speedup = if tn > 0.0 { t1 / tn } else { f64::INFINITY };
            println!(
                "{:<22} {:>9.3} {:>9.3} {:>8.2}x",
                "campaign", t1, tn, speedup
            );
            // The wall-clock speedup depends on how loaded the machine is,
            // so it is printed always but asserted only when the caller
            // opts in (CI sets COVERME_ASSERT_SPEEDUP=1 on a step that has
            // the runner to itself).
            if std::env::var_os("COVERME_ASSERT_SPEEDUP").is_some_and(|v| v == "1") {
                assert!(
                    speedup > 1.0,
                    "sharding {sharded} ways did not speed the campaign up \
                     ({t1:.3}s -> {tn:.3}s)"
                );
            }
        }
        (None, None, Some(pool)) => {
            // Budget-economics measurement: the fixed scheduler's full
            // n_start schedule vs the bandit allocating a global pool of
            // `pool` evaluations, same seed and options otherwise. The JSON
            // artifact carries the bandit report with fixed-scheduler
            // columns alongside (`evals_fixed`, `covered_branches_fixed`),
            // so the nightly run tracks the budget savings over time.
            let fixed = run(
                CommonOptions {
                    scheduler: SchedulerPolicy::Fixed,
                    budget_evals: None,
                    ..options.clone()
                },
                false,
            );
            print!("{fixed}");
            let bandit = run(
                CommonOptions {
                    scheduler: SchedulerPolicy::Bandit,
                    budget_evals: Some(pool),
                    ..options.clone()
                },
                false,
            );
            print!("{bandit}");
            println!("budget economics (fixed -> bandit at {pool} evals):");
            println!(
                "{:<22} {:>12} {:>12} {:>9} {:>12}",
                "function", "evals fixed", "evals bandit", "saved", "coverage"
            );
            for (f, b) in fixed.results.iter().zip(&bandit.results) {
                let (Some(f), Some(b)) = (f.report.as_ref(), b.report.as_ref()) else {
                    continue;
                };
                let saved = if f.evaluations > 0 {
                    100.0 * (f.evaluations as f64 - b.evaluations as f64) / f.evaluations as f64
                } else {
                    0.0
                };
                let coverage = if b.coverage.covered_count() == f.coverage.covered_count() {
                    format!("{:>11.1}%", b.branch_coverage_percent())
                } else {
                    format!(
                        "{:>5} vs {:<5}",
                        b.coverage.covered_count(),
                        f.coverage.covered_count()
                    )
                };
                println!(
                    "{:<22} {:>12} {:>12} {:>8.1}% {:>12}",
                    b.program, f.evaluations, b.evaluations, saved, coverage
                );
            }
            println!(
                "{:<22} {:>12} {:>12} {:>8.1}%  ({:.1}% vs {:.1}% coverage)",
                "suite",
                fixed.total_evaluations(),
                bandit.total_evaluations(),
                100.0 * (fixed.total_evaluations() as f64 - bandit.total_evaluations() as f64)
                    / fixed.total_evaluations().max(1) as f64,
                bandit.suite_branch_coverage_percent(),
                fixed.suite_branch_coverage_percent(),
            );
            if let Some(path) = &options.json_path {
                write_json_atomic(path, &bandit.to_json_with_budget_baseline(&fixed));
            }
        }
        _ => unreachable!("rejected above"),
    }
}
