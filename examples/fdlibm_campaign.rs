//! Run a parallel CoverMe campaign over the Fdlibm benchmark suite — the
//! workload the paper's introduction motivates (s_tanh.c is its running
//! example) — and print a per-function coverage table plus the suite
//! aggregate (a mini version of Table 2).
//!
//! The campaign schedules one task per (function, shard) pair: with
//! `--shards 1` (the default) that is one CoverMe search per function; with
//! `--shards N` each function's `n_start` budget additionally splits across
//! N shard units whose saturation snapshots are merged, so a heavy trailing
//! function (`pow`, 114 branches) fans out over idle workers instead of
//! serializing on one thread. Searches are deterministic per
//! `(seed, shards, budget)`: the same seed produces the same table
//! regardless of the worker count. `--stream`
//! prints each function's row the moment it finishes instead of after the
//! whole suite.
//!
//! ```text
//! cargo run --release --example fdlibm_campaign [options] [names...]
//!   --workers N          worker threads (default: auto, at least 2)
//!   --shards N           shards per function (default 1 = unsharded)
//!   --stream             print rows as functions finish (streaming)
//!   --compare-shards N   run unsharded then with N shards and print the
//!                        per-function wall-clock speedup (asserted only
//!                        under COVERME_ASSERT_SPEEDUP=1)
//!   --time-budget SECS   wall-clock budget in seconds; unstarted
//!                        functions are skipped
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
//!                        With --compare-shards the sharded run is written
//!   names...             benchmark names (default: the full 40-function suite)
//! ```
//!
//! Unknown flags and flags missing their value abort with a usage message
//! (exit 2) rather than being misread as benchmark names.

use coverme::{Campaign, CampaignConfig, CampaignEvent, CampaignReport};
use coverme_fdlibm::{all, by_name};
use coverme_repro::args::{write_json_atomic, ArgParser, CommonOptions};

const USAGE: &str = "\
usage: cargo run --release --example fdlibm_campaign -- [options] [names...]
  --workers N          worker threads (default: auto, at least 2)
  --shards N           shards per function (default 1 = unsharded)
  --stream             print rows as functions finish (streaming)
  --compare-shards N   run unsharded then with N shards and print the
                       per-function wall-clock speedup (asserted only
                       under COVERME_ASSERT_SPEEDUP=1)
  --time-budget SECS   wall-clock budget in seconds; unstarted functions
                       are skipped
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
    let mut names: Vec<String> = Vec::new();

    while let Some(arg) = parser.next_arg() {
        if parser.accept_common(&arg, &mut options) {
            continue;
        }
        match arg.as_str() {
            "--compare-shards" => compare_shards = Some(parser.parsed("--compare-shards")),
            "--all" => {}
            // Anything else dash-prefixed is a flag typo, not a function
            // name; reject it (exit 2) instead of running a surprise
            // campaign.
            flag if flag.starts_with('-') => parser.usage_error(&format!("unknown flag {flag}")),
            name => names.push(name.to_string()),
        }
    }
    if options.stream && compare_shards.is_some() {
        parser.usage_error("--stream applies to single-run mode only");
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
        println!(
            "campaign: {} functions, {} workers, {} shard(s)/function, \
             n_start = {}, seed = {}",
            inventory.len(),
            effective,
            base.shards.max(1),
            options.n_start,
            options.seed,
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

    match compare_shards {
        None => {
            let report = run(options.clone(), options.stream);
            if !options.stream {
                print!("{report}");
            }
            if let Some(path) = &options.json_path {
                write_json_atomic(path, &report.to_json());
            }
        }
        Some(sharded) => {
            let baseline = run(
                CommonOptions {
                    shards: 1,
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
                // Monotonicity only holds for full-budget runs: a deadline
                // can cut the two runs at different points.
                if options.time_budget.is_none() {
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
    }
}
