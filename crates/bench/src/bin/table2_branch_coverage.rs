//! Regenerates Table 2 (and the Fig. 5 series): CoverMe vs Rand vs AFL
//! branch coverage on the 40 Fdlibm benchmark functions.
//!
//! Usage: `table2_branch_coverage [--format table|series] [benchmark ...]`
//! Set `COVERME_FULL=1` for the paper's full budgets, and `COVERME_SHARDS=N`
//! to split each function's `n_start` budget across N shard units of the
//! campaign schedule (deterministic per shard count).

use coverme_bench::{
    mean, pct, run_afl, run_campaign, run_rand, select_benchmarks, shards_from_env, HarnessBudget,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let series = args.iter().any(|a| a == "--format") && args.iter().any(|a| a == "series");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.as_str() != "table" && a.as_str() != "series")
        .cloned()
        .collect();
    let budget = HarnessBudget::from_env();

    let benchmarks = select_benchmarks(&selected);

    if !series {
        println!(
            "{:<22} {:>9} {:>10} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "Function",
            "#Branches",
            "Time(s)",
            "Rand(%)",
            "AFL(%)",
            "CoverMe(%)",
            "vs Rand",
            "vs AFL"
        );
    }
    let mut rand_pcts = Vec::new();
    let mut afl_pcts = Vec::new();
    let mut coverme_pcts = Vec::new();
    let mut times = Vec::new();

    // The CoverMe column runs as one parallel campaign (per-function seeds,
    // results in benchmark order); the baselines then run per benchmark with
    // their budgets derived from each function's CoverMe time, as in the
    // paper.
    let campaign = run_campaign(&benchmarks, budget, 2024, shards_from_env());
    for (b, result) in benchmarks.iter().zip(&campaign.results) {
        let coverme = result.report.as_ref().expect("campaign has no time budget");
        let rand = run_rand(b, budget, coverme.wall_time, 2024);
        let afl = run_afl(b, budget, coverme.wall_time, 2024);
        let cm = coverme.branch_coverage_percent();
        let rd = rand.branch_coverage_percent();
        let af = afl.branch_coverage_percent();
        rand_pcts.push(rd);
        afl_pcts.push(af);
        coverme_pcts.push(cm);
        times.push(coverme.wall_time.as_secs_f64());
        if series {
            println!("{} {} {} {}", b.name, pct(rd), pct(af), pct(cm));
        } else {
            println!(
                "{:<22} {:>9} {:>10.2} {:>9} {:>9} {:>9} {:>11} {:>11}",
                b.name,
                2 * b.sites,
                coverme.wall_time.as_secs_f64(),
                pct(rd),
                pct(af),
                pct(cm),
                pct(cm - rd),
                pct(cm - af)
            );
        }
    }
    if !series {
        println!(
            "{:<22} {:>9} {:>10.2} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "MEAN",
            "",
            mean(times.iter().copied()),
            pct(mean(rand_pcts.iter().copied())),
            pct(mean(afl_pcts.iter().copied())),
            pct(mean(coverme_pcts.iter().copied())),
            pct(mean(coverme_pcts.iter().copied()) - mean(rand_pcts.iter().copied())),
            pct(mean(coverme_pcts.iter().copied()) - mean(afl_pcts.iter().copied()))
        );
    }
}
