//! Regenerates Table 5: line coverage (block-coverage proxy for the native
//! ports) for CoverMe vs Rand vs AFL. Set `COVERME_FULL=1` for the paper's
//! full budgets and `COVERME_SHARDS=N` to shard each function's search.

use coverme_bench::{mean, pct, run_afl, run_campaign, run_rand, shards_from_env, HarnessBudget};
use coverme_fdlibm::{all, by_name};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = HarnessBudget::from_env();
    let benchmarks = if args.is_empty() {
        all()
    } else {
        args.iter().filter_map(|name| by_name(name)).collect()
    };

    println!(
        "{:<22} {:>7} {:>10} {:>9} {:>12}",
        "Function", "#Lines", "Rand(%)", "AFL(%)", "CoverMe(%)"
    );
    let (mut r, mut a, mut c) = (Vec::new(), Vec::new(), Vec::new());
    // CoverMe runs as one parallel campaign; baselines follow per benchmark
    // with budgets derived from each function's CoverMe time.
    let campaign = run_campaign(&benchmarks, budget, 5, shards_from_env());
    for (b, result) in benchmarks.iter().zip(&campaign.results) {
        let coverme = result.report.as_ref().expect("campaign has no time budget");
        let rand = run_rand(b, budget, coverme.wall_time, 5);
        let afl = run_afl(b, budget, coverme.wall_time, 5);
        let cm = coverme.coverage.block_coverage_percent();
        let rd = rand.block_coverage_percent();
        let af = afl.block_coverage_percent();
        r.push(rd);
        a.push(af);
        c.push(cm);
        println!(
            "{:<22} {:>7} {:>10} {:>9} {:>12}",
            b.name,
            b.paper_lines,
            pct(rd),
            pct(af),
            pct(cm)
        );
    }
    println!(
        "{:<22} {:>7} {:>10} {:>9} {:>12}",
        "MEAN",
        "",
        pct(mean(r)),
        pct(mean(a)),
        pct(mean(c))
    );
    println!(
        "suite block coverage (CoverMe): {} on {} workers in {:.2?}",
        pct(campaign.suite_block_coverage_percent()),
        campaign.workers,
        campaign.wall_time
    );
}
