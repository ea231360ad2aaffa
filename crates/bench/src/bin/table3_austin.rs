//! Regenerates Table 3: CoverMe vs Austin (time, branch coverage, speedup).
//! Set `COVERME_FULL=1` for the paper's full budgets.

use coverme_bench::{mean, pct, run_austin, run_coverme, select_benchmarks, HarnessBudget};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = HarnessBudget::from_env();
    let benchmarks = select_benchmarks(&args);

    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>11} {:>9} {:>12}",
        "Function", "Austin(s)", "CoverMe(s)", "Austin(%)", "CoverMe(%)", "Speedup", "Coverage(+%)"
    );
    let mut austin_pcts = Vec::new();
    let mut coverme_pcts = Vec::new();
    let mut speedups = Vec::new();
    for b in &benchmarks {
        let coverme = run_coverme(b, budget, 77);
        let austin = run_austin(b, budget, 77);
        let cm = coverme.branch_coverage_percent();
        let au = austin.branch_coverage_percent();
        let speedup = austin.wall_time.as_secs_f64() / coverme.wall_time.as_secs_f64().max(1e-9);
        austin_pcts.push(au);
        coverme_pcts.push(cm);
        speedups.push(speedup);
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>10} {:>11} {:>9.1} {:>12}",
            b.name,
            austin.wall_time.as_secs_f64(),
            coverme.wall_time.as_secs_f64(),
            pct(au),
            pct(cm),
            speedup,
            pct(cm - au)
        );
    }
    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>11} {:>9.1} {:>12}",
        "MEAN",
        "",
        "",
        pct(mean(austin_pcts.iter().copied())),
        pct(mean(coverme_pcts.iter().copied())),
        mean(speedups.iter().copied()),
        pct(mean(coverme_pcts.iter().copied()) - mean(austin_pcts.iter().copied()))
    );
}
