//! Accumulated coverage, the stand-in for Gcov in the evaluation.
//!
//! A [`CoverageMap`] aggregates the branches covered across any number of
//! executions of one program and reports the branch-coverage percentage the
//! paper's tables use. It also derives a *block coverage* figure (entry
//! block plus one block per branch arm) which the harnesses use as the
//! line-coverage proxy for natively ported benchmarks; the `coverme-fpir`
//! interpreter reports true statement coverage instead.

use crate::branch::{BranchId, BranchSet};
use crate::context::ExecCtx;

/// Accumulated branch coverage for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    num_sites: usize,
    covered: BranchSet,
    executions: usize,
}

impl CoverageMap {
    /// Creates an empty map for a program with `num_sites` conditionals.
    pub fn new(num_sites: usize) -> CoverageMap {
        CoverageMap {
            num_sites,
            covered: BranchSet::with_sites(num_sites),
            executions: 0,
        }
    }

    /// Number of conditional sites of the program.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Total number of branches (`2 ·` sites), the denominator of the
    /// branch-coverage percentage, matching what Gcov reports for a function
    /// whose conditionals are all two-way.
    pub fn total_branches(&self) -> usize {
        self.num_sites * 2
    }

    /// Number of executions recorded so far.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// Records the coverage of one finished execution context.
    ///
    /// Returns the number of branches that were covered for the first time.
    pub fn record(&mut self, ctx: &ExecCtx) -> usize {
        self.record_set(ctx.covered())
    }

    /// Records a pre-computed covered set (used when contexts are consumed).
    pub fn record_set(&mut self, covered: &BranchSet) -> usize {
        self.executions += 1;
        self.covered.union_with(covered)
    }

    /// Merges another map for the same program: unions the covered branches
    /// and sums the execution counts. Used when independent searches of one
    /// program (e.g. the shards of `coverme::shard`) are combined into one
    /// result.
    ///
    /// Returns the number of branches that were new to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two maps disagree on the number of conditional sites.
    pub fn merge_from(&mut self, other: &CoverageMap) -> usize {
        assert_eq!(
            self.num_sites, other.num_sites,
            "cannot merge coverage maps of different programs"
        );
        self.executions += other.executions;
        self.covered.union_with(&other.covered)
    }

    /// The set of covered branches.
    pub fn covered(&self) -> &BranchSet {
        &self.covered
    }

    /// Number of covered branches.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    /// Whether a specific branch has been covered.
    pub fn is_covered(&self, branch: BranchId) -> bool {
        self.covered.contains(branch)
    }

    /// Whether every branch of the program has been covered.
    pub fn is_fully_covered(&self) -> bool {
        self.covered_count() >= self.total_branches()
    }

    /// Branch coverage in percent (0–100), the figure of Tables 2 and 3.
    pub fn branch_coverage_percent(&self) -> f64 {
        if self.total_branches() == 0 {
            100.0
        } else {
            100.0 * self.covered_count() as f64 / self.total_branches() as f64
        }
    }

    /// Block coverage in percent: the entry block plus one block per branch
    /// arm. Used as the line-coverage proxy for natively ported benchmarks
    /// (Table 5): a Rust port has no C source lines to count, so every
    /// block a branch arm guards stands in for its lines.
    pub fn block_coverage_percent(&self) -> f64 {
        let total = 1 + self.total_branches();
        let covered = 1 + self.covered_count();
        100.0 * covered as f64 / total as f64
    }

    /// Iterates over the branches that have not been covered yet.
    pub fn uncovered_branches(&self) -> impl Iterator<Item = BranchId> + '_ {
        (0..self.num_sites as u32).flat_map(move |site| {
            [BranchId::true_of(site), BranchId::false_of(site)]
                .into_iter()
                .filter(|b| !self.covered.contains(*b))
        })
    }

    /// Produces a summary row for the table harnesses.
    pub fn summary(&self, program_name: &str) -> CoverageSummary {
        CoverageSummary {
            program: program_name.to_string(),
            total_branches: self.total_branches(),
            covered_branches: self.covered_count(),
            branch_percent: self.branch_coverage_percent(),
            block_percent: self.block_coverage_percent(),
            executions: self.executions,
        }
    }
}

/// A printable per-program coverage summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// Program (benchmark) name.
    pub program: String,
    /// Total number of branches.
    pub total_branches: usize,
    /// Number of branches covered.
    pub covered_branches: usize,
    /// Branch coverage in percent.
    pub branch_percent: f64,
    /// Block coverage (line-coverage proxy) in percent.
    pub block_percent: f64,
    /// Number of executions that produced this coverage.
    pub executions: usize,
}

impl std::fmt::Display for CoverageSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}/{} branches ({:.1}%)",
            self.program, self.covered_branches, self.total_branches, self.branch_percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Cmp;

    fn run(ctx: &mut ExecCtx, x: f64) {
        if ctx.branch(0, Cmp::Le, x, 1.0) {
            // then
        }
        if ctx.branch(1, Cmp::Gt, x, 10.0) {
            // then
        }
    }

    #[test]
    fn empty_map_reports_zero_coverage() {
        let map = CoverageMap::new(2);
        assert_eq!(map.total_branches(), 4);
        assert_eq!(map.covered_count(), 0);
        assert_eq!(map.branch_coverage_percent(), 0.0);
        assert!(!map.is_fully_covered());
    }

    #[test]
    fn branchless_program_is_trivially_covered() {
        let map = CoverageMap::new(0);
        assert_eq!(map.branch_coverage_percent(), 100.0);
        assert!(map.is_fully_covered());
    }

    #[test]
    fn record_accumulates_across_executions() {
        let mut map = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0); // 0T, 1F
        assert_eq!(map.record(&ctx), 2);
        assert_eq!(map.branch_coverage_percent(), 50.0);

        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 20.0); // 0F, 1T
        assert_eq!(map.record(&ctx), 2);
        assert!(map.is_fully_covered());
        assert_eq!(map.branch_coverage_percent(), 100.0);
        assert_eq!(map.executions(), 2);
    }

    #[test]
    fn recording_same_coverage_twice_adds_nothing() {
        let mut map = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0);
        map.record(&ctx);
        let mut ctx2 = ExecCtx::observe();
        run(&mut ctx2, 0.5);
        assert_eq!(map.record(&ctx2), 0);
    }

    #[test]
    fn merge_from_unions_coverage_and_sums_executions() {
        let mut a = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0); // 0T, 1F
        a.record(&ctx);

        let mut b = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 20.0); // 0F, 1T
        b.record(&ctx);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 30.0); // 0F, 1T again
        b.record(&ctx);

        assert_eq!(a.merge_from(&b), 2);
        assert!(a.is_fully_covered());
        assert_eq!(a.executions(), 3);
        // Merging again adds executions but no branches.
        assert_eq!(a.merge_from(&b), 0);
        assert_eq!(a.executions(), 5);
    }

    #[test]
    #[should_panic(expected = "different programs")]
    fn merge_from_rejects_mismatched_site_counts() {
        let mut a = CoverageMap::new(2);
        let b = CoverageMap::new(3);
        a.merge_from(&b);
    }

    #[test]
    fn uncovered_branches_lists_the_complement() {
        let mut map = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0); // covers 0T and 1F
        map.record(&ctx);
        let uncovered: Vec<BranchId> = map.uncovered_branches().collect();
        assert_eq!(uncovered, vec![BranchId::false_of(0), BranchId::true_of(1)]);
    }

    #[test]
    fn block_coverage_is_between_branch_and_full() {
        let mut map = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0);
        map.record(&ctx);
        // 2 of 4 branches, so blocks are 3 of 5.
        assert!((map.block_coverage_percent() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn summary_row_reflects_the_map() {
        let mut map = CoverageMap::new(2);
        let mut ctx = ExecCtx::observe();
        run(&mut ctx, 0.0);
        map.record(&ctx);
        let summary = map.summary("toy");
        assert_eq!(summary.program, "toy");
        assert_eq!(summary.covered_branches, 2);
        assert_eq!(summary.total_branches, 4);
        assert_eq!(summary.executions, 1);
        assert!(summary.to_string().contains("50.0%"));
    }
}
