//! Saturation tracking (Definition 3.2 of the paper).
//!
//! A branch `b` is *saturated* by a set of inputs `X` when `b` itself and
//! every *descendant* branch of `b` (every branch reachable from `b` by
//! control flow) is covered by `X`. Lemma 3.3 shows that saturating all
//! branches is equivalent to covering all branches, which is why CoverMe can
//! phrase its goal as "saturate everything".
//!
//! The descendant relation is a property of the control-flow graph. The
//! tracker learns it from executed traces: whenever a trace takes branch `b`
//! and later reaches conditional site `s`, both branches of `s` are recorded
//! as descendants of `b` (reaching the site means both of its outgoing
//! branches are control-flow successors). This under-approximates the CFG
//! relation (it only contains sites that were actually observed after `b`),
//! so the resulting saturation set is an over-approximation that tightens as
//! more traces are seen. Native ports and FPIR programs are searched the
//! same way.
//!
//! Branches the infeasible-branch heuristic (Sect. 5.3) deems unreachable
//! are treated as covered for saturation purposes, exactly as the paper
//! "regards the infeasible branches as already saturated".

use coverme_runtime::{BranchId, BranchSet, Trace};

/// Tracks covered, infeasible and (derived) saturated branches.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationTracker {
    num_sites: usize,
    covered: BranchSet,
    infeasible: BranchSet,
    /// `descendants[b.index()]` = branches known to be reachable after taking `b`.
    descendants: Vec<BranchSet>,
}

impl SaturationTracker {
    /// Creates a tracker for a program with `num_sites` conditionals.
    pub fn new(num_sites: usize) -> SaturationTracker {
        SaturationTracker {
            num_sites,
            covered: BranchSet::with_sites(num_sites),
            infeasible: BranchSet::with_sites(num_sites),
            descendants: vec![BranchSet::new(); num_sites * 2],
        }
    }

    /// Number of conditional sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Total number of branches.
    pub fn total_branches(&self) -> usize {
        self.num_sites * 2
    }

    /// Records the decisions of one execution: marks every taken branch as
    /// covered and learns descendant pairs from the order of the trace.
    pub fn record_trace(&mut self, trace: &Trace) {
        let taken: Vec<BranchId> = trace.covered_branches().collect();
        for &branch in &taken {
            self.covered.insert(branch);
        }
        for (i, &from) in taken.iter().enumerate() {
            let from_idx = from.index();
            for &to in &taken[i + 1..] {
                // Reaching conditional site `to.site` after taking `from`
                // means *both* branches of that site are control-flow
                // descendants of `from`, not just the one this execution
                // happened to take.
                for descendant in [to, to.sibling()] {
                    if descendant != from {
                        self.descendants[from_idx].insert(descendant);
                    }
                }
            }
        }
    }

    /// Marks a branch as deemed-infeasible. Such branches are treated as
    /// covered when deciding saturation, so the search stops pursuing them.
    pub fn mark_infeasible(&mut self, branch: BranchId) {
        self.infeasible.insert(branch);
    }

    /// Generalized infeasibility blame (the broadened form of the Sect. 5.3
    /// heuristic used by [`crate::InfeasiblePolicy::Generalized`]): given
    /// the trace of a round whose minimizer converged to a *nonzero*
    /// objective, every conditional on that path whose untaken branch is
    /// still uncovered is blamed — the failed path dominates all of them,
    /// so none was reachable from any point the minimizer explored.
    ///
    /// Each blamed branch is marked infeasible exactly as
    /// [`mark_infeasible`](Self::mark_infeasible) would; branches already
    /// covered or already deemed infeasible are skipped, so re-blaming is
    /// idempotent. Soundness under merging is unchanged: verdicts still
    /// travel through [`merge_from`](Self::merge_from) as plain infeasible
    /// bits and are refuted against the post-union covered set, keeping the
    /// merge order-independent and idempotent.
    ///
    /// Returns the branches blamed this call, in trace order.
    pub fn blame_uncovered_path(&mut self, trace: &Trace) -> Vec<BranchId> {
        let mut blamed = Vec::new();
        for taken in trace.covered_branches() {
            let untaken = taken.sibling();
            if untaken.index() < self.total_branches()
                && !self.covered.contains(untaken)
                && !self.infeasible.contains(untaken)
            {
                self.infeasible.insert(untaken);
                blamed.push(untaken);
            }
        }
        blamed
    }

    /// Merges another tracker of the same program into this one, as when the
    /// shards of a split search ([`crate::shard`]) are combined:
    ///
    /// * covered branches are unioned,
    /// * learned descendant sets are unioned per branch (the merged relation
    ///   is a tighter under-approximation of the static CFG than either
    ///   side's, so merged saturation can be *smaller* than a single shard's
    ///   optimistic view — never unsound),
    /// * infeasible-deemed branches are unioned, and then any branch some
    ///   shard actually covered is dropped from the infeasible set: real
    ///   coverage refutes the heuristic's verdict.
    ///
    /// Refutation runs against the *post-union* covered set, so merging a
    /// set of trackers is order-independent and idempotent: the infeasible
    /// set always ends as `union(infeasible) \ union(covered)`.
    ///
    /// The ablation flag of `self` is kept; all shards of one search share a
    /// configuration, so they agree anyway.
    ///
    /// # Panics
    ///
    /// Panics if the trackers disagree on the number of conditional sites.
    pub fn merge_from(&mut self, other: &SaturationTracker) {
        assert_eq!(
            self.num_sites, other.num_sites,
            "cannot merge saturation trackers of different programs"
        );
        self.covered.union_with(&other.covered);
        self.infeasible.union_with(&other.infeasible);
        for (mine, theirs) in self.descendants.iter_mut().zip(&other.descendants) {
            mine.union_with(theirs);
        }
        let refuted: Vec<BranchId> = self
            .infeasible
            .iter()
            .filter(|b| self.covered.contains(*b))
            .collect();
        for branch in refuted {
            self.infeasible.remove(branch);
        }
    }

    /// Branches covered so far (excluding infeasible-deemed ones).
    pub fn covered(&self) -> &BranchSet {
        &self.covered
    }

    /// Branches deemed infeasible so far.
    pub fn infeasible(&self) -> &BranchSet {
        &self.infeasible
    }

    /// Whether a branch counts as covered for saturation purposes (actually
    /// covered, or deemed infeasible).
    fn effectively_covered(&self, branch: BranchId) -> bool {
        self.covered.contains(branch) || self.infeasible.contains(branch)
    }

    /// Whether `branch` is saturated (Definition 3.2).
    pub fn is_saturated(&self, branch: BranchId) -> bool {
        if branch.index() >= self.total_branches() {
            return false;
        }
        if !self.effectively_covered(branch) {
            return false;
        }
        self.descendants[branch.index()]
            .iter()
            .all(|d| self.effectively_covered(d))
    }

    /// The current saturated set (`Saturate(X)` in the paper), the snapshot
    /// a [`crate::RepresentingFunction`] is built against.
    pub fn saturated_set(&self) -> BranchSet {
        let mut set = BranchSet::with_sites(self.num_sites);
        for site in 0..self.num_sites as u32 {
            for branch in [BranchId::true_of(site), BranchId::false_of(site)] {
                if self.is_saturated(branch) {
                    set.insert(branch);
                }
            }
        }
        set
    }

    /// Whether every branch of the program is saturated — the termination
    /// condition of the main loop.
    pub fn all_saturated(&self) -> bool {
        (0..self.num_sites as u32).all(|site| {
            self.is_saturated(BranchId::true_of(site))
                && self.is_saturated(BranchId::false_of(site))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_runtime::{Cmp, Direction, TakenBranch};

    fn trace_of(decisions: &[(u32, bool)]) -> Trace {
        let mut t = Trace::new();
        for &(site, outcome) in decisions {
            t.push(TakenBranch {
                site,
                direction: Direction::from_outcome(outcome),
                op: Cmp::Le,
                lhs: 0.0,
                rhs: 0.0,
            });
        }
        t
    }

    #[test]
    fn covering_both_sides_of_a_leaf_site_saturates_it() {
        let mut tracker = SaturationTracker::new(1);
        tracker.record_trace(&trace_of(&[(0, true)]));
        assert!(tracker.is_saturated(BranchId::true_of(0)));
        assert!(!tracker.is_saturated(BranchId::false_of(0)));
        tracker.record_trace(&trace_of(&[(0, false)]));
        assert!(tracker.all_saturated());
    }

    #[test]
    fn paper_def32_example() {
        // The control-flow graph next to Definition 3.2: branch 0T leads to
        // conditional 1; X covers {0T, 0F, 1F}. Then Saturate(X) = {0F, 1F}:
        // 1T is not covered, and 0T has the uncovered descendant 1T.
        let mut tracker = SaturationTracker::new(2);
        // 0T followed by the inner conditional taking 1F.
        tracker.record_trace(&trace_of(&[(0, true), (1, false)]));
        // 0F (inner conditional not reached).
        tracker.record_trace(&trace_of(&[(0, false)]));

        assert!(tracker.is_saturated(BranchId::false_of(0)));
        assert!(tracker.is_saturated(BranchId::false_of(1)));
        assert!(
            !tracker.is_saturated(BranchId::true_of(1)),
            "1T not covered"
        );
        assert!(
            !tracker.is_saturated(BranchId::true_of(0)),
            "0T has uncovered descendant 1T"
        );

        let set = tracker.saturated_set();
        assert_eq!(set.len(), 2);
        assert!(set.contains(BranchId::false_of(0)));
        assert!(set.contains(BranchId::false_of(1)));
    }

    #[test]
    fn saturation_completes_once_descendants_are_covered() {
        let mut tracker = SaturationTracker::new(2);
        tracker.record_trace(&trace_of(&[(0, true), (1, false)]));
        tracker.record_trace(&trace_of(&[(0, false)]));
        tracker.record_trace(&trace_of(&[(0, true), (1, true)]));
        assert!(tracker.all_saturated());
    }

    #[test]
    fn infeasible_branches_count_as_saturated() {
        let mut tracker = SaturationTracker::new(1);
        tracker.record_trace(&trace_of(&[(0, false)]));
        assert!(!tracker.all_saturated());
        tracker.mark_infeasible(BranchId::true_of(0));
        assert!(tracker.all_saturated());
    }

    #[test]
    fn merge_from_unions_coverage_and_descendants() {
        // Shard A sees the nested path 0T -> 1F; shard B sees 0F only.
        let mut a = SaturationTracker::new(2);
        a.record_trace(&trace_of(&[(0, true), (1, false)]));
        let mut b = SaturationTracker::new(2);
        b.record_trace(&trace_of(&[(0, false)]));

        a.merge_from(&b);
        assert!(a.covered().contains(BranchId::true_of(0)));
        assert!(a.covered().contains(BranchId::false_of(0)));
        assert!(a.covered().contains(BranchId::false_of(1)));
        // The merged relation still knows 1T is an uncovered descendant of 0T.
        assert!(!a.is_saturated(BranchId::true_of(0)));
        assert!(a.is_saturated(BranchId::false_of(0)));
    }

    #[test]
    fn merge_from_drops_infeasible_verdicts_refuted_by_coverage() {
        // Shard A gave up on 0T; shard B actually covered it.
        let mut a = SaturationTracker::new(1);
        a.mark_infeasible(BranchId::true_of(0));
        let mut b = SaturationTracker::new(1);
        b.record_trace(&trace_of(&[(0, true)]));

        a.merge_from(&b);
        assert!(!a.infeasible().contains(BranchId::true_of(0)));
        assert!(a.covered().contains(BranchId::true_of(0)));
        // Unrefuted verdicts survive the merge.
        let mut c = SaturationTracker::new(1);
        c.mark_infeasible(BranchId::false_of(0));
        a.merge_from(&c);
        assert!(a.infeasible().contains(BranchId::false_of(0)));
        assert!(a.all_saturated());
    }

    #[test]
    #[should_panic(expected = "different programs")]
    fn merge_from_rejects_mismatched_site_counts() {
        let mut a = SaturationTracker::new(1);
        a.merge_from(&SaturationTracker::new(2));
    }

    #[test]
    fn out_of_range_branch_is_never_saturated() {
        let tracker = SaturationTracker::new(1);
        assert!(!tracker.is_saturated(BranchId::true_of(99)));
    }

    /// Three shard trackers with overlapping knowledge, including an
    /// infeasible verdict one peer refutes by real coverage.
    fn overlapping_shards() -> [SaturationTracker; 3] {
        let mut a = SaturationTracker::new(2);
        a.record_trace(&trace_of(&[(0, true), (1, false)]));
        a.mark_infeasible(BranchId::true_of(1));
        let mut b = SaturationTracker::new(2);
        b.record_trace(&trace_of(&[(0, false)]));
        b.mark_infeasible(BranchId::false_of(1));
        let mut c = SaturationTracker::new(2);
        c.record_trace(&trace_of(&[(0, true), (1, true)]));
        [a, b, c]
    }

    #[test]
    fn merge_from_is_symmetric() {
        let [a, b, _] = overlapping_shards();
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_from_is_order_independent_and_idempotent() {
        let shards = overlapping_shards();
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
        let merged: Vec<SaturationTracker> = orders
            .iter()
            .map(|order| {
                let mut t = SaturationTracker::new(2);
                for &i in order {
                    t.merge_from(&shards[i]);
                }
                t
            })
            .collect();
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0], merged[2]);
        // 1T was deemed infeasible by A but covered by C: refuted in every
        // order.
        assert!(!merged[0].infeasible().contains(BranchId::true_of(1)));

        // Idempotent: merging every shard again changes nothing.
        let mut again = merged[0].clone();
        for shard in &shards {
            again.merge_from(shard);
        }
        assert_eq!(again, merged[0]);
    }

    #[test]
    fn generalized_blame_marks_every_uncovered_untaken_branch() {
        // Failed path 0T -> 1T -> 2F with 1F already covered elsewhere:
        // blame falls on 0F and 2T only.
        let mut tracker = SaturationTracker::new(3);
        tracker.record_trace(&trace_of(&[(0, true), (1, false)]));
        let failed = trace_of(&[(0, true), (1, true), (2, false)]);
        tracker.record_trace(&failed);
        let blamed = tracker.blame_uncovered_path(&failed);
        assert_eq!(blamed, vec![BranchId::false_of(0), BranchId::true_of(2)]);
        assert!(tracker.infeasible().contains(BranchId::false_of(0)));
        assert!(tracker.infeasible().contains(BranchId::true_of(2)));
        assert!(!tracker.infeasible().contains(BranchId::false_of(1)));
        // Re-blaming the same path is a no-op.
        let before = tracker.clone();
        assert!(tracker.blame_uncovered_path(&failed).is_empty());
        assert_eq!(tracker, before);
    }

    #[test]
    fn generalized_blame_stays_order_independent_under_merge() {
        // Shard A blames a whole path; shard B covers one of the blamed
        // branches for real. Merging in either order refutes exactly that
        // verdict.
        let failed = trace_of(&[(0, true), (1, true)]);
        let mut a = SaturationTracker::new(2);
        a.record_trace(&failed);
        a.blame_uncovered_path(&failed); // blames 0F and 1F
        let mut b = SaturationTracker::new(2);
        b.record_trace(&trace_of(&[(0, false)]));

        let mut ab = SaturationTracker::new(2);
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = SaturationTracker::new(2);
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert!(!ab.infeasible().contains(BranchId::false_of(0)), "refuted");
        assert!(ab.infeasible().contains(BranchId::false_of(1)));
    }

    #[test]
    fn equality_ignores_mutation_history() {
        let mut a = SaturationTracker::new(1);
        a.record_trace(&trace_of(&[(0, true)]));
        let mut b = SaturationTracker::new(1);
        b.record_trace(&trace_of(&[(0, true)]));
        b.record_trace(&trace_of(&[(0, true)]));
        // Different mutation histories, same state: equal.
        assert_eq!(a, b);
    }
}
