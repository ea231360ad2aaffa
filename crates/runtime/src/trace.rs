//! Execution traces: the ordered list of branch decisions taken by one run.
//!
//! Traces serve three consumers:
//!
//! * the CoverMe driver's *infeasible branch heuristic* (Sect. 5.3 of the
//!   paper) needs the **last** conditional a minimizing input passed through,
//! * the dynamic descendant analysis used for saturation learns "control
//!   flow can reach `b'` after `b`" facts from traces,
//! * the AFL-style baseline hashes consecutive pairs of decisions into its
//!   edge-coverage bitmap.

use crate::branch::{BranchId, Direction, SiteId};
use crate::distance::Cmp;

/// One branch decision made during an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TakenBranch {
    /// The conditional site that was evaluated.
    pub site: SiteId,
    /// Which side was taken.
    pub direction: Direction,
    /// The comparison operator at the site.
    pub op: Cmp,
    /// Left operand value at the moment of the comparison.
    pub lhs: f64,
    /// Right operand value at the moment of the comparison.
    pub rhs: f64,
}

impl TakenBranch {
    /// The branch that was taken.
    pub fn branch(&self) -> BranchId {
        BranchId {
            site: self.site,
            direction: self.direction,
        }
    }

    /// The branch that was *not* taken at this site during this execution.
    pub fn untaken_branch(&self) -> BranchId {
        self.branch().sibling()
    }
}

/// The ordered sequence of branch decisions of a single execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    events: Vec<TakenBranch>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a decision to the trace.
    pub fn push(&mut self, event: TakenBranch) {
        self.events.push(event);
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no decision was recorded (straight-line execution).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last decision of the run, if any. This is the "last conditional"
    /// the infeasible-branch heuristic inspects.
    pub fn last(&self) -> Option<&TakenBranch> {
        self.events.last()
    }

    /// Iterates over the decisions in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, TakenBranch> {
        self.events.iter()
    }

    /// Set of branches covered by this trace (unordered, deduplicated).
    pub fn covered_branches(&self) -> impl Iterator<Item = BranchId> + '_ {
        self.events.iter().map(TakenBranch::branch)
    }

    /// Iterates over consecutive `(from, to)` branch pairs — the edges an
    /// AFL-style fuzzer counts. The function entry is modelled as an implicit
    /// predecessor of the first decision by pairing it with `None`.
    pub fn edges(&self) -> impl Iterator<Item = (Option<BranchId>, BranchId)> + '_ {
        let firsts = std::iter::once(None).chain(self.events.iter().map(|e| Some(e.branch())));
        firsts.zip(self.events.iter().map(TakenBranch::branch))
    }

    /// Clears the trace for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TakenBranch;
    type IntoIter = std::slice::Iter<'a, TakenBranch>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(site: SiteId, taken: bool) -> TakenBranch {
        TakenBranch {
            site,
            direction: Direction::from_outcome(taken),
            op: Cmp::Le,
            lhs: 0.0,
            rhs: 1.0,
        }
    }

    #[test]
    fn push_and_len() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(event(0, true));
        t.push(event(1, false));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn last_is_the_final_decision() {
        let mut t = Trace::new();
        t.push(event(0, true));
        t.push(event(3, false));
        let last = t.last().unwrap();
        assert_eq!(last.site, 3);
        assert_eq!(last.direction, Direction::False);
        assert_eq!(last.untaken_branch(), BranchId::true_of(3));
    }

    #[test]
    fn covered_branches_map_events() {
        let mut t = Trace::new();
        t.push(event(0, true));
        t.push(event(1, false));
        t.push(event(0, true));
        let covered: Vec<BranchId> = t.covered_branches().collect();
        assert_eq!(
            covered,
            vec![
                BranchId::true_of(0),
                BranchId::false_of(1),
                BranchId::true_of(0)
            ]
        );
    }

    #[test]
    fn edges_include_entry_edge() {
        let mut t = Trace::new();
        t.push(event(0, true));
        t.push(event(1, true));
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (None, BranchId::true_of(0)));
        assert_eq!(edges[1], (Some(BranchId::true_of(0)), BranchId::true_of(1)));
    }

    #[test]
    fn clear_resets_the_trace() {
        let mut t = Trace::new();
        t.push(event(0, true));
        t.clear();
        assert!(t.is_empty());
        assert!(t.last().is_none());
    }

    #[test]
    fn trace_iterates_in_order() {
        let mut t = Trace::new();
        for site in 0..5 {
            t.push(event(site, site % 2 == 0));
        }
        let sites: Vec<SiteId> = (&t).into_iter().map(|e| e.site).collect();
        assert_eq!(sites, vec![0, 1, 2, 3, 4]);
    }
}
