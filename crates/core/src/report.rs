//! Reports produced by a CoverMe run.

pub mod schema;

use std::time::Duration;

use coverme_runtime::{BranchId, CoverageMap, CoverageSummary};

/// What happened in one minimization round (one iteration of the outer loop
/// of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundOutcome {
    /// The minimum reached zero: the point was added to the generated test
    /// inputs and saturated at least one new branch.
    NewInput,
    /// The minimum reached zero but added no new coverage (can happen when
    /// the saturation snapshot lags behind coverage within a round).
    RedundantInput,
    /// The minimum stayed positive; the infeasible-branch heuristic marked
    /// the untaken branch of the last conditional as infeasible.
    DeemedInfeasible(BranchId),
    /// The minimum stayed positive under the *generalized* blame policy
    /// ([`crate::InfeasiblePolicy::Generalized`]): every still-uncovered
    /// untaken branch along the failed path was marked infeasible, not just
    /// the last conditional's. Carries the last conditional's untaken
    /// branch (the classic verdict) and the total number of branches
    /// blamed this round.
    DeemedInfeasiblePath(BranchId, usize),
    /// The minimum stayed positive and the heuristic was disabled or had no
    /// branch to blame (empty trace).
    NoProgress,
    /// The round's final evaluation did not run to completion (the program
    /// timed out or trapped, see [`coverme_runtime::RunOutcome`]): its
    /// coverage and trace are garbage from a truncated execution, so the
    /// driver recorded nothing — no input, no saturation update, and no
    /// infeasible blame.
    Aborted,
}

/// Per-round record kept for diagnostics and for the scenario tables
/// (Table 1 of the paper is regenerated from these records).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Index of the round (0-based).
    pub round: usize,
    /// The starting point handed to the backend.
    pub start: Vec<f64>,
    /// The minimum point the backend returned.
    pub minimum: Vec<f64>,
    /// `FOO_R` at the minimum point.
    pub value: f64,
    /// Number of objective evaluations spent in this round.
    pub evaluations: usize,
    /// Number of branches saturated *before* this round ran.
    pub saturated_before: usize,
    /// What the driver did with the result.
    pub outcome: RoundOutcome,
}

/// The complete result of a CoverMe run on one program.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Name of the tested program.
    pub program: String,
    /// The generated test inputs `X` (minimum points with `FOO_R = 0`).
    pub inputs: Vec<Vec<f64>>,
    /// Branch coverage achieved by executing the program on `X`.
    pub coverage: CoverageMap,
    /// Branches the infeasible-branch heuristic gave up on.
    pub infeasible: Vec<BranchId>,
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Total objective (representing function) evaluations. Each one is
    /// exactly one program execution.
    pub evaluations: usize,
    /// Evaluations whose execution ran out of fuel before completing
    /// (classified [`coverme_runtime::RunOutcome::Timeout`]); each returned
    /// the abort sentinel and fed no coverage or saturation update.
    pub timeouts: usize,
    /// Evaluations whose execution trapped — recursion too deep, a missing
    /// call target — before completing (classified
    /// [`coverme_runtime::RunOutcome::Trap`]).
    pub traps: usize,
    /// Corpus inputs replayed before the search's first round when the
    /// run warm-started from a [`crate::corpus::CorpusStore`] entry (the
    /// replayed evaluations are included in
    /// [`evaluations`](Self::evaluations)). 0 for a cold run — and the
    /// corpus keys then stay out of the JSON artifacts entirely, keeping
    /// corpus-less reports byte-identical to earlier releases.
    pub warm_replayed: usize,
    /// Name of the execution backend the objective engine ran
    /// (see [`coverme_runtime::ExecBackend::name`]) — `"interp"` or
    /// `"tape"`; bit-exact either way, recorded for telemetry.
    pub backend: &'static str,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
}

impl TestReport {
    /// Branch coverage in percent, the headline number of Tables 2 and 3.
    pub fn branch_coverage_percent(&self) -> f64 {
        self.coverage.branch_coverage_percent()
    }

    /// Whether every branch was covered.
    pub fn is_fully_covered(&self) -> bool {
        self.coverage.is_fully_covered()
    }

    /// Number of rounds that produced a new test input.
    pub fn productive_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.outcome == RoundOutcome::NewInput)
            .count()
    }

    /// Evaluations that did not run to completion (timeouts plus traps).
    pub fn aborted_evaluations(&self) -> usize {
        self.timeouts + self.traps
    }

    /// Total branches the infeasible-branch heuristic blamed over the run:
    /// one per classic [`RoundOutcome::DeemedInfeasible`] round, plus the
    /// full per-round blame count of generalized
    /// [`RoundOutcome::DeemedInfeasiblePath`] rounds. Derived from the
    /// round records, so shard merges (which concatenate rounds) aggregate
    /// it for free. Counts verdicts as issued; some may later be refuted
    /// by real coverage and leave [`TestReport::infeasible`].
    pub fn infeasible_blamed(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| match r.outcome {
                RoundOutcome::DeemedInfeasible(_) => 1,
                RoundOutcome::DeemedInfeasiblePath(_, blamed) => blamed,
                _ => 0,
            })
            .sum()
    }

    /// Summary row for table harnesses.
    pub fn summary(&self) -> CoverageSummary {
        self.coverage.summary(&self.program)
    }

    /// Objective-evaluation throughput of the run in evaluations per
    /// second (0 when the run was too fast to measure).
    pub fn evals_per_second(&self) -> f64 {
        let seconds = self.wall_time.as_secs_f64();
        if seconds > 0.0 {
            self.evaluations as f64 / seconds
        } else {
            0.0
        }
    }

    /// Throughput of evaluations that ran to completion: aborted
    /// (timeout/trap) executions are excluded from the numerator, so a
    /// spin-heavy FPIR corpus does not report misleading evals/sec. This is
    /// what the campaign table prints.
    pub fn effective_evals_per_second(&self) -> f64 {
        let seconds = self.wall_time.as_secs_f64();
        if seconds > 0.0 {
            self.evaluations.saturating_sub(self.aborted_evaluations()) as f64 / seconds
        } else {
            0.0
        }
    }

    /// The run's headline classification for artifacts: `done` when every
    /// evaluation ran to completion, otherwise the dominant abort kind
    /// (`timeout` or `trap` — the value the CI smoke pins for the
    /// non-terminating corpus program).
    pub fn outcome_label(&self) -> &'static str {
        if self.aborted_evaluations() == 0 {
            "done"
        } else if self.timeouts >= self.traps {
            "timeout"
        } else {
            "trap"
        }
    }

    /// The standalone-run JSON artifact (schema
    /// [`schema::RUN_REPORT`] = `coverme-run-report/7`) — what
    /// `coverme run --json` writes. `entry` is the entry-function name,
    /// `path` the source file the run tested; both are escaped, so any
    /// file name yields a valid document. A warm-started run additionally
    /// carries `corpus_warm_start` / `warm_replayed` members; a cold run's
    /// document is byte-identical to earlier releases.
    pub fn to_run_json(&self, entry: &str, path: &str) -> String {
        use schema::{push_bool, push_escaped, push_number};
        const INDENT: &str = "  ";
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        push_escaped(
            &mut out,
            INDENT,
            "schema",
            &schema::RUN_REPORT.label(),
            true,
        );
        push_escaped(&mut out, INDENT, "file", path, true);
        push_escaped(&mut out, INDENT, "entry", entry, true);
        push_escaped(&mut out, INDENT, "outcome", self.outcome_label(), true);
        push_escaped(&mut out, INDENT, "backend", self.backend, true);
        let number = |out: &mut String, key: &str, value: f64| {
            push_number(out, INDENT, key, value, true);
        };
        number(&mut out, "branches", self.coverage.total_branches() as f64);
        number(
            &mut out,
            "covered_branches",
            self.coverage.covered_count() as f64,
        );
        number(
            &mut out,
            "branch_coverage_percent",
            self.branch_coverage_percent(),
        );
        number(&mut out, "inputs", self.inputs.len() as f64);
        number(&mut out, "rounds", self.rounds.len() as f64);
        number(&mut out, "evals", self.evaluations as f64);
        number(&mut out, "timeouts", self.timeouts as f64);
        number(&mut out, "traps", self.traps as f64);
        if self.warm_replayed > 0 {
            push_bool(&mut out, INDENT, "corpus_warm_start", true, true);
            number(&mut out, "warm_replayed", self.warm_replayed as f64);
        }
        push_number(
            &mut out,
            INDENT,
            "wall_time_s",
            self.wall_time.as_secs_f64(),
            false,
        );
        out.push_str("}\n");
        out
    }
}

impl std::fmt::Display for TestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {:.1}% branch coverage ({} / {} branches) with {} inputs in {:.2?} \
             ({} evals)",
            self.program,
            self.branch_coverage_percent(),
            self.coverage.covered_count(),
            self.coverage.total_branches(),
            self.inputs.len(),
            self.wall_time,
            self.evaluations,
        )?;
        if self.aborted_evaluations() > 0 {
            writeln!(
                f,
                "  aborted evaluations: {} timeouts, {} traps",
                self.timeouts, self.traps
            )?;
        }
        if !self.infeasible.is_empty() {
            let labels: Vec<String> = self.infeasible.iter().map(|b| b.to_string()).collect();
            writeln!(f, "  deemed infeasible: {}", labels.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_runtime::{BranchSet, ExecCtx};

    fn dummy_report() -> TestReport {
        let mut coverage = CoverageMap::new(2);
        let mut covered = BranchSet::new();
        covered.insert(BranchId::true_of(0));
        covered.insert(BranchId::false_of(0));
        covered.insert(BranchId::true_of(1));
        coverage.record_set(&covered);
        TestReport {
            program: "toy".to_string(),
            inputs: vec![vec![1.0], vec![-3.0]],
            coverage,
            infeasible: vec![BranchId::false_of(1)],
            rounds: vec![
                RoundRecord {
                    round: 0,
                    start: vec![0.0],
                    minimum: vec![1.0],
                    value: 0.0,
                    evaluations: 10,
                    saturated_before: 0,
                    outcome: RoundOutcome::NewInput,
                },
                RoundRecord {
                    round: 1,
                    start: vec![5.0],
                    minimum: vec![-3.0],
                    value: 0.5,
                    evaluations: 12,
                    saturated_before: 2,
                    outcome: RoundOutcome::DeemedInfeasible(BranchId::false_of(1)),
                },
            ],
            evaluations: 22,
            timeouts: 1,
            traps: 0,
            warm_replayed: 0,
            backend: "interp",
            wall_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn percentages_and_counters() {
        let report = dummy_report();
        assert_eq!(report.branch_coverage_percent(), 75.0);
        assert!(!report.is_fully_covered());
        assert_eq!(report.productive_rounds(), 1);
        assert_eq!(report.summary().covered_branches, 3);
    }

    #[test]
    fn display_mentions_infeasible_branches() {
        let text = dummy_report().to_string();
        assert!(text.contains("75.0%"));
        assert!(text.contains("deemed infeasible"));
        assert!(text.contains("1F"));
        assert!(text.contains("22 evals"));
        assert!(text.contains("1 timeouts, 0 traps"));
    }

    #[test]
    fn evals_per_second_uses_wall_time() {
        let report = dummy_report();
        // 22 evaluations in 5 ms.
        assert!((report.evals_per_second() - 4400.0).abs() < 1e-9);
        let mut instant = dummy_report();
        instant.wall_time = Duration::ZERO;
        assert_eq!(instant.evals_per_second(), 0.0);
    }

    #[test]
    fn effective_throughput_excludes_aborted_evaluations() {
        // 22 evaluations, 1 of them a timeout: 21 completed in 5 ms.
        let report = dummy_report();
        assert!((report.effective_evals_per_second() - 4200.0).abs() < 1e-9);
        // A run that aborted everything reports zero useful throughput.
        let mut spun = dummy_report();
        spun.timeouts = 30;
        assert_eq!(spun.effective_evals_per_second(), 0.0);
    }

    #[test]
    fn infeasible_blame_counts_generalized_rounds_in_full() {
        let mut report = dummy_report();
        assert_eq!(report.infeasible_blamed(), 1);
        report.rounds.push(RoundRecord {
            round: 2,
            start: vec![9.0],
            minimum: vec![9.0],
            value: 0.25,
            evaluations: 8,
            saturated_before: 2,
            outcome: RoundOutcome::DeemedInfeasiblePath(BranchId::true_of(1), 3),
        });
        assert_eq!(report.infeasible_blamed(), 4);
    }

    #[test]
    fn coverage_map_usable_after_run() {
        // The report exposes the live coverage map so callers can keep
        // recording executions (e.g. to merge with another tester's inputs).
        let mut report = dummy_report();
        let mut ctx = ExecCtx::observe();
        ctx.branch(1, coverme_runtime::Cmp::Le, 5.0, 1.0);
        report.coverage.record(&ctx);
        assert!(report.is_fully_covered());
    }
}
