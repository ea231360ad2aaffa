//! Golden bytes of the run and campaign JSON artifacts.
//!
//! CI, the nightly job and downstream scripts read these documents as
//! text, so their layout is part of the contract: 2-space indentation,
//! `"key": value`, one member per line, a trailing newline. Each test
//! builds a report by hand with fixed wall times and compares the whole
//! document byte for byte.

use std::time::Duration;

use coverme::{
    CampaignReport, FunctionResult, FunctionStatus, RoundOutcome, RoundRecord, TestReport,
};
use coverme_runtime::{BranchId, BranchSet, CoverageMap};

/// A two-site report: 3 of 4 branches covered, two inputs, two rounds
/// (one blamed branch), 22 evaluations with one timeout, 5 ms of wall time.
fn toy_report() -> TestReport {
    let mut coverage = CoverageMap::new(2);
    let mut covered = BranchSet::new();
    covered.insert(BranchId::true_of(0));
    covered.insert(BranchId::false_of(0));
    covered.insert(BranchId::true_of(1));
    coverage.record_set(&covered);
    let round = |round, outcome| RoundRecord {
        round,
        start: vec![0.0],
        minimum: vec![1.0],
        value: 0.0,
        evaluations: 11,
        saturated_before: 0,
        outcome,
    };
    TestReport {
        program: "toy".to_string(),
        inputs: vec![vec![1.0], vec![-3.0]],
        coverage,
        infeasible: vec![BranchId::false_of(1)],
        rounds: vec![
            round(0, RoundOutcome::NewInput),
            round(1, RoundOutcome::DeemedInfeasible(BranchId::false_of(1))),
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
fn cold_run_document_bytes() {
    let doc = toy_report().to_run_json("toy", "examples/fpir/toy.fpir");
    assert_eq!(
        doc,
        r#"{
  "schema": "coverme-run-report/7",
  "file": "examples/fpir/toy.fpir",
  "entry": "toy",
  "outcome": "timeout",
  "backend": "interp",
  "branches": 4,
  "covered_branches": 3,
  "branch_coverage_percent": 75,
  "inputs": 2,
  "rounds": 2,
  "evals": 22,
  "timeouts": 1,
  "traps": 0,
  "wall_time_s": 0.005
}
"#
    );
}

#[test]
fn warm_started_run_document_bytes() {
    let mut report = toy_report();
    report.timeouts = 0;
    report.warm_replayed = 3;
    report.backend = "tape";
    report.wall_time = Duration::from_micros(1_250_500);
    let doc = report.to_run_json("toy", "toy.fpir");
    assert_eq!(
        doc,
        r#"{
  "schema": "coverme-run-report/7",
  "file": "toy.fpir",
  "entry": "toy",
  "outcome": "done",
  "backend": "tape",
  "branches": 4,
  "covered_branches": 3,
  "branch_coverage_percent": 75,
  "inputs": 2,
  "rounds": 2,
  "evals": 22,
  "timeouts": 0,
  "traps": 0,
  "corpus_warm_start": true,
  "warm_replayed": 3,
  "wall_time_s": 1.2505
}
"#
    );
}

#[test]
fn hostile_path_run_document_bytes() {
    let mut report = toy_report();
    report.traps = 4;
    let doc = report.to_run_json("ma\"in\n", "dir\\odd\"name\u{1}\t.fpir");
    assert_eq!(
        doc,
        r#"{
  "schema": "coverme-run-report/7",
  "file": "dir\\odd\"name\u0001\t.fpir",
  "entry": "ma\"in\n",
  "outcome": "trap",
  "backend": "interp",
  "branches": 4,
  "covered_branches": 3,
  "branch_coverage_percent": 75,
  "inputs": 2,
  "rounds": 2,
  "evals": 22,
  "timeouts": 1,
  "traps": 4,
  "wall_time_s": 0.005
}
"#
    );
}

/// One complete row, one partial warm-started row, one skipped row.
fn mixed_campaign() -> CampaignReport {
    let complete = toy_report();
    let mut partial = toy_report();
    partial.program = "part\"ial".to_string();
    partial.timeouts = 0;
    partial.warm_replayed = 2;
    partial.backend = "tape";
    partial.wall_time = Duration::from_millis(250);
    CampaignReport {
        results: vec![
            FunctionResult {
                name: "toy".to_string(),
                report: Some(complete),
                shards_run: 1,
                status: FunctionStatus::Complete,
            },
            FunctionResult {
                name: "part\"ial".to_string(),
                report: Some(partial),
                shards_run: 2,
                status: FunctionStatus::Partial,
            },
            FunctionResult {
                name: "skipped_one".to_string(),
                report: None,
                shards_run: 0,
                status: FunctionStatus::Skipped,
            },
        ],
        workers: 2,
        shards: 3,
        wall_time: Duration::from_millis(400),
    }
}

#[test]
fn mixed_campaign_document_bytes() {
    assert_eq!(
        mixed_campaign().to_json(),
        r#"{
  "schema": "coverme-campaign-report/12",
  "workers": 2,
  "shards": 3,
  "wall_time_s": 0.4,
  "completed": 2,
  "skipped": 1,
  "suite_branch_coverage_percent": 75,
  "suite_block_coverage_percent": 80,
  "mean_branch_coverage_percent": 75,
  "total_evaluations": 44,
  "total_timeouts": 1,
  "total_traps": 0,
  "suite_evals_per_second": 110,
  "suite_effective_evals_per_second": 107.5,
  "total_infeasible_blamed": 2,
  "coverage_per_megaeval": 136363.63636363635,
  "corpus_warm_start": true,
  "total_warm_replayed": 2,
  "functions": [
    {
      "name": "toy",
      "completed": true,
      "status": "complete",
      "shards_run": 1,
      "backend": "interp",
      "branches": 4,
      "covered_branches": 3,
      "branch_coverage_percent": 75,
      "inputs": 2,
      "evals": 22,
      "timeouts": 1,
      "traps": 0,
      "evals_per_second": 4400,
      "effective_evals_per_second": 4200,
      "infeasible_blamed": 1,
      "wall_time_s": 0.005
    },
    {
      "name": "part\"ial",
      "completed": true,
      "status": "partial",
      "shards_run": 2,
      "backend": "tape",
      "branches": 4,
      "covered_branches": 3,
      "branch_coverage_percent": 75,
      "inputs": 2,
      "evals": 22,
      "timeouts": 0,
      "traps": 0,
      "evals_per_second": 88,
      "effective_evals_per_second": 88,
      "infeasible_blamed": 1,
      "corpus_warm_start": true,
      "warm_replayed": 2,
      "wall_time_s": 0.25
    },
    {
      "name": "skipped_one",
      "completed": false,
      "status": "skipped",
      "shards_run": 0,
      "evals": 0
    }
  ]
}
"#
    );
}

#[test]
fn empty_inventory_campaign_document_bytes() {
    let report = CampaignReport {
        results: Vec::new(),
        workers: 1,
        shards: 1,
        wall_time: Duration::from_micros(37),
    };
    assert_eq!(
        report.to_json(),
        r#"{
  "schema": "coverme-campaign-report/12",
  "workers": 1,
  "shards": 1,
  "wall_time_s": 0.000037,
  "completed": 0,
  "skipped": 0,
  "suite_branch_coverage_percent": 100,
  "suite_block_coverage_percent": 100,
  "mean_branch_coverage_percent": 100,
  "total_evaluations": 0,
  "total_timeouts": 0,
  "total_traps": 0,
  "suite_evals_per_second": 0,
  "suite_effective_evals_per_second": 0,
  "total_infeasible_blamed": 0,
  "coverage_per_megaeval": 0,
  "functions": [
  ]
}
"#
    );
}
