//! CoverMe: branch coverage-based testing for floating-point code via
//! unconstrained programming.
//!
//! This crate implements the primary contribution of Fu & Su, *"Achieving
//! High Coverage for Floating-point Code via Unconstrained Programming"*
//! (PLDI 2017):
//!
//! 1. derive a **representing function** `FOO_R` from the instrumented
//!    program under test ([`RepresentingFunction`]), designed so that
//!    `FOO_R(x) ≥ 0` for all `x` (condition C1) and `FOO_R(x) = 0` exactly
//!    when `x` saturates a branch that is not yet saturated (condition C2,
//!    Theorem 4.3);
//! 2. track which branches are **saturated** — covered together with all
//!    their descendant branches ([`SaturationTracker`], Definition 3.2);
//! 3. repeatedly **minimize** `FOO_R` with an off-the-shelf unconstrained
//!    programming backend (Basinhopping over Powell, from `coverme-optim`),
//!    collecting every minimum point with `FOO_R(x*) = 0` as a test input
//!    ([`CoverMe`], Algorithm 1);
//! 4. fan independent searches over a whole benchmark suite in parallel
//!    ([`Campaign`]), with deterministic per-function seeds and an
//!    aggregated per-function + suite-level [`CampaignReport`] — the layer
//!    the evaluation harnesses in `coverme-bench` drive;
//! 5. shard a *single* function's search across workers ([`shard`]): the
//!    `n_start` budget is split into strided slices with deterministic
//!    per-round seeds, and the per-shard saturation/coverage snapshots are
//!    merged. Campaigns schedule functions × shards as one work queue, so a
//!    trailing heavy function fans out over otherwise idle workers; results
//!    depend on `(seed, shards, budget)` only, never on the worker count;
//! 6. run every evaluation through the **objective engine**
//!    ([`ObjectiveEngine`]): an allocation-free scalar fast path (one
//!    reusable `ExecCtx`, no trace, no covered-set inserts), a batch entry
//!    point minimizers feed whole candidate sets through, and one program
//!    execution per evaluation, with per-function evals / aborts /
//!    evals-per-second telemetry surfaced in [`TestReport`] and
//!    [`CampaignReport`];
//! 7. drive all of the above through a **resumable state machine**
//!    ([`SearchState`]): one shard's loop pauses at any round boundary
//!    with no behavior change (`coverme run --stream` reports rounds that
//!    way), and the campaign executor streams each function's merged row
//!    the moment it finishes ([`CampaignEvent`], `Campaign::run_with`).
//!
//! # Quick start
//!
//! ```
//! use coverme::{CoverMe, CoverMeConfig};
//! use coverme_runtime::{Cmp, ExecCtx, FnProgram};
//!
//! // The running example of the paper (Fig. 3):
//! //   l0: if (x <= 1) { x += 2.5; }
//! //       y = x * x;
//! //   l1: if (y == 4) { ... }
//! let foo = FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
//!     let mut x = input[0];
//!     if ctx.branch(0, Cmp::Le, x, 1.0) {
//!         x += 2.5;
//!     }
//!     let y = x * x;
//!     if ctx.branch(1, Cmp::Eq, y, 4.0) {
//!         // hard-to-hit branch
//!     }
//! });
//!
//! let report = CoverMe::new(CoverMeConfig::default().with_seed(7)).run(&foo);
//! assert_eq!(report.coverage.branch_coverage_percent(), 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod driver;
pub mod objective;
pub mod report;
pub mod representing;
pub mod saturation;
pub mod shard;

pub use campaign::{
    Campaign, CampaignConfig, CampaignEvent, CampaignReport, FunctionResult, FunctionStatus,
};
pub use corpus::{CorpusEntry, CorpusStats, CorpusStore};
pub use driver::{
    CancelToken, CoverMe, CoverMeConfig, EpochOutcome, InfeasiblePolicy, SearchState, WarmStart,
    ABORT_PATIENCE,
};
pub use objective::{EngineTelemetry, ObjectiveEngine, ABORTED_VALUE};
pub use report::{RoundOutcome, RoundRecord, TestReport};
pub use representing::{Evaluation, RepresentingFunction};
pub use saturation::SaturationTracker;
pub use shard::{merge_shards, run_shard, AcceptedInput, MergedSearch, ShardOutcome};

// Re-export the pieces users need to define programs without adding an
// explicit dependency on the runtime crate.
pub use coverme_optim::{FnObjective, LocalMethod, Objective};
pub use coverme_runtime::{
    BackendMode, BranchId, BranchSet, Cmp, CoverageMap, ExecCtx, FnProgram, Program, RunOutcome,
    SimdIsa,
};
