//! Instrumentation runtime for branch-coverage testing of floating-point code.
//!
//! The CoverMe approach (Fu & Su, PLDI 2017) instruments the program under
//! test `FOO` by injecting, immediately before every conditional statement
//! `l_i` with condition `a op b`, the assignment `r = pen(l_i, op, a, b)`.
//! The *representing function* `FOO_R` then sets `r = 1`, runs the
//! instrumented program and returns `r`. This crate provides everything that
//! instrumented execution needs, independent of how the instrumentation is
//! achieved (the `coverme-fpir` crate rewrites ASTs of a C-like mini
//! language; the `coverme-fdlibm` crate uses hand-instrumented Rust ports):
//!
//! * [`Cmp`] and [`distance`](fn@distance) — the branch-distance family `d_ε(op, a, b)`
//!   of Definition 4.1,
//! * [`pen`](fn@pen) — the penalty function of Definition 4.2,
//! * [`BranchId`]/[`BranchSet`] — identities and sets of branches,
//! * [`ExecCtx`] — the per-execution context that records coverage, the
//!   taken-branch trace, and (in representing mode) the value of `r`,
//! * [`Program`] — the trait every testable program implements,
//! * [`CoverageMap`] — accumulated branch and block coverage, the stand-in
//!   for Gcov in the evaluation harnesses.
//!
//! # Example: instrumenting a function by hand
//!
//! ```
//! use coverme_runtime::{Cmp, ExecCtx, FnProgram, Program};
//!
//! // The program of Fig. 3 in the paper:
//! //   l0: if (x <= 1) { x += 2.5; }
//! //       y = square(x);
//! //   l1: if (y == 4)  { ... }
//! let foo = FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
//!     let mut x = input[0];
//!     if ctx.branch(0, Cmp::Le, x, 1.0) {
//!         x += 2.5;
//!     }
//!     let y = x * x;
//!     if ctx.branch(1, Cmp::Eq, y, 4.0) {
//!         // target branch
//!     }
//! });
//!
//! let mut ctx = ExecCtx::observe();
//! foo.execute(&[0.7], &mut ctx);
//! assert_eq!(ctx.trace().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod branch;
pub mod context;
pub mod coverage;
pub mod distance;
pub mod pen;
pub mod program;
pub mod trace;

pub use backend::{BackendMode, ExecBackend, InterpBackend, LaneEval, SimdIsa};
pub use branch::{BranchId, BranchSet, Direction, SiteId};
pub use context::{ExecCtx, ExecMode, RunOutcome};
pub use coverage::{CoverageMap, CoverageSummary};
pub use distance::{distance, Cmp, DEFAULT_EPSILON};
pub use pen::{pen, SiteSaturation};
pub use program::{fingerprint_bytes, fingerprint_seed, native_fingerprint, FnProgram, Program};
pub use trace::{TakenBranch, Trace};
