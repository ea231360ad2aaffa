//! Rust ports of the Fdlibm 5.3 benchmark functions used in the CoverMe
//! evaluation (Fu & Su, PLDI 2017, Tables 2, 3 and 5).
//!
//! Sun's Freely Distributable Math Library is the paper's benchmark suite:
//! 40 entry functions with floating-point inputs and at least one branch.
//! Each port here preserves the **branch structure** of the original C
//! source — the conditional guards on high/low words of the IEEE-754
//! representation, the special-case ladders for NaN/Inf/zero/subnormal
//! inputs, and the argument-reduction case splits — because that structure
//! is what makes the functions hard coverage targets. The polynomial
//! kernels inside unconditional straight-line regions are simplified where
//! exact coefficients do not influence control flow; that substitution
//! leaves every branch of the original C source in place.
//!
//! Every conditional is reported through
//! [`coverme_runtime::ExecCtx::branch`] (or the integer-promotion helpers),
//! which is the hand-instrumented equivalent of the paper's LLVM pass
//! injecting `r = pen(i, op, a, b)` before each conditional.
//!
//! The [`suite`] module exposes the 40 benchmark functions as
//! [`Benchmark`] values implementing [`coverme_runtime::Program`]; the
//! [`inventory`] module lists the Fdlibm functions the paper excludes and
//! why (Table 4).
//!
//! # Example
//!
//! ```
//! use coverme_fdlibm::suite;
//! use coverme_runtime::{ExecCtx, Program};
//!
//! let tanh = suite::by_name("tanh").expect("part of the benchmark suite");
//! let mut ctx = ExecCtx::observe();
//! tanh.execute(&[0.25], &mut ctx);
//! assert!(!ctx.trace().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The ports deliberately keep Fdlibm's C idioms so the branch structure
// matches the paper's benchmark: `x - x` / `x / x` to materialize NaN and
// Inf from special operands, 0.0/0.0, spelled-out polynomial coefficients,
// and the original (uncollapsed) special-case ladders.
#![allow(
    clippy::approx_constant,
    clippy::collapsible_if,
    clippy::eq_op,
    clippy::excessive_precision,
    clippy::identity_op,
    clippy::if_same_then_else,
    clippy::needless_late_init,
    clippy::zero_divided_by_zero
)]

pub mod bessel;
pub mod bits;
pub mod erf;
pub mod exp_log;
pub mod hyper;
pub mod inventory;
pub mod power;
pub mod rounding;
pub mod suite;
pub mod trig;

pub use inventory::{ExcludedFunction, ExclusionReason};
pub use suite::{all, by_name, Benchmark};

/// `(instrumented function, declared site count)` rows used by the per-module
/// smoke tests that check site ids stay within each function's declared range.
#[cfg(test)]
pub(crate) type SiteCases<'a> = &'a [(fn(&[f64], &mut coverme_runtime::ExecCtx), usize)];
