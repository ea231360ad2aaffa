//! Unconstrained programming backends for CoverMe.
//!
//! The CoverMe algorithm (Fu & Su, PLDI 2017) reduces branch-coverage testing
//! to *unconstrained programming*: given an objective function
//! `f: R^n -> R`, find a point `x*` with `f(x*) <= f(x)` for all `x`.
//! The paper treats the minimization backend as a black box; its
//! implementation uses SciPy's Basinhopping (an MCMC sampler over local
//! minima) with Powell's method as the local minimizer.
//!
//! This crate reimplements that substrate from scratch:
//!
//! * [`basinhopping`] — the Basinhopping / Monte-Carlo-Markov-Chain global
//!   minimizer of Algorithm 1 (lines 24–34) of the paper,
//! * [`powell`] — Powell's direction-set method with Brent line search,
//! * [`nelder_mead`] — the Nelder–Mead simplex method,
//! * [`compass`] — compass (coordinate pattern) search,
//! * [`line_search`] — 1-D bracketing and Brent minimization used by
//!   Powell.
//!
//! All minimizers operate on plain `&[f64]` points and objectives speaking
//! the [`Objective`] protocol ([`objective`]): a scalar entry point plus a
//! batch entry point that evaluates a slice of candidates in one call, so
//! an evaluation engine can reuse its execution context across calls. Bare `FnMut(&[f64]) -> f64` closures plug in through
//! the [`FnObjective`] adapter, so any representing function produced by the
//! `coverme` crate (or any other numeric function) can be minimized.
//!
//! # Example
//!
//! ```
//! use coverme_optim::{BasinHopping, FnObjective, LocalMethod};
//!
//! // f(x, y) = (x - 3)^2 + (y - 5)^2, the running example of the paper (Eq. 1).
//! let mut f = FnObjective(|p: &[f64]| (p[0] - 3.0).powi(2) + (p[1] - 5.0).powi(2));
//! let result = BasinHopping::new()
//!     .local_method(LocalMethod::Powell)
//!     .iterations(5)
//!     .seed(42)
//!     .minimize_objective(&mut f, &[0.0, 0.0]);
//! assert!(result.value < 1e-8);
//! assert!((result.x[0] - 3.0).abs() < 1e-4);
//! assert!((result.x[1] - 5.0).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basinhopping;
pub mod compass;
pub mod line_search;
pub mod nelder_mead;
pub mod objective;
pub mod powell;
pub mod result;
pub mod rng;
pub mod sampling;

pub use basinhopping::BasinHopping;
pub use compass::CompassSearch;
pub use nelder_mead::NelderMead;
pub use objective::{FnObjective, Objective};
pub use powell::Powell;
pub use result::{Minimum, OptimStats};
pub use sampling::PerturbationKind;

use crate::rng::SplitMix64;

/// Selects which local minimization algorithm a global method should use.
///
/// The paper's experiments set `LM = "powell"`, the default. The other
/// variants are the local-minimizer ablation (`--local` on the command
/// line, `benches/ablation_local_minimizer.rs`). At matched evaluation
/// spend on the fdlibm suite, Nelder–Mead and compass each cover more
/// branches than Powell; the README's local-minimizer trial has the
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalMethod {
    /// Powell's direction-set method with Brent line search (paper default).
    #[default]
    Powell,
    /// Nelder–Mead downhill simplex.
    NelderMead,
    /// Compass (coordinate pattern) search.
    Compass,
}

impl LocalMethod {
    /// Runs the selected local minimizer on `f` starting from `x0`, with
    /// the method's fixed tolerances and iteration cap.
    pub fn minimize_objective<O>(&self, f: &mut O, x0: &[f64]) -> Minimum
    where
        O: Objective + ?Sized,
    {
        match self {
            LocalMethod::Powell => Powell::new().minimize_objective(f, x0),
            LocalMethod::NelderMead => NelderMead::new().minimize_objective(f, x0),
            LocalMethod::Compass => CompassSearch::new().minimize_objective(f, x0),
        }
    }

    /// Human-readable name, used by benchmark harnesses when printing tables.
    pub fn name(&self) -> &'static str {
        match self {
            LocalMethod::Powell => "powell",
            LocalMethod::NelderMead => "nelder-mead",
            LocalMethod::Compass => "compass",
        }
    }
}

/// A deterministic pseudo-random source shared by the global methods.
///
/// All stochastic algorithms in this crate take an explicit `u64` seed so
/// that experiments are reproducible; this helper derives per-component
/// streams from one master seed.
pub(crate) fn derive_rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The crate-wide NaN policy: an undefined objective value is treated as
/// `+inf` so a single bad evaluation can never capture a search. Every
/// minimizer funnels objective values through this one helper.
///
/// `+∞` carries no descent information; a search that has seen nothing else
/// stops. Powell's line search, Nelder–Mead and compass search each end as
/// soon as every value they hold is `+∞`, without moving their point, so an
/// objective that is `+∞` (or NaN) everywhere costs `O(n)` evaluations per
/// local minimization.
pub(crate) fn sanitize_value(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    #[test]
    fn local_method_names_are_stable() {
        assert_eq!(LocalMethod::Powell.name(), "powell");
        assert_eq!(LocalMethod::NelderMead.name(), "nelder-mead");
        assert_eq!(LocalMethod::Compass.name(), "compass");
    }

    #[test]
    fn default_local_method_is_powell() {
        assert_eq!(LocalMethod::default(), LocalMethod::Powell);
    }

    #[test]
    fn every_local_method_finds_quadratic_minimum() {
        for method in [
            LocalMethod::Powell,
            LocalMethod::NelderMead,
            LocalMethod::Compass,
        ] {
            let mut f = |p: &[f64]| (p[0] - 1.5).powi(2) + (p[1] + 2.0).powi(2);
            let m = method.minimize_objective(&mut FnObjective(&mut f), &[10.0, 10.0]);
            assert!(
                m.value < 1e-6,
                "{} failed: value {}",
                method.name(),
                m.value
            );
        }
    }
}
