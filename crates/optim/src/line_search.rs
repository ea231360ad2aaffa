//! One-dimensional minimization used by Powell's method.
//!
//! Powell's direction-set method repeatedly minimizes the objective along a
//! line `t ↦ f(x + t·d)`. This module provides the classic toolbox for that
//! inner problem: initial bracketing of a minimum ([`bracket`]) and Brent's
//! method ([`brent`]), which combines golden-section steps with parabolic
//! interpolation.
//!
//! The implementations follow the standard formulations in *Numerical
//! Recipes* (Press et al.), which is also the reference the paper cites for
//! Powell's algorithm.
//!
//! The 1-D routines take plain `FnMut(f64) -> f64` closures — a line is one
//! dimensional no matter what protocol the surrounding search speaks — and
//! [`minimize_along_ray`] adapts them to the n-dimensional [`Objective`]
//! protocol: it owns the single scratch buffer that maps an abscissa `t` to
//! the point `x + t·d`, so callers like Powell's method never materialize
//! per-evaluation points.
//!
//! `+∞` carries no descent information; a search that has seen nothing else
//! stops. When the bracket's three points are all `+∞` (every execution
//! along the line aborted, or its value was NaN), [`minimize_along`]
//! returns the bracket's interior point at `+∞` instead of running Brent,
//! whose `fu <= fx` rule would otherwise accept every `+∞` probe and walk
//! the plateau down to the abscissa tolerance.

use crate::objective::Objective;
use crate::sanitize_value;

/// A bracketing triple `(a, b, c)` with `a < b < c` (or `a > b > c`) and
/// `f(b) <= f(a)`, `f(b) <= f(c)`, guaranteeing that a minimum of a
/// continuous `f` lies between `a` and `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Left edge of the bracket.
    pub a: f64,
    /// Interior point with the smallest known objective value.
    pub b: f64,
    /// Right edge of the bracket.
    pub c: f64,
    /// `f(a)`.
    pub fa: f64,
    /// `f(b)`.
    pub fb: f64,
    /// `f(c)`.
    pub fc: f64,
    /// Number of objective evaluations spent while bracketing.
    pub evaluations: usize,
}

/// Result of a one-dimensional minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineMinimum {
    /// Abscissa of the minimum.
    pub t: f64,
    /// Objective value at [`LineMinimum::t`].
    pub value: f64,
    /// Number of objective evaluations used.
    pub evaluations: usize,
}

/// Golden ratio constant used to grow brackets.
const GOLD: f64 = 1.618_033_988_749_895;
/// Maximum magnification allowed for a parabolic-fit step while bracketing.
const GLIMIT: f64 = 100.0;
/// Tiny value preventing division by zero in parabolic fits.
const TINY: f64 = 1.0e-20;

/// Brackets a minimum of `f` starting from the points `a` and `b`.
///
/// The routine walks downhill, magnifying its step by the golden ratio (with
/// optional parabolic extrapolation), until the function starts increasing.
/// If `f` keeps decreasing it gives up after `max_evals` evaluations and
/// returns the last triple it saw, which subsequent searches treat as a best
/// effort bracket.
pub fn bracket<F>(f: &mut F, a: f64, b: f64, max_evals: usize) -> Bracket
where
    F: FnMut(f64) -> f64,
{
    let mut evals = 0;
    let eval = |f: &mut F, t: f64, evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(t);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    let (mut ax, mut bx) = (a, b);
    let mut fa = eval(f, ax, &mut evals);
    let mut fb = eval(f, bx, &mut evals);
    if fb > fa {
        std::mem::swap(&mut ax, &mut bx);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut cx = bx + GOLD * (bx - ax);
    let mut fc = eval(f, cx, &mut evals);

    while fb > fc && evals < max_evals {
        // Parabolic extrapolation from a, b, c.
        let r = (bx - ax) * (fb - fc);
        let q = (bx - cx) * (fb - fa);
        let denom = 2.0 * sign_preserving_max(q - r, TINY);
        let mut u = bx - ((bx - cx) * q - (bx - ax) * r) / denom;
        let ulim = bx + GLIMIT * (cx - bx);
        let fu;
        if (bx - u) * (u - cx) > 0.0 {
            // u is between b and c: try it.
            fu = eval(f, u, &mut evals);
            if fu < fc {
                // Minimum between b and c.
                return Bracket {
                    a: bx,
                    b: u,
                    c: cx,
                    fa: fb,
                    fb: fu,
                    fc,
                    evaluations: evals,
                };
            } else if fu > fb {
                // Minimum between a and u.
                return Bracket {
                    a: ax,
                    b: bx,
                    c: u,
                    fa,
                    fb,
                    fc: fu,
                    evaluations: evals,
                };
            }
            // Parabolic fit was useless; use default magnification.
            u = cx + GOLD * (cx - bx);
            let fu2 = eval(f, u, &mut evals);
            shift3(&mut ax, &mut bx, &mut cx, u);
            shift3(&mut fa, &mut fb, &mut fc, fu2);
            continue;
        } else if (cx - u) * (u - ulim) > 0.0 {
            // Fit is between c and the allowed limit.
            let fu_probe = eval(f, u, &mut evals);
            if fu_probe < fc {
                // Keep walking downhill: discard a, slide everything left and
                // take one more golden step past u.
                let unew = u + GOLD * (u - cx);
                let fnew = eval(f, unew, &mut evals);
                ax = cx;
                fa = fc;
                bx = u;
                fb = fu_probe;
                cx = unew;
                fc = fnew;
                continue;
            }
            fu = fu_probe;
        } else if (u - ulim) * (ulim - cx) >= 0.0 {
            // Limit the step to ulim.
            u = ulim;
            fu = eval(f, u, &mut evals);
        } else {
            // Reject the fit, use default magnification.
            u = cx + GOLD * (cx - bx);
            fu = eval(f, u, &mut evals);
        }
        shift3(&mut ax, &mut bx, &mut cx, u);
        shift3(&mut fa, &mut fb, &mut fc, fu);
    }

    Bracket {
        a: ax,
        b: bx,
        c: cx,
        fa,
        fb,
        fc,
        evaluations: evals,
    }
}

fn shift3(a: &mut f64, b: &mut f64, c: &mut f64, d: f64) {
    *a = *b;
    *b = *c;
    *c = d;
}

fn sign_preserving_max(value: f64, floor: f64) -> f64 {
    if value.abs() > floor {
        value
    } else if value >= 0.0 {
        floor
    } else {
        -floor
    }
}

/// Brent's method: parabolic interpolation guarded by golden sections.
///
/// This is the line minimizer Powell's method uses. `tol` is a relative
/// tolerance on the abscissa; values around `1e-8` are appropriate for
/// double-precision objectives.
pub fn brent<F>(f: &mut F, bracket: &Bracket, tol: f64, max_iters: usize) -> LineMinimum
where
    F: FnMut(f64) -> f64,
{
    const CGOLD: f64 = 0.381_966_011_250_105;
    const ZEPS: f64 = 1.0e-18;

    let mut evals = 0;
    let mut a = bracket.a.min(bracket.c);
    let mut b = bracket.a.max(bracket.c);
    let mut x = bracket.b;
    let mut w = bracket.b;
    let mut v = bracket.b;
    let mut fx = bracket.fb;
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;

    for _ in 0..max_iters {
        let xm = 0.5 * (a + b);
        let tol1 = tol * x.abs() + ZEPS;
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (b - a) {
            return LineMinimum {
                t: x,
                value: fx,
                evaluations: evals,
            };
        }
        if e.abs() > tol1 {
            // Attempt a parabolic fit through x, v, w.
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() >= (0.5 * q * etemp).abs() || p <= q * (a - x) || p >= q * (b - x) {
                // Fit rejected: golden-section step into the larger segment.
                e = if x >= xm { a - x } else { b - x };
                d = CGOLD * e;
            } else {
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = tol1.copysign(xm - x);
                }
            }
        } else {
            e = if x >= xm { a - x } else { b - x };
            d = CGOLD * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = {
            evals += 1;
            let v = f(u);
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        };
        if fu <= fx {
            if u >= x {
                a = x;
            } else {
                b = x;
            }
            shift3(&mut v, &mut w, &mut x, u);
            shift3(&mut fv, &mut fw, &mut fx, fu);
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }

    LineMinimum {
        t: x,
        value: fx,
        evaluations: evals,
    }
}

/// Convenience wrapper: bracket from `(0, step)` then run Brent.
///
/// This is the call Powell's method makes for each direction sweep. A
/// bracket that saw only `+∞` ends the search after its own evaluations
/// (see the [module docs](self)).
pub fn minimize_along<F>(f: &mut F, step: f64, tol: f64) -> LineMinimum
where
    F: FnMut(f64) -> f64,
{
    let br = bracket(f, 0.0, step, 200);
    if [br.fa, br.fb, br.fc].iter().all(|&v| v == f64::INFINITY) {
        return LineMinimum {
            t: br.b,
            value: f64::INFINITY,
            evaluations: br.evaluations,
        };
    }
    let mut result = brent(f, &br, tol, 100);
    result.evaluations += br.evaluations;
    // Guard: never return a point worse than the bracket's best interior point.
    if br.fb < result.value {
        result = LineMinimum {
            t: br.b,
            value: br.fb,
            evaluations: result.evaluations,
        };
    }
    result
}

/// Minimizes an [`Objective`] along the ray `t ↦ point + t·direction`.
///
/// Returns the minimizing point, its objective value, and the number of
/// objective evaluations spent. NaN objective values are treated as `+inf`
/// (as everywhere in this crate) so an undefined region cannot capture the
/// line search.
///
/// Every abscissa the search visits costs exactly one
/// [`eval_scalar`](Objective::eval_scalar) call, and the returned count is
/// the number of those calls. Nothing is evaluated speculatively, so the
/// line search never batches even when the objective reports a lane width:
/// the bracketing walk consumes its probes one at a time, and a batch of
/// guessed abscissae would mostly execute points whose values are never
/// read.
pub fn minimize_along_ray<O>(
    f: &mut O,
    point: &[f64],
    direction: &[f64],
    step: f64,
    tol: f64,
) -> (Vec<f64>, f64, usize)
where
    O: Objective + ?Sized,
{
    let mut scratch = point.to_vec();
    let mut g = |t: f64| {
        for ((s, p), d) in scratch.iter_mut().zip(point).zip(direction) {
            *s = p + t * d;
        }
        sanitize_value(f.eval_scalar(&scratch))
    };
    let line = minimize_along(&mut g, step, tol);
    let new_point: Vec<f64> = point
        .iter()
        .zip(direction)
        .map(|(p, d)| p + line.t * d)
        .collect();
    (new_point, line.value, line.evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    fn quad(t: f64) -> f64 {
        (t - 2.5).powi(2) + 1.0
    }

    #[test]
    fn bracket_encloses_minimum() {
        let mut f = quad;
        let br = bracket(&mut f, 0.0, 1.0, 100);
        let lo = br.a.min(br.c);
        let hi = br.a.max(br.c);
        assert!(lo <= 2.5 && 2.5 <= hi, "bracket [{lo}, {hi}] misses 2.5");
        assert!(br.fb <= br.fa && br.fb <= br.fc);
    }

    #[test]
    fn bracket_walks_downhill_from_the_right() {
        let mut f = quad;
        let br = bracket(&mut f, 10.0, 9.0, 100);
        let lo = br.a.min(br.c);
        let hi = br.a.max(br.c);
        assert!(lo <= 2.5 && 2.5 <= hi);
    }

    #[test]
    fn brent_finds_quadratic_minimum() {
        let mut f = quad;
        let br = bracket(&mut f, 0.0, 1.0, 100);
        let m = brent(&mut f, &br, 1e-10, 200);
        assert!((m.t - 2.5).abs() < 1e-6);
        assert!((m.value - 1.0).abs() < 1e-10);
    }

    #[test]
    fn brent_handles_flat_plateau() {
        // f is 0 for t <= 1 and grows afterwards: the minimum set is a ray.
        let mut f = |t: f64| if t <= 1.0 { 0.0 } else { (t - 1.0).powi(2) };
        let m = minimize_along(&mut f, 1.0, 1e-9);
        assert!(m.value <= 1e-12);
    }

    #[test]
    fn minimize_along_piecewise_objective() {
        // The Fig. 2(a) objective of the paper.
        let mut f = |t: f64| if t <= 1.0 { 0.0 } else { (t - 1.0).powi(2) };
        let m = minimize_along(&mut f, 0.5, 1e-9);
        assert_eq!(m.value, 0.0);

        // The Fig. 2(b) objective restricted to one basin.
        let mut g = |t: f64| {
            if t <= 1.0 {
                ((t + 1.0).powi(2) - 4.0).powi(2)
            } else {
                (t * t - 4.0).powi(2)
            }
        };
        let m = minimize_along(&mut g, 0.25, 1e-9);
        assert!(m.value < 1e-8, "value {}", m.value);
    }

    #[test]
    fn nan_objective_is_treated_as_infinite() {
        let mut f = |t: f64| if t < 0.0 { f64::NAN } else { (t - 1.0).powi(2) };
        let m = minimize_along(&mut f, 0.5, 1e-9);
        assert!((m.t - 1.0).abs() < 1e-4);
    }

    #[test]
    fn all_infinite_bracket_stops_after_three_evaluations() {
        // `+∞` everywhere, and NaN everywhere (sanitized to `+∞`): the
        // bracket's three points are the whole search.
        for plateau in [f64::INFINITY, f64::NAN] {
            let mut count = 0usize;
            let mut f = |_: f64| {
                count += 1;
                plateau
            };
            let m = minimize_along(&mut f, 1.0, 1e-8);
            assert_eq!(m.evaluations, 3, "plateau {plateau}");
            assert_eq!(count, 3, "plateau {plateau}");
            assert_eq!(m.value, f64::INFINITY);
            assert_eq!(m.t, 1.0, "the bracket's interior point");
        }
    }

    #[test]
    fn one_finite_bracket_point_keeps_the_brent_search() {
        // Only the third bracket point (t = 1 + φ) is finite: the bracket
        // is not all-`+∞`, so Brent still runs and finds the minimum at 3.
        let mut f = |t: f64| {
            if t >= 2.0 {
                (t - 3.0).powi(2)
            } else {
                f64::INFINITY
            }
        };
        let m = minimize_along(&mut f, 1.0, 1e-9);
        assert!((m.t - 3.0).abs() < 1e-4, "t {}", m.t);
        assert!(m.value < 1e-8, "value {}", m.value);
        assert!(m.evaluations > 3);
    }

    #[test]
    fn ray_minimization_matches_scalar_line_search() {
        // Minimizing f(x, y) = (x - 3)^2 + y^2 along the x axis from the
        // origin must land on the same abscissa the 1-D routine finds.
        let mut objective = FnObjective(|p: &[f64]| (p[0] - 3.0).powi(2) + p[1] * p[1]);
        let (point, value, evals) =
            minimize_along_ray(&mut objective, &[0.0, 0.0], &[1.0, 0.0], 1.0, 1e-9);
        let mut g = |t: f64| (t - 3.0).powi(2);
        let line = minimize_along(&mut g, 1.0, 1e-9);
        assert_eq!(point[0].to_bits(), line.t.to_bits());
        assert_eq!(point[1], 0.0);
        assert_eq!(value.to_bits(), line.value.to_bits());
        assert_eq!(evals, line.evaluations);
    }

    #[test]
    fn ray_minimization_treats_nan_as_infinite() {
        let mut objective = FnObjective(|p: &[f64]| {
            if p[0] < 0.0 {
                f64::NAN
            } else {
                (p[0] - 1.0).powi(2)
            }
        });
        let (point, value, _) = minimize_along_ray(&mut objective, &[4.0], &[-1.0], 0.5, 1e-9);
        assert!((point[0] - 1.0).abs() < 1e-4);
        assert!(value < 1e-6);
    }

    #[test]
    fn ray_search_never_batches_and_counts_every_scalar_call() {
        // An objective that advertises lanes still gets one scalar call per
        // counted evaluation and no batch at all, and lands on the same
        // point and value as a lane-less twin.
        struct Laned {
            batches: usize,
            scalars: usize,
        }
        impl Objective for Laned {
            fn eval_scalar(&mut self, point: &[f64]) -> f64 {
                self.scalars += 1;
                (point[0] - 3.0).powi(2) + (point[1] + 0.5).powi(4)
            }
            fn eval_batch(&mut self, points: &[Vec<f64>], out: &mut Vec<f64>) {
                self.batches += 1;
                for p in points {
                    let v = self.eval_scalar(p);
                    out.push(v);
                }
            }
            fn preferred_batch(&self) -> usize {
                16
            }
        }
        let mut laned = Laned {
            batches: 0,
            scalars: 0,
        };
        let (point, value, evals) =
            minimize_along_ray(&mut laned, &[0.0, -0.5], &[1.0, 0.0], 1.0, 1e-9);
        assert_eq!(laned.batches, 0);
        assert_eq!(laned.scalars, evals);
        let mut scalar = FnObjective(|p: &[f64]| (p[0] - 3.0).powi(2) + (p[1] + 0.5).powi(4));
        let (spoint, svalue, sevals) =
            minimize_along_ray(&mut scalar, &[0.0, -0.5], &[1.0, 0.0], 1.0, 1e-9);
        assert_eq!(point[0].to_bits(), spoint[0].to_bits());
        assert_eq!(point[1].to_bits(), spoint[1].to_bits());
        assert_eq!(value.to_bits(), svalue.to_bits());
        assert_eq!(evals, sevals);
    }

    #[test]
    fn minimize_along_counts_evaluations() {
        let mut count = 0usize;
        let mut f = |t: f64| {
            count += 1;
            (t - 3.0).powi(2)
        };
        let m = minimize_along(&mut f, 1.0, 1e-8);
        assert_eq!(count, m.evaluations);
    }
}
