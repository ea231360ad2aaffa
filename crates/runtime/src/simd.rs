//! The lane kernel: an elementwise branch-distance loop over
//! structure-of-array `f64` slices.
//!
//! The lane finalize ([`crate::lane`]) computes one branch distance per
//! lane over SoA operand buffers; that is the one data-parallel loop of
//! the system. It runs the plain loop below on every architecture; the
//! compiler vectorizes what it can.
//!
//! # Bit-exactness
//!
//! The kernel computes exactly the scalar formula on each lane: it is
//! written as select chains that mirror [`crate::distance`] operation for
//! operation (NaN rule, `square`'s overflow saturation). The unit tests
//! below pin it against the scalar reference over NaN/inf operand pools.

use crate::distance::Cmp;
use crate::lane::LANE_WIDTH;

/// The instruction set of the lane kernels. Only the portable loops
/// remain, so this is a single-variant type kept for the end-to-end
/// benchmark harness (`perfbench/`), which links it by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdIsa {
    /// The plain Rust loops of this module.
    Portable,
}

impl SimdIsa {
    /// Stable lowercase label (`"portable"`). Kept for the benchmark
    /// harness.
    pub fn label(self) -> &'static str {
        "portable"
    }

    /// Parses a label (the inverse of [`label`](Self::label)). Kept for
    /// the benchmark harness.
    pub fn parse(s: &str) -> Option<SimdIsa> {
        (s == "portable").then_some(SimdIsa::Portable)
    }

    /// Always `true`: the portable loops run everywhere. Kept for the
    /// benchmark harness.
    pub fn is_supported(self) -> bool {
        true
    }

    /// The lane width, [`LANE_WIDTH`]. Kept for the benchmark harness.
    pub fn lane_width(self) -> usize {
        LANE_WIDTH
    }

    /// Accepts the only ISA there is; a no-op kept for the benchmark
    /// harness.
    pub fn force(_isa: SimdIsa) -> Result<(), String> {
        Ok(())
    }

    /// The ISA in use: always [`SimdIsa::Portable`]. Kept for the
    /// benchmark harness.
    pub fn active() -> SimdIsa {
        SimdIsa::Portable
    }
}

/// Elementwise branch distance `d_ε(op, a[k], b[k])` (Definition 4.1) over
/// SoA operand slices, bit-identical to [`crate::distance`] per lane.
/// `Ge`/`Gt` are folded onto `Le`/`Lt` by operand swap exactly like the
/// scalar implementation.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn distance_lanes(op: Cmp, a: &[f64], b: &[f64], epsilon: f64, out: &mut [f64]) {
    let n = out.len();
    assert!(a.len() == n && b.len() == n, "SoA slice lengths disagree");
    // `square(a - b)` with its overflow saturation, and the NaN rule
    // applied as a final select.
    let square = |k: usize| {
        let d = a[k] - b[k];
        let sq = d * d;
        if sq.is_infinite() {
            f64::MAX
        } else {
            sq
        }
    };
    let nan_rule = |k: usize, v: f64| {
        if a[k].is_nan() || b[k].is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    match op {
        Cmp::Ge => distance_lanes(Cmp::Le, b, a, epsilon, out),
        Cmp::Gt => distance_lanes(Cmp::Lt, b, a, epsilon, out),
        Cmp::Eq => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = nan_rule(k, square(k));
            }
        }
        Cmp::Le => {
            for k in 0..n {
                let v = if a[k] <= b[k] { 0.0 } else { square(k) };
                out[k] = nan_rule(k, v);
            }
        }
        Cmp::Lt => {
            for k in 0..n {
                let v = if a[k] < b[k] {
                    0.0
                } else {
                    square(k) + epsilon
                };
                out[k] = nan_rule(k, v);
            }
        }
        // distance(Ne, NaN, _) is 0 — `a != b` already holds for NaN, so
        // the generic select covers the NaN rule too.
        Cmp::Ne => {
            for k in 0..n {
                out[k] = if a[k] != b[k] { 0.0 } else { epsilon };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{distance, DEFAULT_EPSILON};

    /// Operand pool covering every special-value interaction the distance
    /// kernel selects on: NaN, ±inf (inf−inf produces NaN from non-NaN
    /// operands), overflow squares, ±0, denormals.
    fn pool() -> Vec<f64> {
        vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e300,
            -1e300,
            5e-324,
            f64::MAX,
            2.5,
            -7.25,
        ]
    }

    /// Every ordered pair of pool operands, as SoA slices.
    fn pairs() -> (Vec<f64>, Vec<f64>) {
        let pool = pool();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &pool {
            for &y in &pool {
                a.push(x);
                b.push(y);
            }
        }
        (a, b)
    }

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        let isa = SimdIsa::active();
        assert_eq!(SimdIsa::parse(isa.label()), Some(isa));
        assert_eq!(isa.lane_width(), LANE_WIDTH);
        assert!(isa.is_supported());
        assert_eq!(SimdIsa::force(isa), Ok(()));
        for gone in ["sse2", "avx2", "avx512", ""] {
            assert_eq!(SimdIsa::parse(gone), None);
        }
    }

    #[test]
    fn every_supported_isa_matches_the_scalar_distance_bit_for_bit() {
        let (a, b) = pairs();
        for op in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            for epsilon in [DEFAULT_EPSILON, 0.25, 2.0] {
                let mut out = vec![0.0; a.len()];
                distance_lanes(op, &a, &b, epsilon, &mut out);
                for k in 0..a.len() {
                    let expect = distance(op, a[k], b[k], epsilon);
                    assert_eq!(
                        out[k].to_bits(),
                        expect.to_bits(),
                        "{op:?} d({}, {}) = {} want {}",
                        a[k],
                        b[k],
                        out[k],
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn odd_lengths_exercise_the_vector_tail() {
        // Lengths around common vector widths, so whatever the compiler
        // vectorizes runs both its packed loop and its scalar tail.
        let pool = pool();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            let a: Vec<f64> = (0..len).map(|k| pool[k % pool.len()]).collect();
            let b: Vec<f64> = (0..len).map(|k| pool[(k * 5 + 3) % pool.len()]).collect();
            let mut out = vec![0.0; len];
            distance_lanes(Cmp::Le, &a, &b, DEFAULT_EPSILON, &mut out);
            for k in 0..len {
                let expect = distance(Cmp::Le, a[k], b[k], DEFAULT_EPSILON);
                assert_eq!(out[k].to_bits(), expect.to_bits(), "len {len} k {k}");
            }
        }
    }
}
