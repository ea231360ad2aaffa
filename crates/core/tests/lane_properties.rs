//! Property-based tests for the lane-parallel evaluation backend
//! (`coverme_runtime::lane` behind `coverme::objective::ObjectiveEngine`).
//!
//! The lane backend's contract:
//!
//! * the lane path agrees **bit for bit** with the scalar engine path on
//!   any program, any saturation snapshot, and any batch size — including
//!   NaN/inf inputs and operands, and sites masked out because both of
//!   their branches are saturated (`pen` case (c), where only the deferral
//!   algebra keeps the previous event alive);
//! * batch grouping is semantically invisible: one batch of `n` points,
//!   `n` scalar calls, and any chunked split produce identical values;
//! * the memoization cache composes with lanes: a batch evaluated after
//!   some of its points are already cached (partial hits, any interleaving)
//!   returns the same values and serves the cached points without
//!   re-executing.
//!
//! Programs are generated from the same straight-line family the shard and
//! objective property suites use, extended with special-value injection so
//! comparisons see NaN and ±inf operands.

// `x - x` / `0/0` idioms deliberately materialize NaN from a runtime value,
// the same way the Fdlibm ports do.
#![allow(clippy::eq_op)]

use proptest::prelude::*;

use coverme::objective::ObjectiveEngine;
use coverme::{
    BranchId, BranchSet, Cmp, ExecCtx, FnProgram, Objective, Program, RepresentingFunction,
};
use coverme_runtime::{LaneCtx, DEFAULT_EPSILON, LANE_WIDTH};

/// Specification of one conditional site of a generated program.
#[derive(Debug, Clone)]
struct SiteSpec {
    op: Cmp,
    /// The condition compares `coeff * x + offset` against `constant`.
    coeff: f64,
    offset: f64,
    constant: f64,
    /// Whether taking the true branch perturbs `x` before later sites.
    mutates: bool,
    /// Whether taking the false branch poisons `x` with `0/0` (NaN), so
    /// downstream comparisons exercise the NaN distance paths.
    poisons: bool,
}

/// A generated straight-line program over one double input with data flow
/// between sites, including NaN-producing paths.
fn build_program(specs: Vec<SiteSpec>) -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    let num_sites = specs.len();
    FnProgram::new(
        "lane-gen",
        1,
        num_sites,
        move |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            for (site, spec) in specs.iter().enumerate() {
                let lhs = spec.coeff * x + spec.offset;
                if ctx.branch(site as u32, spec.op, lhs, spec.constant) {
                    if spec.mutates {
                        x = x * 0.5 + 1.0;
                    }
                } else if spec.poisons {
                    x = (x - x) / (x - x);
                }
            }
        },
    )
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Ne),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
    ]
}

fn site_strategy() -> impl Strategy<Value = SiteSpec> {
    (
        cmp_strategy(),
        -3.0..3.0f64,
        -10.0..10.0f64,
        -10.0..10.0f64,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(op, coeff, offset, constant, mutates, poisons)| SiteSpec {
            op,
            coeff,
            offset,
            constant,
            mutates,
            poisons,
        })
}

fn program_strategy() -> impl Strategy<Value = Vec<SiteSpec>> {
    prop::collection::vec(site_strategy(), 1..6)
}

/// Input points: finite values plus the IEEE specials (roughly 4:6 odds of
/// a special per draw, picked by discriminant since the vendored proptest
/// subset has no weighted `prop_oneof!`).
fn point_strategy() -> impl Strategy<Value = f64> {
    (0..10u8, -50.0..50.0f64).prop_map(|(kind, finite)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e300,
        5 => 5e-324,
        _ => finite,
    })
}

/// A saturation snapshot over `num_sites` conditionals, derived from a
/// random bitmask (two bits per site). Masks with both bits set per site
/// exercise the `pen` keep-previous case — the "masked" sites of the lane
/// backend's deferral.
fn snapshot_from_mask(num_sites: usize, mask: u64) -> BranchSet {
    let mut snapshot = BranchSet::with_sites(num_sites);
    for site in 0..num_sites {
        if mask & (1 << (2 * site)) != 0 {
            snapshot.insert(BranchId::true_of(site as u32));
        }
        if mask & (1 << (2 * site + 1)) != 0 {
            snapshot.insert(BranchId::false_of(site as u32));
        }
    }
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lane evaluation equals scalar evaluation bit for bit at every batch
    /// size from 1 to 32, on any snapshot, with special-value inputs.
    #[test]
    fn lane_path_matches_scalar_path_at_every_batch_size(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(point_strategy(), 1..32),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        // Uncached engines so every lane value comes from a lane execution.
        let mut lane_engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        lane_engine.retarget(&snapshot);
        let mut lane_values = Vec::new();
        lane_engine.eval_lanes(&points, &mut lane_values);
        prop_assert_eq!(lane_values.len(), points.len());

        let mut scalar_engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        scalar_engine.retarget(&snapshot);
        for (point, lane_value) in points.iter().zip(&lane_values) {
            let scalar = scalar_engine.eval_scalar(point);
            prop_assert_eq!(
                scalar.to_bits(), lane_value.to_bits(),
                "lane {} vs scalar {} at {:?}", lane_value, scalar, point
            );
        }

        // The raw LaneCtx agrees too (no engine, no cache in the way).
        let mut raw = LaneCtx::new(snapshot.clone()).with_epsilon(DEFAULT_EPSILON);
        let mut raw_values = Vec::new();
        raw.eval_batch(&points, &mut raw_values, |x, ctx| program.execute(x, ctx));
        for (raw_value, lane_value) in raw_values.iter().zip(&lane_values) {
            prop_assert_eq!(raw_value.to_bits(), lane_value.to_bits());
        }
    }

    /// Chunking is invisible: any split of the same point stream produces
    /// the values of the unsplit batch, in order.
    #[test]
    fn chunked_and_unchunked_batches_agree(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(point_strategy(), 2..24),
        chunk in 1..9usize,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        let fresh = || {
            let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
            engine.retarget(&snapshot);
            engine
        };
        let mut whole = Vec::new();
        fresh().eval_lanes(&points, &mut whole);
        let mut chunked = Vec::new();
        let mut chunked_engine = fresh();
        for piece in points.chunks(chunk) {
            // Dispatch through the Objective seam: small chunks take the
            // scalar path, large ones the lane path — the values must not
            // care.
            chunked_engine.eval_batch(piece, &mut chunked);
        }
        prop_assert_eq!(whole.len(), chunked.len());
        for (a, b) in whole.iter().zip(&chunked) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Fully saturated ("masked") sites keep the previous event alive
    /// across the deferral: a snapshot that saturates both branches of
    /// every site yields exactly 1.0 (the accumulator's initial value) on
    /// the lane path, matching the eager path.
    #[test]
    fn fully_masked_snapshots_preserve_the_initial_accumulator(
        specs in program_strategy(),
        xs in prop::collection::vec(point_strategy(), 1..16),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let mut snapshot = BranchSet::with_sites(num_sites);
        for site in 0..num_sites {
            snapshot.insert(BranchId::true_of(site as u32));
            snapshot.insert(BranchId::false_of(site as u32));
        }
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        engine.retarget(&snapshot);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let mut values = Vec::new();
        engine.eval_lanes(&points, &mut values);
        for (point, value) in points.iter().zip(&values) {
            let foo_r = RepresentingFunction::new(&program, snapshot.clone());
            prop_assert_eq!(value.to_bits(), foo_r.eval(point).to_bits());
            prop_assert_eq!(*value, 1.0);
        }
    }

    /// Cache interaction: a lane batch evaluated after an arbitrary prefix
    /// of its points was already evaluated (and therefore cached) returns
    /// the same values, and the cached points are served as hits without
    /// re-execution.
    #[test]
    fn lane_batches_after_partial_cache_hits_agree(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(-50.0..50.0f64, 4..20),
        warm in 0..20usize,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let warm = warm.min(points.len());

        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(true);
        engine.retarget(&snapshot);
        // Warm the cache with a prefix through the scalar path.
        let mut warmed = Vec::new();
        for point in &points[..warm] {
            warmed.push(engine.eval_scalar(point));
        }
        let evals_before = engine.telemetry().evals;
        let hits_before = engine.telemetry().cache_hits;

        // Now the whole batch through the lane path.
        let mut values = Vec::new();
        engine.eval_lanes(&points, &mut values);
        let telemetry = engine.telemetry();

        // Values agree with an entirely uncached engine.
        let mut reference = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        reference.retarget(&snapshot);
        for (point, value) in points.iter().zip(&values) {
            prop_assert_eq!(reference.eval_scalar(point).to_bits(), value.to_bits());
        }
        // And the warmed prefix matches what the scalar warm-up returned.
        for (value, warmed_value) in values.iter().zip(&warmed) {
            prop_assert_eq!(value.to_bits(), warmed_value.to_bits());
        }
        // Direct-mapped collisions may evict warmed entries (and duplicate
        // points within the batch re-execute), so hits are bounded by the
        // warmed prefix, and every non-hit was a real execution.
        let batch_hits = telemetry.cache_hits - hits_before;
        prop_assert!(batch_hits <= warm as u64);
        prop_assert_eq!(
            telemetry.evals - evals_before,
            points.len() as u64 - batch_hits
        );
    }
}

/// A deterministic end-to-end cross-check on a real Fdlibm benchmark: the
/// lane path, the scalar path, and the pre-engine legacy path agree on
/// `ieee754_pow` (the suite's most branch-dense function) against a
/// half-saturated snapshot, on a grid that includes special values.
#[test]
fn lane_path_matches_legacy_on_pow() {
    let benchmark = coverme_fdlibm::by_name("pow").expect("pow is in the suite");
    let num_sites = coverme_runtime::Program::num_sites(&benchmark);
    let mut saturated = BranchSet::with_sites(num_sites);
    for site in (0..num_sites).step_by(2) {
        saturated.insert(BranchId::true_of(site as u32));
    }
    let mut grid: Vec<Vec<f64>> = Vec::new();
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        2.0,
        1e300,
        f64::NAN,
        f64::INFINITY,
    ];
    for &x in &specials {
        for &y in &specials {
            grid.push(vec![x, y]);
        }
    }
    let mut engine = ObjectiveEngine::new(&benchmark, DEFAULT_EPSILON).with_cache(false);
    engine.retarget(&saturated);
    let mut values = Vec::new();
    engine.eval_lanes(&grid, &mut values);
    for (point, value) in grid.iter().zip(&values) {
        let mut ctx = ExecCtx::representing(saturated.clone());
        coverme_runtime::Program::execute(&benchmark, point, &mut ctx);
        assert_eq!(
            value.to_bits(),
            ctx.representing_value().to_bits(),
            "lane diverged from legacy on pow at {point:?}"
        );
    }
    // Partial last lane groups (the grid is not a LANE_WIDTH multiple)
    // still produce one value per point.
    assert!(!grid.len().is_multiple_of(LANE_WIDTH));
    assert_eq!(values.len(), grid.len());
}
