//! Property-based tests for the objective engine (`coverme::objective`).
//!
//! The engine's contract (module docs):
//!
//! * the scalar fast path, the batch entry point, and the legacy
//!   full-`Evaluation` path agree **bit for bit** on the same inputs, for
//!   any saturation snapshot, and a batch costs exactly what a per-point
//!   scalar loop costs (calls, aborts);
//! * retargeting never serves a stale value: after any sequence of
//!   snapshot swaps, the engine's values equal freshly computed ones;
//! * the evaluation ledger is exact: a search reports one evaluation per
//!   program execution.
//!
//! Checked on randomly generated straight-line programs (affine conditions
//! over one input, with data flow between sites and NaN-poisoning false
//! branches), and on `ieee754_pow`, the suite's most branch-dense function.

// `x - x` / `0/0` idioms deliberately materialize NaN from a runtime value,
// the same way the Fdlibm ports do.
#![allow(clippy::eq_op)]

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use coverme::objective::ObjectiveEngine;
use coverme::{
    BranchId, BranchSet, Cmp, CoverMe, CoverMeConfig, ExecCtx, FnProgram, Program,
    RepresentingFunction,
};
use coverme_runtime::DEFAULT_EPSILON;

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

/// A generated straight-line program: a sequence of conditionals over a
/// single double input, with the true branches feeding modified values to
/// later sites and poisoning false branches feeding them NaN.
fn build_program(specs: Vec<SiteSpec>) -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    let num_sites = specs.len();
    FnProgram::new(
        "generated",
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
    prop::collection::vec(site_strategy(), 1..5)
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
/// random bitmask (two bits per site: true branch, false branch).
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

/// Checks every evaluation path on `batch` against `snapshot`.
///
/// Two engines are warmed with the same `warm`-point prefix, then
/// one takes the whole batch through [`Objective::eval_batch`] and its twin
/// takes it point by point through `eval_scalar`. The values must agree bit
/// for bit with each other, with the engine's full path and with the
/// legacy [`RepresentingFunction`] paths, and the twins' telemetry must be
/// equal: a batch is exactly a scalar loop, duplicates included.
fn check_paths_agree<P: Program>(
    program: &P,
    snapshot: &BranchSet,
    batch: &[Vec<f64>],
    warm: usize,
) {
    let engine = || {
        let mut engine = ObjectiveEngine::new(program, DEFAULT_EPSILON);
        engine.retarget(snapshot);
        engine
    };
    let mut batch_engine = engine();
    let mut scalar_engine = engine();
    for point in &batch[..warm] {
        let warmed = batch_engine.eval_scalar(point);
        prop_assert_eq!(warmed.to_bits(), scalar_engine.eval_scalar(point).to_bits());
    }
    let mut batched = Vec::new();
    batch_engine.eval_batch(batch, &mut batched);
    let scalar: Vec<f64> = batch.iter().map(|p| scalar_engine.eval_scalar(p)).collect();
    prop_assert_eq!(batched.len(), batch.len());
    prop_assert_eq!(batch_engine.telemetry(), scalar_engine.telemetry());

    let foo_r = RepresentingFunction::new(program, snapshot.clone());
    for ((point, value), batched_value) in batch.iter().zip(&scalar).zip(&batched) {
        let full = batch_engine.eval_full(point);
        let legacy_fast = foo_r.eval(point);
        let legacy_full = foo_r.eval_full(point);
        prop_assert_eq!(value.to_bits(), batched_value.to_bits(), "at {:?}", point);
        prop_assert_eq!(value.to_bits(), full.value.to_bits());
        prop_assert_eq!(value.to_bits(), legacy_fast.to_bits());
        prop_assert_eq!(value.to_bits(), legacy_full.value.to_bits());
        // The full paths agree on coverage and trace too.
        prop_assert_eq!(&full.covered, &legacy_full.covered);
        prop_assert_eq!(&full.trace, &legacy_full.trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The evaluation paths — engine scalar, engine batch, engine full,
    /// legacy fast and legacy full `Evaluation` — agree bit for bit at
    /// every batch size, for any saturation snapshot, on NaN/±inf inputs;
    /// a fully masked snapshot (both branches of every site saturated)
    /// keeps `r` at its initial `1`. Batches carry adjacent duplicates
    /// (inside one 8-point group, where a lane path would have probed
    /// both before inserting either) and arrive after a warm prefix, and
    /// still cost exactly what the scalar loop costs.
    #[test]
    fn scalar_batch_and_full_paths_agree_bit_for_bit(
        specs in program_strategy(),
        mask in 0..256u64,
        masked in any::<bool>(),
        xs in prop::collection::vec(point_strategy(), 1..32),
        dups in prop::collection::vec(0..40usize, 1..8),
        warm in 0..40usize,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let mask = if masked { u64::MAX } else { mask };
        let snapshot = snapshot_from_mask(num_sites, mask);
        let mut batch: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        for dup in dups {
            let at = dup % batch.len();
            batch.insert(at + 1, batch[at].clone());
        }
        let warm = warm.min(batch.len());
        check_paths_agree(&program, &snapshot, &batch, warm);
        if masked {
            let foo_r = RepresentingFunction::new(&program, snapshot);
            for point in &batch {
                prop_assert_eq!(foo_r.eval(point), 1.0);
            }
        }
    }

    /// Retargeting through an arbitrary sequence of snapshots never leaves
    /// a stale value behind: after every swap, the engine's answers equal
    /// a freshly built representing function's.
    #[test]
    fn retargeting_never_serves_stale_values(
        specs in program_strategy(),
        masks in prop::collection::vec(0..256u64, 2..6),
        x in -50.0..50.0f64,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
        for mask in masks {
            let snapshot = snapshot_from_mask(num_sites, mask);
            engine.retarget(&snapshot);
            let fresh = RepresentingFunction::new(&program, snapshot);
            prop_assert_eq!(engine.eval_scalar(&[x]).to_bits(), fresh.eval(&[x]).to_bits());
        }
    }
}

/// The same check on a real Fdlibm benchmark: `ieee754_pow` (30 sites)
/// against a half-saturated snapshot, on a grid of special values plus
/// adjacent duplicates, after a warm prefix.
#[test]
fn scalar_batch_and_full_paths_agree_on_pow() {
    let benchmark = coverme_fdlibm::by_name("pow").expect("pow is in the suite");
    let num_sites = Program::num_sites(&benchmark);
    let mut saturated = BranchSet::with_sites(num_sites);
    for site in (0..num_sites).step_by(2) {
        saturated.insert(BranchId::true_of(site as u32));
    }
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
    let mut batch: Vec<Vec<f64>> = Vec::new();
    for &x in &specials {
        for &y in &specials {
            batch.push(vec![x, y]);
            if y == 2.0 {
                batch.push(vec![x, y]);
            }
        }
    }
    check_paths_agree(&benchmark, &saturated, &batch, 20);
}

/// Telemetry bookkeeping stays consistent on real searches: the report's
/// counters match what the engine saw.
#[test]
fn search_telemetry_is_internally_consistent() {
    let program = {
        let specs = vec![
            SiteSpec {
                op: Cmp::Le,
                coeff: 1.0,
                offset: 0.0,
                constant: 1.0,
                mutates: true,
                poisons: false,
            },
            SiteSpec {
                op: Cmp::Eq,
                coeff: 1.0,
                offset: 2.0,
                constant: 4.0,
                mutates: false,
                poisons: false,
            },
        ];
        build_program(specs)
    };
    let report = CoverMe::new(CoverMeConfig::default().with_n_start(40).with_seed(5)).run(&program);
    assert!(report.evaluations > 0);
    // Per-round evaluation counts never exceed the total.
    let per_round: usize = report.rounds.iter().map(|r| r.evaluations).sum();
    assert!(per_round <= report.evaluations);
}

/// A program wrapper that counts its executions. It offers no backend of
/// its own, so every evaluation the engine makes runs through `execute`.
struct Counting<P> {
    inner: P,
    executions: AtomicUsize,
}

impl<P: Program> Program for Counting<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn num_sites(&self) -> usize {
        self.inner.num_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.inner.execute(input, ctx);
    }
}

/// The evaluation ledger is exact: on `ieee754_pow`, the suite's most
/// branch-dense function, a search at the default configuration reports
/// exactly as many evaluations as the program ran.
#[test]
fn reported_evaluations_equal_program_executions() {
    let program = Counting {
        inner: coverme_fdlibm::by_name("pow").expect("pow is in the suite"),
        executions: AtomicUsize::new(0),
    };
    let report = CoverMe::new(CoverMeConfig::default().with_n_start(40)).run(&program);
    assert!(report.evaluations > 0);
    assert_eq!(
        report.evaluations,
        program.executions.load(Ordering::Relaxed)
    );
}
