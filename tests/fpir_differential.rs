//! Differential properties over generated FPIR programs.
//!
//! [`coverme_fpir::generate`] produces well-typed modules by construction,
//! some of which contain loops that legitimately exhaust the interpreter
//! fuel. Every program here goes through the *whole* stack — parse, check,
//! instrument, interpret, objective engine — and the suite pins the three
//! invariants the engine promises:
//!
//! 1. the scalar and batched evaluation paths are **bit-identical**, at
//!    every saturation snapshot;
//! 2. entry points of any arity evaluate correctly;
//! 3. every run is classified ([`RunOutcome`]), aborted runs surface the
//!    [`ABORTED_VALUE`] sentinel, and nothing in the pipeline panics.
//!
//! Failures print the offending seed; `generate_source(seed)` reproduces
//! the exact program.

use coverme::{CoverMe, CoverMeConfig, ObjectiveEngine, RepresentingFunction, ABORTED_VALUE};
use coverme_fpir::generate::{generate_source, ENTRY_NAME};
use coverme_fpir::{compile, IrProgram};
use coverme_runtime::{BranchId, BranchSet, Program, RunOutcome, DEFAULT_EPSILON};

/// How many generated programs each property sweeps. The acceptance bar for
/// this suite is 200; keep it there or above.
const PROGRAMS: u64 = 200;

/// Fuel per evaluation: enough for every terminating generated loop (bounds
/// are single digits), small enough that the ~10% of programs with a
/// zero-step loop hazard abort quickly.
const FUEL: usize = 20_000;

/// SplitMix64, for input points — deterministic, so failures replay.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A point with coordinates spanning zero crossings and the literal
    /// pool of the generator, so conditions actually flip.
    fn point(&mut self, arity: usize) -> Vec<f64> {
        (0..arity).map(|_| (self.next_f64() - 0.5) * 40.0).collect()
    }
}

fn compile_seed(seed: u64) -> IrProgram {
    let source = generate_source(seed);
    compile(&source, ENTRY_NAME)
        .unwrap_or_else(|e| panic!("seed {seed} failed to compile: {e}\n{source}"))
        .with_fuel(FUEL)
}

/// A plausible mid-search saturation snapshot: every branch saturated
/// independently with probability 1/3.
fn random_saturation(rng: &mut Rng, num_sites: usize) -> BranchSet {
    let mut set = BranchSet::with_sites(num_sites);
    for site in 0..num_sites as u32 {
        if rng.next_u64().is_multiple_of(3) {
            set.insert(BranchId::true_of(site));
        }
        if rng.next_u64().is_multiple_of(3) {
            set.insert(BranchId::false_of(site));
        }
    }
    set
}

#[test]
fn scalar_and_batch_paths_are_bit_identical_across_saturation_snapshots() {
    for seed in 0..PROGRAMS {
        let program = compile_seed(seed);
        let num_sites = program.num_sites();
        let arity = Program::arity(&program);
        let mut scalar_engine = ObjectiveEngine::new(program, 1.0);
        let mut batch_engine = ObjectiveEngine::new(compile_seed(seed), 1.0);

        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xA5A5);
        let mut batch_values = Vec::new();
        // Snapshot 0 is the empty saturation set the search starts from.
        for snapshot in 0..3 {
            if snapshot > 0 {
                let saturated = random_saturation(&mut rng, num_sites);
                scalar_engine.retarget(&saturated);
                batch_engine.retarget(&saturated);
            }
            let points: Vec<Vec<f64>> = (0..6).map(|_| rng.point(arity)).collect();
            let scalar: Vec<f64> = points
                .iter()
                .map(|p| scalar_engine.eval_scalar(p))
                .collect();
            // `eval_batch` appends to its output; clear between batches.
            batch_values.clear();
            batch_engine.eval_batch(&points, &mut batch_values);
            for (index, (s, l)) in scalar.iter().zip(&batch_values).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    l.to_bits(),
                    "seed {seed}, snapshot {snapshot}, point {index}: scalar {s:e} != batch {l:e}"
                );
            }
        }
    }
}

#[test]
fn wide_arity_entry_points_evaluate_correctly() {
    // FPIR entry points can take more parameters than any Fdlibm function
    // (at most 2). A 5-input program must evaluate through the engine's
    // compiled tape exactly as the reference interpreter does, and its
    // fifth input must matter.
    let source = "\
double wide(double a, double b, double c, double d, double e) {
    double acc = a * 2.0 + b;
    if (acc < c) {
        acc = acc + d;
    }
    if (d > e) {
        acc = acc - e * 0.5;
    }
    return acc;
}";
    let program = compile(source, "wide").expect("wide.fpir compiles");
    assert_eq!(Program::arity(&program), 5);
    // Both sides of site 0 and the true side of site 1 are saturated, so
    // `FOO_R` is the distance to `d <= e`, which reads the fifth input.
    let saturated: BranchSet = [
        BranchId::true_of(0),
        BranchId::false_of(0),
        BranchId::true_of(1),
    ]
    .into_iter()
    .collect();
    let reference = RepresentingFunction::new(&program, saturated.clone());
    let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
    assert_eq!(engine.backend_name(), "tape");
    engine.retarget(&saturated);
    let mut rng = Rng(0x31DE_CAFE);
    // Points that agree on their first four coordinates and differ only in
    // the fifth.
    let shared: Vec<f64> = rng.point(4);
    let points: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            let mut p = shared.clone();
            p.push((rng.next_f64() - 0.5) * 40.0);
            p
        })
        .collect();
    let mut values = Vec::new();
    for (index, point) in points.iter().enumerate() {
        let ours = engine.eval_scalar(point);
        let expected = reference.eval(point);
        assert_eq!(
            ours.to_bits(),
            expected.to_bits(),
            "point {index}: engine {ours:e} != reference {expected:e}"
        );
        values.push(ours.to_bits());
    }
    values.sort_unstable();
    values.dedup();
    assert!(values.len() > 1, "the fifth input never changed FOO_R");
    assert_eq!(engine.telemetry().calls, points.len() as u64);
}

#[test]
fn every_run_is_classified_and_aborts_surface_the_sentinel() {
    let mut done = 0u64;
    let mut timeouts = 0u64;
    for seed in 0..PROGRAMS {
        let mut engine = ObjectiveEngine::new(compile_seed(seed), 1.0);
        let arity = engine.arity();
        let mut rng = Rng(seed ^ 0xDEAD_10CC);
        for _ in 0..4 {
            let point = rng.point(arity);
            let evaluation = engine.eval_full(&point);
            match evaluation.outcome {
                RunOutcome::Done => {
                    done += 1;
                    assert!(
                        evaluation.value.is_finite() || evaluation.value.is_nan(),
                        "seed {seed}: completed run produced {:e}",
                        evaluation.value
                    );
                }
                RunOutcome::Timeout | RunOutcome::Trap => {
                    timeouts += 1;
                    assert_eq!(
                        evaluation.value.to_bits(),
                        ABORTED_VALUE.to_bits(),
                        "seed {seed}: aborted run leaked value {:e}",
                        evaluation.value
                    );
                }
            }
        }
    }
    // Both classes must actually occur across 200 programs, or the suite
    // exercises only half the classifier.
    assert!(done > 0, "no generated program ever completed");
    assert!(timeouts > 0, "no generated program ever aborted");
}

#[test]
fn full_searches_over_generated_programs_never_panic() {
    // A slice of the seed space through the complete driver: whatever the
    // search does — saturate, degrade, run out of budget — it must finish
    // and report a consistent outcome.
    for seed in 0..25u64 {
        let program = compile_seed(seed);
        let report = CoverMe::new(
            CoverMeConfig::default()
                .with_n_start(20)
                .with_n_iter(4)
                .with_seed(seed),
        )
        .run(&program);
        let percent = report.branch_coverage_percent();
        assert!(
            (0.0..=100.0).contains(&percent),
            "seed {seed}: impossible coverage {percent}% — {report}"
        );
        if report.aborted_evaluations() == 0 {
            assert_eq!(report.timeouts, 0, "seed {seed}");
            assert_eq!(report.traps, 0, "seed {seed}");
        }
    }
}
