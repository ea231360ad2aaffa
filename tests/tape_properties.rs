//! Differential properties of the FPIR→tape lowering pass.
//!
//! The tape backend ([`coverme_fpir::lower`]) promises to be a *pure*
//! performance layer: every observable of an execution — the returned
//! value, the covered branch set, the pen/representing value, the
//! [`RunOutcome`] classification, even the engine's telemetry — must be
//! bit-identical to the reference interpreter. This suite pins that
//! promise over the whole generated corpus (200+ modules, including the
//! zero-step-loop timeout hazard and the recursive trap hazard) and over
//! the checked-in `examples/fpir/` corpus (including `spin.fpir`, which
//! must time out identically under both backends).
//!
//! Failures print the offending seed; `generate_source(seed)` reproduces
//! the exact program.

use coverme::{BackendMode, ObjectiveEngine};
use coverme_fpir::generate::{generate_source, ENTRY_NAME};
use coverme_fpir::{compile, lower, IrProgram, TapeBackend};
use coverme_runtime::{
    BranchId, BranchSet, ExecBackend, ExecCtx, Program, RunOutcome, DEFAULT_EPSILON,
};

/// How many generated programs each property sweeps. The acceptance bar
/// for this suite is 200; keep it there or above.
const PROGRAMS: u64 = 200;

/// Fuel per evaluation: enough for every terminating generated loop, small
/// enough that the hazard programs abort quickly.
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

/// Runs `label` under interpreter and tape with identical fresh contexts
/// and asserts every observable matches bit for bit.
fn assert_executions_agree(program: &IrProgram, input: &[f64], label: &str) {
    let tape = lower(program).unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
    for observe in [true, false] {
        let make_ctx = || {
            if observe {
                ExecCtx::observe()
            } else {
                ExecCtx::representing(BranchSet::with_sites(program.num_sites()))
            }
        };
        let mut interp_ctx = make_ctx();
        program.execute(input, &mut interp_ctx);
        let mut tape_ctx = make_ctx();
        tape.execute(input, &mut tape_ctx);
        assert_eq!(
            interp_ctx.run_outcome(),
            tape_ctx.run_outcome(),
            "{label}: outcome diverged (observe={observe})"
        );
        assert_eq!(
            interp_ctx.covered(),
            tape_ctx.covered(),
            "{label}: coverage diverged (observe={observe})"
        );
        if !observe {
            assert_eq!(
                interp_ctx.representing_value().to_bits(),
                tape_ctx.representing_value().to_bits(),
                "{label}: representing value diverged"
            );
        }
    }
}

#[test]
fn tape_matches_interpreter_on_raw_executions() {
    for seed in 0..PROGRAMS {
        let program = compile_seed(seed);
        let arity = Program::arity(&program);
        let mut rng = Rng(seed ^ 0x7A9E_0001);
        for index in 0..5 {
            let input = rng.point(arity);
            assert_executions_agree(&program, &input, &format!("seed {seed}, point {index}"));
        }
    }
}

#[test]
fn tape_engine_matches_interp_engine_bitwise() {
    // A tape engine and an interpreter engine must agree on eval_scalar
    // and eval_full at every saturation snapshot — values, coverage sets,
    // outcome classifications and the engines' execution/abort telemetry
    // alike.
    const POINTS_PER_SNAPSHOT: usize = 19;
    let mut aborted = 0u64;
    for seed in 0..PROGRAMS {
        let num_sites = compile_seed(seed).num_sites();
        let mut tape_engine =
            ObjectiveEngine::new(compile_seed(seed), 1.0).backend_mode(BackendMode::Auto);
        let mut interp_engine =
            ObjectiveEngine::new(compile_seed(seed), 1.0).backend_mode(BackendMode::Interp);
        assert_eq!(tape_engine.backend_name(), "tape", "seed {seed}");
        assert_eq!(interp_engine.backend_name(), "interp", "seed {seed}");
        let arity = tape_engine.arity();

        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0x7A9E);
        for snapshot in 0..3 {
            if snapshot > 0 {
                let saturated = random_saturation(&mut rng, num_sites);
                tape_engine.retarget(&saturated);
                interp_engine.retarget(&saturated);
            }
            let points: Vec<Vec<f64>> =
                (0..POINTS_PER_SNAPSHOT).map(|_| rng.point(arity)).collect();
            for (index, point) in points.iter().enumerate() {
                let t = tape_engine.eval_scalar(point);
                let i = interp_engine.eval_scalar(point);
                assert_eq!(
                    t.to_bits(),
                    i.to_bits(),
                    "seed {seed}, snapshot {snapshot}, point {index}: tape {t:e} != interp {i:e}"
                );
                let tf = tape_engine.eval_full(point);
                let inf = interp_engine.eval_full(point);
                assert_eq!(tf.outcome, inf.outcome, "seed {seed}, point {index}");
                assert_eq!(tf.value.to_bits(), inf.value.to_bits(), "seed {seed}");
                assert_eq!(tf.covered, inf.covered, "seed {seed}, point {index}");
                if tf.outcome != RunOutcome::Done {
                    aborted += 1;
                }
            }
            let (t, i) = (tape_engine.telemetry(), interp_engine.telemetry());
            assert_eq!(
                (t.calls, t.timeouts, t.traps),
                (i.calls, i.timeouts, i.traps),
                "seed {seed}, snapshot {snapshot}: telemetry diverged"
            );
        }
    }
    // The hazard programs must actually abort somewhere in the sweep, or
    // the outcome comparisons above never exercised the abort paths.
    assert!(aborted > 0, "no evaluation ever aborted across the corpus");
}

#[test]
fn starved_fuel_agrees_on_the_benchmark_modules() {
    // The end-to-end benchmark's `fpir-generated` modules (generator
    // seeds 1000-1039) in representing mode against a random saturation
    // snapshot: at every fuel from 1 to 400, and at the benchmark's 2,000,
    // the tape must trip its fuel at the same observable as the
    // interpreter, so outcome, coverage, trace and value all agree.
    for seed in 1_000..1_040u64 {
        let source = generate_source(seed);
        let program = compile(&source, ENTRY_NAME)
            .unwrap_or_else(|e| panic!("seed {seed} failed to compile: {e}\n{source}"));
        let arity = Program::arity(&program);
        let mut rng = Rng(seed ^ 0xF0E1);
        let saturated = random_saturation(&mut rng, program.num_sites());
        let inputs: Vec<Vec<f64>> = (0..3).map(|_| rng.point(arity)).collect();
        for fuel in (1..=400).chain([2_000]) {
            let starved = program.clone().with_fuel(fuel);
            let mut tape = starved
                .backend(BackendMode::Auto)
                .expect("every FPIR program runs on its tape");
            for input in &inputs {
                let at = format!("seed {seed}, fuel {fuel}, input {input:?}");
                let mut interp_ctx = ExecCtx::representing(saturated.clone());
                starved.execute(input, &mut interp_ctx);
                let mut tape_ctx = ExecCtx::representing(saturated.clone());
                tape.run(&starved, input, &mut tape_ctx);
                assert_eq!(
                    tape_ctx.run_outcome(),
                    interp_ctx.run_outcome(),
                    "{at}: outcome diverged"
                );
                assert_eq!(
                    tape_ctx.covered(),
                    interp_ctx.covered(),
                    "{at}: coverage diverged"
                );
                assert_eq!(tape_ctx.trace(), interp_ctx.trace(), "{at}: trace diverged");
                assert_eq!(
                    tape_ctx.representing_value().to_bits(),
                    interp_ctx.representing_value().to_bits(),
                    "{at}: representing value diverged"
                );
            }
        }
    }
}

/// Feeds `inputs` to one long-lived tape backend in windows of three,
/// alternating its scalar `run` and its batched `run_lanes`, and checks
/// every execution against a fresh interpreter run at one saturation
/// snapshot. Returns how many runs ended `[Done, Timeout, Trap]`.
fn assert_reused_backend_agrees(
    program: &IrProgram,
    inputs: &[Vec<f64>],
    rng: &mut Rng,
    label: &str,
) -> [usize; 3] {
    let saturated = random_saturation(rng, program.num_sites());
    let tape = lower(program).unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
    let mut backend = TapeBackend::new(tape);
    backend.set_epsilon(DEFAULT_EPSILON);
    backend.retarget(&saturated);
    let mut outcomes = [0; 3];
    let mut lanes = Vec::new();
    for (window, chunk) in inputs.chunks(3).enumerate() {
        let batched = window % 2 == 1;
        if batched {
            let indices: Vec<usize> = (0..chunk.len()).collect();
            lanes.clear();
            backend.run_lanes(program, chunk, &indices, &mut lanes);
        }
        for (index, input) in chunk.iter().enumerate() {
            let at = format!("{label}, window {window}, input {input:?}");
            let mut reference = ExecCtx::representing(saturated.clone());
            program.execute(input, &mut reference);
            let outcome = reference.run_outcome();
            let value = reference.representing_value().to_bits();
            if batched {
                let lane = lanes[index];
                assert_eq!(lane.outcome, outcome, "{at}: lane outcome diverged");
                if outcome == RunOutcome::Done {
                    assert_eq!(lane.value.to_bits(), value, "{at}: lane value diverged");
                }
            } else {
                let mut ctx = ExecCtx::representing(saturated.clone());
                backend.run(program, input, &mut ctx);
                assert_eq!(ctx.run_outcome(), outcome, "{at}: outcome diverged");
                assert_eq!(
                    ctx.covered(),
                    reference.covered(),
                    "{at}: coverage diverged"
                );
                assert_eq!(
                    ctx.representing_value().to_bits(),
                    value,
                    "{at}: value diverged"
                );
            }
            outcomes[outcome as usize] += 1;
        }
    }
    outcomes
}

#[test]
fn a_reused_register_file_carries_no_state_between_executions() {
    // A backend keeps its register file and frame stack across runs. Here
    // the deepest frame stack (a recursion trap), a timeout inside a
    // helper and clean runs follow each other through one backend, so
    // anything an execution left behind would show in the next.
    let hand = compile(
        r#"
        double spin(double a) { while (a > 0.0) { a = a + 1.0; } return a; }
        double dive(double a) { return dive(a + 1.0); }
        double f(double x) {
            if (x > 100.0) { return dive(x); }
            if (x > 10.0) { return spin(x); }
            double y = sqrt(4.0) * x + (double) 20;
            if (y < 3.0) { return y; }
            return -y;
        }
        "#,
        "f",
    )
    .unwrap()
    .with_fuel(FUEL);
    let inputs: Vec<Vec<f64>> = [
        200.0, 1.0, 50.0, -9.0, 150.0, 0.5, 20.0, -1.0, 300.0, -7.0, 11.0, 2.0, 101.0, 12.0, -0.5,
    ]
    .iter()
    .map(|&v| vec![v])
    .collect();
    let mut rng = Rng(0x2E05E);
    let [done, timeouts, traps] = assert_reused_backend_agrees(&hand, &inputs, &mut rng, "hand");
    assert_eq!((done, timeouts, traps), (7, 4, 4));
    let mut totals = [0; 3];
    for seed in 0..PROGRAMS {
        let program = compile_seed(seed);
        let arity = Program::arity(&program);
        let mut rng = Rng(seed ^ 0x2E05E);
        let inputs: Vec<Vec<f64>> = (0..12).map(|_| rng.point(arity)).collect();
        let counts =
            assert_reused_backend_agrees(&program, &inputs, &mut rng, &format!("seed {seed}"));
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    assert!(totals[0] > 0 && totals[1] + totals[2] > 0, "{totals:?}");
}

/// Loads one `examples/fpir/` corpus file, inferring the entry from the
/// file stem like the CLI does.
fn load_corpus(path: &std::path::Path) -> IrProgram {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
    compile(&source, stem)
        .unwrap_or_else(|e| panic!("{path:?}: {e}"))
        .with_fuel(FUEL)
}

#[test]
fn corpus_files_agree_under_both_backends() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fpir");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/fpir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "fpir"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "corpus shrank: {paths:?}");
    let mut saw_spin = false;
    for path in &paths {
        let program = load_corpus(path);
        let arity = Program::arity(&program);
        let mut rng = Rng(0x5EED ^ paths.len() as u64);
        for index in 0..8 {
            let input = rng.point(arity);
            assert_executions_agree(&program, &input, &format!("{path:?}, point {index}"));
        }
        if path.file_stem().is_some_and(|s| s == "spin") {
            saw_spin = true;
            // The non-terminating program must exhaust its fuel — and be
            // classified Timeout — under the tape exactly as under the
            // interpreter.
            let tape = lower(&program).expect("spin lowers");
            for ctx_program in [true, false] {
                let mut ctx = ExecCtx::observe();
                if ctx_program {
                    program.execute(&[1.0], &mut ctx);
                } else {
                    tape.execute(&[1.0], &mut ctx);
                }
                assert_eq!(
                    ctx.run_outcome(),
                    RunOutcome::Timeout,
                    "spin must time out (program={ctx_program})"
                );
            }
        }
    }
    assert!(saw_spin, "spin.fpir left the corpus");
}

#[test]
fn generated_tapes_serialize() {
    // Every generated module lowers to a tape whose listing mentions its
    // entry and every block — a cheap pin that the serializer stays total.
    for seed in 0..20u64 {
        let program = compile_seed(seed);
        let tape = lower(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let listing = tape.serialize();
        assert!(listing.contains(ENTRY_NAME), "seed {seed}: {listing}");
        assert!(listing.contains("b0:"), "seed {seed}: {listing}");
    }
}
