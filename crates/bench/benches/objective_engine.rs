//! Micro-benchmark: evaluation throughput of the objective engine versus
//! the pre-engine scalar path, on the branch-dense Fdlibm hot functions.
//!
//! Columns:
//!
//! * **legacy** — what `RepresentingFunction::eval` did before the engine
//!   landed: a fresh representing-mode `ExecCtx` per call (cloning the
//!   saturation snapshot), coverage recorded, trace skipped;
//! * **engine** — `ObjectiveEngine::eval_scalar` (reused retargeted
//!   context, no coverage, one execution per call) on an all-distinct
//!   input stream.
//!
//! A second table covers the FPIR corpus (`examples/fpir/`), where the
//! execution-backend layer has a real choice to make: **interp** runs the
//! AST interpreter, **tape** the compiled instruction tape. The
//! machine-independent ratio `tape_speedup_vs_interp` feeds the CI gate,
//! which additionally enforces an absolute 1.5x floor on it — the tape
//! backend's reason to exist.
//!
//! Every measurement is best-of-R with a fresh engine per repetition.
//!
//! Run modes follow the vendored criterion convention:
//!
//! * `cargo bench -p coverme-bench --bench objective_engine` — measured
//!   run; prints evals/sec per path and the speedups. This feeds the PR
//!   CI's regression gate;
//! * `--json PATH` (after `--bench`) — additionally writes the measured
//!   numbers as `BENCH_objective.json` for `scripts/bench_gate.py`, which
//!   compares the machine-independent speedup ratios against the
//!   committed `ci/bench_baseline.json`;
//! * `cargo test` — single-pass smoke (tiny iteration counts) so the
//!   target cannot rot unnoticed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coverme::objective::ObjectiveEngine;
use coverme::{BackendMode, BranchId, BranchSet};
use coverme_fdlibm::by_name;
use coverme_fpir::{compile, IrProgram};
use coverme_runtime::{ExecCtx, Program, DEFAULT_EPSILON};

/// The benchmarked functions: the suite's most branch-dense members plus
/// two cheap-but-typical ones so the gate also watches the small-program
/// regime.
const FUNCTIONS: &[&str] = &["pow", "fmod", "expm1", "exp", "tanh", "sin"];

/// The FPIR corpus members benchmarked across the backend axis. `spin` is
/// excluded on purpose: every evaluation burns its whole fuel budget, so
/// it measures the fuel counter, not the backends.
const FPIR_FUNCTIONS: &[&str] = &["newton_sqrt", "sign_juggle"];

/// A half-saturated snapshot: the true branch of every even site. A partly
/// saturated set is the steady state of a real search and keeps `pen` on
/// its general path (the empty snapshot short-circuits to 0 everywhere).
fn snapshot(num_sites: usize) -> BranchSet {
    let mut set = BranchSet::with_sites(num_sites);
    for site in (0..num_sites).step_by(2) {
        set.insert(BranchId::true_of(site as u32));
    }
    set
}

/// A spread of inputs covering the exponent range the search actually
/// explores (the default starting-point box is ±100, perturbations ±0.5).
fn inputs(arity: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..arity)
                .map(|j| {
                    let t = (i * arity + j) as f64;
                    (t * 0.7297).sin() * 100.0 + (t * 0.013).cos()
                })
                .collect()
        })
        .collect()
}

/// Best-of-`reps` wall time of one pass of `routine` (fresh state per rep
/// comes from the `setup` closure).
fn best_of<S, F: FnMut(&mut S)>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut routine: F,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut state = setup();
        let start = Instant::now();
        routine(&mut state);
        best = best.min(start.elapsed());
    }
    best
}

/// Per-function measurement row, also serialized into the JSON artifact.
struct Row {
    name: &'static str,
    sites: usize,
    legacy: f64,
    engine: f64,
}

impl Row {
    fn engine_speedup(&self) -> f64 {
        self.engine / self.legacy.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"function\": \"{}\",\n",
                "      \"sites\": {},\n",
                "      \"legacy_evals_per_sec\": {:.0},\n",
                "      \"engine_evals_per_sec\": {:.0},\n",
                "      \"engine_speedup_vs_legacy\": {:.4}\n",
                "    }}"
            ),
            self.name,
            self.sites,
            self.legacy,
            self.engine,
            self.engine_speedup(),
        )
    }
}

fn measure(name: &'static str, measure_mode: bool) -> Row {
    let benchmark = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let sites = Program::num_sites(&benchmark);
    let saturated = snapshot(sites);
    let epsilon = DEFAULT_EPSILON;
    let (point_count, reps) = if measure_mode { (40_000, 7) } else { (64, 1) };
    let points = inputs(Program::arity(&benchmark), point_count);
    let evs = |d: Duration, n: usize| n as f64 / d.as_secs_f64().max(1e-12);

    // Pre-engine scalar path: fresh context + snapshot clone + coverage
    // recording per evaluation.
    let legacy = evs(
        best_of(
            reps,
            || (),
            |_| {
                let mut sink = 0.0;
                for x in &points {
                    let mut ctx = ExecCtx::representing(saturated.clone())
                        .with_epsilon(epsilon)
                        .without_trace();
                    benchmark.execute(black_box(x), &mut ctx);
                    sink += ctx.representing_value();
                }
                black_box(sink);
            },
        ),
        points.len(),
    );

    // Engine fast path, all-distinct points.
    let fresh_engine = || {
        let mut engine = ObjectiveEngine::new(&benchmark, epsilon);
        engine.retarget(&saturated);
        engine
    };
    let engine = evs(
        best_of(reps, fresh_engine, |engine| {
            let mut sink = 0.0;
            for x in &points {
                sink += engine.eval_scalar(black_box(x));
            }
            black_box(sink);
        }),
        points.len(),
    );

    // Whatever the timings, the paths must agree bit for bit.
    let mut check_engine = fresh_engine();
    for x in points.iter().take(16) {
        let mut ctx = ExecCtx::representing(saturated.clone())
            .with_epsilon(epsilon)
            .without_trace();
        benchmark.execute(x, &mut ctx);
        assert_eq!(
            check_engine.eval_scalar(x).to_bits(),
            ctx.representing_value().to_bits(),
            "engine diverged from the legacy path on {name} at {x:?}"
        );
    }

    Row {
        name,
        sites,
        legacy,
        engine,
    }
}

/// Loads one FPIR corpus program (entry inferred from the file stem, the
/// CLI's rule).
fn load_fpir(name: &str) -> IrProgram {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/fpir")
        .join(format!("{name}.fpir"));
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"));
    compile(&source, name).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Per-FPIR-program measurement row across the backend axis.
struct FpirRow {
    name: &'static str,
    sites: usize,
    interp: f64,
    tape: f64,
}

impl FpirRow {
    fn tape_speedup(&self) -> f64 {
        self.tape / self.interp.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"function\": \"{}\",\n",
                "      \"sites\": {},\n",
                "      \"interp_evals_per_sec\": {:.0},\n",
                "      \"tape_evals_per_sec\": {:.0},\n",
                "      \"tape_speedup_vs_interp\": {:.4}\n",
                "    }}"
            ),
            self.name,
            self.sites,
            self.interp,
            self.tape,
            self.tape_speedup(),
        )
    }
}

fn measure_fpir(name: &'static str, measure_mode: bool) -> FpirRow {
    let program = load_fpir(name);
    let sites = program.num_sites();
    let saturated = snapshot(sites);
    let epsilon = DEFAULT_EPSILON;
    let (point_count, reps) = if measure_mode { (8_000, 7) } else { (64, 1) };
    let points = inputs(program.arity(), point_count);
    let evs = |d: Duration, n: usize| n as f64 / d.as_secs_f64().max(1e-12);

    let fresh = |mode: BackendMode| {
        let program = load_fpir(name);
        let saturated = saturated.clone();
        move || {
            let mut engine = ObjectiveEngine::new(program.clone(), epsilon).backend_mode(mode);
            engine.retarget(&saturated);
            engine
        }
    };
    let scalar_pass = |engine: &mut ObjectiveEngine<IrProgram>| {
        let mut sink = 0.0;
        for x in &points {
            sink += engine.eval_scalar(black_box(x));
        }
        black_box(sink);
    };

    let interp = evs(
        best_of(reps, fresh(BackendMode::Interp), scalar_pass),
        points.len(),
    );
    let tape = evs(
        best_of(reps, fresh(BackendMode::Auto), scalar_pass),
        points.len(),
    );

    // Whatever the timings, the backends must agree bit for bit.
    let mut tape_engine = fresh(BackendMode::Auto)();
    let mut interp_engine = fresh(BackendMode::Interp)();
    assert_eq!(tape_engine.backend_name(), "tape", "{name}: no tape");
    for x in points.iter().take(16) {
        assert_eq!(
            tape_engine.eval_scalar(x).to_bits(),
            interp_engine.eval_scalar(x).to_bits(),
            "tape diverged from the interpreter on {name} at {x:?}"
        );
    }

    FpirRow {
        name,
        sites,
        interp,
        tape,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let measure_mode = args.iter().any(|a| a == "--bench");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    println!(
        "{:<8} {:>6} {:>13} {:>13} {:>9}",
        "function", "sites", "legacy ev/s", "engine ev/s", "engine x"
    );

    let mut rows = Vec::new();
    for name in FUNCTIONS {
        let row = measure(name, measure_mode);
        println!(
            "{:<8} {:>6} {:>13.0} {:>13.0} {:>8.2}x",
            row.name,
            row.sites,
            row.legacy,
            row.engine,
            row.engine_speedup(),
        );
        rows.push(row);
    }

    println!();
    println!(
        "{:<12} {:>6} {:>13} {:>13} {:>8}",
        "fpir", "sites", "interp ev/s", "tape ev/s", "tape x"
    );

    let mut fpir_rows = Vec::new();
    for name in FPIR_FUNCTIONS {
        let row = measure_fpir(name, measure_mode);
        println!(
            "{:<12} {:>6} {:>13.0} {:>13.0} {:>7.2}x",
            row.name,
            row.sites,
            row.interp,
            row.tape,
            row.tape_speedup(),
        );
        fpir_rows.push(row);
    }

    if let Some(path) = json_path {
        let body: Vec<String> = rows.iter().map(Row::to_json).collect();
        let fpir_body: Vec<String> = fpir_rows.iter().map(FpirRow::to_json).collect();
        let json = format!(
            "{{\n  \"schema\": 2,\n  \"bench\": \"objective_engine\",\n  \"measured\": {},\n  \"functions\": [\n{}\n  ],\n  \"fpir\": [\n{}\n  ]\n}}\n",
            measure_mode,
            body.join(",\n"),
            fpir_body.join(",\n")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if !measure_mode {
        println!("(smoke mode: timings above are not meaningful; run with cargo bench)");
    }
}
