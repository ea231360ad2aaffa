//! The end-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--simd ISA]
//! ```
//!
//! Runs one workload (see `CATALOGUE.md`) for about `S` seconds, checks
//! every result, and prints two JSON lines on stdout: the run metadata
//! (seed, commit, `nproc`, SIMD ISA and lane width, compiler, timing
//! quartiles) and, last, the result — `correct`, `attempted`, `failed` and
//! the metrics: the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. A traced run also writes its spans to
//! `<target dir>/perfbench/trace-<workload>-seed<N>.json`.
//!
//! `--simd` is a diagnostic (the AVX2-versus-portable question); gated
//! runs never pass it.

mod campaigns;
mod host;
mod metrics;
mod serve_corpus;
mod stats;
mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use coverme_repro::coverme::SimdIsa;

use metrics::Outcome;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["fdlibm-paper", "fpir-generated"];

const USAGE: &str = "\
usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--simd ISA]
  --workload NAME   fdlibm-paper | fpir-generated
  --seed N          workload seed (the search seeds derive from it)
  --seconds S       how long the run measures
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics
  --simd ISA        diagnostic: force portable | sse2 | avx2 kernels";

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub simd: Option<SimdIsa>,
    /// Shrinks every workload to a few functions (the self-tests).
    pub tiny: bool,
    /// Where traces and scratch state go.
    pub out_dir: PathBuf,
}

impl Settings {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The search seed of a run's `iteration`-th campaign (or serve cycle):
/// the run's seed for the first two — the second repeats the first, which
/// the determinism check compares — and a seed of its own, derived from
/// the run's seed, for every later one.
pub fn iteration_seed(seed: u64, iteration: usize) -> u64 {
    match iteration.saturating_sub(1) {
        0 => seed,
        k => {
            // SplitMix64 finalizer over (seed, k).
            let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Where the benchmark writes: `perfbench/` under the cargo target
/// directory, so everything it leaves behind sits with the build.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

/// A fresh directory path under the output directory, unique per call so
/// concurrent runs in one process (the self-tests) never share state.
pub fn scratch_dir(settings: &Settings, label: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    settings.out_dir.join(format!(
        "{label}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ))
}

fn usage_error(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Settings {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut simd = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> T {
            text.parse()
                .unwrap_or_else(|_| usage_error(&format!("{flag} got {text}")))
        }
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(number::<u64>(&flag, value())),
            "--seconds" => seconds = Some(number::<f64>(&flag, value())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage_error(&format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--simd" => {
                let text = value();
                let isa = SimdIsa::parse(&text)
                    .unwrap_or_else(|| usage_error(&format!("unknown SIMD ISA {text}")));
                if !isa.is_supported() {
                    usage_error(&format!("this machine cannot run {text}"));
                }
                simd = Some(isa);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage_error(&format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.unwrap_or_else(|| usage_error("--seconds is required"));
    if !(seconds.is_finite() && seconds >= 0.0) {
        usage_error("--seconds must be a non-negative number");
    }
    Settings {
        workload,
        seed: seed.unwrap_or_else(|| usage_error("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage_error("--trace is required")),
        simd,
        tiny: false,
        out_dir: out_dir(),
    }
}

/// Runs the configured workload and returns its outcome.
fn run(settings: &Settings, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    match settings.workload.as_str() {
        "fdlibm-paper" => campaigns::fdlibm_paper(settings, tracer, &mut outcome),
        "fpir-generated" => campaigns::fpir_generated(settings, tracer, &mut outcome),
        other => unreachable!("workload {other} was validated"),
    }
    outcome
}

/// Resets this process's peak resident set size to its current one
/// (Linux's `clear_refs` command 5).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs accepts 5");
}

/// Peak resident set size of this process since it started or since the
/// last [`reset_peak_rss`], from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn json_string(text: &str) -> String {
    let mut out = String::new();
    coverme_repro::coverme::report::schema::write_escaped(text, &mut out);
    out
}

/// The metadata line: what ran, where, and the quartiles behind each
/// timing.
fn meta_line(settings: &Settings, outcome: &Outcome, trace_file: Option<&PathBuf>) -> String {
    let isa = SimdIsa::active();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", json_string(&settings.workload)),
        ("seed", settings.seed.to_string()),
        ("seconds", settings.seconds.to_string()),
        ("trace", settings.trace.to_string()),
        ("commit", json_string(env!("PERFBENCH_COMMIT"))),
        ("rustc", json_string(env!("PERFBENCH_RUSTC"))),
        ("nproc", nproc.to_string()),
        ("simd_isa", json_string(isa.label())),
        ("lane_width", isa.lane_width().to_string()),
        ("simd_override", settings.simd.is_some().to_string()),
    ];
    if let Some(path) = trace_file {
        fields.push(("trace_file", json_string(&path.display().to_string())));
    }
    let list = |items: Vec<String>| format!("[{}]", items.join(", "));
    fields.push((
        "errors",
        list(outcome.errors.iter().map(|e| json_string(e)).collect()),
    ));
    fields.push((
        "undersampled",
        list(
            outcome
                .undersampled
                .iter()
                .map(|m| json_string(m))
                .collect(),
        ),
    ));
    let summaries: Vec<String> = outcome
        .summaries
        .iter()
        .map(|(name, summary)| format!("{}: {}", json_string(name), summary.to_json()))
        .collect();
    fields.push(("timings", format!("{{{}}}", summaries.join(", "))));
    let mut body: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    body.extend(
        outcome
            .notes
            .iter()
            .map(|(key, value)| format!("{}: {value}", json_string(key))),
    );
    format!("{{\"perfbench_meta\": {{{}}}}}", body.join(", "))
}

fn main() {
    let settings = parse_args(std::env::args().skip(1));
    if let Some(isa) = settings.simd {
        SimdIsa::force(isa).unwrap_or_else(|error| usage_error(&error));
    }
    let tracer = Tracer::new();
    let outcome = run(&settings, &tracer);
    let trace_file = settings.trace.then(|| {
        let path = settings.out_dir.join(format!(
            "trace-{}-seed{}.json",
            settings.workload, settings.seed
        ));
        tracer
            .write(&path)
            .unwrap_or_else(|error| panic!("cannot write {}: {error}", path.display()));
        path
    });
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    println!("{}", meta_line(&settings, &outcome, trace_file.as_ref()));
    println!("{}", outcome.result_line(settings.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_repro::coverme::report::schema::{parse, JsonValue};

    fn tiny(workload: &str, trace: bool) -> Settings {
        Settings {
            workload: workload.to_string(),
            seed: 5,
            seconds: 0.0,
            trace,
            simd: None,
            tiny: true,
            out_dir: out_dir(),
        }
    }

    /// Runs every workload at a tiny size and checks that the result line
    /// names every catalogued metric with its unit.
    fn smoke(trace: bool) {
        for workload in WORKLOADS {
            let settings = tiny(workload, trace);
            let outcome = run(&settings, &Tracer::new());
            assert!(
                outcome.errors.is_empty(),
                "{workload}: {:?}",
                outcome.errors
            );
            let catalogue = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            let line = outcome.result_line(trace);
            let result = parse(&line).expect("result line is JSON");
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert!(result.get("attempted").and_then(JsonValue::as_usize) > Some(0));
            let metrics = result.get("metrics").expect("metrics");
            for metric in catalogue {
                let entry = metrics
                    .get(metric.name)
                    .unwrap_or_else(|| panic!("{workload} lacks {}", metric.name));
                assert_eq!(
                    entry.get("unit").and_then(JsonValue::as_str),
                    Some(metric.unit),
                    "{workload}: {}",
                    metric.name
                );
                let value = entry.get("value").and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {}",
                    metric.name
                );
                if !trace {
                    assert!(value > Some(0.0), "{workload}: {} is 0", metric.name);
                }
            }
            let meta = parse(&meta_line(&settings, &outcome, None)).expect("meta line is JSON");
            let meta = meta.get("perfbench_meta").expect("meta object");
            for key in ["seed", "commit", "nproc", "simd_isa", "lane_width", "rustc"] {
                assert!(meta.get(key).is_some(), "meta lacks {key}");
            }
        }
    }

    #[test]
    fn tiny_runs_print_every_end_to_end_metric() {
        smoke(false);
    }

    #[test]
    fn tiny_runs_print_every_per_layer_metric() {
        smoke(true);
    }

    #[test]
    fn arguments_parse() {
        let args = [
            "--workload",
            "fpir-generated",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ];
        let settings = parse_args(args.iter().map(|s| s.to_string()));
        assert_eq!(settings.workload, "fpir-generated");
        assert_eq!(settings.seed, 9);
        assert_eq!(settings.seconds, 2.5);
        assert!(settings.trace);
        assert!(settings.simd.is_none());
    }
}
