//! The `coverme` binary end to end: what `run --corpus` records, and the
//! usage errors (exit 2) of `campaign --suite fdlibm`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use coverme_repro::coverme::report::schema::{self, JsonValue};

const NEWTON_SQRT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/fpir/newton_sqrt.fpir"
);

fn coverme(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coverme"))
        .args(args)
        .output()
        .expect("the coverme binary starts")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coverme-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `coverme run NEWTON_SQRT --corpus DIR extra...`; returns the report's
/// `evals`.
fn run_with_corpus(dir: &Path, extra: &[&str]) -> usize {
    let corpus = dir.join("corpus");
    let json = dir.join("run.json");
    let mut args = vec![
        "run",
        NEWTON_SQRT,
        "--corpus",
        corpus.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let output = coverme(&args);
    assert!(output.status.success(), "{output:?}");
    let report = schema::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    report
        .get("evals")
        .and_then(JsonValue::as_usize)
        .expect("run report carries evals")
}

#[test]
fn run_records_only_complete_searches_in_the_corpus() {
    let dir = scratch_dir("run-corpus");
    let cold = run_with_corpus(&dir, &[]);
    // The repeat replays the recorded winners and takes the schedule
    // credit of the complete entry.
    let warm = run_with_corpus(&dir, &[]);
    assert!(warm < cold / 100, "cold {cold}, warm {warm}");
    // A run its deadline cuts short, streaming or not, must not replace
    // that entry ...
    run_with_corpus(&dir, &["--n-start", "500", "--time-budget", "0"]);
    run_with_corpus(
        &dir,
        &["--stream", "--n-start", "500", "--time-budget", "0"],
    );
    // ... so the next default run is as warm as before.
    assert_eq!(run_with_corpus(&dir, &[]), warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_fdlibm_campaigns_are_usage_errors() {
    let fpir_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fpir");
    for (args, message) in [
        (
            &["campaign", "--suite", "fdlibm", "nosuch"][..],
            "unknown fdlibm function `nosuch`",
        ),
        (&["campaign", fpir_dir, "--suite", "fdlibm"][..], "not both"),
        (
            &["campaign", "--suite", "libm", "tanh"][..],
            "unknown suite",
        ),
        (
            &["campaign", "--suite", "fdlibm", "--fuel", "9", "tanh"][..],
            "--fuel",
        ),
        (&["run", NEWTON_SQRT, "--suite", "fdlibm"][..], "--suite"),
    ] {
        let output = coverme(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
