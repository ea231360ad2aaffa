//! Stamps the binary with the repository commit (when built from a git
//! checkout) and the compiler version, for the run metadata.

use std::path::Path;
use std::process::Command;

fn stdout_of(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    output.status.success().then_some(())?;
    Some(String::from_utf8(output.stdout).ok()?.trim().to_string())
}

fn main() {
    let repo = Path::new("..");
    // Only ask git inside this repository: a checkout without `.git` must
    // not pick up an enclosing repository's commit.
    let commit = if repo.join(".git").exists() {
        for watched in [".git/HEAD", ".git/logs/HEAD"] {
            if repo.join(watched).exists() {
                println!("cargo:rerun-if-changed=../{watched}");
            }
        }
        stdout_of(
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(repo),
        )
    } else {
        None
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("--version"));
    println!("cargo:rerun-if-changed=build.rs");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.as_deref().unwrap_or("unknown")
    );
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
}
