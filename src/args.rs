//! Shared command-line plumbing for the workspace's front ends.
//!
//! The `coverme` binary and the `fdlibm_campaign` example grew the same
//! flag-parsing loop independently — same `--seed`/`--shards`/`--local`
//! spellings, same "a flag's value must not itself be a flag" rule, same
//! exit-2-with-usage convention. This module is the single copy both now
//! share: an [`ArgParser`] that owns the iterator mechanics and the error
//! convention, a [`CommonOptions`] struct holding every flag the front
//! ends have in common, and the [`write_json_atomic`] artifact writer.
//!
//! Front-end-specific flags stay in the front ends: the parser hands back
//! any argument [`accept_common`](ArgParser::accept_common) does not
//! recognize, and the caller decides whether it is a local flag, an
//! operand, or — for anything dash-prefixed it does not know — a usage
//! error (exit 2), so a flag typo can never be misread as an operand.

use std::time::Duration;

use coverme::{CoverMeConfig, InfeasiblePolicy, LocalMethod};

/// Every option the front ends share, with the front ends' historical
/// defaults (`n_start` 80, seed 42, unsharded, Powell).
#[derive(Debug, Clone)]
pub struct CommonOptions {
    /// Starting points per function (`--n-start`).
    pub n_start: usize,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Shards per function (`--shards`; 1 = unsharded).
    pub shards: usize,
    /// Local minimizer (`--local powell|nm|compass|none`).
    pub local_method: LocalMethod,
    /// Wall-clock budget (`--time-budget SECS`).
    pub time_budget: Option<Duration>,
    /// Infeasibility heuristic (`--infeasible last|all|off`).
    pub infeasible_policy: InfeasiblePolicy,
    /// Machine-readable report path (`--json PATH`, written atomically).
    pub json_path: Option<String>,
    /// Streaming progress (`--stream`).
    pub stream: bool,
    /// Campaign worker threads (`--workers`; 0 = auto).
    pub workers: usize,
    /// Persistent corpus store directory (`--corpus DIR`): warm-start
    /// repeat searches from prior winners and record completed results
    /// back (see `coverme::corpus`).
    pub corpus_dir: Option<String>,
}

impl Default for CommonOptions {
    fn default() -> Self {
        CommonOptions {
            n_start: 80,
            seed: 42,
            shards: 1,
            local_method: LocalMethod::Powell,
            time_budget: None,
            infeasible_policy: InfeasiblePolicy::LastConditional,
            json_path: None,
            stream: false,
            workers: 0,
            corpus_dir: None,
        }
    }
}

impl CommonOptions {
    /// The search configuration these options describe — everything except
    /// the campaign-level knobs (`workers`, `json_path`, `stream`), which
    /// the front ends apply themselves.
    pub fn search_config(&self) -> CoverMeConfig {
        let mut config = CoverMeConfig::default()
            .with_n_start(self.n_start)
            .with_seed(self.seed)
            .with_local_method(self.local_method)
            .with_shards(self.shards)
            .with_infeasible_policy(self.infeasible_policy);
        if let Some(budget) = self.time_budget {
            config = config.with_time_budget(budget);
        }
        config
    }
}

/// The usage lines for the flags [`ArgParser::accept_common`] handles,
/// ready to splice into a front end's usage text.
pub const COMMON_USAGE: &str = "\
  --n-start N          starting points per function (default 80)
  --seed S             master seed (default 42)
  --shards N           shards per function (default 1 = unsharded)
  --local METHOD       local minimizer: powell (default), nm, compass, none
  --infeasible POLICY  infeasibility blame: last (default), all, off
  --time-budget SECS   wall-clock budget in seconds
  --json PATH          write a machine-readable report to PATH (atomic)
  --stream             print progress as it happens
  --workers N          campaign worker threads (default: auto)
  --corpus DIR         persistent corpus store: warm-start repeats, record results
  --help               print this message";

/// Flag-parsing mechanics shared by the front ends: iterator handling,
/// value extraction, typed parsing, and the exit-2 usage-error convention.
pub struct ArgParser<I: Iterator<Item = String>> {
    tool: &'static str,
    usage: &'static str,
    iter: I,
}

impl<I: Iterator<Item = String>> ArgParser<I> {
    /// Wraps an argument iterator. `tool` prefixes error messages; `usage`
    /// is printed after them (and by `--help`).
    pub fn new(tool: &'static str, usage: &'static str, iter: I) -> Self {
        ArgParser { tool, usage, iter }
    }

    /// The next raw argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.iter.next()
    }

    /// Bad invocation: usage text on stderr, exit 2 (the conventional
    /// status, distinct from a source/I-O failure's exit 1) — so CI steps
    /// cannot misread a flag typo as a tool result.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}\n{}", self.tool, self.usage);
        std::process::exit(2);
    }

    /// A flag's value must be a real operand: the next argument, and not
    /// another flag — `--json --shards` is a missing path, not a path.
    pub fn value_for(&mut self, flag: &str) -> String {
        match self.iter.next() {
            Some(value) if !value.starts_with("--") => value,
            Some(value) => self.usage_error(&format!("{flag} needs a value, found flag {value}")),
            None => self.usage_error(&format!("{flag} needs a value")),
        }
    }

    /// Extracts and parses a flag's value, aborting with a usage message
    /// on junk.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value_for(flag);
        value
            .parse()
            .unwrap_or_else(|_| self.usage_error(&format!("{flag} got invalid value {value}")))
    }

    /// Tries to consume `arg` as one of the shared flags, updating
    /// `options`; returns `true` when it did. `--help`/`-h` print the
    /// usage text and exit 0. Anything unrecognized — front-end-specific
    /// flags and operands alike — is left to the caller.
    pub fn accept_common(&mut self, arg: &str, options: &mut CommonOptions) -> bool {
        match arg {
            "--n-start" => options.n_start = self.parsed("--n-start"),
            "--seed" => options.seed = self.parsed("--seed"),
            "--shards" => options.shards = self.parsed("--shards"),
            "--local" => {
                options.local_method = match self.value_for("--local").as_str() {
                    "powell" => LocalMethod::Powell,
                    "nm" | "nelder-mead" => LocalMethod::NelderMead,
                    "compass" => LocalMethod::Compass,
                    "none" => LocalMethod::None,
                    other => self.usage_error(&format!("--local got unknown method {other}")),
                };
            }
            "--time-budget" => {
                let secs: f64 = self.parsed("--time-budget");
                options.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--infeasible" => {
                options.infeasible_policy = match self.value_for("--infeasible").as_str() {
                    "last" => InfeasiblePolicy::LastConditional,
                    "all" => InfeasiblePolicy::Generalized,
                    "off" => InfeasiblePolicy::Disabled,
                    other => self.usage_error(&format!("--infeasible got unknown policy {other}")),
                };
            }
            "--json" => options.json_path = Some(self.value_for("--json")),
            "--stream" => options.stream = true,
            "--workers" => options.workers = self.parsed("--workers"),
            "--corpus" => options.corpus_dir = Some(self.value_for("--corpus")),
            "--help" | "-h" => {
                println!("{}", self.usage);
                std::process::exit(0);
            }
            _ => return false,
        }
        true
    }
}

/// Declarative subcommand table for a front end with several modes: the
/// registered names, their one-line summaries (spliced into usage text via
/// [`summaries`](Self::summaries)), and the resolution conventions —
/// missing command exits 2, `help` variants exit 0, unknown commands exit
/// 2 listing what exists. Nested subcommands (`coverme corpus ls`) just
/// use a second `SubcommandSet` on the first operand.
pub struct SubcommandSet {
    tool: &'static str,
    usage: &'static str,
    commands: &'static [(&'static str, &'static str)],
}

impl SubcommandSet {
    /// Builds a table. `commands` pairs each name with a one-line summary.
    pub fn new(
        tool: &'static str,
        usage: &'static str,
        commands: &'static [(&'static str, &'static str)],
    ) -> Self {
        SubcommandSet {
            tool,
            usage,
            commands,
        }
    }

    /// Looks a name up, exact match only.
    pub fn find(&self, name: &str) -> Option<&'static str> {
        self.commands
            .iter()
            .find(|(command, _)| *command == name)
            .map(|(command, _)| *command)
    }

    /// The usage lines for the registered subcommands, one `  name  summary`
    /// row per command.
    pub fn summaries(&self) -> String {
        let width = self
            .commands
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        self.commands
            .iter()
            .map(|(name, summary)| format!("  {name:width$}   {summary}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Resolves the leading argument to a registered subcommand, applying
    /// the exit conventions: `None` is a missing command (exit 2),
    /// `help`/`--help`/`-h` print the usage text (exit 0), anything
    /// unregistered is a usage error naming the alternatives (exit 2).
    pub fn resolve(&self, first: Option<String>) -> &'static str {
        let Some(name) = first else {
            eprintln!("{}: missing command\n{}", self.tool, self.usage);
            std::process::exit(2);
        };
        if matches!(name.as_str(), "help" | "--help" | "-h") {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.find(&name).unwrap_or_else(|| {
            let known: Vec<&str> = self.commands.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "{}: unknown command {name} (expected one of: {})\n{}",
                self.tool,
                known.join(", "),
                self.usage
            );
            std::process::exit(2);
        })
    }
}

/// Atomic JSON write (tmp + rename), so an interrupted run never leaves a
/// truncated artifact: the document lands in a sibling temp file first and
/// is renamed into place — the rename either happens or it doesn't.
/// Exits 1 on an I/O failure.
pub fn write_json_atomic(path: &str, json: &str) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, json).unwrap_or_else(|error| {
        eprintln!("cannot write {tmp}: {error}");
        std::process::exit(1);
    });
    std::fs::rename(&tmp, path).unwrap_or_else(|error| {
        eprintln!("cannot rename {tmp} to {path}: {error}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser(args: &[&str]) -> ArgParser<std::vec::IntoIter<String>> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ArgParser::new("test", "usage", args.into_iter())
    }

    #[test]
    fn common_flags_update_the_options() {
        let mut p = parser(&[
            "--n-start",
            "17",
            "--seed",
            "7",
            "--shards",
            "3",
            "--local",
            "nm",
            "--time-budget",
            "1.5",
            "--infeasible",
            "all",
            "--json",
            "out.json",
            "--stream",
            "--workers",
            "4",
        ]);
        let mut options = CommonOptions::default();
        while let Some(arg) = p.next_arg() {
            assert!(p.accept_common(&arg, &mut options), "unhandled {arg}");
        }
        assert_eq!(options.n_start, 17);
        assert_eq!(options.seed, 7);
        assert_eq!(options.shards, 3);
        assert_eq!(options.local_method, LocalMethod::NelderMead);
        assert_eq!(options.time_budget, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(options.infeasible_policy, InfeasiblePolicy::Generalized);
        assert_eq!(options.json_path.as_deref(), Some("out.json"));
        assert!(options.stream);
        assert_eq!(options.workers, 4);
    }

    #[test]
    fn unrecognized_arguments_are_left_to_the_caller() {
        let mut p = parser(&["--entry", "main", "file.fpir"]);
        let mut options = CommonOptions::default();
        let arg = p.next_arg().unwrap();
        assert!(!p.accept_common(&arg, &mut options));
        // The caller consumes its own flag's value through the parser.
        assert_eq!(p.value_for("--entry"), "main");
        let operand = p.next_arg().unwrap();
        assert!(!p.accept_common(&operand, &mut options));
        assert_eq!(operand, "file.fpir");
    }

    #[test]
    fn subcommand_lookup_resolution_and_summaries() {
        let set = SubcommandSet::new(
            "test",
            "usage",
            &[("run", "test one program"), ("corpus", "inspect the store")],
        );
        assert_eq!(set.find("run"), Some("run"));
        assert_eq!(set.find("serve"), None);
        assert_eq!(set.resolve(Some("corpus".to_string())), "corpus");
        let rows = set.summaries();
        assert!(rows.contains("run") && rows.contains("inspect the store"));
    }

    #[test]
    fn corpus_flag_reaches_the_options() {
        let mut p = parser(&["--corpus", ".corpus"]);
        let mut options = CommonOptions::default();
        while let Some(arg) = p.next_arg() {
            assert!(p.accept_common(&arg, &mut options), "unhandled {arg}");
        }
        assert_eq!(options.corpus_dir.as_deref(), Some(".corpus"));
    }

    #[test]
    fn search_config_carries_the_shards_and_n_start() {
        let options = CommonOptions {
            shards: 2,
            ..CommonOptions::default()
        };
        let config = options.search_config();
        assert_eq!(config.shards, 2);
        assert_eq!(config.n_start, 80);
    }
}
