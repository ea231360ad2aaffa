//! The `coverme` command line: its usage text, the [`Options`] every
//! subcommand reads, the parser that fills them, and the
//! [`SubcommandSet`] that picks the subcommand.
//!
//! Every bad invocation — an unknown flag, a flag missing its value, a
//! junk value — prints the usage text and exits 2, so a flag typo is never
//! misread as an operand and a CI step never mistakes it for a result.

use std::time::Duration;

use coverme::{CoverMeConfig, InfeasiblePolicy, LocalMethod};

/// The `coverme` usage text, printed by `--help` and after every usage
/// error.
pub const USAGE: &str = "\
usage: coverme <command> [options]
commands:
  run <file.fpir>        test one FPIR program
  campaign <dir>         test every .fpir file in a directory (sorted by name)
  campaign --suite fdlibm [names...]
                         test fdlibm benchmarks (default: all 40)
  serve                  start the campaign daemon (JSON-lines TCP protocol)
  submit <file.fpir...>  submit a campaign job to a running daemon
  corpus <ls|stats|gc>   inspect or prune a corpus store
options:
  --entry NAME         entry function (run mode only)
  --fuel N             step budget per FPIR execution (default 100000)
  --n-start N          starting points per function (default 80)
  --seed S             master seed (default 42)
  --shards N           shards per function (default 1 = unsharded)
  --local METHOD       local minimizer: powell (default), nm, compass
  --infeasible POLICY  infeasibility blame: last (default), all, off
  --time-budget SECS   wall-clock budget in seconds
  --json PATH          write a machine-readable report to PATH (atomic)
  --stream             per-round (run) / per-function (campaign) progress
  --workers N          worker threads (default: auto); serve: shared pool size
  --corpus DIR         persistent corpus store: warm-start repeats, record results
  --suite fdlibm       campaign/submit: operands name fdlibm functions
serve options:
  --port N             listen port (default 0 = ephemeral, printed on start)
  --max-jobs N         concurrently running campaigns (default 4)
  --tier NAME=EVALS    per-tenant evaluation pool, split evenly over each
                       job's functions (repeatable)
submit options:
  --connect HOST:PORT  daemon address (required)
  --tenant NAME        tenant to submit as (default: default)
  --op OP              raw daemon op instead of a campaign: ping|stats|gc|shutdown
corpus options:
  --keep N             entries `corpus gc` keeps, newest first (default 64)
  --help               print this message";

/// Bad invocation: the message and the usage text on stderr, exit 2 (the
/// conventional status, distinct from a source or I/O failure's exit 1).
pub fn usage_error(message: &str) -> ! {
    eprintln!("coverme: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Every `coverme` option, with its default.
#[derive(Debug, Clone)]
pub struct Options {
    /// Starting points per function (`--n-start`).
    pub n_start: usize,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Shards per function (`--shards`; 1 = unsharded).
    pub shards: usize,
    /// Local minimizer (`--local powell|nm|compass`).
    pub local_method: LocalMethod,
    /// Wall-clock budget (`--time-budget SECS`).
    pub time_budget: Option<Duration>,
    /// Infeasibility heuristic (`--infeasible last|all|off`).
    pub infeasible_policy: InfeasiblePolicy,
    /// Machine-readable report path (`--json PATH`, written atomically).
    pub json_path: Option<String>,
    /// Streaming progress (`--stream`).
    pub stream: bool,
    /// Worker threads (`--workers`; 0 = auto).
    pub workers: usize,
    /// Persistent corpus store directory (`--corpus DIR`): warm-start
    /// repeat searches from prior winners and record completed results
    /// back (see `coverme::corpus`).
    pub corpus_dir: Option<String>,
    /// Entry function of `run`'s program (`--entry`).
    pub entry: Option<String>,
    /// Step budget per FPIR execution (`--fuel`, positive).
    pub fuel: Option<usize>,
    /// `serve`'s listen port (`--port`; 0 = ephemeral).
    pub port: u16,
    /// `serve`'s concurrently running campaigns (`--max-jobs`, positive).
    pub max_jobs: usize,
    /// `serve`'s per-tenant evaluation pools (`--tier NAME=EVALS`).
    pub tiers: Vec<(String, usize)>,
    /// `submit`'s daemon address (`--connect HOST:PORT`).
    pub connect: Option<String>,
    /// `submit`'s tenant (`--tenant`).
    pub tenant: Option<String>,
    /// Built-in suite whose functions the operands name (`--suite`).
    pub suite: Option<String>,
    /// `submit`'s raw daemon op (`--op`).
    pub op: Option<String>,
    /// Entries `corpus gc` keeps (`--keep`).
    pub keep: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
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
            entry: None,
            fuel: None,
            port: 0,
            max_jobs: 4,
            tiers: Vec::new(),
            connect: None,
            tenant: None,
            suite: None,
            op: None,
            keep: 64,
        }
    }
}

impl Options {
    /// Parses the arguments after the subcommand into the options and the
    /// operands, in order. `--help`/`-h` print the usage text and exit 0;
    /// a bad invocation is a [`usage_error`].
    pub fn parse(args: impl Iterator<Item = String>) -> (Vec<String>, Options) {
        let mut parser = ArgParser(args);
        let mut options = Options::default();
        let mut operands = Vec::new();
        while let Some(arg) = parser.0.next() {
            match arg.as_str() {
                "--n-start" => options.n_start = parser.parsed("--n-start"),
                "--seed" => options.seed = parser.parsed("--seed"),
                "--shards" => options.shards = parser.parsed("--shards"),
                "--local" => {
                    options.local_method = match parser.value_for("--local").as_str() {
                        "powell" => LocalMethod::Powell,
                        "nm" | "nelder-mead" => LocalMethod::NelderMead,
                        "compass" => LocalMethod::Compass,
                        other => usage_error(&format!("--local got unknown method {other}")),
                    };
                }
                "--time-budget" => {
                    let value = parser.value_for("--time-budget");
                    let budget = seconds(&value).unwrap_or_else(|| {
                        usage_error(&format!("--time-budget got invalid value {value}"))
                    });
                    options.time_budget = Some(budget);
                }
                "--infeasible" => {
                    options.infeasible_policy = match parser.value_for("--infeasible").as_str() {
                        "last" => InfeasiblePolicy::LastConditional,
                        "all" => InfeasiblePolicy::Generalized,
                        "off" => InfeasiblePolicy::Disabled,
                        other => usage_error(&format!("--infeasible got unknown policy {other}")),
                    };
                }
                "--json" => options.json_path = Some(parser.value_for("--json")),
                "--stream" => options.stream = true,
                "--workers" => options.workers = parser.parsed("--workers"),
                "--corpus" => options.corpus_dir = Some(parser.value_for("--corpus")),
                "--entry" => options.entry = Some(parser.value_for("--entry")),
                "--fuel" => {
                    let fuel: usize = parser.parsed("--fuel");
                    if fuel == 0 {
                        usage_error("--fuel must be positive");
                    }
                    options.fuel = Some(fuel);
                }
                "--port" => options.port = parser.parsed("--port"),
                "--max-jobs" => {
                    let max_jobs: usize = parser.parsed("--max-jobs");
                    if max_jobs == 0 {
                        usage_error("--max-jobs must be positive");
                    }
                    options.max_jobs = max_jobs;
                }
                "--tier" => {
                    let spec = parser.value_for("--tier");
                    let Some((name, evals)) = spec.split_once('=') else {
                        usage_error(&format!("--tier wants NAME=EVALS, found {spec}"));
                    };
                    let Ok(evals) = evals.parse::<usize>() else {
                        usage_error(&format!("--tier got invalid eval count {evals}"));
                    };
                    options.tiers.push((name.to_string(), evals));
                }
                "--connect" => options.connect = Some(parser.value_for("--connect")),
                "--tenant" => options.tenant = Some(parser.value_for("--tenant")),
                "--suite" => options.suite = Some(parser.value_for("--suite")),
                "--op" => options.op = Some(parser.value_for("--op")),
                "--keep" => options.keep = parser.parsed("--keep"),
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
                operand => operands.push(operand.to_string()),
            }
        }
        (operands, options)
    }

    /// The search configuration these options describe — everything except
    /// the campaign-level knobs (`workers`, `json_path`, `stream`), which
    /// the subcommands apply themselves.
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

/// The argument iterator, with the rules for a flag's value.
struct ArgParser<I>(I);

impl<I: Iterator<Item = String>> ArgParser<I> {
    /// A flag's value must be a real operand: the next argument, and not
    /// another flag — `--json --shards` is a missing path, not a path.
    fn value_for(&mut self, flag: &str) -> String {
        match self.0.next() {
            Some(value) if !value.starts_with("--") => value,
            Some(value) => usage_error(&format!("{flag} needs a value, found flag {value}")),
            None => usage_error(&format!("{flag} needs a value")),
        }
    }

    /// Extracts and parses a flag's value; junk is a usage error.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value_for(flag);
        value
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} got invalid value {value}")))
    }
}

/// A `--time-budget` value: a non-negative number of seconds that fits a
/// [`Duration`]. `nan`, `inf`, negatives and overflowing values are `None`.
fn seconds(value: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(value.parse().ok()?).ok()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> (Vec<String>, Options) {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn common_flags_update_the_options() {
        let (operands, options) = parse(&[
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
            "--suite",
            "fdlibm",
        ]);
        assert!(operands.is_empty(), "{operands:?}");
        assert_eq!(options.n_start, 17);
        assert_eq!(options.seed, 7);
        assert_eq!(options.shards, 3);
        assert_eq!(options.local_method, LocalMethod::NelderMead);
        assert_eq!(options.time_budget, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(options.infeasible_policy, InfeasiblePolicy::Generalized);
        assert_eq!(options.json_path.as_deref(), Some("out.json"));
        assert!(options.stream);
        assert_eq!(options.workers, 4);
        assert_eq!(options.suite.as_deref(), Some("fdlibm"));
    }

    #[test]
    fn time_budgets_outside_a_duration_are_rejected() {
        assert_eq!(seconds("1.5"), Some(Duration::from_millis(1500)));
        assert_eq!(seconds("0"), Some(Duration::ZERO));
        assert_eq!(
            seconds("1e19"),
            Some(Duration::from_secs(10_000_000_000_000_000_000))
        );
        for junk in ["nan", "inf", "-inf", "1e30", "-1", "soon"] {
            assert_eq!(seconds(junk), None, "{junk}");
        }
    }

    #[test]
    fn unrecognized_arguments_are_left_to_the_caller() {
        // Operands, interleaved with flags, come back in order for the
        // subcommand to interpret; a flag's value is never an operand.
        let (operands, options) = parse(&["tanh", "--entry", "main", "file.fpir", "pow"]);
        assert_eq!(operands, ["tanh", "file.fpir", "pow"]);
        assert_eq!(options.entry.as_deref(), Some("main"));
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
        let (_, options) = parse(&["--corpus", ".corpus"]);
        assert_eq!(options.corpus_dir.as_deref(), Some(".corpus"));
    }

    #[test]
    fn search_config_carries_the_shards_and_n_start() {
        let options = Options {
            shards: 2,
            ..Options::default()
        };
        let config = options.search_config();
        assert_eq!(config.shards, 2);
        assert_eq!(config.n_start, 80);
    }
}
