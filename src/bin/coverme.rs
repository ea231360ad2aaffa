//! The `coverme` command-line front end: run CoverMe on FPIR source files,
//! locally or against a long-running campaign daemon.
//!
//! The paper's tool is invoked on C source; this reproduction's equivalent
//! front door takes FPIR mini-language files (see `coverme-fpir` and the
//! checked-in corpus in `examples/fpir/`) and drives the same search
//! machinery the library exposes — sharding, the streaming campaign
//! scheduler and the persistent corpus store (`--corpus DIR`, see
//! `coverme::corpus`). Every FPIR program runs on its lowered tape.
//!
//! ```text
//! coverme run <file.fpir> [options]       test one program
//! coverme campaign <dir> [options]        test every .fpir file in a directory
//! coverme serve [options]                 start the campaign daemon
//! coverme submit <file.fpir...> [options] submit a job to a running daemon
//! coverme corpus <ls|stats|gc> [options]  inspect or prune a corpus store
//! ```
//!
//! The common options (`--seed`, `--shards`, `--local`, `--json`, …)
//! are shared with the `fdlibm_campaign` example through
//! [`coverme_repro::args`]; subcommand-specific flags are listed in the
//! usage text below.
//!
//! `run` exits 0 and prints the usual coverage report; its JSON carries an
//! `outcome` field — `done` when every evaluation ran to completion,
//! `timeout`/`trap` when executions aborted (the dominant classification) —
//! which is what the CI smoke test greps to pin that a non-terminating
//! program degrades instead of hanging. Bad invocations exit 2; source or
//! I/O errors exit 1 with a positioned message.

use std::sync::Arc;

use coverme::report::schema::{self, member, JsonValue};
use coverme::{
    Campaign, CampaignConfig, CampaignEvent, CampaignReport, CorpusStore, CoverMe, CoverMeConfig,
    Program, SearchState,
};
use coverme_fpir::{check, infer_entry, instrument, parse, IrProgram, Module};
use coverme_repro::args::{write_json_atomic, ArgParser, CommonOptions, SubcommandSet};
use coverme_repro::serve::{serve, submit_job, ServeOptions};

const USAGE: &str = "\
usage: coverme <command> [options]
commands:
  run <file.fpir>        test one FPIR program
  campaign <dir>         test every .fpir file in a directory (sorted by name)
  serve                  start the campaign daemon (JSON-lines TCP protocol)
  submit <file.fpir...>  submit a campaign job to a running daemon
  corpus <ls|stats|gc>   inspect or prune a corpus store
options:
  --entry NAME         entry function (run mode only)
  --fuel N             step budget per execution (default 100000)
  --n-start N          starting points per function (default 80)
  --seed S             master seed (default 42)
  --shards N           shards per function (default 1 = unsharded)
  --local METHOD       local minimizer: powell (default), nm, compass, none
  --infeasible POLICY  infeasibility blame: last (default), all, off
  --time-budget SECS   wall-clock budget in seconds
  --json PATH          write a machine-readable report to PATH (atomic)
  --stream             per-round (run) / per-function (campaign) progress
  --workers N          worker threads (default: auto); serve: shared pool size
  --corpus DIR         persistent corpus store: warm-start repeats, record results
serve options:
  --port N             listen port (default 0 = ephemeral, printed on start)
  --max-jobs N         concurrently running campaigns (default 4)
  --tier NAME=EVALS    per-tenant evaluation pool, split evenly over each
                       job's functions (repeatable)
submit options:
  --connect HOST:PORT  daemon address (required)
  --tenant NAME        tenant to submit as (default: default)
  --suite fdlibm       submit fdlibm benchmarks (operands name functions)
  --op OP              raw daemon op instead of a campaign: ping|stats|gc|shutdown
corpus options:
  --keep N             entries `corpus gc` keeps, newest first (default 64)
  --help               print this message";

const COMMANDS: &[(&str, &str)] = &[
    ("run", "test one FPIR program"),
    ("campaign", "test every .fpir file in a directory"),
    ("serve", "start the campaign daemon"),
    ("submit", "submit a campaign job to a running daemon"),
    ("corpus", "inspect or prune a corpus store"),
];

const CORPUS_COMMANDS: &[(&str, &str)] = &[
    ("ls", "list corpus entries"),
    ("stats", "aggregate corpus numbers"),
    ("gc", "prune to the newest entries"),
];

/// Source or I/O failure: positioned message on stderr, exit 1.
fn run_error(message: &str) -> ! {
    eprintln!("coverme: {message}");
    std::process::exit(1);
}

/// The subcommand-specific flags on top of the shared set.
struct Options {
    common: CommonOptions,
    entry: Option<String>,
    fuel: Option<usize>,
    port: u16,
    max_jobs: usize,
    tiers: Vec<(String, usize)>,
    connect: Option<String>,
    tenant: Option<String>,
    suite: Option<String>,
    op: Option<String>,
    keep: usize,
}

fn parse_options(args: impl Iterator<Item = String>) -> (Vec<String>, Options) {
    let mut parser = ArgParser::new("coverme", USAGE, args);
    let mut options = Options {
        common: CommonOptions::default(),
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
    };
    let mut operands = Vec::new();
    while let Some(arg) = parser.next_arg() {
        if parser.accept_common(&arg, &mut options.common) {
            continue;
        }
        match arg.as_str() {
            "--entry" => options.entry = Some(parser.value_for("--entry")),
            "--fuel" => {
                let fuel: usize = parser.parsed("--fuel");
                if fuel == 0 {
                    parser.usage_error("--fuel must be positive");
                }
                options.fuel = Some(fuel);
            }
            "--port" => options.port = parser.parsed("--port"),
            "--max-jobs" => {
                let max_jobs: usize = parser.parsed("--max-jobs");
                if max_jobs == 0 {
                    parser.usage_error("--max-jobs must be positive");
                }
                options.max_jobs = max_jobs;
            }
            "--tier" => {
                let spec = parser.value_for("--tier");
                let Some((name, evals)) = spec.split_once('=') else {
                    parser.usage_error(&format!("--tier wants NAME=EVALS, found {spec}"));
                };
                let Ok(evals) = evals.parse::<usize>() else {
                    parser.usage_error(&format!("--tier got invalid eval count {evals}"));
                };
                options.tiers.push((name.to_string(), evals));
            }
            "--connect" => options.connect = Some(parser.value_for("--connect")),
            "--tenant" => options.tenant = Some(parser.value_for("--tenant")),
            "--suite" => options.suite = Some(parser.value_for("--suite")),
            "--op" => options.op = Some(parser.value_for("--op")),
            "--keep" => options.keep = parser.parsed("--keep"),
            flag if flag.starts_with('-') => {
                parser.usage_error(&format!("unknown flag {flag}"));
            }
            operand => operands.push(operand.to_string()),
        }
    }
    (operands, options)
}

fn search_config(options: &Options) -> CoverMeConfig {
    options.common.search_config()
}

/// Opens the corpus store named by `--corpus`, if any. Exit 1 on I/O
/// failure — a requested store that cannot be opened must not silently
/// degrade to a cold run.
fn open_corpus(options: &Options) -> Option<Arc<CorpusStore>> {
    options.common.corpus_dir.as_ref().map(|dir| {
        Arc::new(
            CorpusStore::open(dir)
                .unwrap_or_else(|error| run_error(&format!("cannot open corpus {dir}: {error}"))),
        )
    })
}

/// Picks the entry function: `--entry` wins, else [`infer_entry`]'s rule;
/// anything else is an error listing what the module defines.
fn entry_for(module: &Module, path: &str, requested: Option<&str>) -> String {
    let defined = || {
        let names: Vec<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
        names.join(", ")
    };
    match requested {
        Some(name) if module.function(name).is_none() => run_error(&format!(
            "{path}: no function named {name} (defines: {})",
            defined()
        )),
        Some(name) => name.to_string(),
        None => infer_entry(module, path).unwrap_or_else(|| {
            run_error(&format!(
                "{path}: cannot infer the entry function (defines: {}); name it like the \
                 file or `entry`, or pass --entry to `coverme run`",
                defined()
            ))
        }),
    }
}

/// Loads, checks and instruments one FPIR file into an executable program.
fn load_program(path: &str, entry: Option<&str>, fuel: Option<usize>) -> IrProgram {
    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|error| run_error(&format!("cannot read {path}: {error}")));
    let module = parse(&source).unwrap_or_else(|error| run_error(&format!("{path}: {error}")));
    let entry = entry_for(&module, path, entry);
    let module = check(module).unwrap_or_else(|error| run_error(&format!("{path}: {error}")));
    let instrumented =
        instrument(module, &entry).unwrap_or_else(|error| run_error(&format!("{path}: {error}")));
    let program =
        IrProgram::new(instrumented).unwrap_or_else(|error| run_error(&format!("{path}: {error}")));
    match fuel {
        Some(fuel) => program.with_fuel(fuel),
        None => program,
    }
}

fn cmd_run(path: &str, options: &Options) {
    let program = load_program(path, options.entry.as_deref(), options.fuel);
    let entry = program.name().to_string();
    let mut config = search_config(options);
    let corpus = open_corpus(options);
    let fingerprint = corpus.as_ref().map(|store| {
        let fingerprint = program.fingerprint();
        if let Some(warm) = store.warm_start_for(
            fingerprint,
            program.arity(),
            program.num_sites(),
            config.search_key(),
        ) {
            config = config.clone().with_warm_start(warm);
        }
        fingerprint
    });
    let record_config = config.clone();
    let report = if options.common.stream {
        if config.effective_shards() > 1 {
            usage_error("--stream run mode is unsharded; drop --shards");
        }
        let outcome = SearchState::new(&config, &program, 0).run(&mut |record| {
            println!(
                "round {:>4}: value {:<12} {:?}",
                record.round, record.value, record.outcome
            );
        });
        println!("search finished: {:?}", outcome.outcome);
        outcome.into_report(&entry)
    } else {
        CoverMe::new(config).run(&program)
    };
    if let (Some(store), Some(fingerprint)) = (&corpus, fingerprint) {
        if let Err(error) = store.record_report(fingerprint, &record_config, &report) {
            eprintln!("coverme: corpus record failed: {error}");
        }
    }
    print!("{report}");
    if report.warm_replayed > 0 {
        println!(
            "warm start: {} corpus inputs replayed",
            report.warm_replayed
        );
    }
    println!("outcome: {}", report.outcome_label());
    if let Some(json_path) = &options.common.json_path {
        write_json_atomic(json_path, &report.to_run_json(&entry, path));
    }
}

/// Bad invocation detected after parsing: usage text on stderr, exit 2.
fn usage_error(message: &str) -> ! {
    eprintln!("coverme: {message}\n{USAGE}");
    std::process::exit(2);
}

fn cmd_campaign(dir: &str, options: &Options) {
    if options.entry.is_some() {
        usage_error("--entry applies to run mode only");
    }
    let mut paths: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|error| run_error(&format!("cannot read {dir}: {error}")))
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "fpir"))
        .filter_map(|path| path.to_str().map(str::to_string))
        .collect();
    paths.sort();
    if paths.is_empty() {
        run_error(&format!("{dir}: no .fpir files"));
    }
    let inventory: Vec<IrProgram> = paths
        .iter()
        .map(|path| load_program(path, None, options.fuel))
        .collect();

    let mut config = CampaignConfig::new()
        .with_base(search_config(options))
        .with_workers(options.common.workers);
    if let Some(budget) = options.common.time_budget {
        config = config.with_time_budget(budget);
    }
    if let Some(store) = open_corpus(options) {
        config = config.with_corpus(store);
    }
    let campaign = Campaign::new(config);
    let report = if options.common.stream {
        println!("{}", CampaignReport::table_header());
        let report = campaign.run_with(&inventory, |event| {
            let CampaignEvent::FunctionFinished { result, .. } = event;
            println!("{}", result.table_row());
        });
        println!("{}", report.summary());
        report
    } else {
        let report = campaign.run(&inventory);
        print!("{report}");
        report
    };
    if report.corpus_warm_start() {
        println!(
            "warm start: {} corpus inputs replayed across the suite",
            report.total_warm_replayed()
        );
    }
    if let Some(json_path) = &options.common.json_path {
        write_json_atomic(json_path, &report.to_json());
    }
}

fn cmd_serve(options: &Options) {
    let serve_options = ServeOptions {
        max_jobs: options.max_jobs,
        workers: options.common.workers,
        corpus: open_corpus(options),
        tiers: options.tiers.clone(),
        base: search_config(options),
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", options.port))
        .unwrap_or_else(|error| run_error(&format!("cannot bind port {}: {error}", options.port)));
    if let Err(error) = serve(listener, serve_options) {
        run_error(&format!("serve failed: {error}"));
    }
}

fn cmd_submit(operands: &[String], options: &Options) {
    let Some(addr) = &options.connect else {
        usage_error("submit needs --connect HOST:PORT");
    };
    let request = match options.op.as_deref() {
        Some(op @ ("ping" | "stats" | "shutdown")) => vec![member("op", op)],
        Some("gc") => vec![member("op", "gc"), member("keep", options.keep)],
        Some(other) => usage_error(&format!(
            "--op got unknown op {other} (ping, stats, gc, shutdown)"
        )),
        None => {
            let mut members = vec![
                member("op", "campaign"),
                member("tenant", options.tenant.as_deref().unwrap_or("default")),
                member("seed", options.common.seed as f64),
                member("n_start", options.common.n_start),
            ];
            if let Some(fuel) = options.fuel {
                members.push(member("fuel", fuel));
            }
            match options.suite.as_deref() {
                Some(suite) => {
                    members.push(member("suite", suite));
                    if !operands.is_empty() {
                        let names = operands.iter().map(|name| name.as_str().into());
                        members.push(member("functions", JsonValue::Array(names.collect())));
                    }
                }
                None => {
                    if operands.is_empty() {
                        usage_error("submit takes .fpir files (or --suite fdlibm)");
                    }
                    let sources: Vec<JsonValue> = operands
                        .iter()
                        .map(|path| {
                            let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
                                run_error(&format!("cannot read {path}: {error}"))
                            });
                            JsonValue::Object(vec![
                                member("path", path.as_str()),
                                member("text", text),
                            ])
                        })
                        .collect();
                    members.push(member("sources", JsonValue::Array(sources)));
                }
            }
            members
        }
    };
    let request = JsonValue::Object(request).to_compact();
    let outcome = submit_job(addr, &request, |event| {
        println!("{}", event.to_compact());
    })
    .unwrap_or_else(|error| run_error(&format!("cannot reach {addr}: {error}")));
    match outcome {
        Ok(report) => {
            if let (Some(json_path), Some(report)) = (&options.common.json_path, report) {
                // The same indented layout `coverme campaign --json` writes.
                let report = schema::parse(&report).expect("submit_job returns compact JSON");
                write_json_atomic(json_path, &report.to_pretty());
            }
        }
        Err(reason) => run_error(&format!("daemon refused the request: {reason}")),
    }
}

fn cmd_corpus(operands: &[String], options: &Options) {
    let corpus_usage = "usage: coverme corpus <ls|stats|gc> --corpus DIR [--keep N]";
    let set = SubcommandSet::new("coverme corpus", corpus_usage, CORPUS_COMMANDS);
    let sub = set.resolve(operands.first().cloned());
    let Some(store) = open_corpus(options) else {
        usage_error("corpus commands need --corpus DIR");
    };
    match sub {
        "ls" => {
            for entry in store.entries() {
                println!(
                    "{:016x}  {:<24} {:>3}/{:<3} branches {:>4} inputs {:>3} verdicts  gen {}",
                    entry.fingerprint,
                    entry.name,
                    entry.covered_branches,
                    entry.total_branches,
                    entry.inputs.len(),
                    entry.infeasible.len(),
                    entry.generation
                );
            }
        }
        "stats" => {
            let stats = store.stats();
            println!(
                "{} entries, {} inputs, {} infeasibility verdicts, {} recorded evals",
                stats.entries, stats.inputs, stats.infeasible, stats.evaluations
            );
        }
        "gc" => {
            let removed = store
                .gc(options.keep)
                .unwrap_or_else(|error| run_error(&format!("corpus gc failed: {error}")));
            println!(
                "removed {removed} entries, kept the newest {}",
                store.stats().entries
            );
        }
        _ => unreachable!("resolve returns registered commands only"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let set = SubcommandSet::new("coverme", USAGE, COMMANDS);
    let command = set.resolve(args.next());
    let (operands, options) = parse_options(args);
    match command {
        "run" => {
            let [path] = operands.as_slice() else {
                usage_error("run takes exactly one .fpir file");
            };
            cmd_run(path, &options);
        }
        "campaign" => {
            let [dir] = operands.as_slice() else {
                usage_error("campaign takes exactly one directory");
            };
            cmd_campaign(dir, &options);
        }
        "serve" => {
            if !operands.is_empty() {
                usage_error("serve takes no operands");
            }
            cmd_serve(&options);
        }
        "submit" => cmd_submit(&operands, &options),
        "corpus" => cmd_corpus(&operands, &options),
        _ => unreachable!("resolve returns registered commands only"),
    }
}
