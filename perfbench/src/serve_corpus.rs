//! The serve, corpus and report-schema layers, measured in `fdlibm-paper`'s
//! traced run: the campaign daemon in-process on 127.0.0.1 with two
//! workers, `max_jobs` 2 and a fresh corpus store per cycle, driven by two
//! closed-loop clients. Each client submits single-function
//! `suite: fdlibm` jobs over its own half of the inventory, one after
//! another.
//!
//! A cycle starts the daemon (bind until the first `hello`), runs one cold
//! pass over the inventory (a full search, then a corpus write per job)
//! and [`WARM_PASSES`] warm passes (a corpus read, then a replay), and
//! shuts the daemon down.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coverme_repro::coverme::report::schema::{self, JsonValue};
use coverme_repro::coverme::{CorpusStore, Program};
use coverme_repro::fdlibm::Benchmark;
use coverme_repro::runtime::native_fingerprint;
use coverme_repro::serve::{serve, submit_job, ServeOptions};

use crate::campaigns::{replay_inputs, search_config};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Settings;

/// Warm passes per cycle.
const WARM_PASSES: usize = 3;

/// Cycles per traced run: the run's seed twice (the repetition check), the
/// second one traced.
const CYCLES: usize = 2;

/// Concurrent clients (and the daemon's `max_jobs` and worker count).
const CLIENTS: usize = 2;

/// One finished job as a client saw it.
#[derive(Debug, Clone)]
struct Job {
    /// Inventory index of the job's function.
    index: usize,
    /// Submission to `done`, including any rejected attempts.
    latency_ms: f64,
    /// The daemon-reported campaign wall time.
    daemon_ms: f64,
    report_bytes: usize,
    parse_ms: f64,
    rejected: u64,
    /// Function status, covered and total branches, warm-start flag;
    /// `None` when the job failed.
    result: Option<(String, usize, usize, bool)>,
}

/// Everything one cycle measured.
struct Cycle {
    cold: Vec<Job>,
    warm: Vec<Job>,
    /// Per function: covered branches the corpus entry's inputs replay to
    /// (`None` when the store holds no entry).
    replayed: Vec<Option<usize>>,
    /// Warm-start payload present per function after the cold pass.
    has_entry: Vec<bool>,
    layers: Vec<(&'static str, f64)>,
}

/// Serves the suite through the daemon for [`CYCLES`] cycles with the
/// run's seed, checks them, and sets the serve, corpus and schema layer
/// metrics from the traced cycle.
pub fn serve_layers(settings: &Settings, tracer: &Tracer, outcome: &mut Outcome) {
    let inventory: Vec<Benchmark> = coverme_repro::fdlibm::all()
        .into_iter()
        .take(if settings.tiny { 4 } else { usize::MAX })
        .collect();
    let scratch = crate::scratch_dir(settings, "serve-scratch");
    let cycles: Vec<Cycle> = (0..CYCLES)
        .map(|index| {
            let dir = scratch.join(format!("cycle-{index}"));
            run_cycle(settings, tracer, &inventory, &dir, index == CYCLES - 1)
                .unwrap_or_else(|error| panic!("serve cycle failed: {error}"))
        })
        .collect();
    std::fs::remove_dir_all(&scratch).expect("serve scratch is removable");
    check(outcome, &inventory, &cycles);
    let traced = &cycles[CYCLES - 1];
    for (name, value) in &traced.layers {
        outcome.set(name, *value);
    }
}

/// A daemon running on a scoped thread. Dropping it without
/// [`Daemon::stop`] (an early return, a panic) still asks it to shut
/// down, so the scope's join cannot wait forever on its accept loop.
struct Daemon<'scope> {
    addr: String,
    thread: Option<std::thread::ScopedJoinHandle<'scope, std::io::Result<()>>>,
}

impl Daemon<'_> {
    /// Shuts the daemon down over the wire and joins its thread.
    fn stop(mut self) -> std::io::Result<()> {
        submit_job(&self.addr, "{\"op\": \"shutdown\"}", |_| {})?.map_err(std::io::Error::other)?;
        let thread = self.thread.take().expect("a daemon is stopped once");
        thread.join().expect("daemon thread panicked")
    }
}

impl Drop for Daemon<'_> {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = submit_job(&self.addr, "{\"op\": \"shutdown\"}", |_| {});
        }
    }
}

/// Opens a fresh corpus store in `dir`, binds, starts the daemon and waits
/// for its `hello`.
fn start_daemon<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    settings: &Settings,
    dir: &Path,
) -> std::io::Result<Daemon<'scope>> {
    let options = ServeOptions {
        max_jobs: CLIENTS,
        workers: CLIENTS,
        corpus: Some(Arc::new(CorpusStore::open(dir)?)),
        tiers: Vec::new(),
        base: search_config(settings, if settings.tiny { 20 } else { 500 }),
    };
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let daemon = Daemon {
        addr: listener.local_addr()?.to_string(),
        thread: Some(scope.spawn(move || serve(listener, options))),
    };
    let mut hello = String::new();
    BufReader::new(TcpStream::connect(&daemon.addr)?).read_line(&mut hello)?;
    assert!(hello.contains("\"hello\""), "daemon greeted with {hello}");
    Ok(daemon)
}

fn run_cycle(
    settings: &Settings,
    tracer: &Tracer,
    inventory: &[Benchmark],
    dir: &Path,
    traced: bool,
) -> std::io::Result<Cycle> {
    std::thread::scope(|scope| {
        let started = Instant::now();
        let daemon = start_daemon(scope, settings, dir)?;
        let addr = daemon.addr.clone();
        // The daemon shares the store; this handle reads what it wrote.
        let store = CorpusStore::open(dir)?;
        let daemon_span =
            traced.then(|| tracer.record("daemon-start", None, started, Instant::now()));

        let seed = settings.seed;
        let cold = pass(tracer, traced, &addr, seed, inventory, "cold-pass");
        let has_entry: Vec<bool> = inventory
            .iter()
            .map(|b| store.lookup(fingerprint(b)).is_some())
            .collect();
        let replayed = inventory
            .iter()
            .map(|b| {
                store
                    .lookup(fingerprint(b))
                    .map(|entry| replay_inputs(b, &entry.inputs).len())
            })
            .collect();
        let mut warm = Vec::new();
        for _ in 0..if settings.tiny { 1 } else { WARM_PASSES } {
            warm.extend(pass(tracer, traced, &addr, seed, inventory, "warm-pass"));
        }
        let layers = if traced {
            layer_values(
                tracer,
                daemon_span,
                &addr,
                &store,
                dir,
                inventory,
                &cold,
                &warm,
            )?
        } else {
            Vec::new()
        };
        daemon.stop()?;
        Ok(Cycle {
            cold,
            warm,
            replayed,
            has_entry,
            layers,
        })
    })
}

/// The corpus key of a native port (its shape hash).
fn fingerprint(benchmark: &Benchmark) -> u64 {
    native_fingerprint(benchmark.name(), benchmark.arity(), benchmark.num_sites())
}

/// One pass: every client submits its half of the inventory, one job at
/// a time; returns the jobs in inventory order.
fn pass(
    tracer: &Tracer,
    traced: bool,
    addr: &str,
    seed: u64,
    inventory: &[Benchmark],
    name: &str,
) -> Vec<Job> {
    let start = Instant::now();
    let mut jobs: Vec<Job> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    (client..inventory.len())
                        .step_by(CLIENTS)
                        .map(|index| run_job(addr, client, seed, index, inventory[index].name))
                        .collect::<Vec<Job>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    jobs.sort_by_key(|job| job.index);
    if traced {
        tracer.record(name, None, start, Instant::now());
    }
    jobs
}

/// Submits one single-function job, retrying while the daemon is at
/// capacity (a closed-loop client can race its previous job's teardown).
fn run_job(addr: &str, client: usize, seed: u64, index: usize, name: &str) -> Job {
    let request = format!(
        "{{\"op\": \"campaign\", \"tenant\": \"client-{client}\", \"seed\": {seed}, \
         \"suite\": \"fdlibm\", \"functions\": [\"{name}\"]}}"
    );
    let start = Instant::now();
    let mut rejected = 0;
    let reply = loop {
        match submit_job(addr, &request, |_| {}) {
            Ok(Err(reason)) if reason.starts_with("at capacity") => {
                rejected += 1;
                std::thread::yield_now();
            }
            other => break other,
        }
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut job = Job {
        index,
        latency_ms,
        daemon_ms: 0.0,
        report_bytes: 0,
        parse_ms: 0.0,
        rejected,
        result: None,
    };
    let Ok(Ok(Some(text))) = reply else {
        eprintln!("perfbench: job {name} failed: {reply:?}");
        return job;
    };
    job.report_bytes = text.len();
    let parse_start = Instant::now();
    let parsed = schema::parse(&text);
    job.parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    let Ok(report) = parsed else {
        return job;
    };
    job.daemon_ms = report
        .get("wall_time_s")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        * 1e3;
    let function = report
        .get("functions")
        .and_then(JsonValue::as_array)
        .and_then(|functions| functions.first());
    job.result = function.map(|f| {
        let number = |key: &str| f.get(key).and_then(JsonValue::as_usize).unwrap_or(0);
        (
            f.get("status")
                .and_then(JsonValue::as_str)
                .unwrap_or("missing")
                .to_string(),
            number("covered_branches"),
            number("branches"),
            f.get("corpus_warm_start").and_then(JsonValue::as_bool) == Some(true),
        )
    });
    job
}

/// The traced cycle's extra measurements: pings, corpus lookups and
/// writes, the store's size, and the job-side costs.
#[allow(clippy::too_many_arguments)]
fn layer_values(
    tracer: &Tracer,
    parent: Option<u64>,
    addr: &str,
    store: &CorpusStore,
    dir: &Path,
    inventory: &[Benchmark],
    cold: &[Job],
    warm: &[Job],
) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut pings = Vec::new();
    for _ in 0..10 {
        let ((reply, ms), _) = tracer.span("ping", parent, || {
            let start = Instant::now();
            let reply = submit_job(addr, "{\"op\": \"ping\"}", |_| {});
            (reply, start.elapsed().as_secs_f64() * 1e3)
        });
        reply?.map_err(std::io::Error::other)?;
        pings.push(ms);
    }
    let bytes = dir_bytes(dir)?;
    let side = CorpusStore::open(dir.join("side"))?;
    let (mut lookups, mut records) = (Vec::new(), Vec::new());
    for benchmark in inventory {
        let start = Instant::now();
        let entry = store.lookup(fingerprint(benchmark));
        lookups.push(start.elapsed().as_secs_f64() * 1e3);
        if let Some(entry) = entry {
            let start = Instant::now();
            side.record(entry)?;
            records.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let jobs: Vec<&Job> = cold.iter().chain(warm).collect();
    let of = |f: fn(&Job) -> f64| median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>());
    Ok(vec![
        ("serve.ping_ms", median(&pings)),
        ("corpus.bytes", bytes as f64),
        ("corpus.lookup_ms", median(&lookups)),
        (
            "corpus.record_ms",
            if records.is_empty() {
                0.0
            } else {
                median(&records)
            },
        ),
        ("serve.job_overhead_ms", of(|j| j.latency_ms - j.daemon_ms)),
        ("serve.report_bytes", of(|j| j.report_bytes as f64)),
        ("schema.parse_ms", of(|j| j.parse_ms)),
        (
            "serve.rejected",
            jobs.iter().map(|j| j.rejected).sum::<u64>() as f64,
        ),
    ])
}

/// Total size of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let metadata = entry?.metadata()?;
        if metadata.is_file() {
            total += metadata.len();
        }
    }
    Ok(total)
}

/// The correctness oracle: every job completes; the corpus entry a cold
/// job wrote replays (natively, outside the daemon) to exactly the
/// coverage the job reported; warm jobs replay from the corpus and report
/// the cold job's coverage; both cycles, which search with the same seed,
/// report the same coverage.
fn check(outcome: &mut Outcome, inventory: &[Benchmark], cycles: &[Cycle]) {
    let covered = |cycle: &Cycle| -> Vec<Option<usize>> {
        cycle
            .cold
            .iter()
            .map(|job| job.result.as_ref().map(|r| r.1))
            .collect()
    };
    if covered(&cycles[0]) != covered(&cycles[1]) {
        outcome.error("cold coverage differs between two cycles with the same seed".to_string());
    }
    for cycle in cycles {
        for job in cycle.cold.iter().chain(&cycle.warm) {
            outcome.attempted += 1;
            let complete = job.result.as_ref().is_some_and(|r| r.0 == "complete");
            if !complete {
                outcome.failed += 1;
            }
        }
        for (index, job) in cycle.cold.iter().enumerate() {
            let name = inventory[index].name;
            let covered = job.result.as_ref().map(|r| r.1);
            if let (Some(covered), Some(replayed)) = (covered, cycle.replayed[index]) {
                if covered != replayed {
                    outcome.error(format!(
                        "{name}: corpus inputs replay to {replayed} branches, the job reported {covered}"
                    ));
                }
            }
        }
        for job in &cycle.warm {
            let name = inventory[job.index].name;
            let cold = cycle.cold[job.index].result.as_ref().map(|r| r.1);
            let Some((_, covered, _, warm_started)) = &job.result else {
                continue;
            };
            if Some(*covered) != cold {
                outcome.error(format!(
                    "{name}: warm job coverage differs from the cold job"
                ));
            }
            if cycle.has_entry[job.index] && !warm_started {
                outcome.error(format!("{name}: warm job did not start from the corpus"));
            }
        }
    }
}
