//! Campaign-as-a-service: the `coverme serve` daemon.
//!
//! A long-running process that accepts **campaign jobs** over a JSON-lines
//! TCP protocol (schema `coverme-serve/1`, one object per line in both
//! directions), multiplexes concurrent campaigns through one shared worker
//! pool with admission control, meters tenants against configured
//! eval-budget tiers, and streams each campaign's
//! [`CampaignEvent`] rows back to its client as
//! they land. With a corpus store attached (`--corpus DIR`, see
//! [`coverme::corpus`]), every job warm-starts from the store's entries
//! and records its completed results back — a repeat submission of an
//! unchanged campaign spends evaluations only on what changed.
//!
//! # Protocol
//!
//! Requests:
//!
//! ```text
//! {"op": "ping"}
//! {"op": "stats"}
//! {"op": "gc", "keep": 64}
//! {"op": "shutdown"}
//! {"op": "campaign", "tenant": "team-a", "seed": 7, "n_start": 40,
//!  "sources": [{"path": "a.fpir", "text": "..."}]}
//! {"op": "campaign", "suite": "fdlibm", "functions": ["ieee754_exp"]}
//! ```
//!
//! Responses all carry `"schema": "coverme-serve/1"` and an `"event"`
//! discriminator: `hello` on connect, `pong`, `stats`, `gc`,
//! `shutting-down`, `error` (with `line`/`column` for malformed frames),
//! `rejected` (admission control), and for an admitted job the stream
//! `accepted` → `function`* → `report` → `done`, where `report` embeds the
//! same `coverme-campaign-report/12` document `coverme campaign --json`
//! writes, compacted onto one line.
//!
//! Hostile input never takes the daemon down: malformed frames get a
//! positioned `error` event and the connection lives on; an oversized
//! frame (> [`MAX_FRAME`]) or a truncated final frame gets an `error` and
//! a clean close; a client that disconnects mid-campaign cancels its job's
//! searches ([`CancelToken`]): searches in flight finalize partial
//! progress, searches not yet started never start, and the workers return
//! their pool slots.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

use coverme::report::schema::{self, member, JsonValue};
use coverme::{
    Campaign, CampaignConfig, CampaignEvent, CancelToken, CorpusStore, CoverMeConfig, Program,
};
use coverme_fpir::{check, infer_entry, instrument, parse as parse_fpir, IrProgram};

/// Hard cap on one request frame, in bytes. A line longer than this is
/// answered with an `error` event and the connection is closed — a frame
/// that large is a protocol violation, not a campaign.
pub const MAX_FRAME: usize = 1 << 20;

/// Daemon configuration, assembled by the CLI from `coverme serve` flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrently *running* campaigns; further jobs are rejected
    /// at admission (never queued — the client can retry).
    pub max_jobs: usize,
    /// Total worker threads shared by all campaigns (`0` = the machine's
    /// available parallelism). Each admitted job borrows a slice and
    /// returns it on completion.
    pub workers: usize,
    /// The persistent corpus store, if one is attached.
    pub corpus: Option<Arc<CorpusStore>>,
    /// Per-tenant evaluation pools: a tenant listed here is admitted while
    /// its finished jobs have spent less than this many evaluations, and
    /// each of its jobs splits the remaining pool evenly across the job's
    /// functions as per-search allowances ([`CoverMeConfig::budget`]);
    /// unlisted tenants are unmetered.
    pub tiers: Vec<(String, usize)>,
    /// Template search configuration applied to every job (jobs may
    /// override `seed` and `n_start` per submission).
    pub base: CoverMeConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_jobs: 4,
            workers: 0,
            corpus: None,
            tiers: Vec::new(),
            base: CoverMeConfig::default(),
        }
    }
}

/// The shared worker pool: a counting semaphore over `total` slots. Each
/// admitted campaign acquires a slice (at least one slot, blocking until
/// one frees) and returns it when its searches finish — so the daemon
/// never runs more search threads than configured no matter how many jobs
/// are in flight.
struct WorkerPool {
    total: usize,
    free: Mutex<usize>,
    freed: Condvar,
}

impl WorkerPool {
    fn new(total: usize) -> WorkerPool {
        WorkerPool {
            total,
            free: Mutex::new(total),
            freed: Condvar::new(),
        }
    }

    /// Takes up to `want` slots (at least one), blocking while the pool is
    /// empty. Returns the number actually granted.
    fn acquire(&self, want: usize) -> usize {
        let want = want.max(1);
        let mut free = self.free.lock().expect("worker pool lock poisoned");
        while *free == 0 {
            free = self.freed.wait(free).expect("worker pool lock poisoned");
        }
        let granted = want.min(*free);
        *free -= granted;
        granted
    }

    fn release(&self, slots: usize) {
        let mut free = self.free.lock().expect("worker pool lock poisoned");
        *free = (*free + slots).min(self.total);
        self.freed.notify_all();
    }
}

/// Mutable daemon state, one mutex for all of it (admission decisions and
/// ledger updates are tiny critical sections).
struct Shared {
    active_jobs: usize,
    next_job: u64,
    shutting_down: bool,
    /// Per-tenant spend accounting.
    tenants: HashMap<String, TenantUsage>,
    /// Cancel tokens of in-flight jobs, so shutdown can interrupt them.
    active_cancels: Vec<CancelToken>,
}

/// What one tenant's finished jobs consumed.
#[derive(Debug, Default)]
struct TenantUsage {
    /// Evaluations the jobs actually spent.
    spent: usize,
    /// Jobs run.
    jobs: usize,
}

struct Server {
    options: ServeOptions,
    pool: WorkerPool,
    shared: Mutex<Shared>,
    addr: SocketAddr,
}

/// One framing read: a complete line, or one of the violation outcomes the
/// protocol tests pin.
enum Frame {
    /// A complete newline-terminated frame (newline stripped).
    Line(String),
    /// The connection closed cleanly at a frame boundary.
    Eof,
    /// The connection closed mid-frame (bytes without a final newline).
    Truncated,
    /// The frame exceeded [`MAX_FRAME`] before its newline arrived.
    Oversized,
}

fn read_frame(reader: &mut impl BufRead) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(error) if error.kind() == ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        };
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Truncated
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                line.extend_from_slice(&buf[..newline]);
                reader.consume(newline + 1);
                if line.len() > MAX_FRAME {
                    return Ok(Frame::Oversized);
                }
                return Ok(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            None => {
                let taken = buf.len();
                line.extend_from_slice(buf);
                reader.consume(taken);
                if line.len() > MAX_FRAME {
                    return Ok(Frame::Oversized);
                }
            }
        }
    }
}

/// Builds one response line: the serve envelope plus `event` plus the
/// given members, compact, newline-terminated.
fn event_line(event: &str, members: Vec<(String, JsonValue)>) -> String {
    let mut object = vec![
        member("schema", schema::SERVE_PROTOCOL.label()),
        member("event", event),
    ];
    object.extend(members);
    let mut line = JsonValue::Object(object).to_compact();
    line.push('\n');
    line
}

fn send(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Runs the daemon on an already-bound listener until a client sends
/// `{"op": "shutdown"}`. Prints one parseable `listening on HOST:PORT`
/// line to stdout before accepting — the line scripts and the CI smoke
/// wait for. Every connection gets its own handler thread; all of them are
/// joined (and all in-flight campaigns cancelled and drained) before this
/// returns.
pub fn serve(listener: TcpListener, options: ServeOptions) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let workers = if options.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)
    } else {
        options.workers
    };
    let server = Server {
        pool: WorkerPool::new(workers),
        options,
        shared: Mutex::new(Shared {
            active_jobs: 0,
            next_job: 1,
            shutting_down: false,
            tenants: HashMap::new(),
            active_cancels: Vec::new(),
        }),
        addr,
    };
    println!("coverme: listening on {addr}");
    io::stdout().flush()?;

    std::thread::scope(|scope| {
        loop {
            let (stream, _) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if server
                .shared
                .lock()
                .expect("server lock poisoned")
                .shutting_down
            {
                // The wake-up connection (or a late client): close it and
                // stop accepting. Handler threads drain as the scope ends.
                break;
            }
            let server = &server;
            scope.spawn(move || handle_connection(server, stream));
        }
    });
    println!("coverme: shutdown complete");
    Ok(())
}

fn handle_connection(server: &Server, stream: TcpStream) {
    // Split the stream: buffered frames in, buffered events out. Errors
    // just end the connection — the client is gone; its jobs were already
    // torn down by the write failures inside the job loop.
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let hello = event_line(
        "hello",
        vec![
            member("corpus", server.options.corpus.is_some()),
            member("max_jobs", server.options.max_jobs),
        ],
    );
    if send(&mut writer, &hello).is_err() {
        return;
    }
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        let text = match frame {
            Frame::Line(text) => text,
            Frame::Eof => return,
            Frame::Truncated => {
                let _ = send(
                    &mut writer,
                    &error_event(1, 1, "truncated frame: connection closed mid-line"),
                );
                return;
            }
            Frame::Oversized => {
                let _ = send(
                    &mut writer,
                    &error_event(
                        1,
                        1,
                        &format!("oversized frame: the limit is {MAX_FRAME} bytes"),
                    ),
                );
                return;
            }
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match schema::parse(&text) {
            Ok(value) => value,
            Err(error) => {
                // A hostile or malformed frame: positioned error, keep the
                // connection — one bad line must not kill a session.
                if send(
                    &mut writer,
                    &error_event(error.line, error.column, &error.message),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let done = dispatch(server, &request, &mut writer);
        if done {
            return;
        }
    }
}

fn error_event(line: u32, column: u32, message: &str) -> String {
    event_line(
        "error",
        vec![
            member("line", line as f64),
            member("column", column as f64),
            member("message", message),
        ],
    )
}

/// Handles one parsed request; returns `true` when the connection should
/// close (shutdown, or the client vanished).
fn dispatch(server: &Server, request: &JsonValue, writer: &mut impl Write) -> bool {
    let Some(op) = request.get("op").and_then(JsonValue::as_str) else {
        return send(
            writer,
            &error_event(1, 1, "request has no string `op` member"),
        )
        .is_err();
    };
    match op {
        "ping" => send(writer, &event_line("pong", Vec::new())).is_err(),
        "stats" => send(writer, &stats_event(server)).is_err(),
        "gc" => {
            let keep = request
                .get("keep")
                .and_then(JsonValue::as_usize)
                .unwrap_or(64);
            let line = match &server.options.corpus {
                Some(store) => match store.gc(keep) {
                    Ok(removed) => {
                        event_line("gc", vec![member("removed", removed), member("kept", keep)])
                    }
                    Err(error) => error_event(1, 1, &format!("corpus gc failed: {error}")),
                },
                None => error_event(1, 1, "no corpus store attached (start with --corpus DIR)"),
            };
            send(writer, &line).is_err()
        }
        "shutdown" => {
            {
                let mut shared = server.shared.lock().expect("server lock poisoned");
                shared.shutting_down = true;
                for cancel in &shared.active_cancels {
                    cancel.cancel();
                }
            }
            let _ = send(writer, &event_line("shutting-down", Vec::new()));
            // Wake the acceptor so the scope can start joining handlers.
            let _ = TcpStream::connect(server.addr);
            true
        }
        "campaign" => handle_campaign(server, request, writer),
        other => send(writer, &error_event(1, 1, &format!("unknown op `{other}`"))).is_err(),
    }
}

fn stats_event(server: &Server) -> String {
    let shared = server.shared.lock().expect("server lock poisoned");
    let mut members = vec![
        member("active_jobs", shared.active_jobs),
        member("workers", server.pool.total),
    ];
    if let Some(store) = &server.options.corpus {
        let stats = store.stats();
        members.push(member(
            "corpus",
            JsonValue::Object(vec![
                member("entries", stats.entries),
                member("inputs", stats.inputs),
                member("infeasible", stats.infeasible),
                member("evaluations", stats.evaluations),
            ]),
        ));
    }
    let mut tenants: Vec<(String, JsonValue)> = shared
        .tenants
        .iter()
        .map(|(name, usage)| {
            let usage = vec![member("spent", usage.spent), member("jobs", usage.jobs)];
            member(name, JsonValue::Object(usage))
        })
        .collect();
    tenants.sort_by(|a, b| a.0.cmp(&b.0));
    members.push(member("tenants", JsonValue::Object(tenants)));
    event_line("stats", members)
}

/// The admission ticket of a running job; its `Drop` guarantees the slot
/// and worker accounting are unwound on every exit path (including a
/// handler panic — no leaked workers).
struct JobTicket<'a> {
    server: &'a Server,
    cancel: CancelToken,
    workers: usize,
}

impl Drop for JobTicket<'_> {
    fn drop(&mut self) {
        let mut shared = self.server.shared.lock().expect("server lock poisoned");
        shared.active_jobs -= 1;
        shared.active_cancels.retain(|token| token != &self.cancel);
        drop(shared);
        self.server.pool.release(self.workers);
    }
}

/// An inventory a job resolved to: either compiled FPIR programs or
/// fdlibm suite benchmarks (both are driven through the same generic
/// campaign path).
enum JobInventory {
    Fpir(Vec<IrProgram>),
    Fdlibm(Vec<coverme_fdlibm::suite::Benchmark>),
}

impl JobInventory {
    /// Number of functions the job searches.
    fn functions(&self) -> usize {
        match self {
            JobInventory::Fpir(programs) => programs.len(),
            JobInventory::Fdlibm(benchmarks) => benchmarks.len(),
        }
    }
}

fn resolve_inventory(request: &JsonValue) -> Result<JobInventory, String> {
    if let Some(suite) = request.get("suite").and_then(JsonValue::as_str) {
        if suite != "fdlibm" {
            return Err(format!("unknown suite `{suite}` (only `fdlibm`)"));
        }
        let names = match request.get("functions").and_then(JsonValue::as_array) {
            None => Vec::new(),
            Some([]) => return Err("empty inventory".to_string()),
            Some(names) => names
                .iter()
                .map(|name| name.as_str().ok_or("`functions` must be strings"))
                .collect::<Result<Vec<_>, _>>()?,
        };
        return coverme_fdlibm::suite::select(&names).map(JobInventory::Fdlibm);
    }
    let sources = request
        .get("sources")
        .and_then(JsonValue::as_array)
        .ok_or("campaign needs `sources` (or `suite`)")?;
    if sources.is_empty() {
        return Err("empty inventory".to_string());
    }
    let fuel = request.get("fuel").and_then(JsonValue::as_usize);
    let mut programs = Vec::new();
    for source in sources {
        let path = source
            .get("path")
            .and_then(JsonValue::as_str)
            .unwrap_or("<submitted>");
        let text = source
            .get("text")
            .and_then(JsonValue::as_str)
            .ok_or("each source needs a string `text` member")?;
        let program = compile_source(path, text).map_err(|error| format!("{path}: {error}"))?;
        programs.push(match fuel {
            Some(fuel) if fuel > 0 => program.with_fuel(fuel),
            _ => program,
        });
    }
    Ok(JobInventory::Fpir(programs))
}

/// FPIR text → instrumented program, with the entry inferred like the CLI
/// does ([`infer_entry`]).
fn compile_source(path: &str, text: &str) -> Result<IrProgram, String> {
    let module = parse_fpir(text).map_err(|error| error.to_string())?;
    let entry = infer_entry(&module, path)
        .ok_or("cannot infer the entry function; name one function like the file or `entry`")?;
    let module = check(module).map_err(|error| error.to_string())?;
    let instrumented = instrument(module, &entry).map_err(|error| error.to_string())?;
    IrProgram::new(instrumented).map_err(|error| error.to_string())
}

/// Admission → campaign → streamed teardown for one `campaign` request.
/// Returns `true` when the connection is gone.
fn handle_campaign(server: &Server, request: &JsonValue, writer: &mut impl Write) -> bool {
    let tenant = request
        .get("tenant")
        .and_then(JsonValue::as_str)
        .unwrap_or("default")
        .to_string();
    let inventory = match resolve_inventory(request) {
        Ok(inventory) => inventory,
        Err(message) => return send(writer, &error_event(1, 1, &message)).is_err(),
    };

    // Admission control: capacity, shutdown state, and the tenant's tier.
    let tier = server
        .options
        .tiers
        .iter()
        .find(|(name, _)| *name == tenant)
        .map(|(_, pool)| *pool);
    let (job, ticket, budget) = {
        let mut shared = server.shared.lock().expect("server lock poisoned");
        if shared.shutting_down {
            drop(shared);
            let line = rejected_event("shutting down");
            return send(writer, &line).is_err();
        }
        if shared.active_jobs >= server.options.max_jobs {
            let line = rejected_event(&format!("at capacity ({} active jobs)", shared.active_jobs));
            drop(shared);
            return send(writer, &line).is_err();
        }
        let spent = shared.tenants.get(&tenant).map_or(0, |usage| usage.spent);
        let budget = match tier {
            Some(pool) if spent >= pool => {
                let line = rejected_event(&format!(
                    "tenant `{tenant}` exhausted its {pool}-eval tier (spent {spent})"
                ));
                drop(shared);
                return send(writer, &line).is_err();
            }
            Some(pool) => Some(pool - spent),
            None => None,
        };
        let job = shared.next_job;
        shared.next_job += 1;
        shared.active_jobs += 1;
        let cancel = CancelToken::new();
        shared.active_cancels.push(cancel.clone());
        drop(shared);
        // Slot accounting is live from here; the ticket unwinds it.
        let workers = server
            .pool
            .acquire(server.pool.total.div_ceil(server.options.max_jobs));
        (
            job,
            JobTicket {
                server,
                cancel,
                workers,
            },
            budget,
        )
    };

    // Per-job search template: the daemon's base knobs, the job's
    // overrides, an even share of the tenant's remaining pool as each
    // function's allowance, the job's cancel token, and the shared corpus.
    // Rounds are atomic, so a job may overshoot the remaining pool by at
    // most one round per function.
    let mut base = server.options.base.clone();
    if let Some(seed) = request.get("seed").and_then(JsonValue::as_usize) {
        base = base.with_seed(seed as u64);
    }
    if let Some(n_start) = request.get("n_start").and_then(JsonValue::as_usize) {
        base = base.with_n_start(n_start);
    }
    if let Some(pool) = budget {
        base = base.with_budget((pool / inventory.functions().max(1)).max(1));
    }
    let mut config = CampaignConfig::new()
        .with_base(base.with_cancel(ticket.cancel.clone()))
        .with_workers(ticket.workers);
    if let Some(store) = &server.options.corpus {
        config = config.with_corpus(Arc::clone(store));
    }

    let mut accepted = vec![
        member("job", job as f64),
        member("tenant", tenant.as_str()),
        member("workers", ticket.workers),
    ];
    if let Some(pool) = budget {
        accepted.push(member("budget", pool));
    }
    if send(writer, &event_line("accepted", accepted)).is_err() {
        return true;
    }

    let report = match inventory {
        JobInventory::Fpir(programs) => run_job(&config, &ticket, job, &programs, writer),
        JobInventory::Fdlibm(benchmarks) => run_job(&config, &ticket, job, &benchmarks, writer),
    };

    // Meter the tenant's actual spend (admission reads this next time).
    {
        let mut shared = server.shared.lock().expect("server lock poisoned");
        let usage = shared.tenants.entry(tenant).or_default();
        usage.spent += report.as_ref().map_or(0, |(evals, _)| *evals);
        usage.jobs += 1;
    }
    let Some((_, report)) = report else {
        return true; // client vanished mid-stream; job already unwound
    };
    let line = event_line(
        "report",
        vec![member("job", job as f64), member("report", report)],
    );
    if send(writer, &line).is_err() {
        return true;
    }
    send(writer, &event_line("done", vec![member("job", job as f64)])).is_err()
}

fn rejected_event(reason: &str) -> String {
    event_line("rejected", vec![member("reason", reason)])
}

/// Runs one admitted campaign, streaming a `function` event per finished
/// function. Returns `(total_evaluations, report)`, or `None` when
/// the client disconnected mid-stream (the job is cancelled and drained
/// before returning — no worker outlives its connection).
fn run_job<P: Program + Sync>(
    config: &CampaignConfig,
    ticket: &JobTicket<'_>,
    job: u64,
    inventory: &[P],
    writer: &mut impl Write,
) -> Option<(usize, JsonValue)> {
    let campaign = Campaign::new(config.clone());
    let mut client_gone = false;
    let report = campaign.run_with(inventory, |event| {
        if client_gone {
            return;
        }
        let CampaignEvent::FunctionFinished { result, .. } = event;
        let mut members = vec![
            member("job", job as f64),
            member("name", result.name.as_str()),
            member("status", result.status.label()),
        ];
        if let Some(report) = &result.report {
            members.extend([
                member("covered", report.coverage.covered_count()),
                member("branches", report.coverage.total_branches()),
                member("evals", report.evaluations),
                member("warm_replayed", report.warm_replayed),
            ]);
        }
        if send(writer, &event_line("function", members)).is_err() {
            // The client hung up: cancel the job so its remaining searches
            // finalize instead of running out their schedules.
            client_gone = true;
            ticket.cancel.cancel();
        }
    });
    let evals = report.total_evaluations();
    if client_gone {
        return None;
    }
    Some((evals, report.to_value()))
}

/// Client side of one job submission: connects, sends `request` (one
/// line), hands every response event to `on_event`, and returns the
/// embedded campaign report (compact JSON) once `done` arrives. A
/// `rejected` or `error` event is returned as `Err`.
pub fn submit_job(
    addr: &str,
    request: &str,
    mut on_event: impl FnMut(&JsonValue),
) -> io::Result<Result<Option<String>, String>> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(request.as_bytes())?;
    if !request.ends_with('\n') {
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut report = None;
    loop {
        let line = match read_frame(&mut reader)? {
            Frame::Line(line) => line,
            Frame::Eof | Frame::Truncated => {
                return Ok(Err("connection closed before `done`".to_string()))
            }
            Frame::Oversized => return Ok(Err("oversized response frame".to_string())),
        };
        let Ok(event) = schema::parse(&line) else {
            return Ok(Err(format!("unparseable response: {line}")));
        };
        on_event(&event);
        match event.get("event").and_then(JsonValue::as_str) {
            Some("done") => return Ok(Ok(report)),
            Some("shutting-down") | Some("pong") | Some("stats") | Some("gc") => {
                return Ok(Ok(report))
            }
            Some("rejected") => {
                let reason = event
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("rejected");
                return Ok(Err(reason.to_string()));
            }
            Some("error") => {
                let message = event
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("error");
                return Ok(Err(message.to_string()));
            }
            Some("report") => {
                if let Some(body) = event.get("report") {
                    report = Some(body.to_compact());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_on_newlines_and_flag_violations() {
        let mut reader = BufReader::new(&b"{\"op\":\"ping\"}\npartial"[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Line(line) => assert_eq!(line, "{\"op\":\"ping\"}"),
            _ => panic!("expected a complete frame"),
        }
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::Truncated));
        let mut empty = BufReader::new(&b""[..]);
        assert!(matches!(read_frame(&mut empty).unwrap(), Frame::Eof));
        let big = vec![b'x'; MAX_FRAME + 2];
        let mut oversized = BufReader::new(&big[..]);
        assert!(matches!(
            read_frame(&mut oversized).unwrap(),
            Frame::Oversized
        ));
    }

    #[test]
    fn worker_pool_never_overcommits() {
        let pool = WorkerPool::new(4);
        let first = pool.acquire(3);
        assert_eq!(first, 3);
        let second = pool.acquire(3);
        assert_eq!(second, 1, "only one slot left");
        pool.release(first);
        assert_eq!(pool.acquire(10), 3);
        pool.release(second);
        pool.release(3);
    }

    #[test]
    fn event_lines_are_enveloped_compact_json() {
        let line = event_line("pong", Vec::new());
        assert!(line.ends_with('\n'));
        let value = schema::parse(&line).unwrap();
        assert_eq!(
            value.get("schema").and_then(JsonValue::as_str),
            Some("coverme-serve/1")
        );
        assert_eq!(value.get("event").and_then(JsonValue::as_str), Some("pong"));
    }
}
