//! Hostile-input hardening for the `coverme serve` wire protocol — the
//! server-side mirror of `crates/fpir/tests/frontend_hardening.rs`.
//!
//! The daemon's contract under attack (pinned here, documented in
//! `src/serve.rs`): malformed frames get a *positioned* `error` event and
//! the connection survives; an oversized or truncated frame gets an
//! `error` and a clean close; a client disconnecting mid-campaign cancels
//! its job and returns its worker slots; `shutdown` drains every handler
//! before `serve` returns; and a tenant's tier admits jobs only while its
//! metered spend is below the pool. Never a panic, never a leaked worker —
//! every test ends with a clean shutdown join, which would hang (and fail
//! the suite) if a job ticket leaked pool slots.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use coverme_repro::coverme::report::schema::{self, member, JsonValue};
use coverme_repro::coverme::CoverMeConfig;
use coverme_repro::fpir::generate_source;
use coverme_repro::optim::rng::SplitMix64;
use coverme_repro::serve::{serve, submit_job, ServeOptions, MAX_FRAME};

/// Starts a daemon with `options` on an ephemeral port; returns its
/// address and the join handle of the serving thread.
fn start_server(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || serve(listener, options));
    (addr, handle)
}

fn shutdown_and_join(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    submit_job(addr, "{\"op\": \"shutdown\"}", |_| {})
        .expect("shutdown submits")
        .expect("shutdown acknowledged");
    handle.join().expect("server thread").expect("serve result");
}

/// Connects and consumes the `hello` event, returning split halves.
fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let hello = read_line(&mut reader);
    assert!(hello.contains("\"event\":\"hello\""), "got: {hello}");
    (reader, writer)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read event line");
    line
}

/// A small-footprint daemon configuration so campaign-carrying tests run
/// in milliseconds.
fn tiny_options() -> ServeOptions {
    ServeOptions {
        max_jobs: 2,
        workers: 2,
        base: CoverMeConfig::new().with_n_start(6).with_seed(9),
        ..ServeOptions::default()
    }
}

#[test]
fn malformed_frames_get_positioned_errors_and_the_connection_survives() {
    let (addr, handle) = start_server(tiny_options());
    let (mut reader, mut writer) = connect(&addr);

    // A parse error deep in the frame: the error must carry the position.
    writer
        .write_all(b"{\"op\": \"ping\", \"x\": nope}\n")
        .expect("write");
    let error = read_line(&mut reader);
    assert!(error.contains("\"event\":\"error\""), "got: {error}");
    assert!(error.contains("\"line\":1"), "got: {error}");
    assert!(error.contains("\"column\":22"), "got: {error}");

    // Random hostile bytes (newline-free so each burst is one frame):
    // every one is answered, none kills the session.
    let mut rng = SplitMix64::new(0xBADF00D);
    for _ in 0..32 {
        let len = (rng.next_u64() % 64 + 1) as usize;
        let mut frame: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 256) as u8).collect();
        for byte in &mut frame {
            if *byte == b'\n' {
                *byte = b'?';
            }
        }
        frame.push(b'\n');
        writer.write_all(&frame).expect("write hostile frame");
        let reply = read_line(&mut reader);
        assert!(
            reply.contains("\"event\":\"error\"") || reply.contains("\"event\":"),
            "unanswered hostile frame: {reply}"
        );
    }

    // The session still works.
    writer
        .write_all(b"{\"op\": \"ping\"}\n")
        .expect("write ping");
    let pong = read_line(&mut reader);
    assert!(pong.contains("\"event\":\"pong\""), "got: {pong}");

    // Structurally valid JSON with protocol violations: answered too.
    writer.write_all(b"{\"no\": \"op\"}\n").expect("write");
    assert!(read_line(&mut reader).contains("request has no string `op`"));
    writer.write_all(b"{\"op\": \"warp\"}\n").expect("write");
    assert!(read_line(&mut reader).contains("unknown op `warp`"));
    writer
        .write_all(b"{\"op\": \"campaign\", \"suite\": \"fdlibm\", \"functions\": [\"tanh\", \"nosuch\"]}\n")
        .expect("write");
    assert!(read_line(&mut reader).contains("unknown fdlibm function `nosuch`"));
    writer
        .write_all(b"{\"op\": \"campaign\", \"suite\": \"fdlibm\", \"functions\": []}\n")
        .expect("write");
    assert!(read_line(&mut reader).contains("empty inventory"));

    drop(writer);
    drop(reader);
    shutdown_and_join(&addr, handle);
}

#[test]
fn oversized_frames_error_and_close() {
    let (addr, handle) = start_server(tiny_options());
    let (mut reader, mut writer) = connect(&addr);
    let huge = vec![b'{'; MAX_FRAME + 2];
    writer.write_all(&huge).expect("write oversized");
    writer.write_all(b"\n").expect("terminate");
    let error = read_line(&mut reader);
    assert!(error.contains("\"event\":\"error\""), "got: {error}");
    assert!(error.contains("oversized frame"), "got: {error}");
    // The daemon closes after an oversized frame: EOF, not a hang.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drained to EOF");
    assert!(rest.is_empty(), "unexpected trailing data: {rest}");
    shutdown_and_join(&addr, handle);
}

#[test]
fn truncated_final_frames_error_and_close() {
    let (addr, handle) = start_server(tiny_options());
    let (mut reader, writer) = connect(&addr);
    let mut writer = writer;
    writer
        .write_all(b"{\"op\": \"ping\"")
        .expect("write partial frame");
    // Half-close the write direction: the daemon sees bytes with no
    // newline followed by EOF — a truncated frame, not a clean close.
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let error = read_line(&mut reader);
    assert!(error.contains("truncated frame"), "got: {error}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drained to EOF");
    assert!(rest.is_empty());
    shutdown_and_join(&addr, handle);
}

#[test]
fn mid_campaign_disconnect_tears_down_cleanly_and_frees_workers() {
    let (addr, handle) = start_server(tiny_options());

    // Submit a campaign and vanish right after admission: the daemon must
    // cancel the job, finalize its searches, and return the pool slots.
    {
        let (mut reader, mut writer) = connect(&addr);
        writer
            .write_all(
                b"{\"op\": \"campaign\", \"suite\": \"fdlibm\", \
                  \"functions\": [\"tanh\", \"cos\", \"sin\", \"exp\"]}\n",
            )
            .expect("write campaign");
        let accepted = read_line(&mut reader);
        assert!(
            accepted.contains("\"event\":\"accepted\""),
            "got: {accepted}"
        );
        // Drop both halves mid-stream — no `done`, no clean close.
    }

    // The daemon survives and still has every worker: with a 2-slot pool,
    // a leaked ticket would make this admission block forever (the test
    // harness timeout would catch it). The ping also proves the acceptor
    // thread outlived the disconnect.
    submit_job(&addr, "{\"op\": \"ping\"}", |_| {})
        .expect("ping submits")
        .expect("pong");
    let mut events = Vec::new();
    let report = submit_job(
        &addr,
        "{\"op\": \"campaign\", \"suite\": \"fdlibm\", \"functions\": [\"tanh\"]}",
        |event| events.push(event.to_compact()),
    )
    .expect("campaign submits")
    .expect("campaign accepted")
    .expect("report arrived");
    assert!(report.contains("\"completed\":1"), "got: {report}");
    assert!(
        events.iter().any(|e| e.contains("\"event\":\"accepted\"")),
        "events: {events:?}"
    );
    shutdown_and_join(&addr, handle);
}

#[test]
fn admission_rejects_over_capacity_and_shutdown_rejects_everything() {
    let mut options = tiny_options();
    options.max_jobs = 0; // every campaign is over capacity
    let (addr, handle) = start_server(options);
    let rejected = submit_job(
        &addr,
        "{\"op\": \"campaign\", \"suite\": \"fdlibm\", \"functions\": [\"tanh\"]}",
        |_| {},
    )
    .expect("submits");
    let reason = rejected.expect_err("admission must reject at capacity");
    assert!(reason.contains("at capacity"), "got: {reason}");
    shutdown_and_join(&addr, handle);
}

#[test]
fn tiers_meter_tenants_with_a_per_function_allowance() {
    // One Powell round costs at least its starting evaluation, a 3-point
    // bracket and the final full evaluation, so a one-function job under
    // this pool always spends all of it.
    const POOL: usize = 4;
    let mut options = tiny_options();
    options.tiers = vec![("small".into(), POOL)];
    let (addr, handle) = start_server(options);
    let job = |tenant: &str| {
        let mut accepted = None;
        let request = format!(
            "{{\"op\": \"campaign\", \"tenant\": \"{tenant}\", \"suite\": \"fdlibm\", \
             \"functions\": [\"tanh\"]}}"
        );
        let outcome = submit_job(&addr, &request, |event| {
            if event.get("event").and_then(JsonValue::as_str) == Some("accepted") {
                accepted = Some(event.clone());
            }
        })
        .expect("campaign submits");
        (accepted, outcome)
    };

    let (accepted, outcome) = job("small");
    let accepted = accepted.expect("first small job admitted");
    assert_eq!(
        accepted.get("budget").and_then(JsonValue::as_usize),
        Some(POOL)
    );
    let report = outcome.expect("accepted").expect("report arrived");
    let spent = schema::parse(&report)
        .expect("report parses")
        .get("total_evaluations")
        .and_then(JsonValue::as_usize)
        .expect("total_evaluations");
    assert!(spent >= POOL, "the job spent only {spent}");

    let mut stats = None;
    submit_job(&addr, "{\"op\": \"stats\"}", |event| {
        stats = Some(event.clone())
    })
    .expect("stats submits")
    .expect("stats answered");
    let small = stats
        .as_ref()
        .and_then(|stats| stats.get("tenants"))
        .and_then(|tenants| tenants.get("small"))
        .expect("small is metered");
    assert_eq!(
        small.get("spent").and_then(JsonValue::as_usize),
        Some(spent)
    );
    assert_eq!(small.get("jobs").and_then(JsonValue::as_usize), Some(1));

    let (accepted, outcome) = job("small");
    assert!(accepted.is_none(), "an exhausted tier admits nothing");
    let reason = outcome.expect_err("second small job is rejected");
    assert!(reason.contains("exhausted its"), "got: {reason}");

    let (accepted, outcome) = job("other");
    assert!(accepted.is_some(), "unlisted tenants are unmetered");
    assert!(outcome.expect("accepted").is_some(), "report arrived");
    shutdown_and_join(&addr, handle);
}

#[test]
fn generated_modules_are_submitted_without_naming_their_entry() {
    // Generator modules define helpers plus `entry`; the entry rule picks
    // `entry` when no function is named like the file.
    let (addr, handle) = start_server(tiny_options());
    let sources = (1000..1002)
        .map(|seed| {
            JsonValue::Object(vec![
                member("path", format!("gen_{seed}.fpir")),
                member("text", generate_source(seed)),
            ])
        })
        .collect();
    let request = JsonValue::Object(vec![
        member("op", "campaign"),
        member("fuel", 2000usize),
        member("sources", JsonValue::Array(sources)),
    ]);
    let report = submit_job(&addr, &request.to_compact(), |_| {})
        .expect("campaign submits")
        .expect("campaign accepted")
        .expect("report arrived");
    let report = schema::parse(&report).expect("report parses");
    assert_eq!(
        report.get("completed").and_then(JsonValue::as_usize),
        Some(2)
    );
    shutdown_and_join(&addr, handle);
}
