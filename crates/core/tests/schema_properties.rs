//! Property tests for the versioned report envelope (`report::schema`):
//! the one JSON surface the run report, campaign report, corpus store and
//! serve protocol all share.
//!
//! Three families of invariants:
//!
//! * **Round trips** — any [`JsonValue`] written compactly parses back to
//!   the same value, and hostile text never panics the parser (it returns
//!   a positioned [`JsonError`] instead).
//! * **Envelopes** — documents open under exactly their own schema id;
//!   any other id (wrong kind or wrong version) is refused.
//! * **Corpus-off pins** — with no corpus attached, run and campaign
//!   documents are deterministic (up to wall-clock members) and contain
//!   none of the corpus members (`corpus_warm_start`, `warm_replayed`),
//!   which keeps them shape-identical to the pre-corpus emitters.

use proptest::prelude::*;

use coverme::report::schema::{
    self, open_envelope, JsonValue, CAMPAIGN_REPORT, CORPUS_ENTRY, RUN_REPORT, SERVE_PROTOCOL,
};
use coverme::{Campaign, CampaignConfig, CoverMe, CoverMeConfig};
use coverme_runtime::{ExecCtx, FnProgram};

// ---------------------------------------------------------------------------
// JsonValue round trips
// ---------------------------------------------------------------------------

/// Finite numbers only: the writers collapse NaN/∞ to `0` by design, so
/// non-finite values do not round-trip (and never occur in documents).
fn number_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9..1e9f64,
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(1e300),
            Just(-1e-300),
            Just(0.1),
            Just(2.0_f64.powi(53)),
        ],
    ]
}

/// Strings across the escaping space: printable ASCII plus characters
/// that exercise escapes — quotes, backslashes, C0 controls, multibyte
/// UTF-8 and astral-plane characters.
fn string_strategy() -> impl Strategy<Value = String> {
    let escape_chars = prop_oneof![
        (32u8..127).prop_map(|b| b as char),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\t'),
        Just('\u{1}'),
        Just('é'),
        Just('中'),
        Just('\u{1F600}'),
        Just('/'),
    ];
    prop::collection::vec(escape_chars, 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// Depth-limited recursive [`JsonValue`] strategy (the vendored proptest
/// subset has no `prop_recursive`, so recursion is explicit).
fn json_strategy(depth: usize) -> Box<dyn Strategy<Value = JsonValue>> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        number_strategy().prop_map(JsonValue::Number),
        string_strategy().prop_map(JsonValue::String),
    ];
    if depth == 0 {
        return proptest::boxed(leaf);
    }
    proptest::boxed(prop_oneof![
        leaf,
        prop::collection::vec(json_strategy(depth - 1), 0..5).prop_map(JsonValue::Array),
        prop::collection::vec((string_strategy(), json_strategy(depth - 1)), 0..5)
            .prop_map(JsonValue::Object),
    ])
}

/// Arbitrary byte soup rendered as (possibly invalid-JSON) text.
fn hostile_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    /// write → parse is the identity on every document the writers can
    /// produce, and the round trip is a fixpoint (stable formatting). The
    /// pretty writer reads back to the same value.
    #[test]
    fn compact_json_round_trips(value in json_strategy(3)) {
        let text = value.to_compact();
        let parsed = schema::parse(&text).expect("own output parses");
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(parsed.to_compact(), text);
        let pretty = schema::parse(&value.to_pretty()).expect("pretty output parses");
        prop_assert_eq!(&pretty, &value);
    }

    /// The parser never panics on hostile bytes: any outcome is a value
    /// or a positioned error (1-based line/column).
    #[test]
    fn hostile_text_yields_positioned_errors_not_panics(text in hostile_text_strategy()) {
        match schema::parse(&text) {
            Ok(_) => {}
            Err(error) => {
                prop_assert!(error.line >= 1);
                prop_assert!(error.column >= 1);
                prop_assert!(!error.message.is_empty());
            }
        }
    }

    /// A document opens under its own schema id and refuses every other
    /// registered id — kind and version are both part of the contract.
    #[test]
    fn envelopes_accept_their_own_schema_and_refuse_others(which in 0usize..4) {
        let ids = [RUN_REPORT, CAMPAIGN_REPORT, CORPUS_ENTRY, SERVE_PROTOCOL];
        let id = ids[which];
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::String(id.label())),
            ("payload".to_string(), JsonValue::Number(7.0)),
        ])
        .to_compact();
        let envelope = open_envelope(&doc).expect("well-formed envelope");
        prop_assert!(envelope.is(id));
        prop_assert!(envelope.expect(id).is_ok());
        for other in ids.iter().filter(|other| !other.matches(&id.label())) {
            prop_assert!(envelope.expect(*other).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus-off document pins
// ---------------------------------------------------------------------------

/// Replaces wall-clock-derived members (`wall_time_s`, `*_per_second`)
/// with `null`, recursively: everything else in a report document is a
/// deterministic function of the search, and the pins below assert
/// exactly that.
fn scrub_timings(value: &mut JsonValue) {
    match value {
        JsonValue::Array(items) => items.iter_mut().for_each(scrub_timings),
        JsonValue::Object(members) => {
            for (key, member) in members.iter_mut() {
                if key.contains("wall_time") || key.contains("per_second") {
                    *member = JsonValue::Null;
                } else {
                    scrub_timings(member);
                }
            }
        }
        _ => {}
    }
}

fn parse_scrubbed(doc: &str) -> JsonValue {
    let mut value = schema::parse(doc).expect("document parses");
    scrub_timings(&mut value);
    value
}

/// A tiny deterministic program: two conditional sites over one input.
fn toy_program() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    FnProgram::new("toy", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
        let x = input[0];
        if ctx.branch(0, coverme_runtime::Cmp::Le, x, 1.0) {
            ctx.branch(1, coverme_runtime::Cmp::Eq, x, 0.25);
        }
    })
}

fn toy_config() -> CoverMeConfig {
    CoverMeConfig::new().with_n_start(8).with_seed(7)
}

/// With no corpus attached, the run document is deterministic byte for
/// byte, carries none of the corpus members, and opens as the current
/// `coverme-run-report` schema — i.e. it is exactly what the pre-corpus
/// emitter produced.
#[test]
fn corpus_off_run_documents_are_pinned() {
    let first = CoverMe::new(toy_config()).run(&toy_program());
    let second = CoverMe::new(toy_config()).run(&toy_program());
    let first_doc = first.to_run_json("toy", "toy.fpir");
    assert_eq!(
        parse_scrubbed(&first_doc),
        parse_scrubbed(&second.to_run_json("toy", "toy.fpir")),
        "corpus-off run documents must be deterministic up to wall time"
    );
    assert_eq!(first.warm_replayed, 0);
    assert!(!first_doc.contains("corpus_warm_start"));
    assert!(!first_doc.contains("warm_replayed"));
    let envelope = open_envelope(&first_doc).expect("document parses");
    assert!(envelope.expect(RUN_REPORT).is_ok());

    // The corpus members appear exactly when a warm start replayed
    // something — the only branch the emitter grew for the corpus.
    let mut warmed = first;
    warmed.warm_replayed = 3;
    let warm_doc = warmed.to_run_json("toy", "toy.fpir");
    assert!(warm_doc.contains("\"corpus_warm_start\": true"));
    assert!(warm_doc.contains("\"warm_replayed\": 3"));
    assert!(open_envelope(&warm_doc)
        .expect("warm document parses")
        .expect(RUN_REPORT)
        .is_ok());
}

/// Same pin for the campaign surface: no corpus → no corpus members, a
/// deterministic document, and the current `coverme-campaign-report`
/// envelope.
#[test]
fn corpus_off_campaign_documents_are_pinned() {
    let config = CampaignConfig::new()
        .with_base(toy_config())
        .with_workers(2);
    let inventory = vec![toy_program()];
    let first = Campaign::new(config.clone()).run(&inventory).to_json();
    let second = Campaign::new(config).run(&inventory).to_json();
    assert_eq!(
        parse_scrubbed(&first),
        parse_scrubbed(&second),
        "corpus-off campaign documents must be deterministic up to wall time"
    );
    assert!(!first.contains("corpus_warm_start"));
    assert!(!first.contains("warm_replayed"));
    let envelope = open_envelope(&first).expect("document parses");
    assert!(envelope.expect(CAMPAIGN_REPORT).is_ok());
}

/// The run document escapes the file path and entry name it splices in:
/// a path holding a quote, a backslash and a control character still
/// yields a valid document whose `file` and `entry` parse back verbatim.
#[test]
fn run_documents_escape_hostile_paths_and_entries() {
    let report = CoverMe::new(toy_config()).run(&toy_program());
    let path = "dir\\odd\"name\u{1}.fpir";
    let entry = "ma\"in\n";
    let doc = schema::parse(&report.to_run_json(entry, path)).expect("document parses");
    assert_eq!(doc.get("file").and_then(JsonValue::as_str), Some(path));
    assert_eq!(doc.get("entry").and_then(JsonValue::as_str), Some(entry));
    assert_eq!(
        doc.get("evals").and_then(JsonValue::as_usize),
        Some(report.evaluations)
    );
}
