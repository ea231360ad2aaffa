//! Front-end hardening: the lexer and parser must *reject*, never crash.
//!
//! The CLI feeds whatever bytes a user's `.fpir` file contains straight
//! into [`coverme_fpir::parse`]. Every failure mode has to be a positioned
//! [`CompileError`] — a panic in the front end takes down the whole
//! `coverme` process (and, under the campaign runner, a worker thread).
//! This suite throws three families of hostile input at the pipeline:
//! pseudo-random ASCII soup, pseudo-random bytes drawn from the language's
//! own token alphabet (far more likely to get deep into the parser), and
//! truncations of valid programs (every prefix of a generated source).

use coverme_fpir::generate::generate_source;
use coverme_fpir::{check, parse};

/// SplitMix64 — deterministic hostile inputs, so failures replay.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Parse + typecheck must return, not panic; when they fail, the error
/// formats without panicking too (the CLI prints it verbatim).
fn assert_total(source: &str, label: &str) {
    match parse(source).and_then(check) {
        Ok(_) => {}
        Err(error) => {
            let rendered = format!("{error}");
            assert!(!rendered.is_empty(), "{label}: empty error message");
        }
    }
}

#[test]
fn random_ascii_soup_never_panics_the_frontend() {
    let mut rng = Rng(0x50D4);
    for case in 0..400 {
        let len = rng.usize_in(0, 160);
        let source: String = (0..len)
            .map(|_| (rng.usize_in(0x20, 0x7f) as u8) as char)
            .collect();
        assert_total(&source, &format!("ascii case {case}"));
    }
}

#[test]
fn token_alphabet_soup_never_panics_the_frontend() {
    // Fragments of real syntax glued randomly: reaches much deeper into
    // the parser than uniform bytes (expressions half-open, keywords in
    // illegal positions, unbalanced braces, dangling casts).
    const FRAGMENTS: &[&str] = &[
        "double",
        "int",
        "void",
        "if",
        "else",
        "while",
        "return",
        "(",
        ")",
        "{",
        "}",
        ";",
        ",",
        "=",
        "==",
        "!=",
        "<",
        "<=",
        ">",
        ">=",
        "+",
        "-",
        "*",
        "/",
        "%",
        "&",
        "|",
        "^",
        "~",
        "!",
        "<<",
        ">>",
        "x",
        "foo",
        "sqrt",
        "0",
        "1.5",
        "0x7ff00000",
        ".",
        "\"",
        "'",
        "\\",
        "@",
        "/*",
        "*/",
        "//",
        "\n",
    ];
    let mut rng = Rng(0xA1FA);
    for case in 0..400 {
        let len = rng.usize_in(0, 60);
        let mut source = String::new();
        for _ in 0..len {
            source.push_str(FRAGMENTS[rng.usize_in(0, FRAGMENTS.len())]);
            source.push(' ');
        }
        assert_total(&source, &format!("token case {case}"));
    }
}

#[test]
fn non_ascii_and_control_bytes_never_panic_the_lexer() {
    let mut rng = Rng(0xBEEF);
    for case in 0..200 {
        let len = rng.usize_in(0, 80);
        let source: String = (0..len)
            .map(|_| char::from_u32(rng.usize_in(0, 0x2FFF) as u32).unwrap_or('\u{FFFD}'))
            .collect();
        assert_total(&source, &format!("unicode case {case}"));
    }
}

/// Sources up to this many bytes are cut at every char boundary.
const EXHAUSTIVE_CUTS_UP_TO: usize = 4096;
/// Longer sources are still cut at every boundary this close to either end.
const EDGE_BYTES: usize = 1024;
/// ...and at about this many evenly spaced boundaries in between.
const SPACED_CUTS: usize = 1000;

/// The prefix lengths a truncation test parses. Each parse is linear in
/// the prefix, so parsing every prefix of a long source is quadratic; past
/// [`EXHAUSTIVE_CUTS_UP_TO`] bytes a fixed, deterministic sample keeps the
/// ends dense (where headers and the last unclosed block live) and spaces
/// the rest evenly.
fn cut_points(source: &str) -> Vec<usize> {
    let len = source.len();
    let boundaries = (0..len).filter(|&i| source.is_char_boundary(i));
    if len <= EXHAUSTIVE_CUTS_UP_TO {
        return boundaries.collect();
    }
    let step = len / SPACED_CUTS;
    boundaries
        .filter(|&i| i < EDGE_BYTES || i >= len - EDGE_BYTES || i % step == 0)
        .collect()
}

#[test]
fn every_truncation_of_a_valid_program_fails_cleanly_or_parses() {
    // Chop a known-good program at its cut points: the quintessential
    // "editor saved half the file" input. Each prefix either parses (rare
    // but legal — e.g. cutting between two functions) or errors with a
    // line number pointing into the file.
    for seed in [3u64, 17, 40] {
        let source = generate_source(seed);
        for end in cut_points(&source) {
            let prefix = &source[..end];
            match parse(prefix) {
                Ok(_) => {}
                Err(error) => {
                    let max_line = prefix.lines().count() as u32 + 1;
                    assert!(
                        error.line <= max_line,
                        "seed {seed}, prefix {end}: error line {} beyond the {} lines fed in",
                        error.line,
                        max_line
                    );
                }
            }
        }
    }
}

#[test]
fn truncated_corpus_files_fail_cleanly() {
    // Same property over the checked-in example corpus, so regressions in
    // the corpus itself get caught here too.
    for source in [
        include_str!("../../../examples/fpir/newton_sqrt.fpir"),
        include_str!("../../../examples/fpir/sign_juggle.fpir"),
        include_str!("../../../examples/fpir/spin.fpir"),
    ] {
        for end in (0..source.len()).filter(|&i| source.is_char_boundary(i)) {
            assert_total(&source[..end], &format!("corpus prefix {end}"));
        }
    }
}
