//! The persistent cross-run corpus store.
//!
//! A campaign's hard-won knowledge — the representative inputs that cover
//! each function's branches and the infeasibility verdicts its search
//! settled on — used to die with the process. The corpus store persists
//! both, keyed on a **function fingerprint**
//! ([`Program::fingerprint`](coverme_runtime::Program::fingerprint)): the
//! hash of the lowered instruction tape for FPIR programs, the
//! name/arity/site-count shape hash for native ports. A repeat campaign
//! over an unchanged function looks its entry up, replays the prior
//! winners as a [`WarmStart`] before its first round,
//! and — when they still saturate the function — exits after just the
//! replay evaluations instead of re-running the whole starting-point
//! schedule. A changed function hashes to a different fingerprint and
//! simply misses: evals are spent only on what changed.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   meta.json              coverme-corpus-meta/1: the generation counter
//!   fn-<16 hex>.json       coverme-corpus-entry/1, one per fingerprint
//! ```
//!
//! Entries are written atomically (temp file + rename, like every other
//! artifact in this repository) and parsed through the shared envelope
//! module ([`crate::report::schema`]), so a truncated or hostile file is
//! a positioned error, never a panic. Inputs are stored as **hex bit
//! patterns** of their `f64`s — JSON numbers cannot round-trip every
//! `f64` exactly, and a warm start replayed off-by-one-ULP would miss the
//! exact-equality branches it exists to re-cover. `generation` is a
//! store-wide monotonic counter (not wall-clock time, which the
//! deterministic test suites cannot depend on); `gc` keeps the
//! most-recently-recorded entries by generation.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use coverme_runtime::BranchId;

use crate::driver::WarmStart;
use crate::report::schema::{self, member, JsonValue};
use crate::TestReport;

/// One persisted function entry: everything a repeat campaign needs to
/// warm-start the same function.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// The function fingerprint this entry is keyed on.
    pub fingerprint: u64,
    /// Function name at record time (informational; the fingerprint is
    /// the key).
    pub name: String,
    /// Store-wide monotonic recording stamp; higher = more recent.
    pub generation: u64,
    /// Representative inputs of the recorded run, in acceptance order.
    pub inputs: Vec<Vec<f64>>,
    /// Infeasibility verdicts the recorded run settled on.
    pub infeasible: Vec<BranchId>,
    /// Branches the recorded run covered (informational).
    pub covered_branches: usize,
    /// Total branches of the function (informational).
    pub total_branches: usize,
    /// Evaluations the recorded run spent (informational; what the warm
    /// start is expected to save).
    pub evaluations: usize,
    /// [Search key](crate::CoverMeConfig::search_key) of the recorded
    /// run's configuration — the hash of every result-determining knob.
    /// `0` on legacy entries (never matches a live key in practice).
    pub search_key: u64,
    /// Whether the recorded run ran its *entire* starting-point schedule
    /// (every `n_start` round executed, or inherited from a prior
    /// same-key entry whose coverage a warm-started run reproduced). Only
    /// exhausted entries grant the schedule credit
    /// ([`WarmStart::prior_coverage`]): a run cut short by a budget,
    /// deadline, cancellation or degradation proves nothing about the
    /// rounds it never ran.
    pub exhausted: bool,
}

impl CorpusEntry {
    /// Builds the entry a finished run would persist. `config` is the
    /// run's configuration: it stamps the entry's [search
    /// key](crate::CoverMeConfig::search_key), and its `n_start` decides
    /// `exhausted` — the schedule ran entirely when the report carries a
    /// round record per starting point.
    pub fn from_report(
        fingerprint: u64,
        config: &crate::CoverMeConfig,
        report: &TestReport,
    ) -> CorpusEntry {
        CorpusEntry {
            fingerprint,
            name: report.program.clone(),
            generation: 0,
            inputs: report.inputs.clone(),
            infeasible: report.infeasible.clone(),
            covered_branches: report.coverage.covered_count(),
            total_branches: report.coverage.total_branches(),
            evaluations: report.evaluations,
            search_key: config.search_key(),
            exhausted: report.rounds.len() >= config.n_start,
        }
    }

    /// The warm-start payload a new search replays from this entry. The
    /// schedule credit is *not* granted here — only
    /// [`CorpusStore::warm_start_for`] does, after validating the caller's
    /// search key and program shape against the entry.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart {
            inputs: self.inputs.clone(),
            infeasible: self.infeasible.clone(),
            prior_coverage: None,
        }
    }

    fn to_json(&self) -> String {
        let inputs = JsonValue::Array(
            self.inputs
                .iter()
                .map(|input| {
                    JsonValue::Array(
                        input
                            .iter()
                            .map(|v| JsonValue::String(format!("{:016x}", v.to_bits())))
                            .collect(),
                    )
                })
                .collect(),
        );
        let infeasible = JsonValue::Array(
            self.infeasible
                .iter()
                .map(|b| JsonValue::from(b.index()))
                .collect(),
        );
        let doc = JsonValue::Object(vec![
            member("schema", schema::CORPUS_ENTRY.label()),
            member("fingerprint", format!("{:016x}", self.fingerprint)),
            member("name", self.name.as_str()),
            member("generation", self.generation as f64),
            member("covered_branches", self.covered_branches),
            member("total_branches", self.total_branches),
            member("evaluations", self.evaluations),
            member("search_key", format!("{:016x}", self.search_key)),
            member("exhausted", self.exhausted),
            member("inputs", inputs),
            member("infeasible", infeasible),
        ]);
        let mut out = doc.to_compact();
        out.push('\n');
        out
    }

    fn parse(text: &str) -> Result<CorpusEntry, String> {
        let envelope = schema::open_envelope(text).map_err(|e| e.to_string())?;
        let body = envelope.expect(schema::CORPUS_ENTRY)?;
        let fingerprint = body
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing or malformed `fingerprint`")?;
        let name = body
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing `name`")?
            .to_string();
        let generation = body
            .get("generation")
            .and_then(JsonValue::as_usize)
            .ok_or("missing `generation`")? as u64;
        let covered_branches = body
            .get("covered_branches")
            .and_then(JsonValue::as_usize)
            .ok_or("missing `covered_branches`")?;
        let total_branches = body
            .get("total_branches")
            .and_then(JsonValue::as_usize)
            .ok_or("missing `total_branches`")?;
        let evaluations = body
            .get("evaluations")
            .and_then(JsonValue::as_usize)
            .ok_or("missing `evaluations`")?;
        // Absent on pre-credit entries: they warm-start fine, they just
        // never grant the schedule credit (key 0 matches no live config).
        let search_key = body
            .get("search_key")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0);
        let exhausted = body
            .get("exhausted")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let mut inputs = Vec::new();
        for row in body
            .get("inputs")
            .and_then(JsonValue::as_array)
            .ok_or("missing `inputs`")?
        {
            let mut input = Vec::new();
            for cell in row.as_array().ok_or("malformed input row")? {
                let bits = cell
                    .as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or("malformed input bit pattern")?;
                input.push(f64::from_bits(bits));
            }
            inputs.push(input);
        }
        let mut infeasible = Vec::new();
        for cell in body
            .get("infeasible")
            .and_then(JsonValue::as_array)
            .ok_or("missing `infeasible`")?
        {
            let index = cell.as_usize().ok_or("malformed infeasible branch")?;
            infeasible.push(BranchId::from_index(index));
        }
        Ok(CorpusEntry {
            fingerprint,
            name,
            generation,
            inputs,
            infeasible,
            covered_branches,
            total_branches,
            evaluations,
            search_key,
            exhausted,
        })
    }
}

/// Aggregate numbers over a store, for `coverme corpus stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Number of function entries.
    pub entries: usize,
    /// Total representative inputs across entries.
    pub inputs: usize,
    /// Total infeasibility verdicts across entries.
    pub infeasible: usize,
    /// Total evaluations the recorded runs spent (the upper bound on what
    /// warm starts can save per repeat).
    pub evaluations: usize,
}

/// The persistent corpus store: a directory of fingerprint-keyed entries.
///
/// The store is `Sync` (interior mutex over the generation counter), so a
/// campaign's worker threads and the serve daemon's concurrent jobs can
/// share one handle behind an `Arc`. Writes are atomic per entry;
/// cross-process coordination is last-writer-wins per fingerprint, which
/// is sound because any entry for a fingerprint is a valid (refutable)
/// warm start.
#[derive(Debug)]
pub struct CorpusStore {
    root: PathBuf,
    next_generation: Mutex<u64>,
}

impl CorpusStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<CorpusStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let meta_path = root.join("meta.json");
        let next_generation = match std::fs::read_to_string(&meta_path) {
            Ok(text) => schema::open_envelope(&text)
                .ok()
                .and_then(|env| env.expect(schema::CORPUS_META).ok().cloned())
                .and_then(|body| {
                    body.get("next_generation")
                        .and_then(JsonValue::as_usize)
                        .map(|g| g as u64)
                })
                .unwrap_or(1),
            Err(_) => 1,
        };
        Ok(CorpusStore {
            root,
            next_generation: Mutex::new(next_generation),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("fn-{fingerprint:016x}.json"))
    }

    /// Looks up the entry for `fingerprint`, if one is persisted and
    /// parses cleanly (a corrupt file reads as a miss, not an error — the
    /// warm start is an optimization, never a correctness dependency).
    pub fn lookup(&self, fingerprint: u64) -> Option<CorpusEntry> {
        let text = std::fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        let entry = CorpusEntry::parse(&text).ok()?;
        (entry.fingerprint == fingerprint).then_some(entry)
    }

    /// The warm-start payload for `fingerprint`, validated against the
    /// program shape: inputs must match `arity`, verdicts must lie within
    /// `num_sites`. Returns `None` on a miss or an empty payload.
    ///
    /// `search_key` is the new run's
    /// [`CoverMeConfig::search_key`](crate::CoverMeConfig::search_key).
    /// When it equals the recorded entry's key, the entry is
    /// [`exhausted`](CorpusEntry::exhausted), and nothing had to be
    /// filtered (a filtered input or verdict means the shape drifted —
    /// e.g. a fingerprint collision — and the determinism argument is
    /// void), the payload carries the schedule credit
    /// ([`WarmStart::prior_coverage`]): a replay reproducing the recorded
    /// coverage finishes without re-running the schedule.
    pub fn warm_start_for(
        &self,
        fingerprint: u64,
        arity: usize,
        num_sites: usize,
        search_key: u64,
    ) -> Option<WarmStart> {
        let entry = self.lookup(fingerprint)?;
        let kept_inputs: Vec<Vec<f64>> = entry
            .inputs
            .iter()
            .filter(|input| input.len() == arity)
            .cloned()
            .collect();
        let kept_infeasible: Vec<BranchId> = entry
            .infeasible
            .iter()
            .copied()
            .filter(|branch| branch.index() < num_sites * 2)
            .collect();
        let credit = entry.exhausted
            && entry.search_key == search_key
            && search_key != 0
            && entry.total_branches == num_sites * 2
            && kept_inputs.len() == entry.inputs.len()
            && kept_infeasible.len() == entry.infeasible.len();
        let warm = WarmStart {
            inputs: kept_inputs,
            infeasible: kept_infeasible,
            prior_coverage: credit.then_some(entry.covered_branches),
        };
        (!warm.is_empty()).then_some(warm)
    }

    /// Persists `entry` (assigning it the next generation stamp) under its
    /// fingerprint, atomically replacing any previous entry.
    pub fn record(&self, mut entry: CorpusEntry) -> io::Result<()> {
        {
            let mut counter = self.next_generation.lock().expect("corpus lock poisoned");
            entry.generation = *counter;
            *counter += 1;
            let meta = JsonValue::Object(vec![
                member("schema", schema::CORPUS_META.label()),
                member("next_generation", *counter as f64),
            ]);
            let mut meta_text = meta.to_compact();
            meta_text.push('\n');
            write_atomic(self.root.join("meta.json"), &meta_text)?;
        }
        write_atomic(self.entry_path(entry.fingerprint), &entry.to_json())
    }

    /// Convenience: records what a finished run would persist. Reports
    /// with no inputs *and* no verdicts are skipped (nothing to warm-start
    /// from); returns whether an entry was written.
    ///
    /// A warm-started run that took the schedule credit ran few (often
    /// zero) rounds, so its own report never looks exhausted — but the
    /// exhaustion verdict it rode on still stands. When the previous entry
    /// for the fingerprint has the same search key, is exhausted, and the
    /// new report reproduced its coverage, the verdict is carried forward,
    /// keeping third and later repeats warm too.
    pub fn record_report(
        &self,
        fingerprint: u64,
        config: &crate::CoverMeConfig,
        report: &TestReport,
    ) -> io::Result<bool> {
        if report.inputs.is_empty() && report.infeasible.is_empty() {
            return Ok(false);
        }
        let mut entry = CorpusEntry::from_report(fingerprint, config, report);
        if !entry.exhausted {
            if let Some(previous) = self.lookup(fingerprint) {
                entry.exhausted = previous.exhausted
                    && previous.search_key == entry.search_key
                    && previous.covered_branches == entry.covered_branches;
            }
        }
        self.record(entry)?;
        Ok(true)
    }

    /// Every parseable entry in the store, sorted by name then
    /// fingerprint (stable listing order for `coverme corpus ls`).
    pub fn entries(&self) -> Vec<CorpusEntry> {
        let mut found: BTreeMap<(String, u64), CorpusEntry> = BTreeMap::new();
        let Ok(dir) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        for dir_entry in dir.filter_map(Result::ok) {
            let path = dir_entry.path();
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !file_name.starts_with("fn-") || !file_name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Ok(entry) = CorpusEntry::parse(&text) {
                found.insert((entry.name.clone(), entry.fingerprint), entry);
            }
        }
        found.into_values().collect()
    }

    /// Aggregate numbers over the store.
    pub fn stats(&self) -> CorpusStats {
        let entries = self.entries();
        CorpusStats {
            entries: entries.len(),
            inputs: entries.iter().map(|e| e.inputs.len()).sum(),
            infeasible: entries.iter().map(|e| e.infeasible.len()).sum(),
            evaluations: entries.iter().map(|e| e.evaluations).sum(),
        }
    }

    /// Garbage collection: keeps the `keep` most recently recorded
    /// entries (by generation stamp, ties broken by fingerprint) and
    /// removes the rest. Returns how many entries were removed.
    pub fn gc(&self, keep: usize) -> io::Result<usize> {
        let mut entries = self.entries();
        entries.sort_by_key(|e| (std::cmp::Reverse(e.generation), e.fingerprint));
        let mut removed = 0usize;
        for entry in entries.iter().skip(keep) {
            std::fs::remove_file(self.entry_path(entry.fingerprint))?;
            removed += 1;
        }
        Ok(removed)
    }
}

/// Atomic file replace: write `contents` to the sibling temp file
/// `<path>.tmp`, then rename it over `path`. The rename either happens or
/// it does not, so an interrupted writer never leaves a truncated file.
/// The corpus writes its entries through it, and the `coverme` CLI its
/// JSON reports.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_runtime::{native_fingerprint, BranchSet, CoverageMap};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coverme-corpus-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report_with(inputs: Vec<Vec<f64>>, infeasible: Vec<BranchId>) -> TestReport {
        let mut coverage = CoverageMap::new(2);
        let mut covered = BranchSet::new();
        covered.insert(BranchId::true_of(0));
        coverage.record_set(&covered);
        TestReport {
            program: "toy".to_string(),
            inputs,
            coverage,
            infeasible,
            rounds: Vec::new(),
            evaluations: 321,
            timeouts: 0,
            traps: 0,
            warm_replayed: 0,
            backend: "interp",
            wall_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn schedule_credit_requires_matching_key_and_exhaustion() {
        let dir = temp_dir("credit");
        let store = CorpusStore::open(&dir).unwrap();
        let fp = 11;
        // A run that executed its whole (tiny) schedule: one round record
        // per starting point.
        let config = crate::CoverMeConfig::new().with_n_start(1).with_seed(42);
        let mut report = report_with(vec![vec![3.0]], Vec::new());
        report.rounds.push(crate::RoundRecord {
            round: 0,
            start: vec![3.0],
            minimum: vec![3.0],
            value: 0.0,
            evaluations: 7,
            saturated_before: 0,
            outcome: crate::RoundOutcome::NewInput,
        });
        store.record_report(fp, &config, &report).unwrap();
        let entry = store.lookup(fp).unwrap();
        assert!(entry.exhausted);
        assert_eq!(entry.search_key, config.search_key());

        // Same key: the credit rides along.
        let warm = store
            .warm_start_for(fp, 1, 2, config.search_key())
            .expect("hit");
        assert_eq!(warm.prior_coverage, Some(entry.covered_branches));
        // Different key (another seed): inputs replay, no credit.
        let other = crate::CoverMeConfig::new().with_n_start(1).with_seed(43);
        let cold = store
            .warm_start_for(fp, 1, 2, other.search_key())
            .expect("hit");
        assert_eq!(cold.prior_coverage, None);
        assert_eq!(cold.inputs, warm.inputs);
        // Wrong shape (site count drifted): no credit either.
        let drifted = store
            .warm_start_for(fp, 1, 3, config.search_key())
            .expect("hit");
        assert_eq!(drifted.prior_coverage, None);

        // A warm repeat that took the credit ran zero rounds; re-recording
        // it carries the exhaustion verdict forward when the coverage held.
        let repeat = report_with(vec![vec![3.0]], Vec::new());
        store.record_report(fp, &config, &repeat).unwrap();
        let chained = store.lookup(fp).unwrap();
        assert!(chained.exhausted, "verdict carries across warm repeats");
        let again = store
            .warm_start_for(fp, 1, 2, config.search_key())
            .expect("hit");
        assert_eq!(again.prior_coverage, Some(entry.covered_branches));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_round_trip_exotic_floats_exactly() {
        let dir = temp_dir("roundtrip");
        let store = CorpusStore::open(&dir).unwrap();
        let weird = vec![
            vec![f64::NAN, -0.0],
            vec![f64::INFINITY, f64::MIN_POSITIVE / 2.0],
            vec![1.0 + f64::EPSILON, -1e308],
        ];
        let fp = native_fingerprint("toy", 2, 2);
        let report = report_with(weird.clone(), vec![BranchId::false_of(1)]);
        assert!(store
            .record_report(fp, &crate::CoverMeConfig::new(), &report)
            .unwrap());
        let entry = store.lookup(fp).expect("entry persisted");
        // Bit-exact round trip, including NaN and signed zero.
        for (stored, original) in entry.inputs.iter().zip(&weird) {
            for (s, o) in stored.iter().zip(original) {
                assert_eq!(s.to_bits(), o.to_bits());
            }
        }
        assert_eq!(entry.infeasible, vec![BranchId::false_of(1)]);
        assert_eq!(entry.evaluations, 321);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_filters_stale_shapes() {
        let dir = temp_dir("filter");
        let store = CorpusStore::open(&dir).unwrap();
        let fp = 7;
        let report = report_with(vec![vec![1.0], vec![1.0, 2.0]], vec![BranchId::false_of(9)]);
        store
            .record_report(fp, &crate::CoverMeConfig::new(), &report)
            .unwrap();
        // Asked with arity 1 / 2 sites: the arity-2 input and the
        // out-of-range verdict are dropped.
        let warm = store.warm_start_for(fp, 1, 2, 0).expect("non-empty");
        assert_eq!(warm.inputs, vec![vec![1.0]]);
        assert!(warm.infeasible.is_empty());
        assert!(
            store.warm_start_for(99, 1, 2, 0).is_none(),
            "miss on unknown"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_climb_and_gc_keeps_the_newest() {
        let dir = temp_dir("gc");
        let store = CorpusStore::open(&dir).unwrap();
        for fp in 0..5u64 {
            store
                .record_report(
                    fp,
                    &crate::CoverMeConfig::new(),
                    &report_with(vec![vec![fp as f64]], Vec::new()),
                )
                .unwrap();
        }
        assert_eq!(store.stats().entries, 5);
        // Reopen: the generation counter persisted.
        let reopened = CorpusStore::open(&dir).unwrap();
        reopened
            .record_report(
                100,
                &crate::CoverMeConfig::new(),
                &report_with(vec![vec![9.0]], Vec::new()),
            )
            .unwrap();
        let latest = reopened.lookup(100).unwrap();
        let earlier = reopened.lookup(0).unwrap();
        assert!(latest.generation > earlier.generation);
        // GC to 2: the two newest survive.
        let removed = reopened.gc(2).unwrap();
        assert_eq!(removed, 4);
        let left = reopened.entries();
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|e| e.fingerprint == 100));
        assert!(left.iter().any(|e| e.fingerprint == 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let dir = temp_dir("corrupt");
        let store = CorpusStore::open(&dir).unwrap();
        std::fs::write(store.entry_path(3), "{ not json").unwrap();
        std::fs::write(
            store.entry_path(4),
            "{\"schema\": \"coverme-corpus-entry/99\"}\n",
        )
        .unwrap();
        assert!(store.lookup(3).is_none());
        assert!(store.lookup(4).is_none());
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
