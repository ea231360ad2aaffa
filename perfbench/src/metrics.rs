//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of the metric names,
//! units and directions; `BENCHMARK.json` lists the same set (a test pins
//! the two together) and `CATALOGUE.md` documents each one.

use std::collections::BTreeMap;

use crate::stats::{percentile_supported, quantile, sorted, Summary};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Documented in `BENCHMARK.json`; the catalogue test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    metric("setup_s", "s", Lower),
    metric("wall_s", "s", Lower),
    metric("branch_coverage_pct", "%", Higher),
    metric("complete_frac", "frac", Higher),
    metric("peak_rss_mb", "MB", Lower),
    metric("cold_job_ms_p50", "ms", Lower),
    metric("warm_job_ms_p50", "ms", Lower),
    metric("warm_job_ms_p90", "ms", Lower),
];

/// Metrics of single layers, measured in the traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    metric("fpir.parse_ms", "ms", Lower),
    metric("fpir.check_ms", "ms", Lower),
    metric("fpir.instrument_ms", "ms", Lower),
    metric("fpir.lower_ms", "ms", Lower),
    metric("fpir.lower_calls", "count", Lower),
    metric("fpir.tape_blocks", "count", Lower),
    metric("fpir.soa_blocks", "count", Higher),
    metric("exec.native_calls", "count", Lower),
    metric("exec.scalar_calls", "count", Lower),
    metric("exec.scalar_busy_s", "s", Lower),
    metric("exec.lane_calls", "count", Lower),
    metric("exec.lane_points", "count", Lower),
    metric("exec.lane_busy_s", "s", Lower),
    metric("exec.lane_fill", "frac", Higher),
    metric("exec.aborted", "count", Lower),
    metric("objective.busy_s", "s", Lower),
    metric("objective.batch_mean", "points", Higher),
    metric("objective.cache_hit_frac", "frac", Higher),
    metric("optim.self_s", "s", Lower),
    metric("ledger.execs_per_eval", "ratio", Lower),
    metric("driver.rounds", "count", Lower),
    metric("driver.aborted_rounds", "count", Lower),
    metric("driver.search_self_s", "s", Lower),
    metric("campaign.search_s", "s", Lower),
    metric("campaign.worker_idle_frac", "frac", Lower),
    metric("campaign.tail_s", "s", Lower),
    metric("corpus.record_ms", "ms", Lower),
    metric("corpus.lookup_ms", "ms", Lower),
    metric("corpus.bytes", "bytes", Lower),
    metric("serve.ping_ms", "ms", Lower),
    metric("serve.job_overhead_ms", "ms", Lower),
    metric("serve.report_bytes", "bytes", Lower),
    metric("serve.rejected", "count", Lower),
    metric("schema.parse_ms", "ms", Lower),
    metric("trace.overhead_s", "s", Lower),
];

/// What one run established: whether every check passed, how many
/// operations it attempted and how many failed, and the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures, one line each (empty when correct).
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Median, quartiles and count behind each timing metric.
    pub summaries: BTreeMap<&'static str, Summary>,
    /// Free-form facts for the metadata line (raw JSON values).
    pub notes: BTreeMap<String, String>,
    /// Percentile metrics reported with fewer than
    /// [`crate::stats::MIN_TAIL_SAMPLES`] samples beyond them.
    pub undersampled: Vec<&'static str>,
}

impl Outcome {
    /// Records a correctness-check failure.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Records a fact for the metadata line; `json` must be a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.insert(key.to_string(), json);
    }

    /// Sets a metric value. The name must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "uncatalogued metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets a timing metric to the median of `samples` (which must not be
    /// empty) and keeps its summary.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.summaries.insert(name, summary);
        self.set(name, summary.median);
    }

    /// Sets a timing metric to the mean of `samples` (which must not be
    /// empty) and keeps their summary.
    pub fn set_mean(&mut self, name: &'static str, samples: &[f64]) {
        self.summaries.insert(name, Summary::of(samples));
        self.set(name, samples.iter().sum::<f64>() / samples.len() as f64);
    }

    /// Sets a timing metric to the `p`-th percentile of `samples`. When
    /// fewer than [`crate::stats::MIN_TAIL_SAMPLES`] samples lie beyond it
    /// the value is still reported, and the metadata line lists the metric
    /// under `undersampled`.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let value = percentile_supported(samples, p).unwrap_or_else(|| {
            self.undersampled.push(name);
            quantile(&sorted(samples), p / 100.0)
        });
        self.summaries.insert(name, Summary::of(samples));
        self.set(name, value);
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// per-layer (`per_layer`) or end-to-end metric with its unit.
    /// Per-layer metrics a workload did not set are reported as 0; a
    /// missing end-to-end metric is a bug.
    pub fn result_line(&self, per_layer: bool) -> String {
        let catalogue = if per_layer { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|m| {
                let value = match self.values.get(m.name) {
                    Some(value) => *value,
                    None if per_layer => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                assert!(value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_repro::coverme::report::schema::{parse, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogued(catalogue: &[MetricDef]) -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let manifest = manifest();
        assert_eq!(listed(&manifest, "end_to_end"), catalogued(END_TO_END));
        assert_eq!(listed(&manifest, "per_layer"), catalogued(PER_LAYER));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_fills_unset_layers_with_zero() {
        let mut outcome = Outcome::default();
        outcome.set("exec.aborted", 3.0);
        let line = outcome.result_line(true);
        let value = parse(&line).expect("result line is JSON");
        let metrics = value.get("metrics").unwrap();
        let aborted = metrics.get("exec.aborted").unwrap();
        assert_eq!(aborted.get("value").and_then(JsonValue::as_f64), Some(3.0));
        let parse_ms = metrics.get("fpir.parse_ms").unwrap();
        assert_eq!(parse_ms.get("value").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(value.get("correct"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        Outcome::default().result_line(false);
    }
}
