//! Tracing from the outside: spans recorded by the benchmark around its
//! calls into each layer, and counting wrappers around the layers' public
//! seams. Nothing inside the program under test is instrumented.
//!
//! * [`Tracer`] keeps spans (name, start, end, parent) in memory and writes
//!   them out as JSON when the run ends.
//! * [`Traced`] wraps a [`Program`] and forwards every method. Its
//!   [`Program::backend`] wraps whatever backend the program offers — or a
//!   fresh [`InterpBackend`] when it offers none, exactly the fallback the
//!   objective engine applies — in a [`TracedBackend`] that times `run` and
//!   `run_lanes` and counts points and aborted executions.
//! * [`TimedObjective`] wraps an [`Objective`] and times every call, which
//!   splits a minimization into engine time and minimizer self time.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coverme_repro::coverme::{BackendMode, ExecCtx, Objective, Program, RunOutcome, SimdIsa};
use coverme_repro::runtime::{BranchSet, ExecBackend, InterpBackend, LaneEval};

/// Scalar executions of a native (non-tape) backend are stamped one in this
/// many: a native fdlibm execution costs about as much as two clock reads,
/// so stamping each one would double the campaign it measures.
pub const NATIVE_STAMP_EVERY: u64 = 64;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Creates an empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (the parent of later
    /// child spans).
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        id
    }

    /// Runs `body` inside a span named `name` and returns its result with
    /// the span's id.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, body: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let value = body();
        let id = self.record(name, parent, start, Instant::now());
        (value, id)
    }

    /// Number of spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Writes every span as one JSON document to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_json(&mut out)?;
        out.flush()
    }

    fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        writeln!(out, "{{\"spans\": [")?;
        for (index, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if index + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                span.id, parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Execution counters of one program, shared by its wrapper and every
/// backend the wrapper hands out. Aligned so two programs searched on two
/// workers never share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ExecStats {
    native_calls: AtomicU64,
    backend_requests: AtomicU64,
    fingerprints: AtomicU64,
    scalar_calls: AtomicU64,
    scalar_stamped: AtomicU64,
    scalar_stamped_ns: AtomicU64,
    lane_calls: AtomicU64,
    lane_points: AtomicU64,
    lane_slots: AtomicU64,
    lane_busy_ns: AtomicU64,
    aborted: AtomicU64,
}

/// A plain snapshot of [`ExecStats`], summable across programs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecTotals {
    /// `Program::execute` calls (native and interpreted programs only; the
    /// tape never calls it).
    pub native_calls: u64,
    /// `Program::backend` calls. For FPIR programs each one lowers the
    /// program to its tape again.
    pub backend_requests: u64,
    /// `Program::fingerprint` calls (each lowers an FPIR program too).
    pub fingerprints: u64,
    /// Scalar `ExecBackend::run` calls.
    pub scalar_calls: u64,
    /// Estimated seconds inside scalar `run` calls (exact for stamped-every
    /// backends, scaled up from the stamped subset otherwise).
    pub scalar_busy_s: f64,
    /// `ExecBackend::run_lanes` calls.
    pub lane_calls: u64,
    /// Points evaluated through `run_lanes`.
    pub lane_points: u64,
    /// Lane slots offered: chunks × lane width.
    pub lane_slots: u64,
    /// Seconds inside `run_lanes` calls.
    pub lane_busy_s: f64,
    /// Executions (scalar or lane) that ended other than `Done`.
    pub aborted: u64,
}

impl ExecTotals {
    /// Backend executions: scalar runs plus lane points.
    pub fn executions(&self) -> u64 {
        self.scalar_calls + self.lane_points
    }

    /// Adds another program's totals.
    pub fn add(&mut self, other: &ExecTotals) {
        self.native_calls += other.native_calls;
        self.backend_requests += other.backend_requests;
        self.fingerprints += other.fingerprints;
        self.scalar_calls += other.scalar_calls;
        self.scalar_busy_s += other.scalar_busy_s;
        self.lane_calls += other.lane_calls;
        self.lane_points += other.lane_points;
        self.lane_slots += other.lane_slots;
        self.lane_busy_s += other.lane_busy_s;
        self.aborted += other.aborted;
    }
}

impl ExecStats {
    /// Reads the counters.
    pub fn totals(&self) -> ExecTotals {
        let scalar_calls = self.scalar_calls.load(Relaxed);
        let stamped = self.scalar_stamped.load(Relaxed);
        let stamped_s = self.scalar_stamped_ns.load(Relaxed) as f64 * 1e-9;
        ExecTotals {
            native_calls: self.native_calls.load(Relaxed),
            backend_requests: self.backend_requests.load(Relaxed),
            fingerprints: self.fingerprints.load(Relaxed),
            scalar_calls,
            scalar_busy_s: if stamped == 0 {
                0.0
            } else {
                stamped_s * scalar_calls as f64 / stamped as f64
            },
            lane_calls: self.lane_calls.load(Relaxed),
            lane_points: self.lane_points.load(Relaxed),
            lane_slots: self.lane_slots.load(Relaxed),
            lane_busy_s: self.lane_busy_ns.load(Relaxed) as f64 * 1e-9,
            aborted: self.aborted.load(Relaxed),
        }
    }
}

/// A program wrapper that forwards every [`Program`] method and counts the
/// work the layers below do with it.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    stats: Arc<ExecStats>,
}

impl<P: Program> Traced<P> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: P) -> Traced<P> {
        Traced {
            inner,
            stats: Arc::new(ExecStats::default()),
        }
    }

    /// The counters accumulated so far (backends still alive have not
    /// flushed theirs).
    pub fn totals(&self) -> ExecTotals {
        self.stats.totals()
    }
}

impl<P: Program> Program for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn num_sites(&self) -> usize {
        self.inner.num_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        self.stats.native_calls.fetch_add(1, Relaxed);
        self.inner.execute(input, ctx);
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }

    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        self.stats.backend_requests.fetch_add(1, Relaxed);
        // The objective engine's own fallback: a program without a backend
        // of its own runs through the interpreter backend.
        let inner = self
            .inner
            .backend(mode)
            .unwrap_or_else(|| Box::new(InterpBackend::new()));
        Some(Box::new(TracedBackend::new(inner, Arc::clone(&self.stats))))
    }

    fn fingerprint(&self) -> u64 {
        self.stats.fingerprints.fetch_add(1, Relaxed);
        self.inner.fingerprint()
    }
}

/// Per-backend counters, kept unshared on the hot path and added to the
/// program's [`ExecStats`] when the backend is dropped.
#[derive(Debug, Clone, Copy, Default)]
struct LocalCounts {
    scalar_calls: u64,
    scalar_stamped: u64,
    scalar_stamped_ns: u64,
    lane_calls: u64,
    lane_points: u64,
    lane_slots: u64,
    lane_busy_ns: u64,
    aborted: u64,
}

/// A backend wrapper that times and counts the wrapped backend's work.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Box<dyn ExecBackend>,
    stats: Arc<ExecStats>,
    /// Stamp one scalar run in this many (1 = every run).
    stamp_every: u64,
    local: LocalCounts,
}

impl TracedBackend {
    fn new(inner: Box<dyn ExecBackend>, stats: Arc<ExecStats>) -> TracedBackend {
        // The tape's scalar runs are long enough to stamp each one; native
        // executions are not.
        let stamp_every = if inner.name() == "tape" {
            1
        } else {
            NATIVE_STAMP_EVERY
        };
        TracedBackend {
            inner,
            stats,
            stamp_every,
            local: LocalCounts::default(),
        }
    }
}

impl Drop for TracedBackend {
    fn drop(&mut self) {
        let local = std::mem::take(&mut self.local);
        let stats = &self.stats;
        stats.scalar_calls.fetch_add(local.scalar_calls, Relaxed);
        stats
            .scalar_stamped
            .fetch_add(local.scalar_stamped, Relaxed);
        stats
            .scalar_stamped_ns
            .fetch_add(local.scalar_stamped_ns, Relaxed);
        stats.lane_calls.fetch_add(local.lane_calls, Relaxed);
        stats.lane_points.fetch_add(local.lane_points, Relaxed);
        stats.lane_slots.fetch_add(local.lane_slots, Relaxed);
        stats.lane_busy_ns.fetch_add(local.lane_busy_ns, Relaxed);
        stats.aborted.fetch_add(local.aborted, Relaxed);
    }
}

impl ExecBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    fn simd_isa(&self) -> SimdIsa {
        self.inner.simd_isa()
    }

    fn set_simd(&mut self, isa: SimdIsa) {
        self.inner.set_simd(isa);
    }

    fn min_batch(&self) -> usize {
        self.inner.min_batch()
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        self.inner.set_epsilon(epsilon);
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.inner.retarget(saturated);
    }

    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        self.local.scalar_calls += 1;
        if self.local.scalar_calls.is_multiple_of(self.stamp_every) {
            let start = Instant::now();
            self.inner.run(program, input, ctx);
            self.local.scalar_stamped_ns += start.elapsed().as_nanos() as u64;
            self.local.scalar_stamped += 1;
        } else {
            self.inner.run(program, input, ctx);
        }
        if ctx.run_outcome() != RunOutcome::Done {
            self.local.aborted += 1;
        }
    }

    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.run_lanes(program, points, indices, out);
        self.local.lane_busy_ns += start.elapsed().as_nanos() as u64;
        let width = self.inner.lane_width().max(1);
        self.local.lane_calls += 1;
        self.local.lane_points += indices.len() as u64;
        self.local.lane_slots += (indices.len().div_ceil(width) * width) as u64;
        self.local.aborted += out[before..]
            .iter()
            .filter(|eval| eval.outcome != RunOutcome::Done)
            .count() as u64;
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(TracedBackend::new(
            self.inner.clone_box(),
            Arc::clone(&self.stats),
        ))
    }
}

/// An [`Objective`] adapter that times every call into the wrapped
/// objective and counts batch sizes.
#[derive(Debug)]
pub struct TimedObjective<'a, O> {
    inner: &'a mut O,
    /// Time spent inside the wrapped objective.
    pub busy: Duration,
    /// `eval_batch` calls.
    pub batches: u64,
    /// Points submitted through `eval_batch`.
    pub batch_points: u64,
    /// `eval_scalar` calls.
    pub scalars: u64,
}

impl<'a, O: Objective> TimedObjective<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut O) -> TimedObjective<'a, O> {
        TimedObjective {
            inner,
            busy: Duration::ZERO,
            batches: 0,
            batch_points: 0,
            scalars: 0,
        }
    }
}

impl<O: Objective> Objective for TimedObjective<'_, O> {
    fn eval_scalar(&mut self, x: &[f64]) -> f64 {
        let start = Instant::now();
        let value = self.inner.eval_scalar(x);
        self.busy += start.elapsed();
        self.scalars += 1;
        value
    }

    fn eval_batch(&mut self, points: &[Vec<f64>], values: &mut Vec<f64>) {
        let start = Instant::now();
        self.inner.eval_batch(points, values);
        self.busy += start.elapsed();
        self.batches += 1;
        self.batch_points += points.len() as u64;
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_repro::coverme::{Cmp, FnProgram, ObjectiveEngine};

    fn toy() -> FnProgram<fn(&[f64], &mut ExecCtx)> {
        fn body(input: &[f64], ctx: &mut ExecCtx) {
            if ctx.branch(0, Cmp::Le, input[0], 1.0) {}
        }
        FnProgram::new("toy", 1, 1, body as fn(&[f64], &mut ExecCtx))
    }

    #[test]
    fn wrapped_engine_matches_the_bare_engine_and_counts_its_work() {
        let points: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64 * 0.25 - 3.0]).collect();
        let mut bare = ObjectiveEngine::new(toy(), 1e-3);
        let mut bare_values = Vec::new();
        bare.eval_batch(&points, &mut bare_values);
        let bare_scalar = bare.eval_scalar(&[2.0]);

        let traced = Traced::new(toy());
        {
            let mut engine = ObjectiveEngine::new(&traced, 1e-3);
            let mut values = Vec::new();
            engine.eval_batch(&points, &mut values);
            assert_eq!(values, bare_values);
            assert_eq!(engine.eval_scalar(&[2.0]), bare_scalar);
        }
        let totals = traced.totals();
        assert_eq!(totals.scalar_calls, 1);
        assert_eq!(totals.lane_points, points.len() as u64);
        assert!(totals.lane_calls >= 1);
        assert!(totals.lane_slots >= totals.lane_points);
        // Native executions: every lane point plus the scalar run.
        assert_eq!(totals.native_calls, points.len() as u64 + 1);
        assert_eq!(totals.aborted, 0);
        assert!(totals.backend_requests >= 1);
    }

    #[test]
    fn spans_round_trip_to_json() {
        let tracer = Tracer::new();
        let ((), parent) = tracer.span("outer", None, || ());
        let start = Instant::now();
        tracer.record("inner", Some(parent), start, start);
        assert_eq!(tracer.len(), 2);
        let mut bytes = Vec::new();
        tracer.write_json(&mut bytes).expect("writes");
        let text = String::from_utf8(bytes).expect("utf-8");
        assert!(text.contains("\"name\": \"outer\""));
        assert!(text.contains(&format!("\"parent\": {parent}")));
    }

    #[test]
    fn timed_objective_forwards_values() {
        let mut engine = ObjectiveEngine::new(toy(), 1e-3);
        let expected = engine.eval_scalar(&[5.0]);
        let mut timed = TimedObjective::new(&mut engine);
        assert_eq!(timed.eval_scalar(&[5.0]), expected);
        let mut values = Vec::new();
        timed.eval_batch(&[vec![5.0], vec![0.0]], &mut values);
        assert_eq!(values[0], expected);
        assert_eq!(timed.scalars, 1);
        assert_eq!(timed.batches, 1);
        assert_eq!(timed.batch_points, 2);
    }
}
