//! The campaign workloads: `fdlibm-paper` and `fpir-generated`. Each
//! builds its inventory and prepares every function's search (timed as
//! set-up), then runs whole campaigns through `Campaign::run_with` until
//! the run's time is up, checking every result.
//!
//! A *job* here is one function's search. Every search inside a campaign
//! is cold (no corpus). After each campaign every complete result is
//! recorded into a scratch corpus store, as a campaign with a store does,
//! and the function is searched again from the store — a corpus read, then
//! a warm-started search — which is the warm job.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use coverme_repro::coverme::{
    BackendMode, BranchSet, Campaign, CampaignConfig, CampaignEvent, CampaignReport, CorpusStore,
    CoverMe, CoverMeConfig, ExecCtx, FunctionResult, FunctionStatus, ObjectiveEngine, Program,
    RoundOutcome, RunOutcome, SaturationTracker, SearchState, TestReport, ABORT_PATIENCE,
};
use coverme_repro::fpir::{check, instrument, lower, parse, IrProgram, ENTRY_NAME};
use coverme_repro::optim::BasinHopping;
use coverme_repro::runtime::{CoverageMap, ExecBackend};

use crate::host::HostClock;
use crate::metrics::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{ExecTotals, TimedObjective, Traced, Tracer};
use crate::Settings;

/// Fewest campaigns a run makes, however short its time: the run's seed
/// twice and two derived seeds.
const MIN_CAMPAIGNS: usize = 4;

/// Fuel of the generated FPIR modules (see `CATALOGUE.md`: at this fuel
/// the corpus classifies the same executions as at the default fuel).
pub const GENERATED_FUEL: usize = 2_000;

/// Generated FPIR modules per run.
const GENERATED_MODULES: u64 = 40;

/// Generator seed of the first generated module. The corpus is fixed, and
/// the run's seed drives the searches over it: which programs the
/// generator emits moves suite coverage far more (17–27% over five seeds)
/// than any change to the search could, and would drown it.
pub const GENERATED_BASE_SEED: u64 = 1_000;

/// Replays run on every this-many-th function of the inventory.
const REPLAY_STRIDE: usize = 5;

/// How the workload's campaigns are configured.
pub struct CampaignSpec {
    pub workers: usize,
    pub search: CoverMeConfig,
    /// Set-ups timed before the first campaign, and again after each one,
    /// so the set-up samples span the run as the campaigns do.
    pub setup_batch: usize,
}

impl CampaignSpec {
    fn campaign(&self, search: &CoverMeConfig) -> Campaign {
        Campaign::new(
            CampaignConfig::new()
                .with_base(search.clone())
                .with_workers(self.workers),
        )
    }
}

/// The search configuration shared by every workload: the paper's
/// defaults with the run's seed, `n_start` and SIMD override.
pub fn search_config(settings: &Settings, n_start: usize) -> CoverMeConfig {
    let mut config = CoverMeConfig::default()
        .with_seed(settings.seed)
        .with_n_start(n_start);
    if let Some(isa) = settings.simd {
        config = config.with_simd(isa);
    }
    config
}

/// `fdlibm-paper`: the 40 native ports under the paper's configuration
/// (`n_start` 500, `n_iter` 5, Powell, fixed scheduler, unsharded) on two
/// campaign workers. Its traced run also serves the suite through the
/// campaign daemon, for the serve, corpus and report-schema layers.
pub fn fdlibm_paper(settings: &Settings, tracer: &Tracer, outcome: &mut Outcome) {
    let functions = if settings.tiny { 3 } else { usize::MAX };
    let spec = CampaignSpec {
        workers: 2,
        search: search_config(settings, if settings.tiny { 20 } else { 500 }),
        setup_batch: 20,
    };
    run(settings, tracer, outcome, &spec, || {
        let inventory: Vec<_> = coverme_repro::fdlibm::all()
            .into_iter()
            .take(functions)
            .collect();
        prepare_searches(&spec.search, &inventory);
        inventory
    });
    if settings.trace {
        crate::serve_corpus::serve_layers(settings, tracer, outcome);
    }
}

/// One FPIR program's source and entry function.
pub struct FpirSource {
    pub entry: String,
    pub text: String,
}

/// `count` modules from the front end's seeded generator, at generator
/// seeds `seed .. seed + count`.
pub fn generated_sources(seed: u64, count: u64) -> Vec<FpirSource> {
    (0..count)
        .map(|i| FpirSource {
            entry: ENTRY_NAME.to_string(),
            text: coverme_repro::fpir::generate_source(seed.wrapping_add(i)),
        })
        .collect()
}

/// Per-phase front-end times of one compile of an inventory.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontEndTimes {
    pub parse: Duration,
    pub check: Duration,
    pub instrument: Duration,
}

/// parse → check → instrument → `IrProgram` at `fuel`, with each phase
/// timed. A source that does not compile is a bug in the workload.
pub fn compile(sources: &[FpirSource], fuel: usize) -> (Vec<IrProgram>, FrontEndTimes) {
    let mut times = FrontEndTimes::default();
    let programs = sources
        .iter()
        .map(|source| {
            let start = Instant::now();
            let module = parse(&source.text).expect("workload source parses");
            let parsed = Instant::now();
            let module = check(module).expect("workload source type-checks");
            let checked = Instant::now();
            let instrumented = instrument(module, &source.entry).expect("workload instruments");
            let program = IrProgram::new(instrumented).expect("workload entry takes inputs");
            let done = Instant::now();
            times.parse += parsed - start;
            times.check += checked - parsed;
            times.instrument += done - checked;
            program.with_fuel(fuel)
        })
        .collect();
    (programs, times)
}

/// `fpir-generated`: 40 generated modules compiled each run, fuel 2,000,
/// searched with `coverme campaign` defaults (`n_start` 80) on one worker.
/// The modules are fixed ([`GENERATED_BASE_SEED`]); the run's seed seeds
/// the campaign.
pub fn fpir_generated(settings: &Settings, tracer: &Tracer, outcome: &mut Outcome) {
    let count = if settings.tiny { 3 } else { GENERATED_MODULES };
    let sources = generated_sources(GENERATED_BASE_SEED, count);
    let spec = CampaignSpec {
        workers: 1,
        search: search_config(settings, if settings.tiny { 10 } else { 80 }),
        setup_batch: 2,
    };
    let mut front_end = Vec::new();
    let inventory = run(settings, tracer, outcome, &spec, || {
        let (programs, times) = compile(&sources, GENERATED_FUEL);
        front_end.push(times);
        prepare_searches(&spec.search, &programs);
        programs
    });
    if settings.trace {
        let ms = |phase: fn(&FrontEndTimes) -> Duration| -> Vec<f64> {
            front_end
                .iter()
                .map(|t| phase(t).as_secs_f64() * 1e3)
                .collect()
        };
        outcome.set_median("fpir.parse_ms", &ms(|t| t.parse));
        outcome.set_median("fpir.check_ms", &ms(|t| t.check));
        outcome.set_median("fpir.instrument_ms", &ms(|t| t.instrument));
        let (mut lower_s, mut blocks, mut soa) = (0.0, 0, 0);
        for program in &inventory {
            let start = Instant::now();
            if let Ok(tape) = lower(program) {
                lower_s += start.elapsed().as_secs_f64();
                blocks += tape.num_blocks();
                soa += tape.num_soa_blocks();
            }
        }
        outcome.set("fpir.lower_ms", lower_s * 1e3);
        outcome.set("fpir.tape_blocks", blocks as f64);
        outcome.set("fpir.soa_blocks", soa as f64);
    }
}

/// Each function's search set-up, as a campaign worker makes it before the
/// function's first round: the search state — its objective engine, with
/// the program's execution backend (for FPIR the lowered tape), and its
/// starting-point schedule.
fn prepare_searches<P: Program>(search: &CoverMeConfig, inventory: &[P]) {
    for program in inventory {
        std::hint::black_box(SearchState::new(search, program, 0));
    }
}

/// Makes a batch of set-ups, each timed into `samples`, and returns the
/// last one's inventory.
fn time_setups<P>(
    settings: &Settings,
    spec: &CampaignSpec,
    build: &mut impl FnMut() -> Vec<P>,
    samples: &mut Vec<f64>,
) -> Vec<P> {
    let batch = if settings.tiny { 1 } else { spec.setup_batch };
    let mut last = None;
    for _ in 0..batch {
        let start = Instant::now();
        last = Some(std::hint::black_box(build()));
        samples.push(start.elapsed().as_secs_f64());
    }
    last.expect("a set-up batch is not empty")
}

/// Builds the inventory with `build` (the timed set-up) and runs the
/// workload's campaigns over it; returns the inventory.
fn run<P: Program + Sync>(
    settings: &Settings,
    tracer: &Tracer,
    outcome: &mut Outcome,
    spec: &CampaignSpec,
    mut build: impl FnMut() -> Vec<P>,
) -> Vec<P> {
    let mut host = HostClock::new(spec.workers);
    host.calibrate(Duration::ZERO);
    let mut setup = Vec::new();
    let start = Instant::now();
    let inventory = time_setups(settings, spec, &mut build, &mut setup);
    host.calibrate(start.elapsed());
    if settings.trace {
        traced_run(settings, tracer, outcome, spec, &inventory);
    } else {
        let mut resetup = || {
            time_setups(settings, spec, &mut build, &mut setup);
        };
        measured_run(settings, outcome, &mut host, spec, &inventory, &mut resetup);
    }
    // Every end-to-end time is scaled to the reference host (see
    // `crate::host`); the metadata line keeps the measured ones.
    outcome.set_median("setup_s", &host.scale_all(&setup));
    outcome.note("measured.setup_s", Summary::of(&setup).to_json());
    outcome.note("host_factor", host.factor().to_string());
    outcome.note("host_kernel_s", host.summary().to_json());
    inventory
}

/// A program wrapper for the untraced campaigns: forwards every
/// [`Program`] method and notes when a search first asks for the program's
/// backend, which its objective engine does as the search state is built —
/// the start of the function's job on the benchmark's own clock.
struct Clocked<'a, P> {
    inner: &'a P,
    started: OnceLock<Instant>,
}

impl<'a, P> Clocked<'a, P> {
    fn new(inner: &'a P) -> Clocked<'a, P> {
        Clocked {
            inner,
            started: OnceLock::new(),
        }
    }
}

impl<P: Program> Program for Clocked<'_, P> {
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
        self.inner.execute(input, ctx);
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }

    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        self.started.get_or_init(Instant::now);
        self.inner.backend(mode)
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

/// A corpus store in a directory of its own under the benchmark's output
/// directory, removed when dropped.
struct ScratchCorpus {
    dir: PathBuf,
    store: CorpusStore,
}

impl ScratchCorpus {
    fn open(settings: &Settings) -> ScratchCorpus {
        let dir = crate::scratch_dir(settings, "warm-corpus");
        let store = CorpusStore::open(&dir)
            .unwrap_or_else(|error| panic!("cannot open {}: {error}", dir.display()));
        ScratchCorpus { dir, store }
    }
}

impl Drop for ScratchCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The untraced run: campaigns and warm jobs until the time is up. The
/// first two campaigns search with the same seed (the repetition check);
/// every later one with a seed of its own, so no single seed's luck
/// decides the run's timings. Coverage and completion are read from the
/// first [`MIN_CAMPAIGNS`] campaigns, whatever the machine's speed.
fn measured_run<P: Program + Sync>(
    settings: &Settings,
    outcome: &mut Outcome,
    host: &mut HostClock,
    spec: &CampaignSpec,
    inventory: &[P],
    resetup: &mut dyn FnMut(),
) {
    let corpus = ScratchCorpus::open(settings);
    let fingerprints: Vec<u64> = inventory.iter().map(Program::fingerprint).collect();
    let deadline = Instant::now() + settings.duration();
    let mut first: Option<Vec<BranchSet>> = None;
    let mut walls = Vec::new();
    // Job latencies.
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    // Peak resident memory of each campaign with its warm jobs.
    let mut peaks = Vec::new();
    let mut coverage = Vec::new();
    let (mut core_searches, mut core_incomplete) = (0u64, 0u64);
    while walls.len() < MIN_CAMPAIGNS || Instant::now() < deadline {
        let iteration = walls.len();
        let iteration_start = Instant::now();
        crate::reset_peak_rss();
        let search = spec
            .search
            .clone()
            .with_seed(crate::iteration_seed(settings.seed, iteration));
        let clocked: Vec<Clocked<P>> = inventory.iter().map(Clocked::new).collect();
        let mut finished = vec![None; inventory.len()];
        let start = Instant::now();
        let report = spec.campaign(&search).run_with(&clocked, |event| {
            let CampaignEvent::FunctionFinished { index, .. } = event;
            finished[*index] = Some(Instant::now());
        });
        walls.push(start.elapsed().as_secs_f64());
        let expected = (iteration == 1).then_some(first.as_deref()).flatten();
        let (incomplete, covered) = check_campaign(outcome, inventory, &report, expected);
        outcome.attempted += report.results.len() as u64;
        if iteration < MIN_CAMPAIGNS {
            core_searches += report.results.len() as u64;
            core_incomplete += incomplete;
            if iteration != 1 {
                coverage.push(report.suite_branch_coverage_percent());
            }
        }
        if iteration == 0 {
            note_totals(outcome, &report);
            first = Some(covered);
        }
        for (index, result) in report.results.iter().enumerate() {
            let Some(cold_report) = &result.report else {
                continue;
            };
            if let (Some(started), Some(ended)) = (clocked[index].started.get(), finished[index]) {
                cold.push((ended - *started).as_secs_f64() * 1e3);
            }
            if result.status != FunctionStatus::Complete {
                // A campaign records only complete results in its corpus.
                continue;
            }
            let Some((warm_report, latency_ms)) = warm_job(
                &inventory[index],
                fingerprints[index],
                &corpus.store,
                cold_report,
                &search,
            ) else {
                continue;
            };
            warm.push(latency_ms);
            outcome.attempted += 1;
            let warm_covered = warm_report.coverage.covered();
            if !cold_report
                .coverage
                .covered()
                .iter()
                .all(|branch| warm_covered.contains(branch))
            {
                outcome.error(format!(
                    "{}: warm job lost coverage of the cold search",
                    result.name
                ));
            }
        }
        peaks.push(crate::peak_rss_mb());
        resetup();
        host.calibrate(iteration_start.elapsed());
    }
    outcome.set(
        "branch_coverage_pct",
        coverage.iter().sum::<f64>() / coverage.len() as f64,
    );
    outcome.set(
        "complete_frac",
        1.0 - core_incomplete as f64 / core_searches as f64,
    );
    // The mean, not the median: on fpir-generated a campaign's wall is
    // bimodal (the host's speed comes in phases of several seconds), and
    // the median of a dozen campaigns jumps between the modes.
    outcome.set_mean("wall_s", &host.scale_all(&walls));
    outcome.note("measured.wall_s", Summary::of(&walls).to_json());
    // A peak over the whole run would be the most extreme of as many
    // campaigns as the time allows. Per campaign the peak is bimodal on
    // fdlibm-paper (how the two workers' allocations land in the
    // allocator's arenas), hence the mean.
    outcome.set_mean("peak_rss_mb", &peaks);
    outcome.set_percentile("cold_job_ms_p50", &host.scale_all(&cold), 50.0);
    outcome.set_percentile("warm_job_ms_p50", &host.scale_all(&warm), 50.0);
    outcome.set_percentile("warm_job_ms_p90", &host.scale_all(&warm), 90.0);
    outcome.note("campaigns", walls.len().to_string());
}

/// Records `cold` into `store` (untimed: a campaign with a store makes
/// this write as the cold job ends), then runs the warm job: the store's
/// warm start for the program — the recorded inputs and verdicts, and the
/// schedule credit when the corpus policy grants it — and a search from
/// it. Returns the warm search and the job's latency in milliseconds;
/// `None` when the store holds no warm start (the cold search left no
/// inputs and no verdicts).
fn warm_job<P: Program>(
    program: &P,
    fingerprint: u64,
    store: &CorpusStore,
    cold: &TestReport,
    search: &CoverMeConfig,
) -> Option<(TestReport, f64)> {
    store
        .record_report(fingerprint, search, cold)
        .unwrap_or_else(|error| panic!("scratch corpus write failed: {error}"));
    let start = Instant::now();
    let warm = store.warm_start_for(
        fingerprint,
        program.arity(),
        program.num_sites(),
        search.search_key(),
    )?;
    let report = CoverMe::new(search.clone().with_warm_start(warm)).run(program);
    Some((report, start.elapsed().as_secs_f64() * 1e3))
}

/// The correctness oracle for one campaign: every function completes (or
/// [`degraded`]); every function's reported inputs, replayed on the
/// program's own executor (`Program::execute`: native code for fdlibm, the
/// tree-walking interpreter for FPIR, independent of the tape that found
/// them), cover exactly the reported branches; and, when `expected` holds
/// an earlier campaign with the same seed, the coverage repeats it.
/// Returns the number of functions that did not complete and the covered
/// branches per function.
fn check_campaign<P: Program>(
    outcome: &mut Outcome,
    inventory: &[P],
    report: &CampaignReport,
    expected: Option<&[BranchSet]>,
) -> (u64, Vec<BranchSet>) {
    let mut incomplete = 0;
    let mut covered = Vec::with_capacity(report.results.len());
    for (index, (result, program)) in report.results.iter().zip(inventory).enumerate() {
        if result.status != FunctionStatus::Complete {
            incomplete += 1;
            if !degraded(result) {
                outcome.failed += 1;
            }
        }
        let Some(search) = &result.report else {
            covered.push(BranchSet::new());
            continue;
        };
        let replayed = replay_inputs(program, &search.inputs);
        if &replayed != search.coverage.covered() {
            outcome.error(format!(
                "{}: replaying the {} reported inputs covers {} branches, the report says {}",
                result.name,
                search.inputs.len(),
                replayed.len(),
                search.coverage.covered_count()
            ));
        }
        if expected.is_some_and(|expected| expected[index] != replayed) {
            outcome.error(format!(
                "{}: coverage differs between two campaigns with the same seed",
                result.name
            ));
        }
        covered.push(replayed);
    }
    (incomplete, covered)
}

/// Whether a search that did not complete gave up on a program that
/// keeps aborting (its last [`ABORT_PATIENCE`] rounds all aborted) — the
/// expected end of a non-terminating program's search, not a failure of
/// the run. The campaign reports such a search as partial.
fn degraded(result: &FunctionResult) -> bool {
    result.report.as_ref().is_some_and(|report| {
        report.rounds.len() >= ABORT_PATIENCE
            && report.rounds[report.rounds.len() - ABORT_PATIENCE..]
                .iter()
                .all(|round| round.outcome == RoundOutcome::Aborted)
    })
}

/// The union of the branches `inputs` cover when executed under an
/// observing context.
pub fn replay_inputs<P: Program + ?Sized>(program: &P, inputs: &[Vec<f64>]) -> BranchSet {
    let mut coverage = CoverageMap::new(program.num_sites());
    for input in inputs {
        let mut ctx = ExecCtx::observe();
        program.execute(input, &mut ctx);
        if ctx.run_outcome() == RunOutcome::Done {
            coverage.record(&ctx);
        }
    }
    coverage.covered().clone()
}

/// Records the suite's execution totals in the metadata line (the fuel
/// equivalence check compares them across fuels).
fn note_totals(outcome: &mut Outcome, report: &CampaignReport) {
    outcome.note("timeouts", report.total_timeouts().to_string());
    outcome.note("traps", report.total_traps().to_string());
    let covered: usize = report
        .results
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.coverage.covered_count())
        .sum();
    outcome.note("covered_branches", covered.to_string());
}

/// The traced run: pairs of an untraced and a traced campaign with the
/// same seed, in alternating order, so their difference is the tracing
/// overhead and their coverage must agree; then a replay that splits the
/// minimizer from the objective engine.
fn traced_run<P: Program + Sync>(
    settings: &Settings,
    tracer: &Tracer,
    outcome: &mut Outcome,
    spec: &CampaignSpec,
    inventory: &[P],
) {
    let deadline = Instant::now() + settings.duration();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first_report = None;
    while traced.len() < 2 || Instant::now() < deadline {
        let pair = traced.len();
        let search = spec
            .search
            .clone()
            .with_seed(crate::iteration_seed(settings.seed, pair + 1));
        let campaign = spec.campaign(&search);
        let mut expected: Option<Vec<BranchSet>> = None;
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            if traced_turn {
                let wrapped: Vec<Traced<&P>> = inventory.iter().map(Traced::new).collect();
                let start = Instant::now();
                let mut finished = Vec::new();
                let report = campaign.run_with(&wrapped, |event| {
                    let CampaignEvent::FunctionFinished { index, .. } = event;
                    finished.push((*index, Instant::now()));
                });
                let end = Instant::now();
                traced.push((end - start).as_secs_f64());
                let (_, covered) = check_campaign(outcome, inventory, &report, expected.as_deref());
                expected.get_or_insert(covered);
                let totals = wrapped.iter().fold(ExecTotals::default(), |mut sum, p| {
                    sum.add(&p.totals());
                    sum
                });
                samples.push(layer_sample(
                    tracer, &report, &totals, spec, start, end, &finished,
                ));
                outcome.attempted += report.results.len() as u64;
            } else {
                let start = Instant::now();
                let report = campaign.run_with(inventory, |_| {});
                untraced.push(start.elapsed().as_secs_f64());
                let (_, covered) = check_campaign(outcome, inventory, &report, expected.as_deref());
                expected.get_or_insert(covered);
                outcome.attempted += report.results.len() as u64;
                first_report.get_or_insert((report, search.clone()));
            }
        }
    }
    for (i, (name, _)) in samples[0].iter().enumerate() {
        let values: Vec<f64> = samples.iter().map(|sample| sample[i].1).collect();
        outcome.set_median(name, &values);
    }
    outcome.set("trace.overhead_s", median(&traced) - median(&untraced));
    outcome.note("untraced_wall_s", Summary::of(&untraced).to_json());
    outcome.note("traced_wall_s", Summary::of(&traced).to_json());
    if let Some((report, search)) = &first_report {
        replay(tracer, outcome, search, inventory, report);
    }
}

/// Layer values of one traced campaign, plus its campaign and function
/// spans.
fn layer_sample(
    tracer: &Tracer,
    report: &CampaignReport,
    totals: &ExecTotals,
    spec: &CampaignSpec,
    start: Instant,
    end: Instant,
    finished: &[(usize, Instant)],
) -> Vec<(&'static str, f64)> {
    let campaign_span = tracer.record("campaign", None, start, end);
    let wall = (end - start).as_secs_f64();
    let mut search_s = 0.0;
    for &(index, at) in finished {
        if let Some(search) = &report.results[index].report {
            search_s += search.wall_time.as_secs_f64();
            let name = format!("search:{}", report.results[index].name);
            tracer.record(&name, Some(campaign_span), at - search.wall_time, at);
        }
    }
    let mut completions: Vec<f64> = finished
        .iter()
        .map(|(_, at)| (*at - start).as_secs_f64())
        .collect();
    completions.sort_by(f64::total_cmp);
    // The first worker goes idle for good at the completion that leaves
    // fewer running searches than workers.
    let tail = completions
        .len()
        .checked_sub(spec.workers)
        .map_or(0.0, |i| wall - completions[i]);
    let rounds: Vec<&coverme_repro::coverme::RoundRecord> = report
        .results
        .iter()
        .filter_map(|r| r.report.as_ref())
        .flat_map(|r| &r.rounds)
        .collect();
    let aborted_rounds = rounds
        .iter()
        .filter(|r| r.outcome == RoundOutcome::Aborted)
        .count();
    let busy = totals.scalar_busy_s + totals.lane_busy_s;
    let lane_fill = if totals.lane_slots == 0 {
        0.0
    } else {
        totals.lane_points as f64 / totals.lane_slots as f64
    };
    vec![
        ("exec.native_calls", totals.native_calls as f64),
        ("exec.scalar_calls", totals.scalar_calls as f64),
        ("exec.scalar_busy_s", totals.scalar_busy_s),
        ("exec.lane_calls", totals.lane_calls as f64),
        ("exec.lane_points", totals.lane_points as f64),
        ("exec.lane_busy_s", totals.lane_busy_s),
        ("exec.lane_fill", lane_fill),
        ("exec.aborted", totals.aborted as f64),
        (
            "ledger.execs_per_eval",
            totals.executions() as f64 / report.total_evaluations().max(1) as f64,
        ),
        ("fpir.lower_calls", {
            // Native programs have no tape to lower.
            if report
                .results
                .iter()
                .any(|r| r.report.as_ref().is_some_and(|t| t.backend == "tape"))
            {
                (totals.backend_requests + totals.fingerprints) as f64
            } else {
                0.0
            }
        }),
        ("driver.rounds", rounds.len() as f64),
        ("driver.aborted_rounds", aborted_rounds as f64),
        ("driver.search_self_s", search_s - busy),
        ("campaign.search_s", search_s),
        (
            "campaign.worker_idle_frac",
            1.0 - search_s / (spec.workers as f64 * wall),
        ),
        ("campaign.tail_s", tail),
    ]
}

/// Replays the rounds of every [`REPLAY_STRIDE`]-th function of `report`
/// through the public objective engine and Basinhopping, with the engine
/// behind a timing adapter: the only way to split minimizer time from
/// engine time from outside a campaign. Each round starts where the
/// campaign's round started and against the same saturation snapshot (the
/// snapshot advances by the campaign's recorded round outcomes).
fn replay<P: Program>(
    tracer: &Tracer,
    outcome: &mut Outcome,
    config: &CoverMeConfig,
    inventory: &[P],
    report: &CampaignReport,
) {
    let (mut minimize_s, mut busy_s) = (0.0, 0.0);
    let (mut batches, mut batch_points) = (0u64, 0u64);
    let (mut calls, mut hits) = (0u64, 0u64);
    let replay_start = Instant::now();
    for (program, result) in inventory.iter().zip(&report.results).step_by(REPLAY_STRIDE) {
        let Some(search) = &result.report else {
            continue;
        };
        let start = Instant::now();
        let mut engine = ObjectiveEngine::new(program, config.epsilon)
            .cache_mode(config.cache)
            .backend_mode(config.backend);
        if let Some(isa) = config.simd {
            engine = engine.simd(isa);
        }
        let mut tracker = SaturationTracker::new(program.num_sites());
        for record in &search.rounds {
            engine.retarget(&tracker.saturated_set());
            let hopper = BasinHopping::new()
                .iterations(config.n_iter)
                .local_method(config.local_method)
                .perturbation(config.perturbation)
                .temperature(1.0)
                .seed(
                    config
                        .seed
                        .wrapping_add(record.round as u64)
                        .wrapping_mul(0x9E37_79B9),
                )
                .target_value(config.zero_threshold);
            let mut timed = TimedObjective::new(&mut engine);
            let round_start = Instant::now();
            hopper.minimize_objective(&mut timed, &record.start);
            minimize_s += round_start.elapsed().as_secs_f64();
            busy_s += timed.busy.as_secs_f64();
            batches += timed.batches;
            batch_points += timed.batch_points;
            match record.outcome {
                RoundOutcome::NewInput | RoundOutcome::RedundantInput => {
                    let evaluation = engine.eval_full(&record.minimum);
                    tracker.record_trace(&evaluation.trace);
                }
                RoundOutcome::DeemedInfeasible(branch) => tracker.mark_infeasible(branch),
                RoundOutcome::DeemedInfeasiblePath(..) => {
                    let evaluation = engine.eval_full(&record.minimum);
                    tracker.blame_uncovered_path(&evaluation.trace);
                }
                RoundOutcome::Aborted | RoundOutcome::NoProgress => {}
            }
        }
        let telemetry = engine.telemetry();
        calls += telemetry.calls;
        hits += telemetry.cache_hits;
        let name = format!("replay:{}", result.name);
        tracer.record(&name, None, start, Instant::now());
    }
    outcome.note("replay_s", replay_start.elapsed().as_secs_f64().to_string());
    outcome.set("objective.busy_s", busy_s);
    outcome.set("optim.self_s", minimize_s - busy_s);
    outcome.set(
        "objective.batch_mean",
        if batches == 0 {
            0.0
        } else {
            batch_points as f64 / batches as f64
        },
    );
    outcome.set(
        "objective.cache_hit_frac",
        if calls == 0 {
            0.0
        } else {
            hits as f64 / calls as f64
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sources_follow_the_seed() {
        let a = generated_sources(7, 3);
        let b = generated_sources(7, 3);
        let c = generated_sources(8, 3);
        let texts = |s: &[FpirSource]| s.iter().map(|s| s.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b), "same seed, same sources");
        assert_ne!(texts(&a), texts(&c), "another seed, other sources");
        // Seeds overlap by design: module i of seed s is module i-1 of s+1.
        assert_eq!(a[1].text, c[0].text);
    }

    #[test]
    fn generated_sources_compile_and_lower() {
        let sources = generated_sources(GENERATED_BASE_SEED, 4);
        let (programs, _) = compile(&sources, GENERATED_FUEL);
        assert_eq!(programs.len(), sources.len());
        assert!(programs.iter().all(|p| lower(p).is_ok()));
    }
}
