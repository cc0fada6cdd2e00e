//! The paper's experiments: one runner per table and figure.
//!
//! All experiments hang off a [`Study`], which caches application runs so
//! that e.g. Figure 3 and Table II (which analyse the same binaries) pay
//! for each simulation once.
//!
//! ## Metrics
//!
//! The paper reports IPC improvements; its binaries keep nearly identical
//! instruction counts across variants, so IPC improvement and speedup
//! coincide there. Our compiled variants shrink the instruction stream
//! when branches are deleted, so raw IPC understates the benefit. Where an
//! experiment compares *different binaries* we therefore report
//! **work-normalized IPC**: `baseline_instructions / cycles`, which equals
//! plain IPC for the baseline binary and speedup × baseline-IPC otherwise.
//! Plain IPC is also retained in every result for reference.

use crate::apps::{App, AppRun, RunError, Scale, Variant, Workload};
use crate::report::{frac, pct, Direction, Report, Table};
use crate::telemetry::{JobSpan, TelemetryHub};
use power5_sim::config::BtacConfig;
use power5_sim::counters::IntervalSample;
use power5_sim::CoreConfig;
use power5_sim::Watchdog;
use power5_sim::{Checkpoint, LockstepMode, XorShift64};
use std::collections::HashMap;
use std::time::Instant;

/// Attempts the suite supervisor makes per simulation before
/// quarantining the experiment into a degraded report.
const MAX_ATTEMPTS: u32 = 3;

/// Deterministic per-job seed for the supervisor's backoff generator, so
/// the serial and parallel paths retry with identical widened budgets.
fn job_seed(study_seed: u64, app: App, variant: Variant, hw: Hw) -> u64 {
    let mut h = study_seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in format!("{app:?}/{variant:?}/{hw:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Human-readable job label for telemetry events and per-job spans.
/// Matches the `job_seed` identity (plus the sampling interval for
/// Figure-2 style runs, which are cached — and supervised — separately).
fn job_label(app: App, variant: Variant, hw: Hw, interval: Option<u64>) -> String {
    match interval {
        Some(i) => format!("{app:?}/{variant:?}/{hw:?}@{i}"),
        None => format!("{app:?}/{variant:?}/{hw:?}"),
    }
}

/// Seeded deterministic backoff: the resource that ran out is the budget,
/// not wall-clock time, so "backing off" means widening each budget by
/// 50% plus a seeded jitter of up to 25% before the next attempt.
fn widen_watchdog(w: Watchdog, rng: &mut XorShift64) -> Watchdog {
    let mut widen = |b: Option<u64>| b.map(|v| v + v / 2 + rng.below(v / 4 + 1));
    Watchdog { max_cycles: widen(w.max_cycles), max_instructions: widen(w.max_instructions) }
}

/// One supervised simulation: run, and on a retryable failure (trap,
/// watchdog timeout, lockstep divergence) retry up to [`MAX_ATTEMPTS`]
/// times. A timed-out plain run resumes from the checkpoint carried by
/// [`RunError::Timeout`] under a widened budget instead of restarting;
/// interval-sampling and lockstep runs restart from scratch (a resumed
/// machine would lose its sample series / checking window). Everything
/// here is deterministic, so the serial path and the parallel prefetch
/// workers converge on identical results and identical final errors.
#[allow(clippy::too_many_arguments)]
fn supervised_run(
    workload: &Workload,
    variant: Variant,
    config: &CoreConfig,
    interval: Option<u64>,
    watchdog: Option<Watchdog>,
    lockstep: LockstepMode,
    seed: u64,
    telemetry: Option<&TelemetryHub>,
    job: &str,
) -> Result<AppRun, RunError> {
    let wall_started = Instant::now();
    if let Some(hub) = telemetry {
        hub.job_started(job);
    }
    let profiler = telemetry.and_then(TelemetryHub::profiler_period);
    let mut rng = XorShift64::new(seed);
    let mut budget = watchdog;
    let mut resume: Option<Box<Checkpoint>> = None;
    let mut last_err: Option<RunError> = None;
    let mut attempts = 0u32;
    for _attempt in 0..MAX_ATTEMPTS {
        attempts += 1;
        let can_resume = interval.is_none() && lockstep == LockstepMode::Off;
        let result = match (&resume, budget) {
            (Some(ck), Some(w)) if can_resume => {
                if let Some(hub) = telemetry {
                    hub.job_resumed(job, attempts);
                }
                workload.resume_instrumented(variant, config, ck, w, profiler)
            }
            _ => workload
                .run_full_instrumented(variant, config, interval, budget, lockstep, profiler),
        };
        match result {
            Ok(run) => {
                if let Some(hub) = telemetry {
                    hub.job_retired(
                        JobSpan {
                            job: job.to_string(),
                            wall_ms: wall_started.elapsed().as_secs_f64() * 1e3,
                            instructions: run.counters.instructions,
                            attempts,
                            phases: run.phases,
                            retired: run.retired,
                            observer: (lockstep != LockstepMode::Off).then_some("lockstep"),
                        },
                        run.guest_profile.as_deref(),
                    );
                }
                return Ok(run);
            }
            Err(err) => {
                match &err {
                    RunError::Timeout { checkpoint, .. } => {
                        resume = Some(checkpoint.clone());
                        budget = budget.map(|w| widen_watchdog(w, &mut rng));
                    }
                    RunError::Trap(_) | RunError::Divergence { .. } => {
                        resume = None;
                    }
                    // Build, layout, budget, and validation failures are
                    // deterministic dead ends — no point retrying.
                    _ => {
                        if let Some(hub) = telemetry {
                            hub.job_quarantined(job, err.class());
                        }
                        return Err(err);
                    }
                }
                if let Some(hub) = telemetry {
                    hub.job_retried(job, attempts, err.class());
                }
                last_err = Some(err);
            }
        }
    }
    let err = last_err.expect("supervisor made at least one attempt");
    if let Some(hub) = telemetry {
        hub.job_quarantined(job, err.class());
    }
    Err(err)
}

/// Hardware configurations the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hw {
    /// Stock POWER5 (2 FXUs, no BTAC).
    Stock,
    /// Stock plus the 8-entry BTAC.
    Btac,
    /// Stock with `n` FXUs.
    Fxus(usize),
    /// BTAC plus `n` FXUs (the paper's fully enhanced core).
    BtacFxus(usize),
}

impl Hw {
    /// Materialize the configuration.
    pub fn config(self) -> CoreConfig {
        match self {
            Hw::Stock => CoreConfig::power5(),
            Hw::Btac => CoreConfig::power5().with_btac(BtacConfig::default()),
            Hw::Fxus(n) => CoreConfig::power5().with_fxus(n),
            Hw::BtacFxus(n) => CoreConfig::power5().with_btac(BtacConfig::default()).with_fxus(n),
        }
    }

    /// Machine-readable slug, used in campaign content addresses and
    /// metric names. Round-trips through [`Hw::from_slug`].
    pub fn slug(self) -> String {
        match self {
            Hw::Stock => "stock".to_string(),
            Hw::Btac => "btac".to_string(),
            Hw::Fxus(n) => format!("fxus{n}"),
            Hw::BtacFxus(n) => format!("btac-fxus{n}"),
        }
    }

    /// Parse a [`Hw::slug`] back; `None` for anything else.
    pub fn from_slug(s: &str) -> Option<Hw> {
        match s {
            "stock" => Some(Hw::Stock),
            "btac" => Some(Hw::Btac),
            _ => {
                if let Some(n) = s.strip_prefix("btac-fxus") {
                    n.parse().ok().map(Hw::BtacFxus)
                } else if let Some(n) = s.strip_prefix("fxus") {
                    n.parse().ok().map(Hw::Fxus)
                } else {
                    None
                }
            }
        }
    }
}

/// One unit of simulation work the parallel runner can fan out: a plain
/// cached run, or the Figure-2 interval-sampling run (cached separately
/// because its counters carry the interval series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    Plain(App, Variant, Hw),
    Interval(App, Variant, Hw, u64),
}

/// A study: workload set plus a cache of completed runs.
pub struct Study {
    scale: Scale,
    seed: u64,
    workloads: Vec<Workload>,
    cache: HashMap<(App, Variant, Hw), AppRun>,
    interval_cache: HashMap<(App, Variant, Hw, u64), AppRun>,
    watchdog: Option<Watchdog>,
    lockstep: LockstepMode,
    threads_override: Option<usize>,
    lanes_override: Option<usize>,
    telemetry: Option<TelemetryHub>,
}

impl Study {
    /// Prepare workloads for all four applications.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let workloads = App::all().into_iter().map(|app| Workload::new(app, scale, seed)).collect();
        Study {
            scale,
            seed,
            workloads,
            cache: HashMap::new(),
            interval_cache: HashMap::new(),
            watchdog: None,
            lockstep: LockstepMode::Off,
            threads_override: None,
            lanes_override: None,
            telemetry: None,
        }
    }

    /// Attach a telemetry hub: every supervised simulation from now on
    /// emits lifecycle events, host phase spans, and (when the hub's
    /// profiler period is non-zero) a guest sampling profile. Detach
    /// with [`Study::take_telemetry`] to harvest the snapshot.
    /// Simulation *results* are unaffected — reports built with
    /// telemetry attached are byte-identical to reports built without.
    pub fn set_telemetry(&mut self, hub: TelemetryHub) {
        self.telemetry = Some(hub);
    }

    /// Detach the telemetry hub (if any) so the caller can
    /// [`TelemetryHub::finish`] it into a snapshot.
    pub fn take_telemetry(&mut self) -> Option<TelemetryHub> {
        self.telemetry.take()
    }

    /// Pin the worker-thread count for this study, overriding the
    /// `BIOARCH_THREADS` environment variable. `1` forces the serial
    /// path; results are byte-identical either way.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads_override = Some(threads.max(1));
    }

    /// Worker threads the experiment runners fan simulations across: the
    /// [`Study::set_threads`] override, else `BIOARCH_THREADS`, else the
    /// host's available parallelism.
    pub fn threads(&self) -> usize {
        if let Some(n) = self.threads_override {
            return n;
        }
        if let Some(n) =
            std::env::var("BIOARCH_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Pin the lane-batch width for the parallel prefetcher, overriding
    /// the `BIOARCH_LANES` environment variable. Above 1, each worker
    /// thread claims a contiguous chunk of up to this many *compatible*
    /// jobs (grouped by application, so consecutive claims share one
    /// code image and workload) per dispatch instead of one job at a
    /// time. Results are merged in fixed job order either way, so
    /// reports are byte-identical for every width.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes_override = Some(lanes.max(1));
    }

    /// Lane-batch width the parallel prefetcher claims per dispatch:
    /// the [`Study::set_lanes`] override, else `BIOARCH_LANES`, else 1
    /// (per-job claiming, the historical behavior).
    pub fn lanes(&self) -> usize {
        if let Some(n) = self.lanes_override {
            return n;
        }
        std::env::var("BIOARCH_LANES")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map_or(1, |n| n.max(1))
    }

    /// Install cycle/instruction budgets for every run in the study.
    ///
    /// A kernel that exceeds a budget returns [`RunError::Timeout`] with
    /// its partial counters instead of running forever; under
    /// [`Study::run_suite`] that experiment's report comes back marked
    /// `degraded` while the rest of the suite completes.
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// Enable golden-model lockstep checking for every run in the study.
    /// A divergence fails the experiment with
    /// [`RunError::Divergence`]; under [`Study::run_suite`] the
    /// supervisor retries and then quarantines it as a degraded report
    /// with `failure_class: "divergence"`.
    pub fn set_lockstep(&mut self, mode: LockstepMode) {
        self.lockstep = mode;
    }

    /// The study's input scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The study's workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total target instructions retired across every cached run so far —
    /// divide by wall-clock for an honest host-MIPS figure.
    pub fn simulated_instructions(&self) -> u64 {
        self.cache
            .values()
            .chain(self.interval_cache.values())
            .map(|r| r.counters.instructions)
            .sum()
    }

    fn workload(&self, app: App) -> &Workload {
        self.workloads.iter().find(|w| w.app() == app).expect("all apps present")
    }

    /// Run (or fetch from cache) one `(app, variant, hw)` combination.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`]; also fails if the simulated outputs did
    /// not validate against the golden models (an experiment must never
    /// report numbers from an incorrect simulation).
    pub fn run(&mut self, app: App, variant: Variant, hw: Hw) -> Result<AppRun, RunError> {
        if let Some(r) = self.cache.get(&(app, variant, hw)) {
            return Ok(r.clone());
        }
        let label = job_label(app, variant, hw, None);
        let run = supervised_run(
            self.workload(app),
            variant,
            &hw.config(),
            None,
            self.watchdog,
            self.lockstep,
            job_seed(self.seed, app, variant, hw),
            self.telemetry.as_ref(),
            &label,
        )?;
        if !run.validated {
            return Err(RunError::Validation {
                what: format!(
                    "{app} {variant} on {hw:?} produced wrong results: {:?}",
                    run.mismatches
                ),
            });
        }
        let merge_started = Instant::now();
        self.cache.insert((app, variant, hw), run.clone());
        if let Some(hub) = &self.telemetry {
            hub.phase_merge(&label, merge_started.elapsed().as_nanos() as u64);
        }
        Ok(run)
    }

    /// Run (or fetch from the interval cache) the Figure-2 style run of
    /// one combination with interval sampling enabled.
    fn run_interval(
        &mut self,
        app: App,
        variant: Variant,
        hw: Hw,
        interval: u64,
    ) -> Result<AppRun, RunError> {
        if let Some(r) = self.interval_cache.get(&(app, variant, hw, interval)) {
            return Ok(r.clone());
        }
        let label = job_label(app, variant, hw, Some(interval));
        let run = supervised_run(
            self.workload(app),
            variant,
            &hw.config(),
            Some(interval),
            self.watchdog,
            self.lockstep,
            job_seed(self.seed, app, variant, hw),
            self.telemetry.as_ref(),
            &label,
        )?;
        if !run.validated {
            return Err(RunError::Validation {
                what: format!("Fig.2 Clustalw run mismatched: {:?}", run.mismatches),
            });
        }
        let merge_started = Instant::now();
        self.interval_cache.insert((app, variant, hw, interval), run.clone());
        if let Some(hub) = &self.telemetry {
            hub.phase_merge(&label, merge_started.elapsed().as_nanos() as u64);
        }
        Ok(run)
    }

    /// Simulate the not-yet-cached jobs of `jobs` across the study's
    /// worker threads and merge the results into the run caches.
    ///
    /// Determinism: every job is an independent, deterministic
    /// simulation, and the merge order is the (fixed) job order, so the
    /// caches end up exactly as serial execution would leave them —
    /// reports built from them are byte-identical regardless of thread
    /// count. Only validated successes are cached; a failing job is left
    /// uncached so the experiment that needs it reproduces the identical
    /// error (message and all) on its own serial path.
    fn prefetch(&mut self, jobs: &[Job]) {
        let mut todo: Vec<Job> = Vec::new();
        for &job in jobs {
            let missing = match job {
                Job::Plain(a, v, h) => !self.cache.contains_key(&(a, v, h)),
                Job::Interval(a, v, h, i) => !self.interval_cache.contains_key(&(a, v, h, i)),
            };
            if missing && !todo.contains(&job) {
                todo.push(job);
            }
        }
        let threads = self.threads().min(todo.len());
        if threads <= 1 {
            return; // serial path: experiments run on demand, as always
        }
        let watchdog = self.watchdog;
        let lockstep = self.lockstep;
        let seed = self.seed;
        let telemetry = self.telemetry.as_ref();
        let workloads = &self.workloads;
        let worker_of =
            |app: App| workloads.iter().find(|w| w.app() == app).expect("all apps present");
        // Lane batching (DESIGN §18): with a lane width above 1, workers
        // claim contiguous chunks of a claim order grouped by
        // application, so each dispatch retires a batch of compatible
        // jobs sharing one code image and workload. Results still land
        // in per-job slots indexed by the original `todo` order, so the
        // merge below is untouched and reports stay byte-identical.
        let lanes = self.lanes().max(1);
        let mut order: Vec<usize> = (0..todo.len()).collect();
        if lanes > 1 {
            order.sort_by_key(|&i| match todo[i] {
                Job::Plain(a, ..) | Job::Interval(a, ..) => a as u8,
            });
        }
        let order = &order;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: std::sync::Mutex<Vec<Option<AppRun>>> =
            std::sync::Mutex::new(vec![None; todo.len()]);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let base = next.fetch_add(lanes, std::sync::atomic::Ordering::Relaxed);
                    if base >= order.len() {
                        break;
                    }
                    for &i in &order[base..(base + lanes).min(order.len())] {
                        let job = todo[i];
                        // The same supervised path as the serial
                        // `run`/`run_interval`; errors are dropped here
                        // (see above).
                        let run = match job {
                            Job::Plain(app, v, hw) => supervised_run(
                                worker_of(app),
                                v,
                                &hw.config(),
                                None,
                                watchdog,
                                lockstep,
                                job_seed(seed, app, v, hw),
                                telemetry,
                                &job_label(app, v, hw, None),
                            ),
                            Job::Interval(app, v, hw, interval) => supervised_run(
                                worker_of(app),
                                v,
                                &hw.config(),
                                Some(interval),
                                watchdog,
                                lockstep,
                                job_seed(seed, app, v, hw),
                                telemetry,
                                &job_label(app, v, hw, Some(interval)),
                            ),
                        };
                        if let Ok(run) = run {
                            if run.validated {
                                if let Ok(mut slots) = results.lock() {
                                    slots[i] = Some(run);
                                }
                            }
                        }
                    }
                });
            }
        });
        let slots = match results.into_inner() {
            Ok(slots) => slots,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (job, slot) in todo.into_iter().zip(slots) {
            if let Some(run) = slot {
                let merge_started = Instant::now();
                let label = match job {
                    Job::Plain(a, v, h) => {
                        self.cache.insert((a, v, h), run);
                        job_label(a, v, h, None)
                    }
                    Job::Interval(a, v, h, i) => {
                        self.interval_cache.insert((a, v, h, i), run);
                        job_label(a, v, h, Some(i))
                    }
                };
                if let Some(hub) = &self.telemetry {
                    hub.phase_merge(&label, merge_started.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    // The unique (app, variant, hw) combinations each experiment needs,
    // fed to `prefetch` so a multi-threaded study simulates them in
    // parallel before the (serial, cache-hitting) report construction.

    fn plan_baselines() -> Vec<Job> {
        App::all().into_iter().map(|a| Job::Plain(a, Variant::Baseline, Hw::Stock)).collect()
    }

    fn plan_fig2(scale: Scale) -> Vec<Job> {
        let interval = match scale {
            Scale::Test => 20_000,
            Scale::ClassC => 100_000,
        };
        vec![Job::Interval(App::Clustalw, Variant::Baseline, Hw::Stock, interval)]
    }

    fn plan_fig3() -> Vec<Job> {
        App::all()
            .into_iter()
            .flat_map(|a| Variant::all().into_iter().map(move |v| Job::Plain(a, v, Hw::Stock)))
            .collect()
    }

    fn plan_table2() -> Vec<Job> {
        App::all()
            .into_iter()
            .flat_map(|a| {
                [
                    Variant::HandIsel,
                    Variant::CompilerIsel,
                    Variant::HandMax,
                    Variant::CompilerMax,
                    Variant::Baseline,
                ]
                .into_iter()
                .map(move |v| Job::Plain(a, v, Hw::Stock))
            })
            .collect()
    }

    fn plan_fig4() -> Vec<Job> {
        App::all()
            .into_iter()
            .flat_map(|a| {
                [Variant::Baseline, Variant::Combination].into_iter().flat_map(move |v| {
                    [Hw::Stock, Hw::Btac].into_iter().map(move |h| Job::Plain(a, v, h))
                })
            })
            .collect()
    }

    fn plan_fig5() -> Vec<Job> {
        App::all()
            .into_iter()
            .flat_map(|a| {
                [
                    Job::Plain(a, Variant::Baseline, Hw::Stock),
                    Job::Plain(a, Variant::Baseline, Hw::Fxus(4)),
                    Job::Plain(a, Variant::Combination, Hw::Stock),
                    Job::Plain(a, Variant::Combination, Hw::Fxus(3)),
                    Job::Plain(a, Variant::Combination, Hw::Fxus(4)),
                ]
            })
            .collect()
    }

    fn plan_fig6() -> Vec<Job> {
        App::all()
            .into_iter()
            .flat_map(|a| {
                [
                    Job::Plain(a, Variant::Baseline, Hw::Stock),
                    Job::Plain(a, Variant::Combination, Hw::Stock),
                    Job::Plain(a, Variant::Baseline, Hw::Btac),
                    Job::Plain(a, Variant::Baseline, Hw::Fxus(4)),
                    Job::Plain(a, Variant::Combination, Hw::BtacFxus(4)),
                ]
            })
            .collect()
    }

    fn baseline(&mut self, app: App) -> Result<AppRun, RunError> {
        self.run(app, Variant::Baseline, Hw::Stock)
    }

    /// Work-normalized IPC of `run` relative to `base` (see module docs).
    fn norm_ipc(base: &AppRun, run: &AppRun) -> f64 {
        base.counters.instructions as f64 / run.counters.cycles as f64
    }

    // ------------------------------------------------------------------
    // Table I
    // ------------------------------------------------------------------

    /// Table I: baseline hardware-counter data per application.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn table1(&mut self) -> Result<Table1, RunError> {
        self.prefetch(&Self::plan_baselines());
        let mut rows = Vec::new();
        for app in App::all() {
            let run = self.baseline(app)?;
            let c = &run.counters;
            rows.push(Table1Row {
                app,
                ipc: c.ipc(),
                l1d_miss_rate: c.l1d.miss_rate(),
                direction_fraction: c.branches.direction_fraction(),
                fxu_stall_fraction: c.fxu_stall_fraction(),
                mispredict_rate: c.branches.misprediction_rate(),
            });
        }
        Ok(Table1 { rows })
    }

    // ------------------------------------------------------------------
    // Figure 1
    // ------------------------------------------------------------------

    /// Figure 1: function-wise cycle breakdown per application.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig1(&mut self) -> Result<Fig1, RunError> {
        self.prefetch(&Self::plan_baselines());
        let mut apps = Vec::new();
        for app in App::all() {
            let run = self.baseline(app)?;
            let total: u64 = run.profile.iter().map(|(_, _, c)| *c).sum();
            let mut functions: Vec<(String, f64)> = run
                .profile
                .iter()
                .filter(|(_, i, _)| *i > 0)
                .map(|(name, _, cycles)| (name.clone(), *cycles as f64 / total.max(1) as f64))
                .collect();
            functions.sort_by(|a, b| b.1.total_cmp(&a.1));
            apps.push(Fig1App { app, functions });
        }
        Ok(Fig1 { apps })
    }

    // ------------------------------------------------------------------
    // Figure 2
    // ------------------------------------------------------------------

    /// Figure 2: Clustalw IPC and branch-misprediction-rate time series
    /// (interval samples over the baseline run).
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig2(&mut self) -> Result<Fig2, RunError> {
        let interval = match self.scale {
            Scale::Test => 20_000,
            Scale::ClassC => 100_000,
        };
        let run = self.run_interval(App::Clustalw, Variant::Baseline, Hw::Stock, interval)?;
        Ok(Fig2 { interval, samples: run.counters.intervals.clone() })
    }

    // ------------------------------------------------------------------
    // Figure 3 / Table II
    // ------------------------------------------------------------------

    /// Figure 3: IPC with `max` and `isel`, hand- and compiler-inserted,
    /// plus the Combination, on the stock core.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig3(&mut self) -> Result<Fig3, RunError> {
        self.prefetch(&Self::plan_fig3());
        let mut apps = Vec::new();
        for app in App::all() {
            let base = self.baseline(app)?;
            let mut variants = Vec::new();
            for v in Variant::all() {
                let run = self.run(app, v, Hw::Stock)?;
                variants.push(Fig3Bar {
                    variant: v,
                    ipc: run.counters.ipc(),
                    norm_ipc: Self::norm_ipc(&base, &run),
                    speedup: base.counters.cycles as f64 / run.counters.cycles as f64,
                });
            }
            apps.push(Fig3App { app, baseline_ipc: base.counters.ipc(), variants });
        }
        Ok(Fig3 { apps })
    }

    /// Table II: branch statistics per application and variant.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn table2(&mut self) -> Result<Table2, RunError> {
        self.prefetch(&Self::plan_table2());
        let mut rows = Vec::new();
        for app in App::all() {
            // The paper's row order within each application.
            for v in [
                Variant::HandIsel,
                Variant::CompilerIsel,
                Variant::HandMax,
                Variant::CompilerMax,
                Variant::Baseline,
            ] {
                let run = self.run(app, v, Hw::Stock)?;
                let c = &run.counters;
                rows.push(Table2Row {
                    app,
                    variant: v,
                    branch_fraction: c.branch_fraction(),
                    mispredict_rate: c.branches.misprediction_rate(),
                    taken_fraction: c.branches.taken_fraction(),
                });
            }
        }
        Ok(Table2 { rows })
    }

    // ------------------------------------------------------------------
    // Figure 4
    // ------------------------------------------------------------------

    /// Figure 4: effect of the 8-entry BTAC on the baseline binaries and
    /// on the Combination binaries.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig4(&mut self) -> Result<Fig4, RunError> {
        self.prefetch(&Self::plan_fig4());
        let mut rows = Vec::new();
        for app in App::all() {
            for variant in [Variant::Baseline, Variant::Combination] {
                let without = self.run(app, variant, Hw::Stock)?;
                let with = self.run(app, variant, Hw::Btac)?;
                rows.push(Fig4Row {
                    app,
                    variant,
                    speedup: without.counters.cycles as f64 / with.counters.cycles as f64,
                    btac_mispredict_rate: with.counters.btac.misprediction_rate(),
                    btac_predictions: with.counters.btac.predictions,
                });
            }
        }
        Ok(Fig4 { rows })
    }

    // ------------------------------------------------------------------
    // Figure 5
    // ------------------------------------------------------------------

    /// Figure 5: effect of additional fixed-point units — 4 FXUs on the
    /// baseline binaries, then 3 and 4 FXUs on the Combination binaries,
    /// each relative to the same binaries on 2 FXUs.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig5(&mut self) -> Result<Fig5, RunError> {
        self.prefetch(&Self::plan_fig5());
        let mut rows = Vec::new();
        for app in App::all() {
            let base2 = self.run(app, Variant::Baseline, Hw::Stock)?;
            let base4 = self.run(app, Variant::Baseline, Hw::Fxus(4))?;
            let comb2 = self.run(app, Variant::Combination, Hw::Stock)?;
            let comb3 = self.run(app, Variant::Combination, Hw::Fxus(3))?;
            let comb4 = self.run(app, Variant::Combination, Hw::Fxus(4))?;
            rows.push(Fig5Row {
                app,
                baseline_4fxu: base2.counters.cycles as f64 / base4.counters.cycles as f64,
                combination_3fxu: comb2.counters.cycles as f64 / comb3.counters.cycles as f64,
                combination_4fxu: comb2.counters.cycles as f64 / comb4.counters.cycles as f64,
            });
        }
        Ok(Fig5 { rows })
    }

    // ------------------------------------------------------------------
    // Figure 6
    // ------------------------------------------------------------------

    /// Figure 6: the combined-gains waterfall. Each enhancement's IPC
    /// delta is measured alone against the baseline; the residual is the
    /// extra improvement the combination shows beyond the sum of parts.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`].
    pub fn fig6(&mut self) -> Result<Fig6, RunError> {
        self.prefetch(&Self::plan_fig6());
        let mut rows = Vec::new();
        for app in App::all() {
            let base = self.baseline(app)?;
            let base_ipc = base.counters.ipc();
            let pred = self.run(app, Variant::Combination, Hw::Stock)?;
            let btac = self.run(app, Variant::Baseline, Hw::Btac)?;
            let fxu = self.run(app, Variant::Baseline, Hw::Fxus(4))?;
            let all = self.run(app, Variant::Combination, Hw::BtacFxus(4))?;
            let d_pred = Self::norm_ipc(&base, &pred) - base_ipc;
            let d_btac = Self::norm_ipc(&base, &btac) - base_ipc;
            let d_fxu = Self::norm_ipc(&base, &fxu) - base_ipc;
            let combined = Self::norm_ipc(&base, &all);
            rows.push(Fig6Row {
                app,
                baseline_ipc: base_ipc,
                predication_delta: d_pred,
                btac_delta: d_btac,
                fxu_delta: d_fxu,
                combined_ipc: combined,
                residual: combined - base_ipc - d_pred - d_btac - d_fxu,
            });
        }
        Ok(Fig6 { rows })
    }

    // ------------------------------------------------------------------
    // Full suite
    // ------------------------------------------------------------------

    /// The suite's experiment slugs, in paper order. Each is accepted by
    /// [`Study::run_experiment`]; [`Study::run_suite`] runs them all.
    pub fn experiment_slugs() -> [&'static str; 8] {
        ["table1", "fig1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6"]
    }

    /// The unique simulations `slug` needs (empty for unknown slugs).
    fn plan_for(&self, slug: &str) -> Vec<Job> {
        match slug {
            "table1" | "fig1" => Self::plan_baselines(),
            "fig2" => Self::plan_fig2(self.scale),
            "fig3" => Self::plan_fig3(),
            "table2" => Self::plan_table2(),
            "fig4" => Self::plan_fig4(),
            "fig5" => Self::plan_fig5(),
            "fig6" => Self::plan_fig6(),
            _ => Vec::new(),
        }
    }

    /// Run one experiment by slug and render its report, quarantining a
    /// failure (after the supervisor's retries) as a degraded report
    /// carrying a machine-readable `failure_class`. Unknown slugs yield a
    /// degraded report rather than a panic, so a resume driver fed a
    /// stale slug list cannot abort a suite.
    pub fn run_experiment(&mut self, slug: &str) -> Report {
        let result = match slug {
            "table1" => self.table1().map(|x| x.report()),
            "fig1" => self.fig1().map(|x| x.report()),
            "fig2" => self.fig2().map(|x| x.report()),
            "fig3" => self.fig3().map(|x| x.report()),
            "table2" => self.table2().map(|x| x.report()),
            "fig4" => self.fig4().map(|x| x.report()),
            "fig5" => self.fig5().map(|x| x.report()),
            "fig6" => self.fig6().map(|x| x.report()),
            other => Err(RunError::Validation { what: format!("unknown experiment `{other}`") }),
        };
        let mut report = match result {
            Ok(report) => report,
            Err(e) => {
                let mut report = Report::new(slug);
                report.degrade_classified(e.class(), format!("{slug}: {e}"));
                report
            }
        };
        report.context.push(("scale".into(), format!("{:?}", self.scale)));
        report.context.push(("seed".into(), self.seed.to_string()));
        report
    }

    /// Run every table and figure of the paper, catching per-experiment
    /// failures instead of aborting the suite.
    ///
    /// A failing experiment (trap, watchdog timeout, lockstep divergence,
    /// validation mismatch, …) is retried by the supervisor (see
    /// [`Study::set_watchdog`]) and, if still failing, contributes a
    /// schema-valid `bioarch-report/v1` document marked
    /// `"degraded": true` with a classified failure, so one broken
    /// workload still leaves the other experiments' reports usable.
    pub fn run_suite(&mut self) -> Suite {
        self.run_suite_from(Vec::new())
    }

    /// Resume a suite: take the reports an interrupted run already
    /// produced and run only the remaining experiments. With `done`
    /// empty this is exactly [`Study::run_suite`]; reports come back in
    /// paper order regardless of the done/todo split, so a resumed
    /// suite is byte-identical to an uninterrupted one.
    pub fn run_suite_from(&mut self, done: Vec<Report>) -> Suite {
        let todo: Vec<&'static str> = Self::experiment_slugs()
            .into_iter()
            .filter(|s| !done.iter().any(|r| r.experiment == *s))
            .collect();
        // Fan the union of the remaining experiments' simulations across
        // the worker threads up front; the per-experiment runners below
        // then hit the cache (their own prefetch calls become no-ops).
        let mut jobs = Vec::new();
        for slug in &todo {
            jobs.extend(self.plan_for(slug));
        }
        self.prefetch(&jobs);
        let mut reports = done;
        for slug in todo {
            reports.push(self.run_experiment(slug));
        }
        let order = Self::experiment_slugs();
        reports
            .sort_by_key(|r| order.iter().position(|s| *s == r.experiment).unwrap_or(order.len()));
        Suite { reports }
    }
}

/// The full study's documents: one report per table/figure, degraded
/// entries standing in for failed experiments (see [`Study::run_suite`]).
#[derive(Debug, Clone)]
pub struct Suite {
    /// One report per experiment, in paper order.
    pub reports: Vec<Report>,
}

impl Suite {
    /// Whether any experiment failed.
    pub fn is_degraded(&self) -> bool {
        self.reports.iter().any(Report::is_degraded)
    }

    /// Every failure description across the suite.
    pub fn failures(&self) -> Vec<&str> {
        self.reports.iter().flat_map(|r| r.failures.iter().map(|f| f.message.as_str())).collect()
    }

    /// Every `(failure_class, message)` pair across the suite.
    pub fn classified_failures(&self) -> Vec<(&str, &str)> {
        self.reports
            .iter()
            .flat_map(|r| r.failures.iter().map(|f| (f.class.as_str(), f.message.as_str())))
            .collect()
    }
}

// ----------------------------------------------------------------------
// Result types
// ----------------------------------------------------------------------

/// Lower-case metric prefix for an application.
fn slug(app: App) -> String {
    app.name().to_lowercase()
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application.
    pub app: App,
    /// Baseline IPC.
    pub ipc: f64,
    /// L1D miss rate.
    pub l1d_miss_rate: f64,
    /// Fraction of mispredictions due to incorrect direction.
    pub direction_fraction: f64,
    /// Completion-stall cycles due to FXU, as a fraction of all cycles.
    pub fxu_stall_fraction: f64,
    /// Conditional-branch misprediction rate (not printed in the paper's
    /// Table I but discussed in its text).
    pub mispredict_rate: f64,
}

/// Table I results.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per application.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "IPC".into(),
            "L1D Miss Rate".into(),
            "% Mispred Due To Direction".into(),
            "Stalls due FXU".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                format!("{:.2}", r.ipc),
                frac(r.l1d_miss_rate),
                frac(r.direction_fraction),
                frac(r.fxu_stall_fraction),
            ]);
        }
        format!("Table I — Hardware counter data (baseline POWER5)\n{}", t.render())
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("table1");
        for row in &self.rows {
            let p = slug(row.app);
            r.push(format!("{p}.ipc"), row.ipc, Direction::Higher);
            r.push(format!("{p}.l1d_miss_rate"), row.l1d_miss_rate, Direction::Lower);
            r.push(format!("{p}.direction_fraction"), row.direction_fraction, Direction::Neutral);
            r.push(format!("{p}.fxu_stall_fraction"), row.fxu_stall_fraction, Direction::Lower);
            r.push(format!("{p}.mispredict_rate"), row.mispredict_rate, Direction::Lower);
        }
        r
    }
}

/// One application's function breakdown for Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1App {
    /// Application.
    pub app: App,
    /// `(function, fraction_of_cycles)`, largest first.
    pub functions: Vec<(String, f64)>,
}

/// Figure 1 results.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// One entry per application.
    pub apps: Vec<Fig1App>,
}

impl Fig1 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 1 — Function-wise cycle breakdown\n");
        for a in &self.apps {
            out.push_str(&format!("{}:\n", a.app));
            for (name, share) in a.functions.iter().take(4) {
                out.push_str(&format!("    {:16} {}\n", name, frac(*share)));
            }
        }
        out
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig1");
        for a in &self.apps {
            if let Some((name, share)) = a.functions.first() {
                r.push(format!("{}.kernel_share.{name}", slug(a.app)), *share, Direction::Neutral);
            }
        }
        r
    }
}

/// Figure 2 results: the Clustalw time series.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Instructions per sample point.
    pub interval: u64,
    /// The series.
    pub samples: Vec<IntervalSample>,
}

impl Fig2 {
    /// Render as text (one line per sample, with bar charts mirroring the
    /// paper's dual-axis plot).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 2 — Clustalw IPC and branch misprediction rate over time ({}-instruction intervals)\n",
            self.interval
        );
        let max_ipc = self.samples.iter().map(|s| s.ipc).fold(0.1, f64::max);
        let max_mis = self.samples.iter().map(|s| s.mispredict_rate).fold(0.01, f64::max);
        out.push_str("  instret      IPC                        mispredict\n");
        for s in &self.samples {
            let ipc_bar = "#".repeat((s.ipc / max_ipc * 20.0).round() as usize);
            let mis_bar = "*".repeat((s.mispredict_rate / max_mis * 20.0).round() as usize);
            out.push_str(&format!(
                "{:9}    {:.2} {:20}   {:>6} {}\n",
                s.instructions,
                s.ipc,
                ipc_bar,
                frac(s.mispredict_rate),
                mis_bar,
            ));
        }
        out
    }

    /// Pearson correlation between IPC and misprediction rate across the
    /// samples (the paper's "IPC tracks the branch prediction rate" —
    /// strongly negative here).
    pub fn correlation(&self) -> f64 {
        let n = self.samples.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mx = self.samples.iter().map(|s| s.ipc).sum::<f64>() / n;
        let my = self.samples.iter().map(|s| s.mispredict_rate).sum::<f64>() / n;
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for s in &self.samples {
            let dx = s.ipc - mx;
            let dy = s.mispredict_rate - my;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        if sxx == 0.0 || syy == 0.0 {
            0.0
        } else {
            sxy / (sxx.sqrt() * syy.sqrt())
        }
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig2");
        let n = self.samples.len().max(1) as f64;
        r.push("clustalw.samples", self.samples.len() as f64, Direction::Neutral);
        r.push(
            "clustalw.mean_ipc",
            self.samples.iter().map(|s| s.ipc).sum::<f64>() / n,
            Direction::Higher,
        );
        r.push(
            "clustalw.mean_mispredict_rate",
            self.samples.iter().map(|s| s.mispredict_rate).sum::<f64>() / n,
            Direction::Lower,
        );
        r.push("clustalw.ipc_mispredict_correlation", self.correlation(), Direction::Neutral);
        r
    }
}

/// One variant bar of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Bar {
    /// The code variant.
    pub variant: Variant,
    /// Plain IPC of the variant binary.
    pub ipc: f64,
    /// Work-normalized IPC (baseline instructions / cycles).
    pub norm_ipc: f64,
    /// Speedup over the baseline binary (cycles ratio).
    pub speedup: f64,
}

/// One application's bars in Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3App {
    /// Application.
    pub app: App,
    /// Baseline IPC.
    pub baseline_ipc: f64,
    /// One bar per [`Variant`], in [`Variant::all`] order.
    pub variants: Vec<Fig3Bar>,
}

impl Fig3App {
    /// The bar for `v`.
    pub fn bar(&self, v: Variant) -> &Fig3Bar {
        self.variants.iter().find(|b| b.variant == v).expect("all variants present")
    }
}

/// Figure 3 results.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// One entry per application.
    pub apps: Vec<Fig3App>,
}

impl Fig3 {
    /// Average speedup (over apps) for a variant — the paper quotes the
    /// isel and max averages (29.8 % and 34.8 %).
    pub fn average_improvement(&self, v: Variant) -> f64 {
        let sum: f64 = self.apps.iter().map(|a| a.bar(v).speedup - 1.0).sum();
        sum / self.apps.len() as f64
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "Variant".into(),
            "IPC".into(),
            "norm. IPC".into(),
            "Improvement".into(),
        ]);
        for a in &self.apps {
            for b in &a.variants {
                t.row(vec![
                    a.app.name().into(),
                    b.variant.label().into(),
                    format!("{:.2}", b.ipc),
                    format!("{:.2}", b.norm_ipc),
                    pct(b.speedup - 1.0),
                ]);
            }
        }
        format!(
            "Figure 3 — IPC with max and isel instructions\n{}\nAverages: isel {} (hand), max {} (hand)\n",
            t.render(),
            pct(self.average_improvement(Variant::HandIsel)),
            pct(self.average_improvement(Variant::HandMax)),
        )
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig3");
        for a in &self.apps {
            let p = slug(a.app);
            for b in &a.variants {
                let v = b.variant.slug();
                r.push(format!("{p}.{v}.ipc"), b.ipc, Direction::Higher);
                r.push(format!("{p}.{v}.norm_ipc"), b.norm_ipc, Direction::Higher);
                r.push(format!("{p}.{v}.speedup"), b.speedup, Direction::Higher);
            }
        }
        for v in [Variant::HandIsel, Variant::HandMax] {
            r.push(
                format!("avg.{}_improvement", v.slug()),
                self.average_improvement(v),
                Direction::Higher,
            );
        }
        r
    }
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application.
    pub app: App,
    /// Code variant.
    pub variant: Variant,
    /// Branches as a fraction of committed instructions.
    pub branch_fraction: f64,
    /// Conditional-branch misprediction rate.
    pub mispredict_rate: f64,
    /// Taken branches as a fraction of all branches.
    pub taken_fraction: f64,
}

/// Table II results.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows grouped by application in the paper's variant order.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "Variant".into(),
            "Branches/Instrs".into(),
            "Mispredict Rate".into(),
            "Taken/Branches".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                r.variant.label().into(),
                frac(r.branch_fraction),
                frac(r.mispredict_rate),
                frac(r.taken_fraction),
            ]);
        }
        format!("Table II — Branch performance with predicated instructions\n{}", t.render())
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("table2");
        for row in &self.rows {
            let p = format!("{}.{}", slug(row.app), row.variant.slug());
            r.push(format!("{p}.branch_fraction"), row.branch_fraction, Direction::Lower);
            r.push(format!("{p}.mispredict_rate"), row.mispredict_rate, Direction::Lower);
            r.push(format!("{p}.taken_fraction"), row.taken_fraction, Direction::Neutral);
        }
        r
    }
}

/// One row of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Application.
    pub app: App,
    /// Binaries the BTAC was added under.
    pub variant: Variant,
    /// Speedup from adding the BTAC.
    pub speedup: f64,
    /// The BTAC's own misprediction rate.
    pub btac_mispredict_rate: f64,
    /// Predictions the BTAC made.
    pub btac_predictions: u64,
}

/// Figure 4 results.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Two rows (baseline / combination binaries) per application.
    pub rows: Vec<Fig4Row>,
}

impl Fig4 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "Binaries".into(),
            "BTAC gain".into(),
            "BTAC mispredict rate".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                r.variant.label().into(),
                pct(r.speedup - 1.0),
                frac(r.btac_mispredict_rate),
            ]);
        }
        format!("Figure 4 — Effect of an eight-entry BTAC\n{}", t.render())
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig4");
        for row in &self.rows {
            let p = format!("{}.{}", slug(row.app), row.variant.slug());
            r.push(format!("{p}.btac_speedup"), row.speedup, Direction::Higher);
            r.push(format!("{p}.btac_mispredict_rate"), row.btac_mispredict_rate, Direction::Lower);
        }
        r
    }
}

/// One row of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Application.
    pub app: App,
    /// Speedup of baseline binaries from 2 → 4 FXUs.
    pub baseline_4fxu: f64,
    /// Speedup of Combination binaries from 2 → 3 FXUs.
    pub combination_3fxu: f64,
    /// Speedup of Combination binaries from 2 → 4 FXUs.
    pub combination_4fxu: f64,
}

/// Figure 5 results.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One row per application.
    pub rows: Vec<Fig5Row>,
}

impl Fig5 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "base 4 FXU".into(),
            "comb 3 FXU".into(),
            "comb 4 FXU".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                pct(r.baseline_4fxu - 1.0),
                pct(r.combination_3fxu - 1.0),
                pct(r.combination_4fxu - 1.0),
            ]);
        }
        format!("Figure 5 — Effect of additional fixed-point units\n{}", t.render())
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig5");
        for row in &self.rows {
            let p = slug(row.app);
            r.push(format!("{p}.baseline_4fxu_speedup"), row.baseline_4fxu, Direction::Higher);
            r.push(
                format!("{p}.combination_3fxu_speedup"),
                row.combination_3fxu,
                Direction::Higher,
            );
            r.push(
                format!("{p}.combination_4fxu_speedup"),
                row.combination_4fxu,
                Direction::Higher,
            );
        }
        r
    }
}

/// One row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Application.
    pub app: App,
    /// Baseline IPC.
    pub baseline_ipc: f64,
    /// IPC delta from predication alone (work-normalized).
    pub predication_delta: f64,
    /// IPC delta from the BTAC alone.
    pub btac_delta: f64,
    /// IPC delta from 4 FXUs alone.
    pub fxu_delta: f64,
    /// Work-normalized IPC with all three enhancements.
    pub combined_ipc: f64,
    /// Combined minus baseline minus the sum of individual deltas.
    pub residual: f64,
}

impl Fig6Row {
    /// Total improvement of the combined configuration.
    pub fn total_improvement(&self) -> f64 {
        self.combined_ipc / self.baseline_ipc - 1.0
    }
}

/// Figure 6 results.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One row per application.
    pub rows: Vec<Fig6Row>,
}

impl Fig6 {
    /// Average total improvement across applications (the paper's
    /// headline 64 %).
    pub fn average_improvement(&self) -> f64 {
        self.rows.iter().map(Fig6Row::total_improvement).sum::<f64>() / self.rows.len() as f64
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Application".into(),
            "base IPC".into(),
            "+pred".into(),
            "+BTAC".into(),
            "+2 FXU".into(),
            "residual".into(),
            "combined IPC".into(),
            "total".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                format!("{:.2}", r.baseline_ipc),
                format!("{:+.2}", r.predication_delta),
                format!("{:+.2}", r.btac_delta),
                format!("{:+.2}", r.fxu_delta),
                format!("{:+.2}", r.residual),
                format!("{:.2}", r.combined_ipc),
                pct(r.total_improvement()),
            ]);
        }
        format!(
            "Figure 6 — Combined gains (work-normalized IPC)\n{}\nAverage improvement: {}\n",
            t.render(),
            pct(self.average_improvement())
        )
    }

    /// Machine-readable report (schema `bioarch-report/v1`).
    pub fn report(&self) -> Report {
        let mut r = Report::new("fig6");
        for row in &self.rows {
            let p = slug(row.app);
            r.push(format!("{p}.baseline_ipc"), row.baseline_ipc, Direction::Higher);
            r.push(format!("{p}.predication_delta"), row.predication_delta, Direction::Higher);
            r.push(format!("{p}.btac_delta"), row.btac_delta, Direction::Higher);
            r.push(format!("{p}.fxu_delta"), row.fxu_delta, Direction::Higher);
            r.push(format!("{p}.combined_ipc"), row.combined_ipc, Direction::Higher);
            r.push(format!("{p}.residual"), row.residual, Direction::Neutral);
            r.push(format!("{p}.total_improvement"), row.total_improvement(), Direction::Higher);
        }
        r.push("avg.total_improvement", self.average_improvement(), Direction::Higher);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Study {
        Study::new(Scale::Test, 42)
    }

    #[test]
    fn hw_slugs_roundtrip() {
        for hw in [Hw::Stock, Hw::Btac, Hw::Fxus(4), Hw::BtacFxus(8)] {
            assert_eq!(Hw::from_slug(&hw.slug()), Some(hw));
        }
        assert_eq!(Hw::from_slug("fxus"), None);
        assert_eq!(Hw::from_slug("btac-fxusx"), None);
        assert_eq!(Hw::from_slug("power6"), None);
    }

    #[test]
    fn table1_has_paper_shape() {
        let t1 = study().table1().unwrap();
        assert_eq!(t1.rows.len(), 4);
        for r in &t1.rows {
            assert!(r.ipc > 0.3 && r.ipc < 2.5, "{} IPC {}", r.app, r.ipc);
            assert!(r.l1d_miss_rate < 0.08, "{} misses {}", r.app, r.l1d_miss_rate);
            assert!(
                r.direction_fraction > 0.9,
                "{} direction fraction {}",
                r.app,
                r.direction_fraction
            );
        }
        let text = t1.render();
        assert!(text.contains("Clustalw"));
    }

    #[test]
    fn fig1_kernel_dominates() {
        let f1 = study().fig1().unwrap();
        for a in &f1.apps {
            let (top, share) = &a.functions[0];
            assert_eq!(top, a.app.kernel_name(), "{}: top fn {}", a.app, top);
            assert!(*share > 0.4, "{}: kernel share {}", a.app, share);
        }
        assert!(f1.render().contains("dropgsw"));
    }

    #[test]
    fn fig2_produces_anticorrelated_series() {
        let f2 = study().fig2().unwrap();
        assert!(f2.samples.len() >= 5, "only {} samples", f2.samples.len());
        assert!(f2.samples.iter().all(|s| s.ipc > 0.0));
        assert!(f2.render().lines().count() > 5);
        // The paper's Figure 2 point: IPC tracks mispredictions inversely.
        assert!(
            f2.correlation() < -0.5,
            "IPC/mispredict correlation {} not strongly negative",
            f2.correlation()
        );
    }

    #[test]
    fn fig3_and_table2_shapes() {
        let mut s = study();
        let f3 = s.fig3().unwrap();
        assert_eq!(f3.apps.len(), 4);
        for a in &f3.apps {
            // Predication never slows a workload down at Test scale by
            // more than noise; max beats isel on every app (the paper's
            // consistent finding).
            let isel = a.bar(Variant::HandIsel).speedup;
            let maxb = a.bar(Variant::HandMax).speedup;
            assert!(maxb >= isel * 0.98, "{}: max {} vs isel {}", a.app, maxb, isel);
        }
        let t2 = s.table2().unwrap();
        assert_eq!(t2.rows.len(), 20);
        // Predication reduces the branch fraction vs. the original.
        for app in App::all() {
            let orig =
                t2.rows.iter().find(|r| r.app == app && r.variant == Variant::Baseline).unwrap();
            let hand =
                t2.rows.iter().find(|r| r.app == app && r.variant == Variant::HandMax).unwrap();
            assert!(
                hand.branch_fraction < orig.branch_fraction,
                "{app}: {} !< {}",
                hand.branch_fraction,
                orig.branch_fraction
            );
        }
        assert!(t2.render().contains("Branches/Instrs"));
    }

    #[test]
    fn fig4_btac_never_hurts_much_and_mispredicts_rarely() {
        let f4 = study().fig4().unwrap();
        assert_eq!(f4.rows.len(), 8);
        for r in &f4.rows {
            assert!(r.speedup > 0.97, "{} {:?}: BTAC slowdown {}", r.app, r.variant, r.speedup);
            assert!(
                r.btac_mispredict_rate < 0.2,
                "{}: BTAC mispredict rate {}",
                r.app,
                r.btac_mispredict_rate
            );
        }
    }

    #[test]
    fn fig5_more_fxus_never_hurt() {
        let f5 = study().fig5().unwrap();
        for r in &f5.rows {
            assert!(r.baseline_4fxu > 0.99, "{}: {}", r.app, r.baseline_4fxu);
            assert!(r.combination_4fxu >= r.combination_3fxu * 0.99);
        }
    }

    #[test]
    fn fig6_combined_beats_parts() {
        let f6 = study().fig6().unwrap();
        for r in &f6.rows {
            assert!(
                r.combined_ipc > r.baseline_ipc,
                "{}: combined {} vs base {}",
                r.app,
                r.combined_ipc,
                r.baseline_ipc
            );
        }
        assert!(f6.average_improvement() > 0.05);
        assert!(f6.render().contains("combined IPC"));
    }

    #[test]
    fn experiment_reports_roundtrip_through_json() {
        let t1 = Table1 {
            rows: vec![Table1Row {
                app: App::Blast,
                ipc: 0.9,
                l1d_miss_rate: 0.012,
                direction_fraction: 0.95,
                fxu_stall_fraction: 0.2,
                mispredict_rate: 0.08,
            }],
        };
        let rep = t1.report();
        assert_eq!(rep.experiment, "table1");
        assert_eq!(rep.metrics.len(), 5);
        let back = Report::parse(&rep.render_json()).unwrap();
        assert_eq!(back.get("blast.ipc").unwrap().value, 0.9);
        assert_eq!(back.get("blast.ipc").unwrap().direction, Direction::Higher);
        assert_eq!(back.get("blast.l1d_miss_rate").unwrap().direction, Direction::Lower);

        let f5 = Fig5 {
            rows: vec![Fig5Row {
                app: App::Fasta,
                baseline_4fxu: 1.02,
                combination_3fxu: 1.10,
                combination_4fxu: 1.12,
            }],
        };
        let back = Report::parse(&f5.report().render_json()).unwrap();
        assert_eq!(back.get("fasta.combination_4fxu_speedup").unwrap().value, 1.12);
    }

    #[test]
    fn study_cache_reuses_runs() {
        let mut s = study();
        let a = s.run(App::Fasta, Variant::Baseline, Hw::Stock).unwrap();
        let b = s.run(App::Fasta, Variant::Baseline, Hw::Stock).unwrap();
        assert_eq!(a.counters.cycles, b.counters.cycles);
    }
}
