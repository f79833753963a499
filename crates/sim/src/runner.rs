//! Parallel experiment runner: fans (mix, scheme) jobs out over worker
//! threads while keeping results in deterministic submission order.
//!
//! Every simulation job is a pure function of its inputs — `run_mix` and
//! `run_solo` share no mutable state — so running jobs concurrently
//! cannot change any individual result. The runner exploits that:
//!
//! * [`parallel_map`] is the scheduling primitive — scoped worker threads
//!   pull items off a shared atomic cursor and write results into
//!   per-slot cells, so the output `Vec` is always in input order no
//!   matter which worker finished when;
//! * [`try_parallel_map`] is its fault-tolerant core: each job runs
//!   under `catch_unwind`, so a panicking job is recorded as a per-item
//!   [`JobFailure`] (index, attempts, message) while the other workers
//!   keep draining the queue; a [`JobPolicy`] adds bounded per-job retry
//!   and a wall-clock watchdog that *flags* (never kills) stuck jobs;
//! * [`Runner`] layers a thread-safe memoized solo-run cache on top, so
//!   normalization references are computed once per workload even when
//!   many jobs need them at the same time, and reports job failures and
//!   degraded telemetry streams into the run-manifest registries
//!   ([`crate::telemetry::note_failure`]) instead of discarding a batch;
//! * worker count comes from `--jobs N` / `NUCACHE_JOBS`, defaulting to
//!   the machine's available parallelism.
//!
//! With a seeded fault plan active ([`nucache_common::fault`]), the
//! runner deterministically injects worker panics and telemetry I/O
//! errors so every one of those degradation paths is exercised; with no
//! plan, results are bit-identical to a runner without any of this
//! machinery.
//!
//! # Examples
//!
//! ```
//! use nucache_sim::runner::Runner;
//! use nucache_sim::{Scheme, SimConfig};
//! use nucache_trace::{Mix, SpecWorkload};
//!
//! let runner = Runner::new(SimConfig::demo()).with_jobs(2);
//! let mixes = [Mix::new("m", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike])];
//! let schemes = [Scheme::Lru, Scheme::nucache_default()];
//! let grid = runner.evaluate_grid(&mixes, &schemes);
//! assert_eq!(grid.len(), 1);
//! assert_eq!(grid[0].len(), 2);
//! assert!(grid[0][0].1.weighted_speedup > 0.0);
//! ```

use crate::config::SimConfig;
use crate::driver::{run_mix, run_mix_telemetry, run_solo, CoreResult, SimResult};
use crate::scheme::Scheme;
use crate::telemetry::{note_degradation, note_failure, stream_path, FailureRecord, TelemetrySpec};
use nucache_common::fault::{active_fault_plan, FaultPlan, FaultSite};
use nucache_common::telemetry::JsonlSink;
use nucache_cpu::MultiProgramMetrics;
use nucache_trace::{Mix, SpecWorkload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};

/// Process-wide worker-count override installed by `--jobs` flags
/// (0 = no override).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide worker-count override taking precedence over
/// `NUCACHE_JOBS`; passing 0 clears it.
pub fn set_default_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// Worker count for new runners: the [`set_default_jobs`] override when
/// installed, else `NUCACHE_JOBS` when set to a positive integer, else
/// the machine's available parallelism.
///
/// An unusable `NUCACHE_JOBS` value (unparsable, or zero) warns once on
/// stderr instead of silently serializing the batch — a typo like
/// `NUCACHE_JOBS=8x` should not quietly cost a machine's worth of
/// parallelism.
pub fn default_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit >= 1 {
        return explicit;
    }
    if let Ok(raw) = std::env::var("NUCACHE_JOBS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[runner] ignoring invalid NUCACHE_JOBS='{raw}' (expected a positive \
                         integer); using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default watchdog threshold: far beyond any healthy job on this
/// workload set, so flags mean "investigate", not noise.
pub const DEFAULT_WATCHDOG_SECS: u64 = 120;

/// Fault-handling knobs for [`try_parallel_map`] and [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPolicy {
    /// Extra attempts after a job's first panic (0 = fail immediately).
    /// Retries target transient failures; a deterministic panic fails
    /// every attempt and is recorded with its final attempt count.
    pub max_retries: u32,
    /// Wall-clock seconds after which an in-flight job is flagged as
    /// stuck (warned and noted in the run manifest — never killed, since
    /// a slow simulation still produces a correct result). `None`
    /// disables the watchdog.
    pub watchdog_secs: Option<u64>,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy { max_retries: 1, watchdog_secs: Some(DEFAULT_WATCHDOG_SECS) }
    }
}

impl JobPolicy {
    /// The default policy with `NUCACHE_WATCHDOG_SECS` applied when set
    /// (`0` disables the watchdog; an unparsable value warns once and is
    /// ignored).
    pub fn from_env() -> Self {
        let mut policy = JobPolicy::default();
        if let Ok(raw) = std::env::var("NUCACHE_WATCHDOG_SECS") {
            match raw.trim().parse::<u64>() {
                Ok(0) => policy.watchdog_secs = None,
                Ok(secs) => policy.watchdog_secs = Some(secs),
                Err(_) => {
                    static WARNED: Once = Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "[runner] ignoring invalid NUCACHE_WATCHDOG_SECS='{raw}' \
                             (expected seconds, 0 to disable)"
                        );
                    });
                }
            }
        }
        policy
    }
}

/// A job that kept panicking through every attempt its policy allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Attempts made (1 + retries taken).
    pub attempts: u64,
    /// The panic message of the final attempt.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} failed after {} attempt(s): {}", self.index, self.attempts, self.message)
    }
}

/// A job the watchdog flagged as exceeding its wall-clock threshold.
/// Flagged jobs keep running and usually complete; the flag marks them
/// for investigation.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckJob {
    /// Index of the flagged item in the input slice.
    pub index: usize,
    /// In-flight wall-clock seconds at the moment of flagging.
    pub seconds: f64,
}

/// Everything [`try_parallel_map`] observed: per-item outcomes in input
/// order, plus any watchdog flags.
#[derive(Debug)]
pub struct ParallelReport<R> {
    /// One entry per input item, in input order.
    pub results: Vec<Result<R, JobFailure>>,
    /// Jobs flagged as stuck (they may nevertheless have completed).
    pub stuck: Vec<StuckJob>,
}

impl<R> ParallelReport<R> {
    /// The failures, in input order.
    pub fn failures(&self) -> impl Iterator<Item = &JobFailure> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }
}

/// Renders a `catch_unwind` payload as a message string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// Runs one item under `catch_unwind`, retrying per `policy`.
fn run_attempts<T, R>(
    policy: &JobPolicy,
    index: usize,
    item: &T,
    f: &(impl Fn(&T) -> R + Sync),
) -> Result<R, JobFailure> {
    let attempts = u64::from(policy.max_retries) + 1;
    let mut message = String::new();
    for attempt in 1..=attempts {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(result) => return Ok(result),
            Err(payload) => {
                message = panic_message(payload.as_ref());
                if attempt < attempts {
                    eprintln!(
                        "[runner] job {index} panicked (attempt {attempt} of {attempts}): \
                         {message}; retrying"
                    );
                }
            }
        }
    }
    Err(JobFailure { index, attempts, message })
}

/// Applies `f` to every item on up to `jobs` worker threads with full
/// panic isolation, returning one `Result` per item in input order.
///
/// Items are claimed through a shared atomic cursor (cheap work
/// stealing: a worker stuck on a slow job doesn't hold up the queue).
/// Each job runs under `catch_unwind`: a panic is caught, retried up to
/// `policy.max_retries` times, and finally recorded as a [`JobFailure`]
/// carrying the item index and panic message — the remaining items are
/// unaffected and always run to completion. With `policy.watchdog_secs`
/// set, a monitor thread flags (warns about, but never kills) jobs
/// whose wall-clock time exceeds the threshold; the flags are reported
/// in [`ParallelReport::stuck`]. Wall time is observed only for
/// flagging — it cannot influence any result.
///
/// With `jobs <= 1` or a single item the map runs inline on the
/// caller's thread (panic isolation and retry still apply; the watchdog
/// does not, as there is no second thread to observe from).
pub fn try_parallel_map<T, R, F>(
    jobs: usize,
    items: &[T],
    policy: &JobPolicy,
    f: F,
) -> ParallelReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        let results =
            items.iter().enumerate().map(|(i, item)| run_attempts(policy, i, item, &f)).collect();
        return ParallelReport { results, stuck: Vec::new() };
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, JobFailure>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    // Per-slot start times observed by the watchdog. Wall time is used
    // for flagging only and never reaches a simulation.
    #[expect(clippy::disallowed_types, reason = "watchdog flagging only, results unaffected")]
    let started: Vec<Mutex<Option<std::time::Instant>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let flagged: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
    let stuck: Mutex<Vec<StuckJob>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                #[expect(clippy::disallowed_types, reason = "watchdog flagging only")]
                let now = std::time::Instant::now();
                *started[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(now);
                let result = run_attempts(policy, i, item, &f);
                *started[i].lock().unwrap_or_else(PoisonError::into_inner) = None;
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                completed.fetch_add(1, Ordering::Release);
            });
        }
        if let Some(limit) = policy.watchdog_secs {
            let poll = std::time::Duration::from_millis(if limit == 0 {
                5
            } else {
                (limit * 250).min(500)
            });
            let (started, flagged, stuck, completed) = (&started, &flagged, &stuck, &completed);
            scope.spawn(move || {
                while completed.load(Ordering::Acquire) < items.len() {
                    std::thread::sleep(poll);
                    for (i, slot) in started.iter().enumerate() {
                        let Some(t0) = *slot.lock().unwrap_or_else(PoisonError::into_inner) else {
                            continue;
                        };
                        let elapsed = t0.elapsed();
                        if elapsed.as_secs() >= limit && !flagged[i].swap(true, Ordering::Relaxed) {
                            let seconds = elapsed.as_secs_f64();
                            eprintln!(
                                "[runner] watchdog: job {i} still running after {seconds:.1}s \
                                 (flagged, not killed)"
                            );
                            stuck
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(StuckJob { index: i, seconds });
                        }
                    }
                }
            });
        }
    });
    #[expect(clippy::expect_used, reason = "invariant: every slot is filled")]
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // Workers run every claimed job under catch_unwind and
                // always store an outcome, so an empty slot is a
                // scheduler bug, not a job failure.
                .expect("worker filled every slot")
        })
        .collect();
    let mut stuck = stuck.into_inner().unwrap_or_else(PoisonError::into_inner);
    stuck.sort_by_key(|s| s.index);
    ParallelReport { results, stuck }
}

/// Applies `f` to every item on up to `jobs` worker threads, returning
/// results in input order.
///
/// This is the infallible façade over [`try_parallel_map`] with no
/// retries and no watchdog: scheduling is identical, output order never
/// depends on it, and with `jobs <= 1` or a single item the map runs
/// inline on the caller's thread.
///
/// # Panics
///
/// If any job panics, every other job still runs to completion and then
/// this function panics with the first failing job's index and message.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let policy = JobPolicy { max_retries: 0, watchdog_secs: None };
    let report = try_parallel_map(jobs, items, &policy, f);
    report
        .results
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(failure) => panic!("{failure}"),
        })
        .collect()
}

/// Thread-safe memoized solo-run cache.
///
/// Each workload maps to an [`OnceLock`] cell: the first thread to need a
/// solo result computes it, any thread arriving meanwhile blocks on the
/// cell instead of duplicating the (expensive) run.
#[derive(Debug, Default)]
struct SoloCache {
    cells: Mutex<BTreeMap<SpecWorkload, Arc<OnceLock<CoreResult>>>>,
}

impl SoloCache {
    /// The cell map, recovering from poisoning: the map holds only plain
    /// data (workload keys and completed results), which stays valid
    /// even if a worker panicked mid-insert was impossible — entries are
    /// inserted atomically — so one panicked job must not wedge every
    /// later solo lookup.
    fn cells(
        &self,
    ) -> std::sync::MutexGuard<'_, BTreeMap<SpecWorkload, Arc<OnceLock<CoreResult>>>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, config: &SimConfig, workload: SpecWorkload) -> CoreResult {
        let cell = {
            let mut map = self.cells();
            Arc::clone(map.entry(workload).or_default())
        };
        cell.get_or_init(|| run_solo(config, workload)).clone()
    }

    fn snapshot(&self) -> BTreeMap<SpecWorkload, CoreResult> {
        let map = self.cells();
        map.iter().filter_map(|(&w, cell)| cell.get().map(|r| (w, r.clone()))).collect()
    }
}

/// Fans simulation jobs out over worker threads for one system
/// configuration, memoizing the solo runs that normalization needs.
///
/// Results are bit-identical at any worker count: jobs are pure, the
/// output order is fixed by submission order, and the solo cache only
/// changes *who* computes a result, never its value. Failure handling
/// follows the same rule — a panicking job is isolated, retried per the
/// [`JobPolicy`], recorded in the failure registry and (through
/// [`Runner::try_run_jobs`]) surfaced as a per-job `Result`, while the
/// rest of the batch completes normally.
#[derive(Debug)]
pub struct Runner {
    config: SimConfig,
    jobs: usize,
    policy: JobPolicy,
    fault_plan: Option<FaultPlan>,
    solo_cache: SoloCache,
    telemetry: Option<TelemetrySpec>,
    /// Next job index — monotonic across `run_jobs` calls so a
    /// multi-batch experiment never reuses a JSONL stream name and
    /// fault-injection decisions differ between batches.
    stream_index: AtomicUsize,
}

impl Runner {
    /// Creates a runner for `config` with [`default_jobs`] workers,
    /// picking up the process-wide telemetry directory
    /// ([`crate::telemetry::default_telemetry_dir`]) and fault plan
    /// ([`nucache_common::fault::active_fault_plan`]) when active.
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        let telemetry = TelemetrySpec::from_default_dir();
        if telemetry.is_some() {
            crate::telemetry::note_manifest_config(&config);
        }
        Runner {
            config,
            jobs: default_jobs(),
            policy: JobPolicy::from_env(),
            fault_plan: active_fault_plan(),
            solo_cache: SoloCache::default(),
            telemetry,
            stream_index: AtomicUsize::new(0),
        }
    }

    /// Overrides the worker count (`0` is treated as `1`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the retry/watchdog policy.
    pub fn with_policy(mut self, policy: JobPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides fault injection: `Some(plan)` injects that plan's
    /// faults into this runner's jobs, `None` disables injection
    /// (regardless of the process-wide plan).
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides telemetry recording: `Some(spec)` streams every mix job
    /// into per-job JSONL files under `spec.dir`, `None` disables it
    /// (regardless of the process-wide default).
    pub fn with_telemetry(mut self, telemetry: Option<TelemetrySpec>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The active telemetry spec, if recording is on.
    pub const fn telemetry(&self) -> Option<&TelemetrySpec> {
        self.telemetry.as_ref()
    }

    /// The worker count in use.
    pub const fn jobs(&self) -> usize {
        self.jobs
    }

    /// The retry/watchdog policy in use.
    pub const fn policy(&self) -> &JobPolicy {
        &self.policy
    }

    /// The system configuration in use.
    pub const fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Solo result for `workload`, computed on first use and cached.
    pub fn solo(&self, workload: SpecWorkload) -> CoreResult {
        self.solo_cache.get(&self.config, workload)
    }

    /// Solo IPC vector for a mix.
    pub fn solo_ipcs(&self, mix: &Mix) -> Vec<f64> {
        mix.workloads().iter().map(|&w| self.solo(w).ipc).collect()
    }

    /// Runs one job, with telemetry when configured. A telemetry stream
    /// that cannot be created degrades to no telemetry for that job; a
    /// stream that cannot be written is dropped and its partial file
    /// removed. Both degrade with a single stderr warning plus a
    /// manifest note, and never change the simulation result.
    fn run_one(&self, index: usize, mix: &Mix, scheme: &Scheme) -> SimResult {
        let Some(spec) = &self.telemetry else {
            return run_mix(&self.config, mix, scheme);
        };
        let path = stream_path(&spec.dir, index, mix.name(), &scheme.name());
        let created = match &self.fault_plan {
            Some(plan) if plan.should_fault(FaultSite::TelemetryCreate, index as u64) => {
                Err(std::io::Error::other(plan.message(FaultSite::TelemetryCreate, index as u64)))
            }
            _ => JsonlSink::create(&path),
        };
        match created {
            Ok(mut sink) => {
                if let Some(plan) = &self.fault_plan {
                    if plan.should_fault(FaultSite::TelemetryWrite, index as u64) {
                        sink.inject_error(std::io::Error::other(
                            plan.message(FaultSite::TelemetryWrite, index as u64),
                        ));
                    }
                }
                let result =
                    run_mix_telemetry(&self.config, mix, scheme, spec.snapshot_interval, &mut sink);
                if let Err(e) = sink.finish() {
                    note_degradation(format!(
                        "telemetry stream {} incomplete ({e}); partial file removed, job result kept",
                        path.display()
                    ));
                    let _ = std::fs::remove_file(&path);
                }
                result
            }
            Err(e) => {
                note_degradation(format!(
                    "creating telemetry stream {} failed ({e}); job ran without telemetry",
                    path.display()
                ));
                run_mix(&self.config, mix, scheme)
            }
        }
    }

    /// Simulates every (mix, scheme) job with panic isolation, returning
    /// one `Result` per job in submission order.
    ///
    /// A job that panics (after the policy's retries) yields an `Err`
    /// with its index and panic message; every other job completes and
    /// yields its result — one poisoned mix cannot discard a batch. Each
    /// failure is also recorded in the process-wide registry
    /// ([`crate::telemetry::note_failure`]) so run manifests list it,
    /// and watchdog-flagged jobs are noted as degradations.
    ///
    /// With telemetry on, each job additionally streams its events into
    /// its own `NNN_mix__scheme.jsonl` file (no shared writer, so worker
    /// count never affects stream contents); the simulation results are
    /// identical either way. With a fault plan active, worker panics and
    /// telemetry I/O errors are injected per the plan's schedule.
    pub fn try_run_jobs(&self, jobs: &[(Mix, Scheme)]) -> Vec<Result<SimResult, JobFailure>> {
        let base = self.stream_index.fetch_add(jobs.len(), Ordering::Relaxed);
        let indexed: Vec<(usize, &(Mix, Scheme))> =
            jobs.iter().enumerate().map(|(i, job)| (base + i, job)).collect();
        let report =
            try_parallel_map(self.jobs, &indexed, &self.policy, |&(index, (mix, scheme))| {
                if let Some(plan) = &self.fault_plan {
                    if plan.should_fault(FaultSite::WorkerPanic, index as u64) {
                        panic!("{}", plan.message(FaultSite::WorkerPanic, index as u64));
                    }
                }
                self.run_one(index, mix, scheme)
            });
        for s in &report.stuck {
            let (mix, scheme) = &jobs[s.index];
            note_degradation(format!(
                "watchdog flagged job {} ({}/{}) as stuck after {:.1}s",
                base + s.index,
                mix.name(),
                scheme.name(),
                s.seconds
            ));
        }
        report
            .results
            .into_iter()
            .enumerate()
            .map(|(i, result)| {
                result.map_err(|failure| {
                    let (mix, scheme) = &jobs[i];
                    note_failure(FailureRecord {
                        stage: "job".to_string(),
                        job: Some(format!("{}/{}", mix.name(), scheme.name())),
                        index: Some((base + i) as u64),
                        attempts: failure.attempts,
                        message: failure.message.clone(),
                    });
                    JobFailure { index: i, ..failure }
                })
            })
            .collect()
    }

    /// Simulates every (mix, scheme) job, fanning out over the worker
    /// pool; results are in job order.
    ///
    /// This is the infallible façade over [`Runner::try_run_jobs`] for
    /// callers that need every result (a figure cannot be assembled from
    /// a grid with holes).
    ///
    /// # Panics
    ///
    /// Panics if any job ultimately fails. Every other job still runs to
    /// completion first and all failures are recorded in the manifest
    /// registry, so an outer `catch_unwind` (as in `run_all`) loses only
    /// the aborted step, not the batch's diagnostics.
    pub fn run_jobs(&self, jobs: &[(Mix, Scheme)]) -> Vec<SimResult> {
        let results = self.try_run_jobs(jobs);
        let failed = results.iter().filter(|r| r.is_err()).count();
        let total = jobs.len();
        results
            .into_iter()
            .map(|result| match result {
                Ok(value) => value,
                Err(failure) => panic!("{failed} of {total} job(s) failed; first: {failure}"),
            })
            .collect()
    }

    /// Evaluates the full `mixes` × `schemes` grid in parallel and
    /// returns `grid[mix_index][scheme_index]` pairs of raw result and
    /// normalized metrics.
    ///
    /// Solo runs are primed first (in parallel, one per distinct
    /// workload) so the grid jobs never serialize on the solo cache.
    pub fn evaluate_grid(
        &self,
        mixes: &[Mix],
        schemes: &[Scheme],
    ) -> Vec<Vec<(SimResult, MultiProgramMetrics)>> {
        self.prime_solos(mixes);
        let jobs: Vec<(Mix, Scheme)> = mixes
            .iter()
            .flat_map(|m| schemes.iter().map(move |s| (m.clone(), s.clone())))
            .collect();
        let mut results = self.run_jobs(&jobs).into_iter();
        mixes
            .iter()
            .map(|mix| {
                let solo = self.solo_ipcs(mix);
                schemes
                    .iter()
                    .map(|_| {
                        #[expect(clippy::expect_used, reason = "one result per job")]
                        let result = results.next().expect("one result per job");
                        let metrics = MultiProgramMetrics::new(&result.ipcs(), &solo);
                        (result, metrics)
                    })
                    .collect()
            })
            .collect()
    }

    /// Computes (and caches) the solo result of every distinct workload
    /// in `mixes`, in parallel.
    pub fn prime_solos(&self, mixes: &[Mix]) {
        let mut workloads: Vec<SpecWorkload> =
            mixes.iter().flat_map(|m| m.workloads().iter().copied()).collect();
        workloads.sort();
        workloads.dedup();
        parallel_map(self.jobs, &workloads, |&w| self.solo(w));
    }

    /// An [`Evaluator`](crate::Evaluator) pre-seeded with every solo
    /// result this runner has computed, for serial code paths that want
    /// the classic interface.
    pub fn primed_evaluator(&self) -> crate::Evaluator {
        let mut eval = crate::Evaluator::new(self.config);
        for (w, r) in self.solo_cache.snapshot() {
            eval.prime_solo(w, r);
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_serial_fallback() {
        let items = [1u64, 2, 3];
        assert_eq!(parallel_map(1, &items, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(0, &items, |&x| x + 1), vec![2, 3, 4]);
        let empty: [u64; 0] = [];
        assert!(parallel_map(4, &empty, |&x| x).is_empty());
    }

    #[test]
    fn try_parallel_map_isolates_panics() {
        let items: Vec<u64> = (0..40).collect();
        let policy = JobPolicy { max_retries: 0, watchdog_secs: None };
        let report = try_parallel_map(4, &items, &policy, |&x| {
            assert!(!x.is_multiple_of(7), "injected test panic on {x}");
            x * 3
        });
        assert!(report.stuck.is_empty());
        for (i, result) in report.results.iter().enumerate() {
            if (i as u64).is_multiple_of(7) {
                let failure = result.as_ref().expect_err("multiples of 7 panic");
                assert_eq!(failure.index, i);
                assert_eq!(failure.attempts, 1);
                assert!(failure.message.contains("injected test panic"), "{}", failure.message);
            } else {
                assert_eq!(result.as_ref().ok(), Some(&(i as u64 * 3)));
            }
        }
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items = [0u64];
        let policy = JobPolicy { max_retries: 2, watchdog_secs: None };
        let report = try_parallel_map(1, &items, &policy, |_| -> u64 {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always fails");
        });
        let failure = report.results[0].as_ref().expect_err("job always panics");
        assert_eq!(failure.attempts, 3, "1 initial + 2 retries");
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_recovers_transient_panics() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items = [7u64];
        let policy = JobPolicy { max_retries: 1, watchdog_secs: None };
        let report = try_parallel_map(1, &items, &policy, |&x| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            x
        });
        assert_eq!(report.results[0].as_ref().ok(), Some(&7));
    }

    #[test]
    fn watchdog_flags_but_does_not_kill() {
        let items: Vec<u64> = vec![0, 1, 2, 3];
        let policy = JobPolicy { max_retries: 0, watchdog_secs: Some(0) };
        let report = try_parallel_map(4, &items, &policy, |&x| {
            if x == 2 {
                // A deliberately slow (test-only) job the zero-second
                // watchdog must flag while letting it finish.
                std::thread::sleep(std::time::Duration::from_millis(120));
            }
            x + 1
        });
        assert!(report.results.iter().all(Result::is_ok), "no job was killed");
        assert!(
            report.stuck.iter().any(|s| s.index == 2),
            "slow job flagged; stuck = {:?}",
            report.stuck
        );
    }

    #[test]
    fn parallel_map_panics_with_job_context() {
        let items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, &items, |&x| {
                assert!(x != 5, "boom on five");
                x
            })
        });
        let payload = caught.expect_err("must propagate");
        let message = panic_message(payload.as_ref());
        assert!(message.contains("job 5"), "message names the job: {message}");
        assert!(message.contains("boom on five"), "message keeps the cause: {message}");
    }

    #[test]
    fn solo_cache_computes_once() {
        let runner = Runner::new(SimConfig::demo()).with_jobs(4);
        // Hammer the same workload from many threads; OnceLock must hand
        // everyone the same result.
        let items = [SpecWorkload::HmmerLike; 16];
        let results = parallel_map(4, &items, |&w| runner.solo(w));
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(runner.solo_cache.snapshot().len(), 1);
    }

    #[test]
    fn solo_cache_survives_poisoning() {
        let runner = Runner::new(SimConfig::demo());
        // Poison the cells mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = runner.solo_cache.cells.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(runner.solo_cache.cells.is_poisoned(), "lock is poisoned");
        // Lookups must still work: the cached values are plain data.
        let solo = runner.solo(SpecWorkload::HmmerLike);
        assert!(solo.ipc > 0.0);
        assert_eq!(runner.solo_cache.snapshot().len(), 1);
    }

    #[test]
    fn poisoned_cache_yields_the_same_results_as_a_fresh_runner() {
        let config = SimConfig::demo();
        let runner = Runner::new(config);
        // A job panics while holding the memoization lock; the
        // PoisonError::into_inner recovery path must not change what
        // later lookups return.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = runner.solo_cache.cells();
            panic!("job died holding the cells lock");
        }));
        assert!(runner.solo_cache.cells.is_poisoned(), "lock is poisoned");
        let fresh = Runner::new(config);
        for w in [SpecWorkload::HmmerLike, SpecWorkload::GobmkLike] {
            assert_eq!(runner.solo(w), fresh.solo(w), "poison recovery changed {w:?}");
        }
        assert_eq!(runner.solo_cache.snapshot(), fresh.solo_cache.snapshot());
    }

    #[test]
    fn grid_matches_serial_evaluator() {
        let config = SimConfig::demo();
        let mixes = [
            Mix::new("a", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]),
            Mix::new("b", vec![SpecWorkload::Bzip2Like, SpecWorkload::SjengLike]),
        ];
        let schemes = [Scheme::Lru, Scheme::nucache_default()];

        let runner = Runner::new(config).with_jobs(4);
        let grid = runner.evaluate_grid(&mixes, &schemes);

        let mut eval = crate::Evaluator::new(config);
        for (i, mix) in mixes.iter().enumerate() {
            for (j, scheme) in schemes.iter().enumerate() {
                let (result, metrics) = eval.evaluate(mix, scheme);
                assert_eq!(grid[i][j].0, result, "mix {i} scheme {j}");
                assert_eq!(
                    grid[i][j].1.weighted_speedup, metrics.weighted_speedup,
                    "mix {i} scheme {j}"
                );
            }
        }
    }

    #[test]
    fn primed_evaluator_reuses_solos() {
        let runner = Runner::new(SimConfig::demo());
        runner.solo(SpecWorkload::HmmerLike);
        let eval = runner.primed_evaluator();
        assert_eq!(eval.cached_solo_runs(), 1);
    }
}
