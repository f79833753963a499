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
//!   [`JobFailure`] (index, message) while the other workers keep
//!   draining the queue; a [`JobPolicy`] adds a wall-clock watchdog
//!   that *flags* (never kills) stuck jobs. A failed job is not retried:
//!   it is a pure function of its inputs, so it would fail again;
//! * [`Runner`] owns everything one run shares: the worker count, the
//!   policy, the fault plan, the telemetry directory, one job counter
//!   for every stream name and fault decision, a thread-safe memo of
//!   solo runs keyed by (configuration, workload), and the log of
//!   failures, degradations and the first configuration run that the
//!   run manifest is written from.
//!
//! With a seeded fault plan ([`nucache_common::fault`]), the runner
//! deterministically injects worker panics and telemetry I/O errors so
//! every one of those degradation paths is exercised; with no plan,
//! results are bit-identical to a runner without any of this machinery.
//!
//! # Examples
//!
//! ```
//! use nucache_sim::runner::Runner;
//! use nucache_sim::{Scheme, SimConfig};
//! use nucache_trace::{Mix, SpecWorkload};
//!
//! let runner = Runner::new().with_jobs(2);
//! let mixes = [Mix::new("m", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike])];
//! let schemes = [Scheme::Lru, Scheme::nucache_default()];
//! let grid = runner.evaluate_grid(&SimConfig::demo(), &mixes, &schemes);
//! assert_eq!(grid.len(), 1);
//! assert_eq!(grid[0].len(), 2);
//! assert!(grid[0][0].1.weighted_speedup > 0.0);
//! ```

use crate::config::SimConfig;
use crate::driver::{run_mix, run_mix_telemetry, run_solo, CoreResult, SimResult};
use crate::scheme::Scheme;
use crate::telemetry::{stream_path, FailureRecord, TelemetrySpec};
use nucache_common::fault::{FaultPlan, FaultSite};
use nucache_common::telemetry::JsonlSink;
use nucache_cpu::MultiProgramMetrics;
use nucache_trace::{Mix, SpecWorkload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};

/// Default watchdog threshold: far beyond any healthy job on this
/// workload set, so flags mean "investigate", not noise.
pub const DEFAULT_WATCHDOG_SECS: u64 = 120;

/// Fault-handling knobs for [`try_parallel_map`] and [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPolicy {
    /// Wall-clock seconds after which an in-flight job is flagged as
    /// stuck (warned and noted in the run manifest — never killed, since
    /// a slow simulation still produces a correct result). `None`
    /// disables the watchdog.
    pub watchdog_secs: Option<u64>,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy { watchdog_secs: Some(DEFAULT_WATCHDOG_SECS) }
    }
}

impl JobPolicy {
    /// The default policy with `NUCACHE_WATCHDOG_SECS` applied when set
    /// (`0` disables the watchdog; an unparsable value warns once and is
    /// ignored).
    pub(crate) fn from_env() -> Self {
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

/// A job that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} failed: {}", self.index, self.message)
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
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// Runs one item under `catch_unwind`.
fn run_isolated<T, R>(
    index: usize,
    item: &T,
    f: &(impl Fn(&T) -> R + Sync),
) -> Result<R, JobFailure> {
    catch_unwind(AssertUnwindSafe(|| f(item)))
        .map_err(|payload| JobFailure { index, message: panic_message(payload.as_ref()) })
}

/// Applies `f` to every item on up to `jobs` worker threads with full
/// panic isolation, returning one `Result` per item in input order.
///
/// Items are claimed through a shared atomic cursor (cheap work
/// stealing: a worker stuck on a slow job doesn't hold up the queue).
/// Each job runs under `catch_unwind`: a panic is caught and recorded as
/// a [`JobFailure`] carrying the item index and panic message — the
/// remaining items are unaffected and always run to completion. With `policy.watchdog_secs`
/// set, a monitor thread flags (warns about, but never kills) jobs
/// whose wall-clock time exceeds the threshold; the flags are reported
/// in [`ParallelReport::stuck`]. Wall time is observed only for
/// flagging — it cannot influence any result.
///
/// With `jobs <= 1` or a single item the map runs inline on the
/// caller's thread (panic isolation still applies; the watchdog
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
        let results = items.iter().enumerate().map(|(i, item)| run_isolated(i, item, &f)).collect();
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
                let result = run_isolated(i, item, &f);
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
/// watchdog: scheduling is identical, output order never
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
    let report = try_parallel_map(jobs, items, &JobPolicy { watchdog_secs: None }, f);
    report
        .results
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(failure) => panic!("{failure}"),
        })
        .collect()
}

/// Solo-run cells keyed by (configuration, workload).
type SoloCells = BTreeMap<(SimConfig, SpecWorkload), Arc<OnceLock<CoreResult>>>;

/// Thread-safe memo of solo runs, keyed by (configuration, workload).
///
/// Each key maps to an [`OnceLock`] cell: the first thread to need a
/// solo result computes it, any thread arriving meanwhile blocks on the
/// cell instead of duplicating the (expensive) run.
#[derive(Debug, Default)]
struct SoloCache {
    cells: Mutex<SoloCells>,
}

impl SoloCache {
    /// The cell map, recovering from poisoning: the map holds only plain
    /// data (keys and completed results), and entries are inserted
    /// atomically, so one panicked job must not wedge every later solo
    /// lookup.
    fn cells(&self) -> std::sync::MutexGuard<'_, SoloCells> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, config: &SimConfig, workload: SpecWorkload) -> CoreResult {
        let cell = {
            let mut map = self.cells();
            Arc::clone(map.entry((*config, workload)).or_default())
        };
        cell.get_or_init(|| run_solo(config, workload)).clone()
    }
}

/// Runs the simulation jobs of one run over worker threads and keeps
/// what the run shares: the worker count, the [`JobPolicy`], the fault
/// plan, the telemetry directory, the job counter, the solo memo and
/// the failure and degradation log.
///
/// Results are bit-identical at any worker count: jobs are pure, the
/// output order is fixed by submission order, and the solo memo only
/// changes *who* computes a result, never its value. Failure handling
/// follows the same rule — a panicking job is isolated, retried per the
/// policy, recorded in this runner's failure log and (through
/// [`Runner::try_run_jobs`]) surfaced as a per-job `Result`, while the
/// rest of the batch completes normally.
///
/// Every batch draws its job indices from one counter, so one runner
/// per run names every telemetry stream uniquely and never repeats a
/// fault decision.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    policy: JobPolicy,
    fault_plan: Option<FaultPlan>,
    telemetry: Option<TelemetrySpec>,
    solo_cache: SoloCache,
    /// Next job index — monotonic across batches so a run never reuses
    /// a JSONL stream name and fault decisions differ between batches.
    stream_index: AtomicUsize,
    /// The configuration of the first batch, for the run manifest.
    first_config: OnceLock<SimConfig>,
    failures: Mutex<Vec<FailureRecord>>,
    degradations: Mutex<Vec<String>>,
    /// Latch for the one stderr warning a run's degradations get.
    warned: Once,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// Creates a runner with one worker per available CPU, the default
    /// [`JobPolicy`] with `NUCACHE_WATCHDOG_SECS` applied, no fault
    /// injection and no telemetry.
    pub fn new() -> Self {
        Runner {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            policy: JobPolicy::from_env(),
            fault_plan: None,
            telemetry: None,
            solo_cache: SoloCache::default(),
            stream_index: AtomicUsize::new(0),
            first_config: OnceLock::new(),
            failures: Mutex::new(Vec::new()),
            degradations: Mutex::new(Vec::new()),
            warned: Once::new(),
        }
    }

    /// Overrides the worker count (`0` is treated as `1`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the watchdog policy.
    pub fn with_policy(mut self, policy: JobPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets fault injection: `Some(plan)` injects that plan's faults
    /// into this runner's jobs, `None` disables injection.
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets telemetry recording: `Some(spec)` streams every mix job into
    /// its own JSONL file under `spec.dir`, `None` disables it.
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

    /// The watchdog policy in use.
    pub const fn policy(&self) -> &JobPolicy {
        &self.policy
    }

    /// The configuration of the first job batch this runner ran, which
    /// the run manifest records (configuration sweeps record their base
    /// point).
    pub fn first_config(&self) -> Option<SimConfig> {
        self.first_config.get().copied()
    }

    /// Records a failed job or step for the run manifest and
    /// `failures.json`. Callers that recover from a failure still note
    /// it — a manifest describing partial results must say what is
    /// missing and why.
    pub fn note_failure(&self, record: FailureRecord) {
        self.failures.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }

    /// Records a graceful degradation (a telemetry stream lost to an I/O
    /// error, a job flagged as stuck, …) for the manifest's `notes`
    /// section. The first note also warns on stderr; later ones are
    /// manifest-only so a batch with many degraded streams does not bury
    /// real output.
    pub fn note_degradation(&self, note: impl Into<String>) {
        let note = note.into();
        self.warned.call_once(|| {
            eprintln!("[degraded] {note} (further degradations recorded in the run manifest only)");
        });
        self.degradations.lock().unwrap_or_else(PoisonError::into_inner).push(note);
    }

    /// Every failure noted so far, sorted by (stage, index) so the
    /// listing is deterministic even though workers note failures in
    /// completion order.
    pub fn failures(&self) -> Vec<FailureRecord> {
        // Copy out under a temporary guard, then sort without the lock.
        let mut failures =
            Vec::clone(&self.failures.lock().unwrap_or_else(PoisonError::into_inner));
        failures.sort_by(|a, b| (&a.stage, a.index).cmp(&(&b.stage, b.index)));
        failures
    }

    /// Every degradation noted so far, sorted for a deterministic
    /// listing.
    pub fn degradations(&self) -> Vec<String> {
        let mut notes =
            Vec::clone(&self.degradations.lock().unwrap_or_else(PoisonError::into_inner));
        notes.sort();
        notes
    }

    /// Solo result for `workload` under `config`, computed on first use
    /// and memoized.
    pub fn solo(&self, config: &SimConfig, workload: SpecWorkload) -> CoreResult {
        self.solo_cache.get(config, workload)
    }

    /// Runs one job, with telemetry when configured. A telemetry stream
    /// that cannot be created degrades to no telemetry for that job; a
    /// stream that cannot be written is dropped and its partial file
    /// removed. Both degrade with a single stderr warning plus a
    /// manifest note, and never change the simulation result.
    fn run_one(&self, config: &SimConfig, index: usize, mix: &Mix, scheme: &Scheme) -> SimResult {
        let Some(spec) = &self.telemetry else {
            return run_mix(config, mix, scheme);
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
                    run_mix_telemetry(config, mix, scheme, spec.snapshot_interval, &mut sink);
                if let Err(e) = sink.finish() {
                    self.note_degradation(format!(
                        "telemetry stream {} incomplete ({e}); partial file removed, job result kept",
                        path.display()
                    ));
                    let _ = std::fs::remove_file(&path);
                }
                result
            }
            Err(e) => {
                self.note_degradation(format!(
                    "creating telemetry stream {} failed ({e}); job ran without telemetry",
                    path.display()
                ));
                run_mix(config, mix, scheme)
            }
        }
    }

    /// Simulates every (mix, scheme) job under `config` with panic
    /// isolation, returning one `Result` per job in submission order.
    ///
    /// A job that panics yields an `Err`
    /// with its index and panic message; every other job completes and
    /// yields its result — one poisoned mix cannot discard a batch. Each
    /// failure is also recorded in this runner's failure log
    /// ([`Runner::failures`]) so run manifests list it, and
    /// watchdog-flagged jobs are noted as degradations.
    ///
    /// With telemetry on, each job additionally streams its events into
    /// its own `NNN_mix__scheme.jsonl` file (no shared writer, so worker
    /// count never affects stream contents); the simulation results are
    /// identical either way. With a fault plan, worker panics and
    /// telemetry I/O errors are injected per the plan's schedule.
    pub fn try_run_jobs(
        &self,
        config: &SimConfig,
        jobs: &[(Mix, Scheme)],
    ) -> Vec<Result<SimResult, JobFailure>> {
        let _ = self.first_config.set(*config);
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
                self.run_one(config, index, mix, scheme)
            });
        for s in &report.stuck {
            let (mix, scheme) = &jobs[s.index];
            self.note_degradation(format!(
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
                    self.note_failure(FailureRecord {
                        stage: "job".to_string(),
                        job: Some(format!("{}/{}", mix.name(), scheme.name())),
                        index: Some((base + i) as u64),
                        message: failure.message.clone(),
                    });
                    JobFailure { index: i, ..failure }
                })
            })
            .collect()
    }

    /// Simulates every (mix, scheme) job under `config`, fanning out
    /// over the worker pool; results are in job order.
    ///
    /// This is the infallible façade over [`Runner::try_run_jobs`] for
    /// callers that need every result (a figure cannot be assembled from
    /// a grid with holes).
    ///
    /// # Panics
    ///
    /// Panics if any job ultimately fails. Every other job still runs to
    /// completion first and all failures are recorded in the failure
    /// log, so an outer `catch_unwind` (as in `run_all`) loses only the
    /// aborted step, not the batch's diagnostics.
    pub fn run_jobs(&self, config: &SimConfig, jobs: &[(Mix, Scheme)]) -> Vec<SimResult> {
        let results = self.try_run_jobs(config, jobs);
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

    /// Evaluates the full `mixes` × `schemes` grid under `config` in
    /// parallel and returns `grid[mix_index][scheme_index]` pairs of raw
    /// result and normalized metrics.
    ///
    /// Solo runs are primed first (in parallel, one per distinct
    /// workload) so the grid jobs never serialize on the solo memo.
    pub fn evaluate_grid(
        &self,
        config: &SimConfig,
        mixes: &[Mix],
        schemes: &[Scheme],
    ) -> Vec<Vec<(SimResult, MultiProgramMetrics)>> {
        let mut workloads: Vec<SpecWorkload> =
            mixes.iter().flat_map(|m| m.workloads().iter().copied()).collect();
        workloads.sort();
        workloads.dedup();
        parallel_map(self.jobs, &workloads, |&w| self.solo(config, w));
        let jobs: Vec<(Mix, Scheme)> = mixes
            .iter()
            .flat_map(|m| schemes.iter().map(move |s| (m.clone(), s.clone())))
            .collect();
        let mut results = self.run_jobs(config, &jobs).into_iter();
        mixes
            .iter()
            .map(|mix| {
                let solo: Vec<f64> =
                    mix.workloads().iter().map(|&w| self.solo(config, w).ipc).collect();
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
        let policy = JobPolicy { watchdog_secs: None };
        let report = try_parallel_map(4, &items, &policy, |&x| {
            assert!(!x.is_multiple_of(7), "injected test panic on {x}");
            x * 3
        });
        assert!(report.stuck.is_empty());
        for (i, result) in report.results.iter().enumerate() {
            if (i as u64).is_multiple_of(7) {
                let failure = result.as_ref().expect_err("multiples of 7 panic");
                assert_eq!(failure.index, i);
                assert!(failure.message.contains("injected test panic"), "{}", failure.message);
            } else {
                assert_eq!(result.as_ref().ok(), Some(&(i as u64 * 3)));
            }
        }
    }

    #[test]
    fn a_failed_job_runs_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items = [0u64];
        let report = try_parallel_map(1, &items, &JobPolicy::default(), |_| -> u64 {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always fails");
        });
        let failure = report.results[0].as_ref().expect_err("job always panics");
        assert_eq!(failure.message, "always fails");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry");
    }

    #[test]
    fn watchdog_flags_but_does_not_kill() {
        let items: Vec<u64> = vec![0, 1, 2, 3];
        let policy = JobPolicy { watchdog_secs: Some(0) };
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

    /// The settled solo results, in key order.
    fn settled(runner: &Runner) -> Vec<(SpecWorkload, CoreResult)> {
        let cells: Vec<_> =
            runner.solo_cache.cells().iter().map(|(&(_, w), cell)| (w, Arc::clone(cell))).collect();
        cells.into_iter().filter_map(|(w, cell)| cell.get().map(|r| (w, r.clone()))).collect()
    }

    #[test]
    fn solo_cache_computes_once() {
        let config = SimConfig::demo();
        let runner = Runner::new().with_jobs(4);
        // Hammer the same workload from many threads; OnceLock must hand
        // everyone the same result.
        let items = [SpecWorkload::HmmerLike; 16];
        let results = parallel_map(4, &items, |&w| runner.solo(&config, w));
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(settled(&runner).len(), 1);
    }

    #[test]
    fn solo_cache_keys_by_configuration() {
        // One runner serves several configurations (the fig9 shape):
        // each (configuration, workload) pair is its own solo run.
        let small = SimConfig::demo();
        let large = small.with_llc(nucache_cache::CacheGeometry::new(128 * 1024, 16, 64));
        let runner = Runner::new();
        for config in [small, large] {
            assert_eq!(
                runner.solo(&config, SpecWorkload::McfLike),
                run_solo(&config, SpecWorkload::McfLike)
            );
        }
        assert_eq!(settled(&runner).len(), 2);
    }

    #[test]
    fn solo_cache_survives_poisoning() {
        let runner = Runner::new();
        // Poison the cells mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = runner.solo_cache.cells.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(runner.solo_cache.cells.is_poisoned(), "lock is poisoned");
        // Lookups must still work: the cached values are plain data.
        let solo = runner.solo(&SimConfig::demo(), SpecWorkload::HmmerLike);
        assert!(solo.ipc > 0.0);
        assert_eq!(settled(&runner).len(), 1);
    }

    #[test]
    fn poisoned_cache_yields_the_same_results_as_a_fresh_runner() {
        let config = SimConfig::demo();
        let runner = Runner::new();
        // A job panics while holding the memoization lock; the
        // PoisonError::into_inner recovery path must not change what
        // later lookups return.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = runner.solo_cache.cells();
            panic!("job died holding the cells lock");
        }));
        assert!(runner.solo_cache.cells.is_poisoned(), "lock is poisoned");
        let fresh = Runner::new();
        for w in [SpecWorkload::HmmerLike, SpecWorkload::GobmkLike] {
            assert_eq!(
                runner.solo(&config, w),
                fresh.solo(&config, w),
                "poison recovery changed {w:?}"
            );
        }
        assert_eq!(settled(&runner), settled(&fresh));
    }

    #[test]
    fn grid_matches_direct_runs() {
        let config = SimConfig::demo();
        let mixes = [
            Mix::new("a", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]),
            Mix::new("b", vec![SpecWorkload::Bzip2Like, SpecWorkload::SjengLike]),
        ];
        let schemes = [Scheme::Lru, Scheme::nucache_default()];

        let runner = Runner::new().with_jobs(4);
        let grid = runner.evaluate_grid(&config, &mixes, &schemes);

        for (i, mix) in mixes.iter().enumerate() {
            let solo: Vec<f64> =
                mix.workloads().iter().map(|&w| run_solo(&config, w).ipc).collect();
            for (j, scheme) in schemes.iter().enumerate() {
                let result = run_mix(&config, mix, scheme);
                let metrics = MultiProgramMetrics::new(&result.ipcs(), &solo);
                assert_eq!(grid[i][j].0, result, "mix {i} scheme {j}");
                assert_eq!(
                    grid[i][j].1.weighted_speedup, metrics.weighted_speedup,
                    "mix {i} scheme {j}"
                );
            }
        }
    }

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let runner = Runner::new();
        let mix = Mix::new("m", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]);
        let grid = runner.evaluate_grid(&SimConfig::demo(), &[mix], &[Scheme::Lru]);
        let (result, metrics) = &grid[0][0];
        assert_eq!(metrics.num_cores(), 2);
        // Friendly co-runners on a demo cache: each core should retain a
        // decent fraction of its solo performance.
        assert!(metrics.weighted_speedup > 1.0, "ws = {}", metrics.weighted_speedup);
        assert!(metrics.weighted_speedup <= 2.0 + 1e-9);
        assert_eq!(result.per_core.len(), 2);
    }

    #[test]
    fn speedups_do_not_exceed_solo_by_much() {
        // Sharing can only help via extra capacity; with disjoint address
        // spaces a core cannot beat its solo IPC by more than noise.
        let runner = Runner::new();
        let mix = Mix::new("m", vec![SpecWorkload::Bzip2Like, SpecWorkload::SjengLike]);
        let grid = runner.evaluate_grid(&SimConfig::demo(), &[mix], &[Scheme::Lru]);
        for s in &grid[0][0].1.per_core_speedup {
            assert!(*s <= 1.05, "per-core speedup {s} > 1.05 is implausible");
            assert!(*s > 0.0);
        }
    }

    #[test]
    fn failure_log_lists_sorted() {
        let runner = Runner::new();
        for (job, index) in [("b/lru", 7), ("a/lru", 2)] {
            runner.note_failure(FailureRecord {
                stage: "job".into(),
                job: Some(job.into()),
                index: Some(index),
                message: "boom".into(),
            });
        }
        let failures = runner.failures();
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].index, Some(2), "sorted by index within a stage");
        assert_eq!(failures[1].index, Some(7));
    }
}
