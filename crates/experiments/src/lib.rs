//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the evaluation (see `DESIGN.md` §4) is
//! regenerated by a binary in `src/bin/`; the binaries are thin wrappers
//! over the functions in [`figs`] and [`tables`], so `run_all` can drive
//! the full evaluation in-process. Output goes to stdout as aligned
//! tables and to `target/experiments/*.csv` as CSV.
//!
//! Every binary runs through [`cli_run`], which parses `--jobs N`
//! (worker threads), `--telemetry DIR` (JSONL event streams plus a
//! `manifest.json`, see `DESIGN.md` §8) and `--inject-faults SEED`
//! (deterministic fault injection, see `DESIGN.md` §11) into one
//! [`Runner`] that every figure and table of the run shares; `report`
//! renders a telemetry directory back into human-readable epoch
//! timelines.
//!
//! A panicking experiment does not tear the process down mid-write:
//! [`finish_run`] catches it, records a [`FailureRecord`] in the
//! runner's log, still writes the manifest (with its `failures` section)
//! and `failures.json`, and exits non-zero.
//!
//! Set `NUCACHE_QUICK=1` to shrink run lengths ~4x for smoke runs, or
//! `NUCACHE_QUICK=N` (N > 1) to divide them by N.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod figs;
pub mod report;
pub mod tables;

use nucache_common::json::{self, JsonValue};
use nucache_common::table::Table;
use nucache_sim::args::Args;
use nucache_sim::telemetry::{git_revision, Manifest};
use nucache_sim::{panic_message, FailureRecord, FaultPlan, Runner, TelemetrySpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory experiment CSVs are written to.
pub fn out_dir() -> PathBuf {
    std::env::var_os("NUCACHE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Run-length divisor from `NUCACHE_QUICK`: unset, empty or
/// unparsable → 1 (full runs); `1` → 4 (the classic quick mode);
/// any larger N divides run lengths by N (for CI smoke runs).
pub fn quick_divisor() -> u64 {
    match std::env::var("NUCACHE_QUICK") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(1) => 4,
            Ok(n) if n > 1 => n,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Whether quick mode (shorter runs) is active.
pub fn quick_mode() -> bool {
    quick_divisor() > 1
}

/// Per-core (warmup, measure) access counts, honouring quick mode.
pub fn run_lengths() -> (u64, u64) {
    use nucache_sim::config::{BASELINE_MEASURE_ACCESSES, BASELINE_WARMUP_ACCESSES};
    let div = quick_divisor();
    ((BASELINE_WARMUP_ACCESSES / div).max(1), (BASELINE_MEASURE_ACCESSES / div).max(1))
}

/// Records experiment `name`'s failures in `failures.json` in
/// [`out_dir`], so a failed run leaves a machine-readable account next
/// to its partial CSVs even without telemetry enabled. The file keeps
/// one entry per experiment and a run replaces only its own: a clean
/// run drops its entry, leaves the others alone and removes the file
/// once it is empty.
fn write_failures_json(name: &str, failures: &[FailureRecord]) {
    let path = out_dir().join("failures.json");
    // A missing file, or one that is not an object of entries, counts as empty.
    let mut entries = match std::fs::read_to_string(&path).map(|text| json::parse(&text)) {
        Ok(Ok(JsonValue::Obj(pairs))) => pairs.into_iter().collect(),
        _ => BTreeMap::new(),
    };
    entries.remove(name);
    if !failures.is_empty() {
        let records = failures.iter().map(FailureRecord::to_json).collect();
        entries.insert(name.to_string(), JsonValue::Arr(records));
    }
    if entries.is_empty() {
        let _ = std::fs::remove_file(&path);
        return;
    }
    let json = JsonValue::Obj(entries.into_iter().collect());
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, json.to_string_pretty())
    };
    match write() {
        Ok(()) => eprintln!("[failures] wrote {}", path.display()),
        Err(e) => eprintln!("[failures] failed to write {}: {e}", path.display()),
    }
}

/// Prints a titled table and writes its CSV next to the other results.
/// A CSV that cannot be written degrades (warning + manifest note)
/// rather than failing the step — the table already went to stdout.
pub fn emit(runner: &Runner, id: &str, title: &str, table: &Table) {
    println!("\n=== {id}: {title} ===");
    print!("{}", table.to_text());
    let path = out_dir().join(format!("{id}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => runner.note_degradation(format!(
            "failed to write {}: {e}; table printed to stdout only",
            path.display()
        )),
    }
}

/// Standard command-line front-end for the figure and table binaries
/// and `run_all`: parses `--jobs N`, `--telemetry DIR`,
/// `--inject-faults SEED` and `--help` into one [`Runner`], then hands
/// `f` to [`finish_run`].
///
/// Returns the process exit code, so thin binaries are one line:
///
/// ```no_run
/// fn main() -> std::process::ExitCode {
///     nucache_experiments::cli_run("fig5_dual_core", |runner| {
///         nucache_experiments::figs::fig5(runner);
///     })
/// }
/// ```
pub fn cli_run(name: &str, f: impl FnOnce(&Runner)) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match runner_from_args(name, &argv) {
        Ok(Some(runner)) => finish_run(name, argv, &runner, f),
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => usage_error(&e),
    }
}

/// Prints a command-line error and returns the failing exit code.
pub fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("try --help");
    ExitCode::FAILURE
}

/// Parses the common flags into a runner; `None` after printing
/// `--help`.
fn runner_from_args(name: &str, argv: &[String]) -> Result<Option<Runner>, String> {
    let args = Args::parse(argv.iter().cloned()).map_err(|e| e.to_string())?;
    if args.flag("help") {
        println!("usage: {name} [--jobs N] [--telemetry DIR] [--inject-faults SEED]");
        println!("  --jobs N              worker threads (default: all cores)");
        println!("  --telemetry DIR       write JSONL event streams and manifest.json into DIR");
        println!("  --inject-faults SEED  deterministically inject worker panics and I/O errors");
        return Ok(None);
    }
    let jobs: usize = args.get_num("jobs", 0).map_err(|e| e.to_string())?;
    let telemetry = args.get_or("telemetry", "").to_string();
    let inject = args.get_or("inject-faults", "").to_string();
    args.reject_unknown().map_err(|e| e.to_string())?;
    let mut runner = Runner::new().with_telemetry(telemetry_spec(&telemetry)?);
    if jobs >= 1 {
        runner = runner.with_jobs(jobs);
    }
    if !inject.is_empty() {
        let seed: u64 =
            inject.parse().map_err(|_| format!("--inject-faults: bad seed '{inject}'"))?;
        eprintln!("[faults] injecting faults with plan seed {seed}");
        runner = runner.with_fault_plan(Some(FaultPlan::new(seed)));
    }
    Ok(Some(runner))
}

/// The telemetry spec for a `--telemetry DIR` value, creating `DIR`;
/// `None` for an empty value (telemetry off).
///
/// # Errors
///
/// Returns an error naming `DIR` when it cannot be created.
pub fn telemetry_spec(dir: &str) -> Result<Option<TelemetrySpec>, String> {
    if dir.is_empty() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    Ok(Some(TelemetrySpec::new(dir)))
}

/// Runs `f` on `runner` under `catch_unwind`, then writes
/// `failures.json` and — with telemetry on — the run's `manifest.json`
/// (configuration, git revision, wall time, streams, failures, notes)
/// from the runner's log.
///
/// Returns a failing exit code when `f` panicked or any failure was
/// noted, so partial results never exit as success.
pub fn finish_run(
    name: &str,
    argv: Vec<String>,
    runner: &Runner,
    f: impl FnOnce(&Runner),
) -> ExitCode {
    // Elapsed time feeds the run manifest only.
    #[expect(clippy::disallowed_types, reason = "never touches simulation state")]
    let t0 = std::time::Instant::now();
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(runner))) {
        runner.note_failure(FailureRecord {
            stage: name.to_string(),
            job: None,
            index: None,
            message: panic_message(payload.as_ref()),
        });
    }
    let failures = runner.failures();
    write_failures_json(name, &failures);
    let n_failures = failures.len();
    if let Some(spec) = runner.telemetry() {
        let manifest = Manifest {
            experiment: name.to_string(),
            argv,
            git_revision: git_revision(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            jobs: runner.jobs() as u64,
            quick: quick_mode(),
            config: runner.first_config(),
            streams: Vec::new(),
            failures,
            notes: runner.degradations(),
        };
        match nucache_sim::write_manifest(&spec.dir, &manifest) {
            Ok(path) => println!("[telemetry] wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing manifest in {}: {e}", spec.dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if n_failures > 0 {
        eprintln!("error: {name} recorded {n_failures} failure(s); see failures.json");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Geometric mean helper re-exported for binaries.
pub use nucache_common::stats::geomean;
