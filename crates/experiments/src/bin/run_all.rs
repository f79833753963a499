//! Runs every table and figure of the evaluation.
//!
//! Simulations inside each step fan out over a worker pool (`--jobs N`,
//! default: available parallelism); emitted CSVs are identical at any
//! worker count. One runner serves every step, so solo runs are shared
//! across figures and every job of the evaluation gets its own index.
//! Per-step wall time and simulation throughput land in
//! `bench_summary.json` next to the CSVs.
//!
//! A step that panics is reported and skipped — the remaining steps
//! still run, every failure lands in the manifest's `failures` section
//! and in `failures.json` next to the CSVs, and the process exits
//! non-zero. Within a step, the runner isolates panicking jobs the same
//! way (see `DESIGN.md` §11), so partial results survive as far as each
//! figure allows.
//! `--telemetry DIR` streams every simulation's events into DIR and
//! writes a single `manifest.json` covering the whole evaluation.
//! `--inject-faults SEED` deterministically injects worker panics and
//! I/O errors to exercise all of the above.

#![allow(clippy::disallowed_types, reason = "wall time never reaches a simulation")]

use nucache_experiments::{figs, tables};
use nucache_sim::{panic_message, take_simulated_accesses, FailureRecord, Runner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

struct StepStats {
    id: &'static str,
    seconds: f64,
    simulated_accesses: u64,
}

fn write_bench_summary(jobs: usize, total_seconds: f64, steps: &[StepStats]) {
    let path = nucache_experiments::out_dir().join("bench_summary.json");
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"quick\": {},\n", nucache_experiments::quick_mode()));
    json.push_str(&format!("  \"total_seconds\": {total_seconds:.3},\n"));
    json.push_str("  \"steps\": [\n");
    for (i, s) in steps.iter().enumerate() {
        let rate = if s.seconds > 0.0 { s.simulated_accesses as f64 / s.seconds } else { 0.0 };
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"simulated_accesses\": {}, \"accesses_per_sec\": {:.0}}}{}\n",
            s.id,
            s.seconds,
            s.simulated_accesses,
            rate,
            if i + 1 < steps.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, &json)
    };
    match write() {
        Ok(()) => eprintln!("[run_all] wrote {}", path.display()),
        Err(e) => eprintln!("[run_all] failed to write {}: {e}", path.display()),
    }
}

/// Runs every step on `runner`, isolating a panicking step.
fn run_steps(runner: &Runner) {
    let jobs = runner.jobs();
    let policy = runner.policy();
    let watchdog = match policy.watchdog_secs {
        Some(nucache_sim::runner::DEFAULT_WATCHDOG_SECS) => String::new(),
        Some(secs) => format!(", watchdog {secs}s"),
        None => ", watchdog off".to_string(),
    };
    let quick = match nucache_experiments::quick_divisor() {
        1 => String::new(),
        div => format!(", quick /{div}"),
    };
    eprintln!(
        "[run_all] using {jobs} worker thread{}{watchdog}{quick}",
        if jobs == 1 { "" } else { "s" },
    );

    let t0 = Instant::now();
    let mut stats: Vec<StepStats> = Vec::new();
    let mut failed_steps: Vec<&'static str> = Vec::new();
    take_simulated_accesses(); // discard anything counted before the first step
    let mut step = |name: &'static str, f: &dyn Fn(&Runner)| {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(runner)));
        let seconds = t.elapsed().as_secs_f64();
        let simulated_accesses = take_simulated_accesses();
        match outcome {
            Ok(()) if simulated_accesses > 0 => eprintln!(
                "[run_all] {name} done in {seconds:.1}s ({:.0} accesses/sec)",
                simulated_accesses as f64 / seconds.max(1e-9)
            ),
            Ok(()) => eprintln!("[run_all] {name} done in {seconds:.1}s"),
            Err(payload) => {
                // The panic message itself already went to stderr via the
                // default hook; record the step and move on.
                eprintln!("[run_all] {name} FAILED after {seconds:.1}s");
                failed_steps.push(name);
                runner.note_failure(FailureRecord {
                    stage: name.to_string(),
                    job: None,
                    index: None,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        stats.push(StepStats { id: name, seconds, simulated_accesses });
    };
    step("table1", &tables::table1);
    step("table3", &tables::table3);
    step("table4", &tables::table4);
    step("table2", &tables::table2);
    step("fig1", &figs::fig1);
    step("fig2", &figs::fig2);
    step("fig3", &figs::fig3);
    step("fig4", &figs::fig4);
    step("fig5", &|r| {
        figs::fig5(r);
    });
    step("fig6", &|r| {
        figs::fig6(r);
    });
    step("fig7", &|r| {
        figs::fig7(r);
    });
    step("fig8", &figs::fig8);
    step("fig9", &figs::fig9);
    step("fig10", &figs::fig10);
    step("fig11", &figs::fig11);
    step("fig12", &figs::fig12);
    let total = t0.elapsed().as_secs_f64();
    eprintln!("[run_all] total {total:.1}s");
    write_bench_summary(jobs, total, &stats);
    eprintln!("[run_all] results in {}", nucache_experiments::out_dir().display());
    if !failed_steps.is_empty() {
        eprintln!("[run_all] {} step(s) failed: {}", failed_steps.len(), failed_steps.join(", "));
    }
}

fn main() -> ExitCode {
    nucache_experiments::cli_run("run_all", run_steps)
}
