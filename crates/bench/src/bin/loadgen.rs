//! `nucache-bench loadgen`: the threaded closed-loop load generator.
//!
//! Drives the concurrent sharded NUcache front-end and/or the
//! lock-striped LRU baseline at a sweep of thread counts, reporting
//! ops/sec, latency quantiles and fault counters per point (see
//! [`nucache_bench::loadgen`] for the methodology — on a single-CPU
//! host, scaling comes from overlapping the simulated backend latency
//! on misses). CI runs it with `--inject-faults` as the concurrency
//! smoke; the front-end's CPU-bound timings come from perfbench's
//! `serve_rw` workload instead, since these sleep-bound numbers move
//! with host scheduling.
//!
//! Usage:
//!
//! ```text
//! loadgen [--threads LIST] [--duration-ms N] [--shards N]
//!         [--backend-us N] [--workload NAME] [--cache nucache|lru|both]
//!         [--inject-faults SEED] [--out PATH]
//! ```
//!
//! `--out` writes the JSON report (the run parameters plus one entry
//! per cache and thread count) to a file; otherwise it prints to
//! stdout.

use nucache_bench::loadgen::{run_nucache, run_striped_lru, LoadgenConfig, LoadgenReport};
use nucache_common::fault::FaultPlan;
use nucache_common::json::JsonValue;
use nucache_trace::SpecWorkload;
use std::process::ExitCode;
use std::time::Duration;

/// Which caches to sweep.
#[derive(Clone, Copy, PartialEq)]
enum CacheChoice {
    Nucache,
    Lru,
    Both,
}

fn run() -> Result<(), String> {
    let mut threads: Vec<usize> = vec![1, 4, 16, 64];
    let mut duration_ms: u64 = 500;
    let mut shards: usize = 16;
    let mut backend_us: u64 = 100;
    let mut workload = SpecWorkload::SphinxLike;
    let mut cache = CacheChoice::Both;
    let mut fault_plan = None;
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => {
                threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?;
                if threads.is_empty() {
                    return Err("--threads needs at least one count".to_string());
                }
            }
            "--duration-ms" => {
                duration_ms =
                    value("--duration-ms")?.parse().map_err(|e| format!("--duration-ms: {e}"))?
            }
            "--shards" => {
                shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--backend-us" => {
                backend_us =
                    value("--backend-us")?.parse().map_err(|e| format!("--backend-us: {e}"))?
            }
            "--workload" => {
                let name = value("--workload")?;
                workload = SpecWorkload::from_name(&name)
                    .ok_or(format!("--workload: unknown workload '{name}'"))?;
            }
            "--cache" => {
                cache = match value("--cache")?.as_str() {
                    "nucache" => CacheChoice::Nucache,
                    "lru" => CacheChoice::Lru,
                    "both" => CacheChoice::Both,
                    other => return Err(format!("--cache: '{other}' (nucache|lru|both)")),
                }
            }
            "--inject-faults" => {
                let seed = value("--inject-faults")?
                    .parse()
                    .map_err(|e| format!("--inject-faults: {e}"))?;
                fault_plan = Some(FaultPlan::new(seed));
            }
            "--out" => out_path = Some(value("--out")?),
            "--help" => {
                println!(
                    "loadgen [--threads LIST] [--duration-ms N] [--shards N] [--backend-us N] \
                     [--workload NAME] [--cache nucache|lru|both] [--inject-faults SEED] \
                     [--out PATH]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }

    let runs_for = |label: &str, f: &dyn Fn(&LoadgenConfig) -> LoadgenReport| {
        let mut runs = Vec::new();
        for &t in &threads {
            let mut cfg = LoadgenConfig::new(t, Duration::from_millis(duration_ms));
            cfg.shards = shards;
            cfg.backend = Duration::from_micros(backend_us);
            cfg.workload = workload;
            cfg.fault_plan = fault_plan;
            let report = f(&cfg);
            eprintln!(
                "[loadgen] {label} x{t}: {:.0} ops/sec, p99 {:?} ns, {} panics, {} recoveries",
                report.ops_per_sec, report.p99_ns, report.batch_panics, report.poison_recoveries
            );
            runs.push(report.to_json());
        }
        JsonValue::Arr(runs)
    };

    let mut fields = vec![
        ("shards", JsonValue::Num(shards as f64)),
        ("duration_ms", JsonValue::Num(duration_ms as f64)),
        ("backend_us", JsonValue::Num(backend_us as f64)),
        ("workload", JsonValue::Str(workload.name().to_string())),
        (
            "injected_fault_seed",
            fault_plan.map_or(JsonValue::Null, |p| JsonValue::Num(p.seed() as f64)),
        ),
    ];
    if cache != CacheChoice::Lru {
        fields.push(("nucache", runs_for("nucache", &run_nucache)));
    }
    if cache != CacheChoice::Nucache {
        fields.push(("striped_lru", runs_for("striped_lru", &run_striped_lru)));
    }

    let json = JsonValue::obj(fields).to_string_pretty();
    match &out_path {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("[loadgen] wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[loadgen] error: {e}");
            ExitCode::FAILURE
        }
    }
}
