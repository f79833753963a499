//! End-to-end and per-layer benchmark of the NUcache workspace.
//!
//! ```text
//! perfbench --workload <sim_suite|kernel_tenants|serve_rw> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it also runs a traced copy of the workload that
//! records spans around the calls into each layer, derives the per-layer
//! metrics from them and writes the spans to `<out>/spans-<workload>.csv`.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is non-zero when any output check failed.

#![forbid(unsafe_code)]

mod host;
mod kernel_tenants;
mod refloop;
mod rng;
mod serve_rw;
mod sim_suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Keys per request in the two key-value workloads.
pub const REQUEST_KEYS: usize = 16;

/// The end-to-end metrics every untraced run reports, with units. Times
/// are at the nominal host speed (see `host.rs`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("hit_rate", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload never calls reads 0, and the run says which those are.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_access", "ns"),
    ("hierarchy.ns_per_access", "ns"),
    ("hierarchy.llc_share", "fraction"),
    ("llc.lru.ns_per_access", "ns"),
    ("llc.ucp.ns_per_access", "ns"),
    ("llc.pipp.ns_per_access", "ns"),
    ("llc.tadip.ns_per_access", "ns"),
    ("llc.nucache.ns_per_access", "ns"),
    ("llc.accesses", "count"),
    ("driver.self_ns_per_access", "ns"),
    ("evaluator.solo_s", "s"),
    ("kernel.get_hit_ns", "ns"),
    ("kernel.get_miss_ns", "ns"),
    ("kernel.put_ns", "ns"),
    ("tracker.record_miss_ns", "ns"),
    ("tracker.full_inserts", "count"),
    ("selector.compute_us", "us"),
    ("selector.epochs", "count"),
    ("kernel.occupancy", "fraction"),
    ("kernel.deli_hit_share", "fraction"),
    ("monitor.match_rate", "fraction"),
    ("concurrent.get_ns", "ns"),
    ("concurrent.put_ns", "ns"),
    ("concurrent.remove_ns", "ns"),
    ("concurrent.pump_us", "us"),
    ("concurrent.installs", "count"),
    ("concurrent.shard_skew", "ratio"),
    ("bench.host_speed", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Command-line settings of one run.
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Run the traced copy and report per-layer metrics.
    pub trace: bool,
    /// Directory for the span file.
    pub out: PathBuf,
    /// Process start, against which `seconds` is counted.
    pub started: Instant,
}

impl Settings {
    /// Whether the measurement budget is used up.
    pub fn expired(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Human-readable detail, printed before the result line.
    pub lines: Vec<String>,
    /// Metrics of the result line, in order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted (key operations, or simulation jobs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), 1, || format!("metric {name} is not finite ({value})"));
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Puts every metric of `table` on the result line, taking values
    /// from `values`; a metric `values` lacks reads 0 and is listed as
    /// not reached.
    pub fn metrics_from(&mut self, table: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        let mut unreached = Vec::new();
        for &(name, unit) in table {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            if value.is_none() {
                unreached.push(name);
            }
            self.metric(name, value.unwrap_or(0.0), unit);
        }
        for (name, _) in values {
            assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
        }
        if !unreached.is_empty() {
            self.line(format!(
                "not reached by this workload (reported as 0): {}",
                unreached.join(" ")
            ));
        }
    }

    /// Records a failed check covering `ops` operations (at least one).
    pub fn fail(&mut self, ops: u64, message: impl Into<String>) {
        self.failed += ops.max(1);
        self.failures.push(message.into());
    }

    /// Checks `ok`, recording a failure of `ops` operations otherwise.
    pub fn check(&mut self, ok: bool, ops: u64, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, message());
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    fn print(&self, workload: &str) {
        for l in &self.lines {
            println!("{l}");
        }
        for f in &self.failures {
            println!("FAILED CHECK: {f}");
        }
        let error_rate =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "{workload}: error_rate {error_rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

const USAGE: &str = "usage: perfbench --workload <sim_suite|kernel_tenants|serve_rw> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]";

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let settings = Settings {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        started: Instant::now(),
    };
    Ok((workload.ok_or("--workload is required")?, settings))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "sim_suite" => sim_suite::run(&settings),
        "kernel_tenants" => kernel_tenants::run(&settings),
        "serve_rw" => serve_rw::run(&settings),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print(&workload);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
