//! End-to-end multicore cache-hierarchy simulation for the NUcache
//! reproduction.
//!
//! Ties everything together: per-core synthetic traces (`nucache-trace`)
//! run through private L1/L2 stacks (`nucache-cache`) into a pluggable
//! shared LLC (baselines from `nucache-cache`/`nucache-partition`,
//! NUcache from `nucache-core`), with cycle accounting and
//! multiprogrammed metrics from `nucache-cpu`.
//!
//! The central types:
//!
//! * [`SimConfig`] — the full system description (Table 1);
//! * [`Scheme`] — which shared-LLC organization to instantiate;
//! * [`run_mix`] — simulate one multiprogrammed mix under one scheme;
//! * [`Runner`] — runs a run's jobs in parallel, memoizes the solo runs
//!   that normalization needs, and keeps the run's failure log;
//! * [`telemetry`] — JSONL event streams and run manifests.
//!
//! # Execution model: memoization and parallelism
//!
//! Experiment figures re-run the same simulations many times over — the
//! same solo baselines normalize every scheme, and sweeps share their
//! base points. Two layers keep that cheap without giving up determinism:
//!
//! * **Memoization.** [`Runner`] computes each workload's solo
//!   (single-core, shared-LRU) run at most once per configuration and
//!   reuses it for every normalized metric of the run. Because all runs
//!   are deterministic functions of `(config, mix, scheme)`, a memoized
//!   result is indistinguishable from a fresh one.
//! * **Parallelism.** [`Runner`] fans independent (mix, scheme) jobs out
//!   across worker threads via [`parallel_map`], which preserves input
//!   order in its output vector: results land in the same slots at any
//!   `--jobs` value, so emitted tables are bit-identical whether run
//!   serially or on every core. Simulations share no mutable state —
//!   each job builds its own LLC, trace generators and clocks.
//!
//! Telemetry keeps the same properties: each job writes its own JSONL
//! stream (no shared writer), events carry no wall-clock timestamps, and
//! the driver emits them at deterministic points (issued-access interval
//! boundaries), so streams are reproducible byte-for-byte.
//!
//! # Fault tolerance
//!
//! The runner is built to lose as little as possible when something goes
//! wrong mid-batch (see DESIGN.md §11):
//!
//! * every job runs under `catch_unwind` — [`try_parallel_map`] /
//!   [`Runner::try_run_jobs`] return a per-item `Result`, so one
//!   panicking job is recorded as a [`JobFailure`] while the rest of the
//!   batch completes; a failed job is not retried, since every job is
//!   a pure function of its inputs and would fail again;
//! * telemetry I/O errors degrade (dropped stream, single stderr
//!   warning, manifest note) rather than abort — simulation results are
//!   never affected;
//! * a seeded fault plan ([`nucache_common::fault`], handed to the
//!   runner with [`Runner::with_fault_plan`], from `--inject-faults`)
//!   deterministically injects worker panics and telemetry I/O errors
//!   to exercise all of the above; with no plan these paths are pure
//!   observation and outputs are bit-identical to a fault-oblivious
//!   runner.
//!
//! Failures and degradations land in the runner's log
//! ([`Runner::note_failure`], [`Runner::note_degradation`]), from which
//! the run manifest's `failures` and `notes` sections are written.
//!
//! # Examples
//!
//! ```
//! use nucache_sim::{Scheme, SimConfig};
//! use nucache_trace::{Mix, SpecWorkload};
//!
//! let config = SimConfig::demo(); // small sizes for doctests
//! let mix = Mix::new("demo", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]);
//! let result = nucache_sim::run_mix(&config, &mix, &Scheme::Lru);
//! assert_eq!(result.per_core.len(), 2);
//! assert!(result.per_core[0].ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod config;
pub mod driver;
pub mod runner;
pub mod scheme;
pub mod telemetry;

pub use config::SimConfig;
pub use driver::{
    run_mix, run_mix_audited, run_mix_nucache, run_mix_on, run_mix_telemetry, run_solo,
    take_simulated_accesses, CoreResult, SimResult,
};
pub use nucache_cache::AuditStats;
pub use nucache_common::fault::{FaultPlan, FaultSite};
pub use runner::{panic_message, parallel_map, try_parallel_map, JobFailure, Runner};
pub use scheme::Scheme;
pub use telemetry::{write_manifest, FailureRecord, Manifest, TelemetrySpec};
