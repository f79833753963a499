//! Deterministic fault injection for pipeline robustness testing.
//!
//! The experiment pipeline must degrade predictably under partial
//! failure: one panicking simulation job or one unwritable telemetry
//! stream cannot be allowed to discard a whole batch of completed
//! results. Those degradation paths are only trustworthy if they are
//! exercised, so this module defines a seeded [`FaultPlan`] that
//! injects failures at well-known sites:
//!
//! * [`FaultSite::WorkerPanic`] — a simulation job panics in its worker
//!   thread (exercises panic isolation in the runner);
//! * [`FaultSite::TelemetryCreate`] — creating a JSONL event stream
//!   fails (exercises the degrade-to-Null-sink path);
//! * [`FaultSite::TelemetryWrite`] — writing an event stream fails
//!   mid-run (exercises deferred-error surfacing and manifest notes);
//! * [`FaultSite::ServeBatch`] — a load-generator request batch panics
//!   while holding a shard lock (exercises poisoned-shard recovery).
//!
//! Decisions are a pure function of `(plan seed, site, index)` — the
//! same plan always fails the same jobs — so a faulted run is exactly as
//! reproducible as a clean one, and re-running an injected failure
//! fails again (injection models a deterministic bug, not a transient
//! blip).
//!
//! A plan is passed explicitly to whatever injects it (the simulation
//! runner, the load generator), from their `--inject-faults SEED`
//! flags; with no plan every injection site is a `None` check.
//!
//! # Examples
//!
//! ```
//! use nucache_common::fault::{FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new(42);
//! // Deterministic: the same (site, index) always gives the same answer.
//! let a = plan.should_fault(FaultSite::WorkerPanic, 3);
//! assert_eq!(a, plan.should_fault(FaultSite::WorkerPanic, 3));
//! // Roughly one in eight worker jobs faults.
//! let faulted = (0..1000).filter(|&i| plan.should_fault(FaultSite::WorkerPanic, i)).count();
//! assert!(faulted > 50 && faulted < 250);
//! ```

use crate::rng::DetRng;

/// A pipeline location where a [`FaultPlan`] can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A simulation job panics inside its worker thread.
    WorkerPanic,
    /// Creating a telemetry stream fails with an I/O error.
    TelemetryCreate,
    /// Writing a telemetry stream fails with an I/O error.
    TelemetryWrite,
    /// A load-generator request batch panics mid-batch while holding a
    /// shard lock (exercises poisoned-shard recovery in the concurrent
    /// cache front-end).
    ServeBatch,
}

impl FaultSite {
    /// Stable per-site salt separating the decision streams.
    const fn salt(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0x77_6f_72_6b,     // "work"
            FaultSite::TelemetryCreate => 0x74_63_72_74, // "tcrt"
            FaultSite::TelemetryWrite => 0x74_77_72_74,  // "twrt"
            FaultSite::ServeBatch => 0x73_72_76_62,      // "srvb"
        }
    }

    /// Injection probability per decision at this site.
    const fn rate(self) -> f64 {
        match self {
            FaultSite::WorkerPanic => 0.125,
            FaultSite::TelemetryCreate => 0.125,
            FaultSite::TelemetryWrite => 0.125,
            // Per-batch: a short smoke run issues tens of batches per
            // thread, so several shards get poisoned and recovered.
            FaultSite::ServeBatch => 0.125,
        }
    }

    /// Stable lowercase name used in injected error messages.
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::TelemetryCreate => "telemetry-create",
            FaultSite::TelemetryWrite => "telemetry-write",
            FaultSite::ServeBatch => "serve-batch",
        }
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// See the [module docs](self) for the overall model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// Creates a plan from a seed.
    pub const fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The plan's seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the `index`-th decision at `site` faults. Pure function
    /// of `(seed, site, index)`.
    pub fn should_fault(&self, site: FaultSite, index: u64) -> bool {
        DetRng::substream(self.seed ^ site.salt(), index).chance(site.rate())
    }

    /// The message injected failures carry; always contains the literal
    /// `"injected fault"` so logs and manifests are unambiguous about
    /// what was real.
    pub fn message(&self, site: FaultSite, index: u64) -> String {
        format!("injected fault: {} at index {index} (plan seed {})", site.name(), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7);
        for site in [
            FaultSite::WorkerPanic,
            FaultSite::TelemetryCreate,
            FaultSite::TelemetryWrite,
            FaultSite::ServeBatch,
        ] {
            for i in 0..64 {
                assert_eq!(plan.should_fault(site, i), plan.should_fault(site, i));
            }
        }
    }

    #[test]
    fn sites_decide_independently() {
        // The same indices must not fault at every site — the salts keep
        // the decision streams apart.
        let plan = FaultPlan::new(1);
        let at = |site| -> Vec<u64> { (0..512).filter(|&i| plan.should_fault(site, i)).collect() };
        assert_ne!(at(FaultSite::WorkerPanic), at(FaultSite::TelemetryCreate));
    }

    #[test]
    fn seeds_change_the_schedule() {
        let at = |seed| -> Vec<u64> {
            (0..512)
                .filter(|&i| FaultPlan::new(seed).should_fault(FaultSite::WorkerPanic, i))
                .collect()
        };
        assert_ne!(at(1), at(2));
    }

    #[test]
    fn worker_rate_is_roughly_one_in_eight() {
        let plan = FaultPlan::new(99);
        let n = (0..4096).filter(|&i| plan.should_fault(FaultSite::WorkerPanic, i)).count();
        assert!((300..750).contains(&n), "got {n} faults in 4096 decisions");
    }

    #[test]
    fn message_is_marked_injected() {
        let m = FaultPlan::new(3).message(FaultSite::WorkerPanic, 5);
        assert!(m.contains("injected fault"));
        assert!(m.contains("worker-panic"));
        assert!(m.contains("index 5"));
    }
}
