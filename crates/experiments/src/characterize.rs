//! Instrumented single-workload runs for the characterization figures.
//!
//! Figs. 1 and 2 look *inside* NUcache — the delinquent-PC tracker and
//! the Next-Use monitor — rather than at end-to-end performance, so this
//! module drives a workload through a private hierarchy into a concrete
//! [`NuCache`] instance (no trait object) and hands the instance back for
//! introspection.

use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_cache::SharedLlc;
use nucache_common::{AccessKind, CoreId};
use nucache_core::{KernelConfig, NuCache};
use nucache_sim::SimConfig;
use nucache_trace::{SpecWorkload, TraceGen};

/// Runs `workload` alone for `accesses` memory accesses and returns the
/// NUcache instance with its monitors populated.
///
/// The monitor samples every set (`monitor_shift = 0`) so the histograms
/// of Fig. 2 are as dense as possible; selection runs with the default
/// cost-benefit strategy so Fig. 1/2 reflect steady-state behaviour.
#[expect(clippy::cast_possible_truncation, reason = "access budgets are far below usize::MAX")]
pub(crate) fn characterize(workload: SpecWorkload, accesses: u64, config: &SimConfig) -> NuCache {
    let nucache_config = KernelConfig { monitor_shift: 0, ..KernelConfig::default() };
    let mut llc = NuCache::new(config.llc, 1, nucache_config);
    let core = CoreId::new(0);
    let mut hierarchy = PrivateHierarchy::new(core, config.l1, config.l2);
    let mut gen = TraceGen::new(&workload.spec(), core, config.seed);
    for access in gen.by_ref().take(accesses as usize) {
        if let PrivateOutcome::LlcAccess { writeback } =
            hierarchy.access(access.pc, access.addr.line(6), access.kind)
        {
            if let Some(wb) = writeback {
                llc.access(core, access.pc, wb, AccessKind::Write);
            }
            llc.access(core, access.pc, access.addr.line(6), access.kind);
        }
    }
    llc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_populates_monitors() {
        let config = SimConfig::demo();
        let llc = characterize(SpecWorkload::McfLike, 60_000, &config);
        assert!(llc.stats().misses > 0);
        assert!(!llc.tracker().is_empty());
        assert!(llc.monitor().sampled_accesses() > 0);
    }
}
