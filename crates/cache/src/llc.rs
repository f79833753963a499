//! The shared-LLC interface and the classic (policy-only) organization.

use crate::audit::AuditStats;
use crate::basic::BasicCache;
use crate::config::CacheGeometry;
use crate::meta::AccessOutcome;
use crate::policy::ReplacementPolicy;
use nucache_common::telemetry::Event;
use nucache_common::{AccessKind, CacheStats, CoreId, LineAddr, Pc};

/// A shared last-level cache organization.
///
/// Every LLC scheme in the workspace — the LRU baseline, DIP/DRRIP/TADIP
/// insertion policies, UCP/PIPP way partitioning, and NUcache itself —
/// implements this trait, so the simulation driver and the experiment
/// binaries swap schemes freely.
///
/// Implementations maintain both aggregate and per-core hit/miss counters;
/// `access` returns the outcome so callers can model timing and propagate
/// evictions.
pub trait SharedLlc {
    /// Performs one demand access from `core`/`pc` to `line`.
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome;

    /// Aggregate counters since construction (or the last reset).
    fn stats(&self) -> &CacheStats;

    /// Per-core counters, indexed by core id.
    fn core_stats(&self) -> &[CacheStats];

    /// Resets all counters (contents are retained, mirroring how warmup is
    /// excluded from measurement).
    fn reset_stats(&mut self);

    /// The LLC geometry.
    fn geometry(&self) -> &CacheGeometry;

    /// Scheme name as it appears in tables (e.g. `"lru"`, `"ucp"`,
    /// `"nucache"`).
    fn scheme_name(&self) -> String;

    /// Enables (or disables) internal telemetry: while enabled, the
    /// scheme buffers epoch-level [`Event`]s describing its adaptive
    /// state for [`SharedLlc::drain_events`] to collect.
    ///
    /// The default is a no-op — schemes with no epoch-level internals
    /// (plain replacement policies) simply have nothing to report, and
    /// schemes that do report pay nothing while disabled beyond one
    /// branch per epoch.
    fn set_telemetry(&mut self, _enabled: bool) {}

    /// Removes and returns the telemetry events buffered since the last
    /// drain (empty unless [`SharedLlc::set_telemetry`] enabled
    /// collection). The simulation driver drains at its own snapshot
    /// cadence and forwards everything to the active event sink, so
    /// scheme internals never need a direct sink reference.
    fn drain_events(&mut self) -> Vec<Event> {
        Vec::new()
    }

    /// Enables (or disables) the differential audit oracle: while enabled,
    /// every tag-array operation is mirrored into a naive
    /// `ReferenceArray` and cross-checked,
    /// and organizations with epoch-level state (NUcache) additionally
    /// verify their epoch invariants. Divergences panic at the faulting
    /// operation.
    ///
    /// The default is a no-op so that scheme wrappers without direct array
    /// access keep compiling; every organization in this workspace
    /// overrides it.
    fn set_audit(&mut self, _enabled: bool) {}

    /// Work counters of the audit oracle: `Some` with the number of
    /// mirrored operations and epoch checks when auditing is enabled,
    /// `None` when it is off or unsupported.
    fn audit_stats(&self) -> Option<AuditStats> {
        None
    }
}

/// A classic shared LLC: one [`BasicCache`] with a replacement policy and
/// per-core accounting on top.
///
/// # Examples
///
/// ```
/// use nucache_cache::{CacheGeometry, ClassicLlc, SharedLlc, policy::Lru};
/// use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
///
/// let geom = CacheGeometry::new(1024 * 1024, 16, 64);
/// let mut llc = ClassicLlc::new(geom, Lru::new(&geom), 2);
/// llc.access(CoreId::new(1), Pc::new(0x400), LineAddr::new(7), AccessKind::Read);
/// assert_eq!(llc.core_stats()[1].misses, 1);
/// ```
#[derive(Debug)]
pub struct ClassicLlc<P> {
    cache: BasicCache<P>,
    core_stats: Vec<CacheStats>,
}

impl<P: ReplacementPolicy> ClassicLlc<P> {
    /// Creates a classic LLC for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(geom: CacheGeometry, policy: P, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        ClassicLlc {
            cache: BasicCache::new(geom, policy),
            core_stats: vec![CacheStats::default(); num_cores],
        }
    }

    /// The wrapped cache (for policy introspection in tests).
    pub fn cache(&self) -> &BasicCache<P> {
        &self.cache
    }
}

impl<P: ReplacementPolicy> SharedLlc for ClassicLlc<P> {
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        let out = self.cache.access(line, kind, core, pc);
        let cs = &mut self.core_stats[core.index()];
        if out.is_hit() {
            cs.record_hit();
        } else {
            cs.record_miss();
        }
        out
    }

    fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    fn core_stats(&self) -> &[CacheStats] {
        &self.core_stats
    }

    fn reset_stats(&mut self) {
        self.cache.clear_stats();
        self.core_stats.iter_mut().for_each(CacheStats::clear);
    }

    fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    fn scheme_name(&self) -> String {
        self.cache.policy().name().to_string()
    }

    fn set_audit(&mut self, enabled: bool) {
        self.cache.set_audit(enabled);
    }

    fn audit_stats(&self) -> Option<AuditStats> {
        self.cache
            .array()
            .audit_enabled()
            .then(|| AuditStats { array_ops: self.cache.array().audit_ops(), epoch_checks: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    fn llc() -> ClassicLlc<Lru> {
        let g = CacheGeometry::new(64 * 2 * 4, 2, 64); // 4 sets, 2-way
        ClassicLlc::new(g, Lru::new(&g), 2)
    }

    #[test]
    fn per_core_attribution() {
        let mut l = llc();
        l.access(CoreId::new(0), Pc::new(1), LineAddr::new(1), AccessKind::Read);
        l.access(CoreId::new(1), Pc::new(2), LineAddr::new(1), AccessKind::Read);
        assert_eq!(l.core_stats()[0].misses, 1);
        assert_eq!(l.core_stats()[1].hits, 1);
        assert_eq!(l.stats().accesses(), 2);
    }

    #[test]
    fn reset_preserves_contents() {
        let mut l = llc();
        l.access(CoreId::new(0), Pc::new(1), LineAddr::new(1), AccessKind::Read);
        l.reset_stats();
        assert_eq!(l.stats().accesses(), 0);
        let out = l.access(CoreId::new(0), Pc::new(1), LineAddr::new(1), AccessKind::Read);
        assert!(out.is_hit(), "contents must survive a stats reset");
    }

    #[test]
    fn scheme_name_matches_policy() {
        assert_eq!(llc().scheme_name(), "lru");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let g = CacheGeometry::new(1024, 2, 64);
        let _ = ClassicLlc::new(g, Lru::new(&g), 0);
    }

    #[test]
    fn audited_classic_llc_counts_checks() {
        let mut l = llc();
        // Constructors auto-enable auditing under debug_invariants; start
        // from a known-off state either way.
        l.set_audit(false);
        assert_eq!(l.audit_stats(), None);
        l.set_audit(true);
        for n in 0..32 {
            l.access(CoreId::new(0), Pc::new(1), LineAddr::new(n), AccessKind::Read);
        }
        let stats = l.audit_stats().expect("auditing is on");
        assert!(stats.array_ops > 0);
        l.set_audit(false);
        assert_eq!(l.audit_stats(), None);
    }

    #[test]
    fn telemetry_defaults_are_inert() {
        // Classic organizations have no epoch-level internals: enabling
        // telemetry is accepted and drains nothing.
        let mut l = llc();
        l.set_telemetry(true);
        l.access(CoreId::new(0), Pc::new(1), LineAddr::new(1), AccessKind::Read);
        assert!(l.drain_events().is_empty());
    }
}
