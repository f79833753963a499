//! Scheme selection: which shared-LLC organization to simulate.

use nucache_cache::policy::{Dip, Drrip, Lru, ShipPc, TadipF};
use nucache_cache::{CacheGeometry, ClassicLlc, SharedLlc};
use nucache_core::{KernelConfig, NuCache};
use nucache_partition::{baselines, PippLlc, UcpLlc};
use std::fmt;

/// Default repartitioning epoch for UCP and PIPP (LLC accesses).
pub const PARTITION_EPOCH: u64 = 100_000;

/// A shared-LLC organization under study.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Shared LRU — the baseline everything is normalized to.
    Lru,
    /// DIP (thread-oblivious dynamic insertion).
    Dip,
    /// DRRIP (dynamic re-reference interval prediction).
    Drrip,
    /// TADIP-F (thread-aware dynamic insertion).
    Tadip,
    /// Utility-based cache partitioning.
    Ucp,
    /// Promotion/insertion pseudo-partitioning.
    Pipp,
    /// SHiP-PC (signature-based hit prediction; post-dates the paper,
    /// included as a modern PC-based comparison point).
    Ship,
    /// NUcache with the given configuration; the LLC geometry supplies
    /// its `sets` and `ways`.
    NuCache(KernelConfig),
}

impl Scheme {
    /// The schemes compared in the headline figures, in display order.
    pub fn headline_suite() -> Vec<Scheme> {
        vec![Scheme::Lru, Scheme::Ucp, Scheme::Pipp, Scheme::Tadip, Scheme::nucache_default()]
    }

    /// NUcache with default parameters.
    pub fn nucache_default() -> Scheme {
        Scheme::NuCache(KernelConfig::default())
    }

    /// Short name used in tables.
    pub fn name(&self) -> String {
        match self {
            Scheme::Lru => "lru".into(),
            Scheme::Dip => "dip".into(),
            Scheme::Drrip => "drrip".into(),
            Scheme::Tadip => "tadip".into(),
            Scheme::Ucp => "ucp".into(),
            Scheme::Pipp => "pipp".into(),
            Scheme::Ship => "ship-pc".into(),
            Scheme::NuCache(c) => format!("nucache-d{}", c.deli_ways),
        }
    }

    /// Instantiates the shared LLC for this scheme as a trait object —
    /// the entry point for callers that need dynamic dispatch (telemetry,
    /// audits, tools holding heterogeneous LLC collections).
    pub fn build(&self, geom: CacheGeometry, num_cores: usize, seed: u64) -> Box<dyn SharedLlc> {
        self.build_concrete(geom, num_cores, seed).boxed()
    }

    /// Instantiates the shared LLC for this scheme with its concrete type
    /// preserved, so the driver's hot loop can be monomorphized per
    /// organization instead of paying a virtual call per access.
    pub fn build_concrete(&self, geom: CacheGeometry, num_cores: usize, seed: u64) -> BuiltLlc {
        match self {
            Scheme::Lru => BuiltLlc::Lru(baselines::lru(geom, num_cores)),
            Scheme::Dip => BuiltLlc::Dip(baselines::dip(geom, num_cores, seed)),
            Scheme::Drrip => BuiltLlc::Drrip(baselines::drrip(geom, num_cores, seed)),
            Scheme::Tadip => BuiltLlc::Tadip(baselines::tadip(geom, num_cores, seed)),
            Scheme::Ucp => BuiltLlc::Ucp(UcpLlc::new(geom, num_cores, PARTITION_EPOCH)),
            Scheme::Pipp => BuiltLlc::Pipp(PippLlc::new(geom, num_cores, PARTITION_EPOCH, seed)),
            Scheme::Ship => BuiltLlc::Ship(ClassicLlc::new(geom, ShipPc::new(&geom), num_cores)),
            Scheme::NuCache(config) => {
                BuiltLlc::NuCache(build_nucache(*config, geom, num_cores, seed))
            }
        }
    }
}

/// The LLC of `Scheme::NuCache(config)` for a run with master seed
/// `seed`: the DeliWays are clamped to leave at least one MainWay on
/// narrow test caches, and the selection seed is mixed with the run's.
pub(crate) fn build_nucache(
    mut config: KernelConfig,
    geom: CacheGeometry,
    num_cores: usize,
    seed: u64,
) -> NuCache {
    if config.deli_ways >= geom.associativity() {
        config.deli_ways = geom.associativity() / 2;
    }
    config.seed ^= seed;
    NuCache::new(geom, num_cores, config)
}

/// A concretely-typed LLC built by [`Scheme::build_concrete`].
///
/// Each variant keeps the organization's real type, so matching once and
/// running the simulation loop inside the arm monomorphizes every LLC
/// call in the loop (static dispatch, inlining-friendly). The behaviour
/// is bit-identical to driving the same scheme through `dyn SharedLlc` —
/// asserted by `tests/driver_equivalence.rs`.
#[allow(missing_docs)]
// variant names mirror `Scheme`'s documented arms
// One value exists per run and it never moves after construction, so the
// size spread between variants costs nothing; boxing the large ones would
// put a pointer chase back into the monomorphized hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BuiltLlc {
    Lru(ClassicLlc<Lru>),
    Dip(ClassicLlc<Dip>),
    Drrip(ClassicLlc<Drrip>),
    Tadip(ClassicLlc<TadipF>),
    Ucp(UcpLlc),
    Pipp(PippLlc),
    Ship(ClassicLlc<ShipPc>),
    NuCache(NuCache),
}

/// Runs `$body` with `$l` bound to the concrete LLC inside a
/// [`BuiltLlc`], monomorphizing the body per variant.
macro_rules! with_built {
    ($llc:expr, $l:ident => $body:expr) => {
        match $llc {
            $crate::scheme::BuiltLlc::Lru($l) => $body,
            $crate::scheme::BuiltLlc::Dip($l) => $body,
            $crate::scheme::BuiltLlc::Drrip($l) => $body,
            $crate::scheme::BuiltLlc::Tadip($l) => $body,
            $crate::scheme::BuiltLlc::Ucp($l) => $body,
            $crate::scheme::BuiltLlc::Pipp($l) => $body,
            $crate::scheme::BuiltLlc::Ship($l) => $body,
            $crate::scheme::BuiltLlc::NuCache($l) => $body,
        }
    };
}
pub(crate) use with_built;

impl BuiltLlc {
    /// Erases the concrete type into a `Box<dyn SharedLlc>`.
    pub(crate) fn boxed(self) -> Box<dyn SharedLlc> {
        with_built!(self, l => Box::new(l))
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::{AccessKind, CoreId, LineAddr, Pc};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64 * 16 * 64, 16, 64)
    }

    #[test]
    fn every_scheme_builds_and_serves() {
        let mut schemes = Scheme::headline_suite();
        schemes.push(Scheme::Dip);
        schemes.push(Scheme::Drrip);
        schemes.push(Scheme::Ship);
        for s in schemes {
            let mut llc = s.build(geom(), 2, 1);
            llc.access(CoreId::new(0), Pc::new(1), LineAddr::new(7), AccessKind::Read);
            let hit = llc.access(CoreId::new(0), Pc::new(1), LineAddr::new(7), AccessKind::Read);
            assert!(hit.is_hit(), "{s} failed a trivial re-reference");
            assert_eq!(llc.stats().accesses(), 2, "{s} miscounted");
        }
    }

    #[test]
    fn headline_suite_is_led_by_lru_and_ends_with_nucache() {
        let suite = Scheme::headline_suite();
        assert_eq!(suite.first().unwrap().name(), "lru");
        assert!(suite.last().unwrap().name().starts_with("nucache"));
    }

    #[test]
    fn nucache_deli_clamped_on_narrow_caches() {
        let narrow = CacheGeometry::new(64 * 4 * 16, 4, 64); // 4-way
        let llc = Scheme::nucache_default().build(narrow, 1, 0);
        assert!(llc.scheme_name().starts_with("nucache-d2"));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Scheme::Ucp.name(), "ucp");
        assert_eq!(Scheme::nucache_default().name(), "nucache-d8");
        assert_eq!(format!("{}", Scheme::Pipp), "pipp");
    }
}
