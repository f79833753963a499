//! NUcache configuration knobs.
//!
//! The policy enum, the `DEFAULT_*` design-point constants and the
//! selection machinery itself live in the embeddable
//! [`nucache_kernel`] crate; this module re-exports them and keeps
//! [`NuCacheConfig`], the simulator-facing configuration (geometry is
//! supplied separately by [`nucache_cache::CacheGeometry`], so unlike
//! [`nucache_kernel::KernelConfig`] it carries no set/way counts).

pub use nucache_kernel::{
    SelectionStrategy, DEFAULT_DELI_WAYS, DEFAULT_EPOCH_LEN, DEFAULT_HISTOGRAM_BUCKETS,
    DEFAULT_MAX_CANDIDATES, DEFAULT_MONITOR_DEPTH, DEFAULT_MONITOR_SHIFT, DEFAULT_ORACLE_POOL,
};

/// Configuration of a [`NuCache`](crate::NuCache) instance.
///
/// The defaults correspond to the design point used for the headline
/// results: half the ways reserved as DeliWays, 32 delinquent-PC
/// candidates, Next-Use monitoring on 1 set in 32, and a 100k-access
/// selection epoch. The design-point values are the named `DEFAULT_*`
/// constants above; DESIGN.md binds its configuration table to them
/// (checked by `nucache-audit lint`, lint `doc-constant-drift`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NuCacheConfig {
    /// Number of ways per set reserved as DeliWays (the remaining ways
    /// are MainWays).
    pub deli_ways: usize,
    /// LLC accesses between PC re-selections.
    pub epoch_len: u64,
    /// How many of the most-missing PCs are candidates for selection.
    pub max_candidates: usize,
    /// Candidate-pool cap for [`SelectionStrategy::Exhaustive`].
    pub oracle_pool: usize,
    /// Next-Use monitor samples one set in `2^monitor_shift`.
    pub monitor_shift: u32,
    /// Entries in each sampled set's eviction buffer.
    pub monitor_depth: usize,
    /// Buckets in each per-PC Next-Use histogram.
    pub histogram_buckets: usize,
    /// On a DeliWays hit, promote the line back into the MainWays (MRU)
    /// instead of leaving it to age out of the FIFO.
    pub promote_on_deli_hit: bool,
    /// On a DeliWays hit without promotion, refresh the line's FIFO
    /// position (move it to the tail) so actively reused lines are not
    /// dropped on schedule. Turns the DeliWays from pure FIFO into
    /// second-chance FIFO; only meaningful when `promote_on_deli_hit`
    /// is off. An extension ablated in the benches.
    pub deli_hit_refresh: bool,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// Seed for the stochastic strategies.
    pub seed: u64,
}

impl Default for NuCacheConfig {
    fn default() -> Self {
        NuCacheConfig {
            deli_ways: DEFAULT_DELI_WAYS,
            epoch_len: DEFAULT_EPOCH_LEN,
            max_candidates: DEFAULT_MAX_CANDIDATES,
            oracle_pool: DEFAULT_ORACLE_POOL,
            monitor_shift: DEFAULT_MONITOR_SHIFT,
            monitor_depth: DEFAULT_MONITOR_DEPTH,
            histogram_buckets: DEFAULT_HISTOGRAM_BUCKETS,
            promote_on_deli_hit: true,
            deli_hit_refresh: false,
            strategy: SelectionStrategy::CostBenefit,
            seed: 0xcafe,
        }
    }
}

impl NuCacheConfig {
    /// Returns a copy with a different DeliWays count.
    #[must_use]
    pub fn with_deli_ways(mut self, deli_ways: usize) -> Self {
        self.deli_ways = deli_ways;
        self
    }

    /// Returns a copy with a different epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn with_epoch_len(mut self, epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "zero epoch length");
        self.epoch_len = epoch_len;
        self
    }

    /// Returns a copy with a different selection strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration against a total associativity with
    /// the kernel's rules ([`nucache_kernel::KernelConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics with the kernel's [`ConfigError`](nucache_kernel::ConfigError)
    /// if the DeliWays consume every way (at least one MainWay is
    /// required), or any count is out of range.
    pub fn validate(&self, associativity: usize) {
        // One set stands in for the geometry: the set count is the
        // simulator's `CacheGeometry`'s to check, not a policy knob.
        if let Err(e) = self.to_kernel(1, associativity).validate() {
            panic!("invalid NUcache configuration: {e}");
        }
    }

    /// Lowers this simulator configuration to a kernel configuration for
    /// a cache with `sets` sets of `ways` ways. Every policy knob maps
    /// one-to-one; only the geometry (which the simulator keeps in
    /// [`nucache_cache::CacheGeometry`]) is added.
    #[must_use]
    pub fn to_kernel(&self, sets: usize, ways: usize) -> nucache_kernel::KernelConfig {
        let mut k = nucache_kernel::KernelConfig::default()
            .with_sets(sets)
            .with_ways(ways)
            .with_deli_ways(self.deli_ways)
            .with_epoch_len(self.epoch_len)
            .with_strategy(self.strategy)
            .with_seed(self.seed);
        k.max_candidates = self.max_candidates;
        k.oracle_pool = self.oracle_pool;
        k.monitor_shift = self.monitor_shift;
        k.monitor_depth = self.monitor_depth;
        k.histogram_buckets = self.histogram_buckets;
        k.promote_on_deli_hit = self.promote_on_deli_hit;
        k.deli_hit_refresh = self.deli_hit_refresh;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_for_16_way() {
        NuCacheConfig::default().validate(16);
    }

    #[test]
    fn builders_apply() {
        let c = NuCacheConfig::default()
            .with_deli_ways(4)
            .with_epoch_len(5)
            .with_strategy(SelectionStrategy::Random(3))
            .with_seed(9);
        assert_eq!(c.deli_ways, 4);
        assert_eq!(c.epoch_len, 5);
        assert_eq!(c.strategy, SelectionStrategy::Random(3));
        assert_eq!(c.seed, 9);
    }

    #[test]
    #[should_panic(expected = "at least one MainWay")]
    fn all_deli_rejected() {
        NuCacheConfig::default().with_deli_ways(16).validate(16);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(format!("{}", SelectionStrategy::CostBenefit), "cost-benefit");
        assert_eq!(format!("{}", SelectionStrategy::StaticTopK(5)), "static-top-5");
        assert_eq!(format!("{}", SelectionStrategy::Random(2)), "random-2");
        assert_eq!(format!("{}", SelectionStrategy::Exhaustive), "exhaustive");
        assert_eq!(format!("{}", SelectionStrategy::None), "none");
    }
}
