//! Kernel configuration: geometry, policy knobs and the selection
//! strategy, validated by [`NucacheKernel::init`](crate::NucacheKernel::init),
//! and the sizes every kernel shares.

use core::fmt;

/// How the set of chosen insertion classes is computed each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// The paper's mechanism: greedy cost-benefit maximization of expected
    /// DeliWays hits using Next-Use histograms.
    CostBenefit,
    /// Exhaustive subset search over the top candidates (the selection
    /// upper bound the greedy pass is compared against; exponential, so
    /// the candidate pool is capped at the 12 classes with the most
    /// fills).
    Exhaustive,
    /// Always choose the `k` classes with the most misses, ignoring
    /// Next-Use information (ablation: shows delinquency alone is not
    /// enough).
    StaticTopK(usize),
    /// Choose `k` candidate classes uniformly at random each epoch
    /// (ablation lower bound).
    Random(usize),
    /// Never choose any class: DeliWays stay empty and the cache degrades
    /// to an LRU cache of MainWays associativity (worst case sanity
    /// bound).
    None,
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionStrategy::CostBenefit => f.write_str("cost-benefit"),
            SelectionStrategy::Exhaustive => f.write_str("exhaustive"),
            SelectionStrategy::StaticTopK(k) => write!(f, "static-top-{k}"),
            SelectionStrategy::Random(k) => write!(f, "random-{k}"),
            SelectionStrategy::None => f.write_str("none"),
        }
    }
}

/// Default number of sets (a standalone mid-size design point).
pub const DEFAULT_SETS: usize = 1024;
/// Default ways per set (the 16-way baseline LLC of the paper).
pub const DEFAULT_WAYS: usize = 16;
/// Default DeliWays per set (half of the 16-way baseline).
pub const DEFAULT_DELI_WAYS: usize = 8;
/// Default accesses between class re-selections.
pub const DEFAULT_EPOCH_LEN: u64 = 100_000;
/// Default monitor sampling: one set in `2^DEFAULT_MONITOR_SHIFT`.
pub const DEFAULT_MONITOR_SHIFT: u32 = 5;
/// Default entries per sampled monitor set.
pub const DEFAULT_MONITOR_DEPTH: usize = 64;

/// Candidate classes per selection: the most-missing classes by
/// combined fills.
pub const MAX_CANDIDATES: usize = 32;
/// Candidate cap for [`SelectionStrategy::Exhaustive`], whose search is
/// exponential in it.
pub(crate) const ORACLE_POOL: usize = 12;
/// Buckets in each per-class Next-Use histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;
/// Classes the delinquency tracker holds.
pub(crate) const TRACKER_SLOTS: usize = 256;

// The chosen-set index is sized for `MAX_CANDIDATES` classes, so no
// strategy may consider more.
const _: () = assert!(ORACLE_POOL <= MAX_CANDIDATES);

/// The largest allocation `Vec` makes, in bytes; it panics past it.
const MAX_ALLOCATION: usize = isize::MAX as usize;

/// Whether `count` elements of `bytes` bytes each fit one allocation.
pub(crate) fn fits(count: usize, bytes: usize) -> bool {
    count.checked_mul(bytes).is_some_and(|total| total <= MAX_ALLOCATION)
}

/// Configuration of a [`NucacheKernel`](crate::NucacheKernel).
///
/// The policy defaults are the design point of the simulator's headline
/// results (half the ways as DeliWays, sampling 1 set in 32, 100k-access
/// epochs); `crates/sim/tests/config_contract.rs` pins them against the
/// `DEFAULT_*` and the simulator's `BASELINE_*` constants. The sizes no
/// caller varies are constants: [`MAX_CANDIDATES`], [`HISTOGRAM_BUCKETS`],
/// the exhaustive strategy's 12-class pool and the tracker's 256 classes. The simulator's
/// NUcache takes this type too, with `sets` and `ways` replaced by its
/// cache geometry's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Ways per set (1..=64).
    pub ways: usize,
    /// Ways per set reserved as DeliWays (the rest are MainWays; at
    /// least one MainWay must remain).
    pub deli_ways: usize,
    /// Accesses between class re-selections.
    pub epoch_len: u64,
    /// Next-Use monitor samples one set in `2^monitor_shift` (clamped so
    /// at least one set is sampled).
    pub monitor_shift: u32,
    /// Entries in each sampled set's eviction buffer.
    pub monitor_depth: usize,
    /// On a DeliWays hit, promote the entry back into the MainWays (MRU)
    /// instead of leaving it to age out of the FIFO.
    pub promote_on_deli_hit: bool,
    /// On a DeliWays hit without promotion, refresh the entry's FIFO
    /// position (move it to the tail) so actively reused entries are not
    /// dropped on schedule. Only meaningful when `promote_on_deli_hit`
    /// is off.
    pub deli_hit_refresh: bool,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// Seed for the stochastic strategies.
    pub seed: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            sets: DEFAULT_SETS,
            ways: DEFAULT_WAYS,
            deli_ways: DEFAULT_DELI_WAYS,
            epoch_len: DEFAULT_EPOCH_LEN,
            monitor_shift: DEFAULT_MONITOR_SHIFT,
            monitor_depth: DEFAULT_MONITOR_DEPTH,
            promote_on_deli_hit: true,
            deli_hit_refresh: false,
            strategy: SelectionStrategy::CostBenefit,
            seed: 0xcafe,
        }
    }
}

impl KernelConfig {
    /// Returns a copy with a different set count.
    #[must_use]
    pub fn with_sets(mut self, sets: usize) -> Self {
        self.sets = sets;
        self
    }

    /// Returns a copy with a different associativity.
    #[must_use]
    pub fn with_ways(mut self, ways: usize) -> Self {
        self.ways = ways;
        self
    }

    /// Returns a copy with a different DeliWays count.
    #[must_use]
    pub fn with_deli_ways(mut self, deli_ways: usize) -> Self {
        self.deli_ways = deli_ways;
        self
    }

    /// Returns a copy with a different epoch length.
    #[must_use]
    pub fn with_epoch_len(mut self, epoch_len: u64) -> Self {
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

    /// Entries the kernel's frame arrays hold: `sets × ways`, if that
    /// does not overflow.
    pub(crate) fn frames(&self) -> Option<usize> {
        self.sets.checked_mul(self.ways)
    }

    /// Buffered evictions across the Next-Use monitor's sampled sets:
    /// `sampled sets × monitor_depth`, if that does not overflow.
    pub(crate) fn monitor_slots(&self) -> Option<usize> {
        let set_bits = self.sets.trailing_zeros();
        (self.sets >> self.monitor_shift.min(set_bits)).checked_mul(self.monitor_depth)
    }

    /// Validates the configuration ([`NucacheKernel::init`](crate::NucacheKernel::init)
    /// calls this; exposed so embedders can check untrusted configs
    /// without constructing). Besides the value ranges it checks that
    /// every array `init` allocates has a size that fits an allocation;
    /// `init` repeats the checks that depend on the value and class
    /// types.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] violated, if any.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo(self.sets));
        }
        if self.ways == 0 || self.ways > 64 {
            return Err(ConfigError::WaysOutOfRange(self.ways));
        }
        if self.deli_ways >= self.ways {
            return Err(ConfigError::NoMainWays { ways: self.ways, deli_ways: self.deli_ways });
        }
        if self.epoch_len == 0 {
            return Err(ConfigError::ZeroEpochLen);
        }
        if self.monitor_depth == 0 {
            return Err(ConfigError::ZeroMonitorDepth);
        }
        // A frame holds at least an 8-byte tag. The monitor keeps an
        // 8-byte tag per buffer slot and a 16-byte clock per sampled set,
        // and every sampled set has at least one slot.
        if !self.frames().is_some_and(|f| fits(f, 8)) {
            return Err(ConfigError::TooManyFrames { sets: self.sets, ways: self.ways });
        }
        if !self.monitor_slots().is_some_and(|n| fits(n, 16)) {
            return Err(ConfigError::MonitorTooLarge(self.monitor_depth));
        }
        Ok(())
    }
}

/// A rejected [`KernelConfig`], reported by [`KernelConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `sets` must be a non-zero power of two (set indexing is a mask).
    SetsNotPowerOfTwo(usize),
    /// `ways` must be in `1..=64` (occupancy is a 64-bit mask per set).
    WaysOutOfRange(usize),
    /// `deli_ways` must leave at least one MainWay.
    NoMainWays {
        /// Total ways per set.
        ways: usize,
        /// Requested DeliWays.
        deli_ways: usize,
    },
    /// `epoch_len` must be non-zero.
    ZeroEpochLen,
    /// `monitor_depth` must be non-zero.
    ZeroMonitorDepth,
    /// `sets × ways` frames must fit one allocation.
    TooManyFrames {
        /// Number of sets.
        sets: usize,
        /// Ways per set.
        ways: usize,
    },
    /// The sampled sets' `monitor_depth`-entry eviction buffers must fit
    /// one allocation.
    MonitorTooLarge(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "sets must be a non-zero power of two, got {s}")
            }
            ConfigError::WaysOutOfRange(w) => write!(f, "ways must be in 1..=64, got {w}"),
            ConfigError::NoMainWays { ways, deli_ways } => write!(
                f,
                "deli_ways ({deli_ways}) must leave at least one MainWay of {ways} total ways"
            ),
            ConfigError::ZeroEpochLen => f.write_str("epoch_len must be non-zero"),
            ConfigError::ZeroMonitorDepth => f.write_str("monitor_depth must be non-zero"),
            ConfigError::TooManyFrames { sets, ways } => {
                write!(f, "{sets} sets x {ways} ways is too many frames to allocate")
            }
            ConfigError::MonitorTooLarge(d) => {
                write!(f, "monitor_depth {d} makes the sampled buffers too large to allocate")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;

    #[test]
    fn default_validates() {
        KernelConfig::default().validate().expect("default config is valid");
    }

    #[test]
    fn builders_apply() {
        let c = KernelConfig::default()
            .with_sets(64)
            .with_ways(8)
            .with_deli_ways(4)
            .with_epoch_len(5)
            .with_strategy(SelectionStrategy::Random(3))
            .with_seed(9);
        assert_eq!((c.sets, c.ways, c.deli_ways, c.epoch_len), (64, 8, 4, 5));
        assert_eq!(c.strategy, SelectionStrategy::Random(3));
        assert_eq!(c.seed, 9);
        c.validate().expect("valid");
    }

    #[test]
    fn rejections() {
        let bad = |c: KernelConfig| c.validate().expect_err("must be rejected");
        assert_eq!(bad(KernelConfig::default().with_sets(48)), ConfigError::SetsNotPowerOfTwo(48));
        assert_eq!(bad(KernelConfig::default().with_ways(0)), ConfigError::WaysOutOfRange(0));
        assert_eq!(bad(KernelConfig::default().with_ways(65)), ConfigError::WaysOutOfRange(65));
        assert_eq!(
            bad(KernelConfig::default().with_ways(8).with_deli_ways(8)),
            ConfigError::NoMainWays { ways: 8, deli_ways: 8 }
        );
        assert_eq!(bad(KernelConfig::default().with_epoch_len(0)), ConfigError::ZeroEpochLen);
    }

    /// Configurations whose sizes overflow what `init` allocates.
    fn oversized() -> [(KernelConfig, ConfigError); 2] {
        let d = KernelConfig::default();
        [
            (d.with_sets(1 << 62), ConfigError::TooManyFrames { sets: 1 << 62, ways: 16 }),
            (
                KernelConfig { monitor_depth: usize::MAX / 2, ..d },
                ConfigError::MonitorTooLarge(usize::MAX / 2),
            ),
        ]
    }

    /// Each oversized configuration is an `Err` from `validate`, from
    /// `NucacheKernel::init` and from `ConcurrentNucache::init`, not a
    /// "capacity overflow" panic.
    #[test]
    fn oversized_allocations_are_rejected() {
        for (config, err) in oversized() {
            assert_eq!(config.validate(), Err(err));
            let kernel = crate::NucacheKernel::<u64>::init(config);
            assert_eq!(kernel.map(|_| ()), Err(err));
            #[cfg(feature = "concurrent")]
            {
                use crate::concurrent::{ConcurrentConfig, ConcurrentNucache};
                let cache = ConcurrentNucache::<u64>::init(ConcurrentConfig::new(2, config));
                assert_eq!(cache.map(|_| ()), Err(err));
            }
        }
        KernelConfig::default().with_sets(1 << 40).validate().expect("2^40 sets");
        assert!(!fits(usize::MAX / 8 + 1, 8));
        assert!(fits(MAX_ALLOCATION, 1) && !fits(MAX_ALLOCATION / 2 + 1, 2));
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
