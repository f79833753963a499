//! Pins the baseline/default configurations to their named constants.
//!
//! DESIGN.md §10.1 and EXPERIMENTS.md bind their configuration tables to
//! these constants (`doc-constant-drift`), and this test binds the
//! constants to the actual `SimConfig::baseline` / `KernelConfig`
//! wiring — so a retuned default cannot silently diverge from either
//! the docs or the constant it is named after.

use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_cache::CacheGeometry;
use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
use nucache_kernel::{
    DeliAdmission, InsertionClass, KernelConfig, NucacheKernel, SelectionStrategy,
    DEFAULT_DELI_WAYS, DEFAULT_EPOCH_LEN, DEFAULT_MONITOR_SHIFT, DEFAULT_SETS, DEFAULT_WAYS,
};
use nucache_sim::config::{
    BASELINE_L1_BYTES, BASELINE_L1_WAYS, BASELINE_L2_BYTES, BASELINE_L2_WAYS,
    BASELINE_LLC_BYTES_PER_CORE, BASELINE_LLC_WAYS, BASELINE_MEASURE_ACCESSES, BASELINE_SEED,
    BASELINE_WARMUP_ACCESSES,
};
use nucache_sim::{Scheme, SimConfig};

#[test]
fn baseline_sim_config_uses_named_constants() {
    for cores in [1usize, 2, 4, 8] {
        let c = SimConfig::baseline(cores);
        assert_eq!(c.l1.size_bytes(), BASELINE_L1_BYTES);
        assert_eq!(c.l1.associativity(), BASELINE_L1_WAYS);
        assert_eq!(c.l2.size_bytes(), BASELINE_L2_BYTES);
        assert_eq!(c.l2.associativity(), BASELINE_L2_WAYS);
        assert_eq!(c.llc.size_bytes(), cores as u64 * BASELINE_LLC_BYTES_PER_CORE);
        assert_eq!(c.llc.associativity(), BASELINE_LLC_WAYS);
        for geom in [c.l1, c.l2, c.llc] {
            assert_eq!(geom.block_bytes(), DEFAULT_BLOCK_BYTES);
        }
        assert_eq!(c.warmup_accesses, BASELINE_WARMUP_ACCESSES);
        assert_eq!(c.measure_accesses, BASELINE_MEASURE_ACCESSES);
        assert_eq!(c.seed, BASELINE_SEED);
    }
}

/// The driver splits addresses at the trace crate's block granularity;
/// the cache geometries are built with their own block-bytes constant.
/// These are one physical quantity — if either constant is retuned
/// without the other, every line address the driver derives would be
/// sheared against the sets the caches index.
#[test]
fn trace_block_bits_match_cache_block_bytes() {
    assert_eq!(1u64 << nucache_trace::BLOCK_BITS, u64::from(DEFAULT_BLOCK_BYTES));
    assert_eq!(nucache_trace::BLOCK_BYTES, u64::from(DEFAULT_BLOCK_BYTES));
}

/// The kernel's defaults are the simulator's design point: every policy
/// default of [`KernelConfig::default`] equals its `DEFAULT_*` constant,
/// and its default geometry has the baseline LLC's way count. A library
/// embedder starting from `KernelConfig::default()` then gets exactly
/// the configuration the paper's results were reproduced with.
#[test]
fn kernel_defaults_match_simulator_design_point() {
    let k = KernelConfig::default();
    assert_eq!((k.sets, k.ways), (DEFAULT_SETS, DEFAULT_WAYS));
    assert_eq!(k.ways, BASELINE_LLC_WAYS);
    assert_eq!(k.deli_ways, DEFAULT_DELI_WAYS);
    // The design point leaves half the 16-way LLC as MainWays.
    assert_eq!(BASELINE_LLC_WAYS - k.deli_ways, 8);
    assert_eq!(k.epoch_len, DEFAULT_EPOCH_LEN);
    assert_eq!(k.monitor_shift, DEFAULT_MONITOR_SHIFT);
}

/// The one policy default that is not the simulator's design point: the
/// library admits guests into the DeliWays, and the simulator lowers
/// every NUcache configuration to the paper's rule. With no class ever
/// chosen, a loop over 3 lines of a 4-way set with 2 DeliWays then
/// thrashes the simulated LLC like a 2-way LRU, while a kernel at the
/// library default keeps the loop in its 4 ways.
#[test]
fn simulator_lowers_deli_admission_to_the_papers_rule() {
    assert_eq!(KernelConfig::default().deli_admission, DeliAdmission::Guests);
    let config = KernelConfig::default().with_strategy(SelectionStrategy::None).with_deli_ways(2);
    let geom = CacheGeometry::new(4 * u64::from(DEFAULT_BLOCK_BYTES), 4, DEFAULT_BLOCK_BYTES);
    let mut llc = Scheme::NuCache(config).build(geom, 1, BASELINE_SEED);
    let mut kernel: NucacheKernel<()> =
        NucacheKernel::init(config.with_sets(1).with_ways(4)).expect("valid config");
    for _ in 0..10 {
        for line in 0..3 {
            llc.access(CoreId::new(0), Pc::new(1), LineAddr::new(line), AccessKind::Read);
            if !kernel.get(line, InsertionClass::new(1)).is_hit() {
                kernel.put(line, InsertionClass::new(1), ());
            }
        }
    }
    assert_eq!(llc.stats().hits, 0, "the simulated LLC admits chosen PCs only");
    assert_eq!(kernel.hits(), 27, "the library kernel lends its DeliWays to guests");
}
