//! Pins the baseline/default configurations to their named constants.
//!
//! DESIGN.md §10.1 and EXPERIMENTS.md bind their configuration tables to
//! these constants (`doc-constant-drift`), and this test binds the
//! constants to the actual `SimConfig::baseline` / `KernelConfig`
//! wiring — so a retuned default cannot silently diverge from either
//! the docs or the constant it is named after.

use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_kernel::{
    KernelConfig, DEFAULT_DELI_WAYS, DEFAULT_EPOCH_LEN, DEFAULT_MONITOR_DEPTH,
    DEFAULT_MONITOR_SHIFT, DEFAULT_SETS, DEFAULT_WAYS,
};
use nucache_sim::config::{
    BASELINE_L1_BYTES, BASELINE_L1_WAYS, BASELINE_L2_BYTES, BASELINE_L2_WAYS,
    BASELINE_LLC_BYTES_PER_CORE, BASELINE_LLC_WAYS, BASELINE_MEASURE_ACCESSES, BASELINE_SEED,
    BASELINE_WARMUP_ACCESSES,
};
use nucache_sim::SimConfig;

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
    assert_eq!(k.monitor_depth, DEFAULT_MONITOR_DEPTH);
}
