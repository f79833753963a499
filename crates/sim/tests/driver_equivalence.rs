//! The monomorphized driver hot loop is a dispatch change, not a
//! behaviour change: [`run_mix`] (concrete LLC type, static dispatch)
//! must produce bit-identical [`SimResult`]s to driving the same scheme
//! through `dyn SharedLlc` — for every scheme, and for arbitrary seeds
//! and run lengths. [`run_mix_nucache`] must simulate the same cache as
//! [`run_mix`] does for the same NUcache scheme.

use nucache_core::{KernelConfig, SelectionStrategy};
use nucache_sim::{run_mix, run_mix_nucache, run_mix_on, Scheme, SimConfig, SimResult};
use nucache_trace::{Mix, SpecWorkload};
use proptest::prelude::*;

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Lru,
        Scheme::Dip,
        Scheme::Drrip,
        Scheme::Tadip,
        Scheme::Ucp,
        Scheme::Pipp,
        Scheme::Ship,
        Scheme::nucache_default(),
    ]
}

fn contended_mix() -> Mix {
    Mix::new("sphinx_libq", vec![SpecWorkload::SphinxLike, SpecWorkload::LibquantumLike])
}

fn dyn_run(config: &SimConfig, mix: &Mix, scheme: &Scheme) -> SimResult {
    let mut llc = scheme.build(config.llc, config.num_cores, config.seed);
    run_mix_on(config, mix, llc.as_mut())
}

/// Every scheme: the monomorphized loop and the `dyn` loop agree bit for
/// bit on the demo configuration.
#[test]
fn mono_matches_dyn_for_every_scheme() {
    let config = SimConfig::demo();
    let mix = contended_mix();
    for scheme in all_schemes() {
        let mono = run_mix(&config, &mix, &scheme);
        let dynamic = dyn_run(&config, &mix, &scheme);
        assert_eq!(mono, dynamic, "mono vs dyn SimResult differs for {}", scheme.name());
    }
}

/// `run_mix_nucache` builds its LLC exactly as `run_mix` builds
/// `Scheme::NuCache`, the run's seed included, so the stochastic
/// strategies agree too.
#[test]
fn run_mix_nucache_matches_run_mix() {
    let config = SimConfig::demo();
    let mix = contended_mix();
    for strategy in [SelectionStrategy::CostBenefit, SelectionStrategy::Random(2)] {
        let nucache = KernelConfig::default().with_epoch_len(5_000).with_strategy(strategy);
        let (result, _) = run_mix_nucache(&config, &mix, nucache);
        assert_eq!(result, run_mix(&config, &mix, &Scheme::NuCache(nucache)), "{strategy}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence is not an artifact of one seed or run length:
    /// arbitrary seeds and (small) warmup/measure windows agree too.
    #[test]
    fn mono_matches_dyn_for_arbitrary_runs(
        seed in any::<u64>(),
        warmup in 1u64..2_000,
        measure in 1u64..5_000,
        scheme_idx in 0usize..8,
    ) {
        let mut config = SimConfig::demo().with_run_lengths(warmup, measure);
        config.seed = seed;
        let scheme = all_schemes().swap_remove(scheme_idx);
        let mix = contended_mix();
        let mono = run_mix(&config, &mix, &scheme);
        let dynamic = dyn_run(&config, &mix, &scheme);
        prop_assert_eq!(mono, dynamic, "mono vs dyn differs for {}", scheme.name());
    }
}
