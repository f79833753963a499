//! Equivalence and linearizability checks for the concurrent sharded
//! front-end (`nucache_kernel::concurrent`):
//!
//! 1. **Bit-identity, 1 shard / 1 thread** — property test: a
//!    [`ConcurrentNucache`] with one shard in [`EpochMode::Inline`]
//!    must produce exactly the serial [`NucacheKernel`]'s outcomes on
//!    the same access stream — per-access hit/miss, cumulative
//!    counters, epoch count, chosen classes and selection objective
//!    (the style of `model_equivalence.rs`).
//! 2. **Deferred-selection identity** — property test: a kernel in
//!    deferred mode whose boundary snapshots are taken, computed
//!    off-kernel and installed before the next chosen-consulting
//!    operation matches the inline kernel bit-for-bit, including
//!    drained telemetry. This is the seam the background epoch thread
//!    relies on.
//! 3. **Linearizability smoke** — real threads over disjoint key
//!    ranges: every observed hit carries the exact value its owner put
//!    (so it was previously put and never torn or cross-wired), and a
//!    removed key stays gone until its owner re-puts it.

#![cfg(feature = "concurrent")]

use nucache_kernel::concurrent::{ConcurrentConfig, ConcurrentNucache, EpochMode};
use nucache_kernel::{InsertionClass, KernelConfig, NucacheKernel, SelectionStrategy};
use proptest::prelude::*;
use std::sync::Arc;

fn class(raw: u64) -> InsertionClass {
    InsertionClass::new(raw)
}

/// A serial-equivalent demand access against the concurrent front-end:
/// get, then put on miss. Returns whether it hit.
fn concurrent_access(cache: &ConcurrentNucache<u64>, key: u64, c: u64) -> bool {
    if cache.get(key, class(c)).is_some() {
        true
    } else {
        cache.put(key, class(c), key ^ 0xace);
        false
    }
}

/// The same demand access against a serial kernel.
fn serial_access(kernel: &mut NucacheKernel<u64>, key: u64, c: u64) -> bool {
    if kernel.get(key, class(c)).is_hit() {
        true
    } else {
        kernel.put(key, class(c), key ^ 0xace);
        false
    }
}

fn small_config(strategy: SelectionStrategy) -> KernelConfig {
    let mut config = KernelConfig::default()
        .with_sets(16)
        .with_ways(4)
        .with_deli_ways(2)
        .with_epoch_len(64)
        .with_strategy(strategy)
        .with_seed(7);
    config.monitor_shift = 0; // observe every set so epochs have evidence
    config
}

/// `(key, class)` streams biased toward reuse so epochs see real
/// delinquency, plus occasional removes.
fn stream() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec((0u64..96, 0u64..6, prop::bool::weighted(0.05)), 1..600)
}

proptest! {
    // Shrunk under Miri to stay in interpreter-budget (CI convention).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 64 }))]

    /// Acceptance pin: 1 shard + 1 thread of the concurrent front-end
    /// is the serial kernel, bit for bit.
    #[test]
    fn one_shard_one_thread_is_bit_identical_to_serial(
        ops in stream(),
        cost_benefit in any::<bool>(),
    ) {
        let strategy =
            if cost_benefit { SelectionStrategy::CostBenefit } else { SelectionStrategy::StaticTopK(2) };
        let config = small_config(strategy);
        let cache: ConcurrentNucache<u64> = ConcurrentNucache::init(ConcurrentConfig {
            shards: 1,
            shard: config,
            epoch_mode: EpochMode::Inline,
        }).expect("valid config");
        let mut serial: NucacheKernel<u64> = NucacheKernel::init(config).expect("valid config");

        for &(key, c, remove) in &ops {
            prop_assert_eq!(cache.shard_of(key), 0, "one shard routes everything to 0");
            if remove {
                let a = cache.remove(key).map(|e| (e.key, e.value));
                let b = serial.remove(key).map(|e| (e.key, e.value));
                prop_assert_eq!(a, b, "remove outcome diverged");
            } else {
                let a = concurrent_access(&cache, key, c);
                let b = serial_access(&mut serial, key, c);
                prop_assert_eq!(a, b, "hit/miss diverged at key {}", key);
            }
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.hits, serial.hits());
        prop_assert_eq!(stats.misses, serial.misses());
        prop_assert_eq!(stats.deli_hits, serial.deli_hits());
        prop_assert_eq!(stats.deli_fills, serial.deli_fills());
        prop_assert_eq!(stats.epochs, serial.epochs());
        prop_assert_eq!(stats.len, serial.len() as u64);
        let (chosen, last, accesses) = cache.with_shard(0, |shard| {
            (shard.chosen_classes(), shard.last_selection().clone(), shard.selection_accesses())
        });
        prop_assert_eq!(chosen, serial.chosen_classes());
        prop_assert_eq!(&last, serial.last_selection());
        prop_assert_eq!(accesses, serial.selection_accesses());
    }

    /// The deferred path (boundary snapshot → compute off-kernel →
    /// install), with the install driven before the next
    /// chosen-consulting operation, equals the inline path exactly —
    /// state, counters and telemetry.
    ///
    /// Promotion is disabled because a DeliWays-hit promotion inside the
    /// boundary access itself consults the chosen set before any
    /// external driver can install (see `install_selection`'s staleness
    /// contract); every other access path leaves a pump point.
    #[test]
    fn deferred_selection_matches_inline(ops in stream()) {
        let mut config = small_config(SelectionStrategy::CostBenefit);
        config.promote_on_deli_hit = false;
        config.deli_hit_refresh = true;
        let mut inline_k: NucacheKernel<u64> = NucacheKernel::init(config).expect("valid config");
        let mut deferred_k: NucacheKernel<u64> = NucacheKernel::init(config).expect("valid config");
        deferred_k.set_deferred_selection(true);
        inline_k.set_telemetry(true);
        deferred_k.set_telemetry(true);
        inline_k.enable_audit();
        deferred_k.enable_audit();

        let pump = |k: &mut NucacheKernel<u64>| {
            if let Some(inputs) = k.take_epoch_inputs() {
                let selection = inputs.compute();
                k.install_selection(inputs, selection);
            }
        };
        for &(key, c, remove) in &ops {
            if remove {
                let a = inline_k.remove(key).map(|e| (e.key, e.value));
                let b = deferred_k.remove(key).map(|e| (e.key, e.value));
                prop_assert_eq!(a, b);
            } else {
                let a = serial_access(&mut inline_k, key, c);
                // Same demand access, but the install lands between the
                // boundary get and the chosen-consulting put.
                let hit = deferred_k.get(key, class(c)).is_hit();
                pump(&mut deferred_k);
                if !hit {
                    deferred_k.put(key, class(c), key ^ 0xace);
                }
                prop_assert_eq!(a, hit, "hit/miss diverged at key {}", key);
            }
        }

        prop_assert_eq!(inline_k.hits(), deferred_k.hits());
        prop_assert_eq!(inline_k.misses(), deferred_k.misses());
        prop_assert_eq!(inline_k.deli_hits(), deferred_k.deli_hits());
        prop_assert_eq!(inline_k.deli_fills(), deferred_k.deli_fills());
        prop_assert_eq!(inline_k.epochs(), deferred_k.epochs());
        prop_assert_eq!(inline_k.chosen_classes(), deferred_k.chosen_classes());
        prop_assert_eq!(inline_k.last_selection(), deferred_k.last_selection());
        prop_assert_eq!(inline_k.selection_accesses(), deferred_k.selection_accesses());
        prop_assert_eq!(inline_k.drain_epochs(), deferred_k.drain_epochs());
        prop_assert_eq!(inline_k.epoch_checks(), deferred_k.epoch_checks());
    }
}

/// Value an owner thread stores for `key`: key-derived, so any observed
/// hit proves which put produced it.
fn owned_value(owner: u64, key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9).wrapping_add(owner)
}

/// Multi-thread linearizability smoke: every observed hit was
/// previously put (it carries the owner's key-derived value) and not
/// yet evicted; a removed key misses until re-put.
#[test]
fn multi_thread_hits_are_previously_put_values() {
    const THREADS: u64 = 4;
    let keys_per_thread: u64 = if cfg!(miri) { 48 } else { 512 };
    let rounds: usize = if cfg!(miri) { 2 } else { 6 };

    let shard =
        KernelConfig::default().with_sets(256).with_ways(8).with_deli_ways(4).with_epoch_len(1024);
    let cache: Arc<ConcurrentNucache<u64>> =
        Arc::new(ConcurrentNucache::init(ConcurrentConfig::new(8, shard)).expect("valid config"));

    let workers: Vec<_> = (0..THREADS)
        .map(|owner| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let base = owner * keys_per_thread;
                let c = class(owner);
                for round in 0..rounds {
                    for k in 0..keys_per_thread {
                        let key = base + k;
                        // Only the owner writes `key`, so a hit must
                        // carry exactly the owner's value.
                        match cache.get(key, c) {
                            Some(v) => assert_eq!(
                                v,
                                owned_value(owner, key),
                                "hit returned a value nobody put"
                            ),
                            None => {
                                cache.put(key, c, owned_value(owner, key));
                            }
                        }
                        // Neighbors' keys: reads must either miss or
                        // see the neighbor's exact value.
                        let neighbor = (owner + 1) % THREADS;
                        let nkey = neighbor * keys_per_thread + k;
                        if let Some(v) = cache.get_with(nkey, c, |v| *v) {
                            assert_eq!(v, owned_value(neighbor, nkey));
                        }
                    }
                    // Remove a slice of owned keys; until this thread
                    // re-puts them, nobody else will, so they must miss.
                    for k in (0..keys_per_thread).step_by(7) {
                        let key = base + k;
                        cache.remove(key);
                        assert!(
                            cache.get_with(key, c, |v| *v).is_none(),
                            "round {round}: removed key {key} still resident"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panics");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "the smoke must actually observe hits");
    assert_eq!(stats.poison_recoveries, 0, "clean run must not poison");
}
