//! The kernel against its reference model, over the configuration grid
//! of the pre-kernel equivalence suite.
//!
//! Every test drives a `NucacheKernel` with `enable_audit` on, so each
//! `get`, `put` and `remove` is replayed into the kernel's textbook model
//! of its replacement (per set, the MainWays in LRU order and the
//! DeliWays in FIFO order with their guests marked, and DeliWays
//! admission from the model's own copy of the chosen set). The kernel
//! must agree with the model on hit or miss, the region, the entry that
//! left the cache and both orders of the set; a divergence panics with
//! an `audit:` message. Every test runs under both DeliWays admission
//! rules, the paper's `ChosenOnly` and the library default `Guests`. The
//! streams mix get-then-put accesses, accesses that also overwrite a hit
//! in place (possibly with another class) and removes.
//!
//! The epoch sequencing the old suite compared against its copy of the
//! pre-kernel code (tick, snapshot, decay, install) is pinned by the
//! matching rows of `golden_kernel.rs`.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_kernel::{
    DeliAdmission, InsertionClass, KernelConfig, NucacheKernel, SelectionStrategy,
};
use proptest::prelude::*;

/// What a step does with its key.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `get`, then `put` on a miss.
    Read,
    /// `get`, then `put` whether it hit or not.
    Write,
    /// `remove`.
    Remove,
}

/// One operation of a stream: its class, key and kind.
type Step = (u64, u64, Kind);

/// Steps by 6 classes over keys below `keys`: half reads, 7 in 16
/// writes, 1 in 16 removes.
fn step_strategy(keys: u64) -> impl Strategy<Value = Step> {
    (0u64..6, 0..keys, 0u8..16).prop_map(|(class, key, kind)| {
        let kind = match kind {
            0 => Kind::Remove,
            1..=7 => Kind::Write,
            _ => Kind::Read,
        };
        (class, key, kind)
    })
}

fn strategy_choice() -> impl Strategy<Value = SelectionStrategy> {
    (0u64..5).prop_map(|i| match i {
        0 => SelectionStrategy::CostBenefit,
        1 => SelectionStrategy::Exhaustive,
        2 => SelectionStrategy::StaticTopK(2),
        3 => SelectionStrategy::Random(2),
        _ => SelectionStrategy::None,
    })
}

fn admission(guests: bool) -> DeliAdmission {
    if guests {
        DeliAdmission::Guests
    } else {
        DeliAdmission::ChosenOnly
    }
}

/// `sets` × `ways` with `deli` DeliWays, epochs of `epoch_len` accesses,
/// every set sampled and guest admission if `guests`.
fn small(sets: usize, ways: usize, deli: usize, epoch_len: u64, guests: bool) -> KernelConfig {
    let mut config = KernelConfig::default()
        .with_sets(sets)
        .with_ways(ways)
        .with_deli_ways(deli)
        .with_epoch_len(epoch_len);
    config.monitor_shift = 0;
    config.deli_admission = admission(guests);
    config
}

/// Runs `steps` through a kernel built from `config` with audit on, then
/// checks that every `get` counted, every epoch ran its checks and every
/// operation was replayed.
fn run(config: KernelConfig, steps: impl IntoIterator<Item = Step>) -> NucacheKernel<u64> {
    let mut k = NucacheKernel::init(config).expect("valid config");
    k.enable_audit();
    let (mut gets, mut ops) = (0, 0);
    for (value, (class, key, kind)) in (0u64..).zip(steps) {
        let class = InsertionClass::new(class);
        ops += 1;
        if let Kind::Remove = kind {
            k.remove(key);
            continue;
        }
        gets += 1;
        if !k.get(key, class).is_hit() || matches!(kind, Kind::Write) {
            k.put(key, class, value);
            ops += 1;
        }
    }
    assert_eq!(k.hits() + k.misses(), gets);
    assert_eq!(k.epochs(), gets / k.config().epoch_len, "one epoch per epoch_len gets");
    assert_eq!(k.epoch_checks(), k.epochs());
    assert_eq!(k.audit_ops(), ops);
    k
}

proptest! {
    // Fewer cases under Miri, to stay within the interpreter's budget.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// Every selection strategy at 0-3 DeliWays, epochs short enough to
    /// cross several boundaries.
    #[test]
    fn kernel_matches_model(
        steps in prop::collection::vec(step_strategy(96), 1..1500),
        deli in 0usize..4,
        strategy in strategy_choice(),
        epoch_len in 40u64..220,
        guests in any::<bool>(),
    ) {
        run(small(8, 4, deli, epoch_len, guests).with_strategy(strategy), steps);
    }

    /// Sampled monitoring (shift > 0) and a bigger geometry.
    #[test]
    fn kernel_matches_model_sampled_monitor(
        steps in prop::collection::vec(step_strategy(512), 1..1200),
        shift in 1u32..3,
        guests in any::<bool>(),
    ) {
        let mut config = small(16, 8, 4, 100, guests);
        config.monitor_shift = shift;
        run(config, steps);
    }
}

/// A deterministic run at the paper's geometry (64 sets × 16 ways, 8
/// DeliWays) that the selector bites on: class 1 loops over 768 keys,
/// more than the MainWays hold, while class 2 streams through fresh keys
/// every other round. Under both admission rules.
#[test]
fn kernel_matches_model_loop_stream() {
    let rounds = if cfg!(miri) { 3_000 } else { 30_000 };
    for guests in [false, true] {
        let steps = (0..rounds).flat_map(|round| {
            let streaming = (round % 2 == 0).then_some((2, (1 << 20) + round / 2, Kind::Read));
            std::iter::once((1, round % 768, Kind::Read)).chain(streaming)
        });
        let k = run(small(64, 16, 8, 2_000, guests), steps);
        assert!(k.epochs() >= 2, "the stream must cross epochs");
        assert!(k.deli_hits() > 0, "the stream must hit in the DeliWays");
        assert_eq!(k.chosen_classes(), [InsertionClass::new(1)], "the loop is chosen");
    }
}
