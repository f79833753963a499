//! The LRU floor: under guest admission with no class ever chosen, the
//! kernel is exactly an LRU cache of its geometry.
//!
//! With `DeliAdmission::Guests` and `SelectionStrategy::None`, every
//! MainWays eviction enters the DeliWays as a guest and every DeliWays
//! hit returns to the MainWays, so the MainWays in LRU order
//! followed by the DeliWays in FIFO order are one LRU stack of all the
//! ways. Each test drives such a kernel and a `deli_ways = 0` kernel with
//! the same sets and ways through one stream and requires every outcome
//! to be equal: whether a `get` hit, the value it returned and the entry
//! a promotion pushed out, the entry each `put` and `remove` gave back.
//! Only the region a hit reports may differ. Under the paper's rule,
//! `ChosenOnly`, the same kernel is an LRU cache of its MainWays alone
//! and fails this test.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_kernel::{
    DeliAdmission, Evicted, InsertionClass, KernelConfig, Lookup, NucacheKernel, SelectionStrategy,
};
use proptest::prelude::*;

/// The sets × ways geometries, each run at every DeliWays count.
const GEOMETRIES: [(usize, usize); 4] = [(4, 4), (8, 8), (16, 16), (2, 5)];

/// One operation: a `get` of the key that `put`s it on a miss, a `put`
/// whether or not the key is resident, or a `remove`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64, u64),
    Write(u64, u64),
    Remove(u64),
}

/// Operations by 4 classes on keys below `keys`: 3 in 4 reads, 3 in 16
/// writes, 1 in 16 removes.
fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    (0..keys, 0u64..4, 0u8..16).prop_map(|(key, class, kind)| match kind {
        0 => Op::Remove(key),
        1..=3 => Op::Write(key, class),
        _ => Op::Read(key, class),
    })
}

/// A kernel of `sets` × `ways` with `deli` DeliWays that never chooses a
/// class and admits guests.
fn kernel(sets: usize, ways: usize, deli: usize) -> NucacheKernel<u64> {
    let config = KernelConfig {
        deli_admission: DeliAdmission::Guests,
        ..KernelConfig::default()
            .with_sets(sets)
            .with_ways(ways)
            .with_deli_ways(deli)
            .with_epoch_len(64)
            .with_strategy(SelectionStrategy::None)
    };
    NucacheKernel::init(config).expect("valid config")
}

type Outcome = Option<(u64, InsertionClass, u64)>;

fn left(e: Option<Evicted<u64, InsertionClass>>) -> Outcome {
    e.map(|e| (e.key, e.class, e.value))
}

/// A `get`: whether it hit, the value it returned and the entry its
/// promotion pushed out.
fn get(k: &mut NucacheKernel<u64>, key: u64, class: InsertionClass) -> Option<(u64, Outcome)> {
    match k.get(key, class) {
        Lookup::Hit { value, evicted, .. } => Some((*value, left(evicted))),
        Lookup::Miss => None,
    }
}

/// Runs `ops` through both kernels and asserts equal outcomes. Returns
/// the number of operations compared.
fn assert_lru_floor(sets: usize, ways: usize, deli: usize, ops: &[Op]) -> usize {
    let mut nucache = kernel(sets, ways, deli);
    let mut lru = kernel(sets, ways, 0);
    let mut compared = 0;
    for (step, &op) in ops.iter().enumerate() {
        let value = step as u64;
        let at = || format!("{sets}x{ways} with {deli} DeliWays, step {step}: {op:?}");
        match op {
            Op::Read(key, class) | Op::Write(key, class) => {
                let class = InsertionClass::new(class);
                let hit = get(&mut nucache, key, class);
                assert_eq!(hit, get(&mut lru, key, class), "get differs at {}", at());
                compared += 1;
                if hit.is_none() || matches!(op, Op::Write(..)) {
                    let put = left(nucache.put(key, class, value));
                    assert_eq!(put, left(lru.put(key, class, value)), "put differs at {}", at());
                    compared += 1;
                }
            }
            Op::Remove(key) => {
                let removed = left(nucache.remove(key));
                assert_eq!(removed, left(lru.remove(key)), "remove differs at {}", at());
                compared += 1;
            }
        }
    }
    assert_eq!((nucache.hits(), nucache.misses()), (lru.hits(), lru.misses()));
    assert_eq!(nucache.len(), lru.len());
    assert!(nucache.chosen_classes().is_empty());
    compared
}

proptest! {
    // Fewer cases under Miri, to stay within the interpreter's budget.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

    /// Random streams over a quarter to twice the cache's capacity in
    /// keys, at every geometry and every DeliWays count that leaves a
    /// MainWay.
    #[test]
    fn guests_without_selection_are_same_geometry_lru(
        ops in prop::collection::vec(op_strategy(1 << 16), 1..if cfg!(miri) { 100 } else { 1000 }),
        quarters in 1u64..9,
    ) {
        for (sets, ways) in GEOMETRIES {
            // Keys scale with the capacity, so small caches thrash and
            // large ones hit.
            let keys = (sets * ways) as u64 * quarters / 4;
            let ops: Vec<Op> = ops.iter().map(|&op| match op {
                Op::Read(key, c) => Op::Read(key % keys.max(1), c),
                Op::Write(key, c) => Op::Write(key % keys.max(1), c),
                Op::Remove(key) => Op::Remove(key % keys.max(1)),
            }).collect();
            for deli in 0..ways {
                assert_lru_floor(sets, ways, deli, &ops);
            }
        }
    }
}

/// A deterministic stream long enough to cross hundreds of epochs: a
/// loop over 12 keys per set and a scan, with a remove every 16 rounds,
/// at the widest geometry.
#[test]
fn guests_without_selection_follow_lru_on_a_loop_and_scan() {
    let rounds = if cfg!(miri) { 500 } else { 20_000 };
    let ops: Vec<Op> = (0..rounds)
        .flat_map(|round: u64| {
            let looping = Op::Read(round % (16 * 12), 1);
            let scan = Op::Read(1_000 + round, 2);
            let remove = Op::Remove((round * 7) % (16 * 12));
            [looping, scan].into_iter().chain(round.is_multiple_of(16).then_some(remove))
        })
        .collect();
    for deli in [1, 4, 8, 15] {
        assert!(assert_lru_floor(16, 16, deli, &ops) > ops.len());
    }
}
