//! Model checks for the runner's three concurrency seams, explored
//! exhaustively under the loom-lite interleaving explorer
//! (`nucache_common::interleave`, preemption bound ≥ 2):
//!
//! 1. the solo-cache memoization protocol (outer map lock handing out
//!    per-key cells, compute-once inside the cell) including recovery
//!    from a panic while the map lock is held,
//! 2. the degradation log's warn-once logic (`Runner::note_degradation`:
//!    a per-runner `Once` latch plus the note vector),
//! 3. the `try_parallel_map` collection protocol (atomic cursor,
//!    per-slot mutexes, completion counter).
//!
//! The models mirror the shapes in `crates/sim/src/runner.rs` but swap
//! `std::sync` for the interleave shims, so every assertion holds on
//! *every* schedule the bound admits, not just the ones the OS happens
//! to produce.

use nucache_common::interleave::{
    spawn, AtomicUsize, Explorer, Mutex, Once, DEFAULT_PREEMPTION_BOUND,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// The `SoloCache::cells` shape: the outer map lock handing out
/// per-key once-cells (modeled as `Mutex<Option<_>>`).
type CellMap = Mutex<BTreeMap<u32, Arc<Mutex<Option<u64>>>>>;

/// The memoization protocol of `SoloCache::get`: take the map lock
/// only long enough to hand out the per-key cell, then compute once
/// inside the cell. Returns the observed value and bumps `computes`
/// when this thread did the work.
fn memo_get(cache: &CellMap, computes: &AtomicUsize, key: u32) -> u64 {
    let cell = {
        let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_default())
    };
    let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_none() {
        computes.fetch_add(1, Ordering::SeqCst);
        *slot = Some(u64::from(key) * 100 + 7);
    }
    slot.expect("cell filled above")
}

#[test]
fn solo_cache_memoization_computes_once_on_every_schedule() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let cache = Arc::new(Mutex::new(BTreeMap::new()));
        let computes = Arc::new(AtomicUsize::new(0));
        let (c1, n1) = (Arc::clone(&cache), Arc::clone(&computes));
        let (c2, n2) = (Arc::clone(&cache), Arc::clone(&computes));
        let t1 = spawn(move || memo_get(&c1, &n1, 3));
        let t2 = spawn(move || memo_get(&c2, &n2, 3));
        let v1 = t1.join().expect("worker 1 must not panic");
        let v2 = t2.join().expect("worker 2 must not panic");
        assert_eq!(v1, 307, "memoized value is the computed one");
        assert_eq!(v1, v2, "both threads observe the same result");
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one thread computes the shared key"
        );
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

#[test]
fn solo_cache_recovers_from_a_panic_under_the_map_lock() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let cache: Arc<CellMap> = Arc::new(Mutex::new(BTreeMap::new()));
        let computes = Arc::new(AtomicUsize::new(0));
        let poisoner = {
            let cache = Arc::clone(&cache);
            spawn(move || {
                let _guard = cache.lock().unwrap_or_else(PoisonError::into_inner);
                panic!("job died holding the map lock");
            })
        };
        let survivor = {
            let (cache, computes) = (Arc::clone(&cache), Arc::clone(&computes));
            spawn(move || memo_get(&cache, &computes, 9))
        };
        assert!(poisoner.join().is_err(), "the poisoning panic is consumed by join");
        let v = survivor.join().expect("the survivor must not be wedged by poison");
        assert_eq!(v, 907, "poison recovery yields the same value as a clean run");
        assert_eq!(computes.load(Ordering::SeqCst), 1);
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

#[test]
fn degradation_log_warns_exactly_once_and_drops_no_note() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let warned = Arc::new(AtomicUsize::new(0));
        let notes = Arc::new(Mutex::new(Vec::new()));
        let once = Arc::new(Once::new());
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let (warned, notes, once) =
                    (Arc::clone(&warned), Arc::clone(&notes), Arc::clone(&once));
                spawn(move || {
                    // The shape of Runner::note_degradation: the
                    // runner's first note warns, every note lands in
                    // its log.
                    once.call_once(|| {
                        warned.fetch_add(1, Ordering::SeqCst);
                    });
                    notes.lock().unwrap_or_else(PoisonError::into_inner).push(i);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("no worker panics");
        }
        assert_eq!(warned.load(Ordering::SeqCst), 1, "stderr warning fires exactly once");
        let mut recorded = notes.lock().unwrap_or_else(PoisonError::into_inner).clone();
        recorded.sort_unstable();
        assert_eq!(recorded, vec![0, 1], "every degradation note is recorded");
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

#[test]
fn parallel_map_collection_fills_every_slot_in_input_order() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let items: Arc<Vec<u64>> = Arc::new(vec![10, 20, 30]);
        let cursor = Arc::new(AtomicUsize::new(0));
        let slots: Arc<Vec<Mutex<Option<u64>>>> =
            Arc::new(items.iter().map(|_| Mutex::new(None)).collect());
        let completed = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (items, cursor, slots, completed) = (
                    Arc::clone(&items),
                    Arc::clone(&cursor),
                    Arc::clone(&slots),
                    Arc::clone(&completed),
                );
                spawn(move || loop {
                    // The shape of try_parallel_map's worker loop:
                    // claim a slot, fill it, publish completion.
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    let Some(&item) = items.get(i) else { break };
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(item * 2);
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("no worker panics");
        }
        assert_eq!(completed.load(Ordering::SeqCst), items.len(), "every job completes");
        let collected: Vec<u64> = slots
            .iter()
            .map(|s| {
                s.lock().unwrap_or_else(PoisonError::into_inner).expect("every slot is filled")
            })
            .collect();
        assert_eq!(collected, vec![20, 40, 60], "output stays in input order");
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}
