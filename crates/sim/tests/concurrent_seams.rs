//! Model checks for the sharded NUcache front-end's three concurrency
//! seams (`nucache_kernel::concurrent`), explored exhaustively under
//! the loom-lite interleaving explorer (preemption bound ≥ 2):
//!
//! 1. two request threads racing `get`/`put` on one shard: per-shard
//!    mutual exclusion keeps the shard's hit/len accounting coherent
//!    on every schedule,
//! 2. the deferred-epoch pump (lock + take, compute unlocked, lock +
//!    install) racing a reader: readers never observe a torn install,
//!    and exactly one pending snapshot is installed exactly once,
//! 3. poisoned-shard recovery: a request batch panicking under the
//!    shard lock poisons only that shard, and the next access recovers
//!    it via `PoisonError::into_inner`, counting the recovery,
//! 4. two requests missing on one key and both putting it: the real
//!    kernel behind the shard lock keeps the key resident exactly once,
//!    whichever `put` consumes the key its `get` miss left behind.
//!
//! Like `interleave_seams.rs`, the models mirror the *shapes* in
//! `crates/kernel/src/concurrent.rs` but swap `std::sync` for the
//! interleave shims, so the assertions hold on every admitted
//! schedule, not just the ones the OS produces.

use nucache_common::interleave::{spawn, AtomicUsize, Explorer, Mutex, DEFAULT_PREEMPTION_BOUND};
use nucache_kernel::{InsertionClass, KernelConfig, NucacheKernel};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// One shard's mutable state, as the shard mutex guards it: the
/// resident map plus the hit counter `ConcurrentStats` aggregates.
#[derive(Default)]
struct ShardState {
    resident: BTreeMap<u64, u64>,
    hits: usize,
}

/// The `get`-then-`put` shape of a closed-loop request: look up under
/// the shard lock, and on a miss reacquire to insert (the loadgen
/// sleeps between the two, so they are separate critical sections).
fn serve(shard: &Mutex<ShardState>, key: u64) -> bool {
    let hit = {
        let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if s.resident.contains_key(&key) {
            s.hits += 1;
            true
        } else {
            false
        }
    };
    if !hit {
        let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        s.resident.insert(key, key ^ 0xace);
    }
    hit
}

#[test]
fn racing_requests_keep_one_shard_coherent_on_every_schedule() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let shard = Arc::new(Mutex::new(ShardState::default()));
        let t1 = {
            let shard = Arc::clone(&shard);
            spawn(move || serve(&shard, 7))
        };
        let t2 = {
            let shard = Arc::clone(&shard);
            spawn(move || serve(&shard, 7))
        };
        let h1 = t1.join().expect("request 1 completes");
        let h2 = t2.join().expect("request 2 completes");
        let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(s.resident.get(&7), Some(&(7 ^ 0xace)), "the key is resident after both");
        // Whoever lost the race may hit; the accounting must agree
        // with what the requests observed on this schedule.
        assert_eq!(s.hits, usize::from(h1) + usize::from(h2), "hit count matches observations");
        assert!(s.resident.len() == 1, "double insert is idempotent, never duplicated");
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

/// The deferred-epoch shape of one shard: `pending` is the snapshot
/// `epoch_tick` parks at the boundary, `installed` the generation the
/// readers consult (the `chosen` set in the kernel).
#[derive(Default)]
struct EpochShard {
    pending: Option<u64>,
    installed: Option<u64>,
    accesses: usize,
}

#[test]
fn epoch_pump_installs_once_and_readers_never_see_a_torn_install() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let shard = Arc::new(Mutex::new(EpochShard { pending: Some(41), ..Default::default() }));
        let installs = Arc::new(AtomicUsize::new(0));
        // The EpochThread shape: lock + take, compute unlocked,
        // relock + install.
        let pump = {
            let (shard, installs) = (Arc::clone(&shard), Arc::clone(&installs));
            spawn(move || {
                let taken = shard.lock().unwrap_or_else(PoisonError::into_inner).pending.take();
                if let Some(inputs) = taken {
                    let selection = inputs + 1; // compute() outside the lock
                    let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
                    s.installed = Some(selection);
                    installs.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // A reader access between the take and the install sees either
        // the old chosen set (None) or the new one — never a torn mix.
        let reader = {
            let shard = Arc::clone(&shard);
            spawn(move || {
                let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
                s.accesses += 1;
                s.installed
            })
        };
        let seen = reader.join().expect("reader completes");
        pump.join().expect("pump completes");
        assert!(seen.is_none() || seen == Some(42), "no torn install is observable: {seen:?}");
        let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(s.installed, Some(42), "the snapshot is installed after the pump");
        assert!(s.pending.is_none(), "take consumed the single pending slot");
        assert_eq!(installs.load(Ordering::SeqCst), 1, "exactly one install per snapshot");
        assert_eq!(s.accesses, 1, "the reader was never wedged by the pump");
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

#[test]
fn a_panicking_batch_poisons_one_shard_and_the_next_access_recovers_it() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let shard = Arc::new(Mutex::new(ShardState::default()));
        let recoveries = Arc::new(AtomicUsize::new(0));
        // The poisoning_probe shape: panic while the shard guard is
        // held, exactly what an injected batch fault does.
        let probe = {
            let shard = Arc::clone(&shard);
            spawn(move || {
                let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                panic!("injected batch fault under the shard lock");
            })
        };
        // The lock_shard shape: recover a poisoned guard and count it.
        let survivor = {
            let (shard, recoveries) = (Arc::clone(&shard), Arc::clone(&recoveries));
            spawn(move || {
                let mut s = shard.lock().unwrap_or_else(|poisoned| {
                    recoveries.fetch_add(1, Ordering::SeqCst);
                    PoisonError::into_inner(poisoned)
                });
                s.resident.insert(3, 30);
                s.resident.len()
            })
        };
        assert!(probe.join().is_err(), "the probe's panic is consumed by join");
        let len = survivor.join().expect("the survivor is never wedged by poison");
        assert_eq!(len, 1, "the recovered shard serves the insert");
        // Recovery count depends on schedule (the survivor may win the
        // race and see a clean lock), but never exceeds one here.
        assert!(recoveries.load(Ordering::SeqCst) <= 1);
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}

/// A get-then-put request against a real kernel shard, as the
/// front-end serves it: the lookup and the fill are separate critical
/// sections, so the other request can run in between.
fn serve_kernel(shard: &Mutex<NucacheKernel<u64>>, key: u64, value: u64) -> bool {
    let tenant = InsertionClass::new(1);
    let hit = shard.lock().unwrap_or_else(PoisonError::into_inner).get(key, tenant).is_hit();
    if !hit {
        shard.lock().unwrap_or_else(PoisonError::into_inner).put(key, tenant, value);
    }
    hit
}

#[test]
fn two_misses_then_two_puts_of_one_key_leave_it_resident_once() {
    let stats = Explorer::with_bound(DEFAULT_PREEMPTION_BOUND).explore(|| {
        let config = KernelConfig::default().with_sets(4).with_ways(4).with_deli_ways(2);
        let mut kernel = NucacheKernel::init(config).expect("valid config");
        // The audit replays every operation into the reference model and
        // panics when a put fills a key that is already resident.
        kernel.enable_audit();
        let shard = Arc::new(Mutex::new(kernel));
        let t1 = {
            let shard = Arc::clone(&shard);
            spawn(move || serve_kernel(&shard, 7, 1))
        };
        let t2 = {
            let shard = Arc::clone(&shard);
            spawn(move || serve_kernel(&shard, 7, 2))
        };
        let h1 = t1.join().expect("request 1 completes");
        let h2 = t2.join().expect("request 2 completes");
        let k = shard.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(k.contains(7), "the key is resident after both requests");
        assert_eq!(k.len(), 1, "the key is stored exactly once");
        assert!(matches!(k.peek(7), Some(&1) | Some(&2)), "the value is one request's");
        assert_eq!(k.hits(), u64::from(h1) + u64::from(h2), "hits match what the requests saw");
        assert_eq!(k.hits() + k.misses(), 2);
    });
    assert!(stats.schedules > 1, "the seam must actually branch: {stats:?}");
}
