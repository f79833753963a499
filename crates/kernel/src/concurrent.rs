//! A concurrent sharded front-end over [`NucacheKernel`].
//!
//! The kernel itself is a single-threaded state machine: every access
//! mutates replacement state, so wrapping one kernel in a lock
//! serializes the entire cache. This module shards the key space over
//! `N` independent kernels — each with its own Next-Use monitor,
//! delinquency tracker and epoch selection — and routes each key to its
//! shard with the division-free [`FastRange`] reduction over a
//! [`mix64`]-avalanched key. The mix matters: the kernel indexes its
//! set array with the key's low bits, so routing on raw key bits would
//! correlate shard choice with set index and skew per-shard occupancy.
//!
//! # Epoch protocol
//!
//! The selection *computation* is the expensive epoch task (it scales
//! with `candidates × deli_ways × buckets` and is exponential for the
//! exhaustive oracle), so [`EpochMode::Deferred`] moves it off the
//! request path: shards run with
//! [deferred selection](NucacheKernel::set_deferred_selection) — the
//! access that crosses the epoch boundary snapshots the selection
//! inputs and decays the window, exactly as inline would, but skips the
//! computation — and a driver ([`EpochThread`] or an explicit
//! [`pump_epochs`] call) sweeps the shards:
//!
//! 1. lock the shard, [take](NucacheKernel::take_epoch_inputs) the
//!    pending snapshot (an `Option::take`), unlock;
//! 2. [compute](EpochInputs::compute) the selection **without the
//!    lock** — request threads keep hitting the shard;
//! 3. relock briefly and [install](NucacheKernel::install_selection)
//!    the new chosen set.
//!
//! Readers never wait on the selection computation; the only added
//! critical section is the O(chosen) install swap. Between the boundary
//! snapshot and the install the shard simply keeps using the previous
//! chosen set.
//! [`EpochMode::Inline`] keeps the kernel's default behavior (the
//! boundary access runs selection under the shard lock) and is
//! bit-identical to a serial kernel per shard — the equivalence tests
//! pin that.
//!
//! # Poisoned-shard recovery
//!
//! A request-thread panic while holding a shard lock (in practice: a
//! caller closure passed to [`get_with`](ConcurrentNucache::get_with),
//! or an injected fault in the load generator) poisons that shard's
//! mutex. Kernel methods themselves do not panic on the access path —
//! the `panic-in-hot-path` audit gate enforces that contract — so the
//! kernel behind a poisoned lock is still consistent and the front-end
//! recovers it with [`std::sync::PoisonError::into_inner`], counting
//! each recovery
//! in [`poison_recoveries`](ConcurrentNucache::poison_recoveries).
//! Batch-level isolation (catching the panic, abandoning the batch,
//! moving on) is the caller's job; the load generator in
//! `crates/bench` demonstrates it.
//!
//! [`pump_epochs`]: ConcurrentNucache::pump_epochs

use crate::config::{ConfigError, KernelConfig};
use crate::kernel::{EpochInputs, Evicted, Lookup, NucacheKernel};
use core::fmt::Debug;
use core::hash::Hash;
use nucache_common::rng::{mix64, FastRange};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the per-shard selection epochs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// The kernel default: the access that crosses the epoch boundary
    /// runs selection inline, under the shard lock. Per shard this is
    /// bit-identical to a serial [`NucacheKernel`].
    Inline,
    /// Selection is deferred: the boundary access snapshots the
    /// selection inputs, and a driver ([`EpochThread`] or
    /// [`ConcurrentNucache::pump_epochs`]) computes the selection
    /// outside the shard lock and installs the result.
    ///
    /// Selection needs an [`EpochThread::spawn`] or a caller that runs
    /// [`pump_epochs`](ConcurrentNucache::pump_epochs) periodically.
    /// Without either, no selection ever installs and no class is
    /// chosen. Under
    /// [`DeliAdmission::Guests`](crate::DeliAdmission::Guests), the
    /// default, every eviction then borrows the DeliWays and each shard
    /// is an LRU cache of its whole geometry; under
    /// [`ChosenOnly`](crate::DeliAdmission::ChosenOnly) the DeliWays stay
    /// empty and each shard acts as an LRU cache of its MainWays.
    Deferred,
}

/// Configuration for [`ConcurrentNucache::init`].
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentConfig {
    /// Number of independent shards (≥ 1). Each shard holds
    /// `shard.sets × shard.ways` entries, so total capacity scales with
    /// the shard count.
    pub shards: usize,
    /// The per-shard kernel configuration.
    pub shard: KernelConfig,
    /// When selection epochs run.
    pub epoch_mode: EpochMode,
}

impl ConcurrentConfig {
    /// A configuration with `shards` shards in [`EpochMode::Deferred`].
    ///
    /// Deferred mode selects only while something runs the epochs: spawn
    /// an [`EpochThread`] over the cache, or call
    /// [`pump_epochs`](ConcurrentNucache::pump_epochs) periodically.
    /// Otherwise no selection ever installs, and each shard is an LRU
    /// cache of its whole geometry under the default
    /// [`DeliAdmission::Guests`](crate::DeliAdmission::Guests) (of its
    /// MainWays under `ChosenOnly`). Set `epoch_mode` to
    /// [`EpochMode::Inline`] to run selection on the request path
    /// instead.
    pub fn new(shards: usize, shard: KernelConfig) -> Self {
        ConcurrentConfig { shards, shard, epoch_mode: EpochMode::Deferred }
    }
}

/// Aggregated counters over every shard, via
/// [`ConcurrentNucache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConcurrentStats {
    /// Lookups that hit, summed over shards.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Hits satisfied from DeliWays.
    pub deli_hits: u64,
    /// Entries moved into DeliWays.
    pub deli_fills: u64,
    /// Selection epochs completed, summed over shards.
    pub epochs: u64,
    /// Resident entries.
    pub len: u64,
    /// Poisoned-shard locks recovered via `PoisonError::into_inner`.
    pub poison_recoveries: u64,
}

/// A sharded, thread-safe NUcache front-end. See the [module
/// docs](self) for the shard layout, epoch protocol and poison
/// recovery.
///
/// # Examples
///
/// ```
/// use nucache_kernel::concurrent::{ConcurrentConfig, ConcurrentNucache, EpochThread};
/// use nucache_kernel::{InsertionClass, KernelConfig};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let shard = KernelConfig::default().with_sets(64).with_ways(8).with_deli_ways(4);
/// let cache: Arc<ConcurrentNucache<String>> =
///     Arc::new(ConcurrentNucache::init(ConcurrentConfig::new(4, shard))?);
/// // `ConcurrentConfig::new` defers selection: this thread installs it.
/// let epochs = EpochThread::spawn(Arc::clone(&cache), Duration::from_millis(10));
/// let tenant = InsertionClass::new(1);
/// assert_eq!(cache.get(7, tenant), None);
/// cache.put(7, tenant, "payload".to_string());
/// assert_eq!(cache.get(7, tenant).as_deref(), Some("payload"));
/// epochs.stop();
/// # Ok::<(), nucache_kernel::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct ConcurrentNucache<V, C = crate::InsertionClass> {
    shards: Vec<Mutex<NucacheKernel<V, C>>>,
    /// Precomputed `key_hash % shards` reduction.
    route: FastRange,
    epoch_mode: EpochMode,
    poison_recoveries: AtomicU64,
}

impl<V, C: Copy + Ord + Hash + Debug> ConcurrentNucache<V, C> {
    /// Builds a sharded cache from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the per-shard configuration
    /// violates.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is 0.
    pub fn init(config: ConcurrentConfig) -> Result<Self, ConfigError> {
        assert!(config.shards >= 1, "shard count must be at least 1");
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let mut kernel = NucacheKernel::init(config.shard)?;
            if config.epoch_mode == EpochMode::Deferred {
                kernel.set_deferred_selection(true);
            }
            shards.push(Mutex::new(kernel));
        }
        Ok(ConcurrentNucache {
            shards,
            route: FastRange::below(config.shards as u64),
            epoch_mode: config.epoch_mode,
            poison_recoveries: AtomicU64::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to: the [`FastRange`] reduction of the
    /// [`mix64`]-avalanched key.
    #[expect(clippy::cast_possible_truncation, reason = "`reduce` is below the shard count")]
    pub fn shard_of(&self, key: u64) -> usize {
        self.route.reduce(mix64(key)) as usize
    }

    /// Locks shard `i`, recovering (and counting) a poisoned lock. The
    /// kernel behind a poisoned lock is consistent because kernel
    /// methods do not panic on the access path (see the module docs).
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, NucacheKernel<V, C>> {
        match self.shards[i].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Looks up `key`, cloning the stored value out of the shard so the
    /// lock is released before the caller touches it. Advances the
    /// shard's replacement, monitor and epoch state exactly like
    /// [`NucacheKernel::get`].
    pub fn get(&self, key: u64, class: C) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, class, |v| v.clone())
    }

    /// Looks up `key` and applies `f` to the stored value under the
    /// shard lock (zero-copy reads, in-place updates). If `f` panics the
    /// shard lock is poisoned; the next access recovers it (see the
    /// module docs on poison recovery).
    pub fn get_with<R>(&self, key: u64, class: C, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let mut shard = self.lock_shard(self.shard_of(key));
        match shard.get(key, class) {
            Lookup::Hit { value, .. } => Some(f(value)),
            Lookup::Miss => None,
        }
    }

    /// Inserts `key` with `class` and `value`, returning the entry that
    /// left the cache, if any (semantics of [`NucacheKernel::put`]).
    pub fn put(&self, key: u64, class: C, value: V) -> Option<Evicted<V, C>> {
        self.lock_shard(self.shard_of(key)).put(key, class, value)
    }

    /// Removes `key` if resident (semantics of
    /// [`NucacheKernel::remove`]).
    pub fn remove(&self, key: u64) -> Option<Evicted<V, C>> {
        self.lock_shard(self.shard_of(key)).remove(key)
    }

    /// Whether `key` is resident, without perturbing any shard state.
    pub fn contains(&self, key: u64) -> bool {
        self.lock_shard(self.shard_of(key)).contains(key)
    }

    /// Runs one epoch sweep: for every shard with a
    /// [due](NucacheKernel::selection_due) deferred selection, takes the
    /// epoch inputs, computes the selection *outside* the shard lock and
    /// installs it. Returns the number of selections installed.
    ///
    /// A no-op (returns 0) in [`EpochMode::Inline`].
    pub fn pump_epochs(&self) -> usize {
        let mut installed = 0;
        for i in 0..self.shards.len() {
            let inputs: Option<EpochInputs<C>> = self.lock_shard(i).take_epoch_inputs();
            let Some(inputs) = inputs else { continue };
            // The expensive part runs with no lock held; request
            // threads keep hitting this shard against the old chosen
            // set.
            let selection = inputs.compute();
            self.lock_shard(i).install_selection(inputs, selection);
            installed += 1;
        }
        installed
    }

    /// The configured epoch mode.
    pub const fn epoch_mode(&self) -> EpochMode {
        self.epoch_mode
    }

    /// Poisoned shard locks recovered so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Aggregates every shard's counters. Locks shards one at a time (no
    /// nested locks), so the snapshot is per-shard consistent but not a
    /// global atomic cut — fine for the monitoring it exists for.
    pub fn stats(&self) -> ConcurrentStats {
        let mut s = ConcurrentStats {
            poison_recoveries: self.poison_recoveries(),
            ..ConcurrentStats::default()
        };
        for i in 0..self.shards.len() {
            let shard = self.lock_shard(i);
            s.hits += shard.hits();
            s.misses += shard.misses();
            s.deli_hits += shard.deli_hits();
            s.deli_fills += shard.deli_fills();
            s.epochs += shard.epochs();
            s.len += shard.len() as u64;
        }
        s
    }

    /// Runs `f` with exclusive access to shard `i` — the escape hatch
    /// for telemetry toggles, audits and equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut NucacheKernel<V, C>) -> R) -> R {
        assert!(i < self.shards.len(), "shard index out of range");
        f(&mut self.lock_shard(i))
    }
}

/// A background thread that periodically calls
/// [`ConcurrentNucache::pump_epochs`], so deferred selections run
/// without any request thread paying for them.
///
/// Stop it explicitly with [`stop`](EpochThread::stop) to learn how
/// many selections it installed; dropping it also stops and joins the
/// thread.
#[derive(Debug)]
pub struct EpochThread {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl EpochThread {
    /// Spawns the epoch thread over `cache`, sweeping every `interval`.
    ///
    /// The interval trades selection staleness against wakeup overhead;
    /// something around `epoch_len / expected_ops_per_sec` keeps
    /// deferred selection as fresh as inline.
    pub fn spawn<V, C>(cache: Arc<ConcurrentNucache<V, C>>, interval: Duration) -> EpochThread
    where
        V: Send + 'static,
        C: Copy + Ord + Hash + Debug + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut installed: u64 = 0;
            while !stop_flag.load(Ordering::SeqCst) {
                installed += cache.pump_epochs() as u64;
                std::thread::sleep(interval);
            }
            // Final sweep so selections due at shutdown still land.
            installed + cache.pump_epochs() as u64
        });
        EpochThread { stop, handle: Some(handle) }
    }

    /// Stops and joins the thread, returning how many selections it
    /// installed.
    #[expect(clippy::expect_used, reason = "propagating an epoch-thread panic is the point")]
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            // A panic inside pump_epochs would mean a kernel invariant
            // already failed; surface it rather than swallowing it.
            Some(handle) => handle.join().expect("epoch thread must not panic"),
            None => 0,
        }
    }
}

impl Drop for EpochThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            // Drop cannot propagate the join result; `stop()` is the
            // path that reports it.
            drop(handle.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;

    fn cfg() -> KernelConfig {
        KernelConfig::default().with_sets(64).with_ways(8).with_deli_ways(4).with_epoch_len(256)
    }

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    #[test]
    fn routes_cover_every_shard() {
        let cache: ConcurrentNucache<u64> =
            ConcurrentNucache::init(ConcurrentConfig::new(8, cfg())).expect("valid config");
        let mut seen = vec![0u64; cache.shard_count()];
        for key in 0..4096 {
            seen[cache.shard_of(key)] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 0, "shard {i} never routed to");
        }
    }

    #[test]
    fn get_put_remove_round_trip() {
        let cache: ConcurrentNucache<u64> =
            ConcurrentNucache::init(ConcurrentConfig::new(4, cfg())).expect("valid config");
        let c = class(1);
        assert_eq!(cache.get(42, c), None);
        cache.put(42, c, 4200);
        assert_eq!(cache.get(42, c), Some(4200));
        assert!(cache.contains(42));
        assert_eq!(cache.remove(42).map(|e| e.value), Some(4200));
        assert!(!cache.contains(42));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn deferred_epochs_install_via_pump() {
        let cache: ConcurrentNucache<u64> =
            ConcurrentNucache::init(ConcurrentConfig::new(2, cfg())).expect("valid config");
        let c = class(7);
        let rounds = if cfg!(miri) { 700 } else { 2048 };
        for key in 0..rounds {
            if cache.get(key % 512, c).is_none() {
                cache.put(key % 512, c, key);
            }
        }
        // Boundary accesses snapshot the epoch (each shard holds one
        // pending snapshot), but no selection installs until the pump.
        let pending = cache.stats().epochs;
        assert!(pending > 0, "epoch boundaries were due");
        for i in 0..cache.shard_count() {
            assert!(
                cache.with_shard(i, |k| k.chosen_classes().is_empty()),
                "shard {i} chose classes before any selection was installed"
            );
        }
        let installed = cache.pump_epochs();
        assert_eq!(installed as u64, pending, "one install per pending snapshot");
        assert_eq!(cache.pump_epochs(), 0, "nothing left pending after the pump");
    }

    #[test]
    fn poisoned_shard_recovers_and_counts() {
        let cache: ConcurrentNucache<u64> =
            ConcurrentNucache::init(ConcurrentConfig::new(2, cfg())).expect("valid config");
        let c = class(1);
        cache.put(5, c, 500);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_with(5, c, |_| panic!("injected fault: test poison"))
        }));
        assert!(panicked.is_err());
        // The shard recovers, the recovery is counted, and the kernel
        // behind the poisoned lock is still consistent.
        assert_eq!(cache.get(5, c), Some(500));
        assert!(cache.poison_recoveries() >= 1);
    }

    #[test]
    fn epoch_thread_sweeps_in_background() {
        let cache: Arc<ConcurrentNucache<u64>> = Arc::new(
            ConcurrentNucache::init(ConcurrentConfig::new(2, cfg())).expect("valid config"),
        );
        let thread = EpochThread::spawn(Arc::clone(&cache), Duration::from_millis(1));
        let c = class(3);
        let rounds = if cfg!(miri) { 1200 } else { 4096 };
        for key in 0..rounds {
            if cache.get(key % 256, c).is_none() {
                cache.put(key % 256, c, key);
            }
        }
        // The sweep interval is 1ms; give the thread time to observe
        // the due epochs, then stop (which runs a final sweep anyway).
        let installed = thread.stop();
        assert!(installed > 0, "background thread installed selections");
        assert!(cache.stats().epochs > 0);
    }
}
