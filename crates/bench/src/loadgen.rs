//! Closed-loop threaded load generator for the concurrent NUcache
//! front-end.
//!
//! Each worker thread replays a [`TraceGen`] access stream (the same
//! behavior models the simulator uses) against a shared cache as a
//! *closed loop*: a miss "fetches from the origin" by sleeping a fixed
//! backend latency — outside every shard lock — then inserting, so the
//! next request does not issue until the current one completes. On a
//! single-CPU host, thread scaling therefore comes from overlapping the
//! simulated backend latency, not from CPU parallelism; the in-cache
//! critical sections are the contended resource under test.
//!
//! Two servable caches are provided:
//!
//! * [`ConcurrentNucache`] — the sharded NUcache front-end with its
//!   background epoch thread ([`run_nucache`]);
//! * [`ShardedLru`] — a deliberately lean lock-striped, set-associative
//!   LRU with the same shard count and per-shard geometry
//!   ([`run_striped_lru`]), so the comparison isolates the NUcache
//!   mechanism cost (monitor, tracker, DeliWays) rather than
//!   implementation polish.
//!
//! Per-request latency lands in a [`Log2Histogram`] (nanoseconds), so
//! reports carry p50/p99. Batches of requests run under
//! [`catch_unwind`] with optional seeded fault injection
//! ([`FaultSite::ServeBatch`]): a faulted batch panics mid-request —
//! inside the shard lock when the request hits — poisoning the shard
//! and exercising the front-end's `PoisonError::into_inner` recovery
//! while the generator abandons only that batch.
//!
//! The `loadgen` binary drives this module; CI runs it with injected
//! faults as its concurrency smoke. Its sleep-bound throughput is not a
//! performance record: perfbench's `serve_rw` workload times the same
//! front-end CPU-bound, at the geometry of [`LoadgenConfig::new`].

use nucache_common::fault::{FaultPlan, FaultSite};
use nucache_common::histogram::Log2Histogram;
use nucache_common::json::JsonValue;
use nucache_common::{mix64, CoreId, FastRange};
use nucache_kernel::concurrent::{ConcurrentConfig, ConcurrentNucache, EpochThread};
use nucache_kernel::{InsertionClass, KernelConfig};
use nucache_trace::{SpecWorkload, TraceGen, BLOCK_BITS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Requests per batch: the unit of panic isolation (and fault
/// injection).
pub const BATCH_OPS: usize = 64;

/// Latency histogram buckets: `2^40` ns ≈ 18 minutes, far beyond any
/// single request.
const LATENCY_BUCKETS: usize = 40;

/// Load-generator parameters shared by every cache under test.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Worker (request) threads.
    pub threads: usize,
    /// Shards for both caches.
    pub shards: usize,
    /// Per-shard geometry (both caches use `sets × ways`; NUcache
    /// additionally splits off `deli_ways`).
    pub shard: KernelConfig,
    /// Wall-clock measurement window.
    pub duration: Duration,
    /// Simulated origin-fetch latency charged on every miss, slept
    /// outside all locks.
    pub backend: Duration,
    /// Behavior model each worker replays (workers get distinct cores
    /// and seeds, so streams differ but are reproducible).
    pub workload: SpecWorkload,
    /// Base seed for the per-worker trace streams.
    pub seed: u64,
    /// Seeded per-batch fault injection ([`FaultSite::ServeBatch`]).
    pub fault_plan: Option<FaultPlan>,
}

impl LoadgenConfig {
    /// The defaults the CLI and CI smoke start from: 16 shards of
    /// 256×8 (4 DeliWays), 100µs backend, a reuse-heavy workload.
    pub fn new(threads: usize, duration: Duration) -> Self {
        LoadgenConfig {
            threads,
            shards: 16,
            // Short epochs relative to the request volume a
            // backend-bound closed loop reaches, so runs actually
            // exercise the deferred selection path.
            shard: KernelConfig::default()
                .with_sets(256)
                .with_ways(8)
                .with_deli_ways(4)
                .with_epoch_len(1024),
            duration,
            backend: Duration::from_micros(100),
            workload: SpecWorkload::SphinxLike,
            seed: 0x10ad_6e4e,
            fault_plan: None,
        }
    }
}

/// What one load-generator run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Cache label (`"nucache"` / `"striped_lru"`).
    pub cache: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Completed requests (panicked batches count only the requests
    /// that finished before the panic).
    pub ops: u64,
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that paid the backend latency.
    pub misses: u64,
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// Completed requests per second, across all threads.
    pub ops_per_sec: f64,
    /// Median request latency (ns, saturating histogram bound).
    pub p50_ns: Option<u64>,
    /// 99th-percentile request latency (ns).
    pub p99_ns: Option<u64>,
    /// Request batches started.
    pub batches: u64,
    /// Batches abandoned to a panic (injected faults).
    pub batch_panics: u64,
    /// Poisoned-lock recoveries the cache performed.
    pub poison_recoveries: u64,
    /// Deferred selection epochs the background thread installed
    /// (always 0 for the LRU baseline).
    pub epoch_installs: u64,
}

impl LoadgenReport {
    /// The report as one JSON run entry of the `loadgen` binary's output.
    pub fn to_json(&self) -> JsonValue {
        let quant = |q: Option<u64>| q.map_or(JsonValue::Null, |v| JsonValue::Num(v as f64));
        JsonValue::obj(vec![
            ("cache", JsonValue::Str(self.cache.to_string())),
            ("threads", JsonValue::Num(self.threads as f64)),
            ("ops", JsonValue::Num(self.ops as f64)),
            ("hits", JsonValue::Num(self.hits as f64)),
            ("misses", JsonValue::Num(self.misses as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("ops_per_sec", JsonValue::Num(self.ops_per_sec)),
            ("p50_ns", quant(self.p50_ns)),
            ("p99_ns", quant(self.p99_ns)),
            ("batches", JsonValue::Num(self.batches as f64)),
            ("batch_panics", JsonValue::Num(self.batch_panics as f64)),
            ("poison_recoveries", JsonValue::Num(self.poison_recoveries as f64)),
            ("epoch_installs", JsonValue::Num(self.epoch_installs as f64)),
        ])
    }
}

/// A cache the load generator can serve requests from.
///
/// `fetch` returns whether the key was resident; `insert` stores the
/// origin-fetched value; `poisoning_probe` is the fault-injection hook —
/// it must panic, from inside a shard critical section when possible,
/// so injected faults actually poison locks rather than only unwinding
/// the worker.
pub trait ServeCache: Sync {
    /// Looks up `key`; `true` on hit.
    fn fetch(&self, key: u64, class: InsertionClass) -> bool;
    /// Inserts the value for `key` after a miss.
    fn insert(&self, key: u64, class: InsertionClass, value: u64);
    /// Panics with `msg` while holding `key`'s shard lock.
    fn poisoning_probe(&self, key: u64, class: InsertionClass, msg: &str);
    /// Poisoned-lock recoveries performed so far.
    fn poison_recoveries(&self) -> u64;
}

impl ServeCache for ConcurrentNucache<u64> {
    fn fetch(&self, key: u64, class: InsertionClass) -> bool {
        self.get_with(key, class, |_| ()).is_some()
    }

    fn insert(&self, key: u64, class: InsertionClass, value: u64) {
        self.put(key, class, value);
    }

    fn poisoning_probe(&self, key: u64, class: InsertionClass, msg: &str) {
        // Panic while the shard lock is held (hit or miss), poisoning
        // the shard so later accesses exercise lock_shard's recovery.
        let _ = class;
        self.with_shard(self.shard_of(key), |_| panic!("{}", msg.to_string()));
    }

    fn poison_recoveries(&self) -> u64 {
        ConcurrentNucache::poison_recoveries(self)
    }
}

/// One way of a [`ShardedLru`] set: tag, LRU stamp, value.
type LruWay = Option<(u64, u64, u64)>;

/// A shard of the lock-striped LRU baseline: plain set-associative LRU
/// over the same `sets × ways` geometry as a NUcache shard.
struct LruShard {
    ways: Vec<LruWay>,
    assoc: usize,
    set_mask: u64,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl LruShard {
    fn lookup(&mut self, key: u64) -> bool {
        #[expect(clippy::cast_possible_truncation, reason = "masked below the set count")]
        let set = (key & self.set_mask) as usize;
        let tag = key >> self.set_mask.count_ones();
        self.stamp += 1;
        let base = set * self.assoc;
        for (t, stamp, _) in self.ways[base..base + self.assoc].iter_mut().flatten() {
            if *t == tag {
                *stamp = self.stamp;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn install(&mut self, key: u64, value: u64) {
        #[expect(clippy::cast_possible_truncation, reason = "masked below the set count")]
        let set = (key & self.set_mask) as usize;
        let tag = key >> self.set_mask.count_ones();
        self.stamp += 1;
        let base = set * self.assoc;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for (i, way) in self.ways[base..base + self.assoc].iter().enumerate() {
            match way {
                None => {
                    victim = base + i;
                    break;
                }
                Some((t, _, _)) if *t == tag => {
                    victim = base + i;
                    break;
                }
                Some((_, stamp, _)) if *stamp < oldest => {
                    oldest = *stamp;
                    victim = base + i;
                }
                Some(_) => {}
            }
        }
        self.ways[victim] = Some((tag, self.stamp, value));
    }
}

/// The lock-striped LRU baseline: `shards` independently locked
/// set-associative LRU shards, routed exactly like [`ConcurrentNucache`]
/// ([`mix64`] then [`FastRange`]), with the same poisoned-lock
/// recovery so fault-injected comparisons stay apples-to-apples.
pub struct ShardedLru {
    shards: Vec<Mutex<LruShard>>,
    route: FastRange,
    recoveries: AtomicU64,
}

impl ShardedLru {
    /// `shards` stripes of `sets × ways` LRU entries.
    pub fn new(shards: usize, sets: usize, ways: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        let shard = || LruShard {
            ways: vec![None; sets * ways],
            assoc: ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
            hits: 0,
            misses: 0,
        };
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(shard())).collect(),
            route: FastRange::below(shards as u64),
            recoveries: AtomicU64::new(0),
        }
    }

    fn lock(&self, key: u64) -> std::sync::MutexGuard<'_, LruShard> {
        #[expect(clippy::cast_possible_truncation, reason = "`reduce` is below the shard count")]
        let i = self.route.reduce(mix64(key)) as usize;
        self.shards[i].lock().unwrap_or_else(|poisoned| {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            PoisonError::into_inner(poisoned)
        })
    }

    /// Total hits and misses across shards.
    pub fn counters(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            hits += s.hits;
            misses += s.misses;
        }
        (hits, misses)
    }
}

impl ServeCache for ShardedLru {
    fn fetch(&self, key: u64, class: InsertionClass) -> bool {
        let _ = class; // the baseline is class-blind by design
        self.lock(key).lookup(key)
    }

    fn insert(&self, key: u64, _class: InsertionClass, value: u64) {
        self.lock(key).install(key, value);
    }

    fn poisoning_probe(&self, key: u64, _class: InsertionClass, msg: &str) {
        let _guard = self.lock(key);
        panic!("{}", msg.to_string());
    }

    fn poison_recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }
}

/// Per-worker tallies, merged after the join.
struct WorkerStats {
    ops: u64,
    hits: u64,
    misses: u64,
    batches: u64,
    batch_panics: u64,
    latency: Log2Histogram,
}

/// One closed-loop worker: replays its trace stream in
/// [`BATCH_OPS`]-request batches until the deadline.
fn worker<C: ServeCache>(
    cache: &C,
    cfg: &LoadgenConfig,
    thread_id: usize,
    deadline: Instant,
) -> WorkerStats {
    let spec = cfg.workload.spec();
    #[expect(clippy::cast_possible_truncation, reason = "thread counts are far below u8::MAX")]
    let mut generator =
        TraceGen::new(&spec, CoreId::new(thread_id as u8), cfg.seed ^ thread_id as u64);
    let mut stats = WorkerStats {
        ops: 0,
        hits: 0,
        misses: 0,
        batches: 0,
        batch_panics: 0,
        latency: Log2Histogram::new(LATENCY_BUCKETS),
    };
    while Instant::now() < deadline {
        // Per-thread batch index: disjoint per thread so the seeded
        // plan faults reproducible batches regardless of interleaving.
        let batch_index = ((thread_id as u64) << 40) | stats.batches;
        stats.batches += 1;
        let fault = cfg
            .fault_plan
            .filter(|p| p.should_fault(FaultSite::ServeBatch, batch_index))
            .map(|p| p.message(FaultSite::ServeBatch, batch_index));
        let batch: Vec<(u64, InsertionClass)> = (&mut generator)
            .take(BATCH_OPS)
            .map(|a| (a.addr.line(BLOCK_BITS).0, InsertionClass::new(a.pc.0)))
            .collect();
        // The batch is the unit of panic isolation: an injected fault
        // unwinds out of the request loop (possibly poisoning a shard),
        // the generator abandons the rest of the batch and moves on.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for (i, &(key, class)) in batch.iter().enumerate() {
                if i == BATCH_OPS / 2 {
                    if let Some(msg) = &fault {
                        cache.poisoning_probe(key, class, msg);
                    }
                }
                let start = Instant::now();
                if cache.fetch(key, class) {
                    stats.hits += 1;
                } else {
                    // Simulated origin fetch: charged outside every
                    // lock, so concurrent misses overlap.
                    std::thread::sleep(cfg.backend);
                    cache.insert(key, class, key);
                    stats.misses += 1;
                }
                #[expect(clippy::cast_possible_truncation, reason = "latencies fit u64 ns")]
                stats.latency.record(start.elapsed().as_nanos() as u64);
                stats.ops += 1;
            }
        }));
        if outcome.is_err() {
            stats.batch_panics += 1;
        }
    }
    stats
}

/// Drives `cache` with `cfg.threads` closed-loop workers and merges
/// their tallies. `cache_label` names the report; epoch installs and
/// poison recoveries are filled by the cache-specific wrappers.
pub fn run_loadgen<C: ServeCache>(
    cache: &C,
    cfg: &LoadgenConfig,
    cache_label: &'static str,
) -> LoadgenReport {
    assert!(cfg.threads >= 1, "need at least one worker");
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let merged = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|thread_id| scope.spawn(move || worker(cache, cfg, thread_id, deadline)))
            .collect();
        let mut merged = WorkerStats {
            ops: 0,
            hits: 0,
            misses: 0,
            batches: 0,
            batch_panics: 0,
            latency: Log2Histogram::new(LATENCY_BUCKETS),
        };
        for handle in workers {
            #[expect(
                clippy::expect_used,
                reason = "workers catch batch panics; join only fails on harness bugs"
            )]
            let stats = handle.join().expect("workers never panic (batches unwind inside)");
            merged.ops += stats.ops;
            merged.hits += stats.hits;
            merged.misses += stats.misses;
            merged.batches += stats.batches;
            merged.batch_panics += stats.batch_panics;
            merged.latency.merge(&stats.latency);
        }
        merged
    });
    let seconds = start.elapsed().as_secs_f64();
    LoadgenReport {
        cache: cache_label,
        threads: cfg.threads,
        ops: merged.ops,
        hits: merged.hits,
        misses: merged.misses,
        seconds,
        ops_per_sec: merged.ops as f64 / seconds.max(1e-9),
        p50_ns: merged.latency.quantile(0.5),
        p99_ns: merged.latency.quantile(0.99),
        batches: merged.batches,
        batch_panics: merged.batch_panics,
        poison_recoveries: cache.poison_recoveries(),
        epoch_installs: 0,
    }
}

/// How often the background epoch thread sweeps the shards.
const EPOCH_SWEEP_INTERVAL: Duration = Duration::from_millis(1);

/// Runs the load against a sharded NUcache with its background epoch
/// thread (deferred selection, swept every millisecond).
pub fn run_nucache(cfg: &LoadgenConfig) -> LoadgenReport {
    #[expect(clippy::expect_used, reason = "geometry is static and checked by the unit tests")]
    let cache: Arc<ConcurrentNucache<u64>> =
        Arc::new(ConcurrentNucache::init(ConcurrentConfig::new(cfg.shards, cfg.shard)).expect(
            "loadgen shard geometry is valid by construction (power-of-two sets, deli < ways)",
        ));
    let epochs = EpochThread::spawn(Arc::clone(&cache), EPOCH_SWEEP_INTERVAL);
    let mut report = run_loadgen(&*cache, cfg, "nucache");
    report.epoch_installs = epochs.stop();
    report.poison_recoveries = ServeCache::poison_recoveries(&*cache);
    report
}

/// Runs the load against the lock-striped LRU baseline (same shard
/// count and `sets × ways` geometry).
pub fn run_striped_lru(cfg: &LoadgenConfig) -> LoadgenReport {
    let cache = ShardedLru::new(cfg.shards, cfg.shard.sets, cfg.shard.ways);
    run_loadgen(&cache, cfg, "striped_lru")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> LoadgenConfig {
        let mut cfg = LoadgenConfig::new(threads, Duration::from_millis(80));
        cfg.backend = Duration::from_micros(20);
        cfg.shards = 4;
        cfg
    }

    #[test]
    fn nucache_loadgen_serves_and_installs_epochs() {
        let report = run_nucache(&quick(2));
        assert_eq!(report.cache, "nucache");
        assert!(report.ops > 0, "closed loop must complete requests");
        assert_eq!(report.ops, report.hits + report.misses);
        assert!(report.p99_ns.is_some(), "latencies were recorded");
        assert_eq!(report.batch_panics, 0, "no fault plan, no panics");
    }

    #[test]
    fn striped_lru_loadgen_serves() {
        let report = run_striped_lru(&quick(2));
        assert_eq!(report.cache, "striped_lru");
        assert!(report.ops > 0);
        assert_eq!(report.ops, report.hits + report.misses);
        assert_eq!(report.poison_recoveries, 0);
    }

    #[test]
    fn injected_faults_panic_batches_and_recover() {
        let mut cfg = quick(2);
        cfg.fault_plan = Some(FaultPlan::new(9));
        let report = run_nucache(&cfg);
        assert!(report.batch_panics > 0, "the 1-in-8 batch fault rate must fire");
        // The probe panics while holding the shard lock, so at least
        // one later access must have recovered a poisoned shard...
        assert!(report.poison_recoveries > 0, "{report:?}");
        // ...and every request after the panics still completed: the
        // cache recovered instead of wedging.
        assert_eq!(report.ops, report.hits + report.misses);
    }

    #[test]
    fn lru_shard_is_an_lru() {
        let mut shard =
            LruShard { ways: vec![None; 2], assoc: 2, set_mask: 0, stamp: 0, hits: 0, misses: 0 };
        assert!(!shard.lookup(1));
        shard.install(1, 10);
        assert!(!shard.lookup(2));
        shard.install(2, 20);
        assert!(shard.lookup(1)); // 1 is now MRU
        shard.install(3, 30); // evicts 2 (LRU), not 1
        assert!(shard.lookup(1));
        assert!(!shard.lookup(2));
        assert!(shard.lookup(3));
    }
}
